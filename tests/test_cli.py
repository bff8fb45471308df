"""Command-line surface: golden outputs, schemas, exit codes, determinism."""

import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from superwalk.cli import build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"
SCHEMA_DIR = Path(__file__).parent.parent / "src" / "superwalk" / "schemas"

GOLDEN_COMMANDS = {
    "rsk_empty.json": ["rsk", "--kind", "empty", "--n", "4", "232143"],
    "rsk_strict.json": ["rsk", "--kind", "strict", "--n", "5", "232145331"],
    "rsk_hook.json": ["rsk", "--kind", "hook", "--m", "2", "--n", "3", "--", "-23-2-132-12"],
    "pitman_empty.jsonl": ["pitman", "--kind", "empty", "--n", "3", "1121231212"],
    "pitman_strict.jsonl": ["pitman", "--kind", "strict", "--n", "3", "1121231212"],
    "char_strict.json": [
        "char", "--kind", "strict", "--n", "2", "--shape", "3,1",
        "--p", "2/3,1/3", "--route", "both",
    ],
    "multiplicity_hook.json": [
        "multiplicity", "--kind", "hook", "--m", "2", "--n", "2",
        "--kappa", "1", "--mu", "2,1",
    ],
    "exit_prob_empty.csv": [
        "exit-prob", "--kind", "empty", "--n", "2", "--p", "2/3,1/3",
        "--horizon", "10", "--format", "csv",
    ],
    "simulate_letters.csv": [
        "simulate", "--kind", "empty", "--n", "2", "--p", "2/3,1/3",
        "--experiment", "letters", "--paths", "500", "--length", "4",
        "--seed", "42", "--format", "csv",
    ],
    "llt_quotient.csv": [
        "llt", "--kind", "empty", "--n", "2", "--p", "2/3,1/3",
        "--gamma", "1,0", "--lmax", "10", "--format", "csv",
    ],
    "verify_pieri.json": ["verify", "pieri", "--n", "2", "--m", "1", "--budget", "4"],
}


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs(capsys, regen_golden, name):
    code, out = run_cli(capsys, GOLDEN_COMMANDS[name])
    assert code == 0
    path = GOLDEN_DIR / name
    if regen_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(out)
        pytest.skip("golden file regenerated")
    assert path.exists(), f"golden file {name} missing; run pytest --regen-golden"
    assert out == path.read_text()


def _schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def test_rsk_output_schema(capsys):
    code, out = run_cli(capsys, GOLDEN_COMMANDS["rsk_hook.json"])
    assert code == 0
    jsonschema.validate(json.loads(out), _schema("rsk.schema.json"))


def test_pitman_lines_schema(capsys):
    code, out = run_cli(capsys, GOLDEN_COMMANDS["pitman_empty.jsonl"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 10
    for line in lines:
        jsonschema.validate(line, _schema("pitman-line.schema.json"))
    assert lines[-1]["shape"] == [5, 4, 1]


def test_char_and_multiplicity_schema(capsys):
    code, out = run_cli(capsys, GOLDEN_COMMANDS["char_strict.json"])
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("char.schema.json"))
    assert payload["value"] == "2/9"
    assert payload["route_agreement"] is True

    code, out = run_cli(capsys, GOLDEN_COMMANDS["multiplicity_hook.json"])
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("multiplicity.schema.json"))
    assert payload["lr_agreement"] is True


def test_verify_output_schema(capsys):
    code, out = run_cli(capsys, GOLDEN_COMMANDS["verify_pieri.json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("verify.schema.json"))
    assert payload["passed"] is True


def test_version_stamp_everywhere(capsys):
    from superwalk import __version__

    for name, argv in GOLDEN_COMMANDS.items():
        _, out = run_cli(capsys, argv)
        if name.endswith(".csv"):
            assert out.splitlines()[0] == f"# superwalk {__version__}"
        elif name.endswith(".json"):
            assert json.loads(out)["version"] == __version__


def test_exit_code_bad_letter(capsys):
    code, _ = run_cli(capsys, ["rsk", "--kind", "empty", "--n", "4", "252143"])
    assert code == 2


def test_exit_code_wrong_format(capsys):
    code, _ = run_cli(
        capsys,
        ["rsk", "--kind", "empty", "--n", "4", "--format", "csv", "232143"],
    )
    assert code == 2


def test_exit_code_missing_m(capsys):
    code, _ = run_cli(capsys, ["rsk", "--kind", "hook", "--n", "4", "11"])
    assert code == 2


def test_exit_code_budget(capsys):
    code, _ = run_cli(
        capsys,
        ["char", "--kind", "empty", "--n", "3", "--shape", "9,8,7",
         "--p", "1/2,1/3,1/6", "--route", "tableaux", "--budget", "8"],
    )
    assert code == 3


GL22 = ["--kind", "hook", "--m", "2", "--n", "2", "--p", "4/10,3/10,2/10,1/10"]


@pytest.mark.parametrize(
    "argv",
    [
        ["exit-prob", *GL22, "--shape", "9", "--horizon", "3"],
        ["llt", *GL22, "--mode", "asympt", "--mu", "9", "--lmax", "3"],
        ["simulate", "--kind", "empty", "--n", "2", "--p", "1/2,1/2",
         "--experiment", "shape-law", "--length", "9"],
    ],
    ids=["exit-prob", "llt-asympt", "simulate-shape-law"],
)
def test_budget_reaches_every_character_evaluation(capsys, argv):
    # each command evaluates a character of a nine-box shape; the short horizon
    # and drift range keep the exact DPs after it small
    assert run_cli(capsys, argv + ["--budget", "12"])[0] == 0
    assert main(argv + ["--budget", "8"]) == 3
    assert "budget is 8" in capsys.readouterr().err


def test_empty_word_ok(capsys):
    code, out = run_cli(capsys, ["rsk", "--kind", "empty", "--n", "2", ""])
    assert code == 0
    payload = json.loads(out)
    assert payload["p_tableau"]["rows"] == []


def test_determinism(capsys):
    argv = GOLDEN_COMMANDS["simulate_letters.csv"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_output_file_atomic(tmp_path, capsys):
    target = tmp_path / "out.json"
    argv = GOLDEN_COMMANDS["rsk_empty.json"] + ["--output", str(target)]
    code = main(argv)
    assert code == 0
    assert json.loads(target.read_text())["p_tableau"]["rows"] == [[1, 2, 2], [3, 3], [4]]
    assert capsys.readouterr().out == ""


def test_env_override_budget(monkeypatch, capsys):
    monkeypatch.setenv("SUPERWALK_BUDGET", "2")
    code, _ = run_cli(
        capsys,
        ["char", "--kind", "empty", "--n", "2", "--shape", "2,1",
         "--p", "2/3,1/3", "--route", "tableaux"],
    )
    assert code == 3


SIM_SMALL = ["simulate", "--kind", "empty", "--n", "2", "--p", "2/3,1/3", "--paths", "50"]


@pytest.mark.parametrize(
    "calls",
    [
        [({}, 0), ({"SUPERWALK_BUDGET": "abc"}, 2), ({"SUPERWALK_SEED": "x"}, 2), ({}, 0)],
        # a bad value present when the parser is first built poisons no later call
        [({"SUPERWALK_SEED": "x"}, 2), ({"SUPERWALK_BUDGET": "abc"}, 2), ({}, 0), ({}, 0)],
    ],
    ids=["clean-first", "bad-first"],
)
def test_environment_read_on_every_call(monkeypatch, capsys, calls):
    build_parser.cache_clear()
    clean = []
    for env, expected in calls:
        for key in ("SUPERWALK_BUDGET", "SUPERWALK_SEED"):
            monkeypatch.delenv(key, raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        try:
            code = main(SIM_SMALL)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == expected, (env, captured.err)
        if env:
            assert captured.out == ""
            assert "error:" in captured.err and "Traceback" not in captured.err
        else:
            clean.append(captured.out)
    assert len(clean) == 2 and clean[0] == clean[1]


def test_environment_read_only_by_its_command(monkeypatch, capsys):
    build_parser.cache_clear()
    monkeypatch.setenv("SUPERWALK_SEED", "x")
    code, out = run_cli(capsys, GOLDEN_COMMANDS["rsk_empty.json"])
    assert code == 0
    assert out == (GOLDEN_DIR / "rsk_empty.json").read_text()

    monkeypatch.delenv("SUPERWALK_SEED")
    argv = ["exit-prob", "--kind", "empty", "--n", "2", "--p", "2/3,1/3"]
    monkeypatch.setenv("SUPERWALK_HORIZON", "3")
    _, short = run_cli(capsys, argv)
    monkeypatch.delenv("SUPERWALK_HORIZON")
    _, default = run_cli(capsys, argv)
    # two comment/header lines, then one row per horizon
    assert len(short.splitlines()) == 2 + 3
    assert len(default.splitlines()) == 2 + 30


P9 = "9/45,8/45,7/45,6/45,5/45,4/45,3/45,2/45,1/45"


@pytest.mark.parametrize(
    "kind,shape,value",
    [("strict", "3,2,1", "27104/1366875"), ("empty", "2,1", "44/135")],
)
def test_char_weyl_route_at_rank_9(capsys, kind, shape, value):
    # values printed by the sums over S_9 that the Weyl routes used to take;
    # those took 52 s (q(9)) and 4 s (gl(9)) on a 2-vCPU VM
    start = time.perf_counter()
    code, out = run_cli(
        capsys,
        ["char", "--kind", kind, "--n", "9", "--shape", shape, "--p", P9, "--route", "weyl"],
    )
    assert time.perf_counter() - start < 2
    assert code == 0
    assert json.loads(out)["value"] == value


def test_help_on_every_command(capsys):
    for command in ("rsk", "pitman", "char", "multiplicity", "exit-prob",
                    "simulate", "llt", "verify"):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert "usage" in capsys.readouterr().out


P2_ARGS = ["--kind", "empty", "--n", "2", "--p", "2/3,1/3"]
BAD_INPUTS = {
    "budget-env-not-int": (["simulate", *P2_ARGS], {"SUPERWALK_BUDGET": "abc"}),
    "seed-env-not-int": (["simulate", *P2_ARGS], {"SUPERWALK_SEED": "x"}),
    "zero-paths": (["simulate", *P2_ARGS, "--paths", "0"], {}),
    "zero-length-letters": (["simulate", *P2_ARGS, "--length", "0"], {}),
    "zero-length-shape-law": (
        ["simulate", *P2_ARGS, "--experiment", "shape-law", "--length", "0"], {}
    ),
    "negative-length": (["simulate", *P2_ARGS, "--length", "-1"], {}),
    "gamma-not-int": (["llt", *P2_ARGS, "--gamma", "x"], {}),
    "zero-lmax": (["llt", *P2_ARGS, "--lmax", "0"], {}),
    "negative-horizon": (["exit-prob", *P2_ARGS, "--horizon", "-3"], {}),
    "p-exponent": (["exit-prob", *P2_ARGS, "--p", "1e10000000,1/3"], {}),
    "output-dir-missing": (GOLDEN_COMMANDS["rsk_empty.json"] + ["--output", "{missing}"], {}),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_message(name, monkeypatch, capsys, tmp_path):
    argv, env = BAD_INPUTS[name]
    argv = [a.replace("{missing}", str(tmp_path / "missing" / "out.json")) for a in argv]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    # refused before any costly work: an exponent such as 1e10000000 is
    # never expanded into an exact power of ten
    assert elapsed < 1.0
    assert captured.err.strip() and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


# Grammar of every subcommand for the fuzz test.  Valid values stay small
# (n <= 3, words <= 8 letters, paths <= 20, horizon <= 8, lmax <= 6,
# budget <= 4, verify at desk scale), so each call is cheap; junk tokens,
# zero, negative and far-out integers replace about one value in ten.
JUNK = st.sampled_from(["", "x", "1.5", "-", "--", "1/0", "nan", " ", "0x1", "1e3", "٣"])
MISSING_OUTPUT = os.path.join(tempfile.gettempdir(), "superwalk-no-such-dir", "out")


def _mostly(valid, other):
    return st.integers(0, 9).flatmap(lambda k: other if k == 0 else valid)


def _ints(high, low=1):
    out_of_range = st.one_of(
        st.sampled_from([str(low - 1), "-1"]), st.integers(-(10**30), low - 1).map(str), JUNK
    )
    return _mostly(st.integers(low, high).map(str), out_of_range)


SEEDS = _mostly(st.integers(-(10**30), 10**30).map(str), JUNK)
# (kind flags, alphabet size N, valid step laws for that kind)
KINDS = [
    (["--kind", "empty", "--n", "1"], 1, ["1"]),
    (["--kind", "empty", "--n", "2"], 2, ["2/3,1/3", "3/4,1/4"]),
    (["--kind", "empty", "--n", "3"], 3, ["1/2,1/3,1/6", "4/7,2/7,1/7"]),
    (["--kind", "strict", "--n", "2"], 2, ["2/3,1/3", "3/5,2/5"]),
    (["--kind", "strict", "--n", "3"], 3, ["1/2,1/3,1/6", "4/7,2/7,1/7"]),
    (["--kind", "hook", "--m", "1", "--n", "1"], 2, ["2/3,1/3", "1/3,2/3"]),
    (["--kind", "hook", "--m", "1", "--n", "2"], 3, ["1/2,1/3,1/6", "1/6,1/2,1/3"]),
    (["--kind", "hook", "--m", "2", "--n", "1"], 3, ["1/2,1/3,1/6", "1/2,1/6,1/3"]),
]
BAD_KINDS = st.sampled_from([
    ["--kind", "hook", "--n", "2"],
    ["--kind", "empty", "--n", "2", "--m", "1"],
    ["--kind", "empty", "--n", "0"],
    ["--kind", "strict", "--n", "-1"],
    ["--kind", "bogus", "--n", "2"],
    ["--kind", "empty", "--n", "x"],
    ["--kind", "empty"],
    [],
])
BAD_PROBS = st.one_of(JUNK, st.sampled_from([
    "1/3,1/3,1/3", "1/2,1/2", "1/3,2/3", "1,0", "0.6,0.4", "-1/2,3/2", "1/0,1", "2/3;1/3",
    "1/2,1/4,1/8,1/8",
]))
SHAPES = _mostly(
    st.lists(st.integers(0, 3), max_size=3).map(
        lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
    ),
    st.one_of(JUNK, st.sampled_from(["0", "()", "1,2", "-1", "2,2,2,2", "1,,1", "2 1"])),
)
WORDS = _mostly(
    st.lists(st.sampled_from(["1", "2", "3", "-1", "-2"]), max_size=8).map(",".join),
    st.one_of(JUNK, st.lists(st.sampled_from(["1", "4", "0", "-3", "-"]), max_size=8).map("".join)),
)
FORMATS = {"json": _mostly(st.just("json"), st.sampled_from(["csv", "xml"])),
           "csv": _mostly(st.just("csv"), st.sampled_from(["json", "xml"]))}
# SUPERWALK_HORIZON is always set: the default horizon of 30 is not cheap
ENV = st.fixed_dictionaries({"SUPERWALK_HORIZON": _ints(8, low=0)}, optional={
    "SUPERWALK_BUDGET": _ints(4),
    "SUPERWALK_SEED": SEEDS,
    "SUPERWALK_LENGTH": _ints(8),
    "SUPERWALK_FORMAT": _mostly(st.just("csv"), st.sampled_from(["json", "xml", ""])),
    "SUPERWALK_OUTPUT": _mostly(st.just(""), st.just(MISSING_OUTPUT)),
})
# (native format, flags always given, optional flags) of the kinded commands;
# "P" stands for a step law of the drawn kind.  --paths and --lmax are always
# given because their defaults are not cheap.
GRAMMAR = {
    "rsk": ("json", {}, {}),
    "pitman": ("json", {}, {}),
    "char": ("json", {"--shape": SHAPES, "--p": "P"},
             {"--route": st.sampled_from(["tableaux", "weyl", "both", "x"])}),
    "multiplicity": ("json", {"--kappa": SHAPES, "--mu": SHAPES}, {}),
    "exit-prob": ("csv", {"--p": "P"}, {"--shape": SHAPES, "--horizon": _ints(8, low=0)}),
    "simulate": ("csv", {"--p": "P", "--paths": _ints(20)}, {
        "--experiment": st.sampled_from(["letters", "shape-law", "conditioned", "x"]),
        "--length": _ints(8), "--horizon": _ints(8, low=0),
        "--seed": SEEDS,
    }),
    "llt": ("csv", {"--p": "P", "--lmax": _ints(6)}, {
        "--mode": st.sampled_from(["quotient", "asympt", "x"]),
        "--gamma": _mostly(
            st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(
                lambda g: ",".join(map(str, g))
            ),
            JUNK,
        ),
        "--mu": SHAPES,
    }),
}
SUITES = st.sampled_from([
    "rsk-bijection", "characters-dual-route", "markov-law", "pieri", "lr-hook", "dec-skew",
    "dim2", "x",
])


@st.composite
def cli_calls(draw):
    """(argv, environment) of one CLI call drawn from GRAMMAR."""
    command = draw(st.sampled_from(sorted(GRAMMAR) + ["verify"]))
    if command == "verify":
        # every size flag is given, so no suite runs at its full default size
        argv = ["verify", draw(SUITES), "--n", draw(_ints(2)), "--m", draw(_ints(2)),
                "--length", draw(_ints(3)), "--budget", draw(_ints(4))]
        native, optional = "json", {}
    else:
        native, required, optional = GRAMMAR[command]
        kind_flags, size, laws = draw(st.sampled_from(KINDS))
        kind_flags = draw(_mostly(st.just(kind_flags), BAD_KINDS))
        argv = [command, *kind_flags]
        for flag, values in required.items():
            if values == "P":
                values = _mostly(st.sampled_from(laws), BAD_PROBS)
            argv += [flag, draw(values)]
    optional = {**optional, "--budget": _ints(4), "--format": FORMATS[native]}
    for flag in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        argv += [flag, draw(optional[flag])]
    if draw(st.integers(0, 19)) == 0:
        argv += ["--output", MISSING_OUTPUT]
    if command in ("rsk", "pitman"):
        argv += ["--", draw(WORDS)]
    if draw(st.integers(0, 49)) == 0:
        argv.insert(1, "--help")
    return argv, draw(ENV)


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_calls())
def test_cli_fuzz_never_crashes(call):
    argv, env = call
    saved = {key: os.environ.pop(key) for key in list(os.environ) if key.startswith("SUPERWALK_")}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        for key in env:
            del os.environ[key]
        os.environ.update(saved)
    assert code in (0, 1, 2, 3), (argv, env, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().strip(), (argv, env)
