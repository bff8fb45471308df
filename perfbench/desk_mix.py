"""desk-mix: small calls through ``superwalk.cli.main``, as a person at a
desk makes them.

Every subcommand runs at its golden configuration, all seven ``verify``
suites run, and seeded short words, simulations, stay tables, trend
experiments, characters and products fill the rest.  Validation, parsing
and formatting dominate here, so a change that wins on long inputs but adds
per-call set-up shows.  Four bad inputs ride along: each must give exit
code 2 and no traceback.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from common import ROOT, Job, Workload, prob_vector

GOLDEN_DIR = ROOT / "tests" / "golden"
# The configurations behind the golden files, which this benchmark only reads.
GOLDEN = {
    "rsk_empty.json": ["rsk", "--kind", "empty", "--n", "4", "232143"],
    "rsk_strict.json": ["rsk", "--kind", "strict", "--n", "5", "232145331"],
    "rsk_hook.json": ["rsk", "--kind", "hook", "--m", "2", "--n", "3", "--", "-23-2-132-12"],
    "pitman_empty.jsonl": ["pitman", "--kind", "empty", "--n", "3", "1121231212"],
    "pitman_strict.jsonl": ["pitman", "--kind", "strict", "--n", "3", "1121231212"],
    "char_strict.json": ["char", "--kind", "strict", "--n", "2", "--shape", "3,1",
                         "--p", "2/3,1/3", "--route", "both"],
    "multiplicity_hook.json": ["multiplicity", "--kind", "hook", "--m", "2", "--n", "2",
                               "--kappa", "1", "--mu", "2,1"],
    "exit_prob_empty.csv": ["exit-prob", "--kind", "empty", "--n", "2", "--p", "2/3,1/3",
                            "--horizon", "10", "--format", "csv"],
    "simulate_letters.csv": ["simulate", "--kind", "empty", "--n", "2", "--p", "2/3,1/3",
                             "--experiment", "letters", "--paths", "500", "--length", "4",
                             "--seed", "42", "--format", "csv"],
    "llt_quotient.csv": ["llt", "--kind", "empty", "--n", "2", "--p", "2/3,1/3",
                         "--gamma", "1,0", "--lmax", "10", "--format", "csv"],
    "verify_pieri.json": ["verify", "pieri", "--n", "2", "--m", "1", "--budget", "4"],
}
# Inputs that must be refused with exit code 2 and a message, not a traceback.
BAD = (
    (["simulate", "--kind", "empty", "--n", "2", "--p", "2/3,1/3"], {"SUPERWALK_BUDGET": "abc"}),
    (["simulate", "--kind", "empty", "--n", "2", "--p", "2/3,1/3", "--paths", "0"], {}),
    (["llt", "--kind", "empty", "--n", "2", "--p", "2/3,1/3", "--gamma", "x"], {}),
    (["exit-prob", "--kind", "empty", "--n", "2", "--p", "2/3,1/3", "--horizon", "-3"], {}),
)
# (kind arguments, base weights, whether the kind also gets the seeded
# simulate, exit-prob, llt, char and multiplicity calls).  q(5) and gl(4)
# take short words only: their shape-law references and conditioned
# acceptance would turn a desk call into a long computation.
KINDS = (
    (("empty", 3, 0), (30, 19, 12), True),
    (("empty", 4, 0), (24, 18, 12, 7), False),
    (("hook", 2, 2), (24, 17, 12, 8), True),
    (("hook", 1, 1), (36, 25), True),
    (("strict", 3, 0), (30, 19, 12), True),
    (("strict", 5, 0), (20, 16, 12, 8, 5), False),
)
WORDS_PER_KIND = 12          # rsk and pitman calls per kind, lengths 1..12
EXTRA_LAWS = 4               # seeded step laws per kind with the extra calls
CHAR_BOXES = (2, 3)          # box counts of the shapes of the char calls
PRODUCT_BOXES = ((1, 1), (2, 1))   # box counts of (kappa, mu) of the multiplicity calls
SUITE_BUDGET = "6"           # keeps each suite a desk-scale call (CLI default is 8)
HORIZON = 10                 # rows of each seeded exit-prob table
SIGMAS = 5                   # Monte Carlo rows must sit within this many sigma


def call_cli(main, argv, env):
    """Run ``main(argv)`` in-process; return (exit code, stdout, stderr).

    An exception escaping ``main`` propagates: a person at a terminal would
    see it as a traceback, so the job fails.
    """
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, out.getvalue(), err.getvalue()


def _kind_args(kind) -> list[str]:
    args = ["--kind", kind.kind, "--n", str(kind.n)]
    return args + (["--m", str(kind.m)] if kind.kind == "hook" else [])


def _p_arg(p) -> str:
    return ",".join(f"{v.numerator}/{v.denominator}" for v in p.values)


def _cli_job(argv, env=None, expect=0, **data) -> Job:
    from superwalk.cli import main

    sub = argv[0]
    attrs = {"sub": sub}
    if "suite" in data:
        attrs["suite"] = data["suite"]
    env = env or {}
    return Job("cli." + sub,
               lambda t: t.call("cli." + sub, call_cli, main, argv, env, attrs=attrs),
               attrs, dict(data, argv=argv, expect=expect))


def fixed_jobs(golden_text) -> list[Job]:
    """Every subcommand at its golden configuration, and the seven suites."""
    from superwalk.suites import SUITE_NAMES

    return [_cli_job(argv, golden=golden_text[name]) for name, argv in GOLDEN.items()] + [
        _cli_job(["verify", suite, "--budget", SUITE_BUDGET], suite=suite)
        for suite in SUITE_NAMES
    ]


def seeded_jobs(rng) -> list[Job]:
    """The four bad inputs, then seeded calls for every kind in KINDS."""
    from superwalk import AlgebraKind

    jobs = [_cli_job(argv, env, expect=2, bad=True) for argv, env in BAD]
    for spec, base, extras in KINDS:
        kind = AlgebraKind(*spec)
        kargs = _kind_args(kind)
        for length in range(1, WORDS_PER_KIND + 1):
            word = tuple(rng.choice(kind.alphabet) for _ in range(length))
            text = ",".join(map(str, word))
            jobs.append(_cli_job(["rsk", *kargs, "--", text], kind=kind, word=word))
            jobs.append(_cli_job(["pitman", *kargs, "--", text], kind=kind, word=word))
        for _ in range(EXTRA_LAWS if extras else 0):
            jobs += extra_jobs(rng, kind, kargs, _p_arg(prob_vector(rng, kind, base)))
    return jobs


def extra_jobs(rng, kind, kargs, parg) -> list[Job]:
    """simulate (each experiment), exit-prob, llt (both modes), char and
    multiplicity calls for one kind and step law; shapes are drawn among
    those of fixed box counts, so the seed does not change input sizes."""
    from superwalk.multiplicities import shapes_of_size

    def shape(boxes):
        return ",".join(map(str, rng.choice(shapes_of_size(kind, boxes))))

    jobs = []
    seed = str(rng.randrange(10**6))
    gamma = ",".join(["1"] + ["0"] * (kind.N - 1))
    argvs = [
        ["simulate", *kargs, "--p", parg, "--experiment", "letters",
         "--paths", "200", "--length", "4", "--seed", seed],
        ["simulate", *kargs, "--p", parg, "--experiment", "shape-law",
         "--paths", "100", "--length", "3", "--seed", seed],
        ["simulate", *kargs, "--p", parg, "--experiment", "conditioned",
         "--paths", "20", "--length", "3", "--horizon", "12", "--seed", seed],
    ]
    jobs += [_cli_job(argv) for argv in argvs]
    jobs.append(_cli_job(["exit-prob", *kargs, "--p", parg, "--horizon", str(HORIZON)],
                         horizon=HORIZON))
    jobs.append(_cli_job(["llt", *kargs, "--p", parg, "--gamma", gamma, "--lmax", "10"],
                         rows=10))
    jobs.append(_cli_job(["llt", *kargs, "--p", parg, "--mode", "asympt", "--mu", "1",
                          "--lmax", "10"], rows=10))
    route = "tableaux" if kind.kind == "hook" else "both"
    for boxes in CHAR_BOXES:
        jobs.append(_cli_job(["char", *kargs, "--shape", shape(boxes), "--p", parg,
                              "--route", route]))
    for kappa, mu in PRODUCT_BOXES:
        jobs.append(_cli_job(["multiplicity", *kargs, "--kappa", shape(kappa),
                              "--mu", shape(mu)]))
    return jobs


def read_golden() -> dict[str, str]:
    return {name: (GOLDEN_DIR / name).read_text() for name in GOLDEN}


def build(seed: int) -> Workload:
    jobs = fixed_jobs(read_golden()) + seeded_jobs(random.Random(seed))
    random.Random(0).shuffle(jobs)
    return Workload(
        jobs, check,
        properties={"bad_input_jobs": sum(bool(j.data.get("bad")) for j in jobs)},
    )


def _problem(job, code, out, err) -> str | None:
    from superwalk import pitman, rsk, rsk_inverse

    data = job.data
    if code != data["expect"]:
        return f"exit code {code}, expected {data['expect']}"
    if "Traceback" in err:
        return "traceback on stderr"
    if data.get("bad"):
        return None if err.strip() else "bad input refused without a message"
    sub = data["argv"][0]
    if "golden" in data:
        return None if out == data["golden"] else "output differs from the golden file"
    if sub == "verify":
        payload = json.loads(out)
        return None if payload["passed"] and not payload["failures"] else "suite failed"
    if sub == "rsk":
        kind, word = data["kind"], data["word"]
        pair = rsk(kind, word)
        payload = json.loads(out)
        expect = json.loads(json.dumps({"p": pair.p.to_json(), "q": pair.q.to_json()}))
        if payload["p_tableau"] != expect["p"] or payload["q_tableau"] != expect["q"]:
            return "rsk output differs from the library's pair"
        if kind.kind == "empty" and rsk_inverse(kind, pair) != word:
            return "rsk_inverse does not recover the word"
        return None
    if sub == "pitman":
        shapes = [tuple(json.loads(line)["shape"]) for line in out.splitlines()]
        return None if shapes == list(pitman(data["kind"], data["word"])) else "pitman lines differ"
    if sub in ("simulate", "exit-prob", "llt"):
        rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
        if sub == "simulate":
            far = [r["target"] for r in rows if float(r["sigma_distance"]) > SIGMAS]
            return f"estimates beyond {SIGMAS} sigma: {far}" if far or not rows else None
        if sub == "llt":
            return None if len(rows) == data["rows"] else "wrong number of trend rows"
        truncated = [Fraction(r["truncated"]) for r in rows]
        closed = [Fraction(r["closed_form"]) for r in rows]
        if len(rows) != data["horizon"]:
            return "wrong number of horizons"
        if any(a < b for a, b in zip(truncated, truncated[1:])) or min(
            t - c for t, c in zip(truncated, closed)
        ) < 0:
            return "truncated stay is not decreasing to the closed form"
        return None
    payload = json.loads(out)
    if sub == "char":
        return None if payload["route_agreement"] in (None, True) else "routes disagree"
    return None if payload["lr_agreement"] in (None, True) else "LR count disagrees"


def check(jobs, outputs) -> dict[int, str]:
    """Goldens byte-identical, suites pass, seeded outputs agree with the
    library and the exact references, bad inputs refused cleanly."""
    problems = {}
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if out is not None:
            problem = _problem(job, *out)
            if problem:
                problems[i] = problem
    return problems
