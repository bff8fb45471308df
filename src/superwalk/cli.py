"""Command-line surface with stable machine-readable output.

Exit codes: 0 success, 1 internal check failed, 2 bad input, 3 resource
budget exceeded.  Rationals are serialized as "num/den" strings; floats
appear only in Monte Carlo estimate columns.  Defaults can be overridden by
SUPERWALK_* environment variables, which are checked by the same argparse
types as the flags.  The parser is built once per process; ``main`` reads
the SUPERWALK_* variables on every call, not at import.  Output is written
atomically when --output is given.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from itertools import islice

from . import __version__
from .characters import ProbVector, character_value
from .errors import (
    BudgetExceededError,
    InvalidInputError,
    SamplingFailureError,
    SuperwalkError,
)
from .insertion import pitman, rsk
from .kinds import (
    EMPTY,
    HOOK,
    STRICT,
    AlgebraKind,
    _levels,
    _pi,
    format_rational,
    format_word,
    parse_shape,
    parse_word,
    shape_to_json,
)
from .markov import stay_probability
from .multiplicities import decompose_product, lr_count
from .simulate import (
    RngStream,
    asympt_multiplicity_experiment,
    estimate_conditioned_acceptance,
    estimate_letter_frequencies,
    estimate_shape_law,
    quotient_llt_experiment,
)
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def _int_at_least(low: int):
    """Argparse type for an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


POSITIVE = _int_at_least(1)
NONNEGATIVE = _int_at_least(0)


def _int_tuple(text: str) -> tuple[int, ...]:
    """Argparse type for integers separated by commas or spaces."""
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers such as 1,0, got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser, native: str, env: list, kinded: bool = True):
    if kinded:
        parser.add_argument("--kind", choices=(EMPTY, HOOK, STRICT), required=True)
        parser.add_argument("--n", type=int, required=True)
        parser.add_argument("--m", type=int, default=0, help="barred rank (hook kind only)")
    env.append((parser.add_argument("--budget", type=POSITIVE), "SUPERWALK_BUDGET", "8"))
    env.append((parser.add_argument("--output"), "SUPERWALK_OUTPUT", None))
    format_ = parser.add_argument(
        "--format",
        choices=("json", "csv"),
        help="output format; each command has one native format",
    )
    env.append((format_, "SUPERWALK_FORMAT", None))
    parser.set_defaults(native=native)


def _kind_from(args) -> AlgebraKind:
    if args.kind == HOOK:
        if not args.m:
            raise InvalidInputError("--kind hook requires --m")
        return AlgebraKind.hook(args.m, args.n)
    if args.m:
        raise InvalidInputError("--m is meaningful only for --kind hook")
    return AlgebraKind(args.kind, args.n)


def _emit(args, text: str):
    if args.output:
        directory = os.path.dirname(os.path.abspath(args.output)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".superwalk-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, args.output)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict):
    payload = {"version": __version__, **payload}
    _emit(args, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def _csv_text(header: list[str], rows: list[list], comments: list[str] = ()) -> str:
    buffer = io.StringIO()
    for comment in (f"# superwalk {__version__}", *comments):
        buffer.write(comment + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_rsk(args) -> int:
    kind = _kind_from(args)
    word = parse_word(kind, args.word)
    pair = rsk(kind, word)
    _emit_json(
        args,
        {
            "kind": kind.kind,
            "n": kind.n,
            "m": kind.m,
            "word": format_word(word),
            "p_tableau": pair.p.to_json(),
            "q_tableau": pair.q.to_json(),
        },
    )
    return EXIT_OK


def cmd_pitman(args) -> int:
    kind = _kind_from(args)
    word = parse_word(kind, args.word)
    chain = pitman(kind, word)
    lines = [
        json.dumps({"step": i + 1, "shape": shape_to_json(s)}) for i, s in enumerate(chain)
    ]
    _emit(args, "".join(line + "\n" for line in lines))
    return EXIT_OK


def cmd_char(args) -> int:
    kind = _kind_from(args)
    shape = parse_shape(kind, args.shape)
    p = ProbVector.parse(kind, args.p)
    routes = ("tableaux", "weyl") if args.route == "both" else (args.route,)
    values = [
        character_value(kind, shape, p.values, route=route, budget=args.budget)
        for route in routes
    ]
    agreement = values[0] == values[1] if len(values) == 2 else None
    _emit_json(
        args,
        {
            "kind": kind.kind,
            "n": kind.n,
            "m": kind.m,
            "shape": shape_to_json(shape),
            "p": p.to_json(),
            "route": args.route,
            "value": format_rational(values[0]),
            "route_agreement": agreement,
        },
    )
    return EXIT_OK if agreement in (None, True) else EXIT_CHECK_FAILED


def cmd_multiplicity(args) -> int:
    kind = _kind_from(args)
    kappa = parse_shape(kind, args.kappa)
    mu = parse_shape(kind, args.mu)
    dec = decompose_product(kind, kappa, mu, budget=args.budget)
    lr_agreement = None
    if kind.kind == HOOK:
        lr_agreement = all(
            lr_count(kind, lam, kappa, mu) == mult for lam, mult in dec.items()
        )
    _emit_json(
        args,
        {
            "kind": kind.kind,
            "n": kind.n,
            "m": kind.m,
            "kappa": shape_to_json(kappa),
            "mu": shape_to_json(mu),
            "multiplicities": {
                ",".join(map(str, lam)) if lam else "0": mult
                for lam, mult in sorted(dec.items())
            },
            "lr_agreement": lr_agreement,
        },
    )
    return EXIT_OK if lr_agreement in (None, True) else EXIT_CHECK_FAILED


def cmd_exit_prob(args) -> int:
    kind = _kind_from(args)
    shape = parse_shape(kind, args.shape)
    p = ProbVector.parse(kind, args.p)
    closed = stay_probability(kind, shape, p, budget=args.budget)
    rows = []
    # row r is level r of one pass of the graded walk, weighted by p
    levels = islice(_levels(kind, _pi(kind, shape), p.values), 1, args.horizon + 1)
    for horizon, level in enumerate(levels, 1):
        truncated = sum(level.values(), Fraction(0))
        gap = truncated - closed
        rows.append(
            [horizon, format_rational(truncated), format_rational(closed), format_rational(gap)]
        )
    _emit(args, _csv_text(["L", "truncated", "closed_form", "gap"], rows))
    return EXIT_OK


def cmd_simulate(args) -> int:
    kind = _kind_from(args)
    p = ProbVector.parse(kind, args.p)
    rng = RngStream(args.seed)
    if args.experiment == "letters":
        report = estimate_letter_frequencies(kind, p, args.paths, args.length, rng)
    elif args.experiment == "shape-law":
        report = estimate_shape_law(kind, p, args.paths, args.length, rng, budget=args.budget)
    else:
        report = estimate_conditioned_acceptance(
            kind, p, args.length, args.horizon, args.paths, rng
        )
    header = [
        "experiment", "kind", "n", "m", "p", "seed", "count",
        "target", "estimate", "stderr", "reference", "sigma_distance",
    ]
    config = [args.experiment, kind.kind, kind.n, kind.m, args.p, args.seed,
              report.count]
    rows = []
    for target, estimate in report.estimates.items():
        stderr = report.stderrs[target]
        reference = report.references[target]
        distance = abs(estimate - float(reference)) / stderr
        rows.append(
            config + [target, f"{estimate:.10g}", f"{stderr:.6g}",
                      format_rational(reference), f"{distance:.4g}"]
        )
    _emit(args, _csv_text(header, rows))
    return EXIT_OK


def cmd_llt(args) -> int:
    kind = _kind_from(args)
    p = ProbVector.parse(kind, args.p)
    if args.mode == "quotient":
        report = quotient_llt_experiment(kind, p, args.gamma, args.lmax)
    else:
        mu = parse_shape(kind, args.mu)
        report = asympt_multiplicity_experiment(kind, p, mu, args.lmax, budget=args.budget)
    rows = []
    for row in report.rows:
        value = "" if row.value is None else format_rational(row.value)
        deviation = (
            "" if row.value is None else f"{abs(float(row.value) - float(report.target)):.6g}"
        )
        rows.append([row.step, ",".join(map(str, row.shape)), value, deviation])
    comment = f"# final_quartile_max_deviation={report.final_quartile_deviation:.6g}"
    _emit(args, _csv_text(["step", "shape", "value", "abs_deviation"], rows, [comment]))
    return EXIT_OK


def cmd_verify(args) -> int:
    overrides = {
        "n": args.n,
        "m": args.m,
        "length": args.length,
        "budget": args.budget,
    }
    failures = run_suite(args.suite, **overrides)
    _emit_json(
        args,
        {
            "suite": args.suite,
            "config": {k: v for k, v in overrides.items() if v is not None},
            "passed": not failures,
            "failures": failures,
        },
    )
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process.

    It reads no environment variable.  Its ``env_defaults`` lists the
    (action, SUPERWALK_* variable, fallback) triples that ``main`` turns
    into defaults before each parse.  Those defaults stay strings: argparse
    runs a string default through the action's ``type`` only when the flag
    is absent from a command that has it, so a value is checked exactly like
    the flag, and a command reads only its own variables.
    """
    parser = argparse.ArgumentParser(
        prog="superwalk",
        description="Exact tableau combinatorics and conditioned one-way simple walks.",
    )
    parser.add_argument("--version", action="version", version=f"superwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    env: list = []

    p_rsk = sub.add_parser("rsk", help="insertion and recording tableaux of a word")
    _add_common(p_rsk, "json", env)
    p_rsk.add_argument(
        "word",
        help="word such as 232143 or -23-2 (barred letters negative; place a "
        "bare -- before words starting with a barred letter)",
    )
    p_rsk.set_defaults(func=cmd_rsk)

    p_pit = sub.add_parser("pitman", help="prefix shape sequence of a word as JSON lines")
    _add_common(p_pit, "json", env)
    p_pit.add_argument("word")
    p_pit.set_defaults(func=cmd_pitman)

    p_char = sub.add_parser("char", help="exact character evaluation")
    _add_common(p_char, "json", env)
    p_char.add_argument("--shape", required=True)
    p_char.add_argument("--p", required=True, help='rationals such as "1/2,1/3,1/6"')
    p_char.add_argument("--route", choices=("tableaux", "weyl", "both"), default="both")
    p_char.set_defaults(func=cmd_char)

    p_mult = sub.add_parser("multiplicity", help="tensor product decomposition")
    _add_common(p_mult, "json", env)
    p_mult.add_argument("--kappa", required=True)
    p_mult.add_argument("--mu", required=True)
    p_mult.set_defaults(func=cmd_multiplicity)

    p_exit = sub.add_parser("exit-prob", help="stay probabilities, closed form and truncated")
    _add_common(p_exit, "csv", env)
    p_exit.add_argument("--shape", default="0")
    p_exit.add_argument("--p", required=True)
    env.append((p_exit.add_argument("--horizon", type=NONNEGATIVE), "SUPERWALK_HORIZON", "30"))
    p_exit.set_defaults(func=cmd_exit_prob)

    p_sim = sub.add_parser("simulate", help="Monte Carlo experiments with exact references")
    _add_common(p_sim, "csv", env)
    p_sim.add_argument("--p", required=True)
    p_sim.add_argument(
        "--experiment", choices=("letters", "shape-law", "conditioned"), default="letters"
    )
    p_sim.add_argument("--paths", type=POSITIVE, default=10000)
    env.append((p_sim.add_argument("--length", type=POSITIVE), "SUPERWALK_LENGTH", "4"))
    env.append((p_sim.add_argument("--horizon", type=NONNEGATIVE), "SUPERWALK_HORIZON", "30"))
    env.append((p_sim.add_argument("--seed", type=int), "SUPERWALK_SEED", "20120214"))
    p_sim.set_defaults(func=cmd_simulate)

    p_llt = sub.add_parser("llt", help="exact-DP drift trend experiments")
    _add_common(p_llt, "csv", env)
    p_llt.add_argument("--p", required=True)
    p_llt.add_argument("--mode", choices=("quotient", "asympt"), default="quotient")
    p_llt.add_argument(
        "--gamma", type=_int_tuple, default="1,0", help="fixed weight for the quotient mode"
    )
    p_llt.add_argument("--mu", default="1", help="shape for the asympt mode")
    p_llt.add_argument("--lmax", type=POSITIVE, default=40)
    p_llt.set_defaults(func=cmd_llt)

    p_verify = sub.add_parser("verify", help="run a named exhaustive identity suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--length", type=POSITIVE, default=None)
    _add_common(p_verify, "json", env, kinded=False)
    p_verify.set_defaults(func=cmd_verify)

    parser.env_defaults = tuple(env)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    for action, variable, fallback in parser.env_defaults:
        action.default = os.environ.get(variable, fallback)
    args = parser.parse_args(argv)
    try:
        if args.format not in (None, args.native):
            raise InvalidInputError(f"this command emits {args.native} output only")
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"superwalk: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SamplingFailureError as exc:
        print(
            f"superwalk: sampling budget exhausted: {exc} "
            f"(acceptance rate estimate {exc.acceptance_rate:.3g})",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    except InvalidInputError as exc:
        print(f"superwalk: bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        # the commands compute in memory; their only I/O is writing the output
        print(f"superwalk: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SuperwalkError as exc:
        print(f"superwalk: internal check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
