"""doob-drift: the exact conditioning machinery along the drift.

Green functions and Martin kernels at drift-shape steps, truncated stay
probability sweeps over the horizon, rows of the conditioned step kernel,
skew chain counts along the drift and batches of the rejection sampler at
horizon 30.  The graded frontier DP, lattice re-validation and the sampler
dominate; nothing is enumerated or inserted.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from common import Job, Workload, prob_vector


class Spec(NamedTuple):
    kind: tuple            # AlgebraKind arguments (kind, n, m)
    base: tuple            # base step weights; laws are drawn near them
    green_steps: tuple     # drift steps of green(empty, drift_shape(step))
    martin_steps: tuple    # drift steps of the Martin kernels
    horizons: tuple        # horizons of the truncated stay sweep
    remaining: int         # horizon of the conditioned step kernel
    row_steps: tuple       # drift steps of the states whose kernel rows are asked
    skew_steps: tuple      # drift steps of the outer shapes of f_skew
    paths: int             # accepted paths per sampler batch (about 400 attempts)


# Neighbouring sizes differ by at most about a third in cost, so the latency
# distribution has no wide gaps and its percentiles do not jump between seeds.
GL3_STAYS = (2, 4, 6, 7) + tuple(range(8, 31, 2))
SPECS = (
    Spec(("empty", 3, 0), (30, 19, 12), tuple(range(8, 45, 4)), (16, 24, 32), GL3_STAYS,
         12, (0, 1, 2, 3, 4, 6), (8, 16, 24, 32), 40),
    Spec(("strict", 3, 0), (30, 19, 12), tuple(range(8, 45, 4)), (16, 24, 32), GL3_STAYS,
         12, (0, 1, 2, 3, 4, 6), (8, 16, 24, 32), 11),
    Spec(("hook", 2, 2), (24, 17, 12, 8), tuple(range(4, 17)), (8, 10, 12),
         (2, 4, 6) + tuple(range(7, 21)), 8, (0, 1, 2, 3, 4, 6), (8, 10, 12, 14, 16), 12),
)
LAWS_PER_KIND = 2
INNER_SHAPES = ((1,), (2, 1))
ENSEMBLE_LENGTH = 5
ENSEMBLE_HORIZON = 30
BATCHES = 8
GREEN_SUM_LEVELS = (4, 7)
SIGMAS = 4


def _conditioned_row(kind, p, remaining, state):
    from superwalk.markov import conditioned_step_kernel

    return conditioned_step_kernel(kind, p, remaining).successors(state)


def _ensemble(kind, p, paths, stream_seed):
    from superwalk import RngStream
    from superwalk.simulate import sample_conditioned_ensemble

    # A fresh stream per call, so every pass draws the same paths.
    return sample_conditioned_ensemble(kind, p, ENSEMBLE_LENGTH, ENSEMBLE_HORIZON, paths,
                                       RngStream(stream_seed))


def make_jobs(rng, specs, laws_per_kind, batches) -> list[Job]:
    from superwalk import AlgebraKind, drift_shape, f_skew, green
    from superwalk import martin_kernel, stay_probability_truncated, successors

    jobs = []

    def add(kind_name, span, fn, args, attrs, data):
        attrs = dict(attrs, kind=kind_name)
        jobs.append(Job(span.split(".")[-1], lambda t: t.call(span, fn, *args, attrs=attrs),
                        attrs, data))

    for spec in specs:
        kind = AlgebraKind(*spec.kind)
        name = kind.kind
        for law in range(laws_per_kind):
            p = prob_vector(rng, kind, spec.base)
            group = {"kind": kind, "p": p, "group": (name, law)}
            for step in spec.green_steps:
                lam = drift_shape(kind, p, step)
                add(name, "markov.green", green, (kind, p, (), lam),
                    {"size": step, "levels": sum(lam)}, dict(group, lam=lam))
            for step in spec.martin_steps:
                lam = drift_shape(kind, p, step)
                for mu in INNER_SHAPES:
                    add(name, "markov.martin_kernel", martin_kernel, (kind, p, mu, lam),
                        {"size": step, "levels": 2 * sum(lam) - sum(mu)},
                        dict(group, lam=lam, mu=mu))
            for horizon in spec.horizons:
                add(name, "markov.stay_truncated", stay_probability_truncated,
                    (kind, (), p, horizon), {"size": horizon, "levels": horizon},
                    dict(group, horizon=horizon))
            for step in spec.row_steps:
                state = drift_shape(kind, p, step)
                levels = spec.remaining + (spec.remaining - 1) * len(successors(kind, state))
                add(name, "markov.conditioned_step_kernel", _conditioned_row,
                    (kind, p, spec.remaining, state), {"size": step, "levels": levels}, group)
            for step in spec.skew_steps:
                lam = drift_shape(kind, p, step)
                for mu in INNER_SHAPES:
                    add(name, "multiplicities.f_skew", f_skew, (kind, lam, mu),
                        {"size": step}, dict(group, lam=lam, mu=mu))
            for _ in range(batches):
                add(name, "simulate.ensemble", _ensemble,
                    (kind, p, spec.paths, rng.getrandbits(63)),
                    {"size": spec.paths}, dict(group, paths=spec.paths))
    return jobs


def build(seed: int) -> Workload:
    jobs = make_jobs(random.Random(seed), SPECS, LAWS_PER_KIND, BATCHES)
    random.Random(0).shuffle(jobs)
    return Workload(
        jobs, check,
        properties={"dp_levels_per_pass": sum(j.attrs.get("levels", 0) for j in jobs)},
    )


def check(jobs, outputs) -> dict[int, str]:
    """Exact identities of the Doob/Green machinery, and the sampler's
    acceptance against the exact truncated stay probability."""
    from superwalk import f_count, f_skew, green, pi_weight, stay_probability
    from superwalk import stay_probability_truncated
    from superwalk.multiplicities import shapes_of_size

    problems: dict[int, str] = {}
    groups: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        if outputs[i] is not None:
            groups.setdefault(job.data["group"], []).append(i)

    z_by_kind: dict[str, list[tuple[float, list[int]]]] = {}
    for (name, _), members in groups.items():
        kind, p = jobs[members[0]].data["kind"], jobs[members[0]].data["p"]
        stays = {}
        accepted = attempts = 0
        ensembles = []
        for i in members:
            job, out = jobs[i], outputs[i]
            if job.kind == "green":
                lam = job.data["lam"]
                if out != f_count(kind, lam) * p.monomial(pi_weight(kind, lam)):
                    problems[i] = f"green(0, {lam}) != f_count * p^pi"
            elif job.kind == "martin_kernel":
                lam, mu = job.data["lam"], job.data["mu"]
                expect = (f_skew(kind, lam, mu) * p.monomial([-e for e in pi_weight(kind, mu)])
                          / f_count(kind, lam))
                if out != expect:
                    problems[i] = f"martin({mu}, {lam}) != f_skew / f_count * p^-pi(mu)"
            elif job.kind == "stay_truncated":
                stays[job.data["horizon"]] = (i, out)
            elif job.kind == "conditioned_step_kernel":
                if sum(v for _, v in out) != 1 or any(v <= 0 for _, v in out):
                    problems[i] = "conditioned kernel row is not a probability vector"
            elif job.kind == "f_skew":
                if not isinstance(out, int) or out <= 0:
                    problems[i] = f"f_skew returned {out!r}"
            elif job.kind == "ensemble":
                if out.paths != job.data["paths"]:
                    problems[i] = "sampler returned the wrong number of paths"
                accepted += out.paths
                attempts += out.attempts
                ensembles.append(i)
        closed = stay_probability(kind, (), p)
        previous = None
        for horizon in sorted(stays):
            i, value = stays[horizon]
            if value < closed:
                problems[i] = f"truncated stay at horizon {horizon} is below the closed form"
            elif previous is not None and value > previous:
                problems[i] = f"truncated stay increases at horizon {horizon}"
            previous = value
        for level in GREEN_SUM_LEVELS:
            if level in stays:
                i, value = stays[level]
                total = sum(green(kind, p, (), lam) for lam in shapes_of_size(kind, level))
                if total != value:
                    problems[i] = f"sum of green at level {level} != truncated stay"
        if attempts:
            exact = float(stay_probability_truncated(kind, (), p, ENSEMBLE_HORIZON))
            sigma = math.sqrt(exact * (1 - exact) / attempts)
            z_by_kind.setdefault(name, []).append(((accepted / attempts - exact) / sigma,
                                                   ensembles))
    # One test per kind: the laws' z-scores are independent, so their sum
    # over the square root of their count is again a standard normal.
    for name, parts in z_by_kind.items():
        z = sum(zi for zi, _ in parts) / math.sqrt(len(parts))
        if abs(z) > SIGMAS:
            for _, members in parts:
                for i in members:
                    problems[i] = f"{name} acceptance is {z:.2f} sigma from the exact stay"
    return problems
