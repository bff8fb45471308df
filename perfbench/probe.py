"""The layer probe of traced runs: a small fixed job set touching every layer.

A traced run measures its own workload's spans first.  Per-layer metrics of
layers the workload never calls come from this probe instead, so every
traced run reports every per-layer metric, each with its source.  The
lattice-primitive timings always come from here: they time ``kinds``
functions over the shapes and weights that doob-drift's DPs visit.
"""

from __future__ import annotations

import random

import char_table
import desk_mix
import doob_drift
import pitman_long
from common import Job, prob_vector

PITMAN_LENGTHS = (64, 128, 256)
DOOB_SPECS = tuple(
    spec._replace(
        green_steps=steps, martin_steps=steps[:1], horizons=(8, 12, 16), remaining=6,
        row_steps=(0, 2), skew_steps=steps[:1], paths=max(2, spec.paths // 4),
    )
    for spec, steps in zip(doob_drift.SPECS, ((8, 12, 16), (8, 12, 16), (6, 8, 10)))
)
TABLES = (
    char_table.Table(("strict", 3, 0), 8, (30, 19, 12), (4, 4)),
    char_table.Table(("strict", 4, 0), 6, (24, 18, 12, 7), (3, 3)),
    char_table.Table(("empty", 3, 0), 6, (30, 19, 12), (3, 3)),
    char_table.Table(("hook", 1, 2), 5, (30, 19, 12), (3, 2)),
)
WEYL = (
    (("empty", 5, 0), (20, 16, 12, 8, 5), 1),
    (("strict", 5, 0), (20, 16, 12, 8, 5), 1),
)
PRIMITIVE_BOXES = 10   # lattice primitives run over every shape up to this size ...
PRIMITIVE_REPEATS = 20  # ... this many times


def _repeat(fn, calls):
    for kind, args in calls:
        fn(kind, *args)


def _primitive_job(name, fn, calls) -> Job:
    span, attrs = "kinds." + name, {"calls": len(calls)}
    return Job(span, lambda t: t.call(span, _repeat, fn, calls, attrs=attrs), attrs)


def primitive_jobs(rng) -> list[Job]:
    """Time each lattice primitive over the shapes inside doob-drift's
    largest drift shapes, and over the weights its DPs try from them."""
    from superwalk import AlgebraKind, contains, drift_shape, in_semigroup
    from superwalk import pi_weight, shape_from_weight, successors
    from superwalk.kinds import check_shape
    from superwalk.multiplicities import shapes_of_size

    fns = {"successors": successors, "in_semigroup": in_semigroup,
           "check_shape": check_shape, "pi_weight": pi_weight,
           "shape_from_weight": shape_from_weight}
    calls = {name: [] for name in fns}
    for spec in doob_drift.SPECS:
        kind = AlgebraKind(*spec.kind)
        top = drift_shape(kind, prob_vector(rng, kind, spec.base), spec.green_steps[-1])
        for boxes in range(PRIMITIVE_BOXES + 1):
            for shape in shapes_of_size(kind, boxes):
                if not contains(kind, top, shape):
                    continue
                weight = pi_weight(kind, shape)
                for name in ("successors", "check_shape", "pi_weight"):
                    calls[name].append((kind, (shape,)))
                calls["shape_from_weight"].append((kind, (weight,)))
                for i in range(kind.N):
                    tried = weight[:i] + (weight[i] + 1,) + weight[i + 1:]
                    calls["in_semigroup"].append((kind, (tried,)))
    return [_primitive_job(name, fns[name], calls[name] * PRIMITIVE_REPEATS) for name in fns]


def build(seed: int) -> list[Job]:
    from superwalk import AlgebraKind

    rng = random.Random(seed)
    plan = [(AlgebraKind(*spec), PITMAN_LENGTHS) for spec, _, _ in pitman_long.KINDS]
    return (
        primitive_jobs(rng)
        + pitman_long.make_jobs(rng, plan)
        + doob_drift.make_jobs(rng, DOOB_SPECS, 1, 2)
        + char_table.make_jobs(rng, TABLES, WEYL, 1, 2, 2)
        + desk_mix.fixed_jobs(desk_mix.read_golden())
    )
