"""Monte Carlo engine and exact-DP trend experiments.

Sampling is exact: letters are drawn by comparing 64 random bits against
rational cumulative probabilities, so a seed determines the sample sequence
bit for bit.  Monte Carlo estimates are floats; each report carries the
exact rational value of every estimate, computed elsewhere in the package.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import le
from typing import Sequence

from .characters import ProbVector, check_length, require_condition, schur
from .errors import InvalidInputError, SamplingFailureError
from .kinds import (
    AlgebraKind,
    Shape,
    Weight,
    Word,
    _holds,
    _levels,
    _pi,
    _shape,
    check_shape,
    in_semigroup,
    shape_size,
)
from .markov import green, pi_shape, stay_probability_truncated
from .multiplicities import f_count
from .tableaux import DEFAULT_BOX_BUDGET

_BITS = 64
_SCALE = 1 << _BITS


@dataclass
class RngStream:
    """Deterministic random stream: same (seed, index) gives the same draws."""

    seed: int
    index: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        if type(self.seed) is not int or type(self.index) is not int:
            raise InvalidInputError(
                f"seed and index must be integers, got {self.seed!r} and {self.index!r}"
            )
        self._rng = random.Random((self.seed & ((1 << 64) - 1)) * 0x9E3779B97F4A7C15 + self.index)

    def draw_bits(self) -> int:
        return self._rng.getrandbits(_BITS)


def _pick(cumulative: Sequence[tuple[int, Fraction]], bits: int):
    """Inverse CDF over exact rational cumulative weights."""
    for item, cum in cumulative:
        if bits * cum.denominator < cum.numerator * _SCALE:
            return item
    return cumulative[-1][0]


def _cumulative(pairs):
    total = Fraction(0)
    out = []
    for item, prob in pairs:
        total += prob
        out.append((item, total))
    return out


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo point estimates with their standard errors and the exact
    value each one estimates.

    For the indicator frequencies reported here the standard error is the
    sample standard deviation over the square root of the count.  The three
    dicts share their keys.
    """

    estimates: dict
    stderrs: dict
    count: int
    references: dict[str, Fraction]


def _frequency_stderr(estimate: float, count: int) -> float:
    return math.sqrt(max(estimate * (1.0 - estimate), 1e-30) / count)


def _require_at_least(least: int, **counts: int):
    for name, value in counts.items():
        if type(value) is not int or value < least:
            raise InvalidInputError(f"{name} must be an integer of at least {least}, got {value!r}")


def _frequency_report(counts: dict[str, int], total: int, references: dict) -> EstimateReport:
    """Frequencies count/total of the labelled events, against exact ``references``."""
    estimates = {k: c / total for k, c in counts.items()}
    return EstimateReport(
        estimates=estimates,
        stderrs={k: _frequency_stderr(v, total) for k, v in estimates.items()},
        count=total,
        references=references,
    )


def estimate_letter_frequencies(
    kind: AlgebraKind, p: ProbVector, paths: int, length: int, rng: RngStream
) -> EstimateReport:
    """Empirical letter frequencies of sampled walks; letter i estimates p_i.
    The paths are consecutive stretches of one stream of letters, drawn as
    :func:`sample_walk` draws them from one cumulative table."""
    _require_at_least(1, paths=paths, length=length)
    check_length(kind, p.values)
    cum = _cumulative(zip(kind.alphabet, p.values))
    counts = {letter: 0 for letter in kind.alphabet}
    for _ in range(paths * length):
        counts[_pick(cum, rng.draw_bits())] += 1
    return _frequency_report(
        {f"letter {letter}": c for letter, c in counts.items()},
        paths * length,
        {f"letter {letter}": p.prob(letter) for letter in kind.alphabet},
    )


def estimate_shape_law(
    kind: AlgebraKind, p: ProbVector, paths: int, length: int, rng: RngStream,
    budget: int = DEFAULT_BOX_BUDGET,
) -> EstimateReport:
    """Empirical end-shape distribution of the sampled shape process; shape
    lam estimates f^lam s_lam(p).  ``budget`` bounds the character
    evaluations of the kernel and of the references alike."""
    _require_at_least(1, paths=paths, length=length)
    counts: dict[Shape, int] = {}
    for chain in _shape_chains(pi_shape(kind, p, budget), {}, paths, length, rng):
        counts[chain[-1]] = counts.get(chain[-1], 0) + 1
    label = {lam: "shape " + ",".join(map(str, lam)) for lam in sorted(counts)}
    return _frequency_report(
        {label[lam]: counts[lam] for lam in label},
        paths,
        {label[lam]: f_count(kind, lam) * schur(kind, lam, p, budget=budget) for lam in label},
    )


def estimate_conditioned_acceptance(
    kind: AlgebraKind,
    p: ProbVector,
    length: int,
    horizon: int,
    paths: int,
    rng: RngStream,
) -> EstimateReport:
    """Rejection-sampling acceptance rate of the conditioned walk; it
    estimates the truncated stay probability at the horizon."""
    ensemble = sample_conditioned_ensemble(kind, p, length, horizon, paths, rng)
    return _frequency_report(
        {"acceptance": ensemble.paths},
        ensemble.attempts,
        {"acceptance": stay_probability_truncated(kind, (), p, horizon)},
    )


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def sample_walk(kind: AlgebraKind, p: ProbVector, length: int, rng: RngStream) -> Word:
    """IID letters with law p, by exact inverse CDF."""
    _require_at_least(0, length=length)
    check_length(kind, p.values)
    cum = _cumulative(zip(kind.alphabet, p.values))
    return tuple(_pick(cum, rng.draw_bits()) for _ in range(length))


def sample_shape_chain(
    kind: AlgebraKind, p: ProbVector, length: int, rng: RngStream
) -> tuple[Shape, ...]:
    """Markov chain of the shape process sampled directly from its kernel."""
    _require_at_least(0, length=length)
    return next(_shape_chains(*_shape_kernel(kind, p), 1, length, rng))


@lru_cache(maxsize=16)
def _shape_kernel(kind: AlgebraKind, p: ProbVector):
    """One :func:`pi_shape` kernel, with its psi cache, and its cumulative
    rows per kind and law, shared by the calls of :func:`sample_shape_chain`."""
    return pi_shape(kind, p), {}


def _shape_chains(
    kernel, cumulative: dict[Shape, list], paths: int, length: int, rng: RngStream
):
    """Yield ``paths`` chains of ``length`` steps from the empty shape.

    The chains share one kernel and the ``cumulative`` rows filled from it,
    which depend only on the kind and the law; each step takes one draw.
    """
    for _ in range(paths):
        state: Shape = ()
        out = []
        for _ in range(length):
            row = cumulative.get(state)
            if row is None:
                row = cumulative[state] = _cumulative(kernel.successors(state))
            state = _pick(row, rng.draw_bits())
            out.append(state)
        yield tuple(out)


def _accepted_prefixes(
    kind: AlgebraKind,
    p: ProbVector,
    length: int,
    horizon: int,
    paths: int,
    limit: int,
    rng: RngStream,
):
    """The rejection loop of both conditioned samplers.

    Yields ``(attempts so far, first length weights)`` for each of the first
    ``paths`` walks that stay in the shape lattice up to the horizon; raises
    :class:`SamplingFailureError` once ``limit`` attempts were spent first.
    """
    _require_at_least(0, length=length, horizon=horizon)
    if horizon < length:
        raise InvalidInputError("horizon must be at least the requested length")
    check_length(kind, p.values)
    require_condition(p)
    cum = _cumulative(list(enumerate(p.values)))
    accepted = attempts = 0
    while accepted < paths:
        if attempts >= limit:
            raise SamplingFailureError(
                f"only {accepted} accepted paths in {attempts} attempts",
                attempts=attempts,
                accepted=accepted,
            )
        attempts += 1
        weight = [0] * kind.N
        prefix: list[Weight] = []
        for step in range(horizon):
            i = _pick(cum, rng.draw_bits())
            weight[i] += 1
            if not _holds(kind, weight, i):
                break
            if step < length:
                prefix.append(tuple(weight))
        else:
            accepted += 1
            yield attempts, prefix


def sample_conditioned_walk(
    kind: AlgebraKind,
    p: ProbVector,
    length: int,
    horizon: int,
    rng: RngStream,
    max_attempts: int = 10**6,
) -> tuple[Shape, ...]:
    """Rejection-sample the walk conditioned to stay in the shape lattice
    up to the horizon; returns the first ``length`` shapes."""
    _, prefix = next(_accepted_prefixes(kind, p, length, horizon, 1, max_attempts, rng))
    return tuple(_shape(kind, w) for w in prefix)


@dataclass(frozen=True)
class ConditionedEnsemble:
    """Accepted-path statistics from conditioned-walk rejection sampling."""

    paths: int
    attempts: int
    transition_counts: dict[tuple[Shape, Shape], int]
    visit_counts: dict[Shape, int]

    @property
    def acceptance_rate(self) -> float:
        return self.paths / self.attempts


def sample_conditioned_ensemble(
    kind: AlgebraKind,
    p: ProbVector,
    length: int,
    horizon: int,
    paths: int,
    rng: RngStream,
    max_attempts: int | None = None,
) -> ConditionedEnsemble:
    """Collect transitions over the first ``length`` steps of many accepted paths."""
    _require_at_least(1, paths=paths, length=length)
    limit = max_attempts if max_attempts is not None else 400 * paths
    transition_counts: dict[tuple[Shape, Shape], int] = {}
    visit_counts: dict[Shape, int] = {}
    attempts = 0
    for attempts, prefix in _accepted_prefixes(kind, p, length, horizon, paths, limit, rng):
        prev: Shape = ()
        for w in prefix:
            cur = _shape(kind, w)
            visit_counts[prev] = visit_counts.get(prev, 0) + 1
            key = (prev, cur)
            transition_counts[key] = transition_counts.get(key, 0) + 1
            prev = cur
    return ConditionedEnsemble(
        paths=paths,
        attempts=attempts,
        transition_counts=transition_counts,
        visit_counts=visit_counts,
    )


# ---------------------------------------------------------------------------
# Drift discretization
# ---------------------------------------------------------------------------

def nearest_shape(kind: AlgebraKind, vector: Sequence[Fraction]) -> Shape:
    """Nearest valid lattice shape to a drift multiple.

    Rounds each pi coordinate (ties to even, negatives to 0), then lowers
    each coordinate in turn, left to right, until it passes its local test
    of the semigroup against the coordinates before it.  Those values form
    an interval [0, cap] for every kind, and a point of the semigroup passes
    every test, so this is the minimal repair, and bisection finds each cap.
    """
    coords = [max(int(round(Fraction(v))), 0) for v in vector]
    if len(coords) != kind.N:
        raise InvalidInputError(f"vector has length {len(coords)}, expected {kind.N}")
    for i in range(kind.N):
        def refused(value):
            return not _holds(kind, coords[:i] + [value], i)

        coords[i] = bisect_left(range(coords[i] + 1), True, key=refused) - 1
    return _shape(kind, tuple(coords))


def drift_shape(kind: AlgebraKind, p: ProbVector, scale: int) -> Shape:
    """Nearest valid shape to ``scale`` times the drift vector."""
    _require_at_least(0, scale=scale)
    return nearest_shape(kind, [scale * v for v in p.values])


# ---------------------------------------------------------------------------
# Exact-DP trend experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendRow:
    step: int
    shape: Shape
    value: Fraction | None


@dataclass(frozen=True)
class TrendReport:
    rows: tuple[TrendRow, ...]
    target: Fraction
    final_quartile_deviation: float


def _final_quartile_deviation(rows, target: Fraction) -> float:
    start = (3 * len(rows)) // 4
    devs = [
        abs(float(r.value) - float(target))
        for r in rows[start:]
        if r.value is not None
    ]
    return max(devs) if devs else math.inf


def _drift_shapes(kind: AlgebraKind, p: ProbVector, l_max: int) -> tuple[Shape, ...]:
    """g = nearest valid shape to step * drift, for steps 1 to ``l_max``."""
    return tuple(drift_shape(kind, p, step) for step in range(1, l_max + 1))


def _drift_trend(shapes: Sequence[Shape], target: Fraction, value) -> TrendReport:
    """The drift loop of both experiments: one row of ``value(g)`` at the
    g of each step."""
    rows = tuple(TrendRow(step, g, value(g)) for step, g in enumerate(shapes, 1))
    return TrendReport(rows, target, _final_quartile_deviation(rows, target))


def quotient_llt_experiment(
    kind: AlgebraKind,
    p: ProbVector,
    gamma: Sequence[int],
    l_max: int,
) -> TrendReport:
    """Exact Green-function ratio along the drift, trending to one.

    For each step the ratio Gamma(0, g - gamma) / Gamma(0, g) is computed by
    dynamic programming at g = nearest valid shape to step * drift; the ratio
    is None when g - gamma leaves the shape lattice.
    """
    require_condition(p)
    _require_at_least(1, l_max=l_max)
    gamma = tuple(gamma)
    if len(gamma) != kind.N:
        raise InvalidInputError(f"gamma has length {len(gamma)}, expected {kind.N}")

    def ratio(g: Shape) -> Fraction | None:
        reduced = tuple(a - b for a, b in zip(_pi(kind, g), gamma))
        if not in_semigroup(kind, reduced):
            return None
        return green(kind, p, (), _shape(kind, reduced)) / green(kind, p, (), g)

    return _drift_trend(_drift_shapes(kind, p, l_max), Fraction(1), ratio)


def asympt_multiplicity_experiment(
    kind: AlgebraKind,
    p: ProbVector,
    mu: Sequence[int],
    l_max: int,
    budget: int = DEFAULT_BOX_BUDGET,
) -> TrendReport:
    """Exact skew/straight chain-count ratio along the drift, trending to
    s_mu(p); ``budget`` bounds the evaluation of s_mu(p).  Every skew count
    comes from one pass of the chain recursion from mu."""
    require_condition(p)
    _require_at_least(1, l_max=l_max)
    mu = check_shape(kind, mu)
    target = schur(kind, mu, p, budget=budget)
    shapes = _drift_shapes(kind, p, l_max)
    skew = _skew_counts(kind, mu, shapes)
    return _drift_trend(shapes, target, lambda g: Fraction(skew[g], f_count(kind, g)))


def _skew_counts(kind: AlgebraKind, mu: Shape, shapes: Sequence[Shape]) -> dict[Shape, int]:
    """f^(g/mu) for each g of ``shapes``, as :func:`f_skew` gives it, with
    every count read at level |g| - |mu| of one chain pass from mu.

    The pass is bounded by the union of the g that contain mu, the
    coordinatewise maximum of their pi-weights, which lies in the semigroup
    of every kind.  A chain from mu to g stays inside g, so the bound only
    prunes.  A g that does not contain mu gets 0.
    """
    if not mu:
        return {g: f_count(kind, g) for g in shapes}
    counts = dict.fromkeys(shapes, 0)
    start, tops = _pi(kind, mu), {g: _pi(kind, g) for g in counts}
    inside = [g for g in counts if all(map(le, start, tops[g]))]
    union = tuple(map(max, zip(*(tops[g] for g in inside))))
    wanted: dict[int, list[Shape]] = {}
    for g in inside:
        wanted.setdefault(shape_size(g) - shape_size(mu), []).append(g)
    for level, frontier in enumerate(_levels(kind, start, (1,) * kind.N, union)):
        for g in wanted.pop(level, ()):
            counts[g] = frontier.get(tops[g], 0)
        if not wanted:
            return counts
