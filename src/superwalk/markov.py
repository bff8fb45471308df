"""Transition kernels, Doob transforms, Green functions and stay probabilities.

Kernels are evaluators over a lazily explored state space: the shape lattice
is infinite, but every question asked here is graded by the number of boxes,
so each computation only ever touches finitely many states.  All entries are
exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .characters import ProbVector, check_length, nabla, psi, require_condition, schur
from .errors import ContractViolationError, InvalidInputError
from .kinds import (
    AlgebraKind,
    Shape,
    Weight,
    added_coordinate,
    check_shape,
    in_semigroup,
    pi_weight,
    sub_weights,
    successors,
)
from .multiplicities import f_skew
from .tableaux import DEFAULT_BOX_BUDGET

State = tuple


@dataclass(frozen=True)
class TransitionKernel:
    """Evaluator form of a (sub)stochastic matrix on a graded state space."""

    _rows: Callable[[State], tuple[tuple[State, Fraction], ...]] = field(repr=False)

    def successors(self, state) -> tuple[tuple[State, Fraction], ...]:
        """Nonzero entries of the row at ``state``."""
        return self._rows(tuple(state))

    def prob(self, state, nxt) -> Fraction:
        nxt = tuple(nxt)
        for other, value in self.successors(state):
            if other == nxt:
                return value
        return Fraction(0)

    def row_sum(self, state) -> Fraction:
        return sum((v for _, v in self.successors(state)), Fraction(0))


def pi_walk(kind: AlgebraKind, p: ProbVector) -> TransitionKernel:
    """One-way simple walk on the weight lattice: step e_i with probability p_i."""
    check_length(kind, p.values)

    def rows(state: Weight):
        if len(state) != kind.N:
            raise InvalidInputError(f"state has length {len(state)}, expected {kind.N}")
        out = []
        for i, prob in enumerate(p.values):
            nxt = state[:i] + (state[i] + 1,) + state[i + 1:]
            out.append((nxt, prob))
        return tuple(out)

    return TransitionKernel(_rows=rows)


def pi_restricted(kind: AlgebraKind, p: ProbVector) -> TransitionKernel:
    """Restriction of the walk kernel to the shape lattice (substochastic)."""
    check_length(kind, p.values)

    def rows(state: Shape):
        mu = check_shape(kind, state)
        out = []
        for lam in successors(kind, mu):
            i = added_coordinate(kind, mu, lam)
            out.append((lam, p.values[i]))
        return tuple(out)

    return TransitionKernel(_rows=rows)


def pi_shape(
    kind: AlgebraKind,
    p: ProbVector,
    budget: int = DEFAULT_BOX_BUDGET,
) -> TransitionKernel:
    """Transition matrix of the Pitman image: ratios of character values.

    Stochastic for any valid probability vector; the strict drift ordering is
    not required here.
    """
    cache: dict[Shape, Fraction] = {}

    def value(shape: Shape) -> Fraction:
        got = cache.get(shape)
        if got is None:
            got = cache[shape] = schur(kind, shape, p, budget=budget)
        return got

    def rows(state: Shape):
        mu = check_shape(kind, state)
        s_mu = value(mu)
        return tuple(
            (lam, value(lam) / s_mu) for lam in successors(kind, mu)
        )

    return TransitionKernel(_rows=rows)


def doob_transform(kernel: TransitionKernel, h: Callable[[State], Fraction]) -> TransitionKernel:
    """h-transform of a kernel; verifies harmonicity on every queried row."""

    def rows(state):
        base = kernel.successors(state)
        hx = h(state)
        if hx <= 0:
            raise ContractViolationError(f"h must be positive, got {hx} at {state}")
        if sum((prob * h(nxt) for nxt, prob in base), Fraction(0)) != hx:
            raise ContractViolationError(
                f"h is not harmonic for the kernel at state {state}"
            )
        return tuple((nxt, prob * h(nxt) / hx) for nxt, prob in base)

    return TransitionKernel(_rows=rows)


# ---------------------------------------------------------------------------
# Green function and Martin kernel
# ---------------------------------------------------------------------------

def green(kind: AlgebraKind, p: ProbVector, mu: Sequence[int], lam: Sequence[int]) -> Fraction:
    """Green function of the restricted kernel: f^(lam/mu) p^(pi(lam) - pi(mu)).

    The grading makes the Green series a single term, the total mass of the
    one-box chains from mu to lam inside the shape lattice.  Every such chain
    adds the same boxes, so each has mass p^(pi(lam) - pi(mu)), and the sum is
    the chain count times that one monomial; from the empty shape the count
    is the hook-length or Thrall closed form of :func:`f_count`.
    """
    check_length(kind, p.values)
    return f_skew(kind, lam, mu) * p.monomial(
        sub_weights(pi_weight(kind, lam), pi_weight(kind, mu))
    )


def martin_kernel(
    kind: AlgebraKind, p: ProbVector, mu: Sequence[int], lam: Sequence[int]
) -> Fraction:
    """Ratio Green(mu, lam) / Green(empty, lam) = f^(lam/mu) p^(-pi(mu)) / f^lam;
    f^lam is the closed form of :func:`f_count`, f^(lam/mu) the chain DP;
    the denominator never vanishes, as f^lam >= 1 and every p_i > 0."""
    denom = green(kind, p, (), lam)
    return green(kind, p, mu, lam) / denom


# ---------------------------------------------------------------------------
# Stay probabilities
# ---------------------------------------------------------------------------

def stay_probability(
    kind: AlgebraKind, lam: Sequence[int], p: ProbVector, budget: int = DEFAULT_BOX_BUDGET
) -> Fraction:
    """Closed form psi(lam) / nabla for the walk started at lam; ``budget``
    bounds the character evaluation inside psi."""
    require_condition(p)
    return psi(kind, lam, p, budget=budget) / nabla(kind, p)


def stay_probability_truncated(
    kind: AlgebraKind, lam: Sequence[int], p: ProbVector, horizon: int
) -> Fraction:
    """Exact mass of walk paths from lam staying in the shape lattice for
    ``horizon`` steps; weakly decreasing in the horizon and bounded below by
    the closed form."""
    if type(horizon) is not int or horizon < 0:
        raise InvalidInputError(f"horizon must be a nonnegative integer, got {horizon!r}")
    check_length(kind, p.values)
    start = pi_weight(kind, check_shape(kind, lam))
    frontier: dict[Weight, Fraction] = {start: Fraction(1)}
    for _ in range(horizon):
        nxt: dict[Weight, Fraction] = {}
        for w, mass in frontier.items():
            for i, prob in enumerate(p.values):
                cand = w[:i] + (w[i] + 1,) + w[i + 1:]
                if in_semigroup(kind, cand):
                    nxt[cand] = nxt.get(cand, Fraction(0)) + mass * prob
        frontier = nxt
    return sum(frontier.values(), Fraction(0))


def conditioned_step_kernel(
    kind: AlgebraKind, p: ProbVector, remaining: int
) -> TransitionKernel:
    """Exact transition matrix of the walk conditioned to stay for
    ``remaining`` more steps; used as a finite-horizon reference.  A row's
    masses p_i stay_(remaining-1)(lam_i) sum to stay_remaining(mu)."""
    if type(remaining) is not int or remaining < 1:
        raise InvalidInputError(f"remaining must be an integer of at least 1, got {remaining!r}")
    check_length(kind, p.values)

    def rows(state: Shape):
        mu = check_shape(kind, state)
        masses = [
            (lam, p.values[added_coordinate(kind, mu, lam)]
             * stay_probability_truncated(kind, lam, p, remaining - 1))
            for lam in successors(kind, mu)
        ]
        total = sum((mass for _, mass in masses), Fraction(0))
        return tuple((lam, mass / total) for lam, mass in masses)

    return TransitionKernel(_rows=rows)
