"""Transition kernels, Doob transforms, Green functions and stay probabilities.

Kernels are evaluators over a lazily explored state space: the shape lattice
is infinite, but every question asked here is graded by the number of boxes,
so each computation only ever touches finitely many states.  All entries are
exact rationals.

Both conditioned kernels are built by :func:`doob_transform`, the only code
that reweights a row, over the walk restricted to the shape lattice: by psi
(:func:`pi_shape`) and by the truncated stay probability
(:func:`conditioned_step_kernel`; König, O'Connell and Roch 2002).

The truncated stay probabilities come from the graded walk ``kinds._levels``
that the chain counts read too, weighted by the step law: its level r is the
mass of the paths that stayed for r steps.  :func:`stay_probability_truncated`
reads one level; ``superwalk exit-prob`` reads levels 1 to H of one pass, a
table that decreases to the closed form psi / nabla as H grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import islice
from typing import Callable, Sequence

from .characters import ProbVector, check_length, nabla, psi, require_condition
from .errors import ContractViolationError, InvalidInputError
from .kinds import AlgebraKind, Shape, Weight, _levels, _shape, _steps, pi_weight, sub_weights
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
    """One-way simple walk on Z_+^N: step e_i with probability p_i."""
    check_length(kind, p.values)

    def rows(state: Weight):
        if len(state) != kind.N or not all(type(x) is int and x >= 0 for x in state):
            raise InvalidInputError(f"state {state} is not {kind.N} nonnegative integers")
        return tuple(
            (state[:i] + (state[i] + 1,) + state[i + 1:], prob)
            for i, prob in enumerate(p.values)
        )

    return TransitionKernel(_rows=rows)


def pi_restricted(kind: AlgebraKind, p: ProbVector) -> TransitionKernel:
    """Restriction of the walk kernel to the shape lattice (substochastic)."""
    check_length(kind, p.values)

    def rows(state: Shape):
        return tuple(
            (_shape(kind, w), p.values[i])
            for i, w in _steps(kind, pi_weight(kind, state))
        )

    return TransitionKernel(_rows=rows)


def doob_transform(kernel: TransitionKernel, h: Callable[[State], Fraction]) -> TransitionKernel:
    """h-transform of a kernel: the row of x gives each successor y the mass
    k(x, y) h(y) over the row's total mass.

    For an h harmonic for the kernel that total is h(x); for the truncated
    stay probability h_(r-1) it is h_r(x).  Harmonicity is not checked here
    (``superwalk verify markov-law`` checks it for psi).  Raises
    :class:`ContractViolationError` for a negative h(y) or a row of zero mass.
    """

    def rows(state):
        masses = []
        for nxt, prob in kernel.successors(state):
            hy = h(nxt)
            if hy < 0:
                raise ContractViolationError(f"h must be nonnegative, got {hy} at {nxt}")
            masses.append((nxt, prob * hy))
        total = sum((mass for _, mass in masses), Fraction(0))
        if total <= 0:
            raise ContractViolationError(f"the row at {state} has no mass under h")
        return tuple((nxt, mass / total) for nxt, mass in masses)

    return TransitionKernel(_rows=rows)


def pi_shape(
    kind: AlgebraKind,
    p: ProbVector,
    budget: int = DEFAULT_BOX_BUDGET,
) -> TransitionKernel:
    """Transition matrix of the Pitman image: the Doob transform of
    :func:`pi_restricted` by psi, whose rows are s_lam(p) / s_mu(p).

    Stochastic for any valid probability vector; the strict drift ordering is
    not required here.  The kernel caches psi; a row at mu evaluates it at
    mu's successors only, within ``budget`` boxes.
    """
    h = cache(lambda shape: psi(kind, shape, p, budget=budget))
    return doob_transform(pi_restricted(kind, p), h)


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
    level = next(islice(_levels(kind, pi_weight(kind, lam), p.values), horizon, None))
    return sum(level.values(), Fraction(0))


def conditioned_step_kernel(
    kind: AlgebraKind, p: ProbVector, remaining: int
) -> TransitionKernel:
    """Exact transition matrix of the walk conditioned to stay for
    ``remaining`` more steps; used as a finite-horizon reference.  It is the
    Doob transform of :func:`pi_restricted` by the stay probability
    truncated at ``remaining - 1`` steps: a row's masses
    p_i stay_(remaining-1)(lam_i) sum to stay_remaining(mu)."""
    if type(remaining) is not int or remaining < 1:
        raise InvalidInputError(f"remaining must be an integer of at least 1, got {remaining!r}")
    return doob_transform(
        pi_restricted(kind, p),
        lambda lam: stay_probability_truncated(kind, lam, p, remaining - 1),
    )
