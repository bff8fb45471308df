"""Exact character evaluation by two independent routes.

Every character here is a finitely supported integer combination of
monomials, so evaluation at rational points is exact.  The tableau route sums
monomials over the semistandard tableaux of the shape; the Weyl-type route
evaluates the closed alternant formulas.  The two must agree wherever both
are defined, and the test suite enforces that equality.

The closed formulas and the drift constant :func:`nabla` are built from three
products over the values: the chamber factor prod_{i<j} (1 - v_j/v_i), the
mixed factor prod (1 + u/b) over barred b and unbarred u, and the strict
factor prod_{i<d, j>i} (x_i + x_j)/(x_i - x_j).  The gl(m,n) alternant
(Berele, Regev, Sergeev) splits into the mixed factor times a gl(m) Weyl
ratio in the barred values and a gl(n) one in the unbarred values, taken at
the two blocks of the pi-weight.  It is only valid for shapes containing the
full m x n rectangle (or the empty shape); outside that domain the Weyl
route raises and the automatic route falls back to the tableau sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from .errors import (
    BudgetExceededError,
    FormulaDomainError,
    InvalidInputError,
    SingularEvaluationError,
)
from .kinds import (
    EMPTY,
    HOOK,
    STRICT,
    AlgebraKind,
    Shape,
    Weight,
    check_shape,
    normalize_shape,
    parse_rational,
    pi_weight,
    shape_size,
)
from .tableaux import DEFAULT_BOX_BUDGET, DEFAULT_NODE_BUDGET, enumerate_tableaux


# ---------------------------------------------------------------------------
# Shared factors
# ---------------------------------------------------------------------------

def _power(values: Sequence[Fraction], exponents: Sequence[int]) -> Fraction:
    """prod v_i^(e_i); exponents may be negative.  Numerator and denominator
    are multiplied as integers and reduced once, not once per factor."""
    num = den = 1
    for v, e in zip(values, exponents):
        if e > 0:
            num *= v.numerator**e
            den *= v.denominator**e
        elif e < 0:
            num *= v.denominator**-e
            den *= v.numerator**-e
    return Fraction(num, den)


def _chamber(values: Sequence[Fraction]) -> Fraction:
    """prod_{i<j} (1 - v_j/v_i)."""
    out = Fraction(1)
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            out *= 1 - b / a
    return out


def _mixed(barred: Sequence[Fraction], unbarred: Sequence[Fraction]) -> Fraction:
    """prod (1 + u/b) over every barred b and unbarred u."""
    out = Fraction(1)
    for b in barred:
        for u in unbarred:
            out *= 1 + u / b
    return out


def _strict_factor(xs: Sequence[Fraction], d: int) -> Fraction:
    """prod_{i<d, j>i} (x_i + x_j)/(x_i - x_j)."""
    out = Fraction(1)
    for i in range(d):
        for j in range(i + 1, len(xs)):
            out *= (xs[i] + xs[j]) / (xs[i] - xs[j])
    return out


# ---------------------------------------------------------------------------
# Probability vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbVector:
    """Exact rational probability vector over the alphabet.

    ``values[i]`` is the probability of the i-th letter of the alphabet, so
    for the hook kind the barred letters occupy the first m slots in the
    order -m, ..., -1.
    """

    kind: AlgebraKind
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.kind.N:
            raise InvalidInputError(
                f"expected {self.kind.N} probabilities, got {len(self.values)}"
            )
        if any(v <= 0 for v in self.values):
            raise InvalidInputError("probabilities must be positive")
        if sum(self.values) != 1:
            raise InvalidInputError("probabilities must sum to 1 exactly")

    @classmethod
    def of(cls, kind: AlgebraKind, values: Sequence) -> "ProbVector":
        return cls(kind, tuple(Fraction(v) for v in values))

    @classmethod
    def parse(cls, kind: AlgebraKind, text: str) -> "ProbVector":
        return cls.of(kind, [parse_rational(t) for t in text.split(",")])

    def satisfies_condition(self) -> bool:
        """Strict ordering of the step probabilities within each block."""
        if self.kind.kind == HOOK:
            barred = self.values[: self.kind.m]
            unbarred = self.values[self.kind.m:]
            return all(a > b for a, b in zip(barred, barred[1:])) and all(
                a > b for a, b in zip(unbarred, unbarred[1:])
            )
        return all(a > b for a, b in zip(self.values, self.values[1:]))

    def prob(self, letter: int) -> Fraction:
        return self.values[self.kind.letter_index(letter)]

    def monomial(self, weight: Sequence[int]) -> Fraction:
        """p^mu; exponents may be negative."""
        return _power(self.values, weight)

    def to_json(self) -> list[str]:
        return [f"{v.numerator}/{v.denominator}" for v in self.values]


def require_condition(p: ProbVector):
    if not p.satisfies_condition():
        raise InvalidInputError(
            "step probabilities must be strictly decreasing within each block"
        )


# ---------------------------------------------------------------------------
# Sparse characters
# ---------------------------------------------------------------------------

class SparseCharacter:
    """Finitely supported map from weight vectors to multiplicities."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Weight, int] | None = None):
        self.terms: dict[Weight, int] = {
            w: c for w, c in (terms or {}).items() if c
        }

    def __eq__(self, other):
        return isinstance(other, SparseCharacter) and self.terms == other.terms

    def __repr__(self):
        return f"SparseCharacter({self.terms!r})"

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, weight: Weight) -> int:
        return self.terms.get(tuple(weight), 0)

    def total_mass(self) -> int:
        return sum(self.terms.values())

    def __mul__(self, other: "SparseCharacter") -> "SparseCharacter":
        out: dict[Weight, int] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(wa, wb))
                out[key] = out.get(key, 0) + ca * cb
        return SparseCharacter(out)

    def scaled_minus(self, coeff: int, other: "SparseCharacter") -> "SparseCharacter":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - coeff * c
        return SparseCharacter(out)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for w, c in self.terms.items():
            total += c * _power(values, w)
        return total


# Insertion-ordered, so the first key is the oldest; bounded so that a
# long-running process does not grow it without limit.
_char_poly_cache: dict[tuple[AlgebraKind, Shape], SparseCharacter] = {}
_CHAR_POLY_CACHE_SIZE = 1024


def character_polynomial(
    kind: AlgebraKind,
    shape: Sequence[int],
    budget: int = DEFAULT_BOX_BUDGET,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> SparseCharacter:
    """Weight-multiplicity map of the irreducible with the given highest shape."""
    lam = check_shape(kind, shape)
    if shape_size(lam) > budget:
        raise BudgetExceededError(
            f"shape {lam} has {shape_size(lam)} boxes, budget is {budget}"
        )
    key = (kind, lam)
    cached = _char_poly_cache.get(key)
    if cached is not None:
        return cached
    terms: dict[Weight, int] = {}
    for tab in enumerate_tableaux(kind, lam, budget=budget, max_nodes=max_nodes):
        w = tab.weight()
        terms[w] = terms.get(w, 0) + 1
    poly = SparseCharacter(terms)
    if len(_char_poly_cache) >= _CHAR_POLY_CACHE_SIZE:
        del _char_poly_cache[next(iter(_char_poly_cache))]
    _char_poly_cache[key] = poly
    return poly


# ---------------------------------------------------------------------------
# Weyl-type routes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of range(n) with its sign, the parity of its inversions."""
    return tuple(
        (perm, (-1) ** sum(a > b for a, b in combinations(perm, 2)))
        for perm in permutations(range(n))
    )


def _require_distinct(values: Sequence[Fraction], label: str):
    if len(set(values)) != len(values):
        raise SingularEvaluationError(
            f"{label} coordinates must be pairwise distinct for the Weyl-type formula"
        )


def weyl_empty_values(n: int, shape: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """Weyl character formula for gl(n) at explicit variable values."""
    lam = normalize_shape(shape)
    _require_distinct(values, f"gl({n})")
    rho = tuple(range(n - 1, -1, -1))
    v = tuple(a + r for a, r in zip(lam + (0,) * (n - len(lam)), rho))
    num = Fraction(0)
    for perm, sign in _signed_permutations(n):
        num += sign * _power(values, tuple(v[k] for k in perm))
    # prod_{i<j} (v_i - v_j) = v^rho * prod_{i<j} (1 - v_j/v_i)
    return num / (_power(values, rho) * _chamber(values))


def hook_formula_applicable(kind: AlgebraKind, shape: Sequence[int]) -> bool:
    """The closed hook formula needs the full m x n rectangle inside the shape.

    The empty shape is also fine: the alternant factors into two Vandermonde
    determinants that cancel the denominator exactly.
    """
    lam = normalize_shape(shape)
    if not lam:
        return True
    return len(lam) >= kind.m and all(lam[i] >= kind.n for i in range(kind.m))


def weyl_hook_values(
    kind: AlgebraKind, shape: Sequence[int], values: Sequence[Fraction]
) -> Fraction:
    """Closed gl(m,n) formula: the S_m x S_n alternant splits into the gl(m)
    and gl(n) Weyl ratios of the two pi-weight blocks, times the mixed factor."""
    lam = check_shape(kind, shape)
    if not hook_formula_applicable(kind, lam):
        raise FormulaDomainError(
            f"shape {lam} does not contain the {kind.m}x{kind.n} rectangle; "
            "the closed hook formula does not apply"
        )
    m = kind.m
    barred, unbarred = values[:m], values[m:]
    piw = pi_weight(kind, lam)
    return (
        (_mixed(barred, unbarred) if lam else 1)
        * weyl_empty_values(m, piw[:m], barred)
        * weyl_empty_values(kind.n, piw[m:], unbarred)
    )


def weyl_strict_values(
    n: int, shape: Sequence[int], values: Sequence[Fraction]
) -> Fraction:
    """Coset sum for q(n), computed as the full S_n sum over (n - d(lam))!.

    The summand is invariant under permutations of the zero coordinates of
    lam, which is what makes the quotient exact.
    """
    lam = normalize_shape(shape)
    _require_distinct(values, f"q({n})")
    d = len(lam)
    padded = lam + (0,) * (n - d)
    total = Fraction(0)
    for perm, _ in _signed_permutations(n):
        xs = tuple(values[k] for k in perm)
        total += _power(xs, padded) * _strict_factor(xs, d)
    return total / math.factorial(n - d)


# ---------------------------------------------------------------------------
# Unified evaluation
# ---------------------------------------------------------------------------

def weyl_route_applicable(kind: AlgebraKind, shape: Sequence[int], values) -> bool:
    if kind.kind == HOOK:
        m = kind.m
        return (
            hook_formula_applicable(kind, shape)
            and len(set(values[:m])) == m
            and len(set(values[m:])) == kind.n
        )
    return len(set(values)) == kind.n


def character_value(
    kind: AlgebraKind,
    shape: Sequence[int],
    values: Sequence[Fraction],
    route: str = "auto",
    budget: int = DEFAULT_BOX_BUDGET,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> Fraction:
    """Evaluate the character at arbitrary positive rational values."""
    lam = check_shape(kind, shape)
    if len(values) != kind.N:
        raise InvalidInputError(f"expected {kind.N} values, got {len(values)}")
    if any(v <= 0 for v in values):
        raise InvalidInputError("character values must be positive")
    if route == "auto":
        route = "weyl" if weyl_route_applicable(kind, lam, values) else "tableaux"
    if route == "weyl":
        if kind.kind == EMPTY:
            return weyl_empty_values(kind.n, lam, values)
        if kind.kind == HOOK:
            return weyl_hook_values(kind, lam, values)
        return weyl_strict_values(kind.n, lam, values)
    if route == "tableaux":
        return character_polynomial(kind, lam, budget, max_nodes).evaluate(values)
    raise InvalidInputError(f"unknown character route {route!r}")


def schur(
    kind: AlgebraKind,
    shape: Sequence[int],
    p: ProbVector,
    route: str = "auto",
    budget: int = DEFAULT_BOX_BUDGET,
) -> Fraction:
    return character_value(kind, shape, p.values, route=route, budget=budget)


def nabla(kind: AlgebraKind, p: ProbVector) -> Fraction:
    """Drift constant normalizing the stay probability."""
    require_condition(p)
    vals = p.values
    if kind.kind == EMPTY:
        return 1 / _chamber(vals)
    if kind.kind == STRICT:
        return _strict_factor(vals, kind.n)
    barred, unbarred = vals[: kind.m], vals[kind.m:]
    return _mixed(barred, unbarred) / (_chamber(barred) * _chamber(unbarred))


def psi(
    kind: AlgebraKind,
    shape: Sequence[int],
    p: ProbVector,
    budget: int = DEFAULT_BOX_BUDGET,
) -> Fraction:
    """Harmonic function p^(-lambda) s_lambda(p) of the shape process."""
    lam = check_shape(kind, shape)
    piw = pi_weight(kind, lam)
    return p.monomial([-e for e in piw]) * schur(kind, lam, p, budget=budget)
