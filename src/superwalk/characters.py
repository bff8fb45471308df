"""Exact character evaluation by two independent routes.

Every character here is a finitely supported integer combination of
monomials, so evaluation at rational points is exact.  The tableau route sums
monomials over the semistandard tableaux of the shape; the Weyl-type route
evaluates the closed alternant formulas.  The two must agree wherever both
are defined, and the test suite enforces that equality.

The closed formula for the hook kind (Berele, Regev, Sergeev) is only valid
for shapes containing the full m x n rectangle; outside that domain
:func:`schur_weyl_hook` raises and the automatic route falls back to the
tableau sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
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

Rational = Fraction


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
        out = Fraction(1)
        for v, e in zip(self.values, weight):
            if e:
                out *= v**e
        return out

    def drift(self) -> tuple[Fraction, ...]:
        """Mean step vector in weight coordinates."""
        return self.values

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
            mono = Fraction(c)
            for v, e in zip(values, w):
                if e:
                    mono *= v**e
            total += mono
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
# Tableau route
# ---------------------------------------------------------------------------

def schur_by_tableaux(
    kind: AlgebraKind,
    shape: Sequence[int],
    p: ProbVector,
    budget: int = DEFAULT_BOX_BUDGET,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> Fraction:
    """Generating series of the shape's tableaux evaluated at p."""
    return character_polynomial(kind, shape, budget, max_nodes).evaluate(p.values)


# ---------------------------------------------------------------------------
# Weyl-type routes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    out = []
    for perm in permutations(range(n)):
        sign, seen = 1, [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, cycle = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                cycle += 1
            if cycle % 2 == 0:
                sign = -sign
        out.append((perm, sign))
    return tuple(out)


def _power(values: Sequence[Fraction], exponents: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for v, e in zip(values, exponents):
        if e:
            out *= v**e
    return out


def _require_distinct(values: Sequence[Fraction], label: str):
    if len(set(values)) != len(values):
        raise SingularEvaluationError(
            f"{label} coordinates must be pairwise distinct for the Weyl-type formula"
        )


def weyl_empty_values(n: int, shape: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """Weyl character formula for gl(n) at explicit variable values."""
    lam = normalize_shape(shape) + (0,) * (n - len(normalize_shape(shape)))
    _require_distinct(values, "gl(n)")
    rho = tuple(range(n - 1, -1, -1))
    v = tuple(lam[i] + rho[i] for i in range(n))
    den = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            den *= values[i] - values[j]
    num = Fraction(0)
    for perm, sign in _signed_permutations(n):
        num += sign * _power(values, tuple(v[perm[i]] for i in range(n)))
    return num / den


def schur_weyl_empty(kind: AlgebraKind, shape: Sequence[int], p: ProbVector) -> Fraction:
    if kind.kind != EMPTY:
        raise InvalidInputError("schur_weyl_empty expects the empty kind")
    check_shape(kind, shape)
    return weyl_empty_values(kind.n, shape, p.values)


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
    lam = check_shape(kind, shape)
    if not hook_formula_applicable(kind, lam):
        raise FormulaDomainError(
            f"shape {lam} does not contain the {kind.m}x{kind.n} rectangle; "
            "the closed hook formula does not apply"
        )
    m, n = kind.m, kind.n
    barred, unbarred = values[:m], values[m:]
    _require_distinct(barred, "barred")
    _require_distinct(unbarred, "unbarred")
    piw = pi_weight(kind, lam)
    rho = tuple(range(m - 1, -1, -1)) + tuple(range(n - 1, -1, -1))
    v = tuple(piw[i] + rho[i] for i in range(m + n))
    num = Fraction(1)
    for i in range(m):
        bound = min(lam[i] if i < len(lam) else 0, n)
        for j in range(bound):
            num *= 1 + unbarred[j] / barred[i]
    den = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            den *= 1 - barred[j] / barred[i]
    for r in range(n):
        for s in range(r + 1, n):
            den *= 1 - unbarred[s] / unbarred[r]
    total = Fraction(0)
    for pb, sb in _signed_permutations(m):
        for pu, su in _signed_permutations(n):
            w = tuple(v[pb[i]] for i in range(m)) + tuple(v[m + pu[j]] for j in range(n))
            total += sb * su * _power(values, tuple(w[i] - rho[i] for i in range(m + n)))
    return num * total / den


def schur_weyl_hook(kind: AlgebraKind, shape: Sequence[int], p: ProbVector) -> Fraction:
    if kind.kind != HOOK:
        raise InvalidInputError("schur_weyl_hook expects the hook kind")
    return weyl_hook_values(kind, shape, p.values)


def weyl_strict_values(
    n: int, shape: Sequence[int], values: Sequence[Fraction]
) -> Fraction:
    """Coset sum for q(n), computed as the full S_n sum over (n - d(lam))!.

    The summand is invariant under permutations of the zero coordinates of
    lam, which is what makes the quotient exact.
    """
    lam = normalize_shape(shape)
    _require_distinct(values, "q(n)")
    d = len(lam)
    padded = lam + (0,) * (n - d)
    total = Fraction(0)
    for perm, _ in _signed_permutations(n):
        xs = tuple(values[perm[i]] for i in range(n))
        term = _power(xs, padded)
        for i in range(d):
            for j in range(i + 1, n):
                term *= (xs[i] + xs[j]) / (xs[i] - xs[j])
        total += term
    return total / math.factorial(n - d)


def schur_weyl_strict(kind: AlgebraKind, shape: Sequence[int], p: ProbVector) -> Fraction:
    if kind.kind != STRICT:
        raise InvalidInputError("schur_weyl_strict expects the strict kind")
    check_shape(kind, shape)
    return weyl_strict_values(kind.n, shape, p.values)


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
        out = Fraction(1)
        for i in range(kind.n):
            for j in range(i + 1, kind.n):
                out *= 1 - vals[j] / vals[i]
        return 1 / out
    if kind.kind == STRICT:
        out = Fraction(1)
        for i in range(kind.n):
            for j in range(i + 1, kind.n):
                out *= (vals[i] + vals[j]) / (vals[i] - vals[j])
        return out
    m, n = kind.m, kind.n
    barred, unbarred = vals[:m], vals[m:]
    num = Fraction(1)
    for b in barred:
        for u in unbarred:
            num *= 1 + u / b
    den = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            den *= 1 - barred[j] / barred[i]
    for r in range(n):
        for s in range(r + 1, n):
            den *= 1 - unbarred[s] / unbarred[r]
    return num / den


def psi(
    kind: AlgebraKind,
    shape: Sequence[int],
    p: ProbVector,
    route: str = "auto",
    budget: int = DEFAULT_BOX_BUDGET,
) -> Fraction:
    """Harmonic function p^(-lambda) s_lambda(p) of the shape process."""
    lam = check_shape(kind, shape)
    piw = pi_weight(kind, lam)
    return p.monomial([-e for e in piw]) * schur(kind, lam, p, route=route, budget=budget)
