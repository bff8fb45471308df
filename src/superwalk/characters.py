"""Exact character evaluation by two independent routes.

Every character here is a finitely supported integer combination of
monomials, so evaluation at rational points is exact.  The tableau route sums
monomials over the semistandard tableaux of the shape; the Weyl-type route
evaluates the closed alternant formulas.  The two must agree wherever both
are defined, and the test suite enforces that equality.

The closed formulas and the drift constant :func:`nabla` are built from a
few products over the values: the chamber factor prod_{i<j} (1 - v_j/v_i),
the mixed factor prod (1 + u/b) over barred b and unbarred u, and the strict
factor prod_{i<j} (x_i + x_j)/(x_i - x_j).  No Weyl route sums over S_n:

* gl(n): the alternant det(x_i^(lam_j + n - j)) is one integer determinant
  (Bareiss's fraction-free elimination, O(n^3) operations) over the integer
  Vandermonde product, reduced to a single Fraction at the end;
* gl(m,n): the alternant (Berele, Regev, Sergeev) splits into the mixed
  factor times a gl(m) Weyl ratio in the barred values and a gl(n) one in
  the unbarred values, taken at the two blocks of the pi-weight.  It is only
  valid for shapes containing the full m x n rectangle (or the empty shape);
  outside that domain the Weyl route raises and the automatic route falls
  back to the tableau sum;
* q(n): Macdonald's sum over S_n/S_(n-d), d the number of rows (Symmetric
  Functions, III.2), is a DP over the set of positions already given a row:
  C(n, k) states after k rows instead of n! terms.

The sums over S_n these replace are kept in ``tests/test_characters.py`` as
the oracle the Weyl routes are swept against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


def _strict_factor(xs: Sequence[Fraction]) -> Fraction:
    """prod_{i<j} (x_i + x_j)/(x_i - x_j)."""
    out = Fraction(1)
    for i, a in enumerate(xs):
        for b in xs[i + 1:]:
            out *= (a + b) / (a - b)
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


def check_length(kind: AlgebraKind, values: Sequence) -> None:
    """Refuse values over another alphabet, which would give wrong results."""
    if len(values) != kind.N:
        raise InvalidInputError(f"expected {kind.N} values, got {len(values)}")


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
        """Product of characters.  Each weight, shifted by its factor's least
        coordinate, is packed into one int with the last coordinate most
        significant, in a base above the largest coordinate a product can
        reach, so a product weight is one int addition and no coordinate
        carries; each distinct product weight is unpacked once."""
        if not self.terms or not other.terms:
            return SparseCharacter()
        low_a, high_a = _coordinate_range(self.terms)
        low_b, high_b = _coordinate_range(other.terms)
        base = high_a - low_a + high_b - low_b + 1
        right = _packed(other.terms, low_b, base)
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in _packed(self.terms, low_a, base):
            for kb, cb in right:
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        low, size = low_a + low_b, len(next(iter(self.terms)))
        unpacked: dict[Weight, int] = {}
        for key, c in out.items():
            w = []
            for _ in range(size):
                key, digit = divmod(key, base)
                w.append(digit + low)
            unpacked[tuple(w)] = c
        return SparseCharacter(unpacked)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        """Value at ``values``, as one integer sum over one denominator.

        With D the least common denominator and b_i = D v_i, the term of
        weight w is c_w prod b_i^(w_i - low_i) D^(top - |w|) over
        D^top prod b_i^(-low_i), where top is the largest |w| and low_i the
        least i-th coordinate (or 0); the numerators are summed as ints and
        reduced once.  A zero value under a negative exponent raises
        ZeroDivisionError.
        """
        if not self.terms:
            return Fraction(0)
        common = math.lcm(*(v.denominator for v in values))
        scaled = [v.numerator * (common // v.denominator) for v in values]
        weights = list(self.terms)
        den = 1
        powers = []
        for b, column in zip(scaled, zip(*weights)):
            low, high = min(0, *column), max(0, *column)
            den *= b**-low
            table, power = {}, 1
            for e in range(low, high + 1):
                table[e] = power
                power *= b
            powers.append(table)
        sizes = [sum(w) for w in weights]
        top = max(sizes)
        common_powers = [common**k for k in range(top - min(sizes) + 1)]
        total = 0
        for (w, c), size in zip(self.terms.items(), sizes):
            total += c * common_powers[top - size] * math.prod(map(dict.__getitem__, powers, w))
        return Fraction(total, den * common**top)


def _coordinate_range(terms: dict[Weight, int]) -> tuple[int, int]:
    """Least and largest coordinate over every weight of ``terms``."""
    return min(map(min, terms)), max(map(max, terms))


def _packed(terms: dict[Weight, int], low: int, base: int) -> list[tuple[int, int]]:
    """(packed weight, coefficient) pairs: w_0 - low + (w_1 - low) base + ..."""
    out = []
    for w, c in terms.items():
        key = 0
        for x in reversed(w):
            key = key * base + x - low
        out.append((key, c))
    return out


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

def _check_values(values: Sequence[Fraction], n: int, label: str):
    if len(values) != n:
        raise InvalidInputError(f"{label} takes {n} values, got {len(values)}")
    if len(set(values)) != n:
        raise SingularEvaluationError(
            f"{label} coordinates must be pairwise distinct for the Weyl-type formula"
        )


def _integer_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination; every division is exact.  The rows are overwritten."""
    size = len(rows)
    sign, prev = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot, pivot_row = rows[k][k], rows[k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * rows[-1][-1] if size else 1


def weyl_empty_values(n: int, shape: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """Weyl character formula for gl(n): the alternant det(x_i^(lam_j + n - j))
    over the Vandermonde determinant.

    With x_i = a_i/d_i, row i of the alternant is scaled by d_i^(lam_1 + n - 1)
    to an integer row, and the Vandermonde is prod_{i<j} (a_i d_j - a_j d_i)
    over prod_i d_i^(n - 1), so the ratio is one integer determinant over an
    integer product.  A shape with more than n rows gives 0.
    """
    lam = normalize_shape(shape)
    _check_values(values, n, f"gl({n})")
    if len(lam) > n:
        return Fraction(0)
    padded = lam + (0,) * (n - len(lam))
    exps = [part + n - 1 - j for j, part in enumerate(padded)]
    top = exps[0] if n else 0
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    alternant = _integer_det(
        [[a**e * d ** (top - e) for e in exps] for a, d in zip(nums, dens)]
    )
    den = 1
    for i in range(n):
        den *= dens[i] ** padded[0]
        for j in range(i + 1, n):
            den *= nums[i] * dens[j] - nums[j] * dens[i]
    return Fraction(alternant, den)


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
    """Macdonald's sum over S_n/S_(n-d) for q(n), d the number of rows of lam.

    A coset is a choice of distinct positions h_1, ..., h_d for the rows, and
    its term is prod_k x_(h_k)^(lam_k) times, for each k, the product of
    (x_h + x_j)/(x_h - x_j) with h = h_k over every position j not among
    h_1, ..., h_k.  Those factors depend only on the set already chosen, so
    the sum is a DP over that set (a bitmask), with x_i = a_i/d_i.  Each set
    holds an integer numerator over a denominator that depends on the set
    alone: d_h^(lam_1) for each chosen h and |a_h d_j - a_j d_h| for each pair
    meeting it.
    """
    lam = normalize_shape(shape)
    _check_values(values, n, f"q({n})")
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    plus = [[a * d2 + a2 * d for a2, d2 in zip(nums, dens)] for a, d in zip(nums, dens)]
    minus = [[a * d2 - a2 * d for a2, d2 in zip(nums, dens)] for a, d in zip(nums, dens)]
    top = lam[0] if lam else 0
    states = {0: [1, 1]}
    for part in lam:
        grown: dict[int, list[int]] = {}
        for chosen, (num, den) in states.items():
            for h in range(n):
                key = chosen | 1 << h
                if key == chosen:
                    continue
                up = nums[h] ** part * dens[h] ** (top - part)
                down = dens[h] ** top
                for j in range(n):
                    if not key >> j & 1:
                        up *= plus[h][j]
                        down *= minus[h][j]
                if down < 0:
                    up, down = -up, -down
                if key in grown:
                    grown[key][0] += num * up
                else:
                    grown[key] = [num * up, den * down]
        states = grown
    # every set's denominator divides the one of the full set
    full = 1
    for i in range(n):
        full *= dens[i] ** top
        for j in range(i + 1, n):
            full *= abs(minus[i][j])
    return Fraction(sum(num * (full // den) for num, den in states.values()), full)

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
    check_length(kind, values)
    if not all(isinstance(v, (int, Fraction)) for v in values):
        raise InvalidInputError("character values must be ints or Fractions")
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
    check_length(kind, p.values)
    require_condition(p)
    vals = p.values
    if kind.kind == EMPTY:
        return 1 / _chamber(vals)
    if kind.kind == STRICT:
        return _strict_factor(vals)
    barred, unbarred = vals[: kind.m], vals[kind.m:]
    return _mixed(barred, unbarred) / (_chamber(barred) * _chamber(unbarred))


def psi(
    kind: AlgebraKind,
    shape: Sequence[int],
    p: ProbVector,
    budget: int = DEFAULT_BOX_BUDGET,
) -> Fraction:
    """Harmonic function p^(-lambda) s_lambda(p) of the shape process."""
    piw = pi_weight(kind, shape)
    return p.monomial([-e for e in piw]) * schur(kind, shape, p, budget=budget)
