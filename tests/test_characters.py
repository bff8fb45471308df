"""Dual-route character equality, normalization, nabla and psi behaviour."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, prod

import pytest

from superwalk import (
    AlgebraKind,
    InvalidInputError,
    ProbVector,
    SingularEvaluationError,
    character_polynomial,
    contains,
    nabla,
    pi_weight,
    psi,
    schur,
)
from superwalk.characters import (
    SparseCharacter,
    _integer_det,
    character_value,
    hook_formula_applicable,
    require_condition,
    weyl_empty_values,
    weyl_strict_values,
)
from superwalk.errors import FormulaDomainError
from superwalk.simulate import drift_shape
from superwalk.suites import condition_points, shapes_up_to

from oracles import evaluate_per_term, multiply_tuples

KE2 = AlgebraKind.empty(2)
KE3 = AlgebraKind.empty(3)
KS2 = AlgebraKind.strict(2)
KS3 = AlgebraKind.strict(3)
KH11 = AlgebraKind.hook(1, 1)
KH22 = AlgebraKind.hook(2, 2)

P2 = ProbVector.parse(KE2, "2/3,1/3")
P3 = ProbVector.parse(KE3, "1/2,1/3,1/6")


def test_probvector_validation():
    with pytest.raises(InvalidInputError):
        ProbVector.parse(KE2, "1/2,1/3")
    with pytest.raises(InvalidInputError):
        ProbVector.parse(KE2, "1,0")
    assert P2.satisfies_condition()
    assert not ProbVector.parse(KE2, "1/2,1/2").satisfies_condition()
    hook_p = ProbVector.parse(KH22, "1/2,1/4,1/6,1/12")
    assert hook_p.satisfies_condition()
    assert hook_p.prob(-2) == Fraction(1, 2)
    assert hook_p.prob(2) == Fraction(1, 12)


def test_monomial_with_negative_exponents():
    assert P2.monomial((-1, 2)) == Fraction(3, 2) * Fraction(1, 9)


def test_schur_normalization_single_box():
    for kind in (KE3, KS3, KH22):
        p = condition_points(kind)[0]
        assert schur(kind, (1,), p, route="tableaux") == 1
        assert schur(kind, (), p) == 1


def test_weyl_empty_examples():
    assert schur(KE2, (1,), P2, route="weyl") == 1
    assert schur(KE3, (), P3, route="weyl") == 1
    assert schur(KE3, (2, 1), P3, route="weyl") == schur(KE3, (2, 1), P3, route="tableaux")
    assert len(
        [t for t in character_polynomial(KE3, (2, 1)).terms.values()]
    ) > 0


def test_weyl_empty_singular():
    with pytest.raises(SingularEvaluationError):
        schur(KE2, (1,), ProbVector.parse(KE2, "1/2,1/2"), route="weyl")


@pytest.mark.parametrize("route", ["auto", "weyl", "tableaux"])
@pytest.mark.parametrize("kind", [KE3, KH11, KS3], ids=lambda k: k.describe())
def test_character_value_refuses_bad_values(kind, route):
    good = condition_points(kind)[0].values
    bad = [good[:i] + (Fraction(0),) + good[i + 1:] for i in range(kind.N)]
    bad += [(Fraction(-1, 2),) + good[1:], good[:-1], good + (Fraction(1, 7),)]
    # floats are not exact rationals
    bad += [tuple(float(v) for v in good), good[:-1] + (0.25,)]
    for values in bad:
        with pytest.raises(InvalidInputError):
            character_value(kind, (2, 1), values, route=route)


def test_weyl_hook_examples():
    p11 = ProbVector.parse(KH11, "2/3,1/3")
    assert schur(KH11, (1,), p11, route="weyl") == 1
    assert schur(KH11, (), p11, route="weyl") == 1
    p22 = ProbVector.parse(KH22, "1/2,1/4,1/6,1/12")
    lam = (2, 2, 1)
    assert hook_formula_applicable(KH22, lam)
    assert schur(KH22, lam, p22, route="weyl") == schur(KH22, lam, p22, route="tableaux")


def test_weyl_hook_outside_domain():
    # (2,1) misses the 2x2 rectangle and the closed formula genuinely fails
    # there, so the formula route refuses it
    p22 = ProbVector.parse(KH22, "1/2,1/4,1/6,1/12")
    assert not hook_formula_applicable(KH22, (2, 1))
    with pytest.raises(FormulaDomainError):
        schur(KH22, (2, 1), p22, route="weyl")
    assert schur(KH22, (2, 1), p22) == schur(KH22, (2, 1), p22, route="tableaux")


def test_weyl_strict_examples():
    ps = ProbVector.parse(KS2, "2/3,1/3")
    assert schur(KS2, (1,), ps, route="weyl") == 1
    assert schur(KS2, (2,), ps, route="weyl") == schur(KS2, (2,), ps, route="tableaux")


def test_rela_identity_full_depth():
    # s-characters of full-depth shapes factor through the empty kind
    for lam in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)]:
        for base, pe in zip((2, 3, 5), condition_points(KE2)):
            ps = ProbVector(KS2, pe.values)
            reduced = tuple(a - b for a, b in zip(lam, (1, 0)))
            product_term = pe.values[0] + pe.values[1]
            assert schur(KS2, lam, ps, route="weyl") == (
                schur(KE2, reduced, pe, route="weyl") * product_term
            )
    lam = (3, 2, 1)
    for pe in condition_points(KE3):
        ps = ProbVector(KS3, pe.values)
        reduced = (1, 1, 1)
        prod = Fraction(1)
        for i in range(3):
            for j in range(i + 1, 3):
                prod *= pe.values[i] + pe.values[j]
        assert schur(KS3, lam, ps, route="weyl") == schur(KE3, reduced, pe, route="weyl") * prod


def test_dual_route_sweep():
    hooks = [AlgebraKind.hook(1, 1), AlgebraKind.hook(1, 2), AlgebraKind.hook(2, 2)]
    for kind in (KE2, KE3, KS2, KS3, *hooks):
        for p in condition_points(kind):
            for lam in shapes_up_to(kind, 5):
                tab = schur(kind, lam, p, route="tableaux", budget=6)
                if kind.kind != "hook" or hook_formula_applicable(kind, lam):
                    assert tab == schur(kind, lam, p, route="weyl")


def test_dual_route_hook_three_barred_letters():
    # m = 3 puts an S_3 alternant in the barred block of the hook formula
    for kind in (AlgebraKind.hook(3, 1), AlgebraKind.hook(3, 2)):
        rectangle = (kind.n,) * kind.m
        checked = 0
        for p in condition_points(kind):
            for lam in shapes_up_to(kind, 7):
                if contains(kind, lam, rectangle):
                    tab = schur(kind, lam, p, route="tableaux", budget=7)
                    assert tab == schur(kind, lam, p, route="weyl")
                    checked += 1
        assert checked > 0


def test_nabla_and_rectangle_hook_values_pinned():
    # exact values at the first condition point, fixed independently of the
    # factors the closed forms are built from
    nablas = {
        AlgebraKind.empty(3): Fraction(16, 3),
        AlgebraKind.strict(3): Fraction(15),
        AlgebraKind.hook(2, 2): Fraction(675, 64),
        AlgebraKind.hook(3, 2): Fraction(34425, 1024),
    }
    for kind, value in nablas.items():
        assert nabla(kind, condition_points(kind)[0]) == value
    rectangles = {
        (1, 1): Fraction(1),
        (1, 2): Fraction(30, 49),
        (1, 3): Fraction(8, 25),
        (2, 1): Fraction(15, 49),
        (2, 2): Fraction(4, 75),
        (2, 3): Fraction(6609600, 887503681),
        (3, 1): Fraction(1, 25),
        (3, 2): Fraction(826200, 887503681),
    }
    for (m, n), value in rectangles.items():
        kind = AlgebraKind.hook(m, n)
        p = condition_points(kind)[0]
        assert schur(kind, (n,) * m, p, route="weyl") == value


def test_nabla_examples():
    assert nabla(KE2, P2) == 1 / (1 - Fraction(1, 3) / Fraction(2, 3))
    assert nabla(KS2, ProbVector(KS2, P2.values)) == 3
    ph = ProbVector.parse(KH11, "3/5,2/5")
    assert nabla(KH11, ph) == 1 + Fraction(2, 5) / Fraction(3, 5)
    with pytest.raises(InvalidInputError):
        nabla(KE2, ProbVector.parse(KE2, "1/2,1/2"))


def test_nabla_positive_under_condition():
    for kind in (KE3, KS3, KH22):
        for p in condition_points(kind):
            assert nabla(kind, p) > 0


def test_psi_examples_and_trend():
    assert psi(KE2, (), P2) == 1
    # psi approaches nabla along the drift; exact sequence, trend assertion
    for kind in (KE2, KS2, KH11):
        p = ProbVector(kind, P2.values)
        target = nabla(kind, p)
        deviations = []
        for a in (10, 20, 40):
            lam = drift_shape(kind, p, a)
            deviations.append(abs(psi(kind, lam, p) - target))
        # for gl(1,1) the sequence is exactly nabla from the first box on
        assert deviations[-1] <= deviations[0]
        assert float(deviations[-1]) < 0.05 * float(target)


def test_character_polynomial_symmetry_and_top_weight():
    for kind in (KE3, KS3, KH22):
        for lam in shapes_up_to(kind, 5):
            poly = character_polynomial(kind, lam)
            top = pi_weight(kind, lam)
            assert poly.coefficient(top) == 1
            if kind.kind == "hook":
                m = kind.m
                groups = [range(m), range(m, kind.N)]
            else:
                groups = [range(kind.N)]
            for w, coeff in poly.terms.items():
                for group in groups:
                    idx = list(group)
                    for perm in permutations(idx):
                        permuted = list(w)
                        for pos, src in zip(idx, perm):
                            permuted[pos] = w[src]
                        assert poly.coefficient(tuple(permuted)) == coeff


def test_require_condition():
    with pytest.raises(InvalidInputError):
        require_condition(ProbVector.parse(KE2, "1/2,1/2"))
    require_condition(P2)


def test_character_polynomial_cache_evicts_oldest(monkeypatch):
    from superwalk import characters

    monkeypatch.setattr(characters, "_char_poly_cache", {})
    monkeypatch.setattr(characters, "_CHAR_POLY_CACHE_SIZE", 3)
    shapes = [(1,), (2,), (1, 1), (3,), (2, 1)]
    polys = [character_polynomial(KE3, lam) for lam in shapes]
    assert list(characters._char_poly_cache) == [(KE3, lam) for lam in shapes[-3:]]
    assert character_polynomial(KE3, (3,)) is polys[3]
    # an evicted shape is recomputed to the same polynomial
    assert character_polynomial(KE3, (1,)).terms == polys[0].terms
    assert list(characters._char_poly_cache) == [(KE3, lam) for lam in shapes[-2:] + [(1,)]]


# ---------------------------------------------------------------------------
# Integer kernels against the per-term Fraction and tuple routes
# ---------------------------------------------------------------------------

KERNEL_KINDS = (KE3, KH22, AlgebraKind.hook(1, 3), AlgebraKind.strict(4))
# unequal denominators, one value repeated everywhere, an integer value
KERNEL_LAWS = (
    (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(3, 5)),
    (Fraction(2, 9),) * 4,
    (2, Fraction(1, 3), Fraction(3, 2), Fraction(7, 9)),
)


@pytest.mark.parametrize("kind", KERNEL_KINDS, ids=lambda k: k.describe())
def test_integer_kernels_match_per_term_routes(kind):
    polys = {lam: character_polynomial(kind, lam, budget=8) for lam in shapes_up_to(kind, 8)}
    for poly in polys.values():
        for law in KERNEL_LAWS:
            values = law[: kind.N]
            got = poly.evaluate(values)
            assert type(got) is Fraction and got == evaluate_per_term(poly, values)
    for ka, a in polys.items():
        for mu, b in polys.items():
            if sum(ka) + sum(mu) <= 8:
                assert a * b == multiply_tuples(a, b), (ka, mu)


def test_integer_kernels_on_hand_built_characters():
    negative = SparseCharacter({(-2, 1, 0): 3, (1, -1, 2): -5, (0, 0, -3): 7})
    cancelling = SparseCharacter({(1, 0, 0): 1, (0, 1, 0): -1})
    plus = SparseCharacter({(1, 0, 0): 1, (0, 1, 0): 1})
    empty = SparseCharacter()
    chars = (negative, cancelling, plus, empty)
    laws = [law[:3] for law in KERNEL_LAWS] + [(Fraction(0), Fraction(1, 2), 3)]
    for char in chars:
        for law in laws:
            if law[0] == 0 and char is negative:
                continue
            assert char.evaluate(law) == evaluate_per_term(char, law)
        for other in chars:
            assert char * other == multiply_tuples(char, other)
    # x1^2 - x2^2: the x1 x2 terms cancel and leave the support
    assert (cancelling * plus).terms == {(2, 0, 0): 1, (0, 2, 0): -1}
    assert cancelling.evaluate(KERNEL_LAWS[1][:3]) == 0
    assert empty.evaluate(KERNEL_LAWS[0][:3]) == 0 and not empty * negative
    # a zero value under a negative exponent has no value, by either route
    for evaluate in (SparseCharacter.evaluate, evaluate_per_term):
        with pytest.raises(ZeroDivisionError):
            evaluate(negative, (Fraction(0), Fraction(1, 2), 3))


# ---------------------------------------------------------------------------
# Oracle: the Weyl routes as plain sums over S_n
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _signed_permutations(n):
    """Every permutation of range(n) with its sign, the parity of its inversions."""
    return tuple(
        (perm, (-1) ** sum(a > b for a, b in combinations(perm, 2)))
        for perm in permutations(range(n))
    )


def _leibniz_det(rows):
    n = len(rows)
    return sum(
        sign * prod(rows[i][perm[i]] for i in range(n))
        for perm, sign in _signed_permutations(n)
    )


def _weyl_empty_by_permutations(n, lam, values):
    """sum_w sign(w) x_w^(lam + rho) over prod_{i<j} (x_i - x_j), with every
    term over the common denominator prod_i d_i^(lam_1 + n - 1)."""
    exps = [part + n - 1 - j for j, part in enumerate(lam + (0,) * (n - len(lam)))]
    top = exps[0]
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    alternant = sum(
        sign * prod(nums[h] ** e * dens[h] ** (top - e) for h, e in zip(perm, exps))
        for perm, sign in _signed_permutations(n)
    )
    vandermonde = prod(x - y for i, x in enumerate(values) for y in values[i + 1:])
    return Fraction(alternant, prod(dens) ** top) / vandermonde


def _weyl_strict_by_permutations(n, lam, values):
    """sum_w w(x^lam prod_{i<d, j>i} (x_i + x_j)/(x_i - x_j)) / (n - d)!."""
    d = len(lam)
    total = Fraction(0)
    for perm, _ in _signed_permutations(n):
        xs = [values[h] for h in perm]
        num = prod(x.numerator ** part for x, part in zip(xs, lam))
        den = prod(x.denominator ** part for x, part in zip(xs, lam))
        for i in range(d):
            for y in xs[i + 1:]:
                num *= xs[i].numerator * y.denominator + y.numerator * xs[i].denominator
                den *= xs[i].numerator * y.denominator - y.numerator * xs[i].denominator
        total += Fraction(num, den)
    return total / factorial(n - d)


def _rational_point(seed, n):
    """n distinct rationals with distinct prime denominators."""
    rng = random.Random(seed)
    dens = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23], n)
    return [Fraction(rng.choice([a for a in range(1, 41) if a % d]), d) for d in dens]


@pytest.mark.parametrize("n", range(1, 8))
def test_weyl_routes_match_permutation_sums(n):
    boxes = 8 if n <= 6 else 6
    for seed in (1, 2):
        values = _rational_point(seed, n)
        for lam in shapes_up_to(AlgebraKind.empty(n), boxes):
            assert weyl_empty_values(n, lam, values) == _weyl_empty_by_permutations(
                n, lam, values
            )
        for lam in shapes_up_to(AlgebraKind.strict(n), boxes):
            assert weyl_strict_values(n, lam, values) == _weyl_strict_by_permutations(
                n, lam, values
            )


def test_integer_det_pivot_swap_and_singular():
    # the second pivot vanishes after the first elimination step
    swap = [[1, 2, 3], [2, 4, 7], [3, 5, 2]]
    assert _integer_det([[0, 1], [1, 0]]) == -1
    assert _integer_det([row.copy() for row in swap]) == _leibniz_det(swap) == 1
    rows = [[2, -3, 1, 5], [4, -6, 3, 1], [1, 7, -2, 0], [3, 1, 1, 4]]
    assert _integer_det([row.copy() for row in rows]) == _leibniz_det(rows)
    assert _integer_det([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == 0
    assert _integer_det([[1, 2, 3], [2, 4, 6], [3, 6, 10]]) == 0
    assert _integer_det([]) == 1


def test_weyl_routes_refuse_wrong_length():
    values = condition_points(KE3)[0].values
    for route in (weyl_empty_values, weyl_strict_values):
        for wrong in (values + (Fraction(1, 7),), values[:2]):
            with pytest.raises(InvalidInputError):
                route(3, (2, 1), wrong)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weyl_empty_vanishes_beyond_n_rows(n):
    values = [Fraction(1, k + 2) for k in range(n)]
    for lam in shapes_up_to(AlgebraKind.empty(7), 7):  # every partition of <= 7
        value = weyl_empty_values(n, lam, values)
        if len(lam) > n:
            assert value == 0
        else:
            assert value > 0
