"""Chain counts, Kostka numbers, tensor decompositions and the LR rule."""

from fractions import Fraction

import pytest

from superwalk import (
    AlgebraKind,
    DecompositionError,
    InvalidInputError,
    ProbVector,
    contains,
    decompose_product,
    dec_skew_identity,
    enumerate_standard,
    f_count,
    f_skew,
    is_valid_tableau,
    kostka,
    lr_count,
    lr_enumerate,
    pi_weight,
    schur,
    successors,
    theta_embed,
    verify_m_le_K,
)
from superwalk.characters import SparseCharacter, character_value
from superwalk.kinds import _levels, _shape, sub_weights
from superwalk.multiplicities import (
    _decompose_greedy,
    chain_counts,
    dec_skew_coefficient_identity,
    lr_reading_word,
    shapes_of_size,
)
from superwalk.simulate import drift_shape
from superwalk.suites import condition_points, shapes_up_to, suite_dec_skew, suite_lr_hook
from superwalk.tableaux import DEFAULT_NODE_BUDGET

from oracles import (
    chain_levels_by_shapes,
    dec_skew_per_lambda,
    lr_enumerate_then_filter,
    lr_hook_per_lambda,
    shapes_up_to_per_size,
)

KE2 = AlgebraKind.empty(2)
KE3 = AlgebraKind.empty(3)
KS3 = AlgebraKind.strict(3)
KH22 = AlgebraKind.hook(2, 2)
KH33 = AlgebraKind.hook(3, 3)

EXAM_LAMBDA = (3, 3, 3, 2, 2, 2)   # (3,3,3|3,3) in split coordinates
EXAM_KAPPA = (2,)                  # (2,0,0|0,0)
EXAM_MU = (3, 3, 2, 2, 2, 1)       # (3,3,2|3,2)


def test_f_count_examples():
    assert f_count(KE3, (2, 1)) == 2
    assert f_skew(KE3, (2, 1), (2, 1)) == 1
    assert f_skew(KE2, (2, 2), (1,)) == 2


def test_f_counts_match_chain_enumeration():
    for kind in (KE3, KH22, KS3):
        for lam in shapes_up_to(kind, 5):
            assert f_count(kind, lam) == len(enumerate_standard(kind, lam))
            for nu in shapes_up_to(kind, 4):
                expected = len(enumerate_standard(kind, lam, nu))
                assert f_skew(kind, lam, nu) == expected


CLOSED_FORM_KINDS = (
    KE3, AlgebraKind.empty(4), AlgebraKind.hook(1, 1), KH22, AlgebraKind.hook(1, 3),
    AlgebraKind.hook(3, 1), KS3, AlgebraKind.strict(4),
)


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS, ids=lambda k: k.describe())
def test_f_count_closed_forms_match_chain_dp(kind):
    # the hook-length and Thrall formulas against the chain DP they replace:
    # every shape of at most ten boxes, and one shape at drift scale
    for boxes in range(11):
        for lam, count in chain_counts(kind, (), boxes).items():
            assert f_count(kind, lam) == count
            assert f_skew(kind, lam) == count
    lam = drift_shape(kind, condition_points(kind)[0], 30)
    assert sum(lam) >= 30
    assert f_count(kind, lam) == chain_counts(kind, (), sum(lam), lam)[lam]


# gl(3), q(4), gl(2,2), gl(1,3) and gl(3,1); (4,3,1) is valid for each
LEVEL_WALK_KINDS = (
    KE3, AlgebraKind.strict(4), KH22, AlgebraKind.hook(1, 3), AlgebraKind.hook(3, 1),
)


@pytest.mark.parametrize("kind", LEVEL_WALK_KINDS, ids=AlgebraKind.describe)
def test_level_walk_counts_chains_like_the_shape_loop(kind):
    for inner in ((), (1,), (2, 1)):
        for outer in (None, (4, 3, 1)):
            bound = None if outer is None else pi_weight(kind, outer)
            walk = _levels(kind, pi_weight(kind, inner), (1,) * kind.N, bound)
            oracle = chain_levels_by_shapes(kind, inner, outer)
            for _, level, expected in zip(range(9 - sum(inner)), walk, oracle):
                assert {_shape(kind, w): count for w, count in level.items()} == expected


def test_total_probability_identity():
    # sum over shapes of f * s at any admissible p is one
    for kind in (KE3, KH22, KS3):
        p = condition_points(kind)[0]
        for level in range(1, 6):
            total = sum(
                f_count(kind, lam) * schur(kind, lam, p, budget=6)
                for lam in shapes_of_size(kind, level)
            )
            assert total == 1


def _shapes_by_bfs(kind, boxes):
    """Shapes of a level by breadth-first search without chain counts: the
    oracle of ``shapes_of_size``."""
    level = [()]
    for _ in range(boxes):
        nxt = {}
        for shape in level:
            for s in successors(kind, shape):
                nxt[s] = None
        level = list(nxt)
    return sorted(level)


def test_shapes_of_size_matches_bfs():
    kinds = (KE2, KE3, AlgebraKind.hook(1, 1), KH22, KS3, AlgebraKind.strict(4))
    for kind in kinds:
        for boxes in range(11):
            assert shapes_of_size(kind, boxes) == _shapes_by_bfs(kind, boxes)


@pytest.mark.parametrize("boxes", [-1, -5])
def test_shapes_of_size_refuses_negative_boxes(boxes):
    for kind in (KE2, KH22, KS3):
        with pytest.raises(InvalidInputError):
            shapes_of_size(kind, boxes)


@pytest.mark.parametrize("boxes", [2.5, "3", None])
def test_shapes_of_size_refuses_non_integer_boxes(boxes):
    for kind in (KE2, KH22, KS3):
        with pytest.raises(InvalidInputError, match="boxes"):
            shapes_of_size(kind, boxes)


def test_kostka_examples():
    for kind in (KE3, KH22, KS3):
        for lam in shapes_up_to(kind, 5):
            assert kostka(kind, lam, pi_weight(kind, lam)) == 1
        single = (1,)
        for i in range(kind.N):
            e_i = tuple(1 if j == i else 0 for j in range(kind.N))
            assert kostka(kind, single, e_i) == 1
    assert kostka(KE3, (2,), (1, -1, 2)) == 0


def test_pieri_rule():
    for kind in (KE3, KH22, KS3):
        for mu in shapes_up_to(kind, 4):
            dec = decompose_product(kind, mu, (1,))
            assert dec == {lam: 1 for lam in successors(kind, mu)}


def test_product_commutes_and_is_consistent():
    for kind in (KE2, KH22, KS3):
        p = condition_points(kind)[0]
        pairs = [
            (ka, mu)
            for ka in shapes_up_to(kind, 3)
            for mu in shapes_up_to(kind, 3)
            if sum(ka) + sum(mu) <= 6 and ka and mu
        ]
        for ka, mu in pairs:
            left = decompose_product(kind, ka, mu)
            assert left == decompose_product(kind, mu, ka)
            assert all(v > 0 for v in left.values())
            for lam in left:
                assert sum(lam) == sum(ka) + sum(mu)
            # evaluating both sides of the decomposition at a rational point
            lhs = schur(kind, ka, p, budget=6) * schur(kind, mu, p, budget=6)
            rhs = sum(
                mult * schur(kind, lam, p, budget=6) for lam, mult in left.items()
            )
            assert lhs == rhs


# Independent oracle for decompose_product: characters of inequivalent
# irreducibles are linearly independent functions, so exact evaluations of
# both sides of the product at enough rational points fix the multiplicities.
# Coordinate j of point i is 1/(P_j + 19 i).  Points on the monomial curve
# (t, t^2, t^3) do not do: the seven 6-box gl(3) characters have rank 6 there.
_ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _oracle_point(kind, index):
    return tuple(Fraction(1, prime + 19 * index) for prime in _ORACLE_PRIMES[: kind.N])


def _decompose_by_linear_system(kind, kappa, mu):
    """Multiplicities from k + 8 evaluations, k the number of shapes of the
    product's size; None unless the system has full column rank."""
    candidates = shapes_of_size(kind, sum(kappa) + sum(mu))
    rows, rhs = [], []
    for index in range(len(candidates) + 8):
        point = _oracle_point(kind, index)
        rows.append([character_value(kind, lam, point) for lam in candidates])
        rhs.append(character_value(kind, kappa, point) * character_value(kind, mu, point))
    solution = _solve_exact(rows, rhs, len(candidates))
    if solution is None:
        return None
    return {lam: value for lam, value in zip(candidates, solution) if value}


def _solve_exact(rows, rhs, unknowns):
    """Gauss-Jordan elimination; None unless the system has full column rank
    and is consistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(unknowns):
        pivot = next((i for i in range(c, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        head = aug[c][c]
        aug[c] = [v / head for v in aug[c]]
        for i in range(len(aug)):
            if i != c and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[c])]
    if any(v != 0 for row in aug[unknowns:] for v in row):
        return None
    return [aug[i][-1] for i in range(unknowns)]


def test_linear_system_agrees_with_greedy():
    # every unordered pair of nonempty shapes with at most 6 boxes in total
    for kind in (KE3, KH22, KS3):
        shapes = [lam for lam in shapes_up_to(kind, 5) if lam]
        for i, ka in enumerate(shapes):
            for mu in shapes[i:]:
                if sum(ka) + sum(mu) <= 6:
                    assert _decompose_by_linear_system(kind, ka, mu) == decompose_product(
                        kind, ka, mu
                    ), (kind.describe(), ka, mu)


def test_tripped_guard_raises_decomposition_error():
    # x_2 leads with (0, 1), which is no gl(2) pi-weight; -x_1 leads with a
    # negative coefficient
    for residual in (SparseCharacter({(0, 1): 1}), SparseCharacter({(1, 0): -1})):
        with pytest.raises(DecompositionError):
            _decompose_greedy(KE2, residual, 8, DEFAULT_NODE_BUDGET)


def test_constituent_weight_outside_the_support_raises():
    # x_1 alone leads with pi((1,)), whose character also holds x_2
    with pytest.raises(DecompositionError, match="outside the product's support"):
        _decompose_greedy(KE2, SparseCharacter({(1, 0): 1}), 8, DEFAULT_NODE_BUDGET)


@pytest.mark.parametrize("kind", [KH22, AlgebraKind.hook(1, 2), AlgebraKind.hook(2, 1)],
                         ids=lambda k: k.describe())
def test_lr_ballot_pruning_matches_fill_then_filter(kind):
    shapes = shapes_up_to(kind, 7)
    for lam in shapes:
        for kappa in shapes:
            if not contains(kind, lam, kappa):
                continue
            for mu in shapes_of_size(kind, sum(lam) - sum(kappa)):
                assert lr_enumerate(kind, lam, kappa, mu) == lr_enumerate_then_filter(
                    kind, lam, kappa, mu
                ), (lam, kappa, mu)


def test_lr_exam_instance():
    tabs = lr_enumerate(KH33, EXAM_LAMBDA, EXAM_KAPPA, EXAM_MU)
    assert len(tabs) == 1
    tab = tabs[0]
    assert tab.rows == ((1,), (1, 1, 2), (2, 2, 3), (3, 4), (4, 5), (5, 6))
    assert lr_reading_word(tab) == (1, 2, 1, 1, 3, 2, 2, 4, 5, 6, 3, 4, 5)
    assert tab.content() == EXAM_MU


def test_lr_trivial_cases():
    assert lr_count(KH22, (2, 1), (2, 1), ()) == 1
    with pytest.raises(InvalidInputError):
        lr_enumerate(KH22, (2, 1), (1,), (1,))  # size mismatch


def test_lr_refuses_kappa_outside_lambda():
    # kappa longer than lam, and kappa wider than lam
    for lam, kappa, mu in [((3,), (1, 1), (1,)), ((2, 1), (3,), ())]:
        with pytest.raises(InvalidInputError, match="is not contained in"):
            lr_enumerate(KH22, lam, kappa, mu)


def test_lr_agrees_with_decomposition():
    for lam in shapes_up_to(KH22, 8):
        for kappa in shapes_up_to(KH22, sum(lam)):
            if not all(
                a >= b for a, b in zip(pi_weight(KH22, lam), pi_weight(KH22, kappa))
            ):
                continue
            for mu in shapes_of_size(KH22, sum(lam) - sum(kappa)):
                assert lr_count(KH22, lam, kappa, mu) == decompose_product(
                    KH22, kappa, mu, budget=8
                ).get(lam, 0)


def test_lr_exam_matches_decomposition():
    dec = decompose_product(KH33, EXAM_KAPPA, EXAM_MU, budget=16, max_nodes=10**7)
    assert dec.get(EXAM_LAMBDA, 0) == 1
    assert dec.get(EXAM_LAMBDA, 0) == lr_count(KH33, EXAM_LAMBDA, EXAM_KAPPA, EXAM_MU)


def test_theta_exam_golden():
    tab = lr_enumerate(KH33, EXAM_LAMBDA, EXAM_KAPPA, EXAM_MU)[0]
    theta = theta_embed(tab)
    assert theta.rows == (
        (-3, -2, -2),
        (-2, -1, -1),
        (-1, 1),
        (1, 2),
        (1, 2),
        (2,),
    )
    assert is_valid_tableau(theta)
    assert theta.shape == EXAM_MU
    assert theta.weight() == sub_weights(
        pi_weight(KH33, EXAM_LAMBDA), pi_weight(KH33, EXAM_KAPPA)
    )


def test_theta_contract_and_injectivity():
    for lam in shapes_up_to(KH22, 6):
        for kappa in shapes_up_to(KH22, sum(lam)):
            if not all(
                a >= b for a, b in zip(pi_weight(KH22, lam), pi_weight(KH22, kappa))
            ):
                continue
            for mu in shapes_of_size(KH22, sum(lam) - sum(kappa)):
                images = set()
                for tab in lr_enumerate(KH22, lam, kappa, mu):
                    theta = theta_embed(tab)
                    assert is_valid_tableau(theta)
                    assert theta.shape == mu
                    assert theta.weight() == sub_weights(
                        pi_weight(KH22, lam), pi_weight(KH22, kappa)
                    )
                    images.add(theta.rows)
                assert len(images) == lr_count(KH22, lam, kappa, mu)


def test_theta_empty():
    tab = lr_enumerate(KH22, (2, 1), (2, 1), ())[0]
    assert theta_embed(tab).rows == ()


def test_m_le_K_sweep():
    for kind in (KE3, KH22, KS3):
        for lam in shapes_up_to(kind, 6):
            for kappa in shapes_up_to(kind, sum(lam)):
                if not all(
                    a >= b
                    for a, b in zip(pi_weight(kind, lam), pi_weight(kind, kappa))
                ):
                    continue
                for mu in shapes_of_size(kind, sum(lam) - sum(kappa)):
                    assert verify_m_le_K(kind, lam, kappa, mu)


def test_m_equals_K_along_drift():
    # at drift scale the bound is attained for every admissible kappa
    for kind in (KE2, AlgebraKind.strict(2), AlgebraKind.hook(1, 1)):
        p = ProbVector(kind, (Fraction(2, 3), Fraction(1, 3)))
        for scale in (20, 30):
            lam = drift_shape(kind, p, scale)
            for mu in shapes_up_to(kind, 3):
                if not mu:
                    continue
                kappas = {lam}
                for _ in range(sum(mu)):
                    kappas = {
                        smaller
                        for shape in kappas
                        for smaller in _shrink_once(kind, shape)
                    }
                for kappa in kappas:
                    mult = decompose_product(kind, kappa, mu, budget=60).get(lam, 0)
                    diff = sub_weights(pi_weight(kind, lam), pi_weight(kind, kappa))
                    assert mult == kostka(kind, mu, diff, budget=60)


def _shrink_once(kind, shape):
    from superwalk import predecessors

    return predecessors(kind, shape)


def test_dec_skew_identity_sweep():
    for kind in (KE2, KH22, AlgebraKind.strict(2)):
        for lam in shapes_up_to(kind, 6):
            for nu in shapes_up_to(kind, sum(lam)):
                if not all(
                    a >= b for a, b in zip(pi_weight(kind, lam), pi_weight(kind, nu))
                ):
                    continue
                assert dec_skew_identity(kind, lam, nu)


def test_shapes_up_to_lists_each_level_as_shapes_of_size():
    for kind in (KE3, KH22, KS3, AlgebraKind.hook(1, 2)):
        assert shapes_up_to(kind, 7) == shapes_up_to_per_size(kind, 7)
    assert shapes_up_to(KE2, -1) == []


# (m, n) of gl(1,2), gl(2,1) and gl(2,2)
LR_HOOK_SIZES = ((1, 2), (2, 1), (2, 2))


def test_tensor_product_suites_pass_like_their_per_lambda_loops():
    for m, n in LR_HOOK_SIZES:
        assert suite_lr_hook(n, m, 6) == lr_hook_per_lambda(n, m, 6) == []
    assert suite_dec_skew(budget=6) == dec_skew_per_lambda(budget=6) == []


def _drop_one_constituent(true_decompose):
    def mutant(kind, kappa, mu, *args, **kwargs):
        dec = true_decompose(kind, kappa, mu, *args, **kwargs)
        if len(dec) > 1:
            dec.pop(next(reversed(dec)))
        return dec
    return mutant


def _one_chain_count_off_by_one(true_levels, shape=(2, 1)):
    def mutant(kind, start, weights, bound=None):
        target = pi_weight(kind, shape)
        for level in true_levels(kind, start, weights, bound):
            yield {w: count + (w == target) for w, count in level.items()}
    return mutant


@pytest.mark.parametrize("name,make", [
    ("decompose_product", _drop_one_constituent),
    ("_levels", _one_chain_count_off_by_one),
])
def test_tensor_product_suites_fail_like_their_per_lambda_loops(monkeypatch, name, make):
    # both routes read the mutant wherever the library and the suites name it
    from collections import Counter

    from superwalk import multiplicities, suites

    mutant = make(getattr(multiplicities, name))
    for module in (multiplicities, suites):
        monkeypatch.setattr(module, name, mutant)
    seen = []
    for m, n in LR_HOOK_SIZES:
        new, old = suite_lr_hook(n, m, 5), lr_hook_per_lambda(n, m, 5)
        assert Counter(new) == Counter(old)
        seen += new
    new, old = suite_dec_skew(budget=5), dec_skew_per_lambda(budget=5)
    assert new and Counter(new) == Counter(old)
    assert seen if name == "decompose_product" else not seen


def test_dec_skew_coefficient_identity_along_drift():
    for kind in (KE2, AlgebraKind.strict(2), AlgebraKind.hook(1, 1)):
        p = ProbVector(kind, (Fraction(2, 3), Fraction(1, 3)))
        for scale in (20, 30):
            lam = drift_shape(kind, p, scale)
            for mu in ((1,), (2,), (2, 1)):
                if not _valid_for(kind, mu):
                    continue
                assert dec_skew_coefficient_identity(kind, lam, mu, budget=8)


def _valid_for(kind, shape):
    from superwalk import is_valid_shape

    return is_valid_shape(kind, shape)
