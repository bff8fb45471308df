"""Kernels, Doob transforms, Green functions and stay probabilities.

``exit-prob`` reads every row of its table from one pass of the graded walk;
one ``stay_probability_truncated`` call per horizon is its oracle.
"""

import csv
from fractions import Fraction
from functools import cache, partial
from itertools import islice, product

import pytest

from superwalk import (
    AlgebraKind,
    ContractViolationError,
    InvalidInputError,
    ProbVector,
    doob_transform,
    f_count,
    green,
    martin_kernel,
    nabla,
    pi_restricted,
    pi_shape,
    pi_walk,
    pitman,
    psi,
    schur,
    stay_probability,
    stay_probability_truncated,
    successors,
)
from superwalk.characters import character_polynomial
from superwalk.cli import main
from superwalk.kinds import _levels, check_shape, contains, format_rational, pi_weight, sub_weights
from superwalk.markov import conditioned_step_kernel
from superwalk.simulate import (
    RngStream,
    drift_shape,
    sample_conditioned_ensemble,
    sample_conditioned_walk,
    sample_walk,
)
from superwalk.suites import condition_points, shapes_up_to

from oracles import added_coordinate, stay_levels_by_moves

KE2 = AlgebraKind.empty(2)
KS2 = AlgebraKind.strict(2)
KH11 = AlgebraKind.hook(1, 1)
KE3 = AlgebraKind.empty(3)
KS3 = AlgebraKind.strict(3)
P2 = ProbVector.parse(KE2, "2/3,1/3")
P3 = ProbVector.parse(KE3, "1/2,1/3,1/6")


def _prob_for(kind):
    return ProbVector(kind, P2.values) if kind.N == 2 else condition_points(kind)[0]


def test_pi_walk_rows():
    kernel = pi_walk(KE2, P2)
    rows = dict(kernel.successors((0, 0)))
    assert rows == {(1, 0): Fraction(2, 3), (0, 1): Fraction(1, 3)}
    assert kernel.row_sum((5, 2)) == 1
    assert kernel.prob((1, 1), (2, 1)) == Fraction(2, 3)
    assert kernel.prob((1, 1), (3, 1)) == 0


def test_pi_walk_multinomial_mass():
    # mass after three steps is the multinomial count times the monomial
    kernel = pi_walk(KE2, P2)
    dist = {(0, 0): Fraction(1)}
    for _ in range(3):
        nxt = {}
        for state, mass in dist.items():
            for target, prob in kernel.successors(state):
                nxt[target] = nxt.get(target, Fraction(0)) + mass * prob
        dist = nxt
    assert dist[(2, 1)] == 3 * P2.monomial((2, 1))
    assert dist[(3, 0)] == P2.monomial((3, 0))


def test_pi_shape_rows_sum_to_one():
    for kind in (AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.strict(3)):
        p = condition_points(kind)[0]
        kernel = pi_shape(kind, p, budget=6)
        for lam in shapes_up_to(kind, 5):
            assert kernel.row_sum(lam) == 1


def test_pi_shape_simple_row():
    kernel = pi_shape(KE2, P2)
    assert dict(kernel.successors(())) == {(1,): Fraction(1)}


def test_markov_property_and_law_exhaustive():
    # joint law of the shape process from word probabilities, length five
    for kind in (AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.strict(3)):
        p = condition_points(kind)[0]
        kernel = pi_shape(kind, p, budget=6)
        histories: dict = {}
        for w in product(kind.alphabet, repeat=5):
            prob = Fraction(1)
            for x in w:
                prob *= p.prob(x)
            chain = pitman(kind, w)
            histories[chain] = histories.get(chain, Fraction(0)) + prob
        # conditional next-shape distribution depends only on the last shape
        for step in range(1, 5):
            joint, shorter = {}, {}
            for chain, mass in histories.items():
                joint[chain[: step + 1]] = joint.get(chain[: step + 1], Fraction(0)) + mass
                shorter[chain[:step]] = shorter.get(chain[:step], Fraction(0)) + mass
            for prefix, mass in joint.items():
                assert mass / shorter[prefix[:-1]] == kernel.prob(prefix[-2], prefix[-1])
        # one-dimensional law at each step
        for step in range(5):
            law: dict = {}
            for chain, mass in histories.items():
                law[chain[step]] = law.get(chain[step], Fraction(0)) + mass
            for lam, mass in law.items():
                assert mass == f_count(kind, lam) * schur(kind, lam, p, budget=6)


def test_psi_harmonicity():
    for kind in (AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.strict(3)):
        p = condition_points(kind)[0]
        for mu in shapes_up_to(kind, 6):
            total = Fraction(0)
            base = pi_weight(kind, mu)
            for lam in successors(kind, mu):
                i = next(
                    k for k in range(kind.N)
                    if pi_weight(kind, lam)[k] != base[k]
                )
                total += p.values[i] * psi(kind, lam, p, budget=7)
            assert total == psi(kind, mu, p, budget=7)


def _restricted_row_by_cover(kind, p, mu):
    """Row of the restricted walk with each step's coordinate found by
    comparing the two shapes: the oracle of ``pi_restricted``."""
    return tuple((lam, p.values[added_coordinate(kind, mu, lam)]) for lam in successors(kind, mu))


def _pi_shape_row_by_schur_ratio(kind, s, mu):
    """Row of the shape process as ratios s(lam) / s(mu) of the character
    values ``s``: the oracle of ``pi_shape``, the Doob transform of the
    restriction by psi."""
    return tuple((lam, s(lam) / s(mu)) for lam in successors(kind, mu))


def _uniform(kind):
    return ProbVector(kind, (Fraction(1, kind.N),) * kind.N)


def test_doob_transform_of_restriction_is_pi_shape():
    # both conditioned kernels are Doob transforms of pi_restricted; their
    # rows are the oracles' Fractions in successors' order, so seeded draws
    # through _pick do not move
    kinds = (AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.hook(2, 3), KS3)
    laws = [(k, p, 8) for k in kinds for p in condition_points(k, 2)]
    laws += [(k, _uniform(k), 7) for k in kinds]
    for kind, p, boxes in laws:
        restricted = pi_restricted(kind, p)
        shape_kernel = pi_shape(kind, p, budget=9)
        conditioned = conditioned_step_kernel(kind, p, 3)
        s = cache(partial(schur, kind, p=p, budget=9))
        for mu in shapes_up_to(kind, boxes):
            assert restricted.successors(mu) == _restricted_row_by_cover(kind, p, mu)
            assert shape_kernel.successors(mu) == _pi_shape_row_by_schur_ratio(kind, s, mu)
            assert conditioned.successors(mu) == _conditioned_row_by_stay_total(kind, p, 3, mu)


def test_doob_transform_identity_and_contract():
    kernel = pi_walk(KE2, P2)
    unchanged = doob_transform(kernel, lambda s: Fraction(1))
    assert unchanged.successors((1, 0)) == kernel.successors((1, 0))
    # harmonicity is not checked: any nonnegative h gives rows k h over their sum
    def h(state):
        return Fraction(1 + sum(state), 1 + state[0])

    rows = kernel.successors((0, 0))
    total = sum(prob * h(nxt) for nxt, prob in rows)
    assert doob_transform(kernel, h).successors((0, 0)) == tuple(
        (nxt, prob * h(nxt) / total) for nxt, prob in rows
    )
    assert doob_transform(kernel, h).row_sum((3, 1)) == 1
    with pytest.raises(ContractViolationError, match="no mass"):
        doob_transform(kernel, lambda s: Fraction(0)).successors((0, 0))
    with pytest.raises(ContractViolationError, match="nonnegative"):
        doob_transform(kernel, lambda s: Fraction(s[0] - s[1])).successors((0, 0))


def test_markov_law_suite_flags_a_non_harmonic_psi(monkeypatch):
    # doob_transform does not check harmonicity; the suite does
    import superwalk.suites as suites

    true_psi = suites.psi

    def mutant(kind, shape, p, budget):
        value = true_psi(kind, shape, p, budget=budget)
        return 2 * value if tuple(shape) == (2, 1) else value

    assert suites.suite_markov_law() == []
    monkeypatch.setattr(suites, "psi", mutant)
    failures = suites.suite_markov_law()
    assert failures and all("psi is not harmonic" in f for f in failures)


def test_green_examples():
    assert green(KE2, P2, (2, 1), (2, 1)) == 1
    assert green(KE2, P2, (), (1,)) == Fraction(2, 3)
    assert green(KE2, P2, (2, 1), (1,)) == 0
    assert green(KE2, P2, (3,), (2, 2)) == 0


def _green_by_mass_dp(kind, p, mu, lam):
    """Green function as the total mass of the one-box chains from mu to lam,
    by a forward Fraction DP over the interval: the oracle of the chain-count
    identity that ``green`` computes."""
    mu, lam = check_shape(kind, mu), check_shape(kind, lam)
    if not contains(kind, lam, mu):
        return Fraction(0)
    frontier = {mu: Fraction(1)}
    for _ in range(sum(lam) - sum(mu)):
        nxt = {}
        for nu, mass in frontier.items():
            for step in successors(kind, nu):
                if contains(kind, lam, step):
                    i = added_coordinate(kind, nu, step)
                    nxt[step] = nxt.get(step, Fraction(0)) + mass * p.values[i]
        frontier = nxt
    return frontier.get(lam, Fraction(0))


def test_green_matches_skew_counts():
    # green is f_skew times one monomial; the chain-mass DP is its oracle
    for kind in (KE2, AlgebraKind.hook(2, 2), AlgebraKind.strict(3)):
        p = _prob_for(kind)
        for lam in shapes_up_to(kind, 8):
            for mu in shapes_up_to(kind, 4):
                assert green(kind, p, mu, lam) == _green_by_mass_dp(kind, p, mu, lam)


def test_martin_kernel_basics():
    assert martin_kernel(KE2, P2, (), (3, 1)) == 1
    # every valid shape is chain-reachable, so a vanishing reference Green
    # value can only come from invalid input, which is rejected earlier
    with pytest.raises(InvalidInputError):
        martin_kernel(KS2, ProbVector(KS2, P2.values), (1,), (2, 2))
    assert martin_kernel(KE2, P2, (3,), (2, 2)) == 0


def test_martin_kernel_expand_identity():
    # expansion of the kernel through Kostka numbers at drift-scale shapes
    for kind in (KE2, KS2, KH11):
        p = ProbVector(kind, P2.values)
        for mu in ((1,), (2, 1)):
            poly = character_polynomial(kind, mu)
            for scale in range(15, 31):
                lam = drift_shape(kind, p, scale)
                lhs = martin_kernel(kind, p, mu, lam)
                rhs = Fraction(0)
                denom = green(kind, p, (), lam)
                for gamma, mult in poly.terms.items():
                    reduced = sub_weights(pi_weight(kind, lam), gamma)
                    try:
                        from superwalk import shape_from_weight

                        shifted = shape_from_weight(kind, reduced)
                    except InvalidInputError:
                        continue
                    rhs += mult * p.monomial(gamma) * green(kind, p, (), shifted) / denom
                rhs *= p.monomial([-e for e in pi_weight(kind, mu)])
                assert lhs == rhs


def test_martin_kernel_tends_to_psi():
    # convergence is of order 1/a, so the tolerance is looser than for psi
    for kind in (KE2, KS2):
        p = ProbVector(kind, P2.values)
        mu = (2, 1)
        target = psi(kind, mu, p)
        deviations = [
            abs(martin_kernel(kind, p, mu, drift_shape(kind, p, a)) - target)
            for a in (10, 25, 40)
        ]
        assert deviations[2] < deviations[1] < deviations[0]
        assert float(deviations[-1]) < 0.10 * float(target)


def test_stay_probability_dim2_closed_forms():
    for pe in condition_points(KE2):
        p1, p2 = pe.values
        assert stay_probability(KE2, (), pe) == 1 - p2 / p1
        assert stay_probability(KS2, (), ProbVector(KS2, pe.values)) == p1 * (1 - p2 / p1)
        assert stay_probability(KH11, (), ProbVector(KH11, pe.values)) == pe.values[0]


def test_stay_probability_requires_condition():
    with pytest.raises(InvalidInputError):
        stay_probability(KE2, (), ProbVector.parse(KE2, "1/2,1/2"))


def test_open_cone_formulas_agree():
    # both stay-in-open-cone expressions coincide for strict shapes with all
    # parts positive
    for pe in condition_points(KE2):
        ps = ProbVector(KS2, pe.values)
        p1, p2 = pe.values
        for lam in ((2, 1), (3, 1), (4, 2)):
            exp1 = (
                ps.monomial([-e for e in lam])
                * schur(KS2, lam, ps, route="weyl")
                * (p1 - p2)
                / (p1 + p2)
            )
            reduced = (lam[0] - 1, lam[1])
            exp2 = (
                pe.monomial((1, 0))
                * pe.monomial([-e for e in lam])
                * schur(KE2, reduced, pe, route="weyl")
                * (1 - p2 / p1)
            )
            assert exp1 == exp2


def _stay_table(kind, lam, p, horizon):
    """Truncated stay probabilities at horizons 0 to ``horizon``, all read
    from one pass of the graded walk."""
    levels = islice(_levels(kind, pi_weight(kind, lam), p.values), horizon + 1)
    return [sum(level.values(), Fraction(0)) for level in levels]


@pytest.mark.parametrize("kind", (AlgebraKind.empty(3), KS3, AlgebraKind.hook(2, 2)),
                         ids=AlgebraKind.describe)
def test_level_walk_weighs_stays_like_the_fraction_loop(kind):
    p = condition_points(kind)[0]
    for lam in shapes_up_to(kind, 2):
        walk = _levels(kind, pi_weight(kind, lam), p.values)
        oracle = stay_levels_by_moves(kind, lam, p)
        for _, level, expected in zip(range(13), walk, oracle):
            assert level == expected


def test_truncated_stay_bracket():
    closed = stay_probability(KE2, (), P2)
    table = _stay_table(KE2, (), P2, 30)
    assert table[0] == 1
    assert all(a >= b >= closed for a, b in zip(table, table[1:]))
    assert table[-1] - closed < Fraction(1, 100)
    assert closed == Fraction(1, 2)


# gl(2,2) has the largest stay DP; 20 steps keep the sweep under about a second
STAY_THEOREM_KINDS = (
    AlgebraKind.empty(3), KS3, AlgebraKind.hook(1, 2), AlgebraKind.hook(2, 1),
    AlgebraKind.hook(2, 2),
)
STAY_HORIZON = 20
# the worst ratios seen at this horizon were 0.55 on gl(1,2) and 0.54 on gl(2,2)
STAY_GAP_RATIO = Fraction(3, 5)


@pytest.mark.parametrize("kind", STAY_THEOREM_KINDS, ids=AlgebraKind.describe)
def test_stay_theorem_from_every_small_start(kind):
    # the truncated stay probability decreases to psi / nabla from every start
    # of at most three boxes; its gap to psi / nabla at the horizon is at most
    # STAY_GAP_RATIO times its gap at half the horizon
    p = condition_points(kind)[0]
    for lam in shapes_up_to(kind, 3):
        closed = stay_probability(kind, lam, p)
        table = _stay_table(kind, lam, p, STAY_HORIZON)
        assert all(a >= b >= closed for a, b in zip(table, table[1:])), lam
        gap, half_gap = table[STAY_HORIZON] - closed, table[STAY_HORIZON // 2] - closed
        assert gap <= STAY_GAP_RATIO * half_gap, lam


ONE_PASS_KINDS = (AlgebraKind.empty(3), AlgebraKind.hook(2, 2), KS3, KH11, AlgebraKind.hook(1, 2))


def _cli_args(kind, p):
    args = ["--kind", kind.kind, "--n", str(kind.n), "--p", ",".join(map(format_rational, p.values))]
    return args + ["--m", str(kind.m)] if kind.m else args


@pytest.mark.parametrize("start", [(), (2, 1)], ids=["empty", "2,1"])
@pytest.mark.parametrize("kind", ONE_PASS_KINDS, ids=AlgebraKind.describe)
def test_exit_prob_rows_match_one_stay_call_per_horizon(capsys, kind, start):
    p = condition_points(kind)[0]
    horizon = 12 if kind.N == 4 else 16
    shape = ",".join(map(str, start)) or "0"
    assert main(["exit-prob", *_cli_args(kind, p), "--shape", shape, "--horizon", str(horizon)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()[2:]))
    closed = stay_probability(kind, start, p)
    expected = []
    for h in range(1, horizon + 1):
        truncated = stay_probability_truncated(kind, start, p, h)
        expected.append([str(h), *map(format_rational, (truncated, closed, truncated - closed))])
    assert rows == expected


def test_truncated_stay_other_kinds():
    ps = ProbVector(KS2, P2.values)
    ph = ProbVector(KH11, P2.values)
    assert stay_probability_truncated(KS2, (), ps, 8) >= stay_probability(KS2, (), ps)
    assert stay_probability_truncated(KH11, (), ph, 8) >= stay_probability(KH11, (), ph)
    assert stay_probability_truncated(KE2, (), P2, 0) == 1


def test_conditioned_step_kernel_converges_to_pi_shape():
    target = pi_shape(KE2, P2)
    previous = None
    for remaining in (5, 15, 30):
        kernel = conditioned_step_kernel(KE2, P2, remaining)
        assert kernel.row_sum((1,)) == 1
        gap = max(
            abs(float(kernel.prob((1,), lam) - target.prob((1,), lam)))
            for lam in successors(KE2, (1,))
        )
        if previous is not None:
            assert gap < previous
        previous = gap
    assert previous < 1e-3


# Without drift psi / nabla is not defined, but the walk conditioned to stay
# is still the Pitman image (O'Connell and Yor 2002; König, O'Connell and
# Roch 2002), so the rows conditioned on R more steps approach pi_shape's.
# The largest entry error decays like 1/R: R * error read 0.25 for gl(2) and
# 0.66-0.68 for gl(3), and doubling R gives ratios of 0.505 and 0.517.
@pytest.mark.parametrize("kind,mu,horizons,r_times_error", [
    (KE2, (1,), (50, 100), (0.2, 0.3)),
    (KE3, (2, 1), (25, 50), (0.6, 0.75)),
], ids=["gl(2)", "gl(3)"])
def test_conditioned_rows_approach_pi_shape_at_the_uniform_law(kind, mu, horizons, r_times_error):
    p = ProbVector(kind, (Fraction(1, kind.N),) * kind.N)
    target = dict(pi_shape(kind, p).successors(mu))
    errors = []
    for remaining in horizons:
        row = dict(conditioned_step_kernel(kind, p, remaining).successors(mu))
        assert row.keys() == target.keys()
        errors.append(max(abs(row[lam] - target[lam]) for lam in target))
        low, high = r_times_error
        assert low < remaining * errors[-1] < high
    # error(2R) / error(R) lies within 0.45 to 0.55
    assert Fraction(45, 100) < errors[1] / errors[0] < Fraction(55, 100)


# the oracle below asks for each shape's stay many times, as a successor of
# several shapes; the kernel under test does not share this cache
_stay = cache(stay_probability_truncated)


def _conditioned_row_by_stay_total(kind, p, remaining, mu):
    """Row of the conditioned kernel normalised by a separate truncated-stay
    DP at mu: the oracle of the library's normalisation by the row's own
    masses."""
    total = _stay(kind, mu, p, remaining)
    return tuple(
        (lam, p.values[added_coordinate(kind, mu, lam)] * _stay(kind, lam, p, remaining - 1) / total)
        for lam in successors(kind, mu)
    )


def test_conditioned_rows_match_stay_normalisation():
    for kind in (KE2, KH11, AlgebraKind.strict(3)):
        p = _prob_for(kind)
        for remaining in range(1, 9):
            kernel = conditioned_step_kernel(kind, p, remaining)
            for mu in shapes_up_to(kind, 3):
                assert kernel.successors(mu) == _conditioned_row_by_stay_total(
                    kind, p, remaining, mu
                )


@pytest.mark.parametrize("remaining", [0, -1])
def test_conditioned_step_kernel_refuses_short_horizon(remaining):
    with pytest.raises(InvalidInputError, match="remaining"):
        conditioned_step_kernel(KE2, P2, remaining)


# Each function on a kind of N letters given a law over another alphabet.
WRONG_LAW_CALLS = {
    "green": lambda: green(AlgebraKind.hook(2, 2), P3, (), (1, 1)),
    "martin_kernel": lambda: martin_kernel(AlgebraKind.hook(2, 2), P3, (1,), (2, 1)),
    "stay_probability_truncated": lambda: stay_probability_truncated(KE3, (), P2, 3),
    "conditioned_step_kernel": lambda: conditioned_step_kernel(KE3, P2, 2),
    "pi_walk": lambda: pi_walk(KE3, P2),
    "pi_restricted": lambda: pi_restricted(AlgebraKind.hook(2, 2), P3),
    "sample_walk": lambda: sample_walk(KE3, P2, 6, RngStream(1)),
    "sample_conditioned_ensemble": lambda: sample_conditioned_ensemble(
        KE3, P2, 3, 5, 4, RngStream(1)
    ),
    "sample_conditioned_walk": lambda: sample_conditioned_walk(KE3, P2, 3, 5, RngStream(1)),
    "nabla": lambda: nabla(KE3, P2),
}


@pytest.mark.parametrize("name", sorted(WRONG_LAW_CALLS))
def test_law_of_wrong_length_refused(name):
    with pytest.raises(InvalidInputError, match=r"expected \d values, got \d"):
        WRONG_LAW_CALLS[name]()
