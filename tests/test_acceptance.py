"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance below is fixed here, not calibrated elsewhere: exact assertions are
rational equality, statistical assertions use explicit sigma multiples, and
trend assertions use the stated deviation bounds.
"""

import functools
import math
import time
from fractions import Fraction
from itertools import product

from superwalk import (
    AlgebraKind,
    ProbVector,
    RngStream,
    decompose_product,
    dec_skew_identity,
    f_count,
    kostka,
    nabla,
    lr_count,
    lr_enumerate,
    pi_restricted,
    pi_shape,
    pi_weight,
    pitman,
    psi,
    parse_word,
    q_tableau,
    rsk,
    schur,
    stay_probability,
    stay_probability_truncated,
    successors,
    theta_embed,
    doob_transform,
)
from superwalk.characters import hook_formula_applicable
from superwalk.kinds import sub_weights
from superwalk.multiplicities import dec_skew_coefficient_identity, shapes_of_size
from superwalk.simulate import (
    asympt_multiplicity_experiment,
    drift_shape,
    quotient_llt_experiment,
    sample_conditioned_ensemble,
)
from superwalk.suites import condition_points, shapes_up_to

from oracles import insertion_trace


def criterion(number, name, limit_seconds):
    def wrap(func):
        @functools.wraps(func)
        def run():
            start = time.time()
            try:
                func()
            except BaseException:
                print(f"[criterion {number}] FAIL {name}")
                raise
            elapsed = time.time() - start
            print(f"[criterion {number}] PASS {name} ({elapsed:.2f}s, limit {limit_seconds}s)")
            assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"

        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. Golden examples, bit exact
# ---------------------------------------------------------------------------

@criterion(1, "golden worked examples reproduce bit-exactly", 1.0)
def test_criterion_1_golden_examples():
    ke4 = AlgebraKind.empty(4)
    word_a = parse_word(ke4, "232143")
    pair = rsk(ke4, word_a)
    assert pair.p.rows == ((1, 2, 2), (3, 3), (4,))
    assert pair.q.to_rows() == ((1, 3, 4), (2, 6), (5,))

    kh23 = AlgebraKind.hook(2, 3)
    word_h = parse_word(kh23, "-23-2-132-12")
    trace_h = [t.rows for t in insertion_trace(kh23, word_h)]
    assert trace_h == [
        ((-2,),),
        ((-2,), (3,)),
        ((-2, -2), (3,)),
        ((-2, -2), (-1, 3)),
        ((-2, -2), (-1, 3), (3,)),
        ((-2, -2), (-1, 3), (2, 3)),
        ((-2, -2, 3), (-1, -1), (2, 3)),
        ((-2, -2, 3), (-1, -1), (2, 3), (2,)),
    ]
    assert q_tableau(kh23, word_h).to_rows() == ((1, 3, 7), (2, 4), (5, 6), (8,))

    # the source prints n=4 for this word but it uses the letter 5; any rank
    # from five on gives the same trace
    ks5 = AlgebraKind.strict(5)
    word_s = parse_word(ks5, "232145331")
    trace_s = [t.rows for t in insertion_trace(ks5, word_s)]
    assert trace_s == [
        ((2,),),
        ((2, 3),),
        ((3, 2), (2,)),
        ((3, 2, 1), (2,)),
        ((3, 2, 1, 4), (2,)),
        ((3, 2, 1, 4, 5), (2,)),
        ((4, 2, 1, 3, 5), (2, 3)),
        ((4, 3, 1, 3, 5), (3, 2), (2,)),
        ((4, 3, 3, 1, 5), (3, 2, 1), (2,)),
    ]

    ke3, ks3 = AlgebraKind.empty(3), AlgebraKind.strict(3)
    w = parse_word(ke3, "1121231212")
    assert pitman(ke3, w) == (
        (1,), (2,), (2, 1), (3, 1), (3, 2), (3, 2, 1), (4, 2, 1), (4, 3, 1),
        (5, 3, 1), (5, 4, 1),
    )
    assert pitman(ks3, w) == (
        (1,), (2,), (3,), (3, 1), (4, 1), (5, 1), (5, 2), (5, 3), (5, 3, 1),
        (6, 3, 1),
    )

    ke5 = AlgebraKind.empty(5)
    assert pitman(ke5, word_s) == (
        (1,), (1, 1), (2, 1), (3, 1), (3, 1, 1), (3, 1, 1, 1), (3, 2, 1, 1),
        (3, 3, 1, 1), (4, 3, 1, 1),
    )
    assert pitman(ks5, word_s) == (
        (1,), (2,), (2, 1), (3, 1), (4, 1), (5, 1), (5, 2), (5, 2, 1), (5, 3, 1),
    )

    kh33 = AlgebraKind.hook(3, 3)
    tabs = lr_enumerate(kh33, (3, 3, 3, 2, 2, 2), (2,), (3, 3, 2, 2, 2, 1))
    assert [t.rows for t in tabs] == [((1,), (1, 1, 2), (2, 2, 3), (3, 4), (4, 5), (5, 6))]
    assert theta_embed(tabs[0]).rows == (
        (-3, -2, -2), (-2, -1, -1), (-1, 1), (1, 2), (1, 2), (2,),
    )


# ---------------------------------------------------------------------------
# 2. RSK bijectivity, exhaustive
# ---------------------------------------------------------------------------

@criterion(2, "RSK is a bijection onto same-shape pairs", 60.0)
def test_criterion_2_rsk_bijectivity():
    from superwalk.tableaux import enumerate_standard, enumerate_tableaux

    cases = [
        (AlgebraKind.empty(3), 6),
        (AlgebraKind.hook(2, 2), 5),
        (AlgebraKind.strict(3), 6),
    ]
    for kind, max_length in cases:
        for length in range(1, max_length + 1):
            seen = {}
            by_shape = {}
            for w in product(kind.alphabet, repeat=length):
                pair = rsk(kind, w)
                key = (pair.p.rows, pair.q.chain)
                assert key not in seen, f"collision for {kind.describe()}"
                seen[key] = w
                by_shape.setdefault(pair.p.shape, set()).add(key)
            total = 0
            for lam, got in by_shape.items():
                tabs = {t.rows for t in enumerate_tableaux(kind, lam, budget=6)}
                chains = {c.chain for c in enumerate_standard(kind, lam)}
                assert got == {(t, c) for t in tabs for c in chains}
                total += len(tabs) * len(chains)
            assert total == len(kind.alphabet) ** length


# ---------------------------------------------------------------------------
# 3. Character dual-route equality
# ---------------------------------------------------------------------------

@criterion(3, "tableau and Weyl-type character routes agree exactly", 60.0)
def test_criterion_3_dual_route():
    kinds = [AlgebraKind.empty(2), AlgebraKind.empty(3),
             AlgebraKind.strict(2), AlgebraKind.strict(3)]
    kinds += [AlgebraKind.hook(m, n) for m in (1, 2) for n in (1, 2, 3)]
    for kind in kinds:
        for p in condition_points(kind, 3):
            assert p.satisfies_condition()
            for lam in shapes_up_to(kind, 6):
                tab = schur(kind, lam, p, route="tableaux", budget=6)
                # the closed hook formula is only valid on shapes
                # containing the m x n rectangle
                if kind.kind != "hook" or hook_formula_applicable(kind, lam):
                    assert tab == schur(kind, lam, p, route="weyl")
    # identity (rela): full-depth strict shapes factor through the empty kind
    for n in (2, 3):
        ks, ke = AlgebraKind.strict(n), AlgebraKind.empty(n)
        rho = tuple(range(n - 1, -1, -1))
        for pe in condition_points(ke, 3):
            ps = ProbVector(ks, pe.values)
            for lam in shapes_up_to(ks, 6):
                if len(lam) != n:
                    continue
                reduced = tuple(a - b for a, b in zip(lam, rho))
                prod = Fraction(1)
                for i in range(n):
                    for j in range(i + 1, n):
                        prod *= pe.values[i] + pe.values[j]
                assert schur(ks, lam, ps, route="weyl") == (
                    schur(ke, reduced, pe, route="weyl") * prod
                )


# ---------------------------------------------------------------------------
# 4. Markov law suite
# ---------------------------------------------------------------------------

@criterion(4, "shape-process kernel: row sums, Markov property, laws, Doob", 120.0)
def test_criterion_4_markov_laws():
    kinds = [AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.strict(3)]
    for kind in kinds:
        p = condition_points(kind)[0]
        kernel = pi_shape(kind, p, budget=7)
        restricted = pi_restricted(kind, p)
        for mu in shapes_up_to(kind, 5):
            assert kernel.row_sum(mu) == 1
            # the Doob transform divides each row by its own total, so the
            # row sum is 1 for any psi; harmonicity on the restricted row is
            # what makes the kernel's entries p_i psi(lam_i) / psi(mu)
            row = restricted.successors(mu)
            assert sum(
                (prob * psi(kind, lam, p, budget=7) for lam, prob in row), Fraction(0)
            ) == psi(kind, mu, p, budget=7)
        # joint law of the first five shapes from exact word probabilities
        histories = {}
        for w in product(kind.alphabet, repeat=5):
            mass = Fraction(1)
            for x in w:
                mass *= p.prob(x)
            chain = pitman(kind, w)
            histories[chain] = histories.get(chain, Fraction(0)) + mass
        # Markov property at every step: conditioning on the whole history
        # gives the kernel entry of the last shape alone
        for step in range(1, 5):
            joint, shorter = {}, {}
            for chain, mass in histories.items():
                joint[chain[: step + 1]] = joint.get(chain[: step + 1], Fraction(0)) + mass
                shorter[chain[:step]] = shorter.get(chain[:step], Fraction(0)) + mass
            for prefix, mass in joint.items():
                assert mass / shorter[prefix[:-1]] == kernel.prob(prefix[-2], prefix[-1])
        for step in range(5):
            law = {}
            for chain, mass in histories.items():
                law[chain[step]] = law.get(chain[step], Fraction(0)) + mass
            for lam, mass in law.items():
                assert mass == f_count(kind, lam) * schur(kind, lam, p, budget=6)
        # psi-harmonicity up to six boxes
        for mu in shapes_up_to(kind, 6):
            base = pi_weight(kind, mu)
            total = Fraction(0)
            for lam in successors(kind, mu):
                step_index = next(
                    i for i in range(kind.N) if pi_weight(kind, lam)[i] != base[i]
                )
                total += p.values[step_index] * psi(kind, lam, p, budget=7)
            assert total == psi(kind, mu, p, budget=7)
        # Doob transform of the restricted walk kernel equals the shape kernel
        transformed = doob_transform(
            pi_restricted(kind, p), lambda s, k=kind, q=p: psi(k, s, q, budget=7)
        )
        for mu in shapes_up_to(kind, 5):
            assert dict(transformed.successors(mu)) == dict(kernel.successors(mu))


# ---------------------------------------------------------------------------
# 5. Conditioned walk agreement, statistical
# ---------------------------------------------------------------------------

@criterion(5, "conditioned walk matches the Pitman kernel within 4 sigma", 120.0)
def test_criterion_5_conditioned_walk():
    kind = AlgebraKind.empty(2)
    p = ProbVector.parse(kind, "2/3,1/3")
    horizon, steps, paths = 30, 5, 100_000

    closed = stay_probability(kind, (), p)
    assert closed == Fraction(1, 2)
    previous = None
    for level in range(1, horizon + 1):
        truncated = stay_probability_truncated(kind, (), p, level)
        assert truncated >= closed
        if previous is not None:
            assert truncated <= previous
        previous = truncated
    assert previous - closed < Fraction(1, 100)

    ensemble = sample_conditioned_ensemble(
        kind, p, steps, horizon, paths, RngStream(20120214)
    )
    reference_rate = float(stay_probability_truncated(kind, (), p, horizon))
    sigma = math.sqrt(reference_rate * (1 - reference_rate) / ensemble.attempts)
    assert abs(ensemble.acceptance_rate - reference_rate) < 4 * sigma

    kernel = pi_shape(kind, p)
    from_shapes = sorted(ensemble.visit_counts, key=lambda s: (sum(s), s))[:5]
    assert len(from_shapes) == 5
    for mu in from_shapes:
        visits = ensemble.visit_counts[mu]
        for lam in successors(kind, mu):
            observed = ensemble.transition_counts.get((mu, lam), 0) / visits
            expected = float(kernel.prob(mu, lam))
            sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / visits)
            assert abs(observed - expected) < 4 * sigma, (mu, lam)


# ---------------------------------------------------------------------------
# 6. Dimension-2 suite
# ---------------------------------------------------------------------------

@criterion(6, "dimension-2 stay probabilities and the Pitman relation", 60.0)
def test_criterion_6_dimension_two():
    ke, ks, kh = AlgebraKind.empty(2), AlgebraKind.strict(2), AlgebraKind.hook(1, 1)
    for pe in condition_points(ke, 3):
        p1, p2 = pe.values
        assert stay_probability(ke, (), pe) == 1 - p2 / p1
        assert stay_probability(ks, (), ProbVector(ks, pe.values)) == p1 * (1 - p2 / p1)
        assert stay_probability(kh, (), ProbVector(kh, pe.values)) == pe.values[0]
    for length in range(1, 9):
        for w in product((1, 2), repeat=length):
            head = pitman(ke, w[:-1])
            lam = (head[-1] if head else ()) + (0, 0)
            expected = tuple(v for v in (lam[0] + 1, lam[1]) if v)
            assert pitman(ks, w)[-1] == expected


# ---------------------------------------------------------------------------
# 7. Multiplicity suite
# ---------------------------------------------------------------------------

@criterion(7, "tensor multiplicities: Pieri, symmetry, LR rule, skew identities", 180.0)
def test_criterion_7_multiplicities():
    kinds = [AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.strict(3)]
    for kind in kinds:
        for mu in shapes_up_to(kind, 5):
            assert decompose_product(kind, mu, (1,), budget=6) == {
                lam: 1 for lam in successors(kind, mu)
            }
        for kappa in shapes_up_to(kind, 5):
            for mu in shapes_up_to(kind, 6 - sum(kappa)):
                left = decompose_product(kind, kappa, mu, budget=6)
                assert left == decompose_product(kind, mu, kappa, budget=6)

    kh22 = AlgebraKind.hook(2, 2)
    for lam in shapes_up_to(kh22, 8):
        for kappa in shapes_up_to(kh22, sum(lam)):
            if not all(
                a >= b for a, b in zip(pi_weight(kh22, lam), pi_weight(kh22, kappa))
            ):
                continue
            for mu in shapes_of_size(kh22, sum(lam) - sum(kappa)):
                assert lr_count(kh22, lam, kappa, mu) == decompose_product(
                    kh22, kappa, mu, budget=8
                ).get(lam, 0)
    kh33 = AlgebraKind.hook(3, 3)
    exam = ((3, 3, 3, 2, 2, 2), (2,), (3, 3, 2, 2, 2, 1))
    assert lr_count(kh33, *exam) == 1
    assert decompose_product(kh33, exam[1], exam[2], budget=16, max_nodes=10**7).get(
        exam[0], 0
    ) == 1

    for kind in kinds:
        for lam in shapes_up_to(kind, 6):
            for kappa in shapes_up_to(kind, sum(lam)):
                if not all(
                    a >= b for a, b in zip(pi_weight(kind, lam), pi_weight(kind, kappa))
                ):
                    continue
                diff = sub_weights(pi_weight(kind, lam), pi_weight(kind, kappa))
                for mu in shapes_of_size(kind, sum(lam) - sum(kappa)):
                    mult = decompose_product(kind, kappa, mu, budget=6).get(lam, 0)
                    assert mult <= kostka(kind, mu, diff, budget=6)

    for kind in [AlgebraKind.empty(2), AlgebraKind.hook(1, 1), AlgebraKind.strict(2)]:
        for lam in shapes_up_to(kind, 6):
            for nu in shapes_up_to(kind, sum(lam)):
                if all(
                    a >= b for a, b in zip(pi_weight(kind, lam), pi_weight(kind, nu))
                ):
                    assert dec_skew_identity(kind, lam, nu, budget=6)
        p = ProbVector(kind, (Fraction(2, 3), Fraction(1, 3)))
        for scale in (20, 30):
            lam = drift_shape(kind, p, scale)
            for mu in ((1,), (2,), (2, 1)):
                from superwalk import is_valid_shape

                if is_valid_shape(kind, mu):
                    assert dec_skew_coefficient_identity(kind, lam, mu, budget=8)


# ---------------------------------------------------------------------------
# 8. Asymptotic trends (exact DP)
# ---------------------------------------------------------------------------

@criterion(8, "drift-scale trends: Green quotient, skew ratio, psi to nabla", 180.0)
def test_criterion_8_asymptotic_trends():
    ke = AlgebraKind.empty(2)
    p = ProbVector.parse(ke, "2/3,1/3")
    report = quotient_llt_experiment(ke, p, (1, 0), 40)
    assert report.final_quartile_deviation < 0.1
    ks = AlgebraKind.strict(2)
    ps = ProbVector(ks, p.values)
    assert quotient_llt_experiment(ks, ps, (1, 0), 40).final_quartile_deviation < 0.1

    for mu in ((1,), (2,)):
        trend = asympt_multiplicity_experiment(ke, p, mu, 40)
        assert trend.target == schur(ke, mu, p)
        assert abs(float(trend.rows[-1].value) - float(trend.target)) < 0.05

    for kind in (ke, ks, AlgebraKind.hook(1, 1)):
        pk = ProbVector(kind, p.values)
        target = nabla(kind, pk)
        lam = drift_shape(kind, pk, 40)
        assert abs(float(psi(kind, lam, pk) - target)) < 0.05 * float(target)
