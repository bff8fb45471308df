"""Sampler determinism, law agreement and exact-DP trend experiments.

``nearest_shape`` repairs a rounded vector by asking the semigroup; the
per-kind repair it replaced stays here as its oracle.  The asympt trend reads
every skew count from one chain pass; one ``f_skew`` call per drift step is
its oracle.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from superwalk import (
    AlgebraKind,
    InvalidInputError,
    ProbVector,
    RngStream,
    SamplingFailureError,
    asympt_multiplicity_experiment,
    drift_shape,
    f_count,
    f_skew,
    nearest_shape,
    pitman,
    quotient_llt_experiment,
    sample_conditioned_walk,
    sample_shape_chain,
    sample_walk,
    schur,
    stay_probability_truncated,
)
from superwalk.kinds import HOOK, STRICT, shape_from_weight
from superwalk.markov import pi_shape
from superwalk.simulate import (
    estimate_conditioned_acceptance,
    estimate_letter_frequencies,
    estimate_shape_law,
    sample_conditioned_ensemble,
)
from superwalk.suites import condition_points

KE2 = AlgebraKind.empty(2)
KS2 = AlgebraKind.strict(2)
KH11 = AlgebraKind.hook(1, 1)
P2 = ProbVector.parse(KE2, "2/3,1/3")


def test_rng_determinism():
    a = sample_walk(KE2, P2, 50, RngStream(7))
    b = sample_walk(KE2, P2, 50, RngStream(7))
    c = sample_walk(KE2, P2, 50, RngStream(8))
    assert a == b
    assert a != c
    assert sample_walk(KE2, P2, 0, RngStream(7)) == ()
    assert RngStream(7, 1).draw_bits() != RngStream(7, 2).draw_bits()


def test_walk_golden_prefix():
    # frozen on first run; guards the exact inverse-CDF sampling path
    assert sample_walk(KE2, P2, 12, RngStream(20120214)) == (
        1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1,
    )


def test_letter_frequencies_within_four_sigma():
    samples = 100_000
    word = sample_walk(KE2, P2, samples, RngStream(3))
    count_one = sum(1 for x in word if x == 1)
    est = count_one / samples
    sigma = math.sqrt(float(P2.values[0] * P2.values[1]) / samples)
    assert abs(est - float(P2.values[0])) < 4 * sigma


def test_shape_chain_law_matches_exact():
    samples = 20_000
    rng = RngStream(11)
    counts = {}
    for _ in range(samples):
        chain = sample_shape_chain(KE2, P2, 3, rng)
        counts[chain[-1]] = counts.get(chain[-1], 0) + 1
    for lam, count in counts.items():
        reference = float(f_count(KE2, lam) * schur(KE2, lam, P2))
        est = count / samples
        sigma = math.sqrt(reference * (1 - reference) / samples)
        assert abs(est - reference) < 4 * sigma
    assert sample_shape_chain(KE2, P2, 1, RngStream(1)) == ((1,),)


@pytest.mark.parametrize(
    "kind,laws",
    [
        (AlgebraKind.empty(3), ("1/2,1/3,1/6", "3/5,1/5,1/5")),
        (AlgebraKind.hook(2, 2), ("4/10,3/10,2/10,1/10", "1/4,1/4,1/4,1/4")),
        (AlgebraKind.strict(3), ("1/2,1/3,1/6", "2/5,2/5,1/5")),
    ],
)
def test_shape_law_estimate_matches_chain_loop(kind, laws):
    # one kernel per estimate, draw for draw the same as one kernel per path;
    # the second law in the same process would catch a kernel kept across laws
    paths, length, seed = 100, 3, 5
    for law in laws:
        p = ProbVector.parse(kind, law)
        rng = RngStream(seed)
        report = estimate_shape_law(kind, p, paths, length, rng)
        loop_rng = RngStream(seed)
        counts = {}
        for _ in range(paths):
            end = ",".join(map(str, sample_shape_chain(kind, p, length, loop_rng)[-1]))
            counts["shape " + end] = counts.get("shape " + end, 0) + 1
        assert report.estimates == {k: c / paths for k, c in counts.items()}
        assert rng.draw_bits() == loop_rng.draw_bits()


def test_two_shape_samplers_agree_in_exact_law():
    # full enumeration: the pushforward of the word law under the Pitman map
    # equals the kernel chain law at every length up to four
    for kind in (KE2, KS2, KH11):
        p = ProbVector(kind, P2.values)
        kernel = pi_shape(kind, p)
        chain_law = {(): Fraction(1)}
        for _ in range(4):
            nxt = {}
            for chain_state, mass in chain_law.items():
                last = chain_state[-1] if chain_state else ()
                for lam, prob in kernel.successors(last):
                    key = chain_state + (lam,)
                    nxt[key] = nxt.get(key, Fraction(0)) + mass * prob
            chain_law = nxt
        word_law = {}
        for w in product(kind.alphabet, repeat=4):
            mass = Fraction(1)
            for x in w:
                mass *= p.prob(x)
            chain = pitman(kind, w)
            word_law[chain] = word_law.get(chain, Fraction(0)) + mass
        assert word_law == chain_law


def test_conditioned_walk_basics():
    shapes = sample_conditioned_walk(KE2, P2, 5, 10, RngStream(5))
    assert len(shapes) == 5
    prev = ()
    for lam in shapes:
        assert sum(lam) == sum(prev) + 1
        prev = lam
    with pytest.raises(Exception):
        sample_conditioned_walk(KE2, P2, 5, 3, RngStream(5))


def test_conditioned_walk_one_step_law():
    # horizon = length = 1: first step proportional to p restricted to the
    # steps staying in the lattice; for the empty kind only e_1 survives
    shapes = [
        sample_conditioned_walk(KE2, P2, 1, 1, RngStream(100 + i))[0] for i in range(20)
    ]
    assert set(shapes) == {(1,)}
    # for the hook kind only the barred letter survives the first step
    ph = ProbVector(KH11, P2.values)
    shapes = [
        sample_conditioned_walk(KH11, ph, 1, 1, RngStream(i))[0] for i in range(20)
    ]
    assert set(shapes) == {(1,)}


def test_conditioned_rejection_failure_reports_rate():
    with pytest.raises(SamplingFailureError) as info:
        sample_conditioned_ensemble(
            KE2, P2, 2, 25, paths=10**6, rng=RngStream(1), max_attempts=50
        )
    # pinned at the commit before the samplers shared their rejection loop
    assert (info.value.attempts, info.value.accepted) == (50, 21)
    assert 0 <= info.value.acceptance_rate <= 1


def test_conditioned_acceptance_rate():
    horizon = 12
    ensemble = sample_conditioned_ensemble(KE2, P2, 3, horizon, 4000, RngStream(9))
    reference = float(stay_probability_truncated(KE2, (), P2, horizon))
    sigma = math.sqrt(reference * (1 - reference) / ensemble.attempts)
    assert abs(ensemble.acceptance_rate - reference) < 4 * sigma


def test_nearest_shape_rounding_and_repair():
    assert nearest_shape(KE2, (Fraction(7, 2), Fraction(7, 2))) == (4, 4)
    assert nearest_shape(KS2, (Fraction(7, 2), Fraction(7, 2))) == (4, 3)
    assert nearest_shape(KS2, (Fraction(1, 3), Fraction(1, 4))) == ()
    assert nearest_shape(KH11, (Fraction(5, 2), Fraction(9, 2))) == (2, 1, 1, 1, 1)
    # hook repair zeroes unbarred coordinates beyond the barred cap
    assert nearest_shape(KH11, (Fraction(0), Fraction(3))) == ()


def repair_nearest_shape(kind, vector):
    """The per-kind repair: minimal decrements left to right inside each
    block, strict distinctness for q(n), and the hook kind's unbarred
    coordinates zeroed beyond the last barred one."""
    coords = [int(round(Fraction(v))) for v in vector]
    assert len(coords) == kind.N
    if kind.kind == HOOK:
        barred = _repair_decreasing(coords[: kind.m])
        unbarred = _repair_decreasing(coords[kind.m:])
        cap = barred[-1]
        unbarred = [v if i + 1 <= cap else 0 for i, v in enumerate(unbarred)]
        weight = tuple(barred + unbarred)
    elif kind.kind == STRICT:
        weight = tuple(_repair_decreasing(coords, strict=True))
    else:
        weight = tuple(_repair_decreasing(coords))
    return shape_from_weight(kind, weight)


def _repair_decreasing(coords, strict=False):
    out = []
    for c in coords:
        c = max(c, 0)
        if out:
            cap = out[-1] - 1 if strict and out[-1] > 0 else out[-1]
            c = min(c, max(cap, 0))
        out.append(c)
    return out


REPAIR_KINDS = (
    AlgebraKind.empty(1), AlgebraKind.empty(3), AlgebraKind.empty(4),
    AlgebraKind.strict(2), AlgebraKind.strict(4),
    AlgebraKind.hook(1, 1), AlgebraKind.hook(2, 1), AlgebraKind.hook(2, 2),
    AlgebraKind.hook(1, 3), AlgebraKind.hook(3, 2),
)


def test_nearest_shape_matches_per_kind_repair_on_random_vectors():
    rng = random.Random(20121015)
    for _ in range(4000):
        for kind in REPAIR_KINDS:
            vector = [Fraction(rng.randint(-30, 200), rng.randint(1, 7)) for _ in range(kind.N)]
            assert nearest_shape(kind, vector) == repair_nearest_shape(kind, vector), vector


# the drift laws of the doob-drift benchmark and of the CI llt step
DRIFT_LAWS = (
    (AlgebraKind.empty(3), "30/61,19/61,12/61"),
    (AlgebraKind.strict(3), "30/61,19/61,12/61"),
    (AlgebraKind.hook(2, 2), "24/61,17/61,12/61,8/61"),
    (AlgebraKind.empty(3), "1/2,1/3,1/6"),
    (AlgebraKind.strict(3), "1/2,1/3,1/6"),
    (AlgebraKind.hook(2, 2), "4/10,3/10,2/10,1/10"),
)


@pytest.mark.parametrize("kind, law", DRIFT_LAWS)
def test_drift_shape_matches_per_kind_repair(kind, law):
    p = ProbVector.parse(kind, law)
    for scale in range(1, 241):
        expected = repair_nearest_shape(kind, [scale * v for v in p.values])
        assert drift_shape(kind, p, scale) == expected, scale


def test_drift_shape_tracks_mean():
    for kind in (KE2, KS2, KH11):
        p = ProbVector(kind, P2.values)
        lam = drift_shape(kind, p, 30)
        assert abs(sum(lam) - 30) <= 2


def test_quotient_llt_trends_to_one():
    report = quotient_llt_experiment(KE2, P2, (1, 0), 40)
    assert len(report.rows) == 40
    assert report.final_quartile_deviation < 0.1
    # gamma = 0 gives the constant ratio one
    trivial = quotient_llt_experiment(KE2, P2, (0, 0), 8)
    assert all(row.value == 1 for row in trivial.rows)


def test_quotient_llt_strict_kind():
    ps = ProbVector(KS2, P2.values)
    report = quotient_llt_experiment(KS2, ps, (1, 0), 40)
    assert report.final_quartile_deviation < 0.1


def test_quotient_llt_undefined_entries():
    # a gamma pointing out of the lattice leaves early entries undefined
    report = quotient_llt_experiment(KE2, P2, (0, 3), 6)
    assert any(row.value is None for row in report.rows)


@pytest.mark.parametrize("kind", [KE2, KH11, AlgebraKind.strict(3)], ids=lambda k: k.describe())
def test_letter_frequencies_read_the_walks_sample_walk_draws(kind):
    p = condition_points(kind)[1]
    rng = RngStream(5)
    counts = dict.fromkeys(kind.alphabet, 0)
    for _ in range(7):
        for x in sample_walk(kind, p, 3, rng):
            counts[x] += 1
    same = RngStream(5)
    report = estimate_letter_frequencies(kind, p, 7, 3, same)
    assert report.estimates == {f"letter {x}": c / 21 for x, c in counts.items()}
    # and both leave the stream at the same draw
    assert same.draw_bits() == rng.draw_bits()


def test_estimate_reports():
    from superwalk.simulate import (
        estimate_conditioned_acceptance,
        estimate_letter_frequencies,
        estimate_shape_law,
    )

    report = estimate_letter_frequencies(KE2, P2, 400, 5, RngStream(2))
    assert report.count == 2000
    assert abs(sum(report.estimates.values()) - 1) < 1e-12
    assert set(report.estimates) == set(report.stderrs) == {"letter 1", "letter 2"}
    assert report.references == {"letter 1": Fraction(2, 3), "letter 2": Fraction(1, 3)}
    for target, est in report.estimates.items():
        expected = math.sqrt(est * (1 - est) / report.count)
        assert abs(report.stderrs[target] - expected) < 1e-15

    law = estimate_shape_law(KE2, P2, 300, 2, RngStream(3))
    assert set(law.estimates) <= {"shape 2", "shape 1,1"}
    assert law.references == {
        label: f_count(KE2, lam) * schur(KE2, lam, P2)
        for label, lam in (("shape 2", (2,)), ("shape 1,1", (1, 1)))
        if label in law.estimates
    }

    acc = estimate_conditioned_acceptance(KE2, P2, 2, 8, 200, RngStream(4))
    assert 0 < acc.estimates["acceptance"] < 1
    assert acc.count >= 200
    assert acc.references == {"acceptance": stay_probability_truncated(KE2, (), P2, 8)}


def test_asympt_multiplicity_trends():
    for mu, limit in (((1,), Fraction(1)), ((2,), Fraction(7, 9))):
        report = asympt_multiplicity_experiment(KE2, P2, mu, 40)
        assert report.target == schur(KE2, mu, P2) == limit
        assert abs(float(report.rows[-1].value) - float(limit)) < 0.05
    trivial = asympt_multiplicity_experiment(KE2, P2, (), 5)
    assert all(row.value == 1 for row in trivial.rows)


@pytest.mark.parametrize("mu", [(1,), (2, 1)], ids=["1", "2,1"])
@pytest.mark.parametrize(
    "kind",
    (AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.strict(3), KH11,
     AlgebraKind.hook(1, 2)),
    ids=AlgebraKind.describe,
)
def test_asympt_rows_match_one_f_skew_per_drift_step(kind, mu):
    # the first drift shapes do not contain (2,1), so their rows read 0
    p = condition_points(kind)[0]
    l_max = 16 if kind.N == 4 else 24
    report = asympt_multiplicity_experiment(kind, p, mu, l_max)
    shapes = [drift_shape(kind, p, step) for step in range(1, l_max + 1)]
    assert [row.shape for row in report.rows] == shapes
    assert [row.value for row in report.rows] == [
        Fraction(f_skew(kind, g, mu), f_count(kind, g)) for g in shapes
    ]


KS3 = AlgebraKind.strict(3)
# (kind, step law, three conditioned walks drawn in turn from RngStream(5)
# with length 4 and horizon 8, the stream's next draw), fixed at the commit
# before the two conditioned samplers shared their rejection loop
PINNED_WALKS = (
    (KE2, "2/3,1/3",
     (((1,), (2,), (2, 1), (3, 1)), ((1,), (2,), (3,), (4,)), ((1,), (2,), (2, 1), (3, 1))),
     9784980739387257313),
    (KH11, "2/3,1/3",
     (((1,), (2,), (2, 1), (3, 1)), ((1,), (2,), (3,), (4,)), ((1,), (2,), (2, 1), (3, 1))),
     9784980739387257313),
    (KS3, "4/7,2/7,1/7",
     (((1,), (2,), (3,), (3, 1)), ((1,), (2,), (3,), (4,)), ((1,), (2,), (3,), (3, 1))),
     27957844146986645),
)
# (kind, step law, attempts, transition counts, visit counts, the stream's
# next draw) of an ensemble of 6 paths, length 3, horizon 8, RngStream(9)
PINNED_ENSEMBLES = (
    (KE2, "2/3,1/3", 11,
     {((), (1,)): 6, ((1,), (2,)): 6, ((2,), (2, 1)): 4, ((2,), (3,)): 2},
     {(): 6, (1,): 6, (2,): 6}, 8088220576422911903),
    (KH11, "2/3,1/3", 10,
     {((), (1,)): 6, ((1,), (2,)): 5, ((2,), (2, 1)): 3, ((2,), (3,)): 2,
      ((1,), (1, 1)): 1, ((1, 1), (2, 1)): 1},
     {(): 6, (1,): 6, (2,): 5, (1, 1): 1}, 14546347302055832511),
    (KS3, "4/7,2/7,1/7", 28,
     {((), (1,)): 6, ((1,), (2,)): 6, ((2,), (3,)): 4, ((2,), (2, 1)): 2},
     {(): 6, (1,): 6, (2,): 6}, 10221228394928114550),
)


@pytest.mark.parametrize("kind, law, walks, next_bits", PINNED_WALKS)
def test_conditioned_walk_pinned(kind, law, walks, next_bits):
    p = ProbVector.parse(kind, law)
    rng = RngStream(5)
    assert tuple(sample_conditioned_walk(kind, p, 4, 8, rng) for _ in walks) == walks
    assert rng.draw_bits() == next_bits


@pytest.mark.parametrize("kind, law, attempts, transitions, visits, next_bits", PINNED_ENSEMBLES)
def test_conditioned_ensemble_pinned(kind, law, attempts, transitions, visits, next_bits):
    rng = RngStream(9)
    ensemble = sample_conditioned_ensemble(kind, ProbVector.parse(kind, law), 3, 8, 6, rng)
    assert (ensemble.paths, ensemble.attempts) == (6, attempts)
    assert ensemble.transition_counts == transitions
    assert ensemble.visit_counts == visits
    assert rng.draw_bits() == next_bits


def test_conditioned_walk_pinned_exhaustion():
    near_uniform = ProbVector.parse(KE2, "51/100,49/100")
    sample_conditioned_walk(KE2, near_uniform, 2, 60, RngStream(1), max_attempts=3)
    with pytest.raises(SamplingFailureError) as info:
        sample_conditioned_walk(KE2, near_uniform, 2, 60, RngStream(2), max_attempts=3)
    assert (info.value.attempts, info.value.accepted) == (3, 0)


@pytest.mark.parametrize("paths,length", [(0, 3), (3, 0), (-1, 3), (3, -2)])
@pytest.mark.parametrize("estimator", ["letters", "shapes", "acceptance", "ensemble"])
def test_estimators_refuse_empty_samples(estimator, paths, length):
    calls = {
        "letters": lambda: estimate_letter_frequencies(KE2, P2, paths, length, RngStream(1)),
        "shapes": lambda: estimate_shape_law(KE2, P2, paths, length, RngStream(1)),
        "acceptance": lambda: estimate_conditioned_acceptance(
            KE2, P2, length, 4, paths, RngStream(1)
        ),
        "ensemble": lambda: sample_conditioned_ensemble(
            KE2, P2, length, 4, paths, RngStream(1)
        ),
    }
    name = "paths" if paths < 1 else "length"
    with pytest.raises(InvalidInputError, match=name):
        calls[estimator]()


@pytest.mark.parametrize("l_max", [0, -3])
def test_trend_experiments_refuse_empty_range(l_max):
    with pytest.raises(InvalidInputError, match="l_max"):
        quotient_llt_experiment(KE2, P2, (1, 0), l_max)
    with pytest.raises(InvalidInputError, match="l_max"):
        asympt_multiplicity_experiment(KE2, P2, (1,), l_max)


def test_drift_shape_refuses_negative_scale():
    # scale 0 is the empty shape, the start of every drift sweep
    for kind, p in ((KE2, P2), (KS2, ProbVector(KS2, P2.values)),
                    (KH11, ProbVector(KH11, P2.values))):
        assert drift_shape(kind, p, 0) == ()
        with pytest.raises(InvalidInputError, match="scale"):
            drift_shape(kind, p, -1)
