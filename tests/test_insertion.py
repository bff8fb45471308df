"""Insertion traces against the worked examples, plus structural properties."""

from bisect import bisect_left, bisect_right
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from superwalk import (
    AlgebraKind,
    Tableau,
    insert_hook,
    insert_strict,
    is_valid_tableau,
    p_tableau,
    pitman,
    parse_word,
    q_tableau,
    rsk,
    weight_of,
    words_with_recording,
)
from superwalk.errors import InvalidInputError
from superwalk.insertion import RskPair, _stream, insertion_trace, rsk_inverse
from superwalk.tableaux import StandardTableau, enumerate_standard, enumerate_tableaux

KE4 = AlgebraKind.empty(4)
KH23 = AlgebraKind.hook(2, 3)
KS5 = AlgebraKind.strict(5)

WORD_A = parse_word(KE4, "232143")
WORD_H = parse_word(KH23, "-23-2-132-12")
# the source example prints n=4 but the word uses the letter 5; rank 5 is the
# smallest alphabet containing it and the trace is rank-independent
WORD_S = parse_word(KS5, "232145331")


def test_empty_kind_full_trace():
    expected = [
        ((2,),),
        ((2,), (3,)),
        ((2, 2), (3,)),
        ((1, 2, 2), (3,)),
        ((1, 2, 2), (3,), (4,)),
        ((1, 2, 2), (3, 3), (4,)),
    ]
    trace = insertion_trace(KE4, WORD_A)
    assert [t.rows for t in trace] == expected


def test_empty_insert_into_empty():
    t = p_tableau(KE4, (3,))
    assert t.rows == ((3,),)


def test_empty_two_letter_shapes():
    # the image of all two-letter words covers both shapes: f*(|T|) sums to n^2
    n = 2
    ke = AlgebraKind.empty(n)
    total = 0
    for lam in [(2,), (1, 1)]:
        total += len(enumerate_tableaux(ke, lam)) * len(enumerate_standard(ke, lam))
    assert total == n * n
    assert p_tableau(ke, (1, 1)).rows == ((1, 1),)


def test_hook_kind_full_trace():
    expected = [
        ((-2,),),
        ((-2,), (3,)),
        ((-2, -2), (3,)),
        ((-2, -2), (-1, 3)),
        ((-2, -2), (-1, 3), (3,)),
        ((-2, -2), (-1, 3), (2, 3)),
        ((-2, -2, 3), (-1, -1), (2, 3)),
        ((-2, -2, 3), (-1, -1), (2, 3), (2,)),
    ]
    trace = insertion_trace(KH23, WORD_H)
    assert [t.rows for t in trace] == expected


def test_hook_one_step_example():
    before = Tableau(KH23, ((-2, -2), (3,)))
    after = insert_hook(before, -1)
    assert after.rows == ((-2, -2), (-1, 3))


def test_strict_kind_full_trace():
    expected = [
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
    trace = insertion_trace(KS5, WORD_S)
    assert [t.rows for t in trace] == expected


def test_strict_seventh_step():
    before = Tableau(KS5, ((3, 2, 1, 4, 5), (2,)))
    after = insert_strict(before, 3)
    assert after.rows == ((4, 2, 1, 3, 5), (2, 3))


def test_recording_tableaux_golden():
    assert q_tableau(KE4, WORD_A).to_rows() == ((1, 3, 4), (2, 6), (5,))
    assert q_tableau(KH23, WORD_H).to_rows() == ((1, 3, 7), (2, 4), (5, 6), (8,))
    assert q_tableau(KS5, WORD_S).to_rows() == ((1, 2, 4, 5, 6), (3, 7, 9), (8,))
    assert q_tableau(KE4, (2,)).chain == ((1,),)


def test_pitman_golden_rows():
    ke3 = AlgebraKind.empty(3)
    ks3 = AlgebraKind.strict(3)
    w = parse_word(ke3, "1121231212")
    assert pitman(ke3, w) == (
        (1,), (2,), (2, 1), (3, 1), (3, 2), (3, 2, 1), (4, 2, 1), (4, 3, 1),
        (5, 3, 1), (5, 4, 1),
    )
    assert pitman(ks3, w) == (
        (1,), (2,), (3,), (3, 1), (4, 1), (5, 1), (5, 2), (5, 3), (5, 3, 1),
        (6, 3, 1),
    )


def test_pitman_dim_tables_for_word_s():
    ke5 = AlgebraKind.empty(5)
    assert pitman(ke5, WORD_S) == (
        (1,), (1, 1), (2, 1), (3, 1), (3, 1, 1), (3, 1, 1, 1), (3, 2, 1, 1),
        (3, 3, 1, 1), (4, 3, 1, 1),
    )
    assert pitman(KS5, WORD_S)[-1] == (5, 3, 1)


def test_paths_in_cone_fixed_only_for_empty_kind():
    ke3 = AlgebraKind.empty(3)
    ks3 = AlgebraKind.strict(3)
    w = parse_word(ke3, "1121231212")
    weights = [weight_of(ke3, w[:k]) for k in range(1, len(w) + 1)]
    trimmed = [tuple(v for v in wt if v) for wt in weights]
    assert list(pitman(ke3, w)) == trimmed
    assert list(pitman(ks3, w)) != trimmed


def test_weight_preservation_exhaustive():
    for kind in (AlgebraKind.empty(2), AlgebraKind.hook(1, 1), AlgebraKind.strict(2)):
        for L in range(7):
            for w in product(kind.alphabet, repeat=L):
                assert p_tableau(kind, w).weight() == weight_of(kind, w)


def test_weight_preservation_randomized_long_words():
    import random

    rng = random.Random(20120214)
    for kind in (AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.strict(4)):
        for _ in range(60):
            w = tuple(rng.choice(kind.alphabet) for _ in range(rng.randint(7, 16)))
            tab = p_tableau(kind, w)
            assert tab.weight() == weight_of(kind, w)
            assert is_valid_tableau(tab)


def test_rsk_inverse_roundtrip():
    ke = AlgebraKind.empty(3)
    for L in range(6):
        for w in product(ke.alphabet, repeat=L):
            assert rsk_inverse(ke, rsk(ke, w)) == w
    with pytest.raises(Exception):
        rsk_inverse(AlgebraKind.strict(3), rsk(AlgebraKind.strict(3), (1, 2)))


def test_rsk_inverse_rejects_malformed_pairs():
    ke3 = AlgebraKind.empty(3)
    malformed = [
        (((2,), (1,)), ((1,), (1, 1))),  # column not increasing
        (((1, 9),), ((1,), (2,))),  # letter outside the alphabet
        (((2, 1),), ((1,), (2,))),  # row not weakly increasing
        (((1, 2),), ((1,), (1,), (2,))),  # a chain step adding no box
    ]
    for rows, chain in malformed:
        pair = RskPair(Tableau(ke3, rows), StandardTableau(chain))
        with pytest.raises(InvalidInputError):
            rsk_inverse(ke3, pair)


ORACLE_KINDS = [
    AlgebraKind.empty(3),
    AlgebraKind.empty(5),
    AlgebraKind.hook(2, 2),
    AlgebraKind.hook(1, 3),
    AlgebraKind.hook(3, 1),
    AlgebraKind.strict(3),
    AlgebraKind.strict(4),
]


@st.composite
def long_words(draw, kind, max_length):
    length = draw(st.integers(0, max_length))
    letters = st.sampled_from(kind.alphabet)
    return tuple(draw(st.lists(letters, min_size=length, max_size=length)))


@pytest.mark.parametrize("kind", ORACLE_KINDS, ids=lambda k: k.describe())
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_streaming_insertion_matches_per_letter_oracle(kind, data):
    word = data.draw(long_words(kind, 300))
    trace = insertion_trace(kind, word)
    chain = tuple(t.shape for t in trace)
    p = trace[-1] if trace else Tableau(kind, ())
    assert pitman(kind, word) == chain
    assert q_tableau(kind, word) == StandardTableau(chain)
    assert p_tableau(kind, word) == p
    assert rsk(kind, word) == RskPair(p, StandardTableau(chain))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_rsk_inverse_roundtrip_long_words(data):
    ke = AlgebraKind.empty(data.draw(st.integers(1, 5)))
    word = data.draw(long_words(ke, 200))
    assert rsk_inverse(ke, rsk(ke, word)) == word


@pytest.mark.parametrize("kind", [AlgebraKind.empty(3), AlgebraKind.hook(2, 2)],
                         ids=lambda k: k.describe())
def test_column_runs_stay_merged(kind):
    # neighbouring runs never hold equal columns, so the number of runs, and
    # with it the cost of a letter, does not grow with the word
    import random

    rng = random.Random(7)
    word = tuple(rng.choice(kind.alphabet) for _ in range(2000))
    runs = _stream(kind, word)[0].runs
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
    assert sum(len(col) * count for col, count in runs) == len(word)
    assert len(runs) < 20


def _longest_subsequence(word, strict):
    """Patience sorting: longest strictly (or weakly) increasing subsequence."""
    tops: list[int] = []
    for x in word:
        i = (bisect_left if strict else bisect_right)(tops, x)
        tops[i:i + 1] = [x]
    return len(tops)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 4), st.integers(0, 2000), st.randoms(use_true_random=False))
def test_greene_shape_of_long_words(n, length, rng):
    # column insertion: the first row is the longest weakly decreasing
    # subsequence and the number of rows the longest strictly increasing one
    ke = AlgebraKind.empty(n)
    word = tuple(rng.randint(1, n) for _ in range(length))
    chain = pitman(ke, word)
    shape = chain[-1] if chain else ()
    assert len(chain) == length
    assert (shape[0] if shape else 0) == _longest_subsequence([-x for x in word], False)
    assert len(shape) == _longest_subsequence(word, True)


def test_every_intermediate_tableau_is_valid():
    kinds = [AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.strict(3)]
    for kind in kinds:
        for w in product(kind.alphabet, repeat=4):
            for tab in insertion_trace(kind, w):
                assert is_valid_tableau(tab)


def test_pitman_chain_matches_recording_tableau():
    for kind in (AlgebraKind.empty(3), AlgebraKind.strict(3)):
        for w in product(kind.alphabet, repeat=4):
            assert pitman(kind, w) == q_tableau(kind, w).chain


@pytest.mark.parametrize(
    "kind,length",
    [
        (AlgebraKind.empty(3), 5),
        (AlgebraKind.hook(2, 2), 4),
        (AlgebraKind.strict(3), 5),
    ],
)
def test_rsk_bijective_small(kind, length):
    seen = {}
    by_shape = {}
    for w in product(kind.alphabet, repeat=length):
        pair = rsk(kind, w)
        key = (pair.p.rows, pair.q.chain)
        assert key not in seen
        seen[key] = w
        by_shape.setdefault(pair.p.shape, set()).add(key)
    total = 0
    for lam, got in by_shape.items():
        tabs = {t.rows for t in enumerate_tableaux(kind, lam)}
        chains = {c.chain for c in enumerate_standard(kind, lam)}
        assert got == {(t, c) for t in tabs for c in chains}
        total += len(tabs) * len(chains)
    assert total == len(kind.alphabet) ** length


def test_words_with_recording():
    ke3 = AlgebraKind.empty(3)
    single = StandardTableau(((1,),))
    assert sorted(words_with_recording(ke3, single)) == [(1,), (2,), (3,)]
    # the fibers partition the words and map bijectively onto the tableaux
    for kind in (ke3, AlgebraKind.strict(3)):
        for chain in enumerate_standard(kind, (2, 1)):
            fiber = words_with_recording(kind, chain)
            images = {p_tableau(kind, w).rows for w in fiber}
            assert len(images) == len(fiber)
            assert images == {t.rows for t in enumerate_tableaux(kind, (2, 1))}


def test_fiber_generating_series_equals_character():
    # the weight generating series over any recording fiber is the character
    # of the fiber's shape, with both sides computed independently
    from superwalk import ProbVector, schur
    from superwalk.multiplicities import shapes_of_size
    from superwalk.suites import condition_points

    for kind in (AlgebraKind.empty(2), AlgebraKind.strict(2), AlgebraKind.hook(1, 1)):
        p = condition_points(kind)[0]
        for size in range(1, 6):
            for lam in shapes_of_size(kind, size):
                for chain in enumerate_standard(kind, lam):
                    total = sum(
                        p.monomial(weight_of(kind, w))
                        for w in words_with_recording(kind, chain)
                    )
                    assert total == schur(kind, lam, p, budget=6)


def test_dim2_pitman_relation():
    # strict shape of a word = empty shape of the word without its last letter,
    # with the first part increased by one (two-letter alphabet)
    ke2 = AlgebraKind.empty(2)
    ks2 = AlgebraKind.strict(2)
    for L in range(1, 9):
        for w in product((1, 2), repeat=L):
            head = pitman(ke2, w[:-1])
            lam = (head[-1] if head else ()) + (0, 0)
            expected = tuple(v for v in (lam[0] + 1, lam[1]) if v)
            assert pitman(ks2, w)[-1] == expected
