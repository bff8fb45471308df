"""Insertion traces against the worked examples, plus structural properties.

The library has one insertion procedure per kind, the ``push`` of its
streaming state.  The per-letter insertions below, on frozen rows, are the
oracle it is tested against.
"""

from bisect import bisect_left, bisect_right
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from superwalk import (
    AlgebraKind,
    Tableau,
    insert_column,
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
from superwalk.insertion import RskPair, _stream, rsk_inverse
from superwalk.kinds import EMPTY, STRICT, check_word
from superwalk.multiplicities import shapes_of_size
from superwalk.tableaux import (
    ShapeChain,
    StandardTableau,
    _state,
    _tableau_state,
    enumerate_standard,
    enumerate_tableaux,
    hook_decompose,
    is_hook_word,
    reading,
)

from oracles import added_cell, insertion_trace

# ---------------------------------------------------------------------------
# Per-letter oracle: column and hook-word row insertion on frozen rows
# ---------------------------------------------------------------------------

def is_barred(letter: int) -> bool:
    return letter < 0


def empty_tableau(kind: AlgebraKind) -> Tableau:
    return Tableau(kind, ())


def _rows_to_cols(rows) -> list[list[int]]:
    if not rows:
        return []
    return [
        [rows[r][c] for r in range(len(rows)) if len(rows[r]) > c]
        for c in range(len(rows[0]))
    ]


def _cols_to_rows(cols) -> tuple[tuple[int, ...], ...]:
    if not cols:
        return ()
    return tuple(
        tuple(cols[c][r] for c in range(len(cols)) if len(cols[c]) > r)
        for r in range(len(cols[0]))
    )


def _insert_columns(kind: AlgebraKind, rows, x: int) -> tuple[tuple[int, ...], ...]:
    cols = _rows_to_cols(rows)
    j = 0
    while True:
        if j == len(cols):
            cols.append([x])
            return _cols_to_rows(cols)
        col = cols[j]
        if kind.kind == EMPTY or is_barred(x):
            if all(t < x for t in col):
                col.append(x)
                return _cols_to_rows(cols)
            y = min(t for t in col if t >= x)
        else:
            if all(t <= x for t in col):
                col.append(x)
                return _cols_to_rows(cols)
            y = min(t for t in col if t > x)
        # replace the highest occurrence of y (the only one unless y repeats)
        col[col.index(y)] = x
        x = y
        j += 1


def _insert_strict(tab: Tableau, x: int) -> Tableau:
    rows = [list(r) for r in tab.rows]
    i = 0
    while True:
        if i == len(rows):
            rows.append([x])
            break
        w = rows[i]
        if is_hook_word(w + [x]):
            w.append(x)
            break
        down, up = hook_decompose(w)
        y = min(t for t in up if t >= x)
        up[up.index(y)] = x
        z = max(t for t in down if t < y)
        down[down.index(z)] = y
        rows[i] = down + up
        x = z
        i += 1
    return Tableau(tab.kind, tuple(tuple(r) for r in rows))


def _insert(kind: AlgebraKind, tab: Tableau, x: int) -> Tableau:
    if kind.kind == STRICT:
        return _insert_strict(tab, x)
    return Tableau(kind, _insert_columns(kind, tab.rows, x))


def _copying_stream(kind: AlgebraKind, word):
    """The insertion state after the word and the tuple of its prefix shapes,
    copied from the state after every letter."""
    word = check_word(kind, word)
    state = _state(kind)
    chain = []
    for x in word:
        state.push(x)
        chain.append(tuple(state.shape))
    return state, tuple(chain)


def _insertion_trace(kind: AlgebraKind, word) -> list[Tableau]:
    word = check_word(kind, word)
    tab = empty_tableau(kind)
    out = []
    for x in word:
        tab = _insert(kind, tab, x)
        out.append(tab)
    return out


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
    after = insert_column(before, -1)
    assert after.rows == ((-2, -2), (-1, 3))
    with pytest.raises(InvalidInputError):
        insert_column(Tableau(KS5, ((2,),)), 1)


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
        # a chain that skips or repeats a shape is refused when it is built
        with pytest.raises(InvalidInputError):
            rsk_inverse(ke3, RskPair(Tableau(ke3, rows), StandardTableau(chain)))


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
    trace = _insertion_trace(kind, word)
    chain = tuple(t.shape for t in trace)
    p = trace[-1] if trace else Tableau(kind, ())
    assert pitman(kind, word) == chain
    assert q_tableau(kind, word) == StandardTableau(chain)
    assert p_tableau(kind, word) == p
    assert rsk(kind, word) == RskPair(p, StandardTableau(chain))


@pytest.mark.parametrize(
    "kind",
    [AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.hook(1, 3), AlgebraKind.strict(4)],
    ids=lambda k: k.describe(),
)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_shape_chain_matches_copying_stream(kind, data):
    # the chain of π-coordinates stands for the tuple of prefix shapes: it
    # replays, indexes, slices, compares and hashes as that tuple does
    word = data.draw(long_words(kind, 500))
    chain = pitman(kind, word)
    state, expect = _copying_stream(kind, word)
    assert isinstance(chain, ShapeChain)
    assert chain == expect and expect == chain and not chain != expect
    assert tuple(chain) == expect and list(chain) == list(expect)
    assert hash(chain) == hash(expect) and len(chain) == len(word)
    assert rsk(kind, word).q.chain == chain
    assert rsk(kind, word).p.rows == state.rows()
    if word:
        k = data.draw(st.integers(-len(word), len(word) - 1))
        assert chain[-1] == expect[-1] and chain[k] == expect[k]
    k = data.draw(st.integers(0, len(word)))
    assert chain[:k] == expect[:k] and hash(chain[:k]) == hash(expect[:k])
    assert isinstance(chain[:k], ShapeChain) and chain[:k][-1:] == expect[:k][-1:]
    assert chain[k::2] == expect[k::2] and chain[::-1] == expect[::-1]
    with pytest.raises(IndexError):
        chain[len(word)]


def test_shape_chains_mix_with_tuple_chains_in_sets():
    # recording tableaux of words hold ShapeChains, enumerated ones tuples;
    # sets and dicts of either find the other, as suite_rsk_bijection needs
    kind = AlgebraKind.hook(1, 2)
    lam = (2, 1, 1)
    recorded = {rsk(kind, w).q for w in product(kind.alphabet, repeat=4)
                if p_tableau(kind, w).shape == lam}
    enumerated = set(enumerate_standard(kind, lam))
    assert recorded == enumerated and enumerated == recorded
    assert {q.chain for q in recorded} == {q.chain for q in enumerated}
    assert all(isinstance(q.chain, ShapeChain) for q in recorded)
    mixed = recorded | enumerated
    assert len(mixed) == len(enumerated) == 3
    # chains of two kinds compare by their shapes, not their coordinates
    ke3 = AlgebraKind.empty(3)
    assert ShapeChain(kind, [0, 0, 1]) == ShapeChain(ke3, [0, 0, 1]) == ((1,), (2,), (2, 1))
    assert ShapeChain(kind, [0, 0, 1, 2]) != ShapeChain(ke3, [0, 0, 1, 2])
    assert ShapeChain(kind, [0, 0, 1, 2])[-1] == (2, 2)


def test_hook_chain_memory_is_linear():
    # the chain of a hook word of length L holds one coordinate per letter,
    # where copying every prefix shape held O(L^2) row lengths, 268 MB at
    # this length
    import random
    import tracemalloc

    kind = AlgebraKind.hook(2, 2)
    rng = random.Random(16000)
    word = tuple(rng.choice(kind.alphabet) for _ in range(16000))
    tracemalloc.start()
    try:
        chain = pitman(kind, word)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chain) == 16000 and held < 2**20


@pytest.mark.parametrize(
    "kind",
    [AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.hook(1, 3), AlgebraKind.strict(3)],
    ids=lambda k: k.describe(),
)
def test_per_letter_insert_matches_oracle_exhaustively(kind):
    # every valid tableau of at most five boxes, its state rebuilt from its
    # reading word, takes every letter as the per-letter oracle does
    insert = insert_strict if kind.kind == STRICT else insert_column
    tableaux = [t for b in range(6) for lam in shapes_of_size(kind, b)
                for t in enumerate_tableaux(kind, lam)]
    assert len(tableaux) > 100
    for tab in tableaux:
        state = _tableau_state(tab)
        assert state.rows() == tab.rows
        if kind.kind != STRICT:
            runs = state.runs
            assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        for x in kind.alphabet:
            assert insert(tab, x) == _insert(kind, tab, x)


# tableaux that fail is_valid_tableau, with the rows the per-letter entry
# points returned for them before they checked their input
INVALID_INSERTS = [
    pytest.param(AlgebraKind.empty(3), ((3, 1),), 2, ((2, 1),), id="gl(3)-row-descends"),
    pytest.param(AlgebraKind.empty(3), ((1,), (1,)), 1, ((1, 1), (1,)), id="gl(3)-column-repeats"),
    pytest.param(AlgebraKind.hook(1, 2), ((2, 2),), 1, ((1, 2),), id="gl(1,2)-unbarred-row-repeat"),
    pytest.param(AlgebraKind.strict(3), ((1, 1, 2), (3,)), 1, ((2, 1, 1), (3, 1)),
                 id="q(3)-row-not-maximal"),
    pytest.param(AlgebraKind.strict(3), ((),), 1, ((1,),), id="q(3)-empty-row"),
]


@pytest.mark.parametrize("kind,rows,letter,parent_rows", INVALID_INSERTS)
def test_per_letter_insert_refuses_invalid_tableau(kind, rows, letter, parent_rows):
    tab = Tableau(kind, rows)
    assert not is_valid_tableau(tab)
    insert = insert_strict if kind.kind == STRICT else insert_column
    with pytest.raises(InvalidInputError):
        insert(tab, letter)
    # the oracle, which trusts its input, still returns what the entry point did
    assert _insert(kind, tab, letter).rows == parent_rows


@pytest.mark.parametrize(
    "kind",
    [AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.hook(1, 3),
     AlgebraKind.strict(4), AlgebraKind.strict(6)],
    ids=lambda k: k.describe(),
)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_insertion_rebuilds_p_from_its_reading_word(kind, data):
    # is_valid_tableau holds a filling valid iff its reading word inserts
    # back to it; every P tableau must pass, long ones included
    word = data.draw(long_words(kind, 500))
    p = p_tableau(kind, word)
    assert p_tableau(kind, reading(p)) == p
    assert is_valid_tableau(p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_rsk_inverse_roundtrip_long_words(data):
    ke = AlgebraKind.empty(data.draw(st.integers(1, 5)))
    word = data.draw(long_words(ke, 200))
    assert rsk_inverse(ke, rsk(ke, word)) == word


@pytest.mark.parametrize("n", [3, 5])
def test_rsk_inverse_roundtrip_length_5000(n):
    import random

    ke = AlgebraKind.empty(n)
    rng = random.Random(5000 + n)
    word = tuple(rng.choice(ke.alphabet) for _ in range(5000))
    assert rsk_inverse(ke, rsk(ke, word)) == word


def test_rsk_inverse_reads_recording_tableau_rebuilt_from_shapes():
    # Q rebuilt from its tuple of shapes holds row coordinates, not the
    # recorded chain, and gives the same cells
    import random

    ke = AlgebraKind.empty(3)
    rng = random.Random(5)
    words = list(product(ke.alphabet, repeat=5))
    words.append(tuple(rng.choice(ke.alphabet) for _ in range(1000)))
    for word in words:
        pair = rsk(ke, word)
        rebuilt = RskPair(pair.p, StandardTableau(tuple(pair.q.chain)))
        assert rebuilt == pair and hash(rebuilt.q) == hash(pair.q)
        assert rsk_inverse(ke, rebuilt) == word


def test_reverse_bump_keeps_column_runs_merged():
    # the reverse bump walks runs of equal columns, so it stays linear only
    # while neighbouring runs never hold equal columns
    import random

    ke = AlgebraKind.empty(3)
    rng = random.Random(11)
    word = tuple(rng.choice(ke.alphabet) for _ in range(2000))
    pair = rsk(ke, word)
    state = _tableau_state(pair.p)
    chain = ((),) + tuple(pair.q.chain)
    for left, (small, large) in enumerate(reversed(list(zip(chain, chain[1:])))):
        state.pull(*added_cell(small, large))
        runs = state.runs
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
        assert sum(len(col) * count for col, count in runs) == len(word) - left - 1
        assert len(runs) < 20
    assert state.runs == [] and state.shape == []


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


def test_words_with_recording_refuses_what_rsk_inverse_refuses():
    # a skew chain, and a shape gl(3) does not have, are recorded by no word
    ke3 = AlgebraKind.empty(3)
    skew = StandardTableau(((2,), (2, 1)), inner=(1,))
    column = StandardTableau(((1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)))
    with pytest.raises(InvalidInputError, match="empty shape"):
        words_with_recording(ke3, skew)
    with pytest.raises(InvalidInputError, match="not a valid shape"):
        words_with_recording(ke3, column)
    with pytest.raises(InvalidInputError, match="empty shape"):
        rsk_inverse(ke3, RskPair(Tableau(ke3, ((1, 1), (2,))), skew))


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
