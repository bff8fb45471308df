"""Tableau validity, hook words, enumeration and standard chains.

The library defines a tableau as a filling that its kind's insertion
rebuilds from the reading word.  The rules it replaced, the cell rule for
the empty and hook kinds and GHSKM maximality through
``longest_hook_subword`` for the strict kind, and the enumerator built on
maximality, stay here as the oracles it is tested against, and so does the
recursive generator of hook words, which the library now builds from their
two parts.  So does the ``to_rows`` loop that finds each box by comparing
consecutive shapes (``added_cell``, in ``oracles``), which every standard
tableau now replaces by replaying its chain's coordinates, and the walk
through shapes that ``enumerate_standard`` made before it walked
π-weights.  ``standard_from_rows``, which rebuilds a chain from its filling
and has no caller in the library, lives here too.
"""

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from superwalk import (
    AlgebraKind,
    BudgetExceededError,
    InvalidInputError,
    Tableau,
    enumerate_standard,
    enumerate_tableaux,
    is_hook_word,
    is_valid_shape,
    is_valid_tableau,
    q_tableau,
    reading,
    weight_of,
)
from superwalk.kinds import check_shape, successors
from superwalk.multiplicities import shapes_of_size
from superwalk.tableaux import (
    ShapeChain,
    StandardTableau,
    _may_follow,
    hook_decompose,
    iter_hook_words,
)

from oracles import added_coordinate, added_cell, enumerate_standard_by_shapes

KE = AlgebraKind.empty(4)
KH = AlgebraKind.hook(2, 3)
KS4 = AlgebraKind.strict(4)
KS5 = AlgebraKind.strict(5)


def longest_hook_subword(word):
    """Length of the longest (non-contiguous) hook subword.

    A hook subword through pivot position i is a weakly decreasing subword
    ending at i glued to a strictly increasing subword starting at i, so the
    answer is max over i of dec(i) + inc(i) - 1.
    """
    L = len(word)
    if L == 0:
        return 0
    dec = [1] * L
    for i in range(L):
        for j in range(i):
            if word[j] >= word[i]:
                dec[i] = max(dec[i], dec[j] + 1)
    inc = [1] * L
    for i in range(L - 1, -1, -1):
        for j in range(i + 1, L):
            if word[j] > word[i]:
                inc[i] = max(inc[i], inc[j] + 1)
    return max(dec[i] + inc[i] - 1 for i in range(L))


def cell_rule_valid(tab):
    """The rule before insertion defined validity: the empty/hook cell rule,
    and for the strict kind hook-word rows, each of maximal length among the
    hook subwords of the row below followed by it.  The shape and the
    letters are checked as the library checks them."""
    kind, rows = tab.kind, tab.rows
    lengths = [len(r) for r in rows]
    if 0 in lengths or not is_valid_shape(kind, lengths):
        return False
    if any(x not in kind.alphabet for row in rows for x in row):
        return False
    if kind.kind == "strict":
        return all(is_hook_word(row) for row in rows) and all(
            longest_hook_subword(rows[i + 1] + rows[i]) == len(rows[i])
            for i in range(len(rows) - 1)
        )
    return all(
        _may_follow(kind, x, row[c - 1] if c else None, rows[r - 1][c] if r else None)
        for r, row in enumerate(rows)
        for c, x in enumerate(row)
    )


def recursive_iter_hook_words(n, length):
    """Hook words letter by letter, in lex order: below the last letter
    while the word still decreases, then strictly above it."""
    if length == 0:
        return
    word = []

    def extend(increasing):
        if len(word) == length:
            yield tuple(word)
            return
        last = word[-1]
        if not increasing:
            for x in range(1, last + 1):
                word.append(x)
                yield from extend(False)
                word.pop()
        for x in range(last + 1, n + 1):
            word.append(x)
            yield from extend(True)
            word.pop()

    for first in range(1, n + 1):
        word.append(first)
        yield from extend(False)
        word.pop()


def maximality_enumerate_strict(kind, lam):
    """Strict tableaux of shape lam, rows built bottom-up and kept by the
    maximality condition, which couples adjacent rows only; also the number
    of candidate rows tried."""
    depth = len(lam)
    candidates = {length: list(recursive_iter_hook_words(kind.n, length)) for length in set(lam)}
    out = []
    chosen = [()] * depth
    tried = 0

    def rec(i):
        nonlocal tried
        if i < 0:
            out.append(tuple(chosen))
            return
        below = chosen[i + 1] if i + 1 < depth else ()
        for w in candidates[lam[i]]:
            tried += 1
            if longest_hook_subword(below + w) == lam[i]:
                chosen[i] = w
                rec(i - 1)

    rec(depth - 1)
    return sorted(out), tried


def brute_longest_hook_subword(word):
    best = 0
    for k in range(1, len(word) + 1):
        for picks in combinations(range(len(word)), k):
            if is_hook_word([word[i] for i in picks]):
                best = max(best, k)
    return best


def test_hook_word_basics():
    assert is_hook_word((2, 1))
    assert is_hook_word((1, 1))
    assert is_hook_word((3, 1, 2, 4))
    assert not is_hook_word((1, 2, 1))
    assert not is_hook_word(())
    assert hook_decompose((3, 1, 2, 4)) == ([3, 1], [2, 4])
    assert hook_decompose((1, 2, 3)) == ([1], [2, 3])


def test_longest_hook_subword_examples():
    assert longest_hook_subword((2, 1)) == 2
    assert longest_hook_subword(()) == 0
    assert longest_hook_subword((1, 2, 1, 3)) == 3


def test_longest_hook_subword_matches_brute_force_exhaustively():
    # every word of length up to eight over a three-letter alphabet
    for length in range(9):
        for word in product((1, 2, 3), repeat=length):
            assert longest_hook_subword(word) == brute_longest_hook_subword(word)


@settings(max_examples=100)
@given(st.lists(st.integers(1, 5), min_size=9, max_size=14))
def test_longest_hook_subword_matches_brute_force_sampled(word):
    assert longest_hook_subword(word) == brute_longest_hook_subword(word)


def test_iter_hook_words_complete():
    for n, length in [(2, 4), (3, 3), (4, 2)]:
        got = list(iter_hook_words(n, length))
        assert len(set(got)) == len(got)
        expect = [w for w in product(range(1, n + 1), repeat=length) if is_hook_word(w)]
        assert sorted(got) == sorted(expect)


def test_iter_hook_words_matches_recursive_generator():
    # the same words in the same order, for every n <= 5 and length <= 7
    for n in range(1, 6):
        for length in range(8):
            assert list(iter_hook_words(n, length)) == list(recursive_iter_hook_words(n, length))


def test_validity_golden_examples():
    assert is_valid_tableau(Tableau(KE, ((1, 2, 2), (3, 3), (4,))))
    assert is_valid_tableau(Tableau(KS4, ((4, 3, 3, 1, 5), (3, 2, 1), (2,)))) is False
    assert is_valid_tableau(Tableau(KS5, ((4, 3, 3, 1, 5), (3, 2, 1), (2,))))
    assert is_valid_tableau(Tableau(KH, ((-2, -2, 3), (-1, -1), (2, 3), (2,))))


def test_validity_counterexamples():
    # column repeats a letter
    assert not is_valid_tableau(Tableau(KE, ((1, 2), (1,))))
    # strict maximality failure: rows [1,2],[2] has a hook subword 2,1,2 of length 3
    assert not is_valid_tableau(Tableau(AlgebraKind.strict(2), ((1, 2), (2,))))
    # barred letter repeated in a column
    assert not is_valid_tableau(Tableau(KH, ((-2,), (-2,))))
    # unbarred letter repeated in a row
    assert not is_valid_tableau(Tableau(KH, ((1, 1),)))
    # barred repeats are fine along rows, unbarred down columns
    assert is_valid_tableau(Tableau(KH, ((-2, -2), (1,), (1,))))


def _fillings(kind, boxes):
    """Every filling by the kind's alphabet of every valid shape up to the
    given number of boxes."""
    for size in range(boxes + 1):
        for lam in shapes_of_size(kind, size):
            for letters in product(kind.alphabet, repeat=size):
                it = iter(letters)
                yield Tableau(kind, tuple(tuple(next(it) for _ in range(k)) for k in lam))


@pytest.mark.parametrize(
    "kind,boxes",
    [
        (AlgebraKind.strict(3), 6),
        (AlgebraKind.empty(3), 6),
        (AlgebraKind.hook(1, 2), 6),
        (AlgebraKind.strict(4), 5),
        (AlgebraKind.hook(2, 2), 5),
    ],
    ids=lambda v: v.describe() if isinstance(v, AlgebraKind) else str(v),
)
def test_validity_agrees_with_cell_and_maximality_rules(kind, boxes):
    valid = total = 0
    for tab in _fillings(kind, boxes):
        expected = cell_rule_valid(tab)
        assert is_valid_tableau(tab) == expected, tab.rows
        valid += expected
        total += 1
    assert 0 < valid < total


@pytest.mark.parametrize("kind", [AlgebraKind.strict(3), AlgebraKind.strict(4)],
                         ids=lambda k: k.describe())
def test_strict_enumeration_matches_maximality_enumerator(kind):
    # same tableaux up to nine boxes; one node per candidate row, so the node
    # budget trips at the same count
    for size in range(10):
        for lam in shapes_of_size(kind, size):
            expected, tried = maximality_enumerate_strict(kind, lam)
            got = enumerate_tableaux(kind, lam, budget=9, max_nodes=tried)
            assert [t.rows for t in got] == expected
            if size <= 6 and tried:
                with pytest.raises(BudgetExceededError):
                    enumerate_tableaux(kind, lam, max_nodes=tried - 1)


def test_reading_words():
    assert reading(Tableau(KE, ((1, 2, 2), (3, 3), (4,)))) == (2, 2, 1, 3, 3, 4)
    assert reading(Tableau(KE, ((3,),))) == (3,)
    t = Tableau(KS5, ((4, 3, 3, 1, 5), (3, 2, 1), (2,)))
    assert reading(t) == (2, 3, 2, 1, 4, 3, 3, 1, 5)


def test_enumerate_empty_kind_small():
    ke2 = AlgebraKind.empty(2)
    singles = enumerate_tableaux(ke2, (1,))
    assert [t.rows for t in singles] == [((1,),), ((2,),)]
    col = enumerate_tableaux(ke2, (1, 1))
    assert [t.rows for t in col] == [((1,), (2,))]


def test_enumerate_strict_row_two():
    ks2 = AlgebraKind.strict(2)
    tabs = enumerate_tableaux(ks2, (2,))
    assert sorted(t.rows[0] for t in tabs) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_validates_and_weights():
    for kind in (AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.strict(3)):
        for size in range(5):
            for lam in shapes_of_size(kind, size):
                tabs = enumerate_tableaux(kind, lam)
                assert len({t.rows for t in tabs}) == len(tabs)
                for t in tabs:
                    assert is_valid_tableau(t)
                    assert t.shape == lam
                    assert sum(t.weight()) == size


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_tableaux(KE, (5, 4), budget=8)
    with pytest.raises(BudgetExceededError):
        enumerate_tableaux(AlgebraKind.empty(3), (3, 2), max_nodes=3)


def test_strict_rows_have_nonempty_decreasing_part():
    ks3 = AlgebraKind.strict(3)
    for size in range(1, 6):
        for lam in shapes_of_size(ks3, size):
            for t in enumerate_tableaux(ks3, lam):
                for row in t.rows:
                    down, _ = hook_decompose(row)
                    assert down


def test_enumerate_standard_examples():
    ke = AlgebraKind.empty(3)
    chains = enumerate_standard(ke, (2, 1))
    assert len(chains) == 2
    assert {c.chain for c in chains} == {
        ((1,), (2,), (2, 1)),
        ((1,), (1, 1), (2, 1)),
    }
    assert len(enumerate_standard(ke, (2, 2), (2, 2))) == 1
    assert enumerate_standard(ke, (2, 2), (2, 2))[0].chain == ()
    # (2,2)/(1): the two middle boxes are incomparable, giving two chains
    ke2 = AlgebraKind.empty(2)
    assert {c.chain for c in enumerate_standard(ke2, (2, 2), (1,))} == {
        ((2,), (2, 1), (2, 2)),
        ((1, 1), (2, 1), (2, 2)),
    }


def test_strict_standard_chains_respect_validity():
    ks2 = AlgebraKind.strict(2)
    chains = enumerate_standard(ks2, (2, 1))
    # (1,1) is not a strict shape so only one chain survives
    assert [c.chain for c in chains] == [((1,), (2,), (2, 1))]


def standard_from_rows(kind, rows, inner=()):
    """Rebuild the shape chain from a filling; validates every step and
    refuses a filling that is not the chain's own ``to_rows()``."""
    inner = check_shape(kind, inner)
    entries = sorted(
        (rows[r][c], r) for r in range(len(rows)) for c in range(len(rows[r])) if rows[r][c]
    )
    if [e for e, _ in entries] != list(range(1, len(entries) + 1)):
        raise InvalidInputError("filling must use 1..size exactly once")
    cur = list(inner)
    chain = []
    for _, r in entries:
        while len(cur) <= r:
            cur.append(0)
        cur[r] += 1
        step = check_shape(kind, cur)
        chain.append(step)
    tab = StandardTableau(tuple(chain), inner)
    if tab.to_rows() != tuple(map(tuple, rows)):
        raise InvalidInputError(f"{tuple(map(tuple, rows))} is not a standard filling of its shape")
    return tab


def test_standard_rows_roundtrip():
    for kind in (AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.strict(4)):
        for size in range(1, 6):
            for lam in shapes_of_size(kind, size):
                for chain in enumerate_standard(kind, lam):
                    rows = chain.to_rows()
                    assert standard_from_rows(kind, rows) == chain


def test_skew_standard_roundtrip():
    ke = AlgebraKind.empty(3)
    for chain in enumerate_standard(ke, (3, 2, 1), (1, 1)):
        rows = chain.to_rows()
        rebuilt = standard_from_rows(ke, rows, inner=(1, 1))
        assert rebuilt == chain


def test_standard_from_rows_refuses_fillings_it_does_not_rebuild():
    # each entry sits in the right row, but not in the cell its chain fills
    ke = AlgebraKind.empty(3)
    for rows, inner in [(((2, 1),), ()), (((3, 1), (4, 2)), ()), (((1, 0),), (1,))]:
        with pytest.raises(InvalidInputError):
            standard_from_rows(ke, rows, inner)
    with pytest.raises(InvalidInputError):
        standard_from_rows(AlgebraKind.strict(3), ((1, 3, 2), (4,)))


def _rows_by_shape_comparison(tab):
    """The former ``to_rows``: each box is the cell where a shape of the
    chain differs from the one before, found by scanning both."""
    rows = [[0] * length for length in tab.shape]
    prev = tab.inner
    for k, cur in enumerate(tab.chain, start=1):
        r, c = added_cell(prev, cur)
        rows[r][c] = k
        prev = cur
    return tuple([tuple(r) for r in rows])


@pytest.mark.parametrize(
    "kind",
    [AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.hook(1, 3), AlgebraKind.strict(4)],
    ids=lambda k: k.describe(),
)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_recording_rows_match_shape_comparison(kind, data):
    length = data.draw(st.integers(0, 500))
    word = tuple(data.draw(st.lists(st.sampled_from(kind.alphabet),
                                    min_size=length, max_size=length)))
    tab = q_tableau(kind, word)
    assert isinstance(tab.chain, ShapeChain)
    expect = _rows_by_shape_comparison(tab)
    assert tab.to_rows() == expect
    assert StandardTableau(tuple(tab.chain)).to_rows() == expect


CHAIN_KINDS = [AlgebraKind.empty(3), AlgebraKind.hook(2, 2), AlgebraKind.hook(1, 3),
               AlgebraKind.strict(4)]


@pytest.mark.parametrize("kind", CHAIN_KINDS, ids=lambda k: k.describe())
def test_enumerate_standard_matches_shape_route(kind):
    # every straight and skew pair of at most 8 boxes: the walk in
    # π-weights lists the chains of the walk through shapes, in its order
    shapes = [lam for size in range(9) for lam in shapes_of_size(kind, size)]
    for outer in shapes:
        for inner in shapes:
            got = enumerate_standard(kind, outer, inner)
            assert [q.chain for q in got] == enumerate_standard_by_shapes(kind, outer, inner)
            assert all(q.inner == inner and q.chain.inner == inner for q in got)


@pytest.mark.parametrize("kind", CHAIN_KINDS, ids=lambda k: k.describe())
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_skew_shape_chain_matches_tuple_chain(kind, data):
    # a chain from inner replays, fills, compares, hashes, indexes and
    # slices as the tuple of its shapes
    inner = data.draw(st.sampled_from([lam for size in range(7) for lam in shapes_of_size(kind, size)]))
    shapes = []
    for _ in range(data.draw(st.integers(0, 12))):
        shapes.append(data.draw(st.sampled_from(successors(kind, shapes[-1] if shapes else inner))))
    expect = tuple(shapes)
    coords = [added_coordinate(kind, a, b) for a, b in zip((inner,) + expect, expect)]
    chain = ShapeChain(kind, coords, inner=inner)
    assert tuple(chain) == expect and chain == expect and expect == chain
    assert hash(chain) == hash(expect) and len(chain) == len(expect)
    if expect:
        assert chain[-1] == expect[-1]
    k = data.draw(st.integers(0, len(expect)))
    assert chain[:k] == expect[:k] and hash(chain[:k]) == hash(expect[:k])
    assert chain[:k] == ShapeChain(kind, coords[:k], inner=inner)
    assert chain[:k].inner == inner
    tab, rebuilt = StandardTableau(chain, inner), StandardTableau(expect, inner)
    assert tab.to_rows() == _rows_by_shape_comparison(rebuilt) == rebuilt.to_rows()
    assert tab == rebuilt and hash(tab) == hash(rebuilt) and tab.shape == rebuilt.shape


def test_shape_chains_from_different_inner_shapes_differ():
    # both chains are the one shape (2, 1), grown from (2) and from (1, 1)
    ke3 = AlgebraKind.empty(3)
    from_row, from_column = ShapeChain(ke3, [1], inner=(2,)), ShapeChain(ke3, [0], inner=(1, 1))
    assert from_row == ((2, 1),) == from_column
    assert from_row != from_column
    assert ShapeChain(ke3, [], inner=(2,)) != ShapeChain(ke3, [], inner=(1, 1))
    assert StandardTableau(((2, 1),), (2,)) == StandardTableau(from_row, (2,))
    assert StandardTableau(((2, 1),), (2,)) != StandardTableau(((2, 1),), (1, 1))


@pytest.mark.parametrize("kind,coords,inner", [
    (AlgebraKind.empty(3), [1], ()),
    (AlgebraKind.strict(3), [0, 1], ()),
    (AlgebraKind.empty(3), [2], (1,)),
    (AlgebraKind.empty(3), [0], (1, 2)),
])
def test_shape_chain_refuses_an_end_outside_the_lattice(kind, coords, inner):
    # a chain built without its last shape finds it through the checking
    # shape_from_weight, so the public constructor refuses these
    with pytest.raises(InvalidInputError):
        ShapeChain(kind, coords, inner=inner)


def test_standard_tableau_fields():
    t = StandardTableau(((1,), (2,)))
    assert t.size == 2
    assert t.shape == (2,)
    assert t.to_rows() == ((1, 2),)
    # a word's chain starts from the empty shape, so no inner shape fits it
    with pytest.raises(InvalidInputError):
        StandardTableau(q_tableau(KE, (1, 2, 1)).chain, inner=(1,))
    # each step of a tuple chain must add one box to the shape before it,
    # and give a partition: (1, 2) adds one box to (1, 1) but is none
    assert StandardTableau(((2,), (2, 1)), inner=(1,)).to_rows() == ((0, 1), (2,))
    for chain, inner in [(((1,), (1,), (2,)), ()), (((1,), (1, 1), (2,)), ()),
                         (((2, 1), (2, 2)), (1,)), (((3,),), (1,)),
                         (((1,), (1, 1), (1, 2)), ()), (((2, 2),), (1, 2))]:
        with pytest.raises(InvalidInputError):
            StandardTableau(chain, inner)
