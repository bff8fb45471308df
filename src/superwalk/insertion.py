"""The three insertion schemes, the P/Q correspondence and the Pitman map.

Empty and hook kinds insert through columns: the incoming letter bumps the
smallest admissible entry of the first column and the bumped letter recurses
into the remaining columns.  The strict kind inserts through rows kept as
hook words: an inadmissible letter bumps inside the increasing part, the
bumped letter displaces inside the decreasing part, and the displaced letter
recurses into the rows below.

The recording side never looks at letters: it is the chain of shapes of the
insertion tableau over prefixes, which is also the generalized Pitman
transform of the word.

``pitman``, ``rsk``, ``p_tableau`` and ``q_tableau`` stream the word through
one mutable insertion state, which grows the shape in place and builds P
only when asked, once, at the end:

* empty and hook kinds keep the columns as sorted lists, searched by
  bisection, with each run of identical columns stored once with its count.
  A letter that bumps itself passes a whole run at once, so a letter costs
  a bisection per run, plus one step per column for an unbarred hook letter
  (at most ``n`` of them).  The number of runs does not grow with the word;
* the strict kind keeps each row as its decreasing part (negated, so that
  it bisects) and its increasing part, so a letter costs a bisection or two
  per row.

Each letter then costs time independent of the word length, apart from
copying the shape into the chain.  The per-letter ``insert_*`` functions and
``insertion_trace`` rebuild a frozen tableau for every letter; they stay as
the reference the streaming state is tested against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import BudgetExceededError, InvalidInputError
from .kinds import (
    EMPTY,
    HOOK,
    STRICT,
    AlgebraKind,
    Shape,
    Word,
    check_word,
    is_barred,
    is_valid_shape,
)
from .tableaux import (
    DEFAULT_BOX_BUDGET,
    StandardTableau,
    Tableau,
    _added_cell,
    empty_tableau,
    hook_decompose,
    is_hook_word,
    is_valid_tableau,
)

ShapeSequence = tuple[Shape, ...]


@dataclass(frozen=True)
class RskPair:
    p: Tableau
    q: StandardTableau

    def __post_init__(self):
        if self.p.shape != self.q.shape:
            raise InvalidInputError("P and Q tableaux must share their shape")


# ---------------------------------------------------------------------------
# Single-letter insertions
# ---------------------------------------------------------------------------

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


def insert_empty(tab: Tableau, x: int) -> Tableau:
    """Column insertion for gl(n)-tableaux."""
    if tab.kind.kind != EMPTY:
        raise InvalidInputError("insert_empty expects an empty-kind tableau")
    tab.kind.letter_index(x)
    return Tableau(tab.kind, _insert_columns(tab.kind, tab.rows, x))


def insert_hook(tab: Tableau, x: int) -> Tableau:
    """Column insertion for gl(m,n)-tableaux with the barred/unbarred cases."""
    if tab.kind.kind != HOOK:
        raise InvalidInputError("insert_hook expects a hook-kind tableau")
    tab.kind.letter_index(x)
    return Tableau(tab.kind, _insert_columns(tab.kind, tab.rows, x))


def insert_strict(tab: Tableau, x: int) -> Tableau:
    """Row insertion for q(n)-tableaux keeping every row a hook word."""
    if tab.kind.kind != STRICT:
        raise InvalidInputError("insert_strict expects a strict-kind tableau")
    tab.kind.letter_index(x)
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


def insert(kind: AlgebraKind, tab: Tableau, x: int) -> Tableau:
    if kind.kind == EMPTY:
        return insert_empty(tab, x)
    if kind.kind == HOOK:
        return insert_hook(tab, x)
    return insert_strict(tab, x)


# ---------------------------------------------------------------------------
# P, Q, RSK and Pitman
# ---------------------------------------------------------------------------

def insertion_trace(kind: AlgebraKind, word: Sequence[int]) -> list[Tableau]:
    """Tableaux after each prefix of the word (length many entries)."""
    word = check_word(kind, word)
    tab = empty_tableau(kind)
    out = []
    for x in word:
        tab = insert(kind, tab, x)
        out.append(tab)
    return out


class _ColumnRuns:
    """Streaming column insertion for the empty and hook kinds.

    ``runs`` lists ``[column, count]`` pairs left to right; each column is a
    sorted list and no two neighbouring runs hold equal columns.  ``shape``
    is the list of row lengths.
    """

    __slots__ = ("hook", "runs", "shape")

    def __init__(self, hook: bool):
        self.hook = hook
        self.runs: list[list] = []
        self.shape: list[int] = []

    def push(self, x: int) -> None:
        runs = self.runs
        k = 0
        while k < len(runs):
            run = runs[k]
            col = run[0]
            # the entry ``col.index(min(...))`` picks in ``_insert_columns``;
            # unbarred hook letters bump the first strictly larger entry
            i = bisect_right(col, x) if self.hook and x > 0 else bisect_left(col, x)
            if i < len(col) and col[i] == x:
                # x bumps itself out of every column of the run
                k += 1
                continue
            if run[1] > 1:
                # only the first column of the run changes: split it off
                run[1] -= 1
                col = col.copy()
                run = [col, 1]
                runs.insert(k, run)
            grown = i == len(col)
            if grown:
                col.append(x)
            else:
                x, col[i] = col[i], x
            # columns grow entrywise to the right, so the changed column can
            # equal its left neighbour only
            if k and runs[k - 1][0] == col:
                runs[k - 1][1] += 1
                del runs[k]
                k -= 1
            if grown:
                self._grow(i)
                return
            k += 1
        if runs and runs[-1][0] == [x]:
            runs[-1][1] += 1
        else:
            runs.append([[x], 1])
        self._grow(0)

    def _grow(self, row: int) -> None:
        if row == len(self.shape):
            self.shape.append(1)
        else:
            self.shape[row] += 1

    def rows(self) -> tuple[tuple[int, ...], ...]:
        rows: list[list[int]] = [[] for _ in self.shape]
        for col, count in self.runs:
            for r, x in enumerate(col):
                rows[r] += [x] * count
        return tuple(tuple(row) for row in rows)


class _StrictRows:
    """Streaming hook-word row insertion for the strict kind.

    ``halves`` lists each row as ``[neg, up]``: ``neg`` holds the negated
    weakly decreasing part (so it is sorted) and ``up`` the strictly
    increasing part, split as ``hook_decompose`` splits the row.  ``shape``
    is the list of row lengths.
    """

    __slots__ = ("halves", "shape")

    def __init__(self):
        self.halves: list[list[list[int]]] = []
        self.shape: list[int] = []

    def push(self, x: int) -> None:
        shape = self.shape
        for r, (neg, up) in enumerate(self.halves):
            if not up or x > up[-1]:
                # the row with x appended is still a hook word
                if not up and x <= -neg[-1]:
                    neg.append(-x)
                else:
                    up.append(x)
                shape[r] += 1
                return
            i = bisect_left(up, x)
            y = up[i]
            up[i] = x
            # y displaces the first, largest entry of the decreasing part below it
            j = bisect_right(neg, -y)
            x = -neg[j]
            neg[j] = -y
            # the decreasing part stays decreasing; it may take one more entry
            if up[0] <= -neg[-1]:
                neg.append(-up.pop(0))
        self.halves.append([[-x], []])
        shape.append(1)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(-t for t in neg) + tuple(up) for neg, up in self.halves)


def _stream(kind: AlgebraKind, word: Sequence[int]):
    """The insertion state after the word, and its chain of prefix shapes."""
    word = check_word(kind, word)
    state = _StrictRows() if kind.kind == STRICT else _ColumnRuns(kind.kind == HOOK)
    shape = state.shape
    chain = []
    for x in word:
        state.push(x)
        chain.append(tuple(shape))
    return state, tuple(chain)


def p_tableau(kind: AlgebraKind, word: Sequence[int]) -> Tableau:
    """Left fold of the kind's insertion over the word."""
    return Tableau(kind, _stream(kind, word)[0].rows())


def q_tableau(kind: AlgebraKind, word: Sequence[int]) -> StandardTableau:
    """Recording tableau: the chain of shapes over prefixes."""
    return StandardTableau(_stream(kind, word)[1])


def rsk(kind: AlgebraKind, word: Sequence[int]) -> RskPair:
    state, chain = _stream(kind, word)
    return RskPair(Tableau(kind, state.rows()), StandardTableau(chain))


def pitman(kind: AlgebraKind, word: Sequence[int]) -> ShapeSequence:
    """Generalized Pitman transform: prefix shapes of the insertion tableau."""
    return _stream(kind, word)[1]


def rsk_inverse(kind: AlgebraKind, pair: RskPair) -> Word:
    """Recover the word from its tableau pair by reverse bumping (empty kind).

    Each step removes the box recorded last and walks it back through the
    columns: the entry bumped out of column j was placed there by the largest
    entry of column j-1 not exceeding it.  For the hook and strict kinds no
    reverse procedure is provided; their bijectivity is certified by
    exhaustive forward testing instead.

    Raises InvalidInputError unless P is a valid tableau of the kind and Q is
    a chain of valid shapes growing from the empty shape one box at a time.
    """
    if kind.kind != EMPTY:
        raise InvalidInputError("reverse bumping is implemented for the empty kind only")
    if pair.p.kind != kind or not is_valid_tableau(pair.p):
        raise InvalidInputError(f"P is not a valid {kind.describe()} tableau")
    if pair.q.inner:
        raise InvalidInputError("the recording tableau must start from the empty shape")
    chain = ((),) + pair.q.chain
    cells = []
    for small, large in zip(chain, chain[1:]):
        if not is_valid_shape(kind, large):
            raise InvalidInputError(f"recording chain shape {large} is not a valid shape")
        cells.append(_added_cell(small, large))
    cols = _rows_to_cols(pair.p.rows)
    letters: list[int] = []
    for row, col in reversed(cells):
        if len(cols[col]) != row + 1:
            raise InvalidInputError("recording chain does not match the tableau")
        bumped = cols[col].pop()
        if not cols[col]:
            cols.pop()
        for j in range(col - 1, -1, -1):
            value = max(t for t in cols[j] if t <= bumped)
            index = cols[j].index(value)
            cols[j][index] = bumped
            bumped = value
        letters.append(bumped)
    letters.reverse()
    return tuple(letters)


def words_with_recording(
    kind: AlgebraKind,
    tab: StandardTableau,
    budget: int = DEFAULT_BOX_BUDGET,
) -> list[Word]:
    """All words whose recording tableau equals ``tab``, by exhaustive filter."""
    length = tab.size
    if length > budget:
        raise BudgetExceededError(
            f"recording tableau has {length} boxes, budget is {budget}"
        )
    out = []
    for letters in product(kind.alphabet, repeat=length):
        if q_tableau(kind, letters) == tab:
            out.append(letters)
    return out
