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

Each kind has one insertion procedure: the ``push`` of its mutable
insertion state, which grows the shape in place and builds P only when
asked.  ``_state(kind, rows)`` loads any valid tableau into it.  ``pitman``,
``rsk``, ``p_tableau`` and ``q_tableau`` stream the word through one state
and build P once, at the end; the per-letter ``insert_column`` (empty and
hook kinds) and ``insert_strict`` load the tableau, push the letter once and
freeze the result, and ``insertion_trace`` freezes the state after every
letter.  The states are:

* empty and hook kinds keep the columns as sorted lists, searched by
  bisection, with each run of identical columns stored once with its count.
  A letter that bumps itself passes a whole run at once, so a letter costs
  a bisection per run, plus one step per column for an unbarred hook letter
  (at most ``n`` of them).  The number of runs does not grow with the word;
* the strict kind keeps each row as its decreasing part (negated, so that
  it bisects) and its increasing part, so a letter costs a bisection or two
  per row.

Each letter then costs time independent of the word length, apart from
copying the shape into the chain.  The reference the states are tested
against, the textbook per-letter insertions on frozen rows, lives in
``tests/test_insertion.py``.
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
    is_valid_shape,
)
from .tableaux import (
    DEFAULT_BOX_BUDGET,
    StandardTableau,
    Tableau,
    _added_cell,
    hook_decompose,
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
# Insertion states
# ---------------------------------------------------------------------------

class _ColumnRuns:
    """Streaming column insertion for the empty and hook kinds.

    ``runs`` lists ``[column, count]`` pairs left to right; each column is a
    sorted list and no two neighbouring runs hold equal columns.  ``shape``
    is the list of row lengths.  The state starts as the tableau with the
    given rows, its equal neighbouring columns merged into runs.
    """

    __slots__ = ("hook", "runs", "shape")

    def __init__(self, hook: bool, rows=()):
        self.hook = hook
        self.runs: list[list] = []
        for c in range(len(rows[0]) if rows else 0):
            col = [row[c] for row in rows if len(row) > c]
            if self.runs and self.runs[-1][0] == col:
                self.runs[-1][1] += 1
            else:
                self.runs.append([col, 1])
        self.shape: list[int] = [len(row) for row in rows]

    def push(self, x: int) -> None:
        runs = self.runs
        k = 0
        while k < len(runs):
            run = runs[k]
            col = run[0]
            # the smallest entry not below x, or for an unbarred hook letter
            # the smallest entry above it, is bumped
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

    def pull(self, row: int, column: int) -> int:
        """Reverse bump for the empty kind, the inverse of ``push``: take out
        the corner box at (row, column) and return the letter that leaves the
        first column.

        The entry bumped out of a column was placed there by the largest
        entry not exceeding it of the column to its left.  In a run of equal
        columns only the rightmost one changes, and the letter it bumps out
        passes the others unchanged, so a letter costs a bisection per run.
        """
        runs = self.runs
        k = 0
        while k < len(runs) and column >= runs[k][1]:
            column -= runs[k][1]
            k += 1
        if k == len(runs) or column != runs[k][1] - 1 or len(runs[k][0]) != row + 1:
            raise InvalidInputError("recording chain does not match the tableau")
        k = self._split_last(k)
        x = runs[k][0].pop()
        if not runs[k][0]:
            del runs[k]
        else:
            self._merge_right(k)
        for left in range(k - 1, -1, -1):
            i = bisect_right(runs[left][0], x) - 1
            if runs[left][0][i] != x:
                left = self._split_last(left)
                col = runs[left][0]
                x, col[i] = col[i], x
                self._merge_right(left)
        self.shape[row] -= 1
        if not self.shape[row]:
            self.shape.pop()
        return x

    def _split_last(self, k: int) -> int:
        """Give the rightmost column of run k a run of its own; return its
        index."""
        run = self.runs[k]
        if run[1] == 1:
            return k
        run[1] -= 1
        self.runs.insert(k + 1, [run[0].copy(), 1])
        return k + 1

    def _merge_right(self, k: int) -> None:
        """Fold the single column of run k into an equal right neighbour."""
        runs = self.runs
        if k + 1 < len(runs) and runs[k + 1][0] == runs[k][0]:
            runs[k + 1][1] += 1
            del runs[k]

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
    is the list of row lengths.  The state starts as the tableau with the
    given rows.
    """

    __slots__ = ("halves", "shape")

    def __init__(self, rows=()):
        self.halves: list[list[list[int]]] = []
        for row in rows:
            down, up = hook_decompose(row)
            self.halves.append([[-t for t in down], up])
        self.shape: list[int] = [len(row) for row in rows]

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


# ---------------------------------------------------------------------------
# Single letters, P, Q, RSK and Pitman
# ---------------------------------------------------------------------------

def _state(kind: AlgebraKind, rows=()):
    """The kind's insertion state, holding the tableau with the given rows."""
    if kind.kind == STRICT:
        return _StrictRows(rows)
    return _ColumnRuns(kind.kind == HOOK, rows)


def _insert(tab: Tableau, x: int) -> Tableau:
    """Push one letter into the state loaded with a valid tableau."""
    tab.kind.letter_index(x)
    if not is_valid_tableau(tab):
        raise InvalidInputError(f"{tab.rows} is not a valid {tab.kind.describe()} tableau")
    state = _state(tab.kind, tab.rows)
    state.push(x)
    return Tableau(tab.kind, state.rows())


def insert_column(tab: Tableau, x: int) -> Tableau:
    """Column insertion for gl(n)- and gl(m,n)-tableaux; hook-kind letters
    bump by the barred/unbarred cases.  Refuses an invalid tableau."""
    if tab.kind.kind == STRICT:
        raise InvalidInputError("insert_column expects an empty- or hook-kind tableau")
    return _insert(tab, x)


def insert_strict(tab: Tableau, x: int) -> Tableau:
    """Row insertion for q(n)-tableaux keeping every row a hook word.
    Refuses an invalid tableau."""
    if tab.kind.kind != STRICT:
        raise InvalidInputError("insert_strict expects a strict-kind tableau")
    return _insert(tab, x)


def insertion_trace(kind: AlgebraKind, word: Sequence[int]) -> list[Tableau]:
    """Tableaux after each prefix of the word (length many entries)."""
    word = check_word(kind, word)
    state = _state(kind)
    out = []
    for x in word:
        state.push(x)
        out.append(Tableau(kind, state.rows()))
    return out


def _stream(kind: AlgebraKind, word: Sequence[int]):
    """The insertion state after the word, and its chain of prefix shapes."""
    word = check_word(kind, word)
    state = _state(kind)
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
    entry of column j-1 not exceeding it.  The columns are held as the
    forward state holds them, in runs of equal columns searched by bisection
    (``_ColumnRuns.pull``), so the word costs time linear in its length.
    For the hook and strict kinds no reverse procedure is provided; their
    bijectivity is certified by exhaustive forward testing instead.

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
    state = _state(kind, pair.p.rows)
    letters = [state.pull(row, col) for row, col in reversed(cells)]
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
