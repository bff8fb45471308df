"""Semistandard tableaux for the three kinds, plus standard tableaux, each
held as a ``ShapeChain`` of π-coordinates (a tuple of shapes is converted).

A tableau is stored as its rows (tuples of letters).  For the strict kind the
rows live on the shifted diagram, but the shift only affects drawings.

One rule defines validity for all three kinds: a filling with a valid shape,
nonempty rows and letters of the alphabet is a tableau iff pushing its
reading word through the kind's insertion state gives its rows back, since
insertion builds only tableaux and rebuilds each from its reading word.  The
cell rule (empty and hook kinds) and GHSKM row maximality (strict kind) are
its test oracles.  ``_state(kind)`` is the empty state of a kind and
``_tableau_state(tab)`` the state holding a valid tableau.  The states are:

* empty and hook kinds keep the columns as sorted lists, searched by
  bisection, with each run of identical columns stored once with its count.
  A letter that bumps itself passes a whole run at once, so a letter costs
  a bisection per run, plus one step per column for an unbarred hook letter
  (at most ``n`` of them).  The number of runs does not grow with the word;
* the strict kind keeps each row as its decreasing part (negated, so that
  it bisects) and its increasing part, so a letter costs a bisection or two
  per row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, islice
from operator import eq, le

from .errors import BudgetExceededError, InvalidInputError
from .kinds import (
    HOOK,
    STRICT,
    AlgebraKind,
    Shape,
    Weight,
    Word,
    _pi,
    _steps,
    check_shape,
    check_word,
    is_valid_shape,
    normalize_shape,
    pi_weight,
    shape_from_weight,
    shape_size,
    weight_of,
)

DEFAULT_BOX_BUDGET = 8
DEFAULT_NODE_BUDGET = 10**6


# ---------------------------------------------------------------------------
# Hook words
# ---------------------------------------------------------------------------

def hook_decompose(word: Sequence[int]) -> tuple[list[int], list[int]]:
    """Split a word into its maximal weakly decreasing prefix and the rest.

    For a hook word this is exactly the (nonempty) decreasing part followed
    by the strictly increasing part.
    """
    if not word:
        raise InvalidInputError("cannot decompose the empty word")
    k = 1
    while k < len(word) and word[k] <= word[k - 1]:
        k += 1
    return list(word[:k]), list(word[k:])


def is_hook_word(word: Sequence[int]) -> bool:
    """True iff word = x_1 >= ... >= x_k < x_{k+1} < ... with k >= 1."""
    if not word:
        return False
    down, up = hook_decompose(word)
    if any(b <= a for a, b in zip(up, up[1:])):
        return False
    return not up or up[0] > down[-1]


def iter_hook_words(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """All hook words of the given length over the alphabet 1..n, in lex order.

    Each is a nonempty weakly decreasing part followed by a strictly
    increasing part above its last letter.
    """
    yield from sorted([
        down + up
        for k in range(1, length + 1)
        for down in combinations_with_replacement(range(n, 0, -1), k)
        for up in combinations(range(down[-1] + 1, n + 1), length - k)
    ])


# ---------------------------------------------------------------------------
# Tableaux
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tableau:
    """A kind-specific semistandard filling, stored by rows."""

    kind: AlgebraKind
    rows: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> Shape:
        return normalize_shape(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def weight(self) -> Weight:
        return weight_of(self.kind, [x for row in self.rows for x in row])

    def to_json(self) -> dict:
        return {
            "kind": self.kind.kind,
            "shape": list(self.shape),
            "rows": [list(r) for r in self.rows],
        }


def is_valid_tableau(tab: Tableau) -> bool:
    """True iff the filling is a tableau of its kind: insertion gives its
    rows back from its reading word."""
    return _tableau_state(tab) is not None


def _may_follow(kind: AlgebraKind, x: int, left: int | None, up: int | None) -> bool:
    """The empty/hook cell rule on the left-justified diagram: may x sit
    right of ``left`` and below ``up`` (None where there is no neighbour)?

    Rows weakly and columns strictly increase, except that an unbarred
    (positive) hook-kind letter may repeat down a column and not along a row.
    """
    if x > 0 and kind.kind == HOOK:
        return (left is None or x > left) and (up is None or x >= up)
    return (left is None or x >= left) and (up is None or x > up)


def reading(tab: Tableau) -> Word:
    """Reading word of a tableau.

    Empty/hook: rows right to left, top to bottom.  Strict: rows left to
    right, bottom row first.
    """
    if tab.kind.kind == STRICT:
        out: list[int] = []
        for row in reversed(tab.rows):
            out.extend(row)
        return tuple(out)
    out = []
    for row in tab.rows:
        out.extend(reversed(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# Insertion states
# ---------------------------------------------------------------------------

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

    def push(self, x: int) -> int:
        """Insert x; return the row of the cell it adds."""
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
                return self._grow(i)
            k += 1
        if runs and runs[-1][0] == [x]:
            runs[-1][1] += 1
        else:
            runs.append([[x], 1])
        return self._grow(0)

    def _grow(self, row: int) -> int:
        if row == len(self.shape):
            self.shape.append(1)
        else:
            self.shape[row] += 1
        return row

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
        return tuple([tuple(row) for row in rows])


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

    def push(self, x: int) -> int:
        """Insert x; return the row of the cell it adds."""
        shape = self.shape
        for r, (neg, up) in enumerate(self.halves):
            if not up or x > up[-1]:
                # the row with x appended is still a hook word
                if not up and x <= -neg[-1]:
                    neg.append(-x)
                else:
                    up.append(x)
                shape[r] += 1
                return r
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
        return len(shape) - 1

    def rows(self) -> tuple[tuple[int, ...], ...]:
        # tuples from lists, not generators: CPython sizes a generator's tuple
        # by a guess and shrinks it, so strict enumeration, which calls this
        # once per candidate row, would fill the per-size tuple free lists
        # (about 1 MB more resident memory over a character table)
        return tuple([tuple([-t for t in neg] + up) for neg, up in self.halves])


def _state(kind: AlgebraKind):
    """The kind's insertion state, holding the empty tableau."""
    if kind.kind == STRICT:
        return _StrictRows()
    return _ColumnRuns(kind.kind == HOOK)


def _tableau_state(tab: Tableau):
    """The kind's insertion state holding ``tab``, or None when ``tab`` is
    not a valid tableau: its shape is invalid, a row is empty, a letter is
    outside the alphabet, or its reading word inserts to other rows."""
    kind = tab.kind
    lengths = [len(row) for row in tab.rows]
    if 0 in lengths or not is_valid_shape(kind, lengths):
        return None
    try:
        word = check_word(kind, reading(tab))
    except InvalidInputError:
        return None
    state = _state(kind)
    for x in word:
        state.push(x)
    return state if state.rows() == tuple(map(tuple, tab.rows)) else None


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

class _NodeCounter:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("enumeration node budget exhausted")


def enumerate_tableaux(
    kind: AlgebraKind,
    shape: Sequence[int],
    budget: int = DEFAULT_BOX_BUDGET,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> list[Tableau]:
    """All semistandard tableaux of the given shape, sorted by rows.

    Raises BudgetExceededError when the shape exceeds ``budget`` boxes or the
    backtracking search exceeds ``max_nodes`` extensions.
    """
    lam = check_shape(kind, shape)
    if shape_size(lam) > budget:
        raise BudgetExceededError(
            f"shape {lam} has {shape_size(lam)} boxes, budget is {budget}"
        )
    counter = _NodeCounter(max_nodes)
    if kind.kind == STRICT:
        fillings = _enumerate_strict(kind, lam, counter)
    else:
        fillings = _enumerate_grid(kind, lam, counter)
    fillings.sort()
    return [Tableau(kind, rows) for rows in fillings]


def _enumerate_grid(kind, lam, counter) -> list[tuple[tuple[int, ...], ...]]:
    alphabet = kind.alphabet
    cells = [(r, c) for r, length in enumerate(lam) for c in range(length)]
    grid = [[0] * length for length in lam]
    out: list[tuple[tuple[int, ...], ...]] = []

    def rec(k: int):
        if k == len(cells):
            out.append(tuple([tuple(row) for row in grid]))
            return
        r, c = cells[k]
        left = grid[r][c - 1] if c else None
        up = grid[r - 1][c] if r else None
        for x in alphabet:
            if _may_follow(kind, x, left, up):
                counter.tick()
                grid[r][c] = x
                rec(k + 1)
        grid[r][c] = 0

    rec(0)
    return out


def _enumerate_strict(kind, lam, counter) -> list[tuple[tuple[int, ...], ...]]:
    """Build rows bottom-up, keeping a hook word as the next row iff pushing
    it after the reading word of the rows below gives it and those rows
    back: the rows so far then form a tableau."""
    n = kind.n
    depth = len(lam)
    candidates = {length: list(iter_hook_words(n, length)) for length in set(lam)}
    out: list[tuple[tuple[int, ...], ...]] = []
    chosen: list[tuple[int, ...]] = [()] * depth

    def rec(i: int, below: Word):
        # i runs from the bottom row (depth-1) up to 0; below is the reading
        # word of the rows under row i
        if i < 0:
            out.append(tuple(chosen))
            return
        for w in candidates[lam[i]]:
            counter.tick()
            word = below + w
            state = _StrictRows()
            for x in word:
                state.push(x)
            chosen[i] = w
            if state.rows() == tuple(chosen[i:]):
                rec(i - 1, word)

    rec(depth - 1, ())
    return out


# ---------------------------------------------------------------------------
# Standard tableaux as shape chains
# ---------------------------------------------------------------------------

class ShapeChain(Sequence):
    """A one-box chain of shapes from ``inner``, held as the coordinate of
    ``kinds.pi_weight`` each box raises: its row for the empty and strict
    kinds and for hook rows below ``m``, and ``m`` plus its column for hook
    rows from ``m`` on.  For a word it is the recording tableau in
    π-coordinates.  Iteration, and ``StandardTableau.to_rows``, replay the
    coordinates on one list of row lengths, which gives each box's cell;
    ``len``, ``[-1]`` (``last``, computed unless given) and prefix slices
    replay nothing.  It equals and hashes as the tuple of its shapes, and
    equals another chain only when their ``inner`` shapes agree.
    """

    __slots__ = ("kind", "coords", "inner", "_last", "_hash")

    def __init__(self, kind: AlgebraKind, coords: Sequence[int], last: Shape | None = None,
                 inner: Shape = ()):
        self.kind = kind
        self.coords = bytes(coords) if kind.N <= 256 else tuple(coords)
        self.inner = inner
        if last is None:
            base = pi_weight(kind, inner) if inner else (0,) * kind.N
            last = shape_from_weight(kind, [b + self.coords.count(i) for i, b in enumerate(base)])
        self._last = last
        self._hash = None

    def __len__(self) -> int:
        return len(self.coords)

    def _cells(self) -> Iterator[tuple[int, int]]:
        """Each box's (row, column), in the order the chain adds them."""
        # from row m on, column c < n fills rows m, m + 1, ... in turn: the
        # box raising coordinate m + c to k lands in row m + k - 1
        m = self.kind.m if self.kind.kind == HOOK else self.kind.N
        seen = list(pi_weight(self.kind, self.inner)) if self.inner else [0] * self.kind.N
        rows = list(self.inner)
        for c in self.coords:
            if c < m:
                r = c
            else:
                r = m + seen[c]
                seen[c] += 1
            if r == len(rows):
                rows.append(0)
            yield r, rows[r]
            rows[r] += 1

    def __iter__(self) -> Iterator[Shape]:
        rows = list(self.inner)
        for r, c in self._cells():
            if c:
                rows[r] = c + 1
            else:
                rows.append(1)
            yield tuple(rows)

    def __getitem__(self, key):
        if isinstance(key, slice):
            if key.start in (None, 0) and key.step in (None, 1):
                return ShapeChain(self.kind, self.coords[key], inner=self.inner)
            return tuple(self)[key]
        k = range(len(self.coords))[key]
        return self._last if k == len(self.coords) - 1 else next(islice(self, k, None))

    def __eq__(self, other):
        if type(other) is ShapeChain:
            if self.inner != other.inner:
                return False
            if other.kind == self.kind:
                return self.coords == other.coords
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self))
        return self._hash

    def __repr__(self) -> str:
        inner = f", inner={self.inner!r}" if self.inner else ""
        return f"ShapeChain({self.kind!r}, {list(self.coords)!r}{inner})"


def _row_chain(shapes: Sequence[Shape], inner: Shape) -> ShapeChain:
    """``shapes`` from ``inner`` as a ``ShapeChain`` of row coordinates (an
    empty kind of one letter per row), refused unless each step adds one box
    to a partition."""
    kind = AlgebraKind.empty(max(len(inner), *map(len, shapes[-1:]), 1))
    inner = check_shape(kind, inner)
    rows, coords = list(inner), []
    for prev, shape in zip((inner, *shapes), shapes):
        r = next((i for i, (a, b) in enumerate(zip(rows, shape)) if a != b), len(rows))
        if r == len(rows):
            rows.append(0)
        rows[r] += 1
        if rows != list(shape) or (r and rows[r - 1] < rows[r]):
            raise InvalidInputError(f"{shape} does not cover {prev}")
        coords.append(r)
    return ShapeChain(kind, coords, tuple(rows), inner)


@dataclass(frozen=True)
class StandardTableau:
    """A chain of shapes, each adding one box to the previous.

    ``chain`` is a ``ShapeChain`` growing from ``inner`` (empty for straight
    standard tableaux).  Any other sequence of shapes is converted into one
    once, here, and refused unless each step adds one box to a partition.
    """

    chain: Sequence[Shape]
    inner: Shape = field(default=())

    def __post_init__(self):
        if type(self.chain) is not ShapeChain:
            object.__setattr__(self, "chain", _row_chain(tuple(self.chain), self.inner))
        if self.chain.inner != tuple(self.inner):
            raise InvalidInputError(f"the chain grows from {self.chain.inner}, not from {self.inner}")

    @property
    def size(self) -> int:
        return len(self.chain)

    @property
    def shape(self) -> Shape:
        return self.chain[-1] if self.chain else self.inner

    def to_rows(self) -> tuple[tuple[int, ...], ...]:
        """Filling of the outer diagram by 1..size; inner cells hold 0."""
        rows = [[0] * length for length in self.shape]
        for k, (r, c) in enumerate(self.chain._cells(), start=1):
            rows[r][c] = k
        return tuple([tuple(r) for r in rows])

    def to_json(self) -> dict:
        return {
            "inner": list(self.inner),
            "chain": [list(s) for s in self.chain],
            "rows": [list(r) for r in self.to_rows()],
        }


def enumerate_standard(
    kind: AlgebraKind,
    outer: Sequence[int],
    inner: Sequence[int] = (),
) -> list[StandardTableau]:
    """All one-box chains from inner to outer through valid shapes of the
    kind, walked in π-weights by ``kinds._steps`` below π(outer)."""
    outer = check_shape(kind, outer)
    inner = check_shape(kind, inner)
    top, base = _pi(kind, outer), _pi(kind, inner)
    out: list[StandardTableau] = []
    coords: list[int] = []

    def rec(weight):
        if weight == top:
            out.append(StandardTableau(ShapeChain(kind, coords, outer, inner), inner))
            return
        for i, nxt in _steps(kind, weight):
            if nxt[i] <= top[i]:
                coords.append(i)
                rec(nxt)
                coords.pop()

    if all(map(le, base, top)):
        rec(base)
    return out
