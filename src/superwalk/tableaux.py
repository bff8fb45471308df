"""Semistandard tableaux for the three kinds, plus standard shape chains.

A tableau is stored as its rows (tuples of letters).  For the strict kind the
rows live on the shifted diagram, but the shift only affects drawings: the
defining conditions are that every row word is a hook word and that each row
word is a hook subword of maximal length in the concatenation of the row
below it with itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import BudgetExceededError, InvalidInputError
from .kinds import (
    HOOK,
    STRICT,
    AlgebraKind,
    Shape,
    Weight,
    Word,
    check_shape,
    contains,
    is_valid_shape,
    normalize_shape,
    shape_size,
    successors,
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


def longest_hook_subword(word: Sequence[int]) -> int:
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


def iter_hook_words(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """All hook words of the given length over the alphabet 1..n, in lex order."""
    if length == 0:
        return
    word: list[int] = []

    def extend(increasing: bool) -> Iterator[tuple[int, ...]]:
        if len(word) == length:
            yield tuple(word)
            return
        last = word[-1]
        if not increasing:
            for x in range(1, last + 1):
                word.append(x)
                yield from extend(False)
                word.pop()
        lo = last + 1
        for x in range(lo, n + 1):
            word.append(x)
            yield from extend(True)
            word.pop()

    for first in range(1, n + 1):
        word.append(first)
        yield from extend(False)
        word.pop()


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


def empty_tableau(kind: AlgebraKind) -> Tableau:
    return Tableau(kind, ())


def is_valid_tableau(tab: Tableau) -> bool:
    """Check the kind-specific semistandard conditions."""
    kind = tab.kind
    rows = tab.rows
    lengths = [len(r) for r in rows]
    if any(l == 0 for l in lengths) or not is_valid_shape(kind, lengths):
        return bool(not rows)
    try:
        for row in rows:
            for x in row:
                kind.letter_index(x)
    except InvalidInputError:
        return False
    if kind.kind == STRICT:
        for row in rows:
            if not is_hook_word(row):
                return False
        for i in range(len(rows) - 1):
            if longest_hook_subword(rows[i + 1] + rows[i]) != len(rows[i]):
                return False
        return True
    return all(
        _may_follow(kind, x, row[c - 1] if c else None, rows[r - 1][c] if r else None)
        for r, row in enumerate(rows)
        for c, x in enumerate(row)
    )


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
            out.append(tuple(tuple(row) for row in grid))
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
    """Build rows bottom-up; the maximality condition couples adjacent rows only."""
    n = kind.n
    depth = len(lam)
    candidates = {length: list(iter_hook_words(n, length)) for length in set(lam)}
    out: list[tuple[tuple[int, ...], ...]] = []
    chosen: list[tuple[int, ...]] = [()] * depth

    def rec(i: int):
        # i runs from the bottom row (depth-1) up to 0
        if i < 0:
            out.append(tuple(chosen))
            return
        below = chosen[i + 1] if i + 1 < depth else ()
        for w in candidates[lam[i]]:
            counter.tick()
            if longest_hook_subword(below + w) != lam[i]:
                continue
            chosen[i] = w
            rec(i - 1)

    rec(depth - 1)
    return out


# ---------------------------------------------------------------------------
# Standard tableaux as shape chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardTableau:
    """A chain of shapes, each adding one box to the previous.

    ``chain`` lists the shapes after each added box; ``inner`` is the base
    shape the chain grows from (empty for straight standard tableaux).
    """

    chain: tuple[Shape, ...]
    inner: Shape = field(default=())

    @property
    def size(self) -> int:
        return len(self.chain)

    @property
    def shape(self) -> Shape:
        return self.chain[-1] if self.chain else self.inner

    def to_rows(self) -> tuple[tuple[int, ...], ...]:
        """Filling of the outer diagram by 1..size; inner cells hold 0."""
        outer = self.shape
        rows = [[0] * length for length in outer]
        prev = self.inner
        for k, cur in enumerate(self.chain, start=1):
            r, c = _added_cell(prev, cur)
            rows[r][c] = k
            prev = cur
        return tuple(tuple(r) for r in rows)

    def to_json(self) -> dict:
        return {
            "inner": list(self.inner),
            "chain": [list(s) for s in self.chain],
            "rows": [list(r) for r in self.to_rows()],
        }


def _added_cell(prev: Shape, cur: Shape) -> tuple[int, int]:
    a = tuple(prev) + (0,) * (len(cur) - len(prev))
    for r in range(len(cur)):
        if cur[r] != a[r]:
            if cur[r] != a[r] + 1 or any(cur[i] != a[i] for i in range(r + 1, len(cur))):
                raise InvalidInputError(f"{cur} does not cover {prev}")
            return r, a[r]
    raise InvalidInputError(f"{cur} does not cover {prev}")


def standard_from_rows(
    kind: AlgebraKind,
    rows: Sequence[Sequence[int]],
    inner: Sequence[int] = (),
) -> StandardTableau:
    """Rebuild the shape chain from a filling; validates every step."""
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
    return StandardTableau(tuple(chain), inner)


def enumerate_standard(
    kind: AlgebraKind,
    outer: Sequence[int],
    inner: Sequence[int] = (),
) -> list[StandardTableau]:
    """All one-box chains from inner to outer through valid shapes of the kind."""
    outer = check_shape(kind, outer)
    inner = check_shape(kind, inner)
    if not contains(kind, outer, inner):
        return []
    out: list[StandardTableau] = []
    chain: list[Shape] = []

    def rec(cur: Shape):
        if cur == outer:
            out.append(StandardTableau(tuple(chain), inner))
            return
        for nxt in successors(kind, cur):
            if contains(kind, outer, nxt):
                chain.append(nxt)
                rec(nxt)
                chain.pop()

    rec(inner)
    return out
