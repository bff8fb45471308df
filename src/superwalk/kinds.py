"""Alphabets, words, weights and the three partition families.

Everything downstream is parameterized by an :class:`AlgebraKind`, which
selects one of three combinatorial worlds:

* ``empty`` -- ordinary partitions with at most ``n`` rows, alphabet ``1..n``;
* ``hook``  -- hook partitions (``lam_i <= n`` below row ``m``), alphabet
  ``-m .. -1, 1 .. n`` where negative integers encode barred letters and the
  total order is the integer order (every barred letter precedes every
  unbarred one);
* ``strict`` -- partitions with distinct nonzero parts and at most ``n``
  rows, drawn as shifted diagrams, alphabet ``1..n``.

Weights are integer vectors of length ``N`` (``n``, or ``m+n`` for hook)
counting letters in increasing alphabet order; for hook kind the barred
counts occupy the first ``m`` coordinates, written
``(b_mbar, ..., b_1bar | b_1, ..., b_n)``.

Shapes are plain tuples of weakly decreasing nonnegative integers with
trailing zeros stripped; equality and hashing therefore never see padding.

Pi-weights of shapes are the points of the kind's semigroup C.  Its rule is
one local test per coordinate (``_holds``), a one-box move runs only those it
can break (``_steps``), and one walk of such moves (``_levels``) gives chain
counts and stay masses.  Public functions check once; the cores ``_pi`` and
``_shape`` check nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInputError

Shape = tuple[int, ...]
Weight = tuple[int, ...]
Word = tuple[int, ...]

EMPTY = "empty"
HOOK = "hook"
STRICT = "strict"
KIND_NAMES = (EMPTY, HOOK, STRICT)


@dataclass(frozen=True)
class AlgebraKind:
    """Selector for gl(n) (``empty``), gl(m,n) (``hook``) or q(n) (``strict``).

    ``m`` is meaningful only for the hook kind and must be 0 otherwise.
    Both ranks are ``int``s; a float or a ``bool`` is refused.

    Construction also builds ``alphabet``, the letters in increasing order
    (barred letters are the negatives), its size ``N`` (``n`` for
    empty/strict, ``m+n`` for hook) and the letter-to-coordinate table of
    ``letter_index``.  Equality, hashing and repr see the three fields only.
    """

    kind: str
    n: int
    m: int = 0

    def __post_init__(self):
        if self.kind not in KIND_NAMES:
            raise InvalidInputError(f"unknown kind {self.kind!r}")
        if type(self.n) is not int or self.n < 1:
            raise InvalidInputError("n must be a positive integer")
        if type(self.m) is not int:
            raise InvalidInputError("m must be an integer")
        if self.kind == HOOK:
            if self.m < 1:
                raise InvalidInputError("hook kind requires a positive m")
        elif self.m != 0:
            raise InvalidInputError(f"kind {self.kind!r} does not take m")
        alphabet = tuple(range(-self.m, 0)) + tuple(range(1, self.n + 1))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "N", len(alphabet))
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(alphabet)})

    @classmethod
    def empty(cls, n: int) -> "AlgebraKind":
        return cls(EMPTY, n)

    @classmethod
    def hook(cls, m: int, n: int) -> "AlgebraKind":
        return cls(HOOK, n, m)

    @classmethod
    def strict(cls, n: int) -> "AlgebraKind":
        return cls(STRICT, n)

    def letter_index(self, letter: int) -> int:
        """Position of ``letter`` in the alphabet (also its weight coordinate).

        Letters are ``int``s; a float or a ``bool`` is refused like any
        other letter outside the alphabet."""
        if type(letter) is not int:
            raise InvalidInputError(f"letter {letter!r} is not an integer")
        index = self._index.get(letter)
        if index is None:
            raise InvalidInputError(f"letter {letter} not in the {self.describe()} alphabet")
        return index

    def describe(self) -> str:
        if self.kind == EMPTY:
            return f"gl({self.n})"
        if self.kind == HOOK:
            return f"gl({self.m},{self.n})"
        return f"q({self.n})"


# ---------------------------------------------------------------------------
# Words and weights
# ---------------------------------------------------------------------------

def check_word(kind: AlgebraKind, word: Sequence[int]) -> Word:
    """Validate letters and return the word as a tuple."""
    w = tuple(word)
    for x in w:
        kind.letter_index(x)
    return w


def weight_of(kind: AlgebraKind, word: Sequence[int]) -> Weight:
    """Letter-count vector of a word, in increasing alphabet order."""
    counts = [0] * kind.N
    for x in word:
        counts[kind.letter_index(x)] += 1
    return tuple(counts)


def sub_weights(a: Sequence[int], b: Sequence[int]) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------

def normalize_shape(parts: Iterable[int]) -> Shape:
    """Strip trailing zeros; identifies (3,1) with (3,1,0)."""
    out = list(parts)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def shape_size(shape: Sequence[int]) -> int:
    return sum(shape)


def conjugate(shape: Sequence[int]) -> Shape:
    """Transpose of a partition diagram."""
    parts = normalize_shape(shape)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def _is_partition(parts: Sequence[int]) -> bool:
    return all(type(p) is int and p >= 0 for p in parts) and all(
        a >= b for a, b in zip(parts, parts[1:])
    )


def is_valid_shape(kind: AlgebraKind, parts: Sequence[int]) -> bool:
    """Kind-specific partition validity.

    empty: at most ``n`` nonzero parts.
    hook:  any length, but ``parts[i] <= n`` for every row index ``i > m``.
    strict: at most ``n`` parts with distinct nonzero parts.
    """
    if not _is_partition(parts):
        return False
    norm = normalize_shape(parts)
    if kind.kind == EMPTY:
        return len(norm) <= kind.n
    if kind.kind == STRICT:
        if len(norm) > kind.n:
            return False
        return all(a > b for a, b in zip(norm, norm[1:]) if b > 0)
    return all(p <= kind.n for p in norm[kind.m:])


def check_shape(kind: AlgebraKind, parts: Sequence[int]) -> Shape:
    if not is_valid_shape(kind, parts):
        raise InvalidInputError(
            f"{tuple(parts)} is not a valid {kind.describe()} shape"
        )
    return normalize_shape(parts)


def hook_split(kind: AlgebraKind, shape: Sequence[int]) -> tuple[Shape, Shape]:
    """Split a hook partition into its first-m-rows part and the conjugated rest."""
    if kind.kind != HOOK:
        raise InvalidInputError("hook_split is defined for the hook kind only")
    w = _pi(kind, check_shape(kind, shape))
    return normalize_shape(w[: kind.m]), normalize_shape(w[kind.m:])


def pi_weight(kind: AlgebraKind, shape: Sequence[int]) -> Weight:
    """Dominant-weight embedding of a shape.

    Identity (up to zero padding) for empty/strict; for hook the barred block
    carries the m longest rows and the unbarred block the conjugate of the
    remainder.
    """
    return _pi(kind, check_shape(kind, shape))


def shape_from_weight(kind: AlgebraKind, weight: Sequence[int]) -> Shape:
    """Inverse of :func:`pi_weight` on the dominant integer points."""
    w = tuple(weight)
    if len(w) != kind.N:
        raise InvalidInputError(f"weight has length {len(w)}, expected {kind.N}")
    if not in_semigroup(kind, w):
        raise InvalidInputError(f"{w} is not a dominant {kind.describe()} weight")
    return _shape(kind, w)


def _pi(kind: AlgebraKind, lam: Shape) -> Weight:
    """:func:`pi_weight` of a shape already checked and normalized."""
    if kind.kind == HOOK:
        first, rest = lam[: kind.m], conjugate(lam[kind.m:])
        return first + (0,) * (kind.m - len(first)) + rest + (0,) * (kind.n - len(rest))
    return lam + (0,) * (kind.n - len(lam))


def _shape(kind: AlgebraKind, w: Weight) -> Shape:
    """:func:`shape_from_weight` of a point already known to lie in C."""
    if kind.kind != HOOK:
        return normalize_shape(w)
    return normalize_shape(w[: kind.m] + conjugate(w[kind.m:]))


def contains(kind: AlgebraKind, outer: Sequence[int], inner: Sequence[int]) -> bool:
    """Diagram containment; equivalent to coordinatewise order of pi-weights."""
    a, b = pi_weight(kind, outer), pi_weight(kind, inner)
    return all(x >= y for x, y in zip(a, b))


def successors(kind: AlgebraKind, shape: Sequence[int]) -> list[Shape]:
    """All valid shapes obtained by adding one box, in pi-coordinate order.

    Coordinate order means barred rows come before unbarred columns for the
    hook kind; for empty/strict it is the row index of the added box.
    """
    return [_shape(kind, w) for _, w in _steps(kind, pi_weight(kind, shape))]


def predecessors(kind: AlgebraKind, shape: Sequence[int]) -> list[Shape]:
    """All valid shapes obtained by removing one box, in pi-coordinate order."""
    return [_shape(kind, w) for _, w in _steps(kind, pi_weight(kind, shape), -1)]


# ---------------------------------------------------------------------------
# Semigroups and the graded walk
# ---------------------------------------------------------------------------

def _holds(kind: AlgebraKind, v: Sequence, i: int) -> bool:
    """The local tests of C at coordinate i of v: v_i is ordered against its
    left neighbour in its block (strictly for q(n) while nonzero), is
    nonnegative if it ends its block, and for gl(m,n), as the unbarred
    coordinate m+j, is nonzero only if j + 1 <= v_(m-1) (j < v_(m-1) on
    integer points)."""
    x, m = v[i], kind.m
    if i and i != m:
        left = v[i - 1]
        if left < x or left == x != 0 and kind.kind == STRICT:
            return False
    if x < 0 and (i == m - 1 or i == kind.N - 1):
        return False
    return x == 0 or i < m or not m or i - m + 1 <= v[m - 1]


def in_semigroup(kind, x: Sequence) -> bool:
    """Membership of a rational vector in the kind's semigroup C.

    Closed conditions, the local tests of all coordinates:
      empty:  x_1 >= ... >= x_n >= 0;
      strict: additionally all nonzero coordinates distinct;
      hook:   both blocks weakly decreasing and nonnegative, and x_i = 0 for
              every unbarred index i exceeding the last barred coordinate.
    """
    v = tuple(x)
    if len(v) != kind.N:
        raise InvalidInputError(f"vector has length {len(v)}, expected {kind.N}")
    return all(_holds(kind, v, i) for i in range(kind.N))


def _steps(kind: AlgebraKind, base: Weight, step: int = 1) -> Iterator[tuple[int, Weight]]:
    """``(i, base + step * e_i)`` for each coordinate i whose move keeps
    ``base``, a point of C, in C, in coordinate order.

    Raising v_i can break only the tests at i.  Lowering it can break its
    sign, the order of v_(i+1) against it and, for gl(m,n) lowering
    v_(m-1) to b, the test at m+b, which then asks for a zero.
    """
    m = kind.m
    for i in range(kind.N):
        cand = base[:i] + (base[i] + step,) + base[i + 1:]
        if _holds(kind, cand, i) and (step > 0 or (
            (i + 1 == kind.N or _holds(kind, cand, i + 1))
            and (i != m - 1 or m + cand[i] >= kind.N or _holds(kind, cand, m + cand[i]))
        )):
            yield i, cand


def _levels(
    kind: AlgebraKind, start: Weight, weights: Sequence, bound: Weight | None = None
) -> Iterator[dict[Weight, object]]:
    """Graded sums over one-box moves inside C from ``start``: level k maps
    each pi-weight to the sum, over the k-step chains reaching it with no
    move past ``bound``, of the product of ``weights[i]`` over the raised
    coordinates i -- chain counts for weights 1, stay masses for the law p.
    A level is computed only when the previous one has been read."""
    level = {start: 1}
    while True:
        yield level
        nxt: dict = {}
        for w, mass in level.items():
            for i, cand in _steps(kind, w):
                if bound is None or cand[i] <= bound[i]:
                    nxt[cand] = nxt.get(cand, 0) + mass * weights[i]
        level = nxt


# ---------------------------------------------------------------------------
# Parsing and JSON encodings
# ---------------------------------------------------------------------------

def parse_word(kind: AlgebraKind, text: str) -> Word:
    """Parse a word string.

    Accepts a compact digit string like ``"232143"`` (with ``-`` prefixing a
    barred digit, e.g. ``"-23-2"``) or comma/space separated tokens. The
    compact form supports single-digit letters only, which covers every desk
    scale rank.
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text or " " in text:
        tokens = [t for t in text.replace(",", " ").split() if t]
    else:
        tokens, i = [], 0
        while i < len(text):
            if text[i] == "-":
                if i + 1 >= len(text) or not text[i + 1].isdigit():
                    raise InvalidInputError(f"dangling '-' in word {text!r}")
                tokens.append(text[i : i + 2])
                i += 2
            elif text[i].isdigit():
                tokens.append(text[i])
                i += 1
            else:
                raise InvalidInputError(f"unexpected character {text[i]!r} in word")
    try:
        letters = tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse word {text!r}") from exc
    return check_word(kind, letters)


def format_word(word: Sequence[int]) -> str:
    return ",".join(str(x) for x in word)


def parse_shape(kind: AlgebraKind, text: str) -> Shape:
    text = text.strip()
    if not text or text in ("0", "()", "[]"):
        return ()
    try:
        parts = tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse shape {text!r}") from exc
    return check_shape(kind, parts)


# Integers, n/d and plain decimals.  Exponent notation is refused because
# Fraction expands the exponent exactly: "1e10000000" alone takes seconds.
_RATIONAL = re.compile(r"[+-]?(\d+/\d+|\d+\.?\d*|\.\d+)")


def parse_rational(text: str) -> Fraction:
    token = text.strip()
    if not _RATIONAL.fullmatch(token):
        raise InvalidInputError(
            f"cannot parse rational {text!r}: expected an integer, n/d or a plain decimal"
        )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse rational {text!r}") from exc


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def shape_to_json(shape: Sequence[int]) -> list[int]:
    return list(normalize_shape(shape))
