"""The three insertion schemes, the P/Q correspondence and the Pitman map.

Empty and hook kinds insert through columns: the incoming letter bumps the
smallest admissible entry of the first column and the bumped letter recurses
into the remaining columns.  The strict kind inserts through rows kept as
hook words: an inadmissible letter bumps inside the increasing part, the
bumped letter displaces inside the decreasing part, and the displaced letter
recurses into the rows below.

The recording side never looks at letters: it is the chain of shapes of the
insertion tableau over prefixes, which is also the generalized Pitman
transform of the word, held as a ``ShapeChain`` of the π-coordinate each
letter's new cell raises, from which ``rsk_inverse`` reads Q's cells.

Each kind has one insertion procedure: the ``push`` of its mutable
insertion state, which grows the shape in place and builds P only when
asked.  The states live in ``tableaux``, which defines a tableau as a
filling that pushing its reading word gives back; ``_tableau_state(tab)``
checks a tableau and returns the state holding it in that one pass.
``pitman``, ``rsk``, ``p_tableau`` and ``q_tableau`` stream the word
through one state and build P once, at the end; the per-letter
``insert_column`` (empty and hook kinds) and ``insert_strict`` take the
state of the tableau, push the letter once and freeze the result.

Each letter costs time and chain memory independent of the word length.
The references the states are tested against, the textbook per-letter
insertions on frozen rows and a ``_stream`` that copies every prefix
shape, live in ``tests/test_insertion.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import BudgetExceededError, InvalidInputError
from .kinds import (
    EMPTY,
    HOOK,
    STRICT,
    AlgebraKind,
    Word,
    check_word,
    is_valid_shape,
)
from .tableaux import (
    DEFAULT_BOX_BUDGET,
    ShapeChain,
    StandardTableau,
    Tableau,
    _state,
    _tableau_state,
)

@dataclass(frozen=True)
class RskPair:
    p: Tableau
    q: StandardTableau

    def __post_init__(self):
        if self.p.shape != self.q.shape:
            raise InvalidInputError("P and Q tableaux must share their shape")


# ---------------------------------------------------------------------------
# Single letters, P, Q, RSK and Pitman
# ---------------------------------------------------------------------------

def _insert(tab: Tableau, x: int) -> Tableau:
    """Push one letter into the state holding a valid tableau."""
    tab.kind.letter_index(x)
    state = _tableau_state(tab)
    if state is None:
        raise InvalidInputError(f"{tab.rows} is not a valid {tab.kind.describe()} tableau")
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


def _stream(kind: AlgebraKind, word: Sequence[int]):
    """The insertion state after the word, and its ``ShapeChain``."""
    word = check_word(kind, word)
    state = _state(kind)
    push, shape = state.push, state.shape
    m = kind.m if kind.kind == HOOK else kind.N
    coords = []
    for x in word:
        r = push(x)
        coords.append(r if r < m else m + shape[r] - 1)
    return state, ShapeChain(kind, coords, tuple(shape))


def p_tableau(kind: AlgebraKind, word: Sequence[int]) -> Tableau:
    """Left fold of the kind's insertion over the word."""
    return Tableau(kind, _stream(kind, word)[0].rows())


def q_tableau(kind: AlgebraKind, word: Sequence[int]) -> StandardTableau:
    """Recording tableau: the ``ShapeChain`` of shapes over prefixes."""
    return StandardTableau(_stream(kind, word)[1])


def rsk(kind: AlgebraKind, word: Sequence[int]) -> RskPair:
    state, chain = _stream(kind, word)
    return RskPair(Tableau(kind, state.rows()), StandardTableau(chain))


def pitman(kind: AlgebraKind, word: Sequence[int]) -> ShapeChain:
    """Generalized Pitman transform: prefix shapes of the insertion tableau,
    as a ``ShapeChain`` holding one π-coordinate per letter."""
    return _stream(kind, word)[1]


def rsk_inverse(kind: AlgebraKind, pair: RskPair) -> Word:
    """Recover the word from its tableau pair by reverse bumping (empty kind).

    Each step removes the box recorded last, read from the cells of Q's
    ``ShapeChain``, and walks it back through the columns: the entry bumped
    out of column j was placed there by the largest entry of column j-1 not
    exceeding it.  The columns are held as the forward state holds them, in
    runs of equal columns searched by bisection (``_ColumnRuns.pull``), so
    the word costs time linear in its length.  For the hook and strict kinds
    no reverse procedure is provided; their bijectivity is certified by
    exhaustive forward testing instead.

    Raises InvalidInputError unless P is a valid tableau of the kind and Q
    grows from the empty shape to a valid shape (every shape of its chain
    is then valid).
    """
    if kind.kind != EMPTY:
        raise InvalidInputError("reverse bumping is implemented for the empty kind only")
    state = _tableau_state(pair.p) if pair.p.kind == kind else None
    if state is None:
        raise InvalidInputError(f"P is not a valid {kind.describe()} tableau")
    _check_recording(kind, pair.q)
    letters = [state.pull(row, col) for row, col in reversed(list(pair.q.chain._cells()))]
    letters.reverse()
    return tuple(letters)


def _check_recording(kind: AlgebraKind, q: StandardTableau) -> None:
    """Refuse a skew Q, or one whose shape is not valid for the kind."""
    if q.inner:
        raise InvalidInputError("the recording tableau must start from the empty shape")
    if not is_valid_shape(kind, q.shape):
        raise InvalidInputError(f"recording chain shape {q.shape} is not a valid shape")


def words_with_recording(
    kind: AlgebraKind,
    tab: StandardTableau,
    budget: int = DEFAULT_BOX_BUDGET,
) -> list[Word]:
    """All words whose recording tableau equals ``tab``, by exhaustive filter."""
    _check_recording(kind, tab)
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
