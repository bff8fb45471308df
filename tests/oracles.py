"""Helpers that several test modules share and the library no longer keeps,
because no caller outside the tests used them."""

from typing import Sequence

from superwalk.errors import InvalidInputError
from superwalk.kinds import AlgebraKind, check_word, pi_weight
from superwalk.tableaux import Tableau, _state


def added_coordinate(kind: AlgebraKind, small: Sequence[int], large: Sequence[int]) -> int:
    """Index of the pi coordinate incremented when going from small to large.

    Raises unless the two shapes differ by exactly one box.
    """
    a, b = pi_weight(kind, small), pi_weight(kind, large)
    diffs = [i for i in range(kind.N) if a[i] != b[i]]
    if len(diffs) != 1 or b[diffs[0]] - a[diffs[0]] != 1:
        raise InvalidInputError(f"{tuple(large)} does not cover {tuple(small)}")
    return diffs[0]


def insertion_trace(kind: AlgebraKind, word: Sequence[int]) -> list[Tableau]:
    """Tableaux after each prefix of the word (length many entries)."""
    word = check_word(kind, word)
    state = _state(kind)
    out = []
    for x in word:
        state.push(x)
        out.append(Tableau(kind, state.rows()))
    return out
