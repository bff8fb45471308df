"""Helpers and reference routes that the tests share and the library no
longer keeps, because no caller outside the tests used them."""

from fractions import Fraction
from typing import Sequence

from superwalk import multiplicities
from superwalk.characters import SparseCharacter, _power
from superwalk.errors import InvalidInputError
from superwalk.kinds import (
    AlgebraKind,
    check_shape,
    check_word,
    contains,
    in_semigroup,
    pi_weight,
    shape_size,
    successors,
)
from superwalk.multiplicities import (
    LrTableau,
    f_count,
    lr_count,
    lr_reading_word,
    shapes_of_size,
)
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


# Standard tableaux as they were before every chain became a ShapeChain:
# tuples of shapes, each step found by comparing a shape with the one before.

def added_cell(prev: Sequence[int], cur: Sequence[int]) -> tuple[int, int]:
    """The (row, column) of the box ``cur`` adds to ``prev``; raises unless
    the two differ by exactly that box."""
    size = max(len(prev), len(cur))
    a = tuple(prev) + (0,) * (size - len(prev))
    b = tuple(cur) + (0,) * (size - len(cur))
    for r in range(size):
        if b[r] != a[r]:
            if b[r] != a[r] + 1 or b[r + 1:] != a[r + 1:]:
                raise InvalidInputError(f"{cur} does not cover {prev}")
            return r, a[r]
    raise InvalidInputError(f"{cur} does not cover {prev}")


def enumerate_standard_by_shapes(kind: AlgebraKind, outer, inner=()) -> list[tuple]:
    """Every one-box chain from inner to outer as a tuple of shapes, each
    step a shape of ``successors`` that outer still contains (found once
    per shape, since many chains pass through it)."""
    outer = check_shape(kind, outer)
    inner = check_shape(kind, inner)
    if not contains(kind, outer, inner):
        return []
    out: list[tuple] = []
    chain: list = []
    steps: dict = {}

    def rec(cur):
        if cur == outer:
            out.append(tuple(chain))
            return
        if cur not in steps:
            steps[cur] = [nxt for nxt in successors(kind, cur) if contains(kind, outer, nxt)]
        for nxt in steps[cur]:
            chain.append(nxt)
            rec(nxt)
            chain.pop()

    rec(inner)
    return out


# The two graded loops as they were before one walk in pi-weights served
# both: chain counts shape by shape through ``successors`` and ``contains``,
# and stay masses in Fractions, each move tested whole by ``in_semigroup``.

def chain_levels_by_shapes(kind: AlgebraKind, inner, outer=None):
    frontier = {inner: 1}
    while True:
        yield frontier
        nxt = {}
        for nu, cnt in frontier.items():
            for step in successors(kind, nu):
                if outer is None or contains(kind, outer, step):
                    nxt[step] = nxt.get(step, 0) + cnt
        frontier = nxt


def stay_levels_by_moves(kind: AlgebraKind, lam, p):
    frontier = {pi_weight(kind, lam): Fraction(1)}
    while True:
        yield frontier
        nxt = {}
        for w, mass in frontier.items():
            for i, prob in enumerate(p.values):
                cand = w[:i] + (w[i] + 1,) + w[i + 1:]
                if in_semigroup(kind, cand):
                    nxt[cand] = nxt.get(cand, Fraction(0)) + mass * prob
        frontier = nxt


def insertion_trace(kind: AlgebraKind, word: Sequence[int]) -> list[Tableau]:
    """Tableaux after each prefix of the word (length many entries)."""
    word = check_word(kind, word)
    state = _state(kind)
    out = []
    for x in word:
        state.push(x)
        out.append(Tableau(kind, state.rows()))
    return out


# The lr-hook and dec-skew suites as they were before they decomposed each
# product once: a loop per outer shape lam, with one chain DP per size and one
# product per (lam, inner, mu).  ``decompose_product`` and ``f_skew`` are read
# from their module at call time, so a test can replace them in both routes.

def shapes_up_to_per_size(kind: AlgebraKind, boxes: int) -> list:
    return [lam for size in range(boxes + 1) for lam in shapes_of_size(kind, size)]


def lr_hook_per_lambda(n: int = 2, m: int = 2, budget: int = 6) -> list[str]:
    failures = []
    kind = AlgebraKind.hook(m, n)
    for lam in shapes_up_to_per_size(kind, budget):
        for kappa in shapes_up_to_per_size(kind, shape_size(lam)):
            if not contains(kind, lam, kappa):
                continue
            rest = shape_size(lam) - shape_size(kappa)
            for mu in shapes_of_size(kind, rest):
                combinatorial = lr_count(kind, lam, kappa, mu)
                dec = multiplicities.decompose_product(kind, kappa, mu, budget=budget)
                algebraic = dec.get(lam, 0)
                if combinatorial != algebraic:
                    failures.append(
                        f"lr({lam},{kappa},{mu}) = {combinatorial} != decompose {algebraic}"
                    )
    return failures


def dec_skew_per_lambda(n: int = 2, m: int = 1, budget: int = 5) -> list[str]:
    failures = []
    for kind in (AlgebraKind.empty(n), AlgebraKind.hook(m, n), AlgebraKind.strict(n)):
        for lam in shapes_up_to_per_size(kind, budget):
            for nu in shapes_up_to_per_size(kind, shape_size(lam)):
                if not contains(kind, lam, nu):
                    continue
                total = 0
                for mu in shapes_of_size(kind, shape_size(lam) - shape_size(nu)):
                    dec = multiplicities.decompose_product(kind, nu, mu, budget)
                    total += f_count(kind, mu) * dec.get(lam, 0)
                if total != multiplicities.f_skew(kind, lam, nu):
                    failures.append(f"{kind.describe()}: dec-skew failure at {lam}/{nu}")
    return failures


# The sparse-character kernels as they were before they worked in integers:
# one reduced Fraction power per term, and one tuple sum per pair of terms.

def evaluate_per_term(char: SparseCharacter, values: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for w, c in char.terms.items():
        total += c * _power(values, w)
    return total


def multiply_tuples(a: SparseCharacter, b: SparseCharacter) -> SparseCharacter:
    out: dict = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(wa, wb))
            out[key] = out.get(key, 0) + ca * cb
    return SparseCharacter(out)


# The LR enumerator as it was before the ballot rule pruned it: every
# semistandard skew filling of the content, cells row by row, left to right,
# kept when its reading word is a ballot word.

def is_permutation_word(word: Sequence[int]) -> bool:
    counts: dict[int, int] = {}
    for x in word:
        counts[x] = counts.get(x, 0) + 1
        if counts[x] > counts.get(x - 1, 0) and x > 1:
            return False
    return True


def lr_enumerate_then_filter(kind: AlgebraKind, lam, kappa, mu) -> list[LrTableau]:
    lam, kappa, mu = (check_shape(kind, s) for s in (lam, kappa, mu))
    inner = kappa + (0,) * (len(lam) - len(kappa))
    cells = [(r, c) for r in range(len(lam)) for c in range(inner[r], lam[r])]
    grid = dict.fromkeys(cells, 0)
    used = [0] * (len(mu) + 1)
    out: list[LrTableau] = []

    def admissible(r: int, c: int, v: int) -> bool:
        if c - 1 >= inner[r] and grid[(r, c - 1)] > v:
            return False
        return not (r > 0 and inner[r - 1] <= c < lam[r - 1] and grid[(r - 1, c)] >= v)

    def rec(k: int):
        if k == len(cells):
            rows = tuple(
                tuple(grid[(r, c)] for c in range(inner[r], lam[r])) for r in range(len(lam))
            )
            tab = LrTableau(kind, lam, kappa, rows)
            if is_permutation_word(lr_reading_word(tab)):
                out.append(tab)
            return
        r, c = cells[k]
        for v in range(1, len(mu) + 1):
            if used[v] < mu[v - 1] and admissible(r, c, v):
                grid[(r, c)] = v
                used[v] += 1
                rec(k + 1)
                used[v] -= 1
        grid[(r, c)] = 0

    rec(0)
    out.sort(key=lambda t: t.rows)
    return out
