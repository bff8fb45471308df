"""Multiplicities: chain counts, Kostka numbers, tensor decompositions and
the hook-kind Littlewood-Richardson rule with its embedding into tableaux.

Straight chain counts f^lam have closed forms (``f_count``); skew counts and
``shapes_of_size`` read a level of the graded walk ``kinds._levels`` in
pi-weights, and turn its keys into shapes only where they return shapes.

Tensor product multiplicities have one route: greedy leading-term
elimination on exact character polynomials, which is exact (see
``decompose_product``).  The tests check it against an exact linear system
over rational evaluation points (``tests/test_multiplicities.py``), and for
the hook kind against the combinatorial route of LR skew tableaux with a
ballot reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .characters import SparseCharacter, character_polynomial
from .errors import BudgetExceededError, DecompositionError, InvalidInputError
from .kinds import (
    HOOK,
    STRICT,
    AlgebraKind,
    Shape,
    _levels,
    _pi,
    _shape,
    check_shape,
    conjugate,
    contains,
    in_semigroup,
    shape_size,
    sub_weights,
)
from .tableaux import DEFAULT_BOX_BUDGET, DEFAULT_NODE_BUDGET, Tableau

# ---------------------------------------------------------------------------
# Chain counts
# ---------------------------------------------------------------------------

def chain_counts(
    kind: AlgebraKind, inner: Shape, steps: int, outer: Shape | None = None
) -> dict[Shape, int]:
    """Number of ``steps``-step one-box chains from ``inner`` through valid
    shapes (inside ``outer`` if given, which contains ``inner``), by end
    shape.  A level of the walk ``kinds._levels``, not a listing of chains,
    so drift-scale shapes stay cheap.
    """
    bound = None if outer is None else _pi(kind, outer)
    level = next(islice(_levels(kind, _pi(kind, inner), (1,) * kind.N, bound), steps, None))
    return {_shape(kind, w): count for w, count in level.items()}


def f_skew(kind: AlgebraKind, outer: Sequence[int], inner: Sequence[int] = ()) -> int:
    """Number of one-box chains from inner to outer through valid shapes."""
    inner = check_shape(kind, inner)
    if not inner:
        return f_count(kind, outer)
    outer = check_shape(kind, outer)
    if not contains(kind, outer, inner):
        return 0
    steps = shape_size(outer) - shape_size(inner)
    return chain_counts(kind, inner, steps, outer).get(outer, 0)


def f_count(kind: AlgebraKind, shape: Sequence[int]) -> int:
    """Multiplicity of the shape's irreducible in the |shape|-th tensor power,
    the number f^lam of one-box chains from the empty shape to lam.

    Valid shapes form an order ideal, so such a chain is a standard Young
    tableau (empty, hook kinds) or a standard shifted one (strict kind), and
    is counted in integers with one exact division: |lam|!/prod hooks (Frame,
    Robinson and Thrall 1954) or |lam|!/prod lam_i! * prod_(i<j) (lam_i -
    lam_j)/(lam_i + lam_j) (Thrall 1952).  chain_counts is the test oracle.
    """
    lam = check_shape(kind, shape)
    num, den = math.factorial(shape_size(lam)), 1
    if kind.kind == STRICT:
        for i, a in enumerate(lam):
            den *= math.factorial(a)
            for b in lam[i + 1:]:
                num *= a - b
                den *= a + b
    else:
        cols = conjugate(lam)
        for i, row in enumerate(lam):
            for j in range(row):
                den *= row - j + cols[j] - i - 1
    return num // den


def kostka(
    kind: AlgebraKind,
    shape: Sequence[int],
    weight: Sequence[int],
    budget: int = DEFAULT_BOX_BUDGET,
) -> int:
    """Dimension of the weight space: tableaux of the shape with that weight."""
    w = tuple(weight)
    if len(w) != kind.N:
        raise InvalidInputError(f"weight has length {len(w)}, expected {kind.N}")
    if any(e < 0 for e in w):
        return 0
    return character_polynomial(kind, shape, budget=budget).coefficient(w)


def shapes_of_size(kind: AlgebraKind, boxes: int) -> list[Shape]:
    """All valid shapes with the given number of boxes, in a stable order."""
    if type(boxes) is not int or boxes < 0:
        raise InvalidInputError(f"boxes must be a nonnegative integer, got {boxes!r}")
    return sorted(chain_counts(kind, (), boxes))


# ---------------------------------------------------------------------------
# Tensor product decomposition
# ---------------------------------------------------------------------------

def decompose_product(
    kind: AlgebraKind,
    kappa: Sequence[int],
    mu: Sequence[int],
    budget: int = DEFAULT_BOX_BUDGET,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> dict[Shape, int]:
    """Multiplicities of the tensor product of two irreducibles.

    Greedy leading-term elimination: take the revlex-maximal remaining weight
    of the product character, read off the shape with that pi-weight and
    subtract its character that many times.  This is exact:

    * the character of lam has revlex-maximal weight pi(lam), with
      coefficient 1.  In a tableau of shape lam the letters up to c (primed
      or not) fill a subshape inside a region R_c of lam: the first k rows
      if c is the k-th letter of gl(n) or q(n) or the k-th barred letter of
      gl(m,n); the first m rows and the first j columns below them if c is
      the j-th unbarred letter.  Filling each R_c minus the previous one
      with c gives weight pi(lam), so every prefix sum of a weight is at
      most that of pi(lam).  A weight is therefore larger than pi(lam) at
      the last coordinate where they differ, so revlex-smaller, and only
      that filling has weight pi(lam);
    * the product is a nonnegative integer combination of irreducible
      characters, so its top weight is pi of the revlex-highest shape in it
      (no other shape reaches that weight), with that shape's multiplicity
      as coefficient, and the same holds for every residual.

    A negative leading coefficient, a leading weight that is no pi-weight or
    a constituent weight outside the product's support therefore means a
    wrong character, and raises DecompositionError.  Since no constituent
    reaches a weight revlex above its own top, one sweep of the product's
    weights in revlex-descending order meets every leading weight in turn.
    """
    kappa = check_shape(kind, kappa)
    mu = check_shape(kind, mu)
    total = shape_size(kappa) + shape_size(mu)
    if total > budget:
        raise BudgetExceededError(f"product has {total} boxes, budget is {budget}")
    product = character_polynomial(kind, kappa, budget, max_nodes) * character_polynomial(
        kind, mu, budget, max_nodes
    )
    return _decompose_greedy(kind, product, budget, max_nodes)


def _decompose_greedy(
    kind: AlgebraKind, product: SparseCharacter, budget: int, max_nodes: int
) -> dict[Shape, int]:
    """The sweep of :func:`decompose_product`: the product's weights in
    revlex-descending order, the lexicographic order of the reversed tuples,
    with each constituent's character subtracted from one residual in place."""
    residual = dict(product.terms)
    out: dict[Shape, int] = {}
    for top in sorted(residual, key=lambda w: w[::-1]):
        coeff = residual[top]
        if not coeff:
            continue
        if coeff < 0 or not in_semigroup(kind, top):
            raise DecompositionError(
                f"leading weight {top} with coefficient {coeff} is not a highest "
                f"weight of the product for {kind.describe()}"
            )
        lam = _shape(kind, top)
        for w, c in character_polynomial(kind, lam, budget, max_nodes).terms.items():
            if w not in residual:
                raise DecompositionError(
                    f"weight {w} of {lam} lies outside the product's support "
                    f"for {kind.describe()}"
                )
            residual[w] -= coeff * c
        out[lam] = coeff
    return out


# ---------------------------------------------------------------------------
# Littlewood-Richardson rule for the hook kind
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LrTableau:
    """Skew filling of outer/inner by positive integers, hook-kind LR style.

    ``rows[r]`` holds only the skew cells of row r (columns inner_r .. outer_r-1).
    """

    kind: AlgebraKind
    outer: Shape
    inner: Shape
    rows: tuple[tuple[int, ...], ...]

    def content(self) -> tuple[int, ...]:
        counts: dict[int, int] = {}
        for row in self.rows:
            for v in row:
                counts[v] = counts.get(v, 0) + 1
        if not counts:
            return ()
        return tuple(counts.get(i, 0) for i in range(1, max(counts) + 1))

    def to_json(self) -> dict:
        return {
            "outer": list(self.outer),
            "inner": list(self.inner),
            "rows": [list(r) for r in self.rows],
        }


def _reading_cells(m: int, outer: Shape, inner: Shape) -> list[tuple[int, int]]:
    """The cells (row, column) of outer/inner in the order
    :func:`lr_reading_word` reads them."""
    inner = inner + (0,) * (len(outer) - len(inner))
    cells = [
        (r, c) for r in range(min(m, len(outer))) for c in range(outer[r] - 1, inner[r] - 1, -1)
    ]
    below = range(m, len(outer))
    width = max((outer[r] for r in below), default=0)
    for c in range(width - 1, -1, -1):
        cells.extend((r, c) for r in below if inner[r] <= c < outer[r])
    return cells


def lr_reading_word(tab: LrTableau) -> tuple[int, ...]:
    """Appendix reading: the first m rows right-to-left top-to-bottom, then
    the columns of the part below row m, rightmost column first, each top to
    bottom."""
    inner = tab.inner + (0,) * (len(tab.outer) - len(tab.inner))
    return tuple(
        tab.rows[r][c - inner[r]] for r, c in _reading_cells(tab.kind.m, tab.outer, tab.inner)
    )


def lr_enumerate(
    kind: AlgebraKind,
    lam: Sequence[int],
    kappa: Sequence[int],
    mu: Sequence[int],
) -> list[LrTableau]:
    """All LR tableaux of shape lam/kappa with content mu (hook kind).

    The cells are filled in reading order, so a letter is kept only while
    the reading word so far is a ballot word.  A cell's right and upper
    neighbours come before it in that order, so rows weakly increase and
    columns strictly increase when each cell is checked against those two.
    """
    if kind.kind != HOOK:
        raise InvalidInputError("the LR rule implemented here is hook-kind only")
    lam = check_shape(kind, lam)
    kappa = check_shape(kind, kappa)
    mu = check_shape(kind, mu)
    if len(kappa) > len(lam) or any(k > l for k, l in zip(kappa, lam)):
        raise InvalidInputError(f"{kappa} is not contained in {lam}")
    if shape_size(mu) != shape_size(lam) - shape_size(kappa):
        raise InvalidInputError("content size must match the skew size")
    inner = kappa + (0,) * (len(lam) - len(kappa))
    cells = _reading_cells(kind.m, lam, kappa)
    content = mu
    maxletter = len(content)
    grid = {cell: 0 for cell in cells}
    # used[v] counts the letters v placed so far; used[0] = |mu| lets
    # letter 1 pass the ballot test used[v] < used[v - 1]
    used = [shape_size(mu)] + [0] * maxletter
    out: list[LrTableau] = []

    def admissible(r: int, c: int, v: int) -> bool:
        if c + 1 < lam[r] and grid[(r, c + 1)] < v:
            return False
        if r > 0 and inner[r - 1] <= c < lam[r - 1] and grid[(r - 1, c)] >= v:
            return False
        return True

    def rec(k: int):
        if k == len(cells):
            rows = tuple(
                tuple(grid[(r, c)] for c in range(inner[r], lam[r]))
                for r in range(len(lam))
            )
            out.append(LrTableau(kind, lam, kappa, rows))
            return
        r, c = cells[k]
        for v in range(1, maxletter + 1):
            if used[v] < content[v - 1] and used[v] < used[v - 1] and admissible(r, c, v):
                grid[(r, c)] = v
                used[v] += 1
                rec(k + 1)
                used[v] -= 1
        grid[(r, c)] = 0

    rec(0)
    out.sort(key=lambda t: t.rows)
    return out


def lr_count(
    kind: AlgebraKind,
    lam: Sequence[int],
    kappa: Sequence[int],
    mu: Sequence[int],
) -> int:
    return len(lr_enumerate(kind, lam, kappa, mu))


def theta_embed(tab: LrTableau) -> Tableau:
    """Embed an LR tableau as a hook tableau of shape mu and weight lam - kappa.

    Barred phase: the first skew row contributes that many letters -m on row
    one; each later row among the first m adds one barred letter per entry i
    onto row i of the partial tableau.  Unbarred phase: column j of the part
    below row m adds a letter j onto row i for each entry i it contains.
    """
    kind = tab.kind
    m = kind.m
    inner = tab.inner + (0,) * (len(tab.outer) - len(tab.inner))
    rows: list[list[int]] = []

    def put(row_index: int, letter: int):
        while len(rows) <= row_index:
            rows.append([])
        rows[row_index].append(letter)

    first_len = (tab.outer[0] - inner[0]) if tab.outer else 0
    for _ in range(first_len):
        put(0, -m)
    for r in range(1, min(m, len(tab.rows))):
        letter = -(m - r)
        for entry in tab.rows[r]:
            put(entry - 1, letter)
    below = range(m, len(tab.rows))
    if below:
        width = max((tab.outer[r] for r in below), default=0)
        for col in range(width):
            letter = col + 1
            for r in below:
                if inner[r] <= col < tab.outer[r]:
                    put(tab.rows[r][col - inner[r]] - 1, letter)
    return Tableau(kind, tuple([tuple(r) for r in rows]))


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def verify_m_le_K(
    kind: AlgebraKind,
    lam: Sequence[int],
    kappa: Sequence[int],
    mu: Sequence[int],
    budget: int = DEFAULT_BOX_BUDGET,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Tensor multiplicity bounded by the Kostka number of weight lam - kappa."""
    lam = check_shape(kind, lam)
    kappa = check_shape(kind, kappa)
    mu = check_shape(kind, mu)
    mult = decompose_product(kind, kappa, mu, budget, max_nodes).get(lam, 0)
    diff = sub_weights(_pi(kind, lam), _pi(kind, kappa))
    return mult <= kostka(kind, mu, diff, budget=budget)


def dec_skew_identity(
    kind: AlgebraKind,
    lam: Sequence[int],
    nu: Sequence[int],
    budget: int = DEFAULT_BOX_BUDGET,
    max_nodes: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Skew chain count as a multiplicity-weighted sum over straight shapes."""
    lam = check_shape(kind, lam)
    nu = check_shape(kind, nu)
    if not contains(kind, lam, nu):
        raise InvalidInputError(f"{nu} is not contained in {lam}")
    boxes = shape_size(lam) - shape_size(nu)
    return _dec_skew_sums(kind, nu, boxes, budget, max_nodes).get(lam, 0) == f_skew(kind, lam, nu)


def _dec_skew_sums(
    kind: AlgebraKind, nu: Shape, boxes: int, budget: int, max_nodes: int
) -> dict[Shape, int]:
    """Sum over the shapes mu of ``boxes`` boxes of f^mu c^lam_(nu mu), for
    every lam at once: each product nu x mu is decomposed once."""
    sums: dict[Shape, int] = {}
    for mu in shapes_of_size(kind, boxes):
        f = f_count(kind, mu)
        for lam, mult in decompose_product(kind, nu, mu, budget, max_nodes).items():
            sums[lam] = sums.get(lam, 0) + f * mult
    return sums


def dec_skew_coefficient_identity(
    kind: AlgebraKind,
    lam: Sequence[int],
    mu: Sequence[int],
    budget: int = DEFAULT_BOX_BUDGET,
) -> bool:
    """Drift-regime expansion of the skew count through Kostka numbers."""
    lam = check_shape(kind, lam)
    mu = check_shape(kind, mu)
    poly = character_polynomial(kind, mu, budget=budget)
    target = _pi(kind, lam)
    total = 0
    for gamma, mult in poly.terms.items():
        reduced = sub_weights(target, gamma)
        if in_semigroup(kind, reduced):
            total += f_count(kind, _shape(kind, reduced)) * mult
    return total == f_skew(kind, lam, mu)
