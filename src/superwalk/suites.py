"""Named exhaustive verification suites driven by the ``verify`` subcommand.

Each suite runs an exact identity sweep at a configurable desk-scale budget
and returns a list of failure descriptions (empty means the suite passed).
A suite lists its shapes level by level from one chain pass, and the suites
on tensor products decompose each product once, for every outer shape.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from itertools import chain, product
from typing import Callable

from .characters import (
    ProbVector,
    character_value,
    psi,
    schur,
    weyl_route_applicable,
)
from .insertion import pitman, rsk
from .kinds import AlgebraKind, _levels, _pi, _shape, shape_size, successors
from .markov import pi_restricted, stay_probability
from .multiplicities import _dec_skew_sums, decompose_product, f_count, lr_count
from .tableaux import DEFAULT_NODE_BUDGET, enumerate_standard, enumerate_tableaux

def condition_points(kind: AlgebraKind, count: int = 3) -> list[ProbVector]:
    """Deterministic strictly decreasing probability vectors."""
    out = []
    for base in (2, 3, 5)[:count]:
        raw = [Fraction(base ** (kind.N - i), 1) for i in range(kind.N)]
        total = sum(raw)
        out.append(ProbVector(kind, tuple(v / total for v in raw)))
    return out


def _shapes_by_size(kind: AlgebraKind, boxes: int) -> list[list]:
    """The valid shapes of 0, 1, ..., ``boxes`` boxes from one chain pass,
    each level sorted as ``shapes_of_size`` sorts it."""
    levels = _levels(kind, (0,) * kind.N, (1,) * kind.N)
    return [sorted(_shape(kind, w) for w in level) for _, level in zip(range(boxes + 1), levels)]


def shapes_up_to(kind: AlgebraKind, boxes: int) -> list:
    return [lam for level in _shapes_by_size(kind, boxes) for lam in level]


def _default_kinds(n: int, m: int) -> list[AlgebraKind]:
    return [AlgebraKind.empty(n), AlgebraKind.hook(m, n), AlgebraKind.strict(n)]


def suite_rsk_bijection(n: int = 3, m: int = 2, length: int = 5, budget: int = 8) -> list[str]:
    failures = []
    for kind in _default_kinds(n, m):
        for L in range(1, length + 1):
            seen = {}
            # per shape: the P rows and the Q chains met, and the pair count
            by_shape: dict[tuple, tuple[set, set]] = {}
            pairs: dict[tuple, int] = {}
            for w in product(kind.alphabet, repeat=L):
                pair = rsk(kind, w)
                # Q chains of one kind from the empty shape are equal exactly
                # when their coordinates are, which hash without a replay
                key = (pair.p.rows, pair.q.chain.coords)
                if key in seen:
                    failures.append(f"{kind.describe()} L={L}: collision at {w} and {seen[key]}")
                    continue
                seen[key] = w
                lam = pair.p.shape
                rows, chains = by_shape.setdefault(lam, (set(), set()))
                rows.add(key[0])
                chains.add(key[1])
                pairs[lam] = pairs.get(lam, 0) + 1
            total = 0
            # the image is injective, so it lies inside P rows x Q chains and
            # is all of that product when it has as many pairs
            for lam, (rows, chains) in by_shape.items():
                tabs = {t.rows for t in enumerate_tableaux(kind, lam, budget=budget)}
                standard = {q.chain.coords for q in enumerate_standard(kind, lam)}
                expect = len(tabs) * len(standard)
                if rows != tabs or chains != standard or pairs[lam] != expect:
                    failures.append(
                        f"{kind.describe()} L={L} shape {lam}: image has {pairs[lam]} pairs, expected {expect}"
                    )
                total += expect
            if total != len(kind.alphabet) ** L:
                failures.append(
                    f"{kind.describe()} L={L}: sum f*|T| = {total} != N^L = {len(kind.alphabet) ** L}"
                )
    return failures


def suite_characters_dual_route(n: int = 3, m: int = 2, budget: int = 6) -> list[str]:
    failures = []
    kinds = [AlgebraKind.empty(min(n, 3)), AlgebraKind.strict(min(n, 3)), AlgebraKind.hook(min(m, 2), min(n, 3))]
    for kind in kinds:
        for p in condition_points(kind):
            for lam in shapes_up_to(kind, budget):
                tab_value = character_value(kind, lam, p.values, route="tableaux", budget=budget)
                if not weyl_route_applicable(kind, lam, p.values):
                    continue
                weyl_value = character_value(kind, lam, p.values, route="weyl")
                if tab_value != weyl_value:
                    failures.append(
                        f"{kind.describe()} {lam} at p={p.to_json()}: tableaux {tab_value} != weyl {weyl_value}"
                    )
    return failures


def suite_markov_law(n: int = 2, m: int = 1, length: int = 4, budget: int = 8) -> list[str]:
    failures = []
    for kind in _default_kinds(n, m):
        p = condition_points(kind)[0]
        # exact law of the Pitman image by full enumeration
        law: dict[tuple, Fraction] = {}
        for w in product(kind.alphabet, repeat=length):
            prob = Fraction(1)
            for x in w:
                prob *= p.prob(x)
            lam = pitman(kind, w)[-1]
            law[lam] = law.get(lam, Fraction(0)) + prob
        for lam, mass in law.items():
            expected = f_count(kind, lam) * schur(kind, lam, p, budget=budget)
            if mass != expected:
                failures.append(f"{kind.describe()}: P[H={lam}] = {mass} != f*s = {expected}")
        # psi is harmonic for the restricted walk, so a row of pi_shape, its
        # Doob transform by psi, gives lam the mass p_i psi(lam) / psi(mu);
        # doob_transform divides by the row's own total and checks none of this
        restricted = pi_restricted(kind, p)
        for mu in shapes_up_to(kind, length):
            row = restricted.successors(mu)
            total = sum((prob * psi(kind, lam, p, budget=budget) for lam, prob in row), Fraction(0))
            if total != psi(kind, mu, p, budget=budget):
                failures.append(f"{kind.describe()}: psi is not harmonic at {mu}")
    return failures


def suite_pieri(n: int = 3, m: int = 2, budget: int = 5) -> list[str]:
    failures = []
    for kind in _default_kinds(n, m):
        for mu in shapes_up_to(kind, budget - 1):
            dec = decompose_product(kind, mu, (1,), budget=budget)
            expected = {lam: 1 for lam in successors(kind, mu)}
            if dec != expected:
                failures.append(f"{kind.describe()}: Pieri failure at {mu}: {dec}")
    return failures


def suite_lr_hook(n: int = 2, m: int = 2, budget: int = 6) -> list[str]:
    failures = []
    kind = AlgebraKind.hook(m, n)
    levels = _shapes_by_size(kind, budget)
    for kappa in chain.from_iterable(levels):
        # the shapes containing kappa, level by level, from one chain pass
        from_kappa = _levels(kind, _pi(kind, kappa), (1,) * kind.N)
        for boxes in range(budget - shape_size(kappa) + 1):
            outer = sorted(_shape(kind, w) for w in next(from_kappa))
            for mu in levels[boxes]:
                dec = decompose_product(kind, kappa, mu, budget=budget)
                for lam in outer:
                    combinatorial = lr_count(kind, lam, kappa, mu)
                    algebraic = dec.get(lam, 0)
                    if combinatorial != algebraic:
                        failures.append(
                            f"lr({lam},{kappa},{mu}) = {combinatorial} != decompose {algebraic}"
                        )
    return failures


def suite_dec_skew(n: int = 2, m: int = 1, budget: int = 5) -> list[str]:
    failures = []
    for kind in _default_kinds(n, m):
        for nu in shapes_up_to(kind, budget):
            # f^(lam/nu) for every lam of each level, from one chain pass
            from_nu = _levels(kind, _pi(kind, nu), (1,) * kind.N)
            for boxes in range(budget - shape_size(nu) + 1):
                counts = {_shape(kind, w): count for w, count in next(from_nu).items()}
                sums = _dec_skew_sums(kind, nu, boxes, budget, DEFAULT_NODE_BUDGET)
                for lam in sorted(counts):
                    if sums.get(lam, 0) != (counts[lam] if nu else f_count(kind, lam)):
                        failures.append(f"{kind.describe()}: dec-skew failure at {lam}/{nu}")
    return failures


def suite_dim2(length: int = 8) -> list[str]:
    failures = []
    ke, ks, kh = AlgebraKind.empty(2), AlgebraKind.strict(2), AlgebraKind.hook(1, 1)
    for pe in condition_points(ke):
        p1, p2 = pe.values
        if stay_probability(ke, (), pe) != 1 - p2 / p1:
            failures.append(f"empty stay formula failed at {pe.to_json()}")
        ps = ProbVector(ks, pe.values)
        if stay_probability(ks, (), ps) != p1 * (1 - p2 / p1):
            failures.append(f"strict stay formula failed at {pe.to_json()}")
        ph = ProbVector(kh, pe.values)
        if stay_probability(kh, (), ph) != ph.values[0]:
            failures.append(f"hook stay formula failed at {pe.to_json()}")
    for L in range(1, length + 1):
        for w in product(ke.alphabet, repeat=L):
            lam = pitman(ke, w[:-1])[-1] if L > 1 else ()
            lam = lam + (0,) * (2 - len(lam))
            expected = tuple(v for v in (lam[0] + 1, lam[1]) if v)
            got = pitman(ks, w)[-1]
            if got != expected:
                failures.append(f"(Pit2) failed at word {w}: {got} != {expected}")
    return failures


SUITES: dict[str, Callable[..., list[str]]] = {
    "rsk-bijection": suite_rsk_bijection,
    "characters-dual-route": suite_characters_dual_route,
    "markov-law": suite_markov_law,
    "pieri": suite_pieri,
    "lr-hook": suite_lr_hook,
    "dec-skew": suite_dec_skew,
    "dim2": suite_dim2,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, **overrides) -> list[str]:
    """Run the named suite with the overrides its signature takes; ``None``
    values keep the suite's defaults.  Raises ``KeyError`` for an unknown name."""
    func = SUITES[name]
    accepted = {
        k: v for k, v in overrides.items()
        if v is not None and k in inspect.signature(func).parameters
    }
    return func(**accepted)
