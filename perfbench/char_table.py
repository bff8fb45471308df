"""char-table: a cold character table.

Every shape of a fixed box count per kind gets its character polynomial
(the first query enumerates its tableaux) and its Schur value by both
routes at seeded laws; q(3) and q(4) carry the enumeration cost.  Weyl
routes at ranks 6 and 7 add the n! alternant sums.  Kostka numbers and
tensor products on seeded pairs close the table; the products' constituents
have the table's box count, so the decomposition step hits the character
cache.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from common import Job, Workload, prob_vector

NODES = 10**8


class Table(NamedTuple):
    kind: tuple        # AlgebraKind arguments (kind, n, m)
    boxes: int         # box count of every shape in the table
    base: tuple        # base step weights of the seeded laws
    pair_sizes: tuple  # box counts of the two tensor factors; they add to ``boxes``


TABLES = (
    Table(("strict", 3, 0), 11, (30, 19, 12), (6, 5)),
    Table(("strict", 4, 0), 9, (24, 18, 12, 7), (5, 4)),
    Table(("empty", 3, 0), 9, (30, 19, 12), (5, 4)),
    Table(("hook", 1, 2), 7, (30, 19, 12), (4, 3)),
)
# Weyl-route-only ranks: (kind arguments, base weights, shapes of WEYL_BOXES boxes)
WEYL = (
    (("empty", 6, 0), (12, 10, 8, 6, 4, 3), 11),
    (("empty", 7, 0), (16, 12, 10, 8, 6, 4, 3), 2),
    (("strict", 6, 0), (12, 10, 8, 6, 4, 3), 3),
)
WEYL_BOXES = 6
LAWS = 2
KOSTKA_PER_TABLE = 6
PAIRS_PER_TABLE = 6


def _job(jobs, kind, span, fn, args, kwargs, attrs, data):
    attrs = dict(attrs, kind=kind.kind)
    jobs.append(Job(span.split(".", 1)[1],
                    lambda t: t.call(span, fn, *args, attrs=attrs, **kwargs),
                    attrs, dict(data, kind=kind)))


def _composition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))


def make_jobs(rng, tables, weyl, laws, kostkas, pairs) -> list[Job]:
    from superwalk import AlgebraKind, character_polynomial, decompose_product, kostka, schur
    from superwalk.characters import weyl_route_applicable
    from superwalk.multiplicities import shapes_of_size

    jobs: list[Job] = []
    for table in tables:
        kind = AlgebraKind(*table.kind)
        b = table.boxes
        shapes = shapes_of_size(kind, b)
        ps = [prob_vector(rng, kind, table.base) for _ in range(laws)]
        for lam in shapes:
            _job(jobs, kind, "characters.character_polynomial", character_polynomial,
                 (kind, lam), {"budget": b, "max_nodes": NODES}, {"size": b}, {"lam": lam})
        for lam in shapes:
            for law, p in enumerate(ps):
                data = {"lam": lam, "p": p, "law": law}
                _job(jobs, kind, "characters.schur.tableaux", schur, (kind, lam, p),
                     {"route": "tableaux", "budget": b}, {"size": b}, data)
                if weyl_route_applicable(kind, lam, p.values):
                    _job(jobs, kind, "characters.weyl", schur, (kind, lam, p),
                         {"route": "weyl"}, {"size": b}, data)
        for _ in range(kostkas):
            lam = rng.choice(shapes)
            weight = _composition(rng, b, kind.N)
            _job(jobs, kind, "multiplicities.kostka", kostka, (kind, lam, weight),
                 {"budget": b}, {"size": b}, {"lam": lam, "weight": weight})
        left, right = (shapes_of_size(kind, s) for s in table.pair_sizes)
        for _ in range(pairs):
            kappa, mu = rng.choice(left), rng.choice(right)
            _job(jobs, kind, "multiplicities.decompose_product", decompose_product,
                 (kind, kappa, mu), {"budget": b, "max_nodes": NODES}, {"size": b},
                 {"kappa": kappa, "mu": mu, "boxes": b})
    for spec, base, count in weyl:
        kind = AlgebraKind(*spec)
        p = prob_vector(rng, kind, base)
        for lam in rng.sample(shapes_of_size(kind, WEYL_BOXES), count):
            _job(jobs, kind, "characters.weyl", schur, (kind, lam, p), {"route": "weyl"},
                 {"size": kind.n}, {"lam": lam, "p": p, "law": None})
    return jobs


def queries(job):
    """(kind, shape) pairs a job asks of the tableau route and its cache."""
    if job.kind in ("character_polynomial", "schur.tableaux", "kostka"):
        return [(job.data["kind"], job.data["lam"])]
    if job.kind == "decompose_product":
        return [(job.data["kind"], job.data["kappa"]), (job.data["kind"], job.data["mu"])]
    return []


def repeat_share(jobs) -> float:
    """Share of character queries repeating a (kind, shape) pair already
    asked in the same pass."""
    seen, repeats, total = set(), 0, 0
    for job in jobs:
        for key in queries(job):
            total += 1
            repeats += key in seen
            seen.add(key)
    return repeats / total


def build(seed: int) -> Workload:
    jobs = make_jobs(random.Random(seed), TABLES, WEYL, LAWS, KOSTKA_PER_TABLE,
                     PAIRS_PER_TABLE)
    return Workload(
        jobs, check,
        properties={
            "repeat_share": repeat_share(jobs),
            "shapes_per_pass": sum(j.kind == "character_polynomial" for j in jobs),
        },
    )


def _symmetric(kind, poly) -> bool:
    """Weight multiplicities of gl(n) and q(n) characters are symmetric."""
    if kind.kind == "hook":
        return True
    terms = poly.terms
    return all(terms.get(tuple(sorted(w, reverse=True))) == c for w, c in terms.items())


def check(jobs, outputs) -> dict[int, str]:
    """Tableau route == Weyl route wherever the Weyl route applies;
    decompositions are symmetric and preserve total mass; on the hook kind
    the Littlewood-Richardson count agrees."""
    from superwalk import character_polynomial, decompose_product, enumerate_tableaux
    from superwalk import lr_count, schur

    problems: dict[int, str] = {}
    tableau_values = {}
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if job.kind == "schur.tableaux" and out is not None:
            tableau_values[(job.data["kind"], job.data["lam"], job.data["law"])] = out
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if out is None:
            continue
        kind = job.data["kind"]
        if job.kind == "character_polynomial":
            if out.total_mass() <= 0 or not _symmetric(kind, out):
                problems[i] = "character polynomial is empty or not symmetric"
        elif job.kind == "weyl":
            key = (kind, job.data["lam"], job.data["law"])
            if key not in tableau_values:
                tableau_values[key] = schur(kind, job.data["lam"], job.data["p"],
                                            route="tableaux", budget=WEYL_BOXES)
            if out != tableau_values[key]:
                problems[i] = f"Weyl route != tableau route for {job.data['lam']}"
        elif job.kind == "kostka":
            lam, weight = job.data["lam"], job.data["weight"]
            if kind.kind == "hook":
                expect = sum(1 for tab in enumerate_tableaux(kind, lam, budget=sum(lam))
                             if tab.weight() == weight)
            else:
                expect = character_polynomial(kind, lam, budget=sum(lam), max_nodes=NODES
                                              ).coefficient(tuple(sorted(weight, reverse=True)))
            if out != expect:
                problems[i] = f"kostka({lam}, {weight}) = {out}, expected {expect}"
        elif job.kind == "decompose_product":
            kappa, mu, b = job.data["kappa"], job.data["mu"], job.data["boxes"]
            mass = lambda lam: character_polynomial(kind, lam, budget=b, max_nodes=NODES
                                                    ).total_mass()
            if decompose_product(kind, mu, kappa, budget=b, max_nodes=NODES) != out:
                problems[i] = f"decompose_product({kappa}, {mu}) is not symmetric"
            elif mass(kappa) * mass(mu) != sum(mult * mass(lam) for lam, mult in out.items()):
                problems[i] = f"decompose_product({kappa}, {mu}) loses mass"
            elif kind.kind == "hook" and any(
                lr_count(kind, lam, kappa, mu) != mult for lam, mult in out.items()
            ):
                problems[i] = f"LR count disagrees for {kappa} x {mu}"
    return problems
