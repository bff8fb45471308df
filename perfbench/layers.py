"""Per-layer metrics of traced runs, named after the superwalk modules.

Each metric is computed from the spans of the workload's traced passes
when the workload calls that layer, and from the layer probe otherwise;
the result says which.  Sums are per pass, so they do not depend on how
many passes fit into a run.
"""

from __future__ import annotations

import statistics

import char_table
from spans import growth_exponent

KINDS3 = ("empty", "hook", "strict")
SUITES = ("rsk-bijection", "characters-dual-route", "markov-law", "pieri", "lr-hook",
          "dec-skew", "dim2")
SUBCOMMANDS = ("rsk", "pitman", "char", "multiplicity", "exit-prob", "simulate", "llt", "verify")


class Record:
    """Spans of one group (workload or probe) with the jobs and outputs they ran."""

    def __init__(self, items, jobs, outputs, passes, overhead=None):
        self.items = items          # (span, self seconds) pairs
        self.jobs = jobs
        self.outputs = outputs
        self.passes = passes
        self.overhead = overhead

    def select(self, name, **attrs):
        return [(s, t) for s, t in self.items
                if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def self_s(self, name, **attrs):
        picked = self.select(name, **attrs)
        return sum(t for _, t in picked) / self.passes if picked else None

    def per_second(self, name, amount, **attrs):
        picked = self.select(name, **attrs)
        busy = sum(t for _, t in picked)
        return sum(amount(s) for s, _ in picked) / busy if picked and busy > 0 else None

    def total(self, names, amount):
        picked = [s for name in names for s, _ in self.select(name)]
        return sum(amount(s) for s in picked) / self.passes if picked else None

    def growth(self, name, **attrs):
        return growth_exponent([(s.attrs["size"], t) for s, t in self.select(name, **attrs)])

    def output(self, span):
        return self.outputs[span.job]


def _spec(name, unit, better, fn):
    return {"name": name, "unit": unit, "better": better, "fn": fn}


def _median_ms(rec, name):
    picked = rec.select(name)
    return 1000 * statistics.median(s.duration for s, _ in picked) if picked else None


def _mean_s(rec, name, **attrs):
    picked = rec.select(name, **attrs)
    return statistics.fmean(s.duration for s, _ in picked) if picked else None


def _repeat_share(rec):
    asked = [job for job in rec.jobs if char_table.queries(job)]
    return char_table.repeat_share(asked) if asked else None


def _attempts(rec, span):
    return rec.output(span).attempts


def _acceptance(rec):
    picked = rec.select("simulate.ensemble")
    attempts = sum(rec.output(s).attempts for s, _ in picked)
    return sum(rec.output(s).paths for s, _ in picked) / attempts if attempts else None


def specs() -> list[dict]:
    out = []
    for fn in ("successors", "in_semigroup", "check_shape", "pi_weight", "shape_from_weight"):
        out.append(_spec(f"kinds.{fn}.us_per_call", "us", "lower",
                         lambda r, fn=fn: _us_per_call(r, "kinds." + fn)))
    for k in KINDS3:
        out.append(_spec(f"insertion.pitman.{k}.letters_per_s", "1/s", "higher",
                         lambda r, k=k: r.per_second("insertion.pitman",
                                                     lambda s: s.attrs["size"], kind=k)))
    for k in KINDS3:
        out.append(_spec(f"insertion.pitman.{k}.growth_exp", "exponent", "lower",
                         lambda r, k=k: r.growth("insertion.pitman", kind=k)))
    out += [
        _spec("insertion.rsk.self_s", "s", "lower", lambda r: r.self_s("insertion.rsk")),
        _spec("insertion.letters", "count", "lower",
              lambda r: r.total(("insertion.pitman", "insertion.rsk"),
                                lambda s: s.attrs["size"])),
        _spec("tableaux.tableaux", "count", "lower",
              lambda r: r.total(("characters.character_polynomial",),
                                lambda s: r.output(s).total_mass())),
    ]
    for k in KINDS3:
        out.append(_spec(f"tableaux.{k}.tableaux_per_s", "1/s", "higher",
                         lambda r, k=k: r.per_second("characters.character_polynomial",
                                                     lambda s: r.output(s).total_mass(),
                                                     kind=k)))
    out.append(_spec("characters.character_polynomial.self_s", "s", "lower",
                     lambda r: r.self_s("characters.character_polynomial")))
    for k in KINDS3:
        out.append(_spec(f"characters.weyl.{k}.self_s", "s", "lower",
                         lambda r, k=k: r.self_s("characters.weyl", kind=k)))
    out.append(_spec("characters.repeat_share", "ratio", "higher", _repeat_share))
    for fn in ("decompose_product", "kostka", "f_skew"):
        out.append(_spec(f"multiplicities.{fn}.self_s", "s", "lower",
                         lambda r, fn=fn: r.self_s("multiplicities." + fn)))
    for k in ("empty", "strict", "hook"):
        out.append(_spec(f"markov.green.{k}.growth_exp", "exponent", "lower",
                         lambda r, k=k: r.growth("markov.green", kind=k)))
    for k in ("empty", "hook"):
        out.append(_spec(f"markov.stay_truncated.{k}.growth_exp", "exponent", "lower",
                         lambda r, k=k: r.growth("markov.stay_truncated", kind=k)))
    for fn in ("green", "stay_truncated", "conditioned_step_kernel"):
        out.append(_spec(f"markov.{fn}.self_s", "s", "lower",
                         lambda r, fn=fn: r.self_s("markov." + fn)))
    out += [
        _spec("markov.levels", "count", "lower",
              lambda r: r.total(("markov.green", "markov.martin_kernel", "markov.stay_truncated",
                                 "markov.conditioned_step_kernel"),
                                lambda s: s.attrs["levels"])),
        _spec("simulate.ensemble.self_s", "s", "lower", lambda r: r.self_s("simulate.ensemble")),
        _spec("simulate.attempts", "count", "lower",
              lambda r: r.total(("simulate.ensemble",), lambda s: _attempts(r, s))),
        _spec("simulate.acceptance_ratio", "ratio", "higher", _acceptance),
        _spec("simulate.attempts_per_s", "1/s", "higher",
              lambda r: r.per_second("simulate.ensemble", lambda s: _attempts(r, s))),
    ]
    for sub in SUBCOMMANDS:
        out.append(_spec(f"cli.{sub}.ms", "ms", "lower",
                         lambda r, sub=sub: _median_ms(r, "cli." + sub)))
    for suite in SUITES:
        out.append(_spec(f"suites.{suite}.s", "s", "lower",
                         lambda r, suite=suite: _mean_s(r, "cli.verify", suite=suite)))
    out.append(_spec("trace.overhead_ratio", "ratio", "higher", lambda r: r.overhead))
    return out


def _us_per_call(rec, name):
    picked = rec.select(name)
    calls = sum(s.attrs["calls"] for s, _ in picked)
    return 1e6 * sum(t for _, t in picked) / calls if calls else None


def per_layer(workload: Record, probe: Record):
    """{name: (value, unit)} and {name: source} over every per-layer metric.

    The lattice-primitive timings come from the probe by design; any other
    metric comes from the probe only when the workload never calls its
    layer.  A metric neither gives is reported as missing.
    """
    metrics, sources, missing = {}, {}, []
    for spec in specs():
        value, source = spec["fn"](workload), "workload"
        if value is None:
            value, source = spec["fn"](probe), "probe"
        if value is None:
            missing.append(spec["name"])
            continue
        metrics[spec["name"]] = (value, spec["unit"])
        sources[spec["name"]] = source
    return metrics, sources, missing
