"""superwalk benchmark: seeded closed-loop workloads, end to end and per layer.

One caller on one thread runs a workload's fixed job list; each job starts
when the previous one ends.  Passes over the list repeat, each from cold
caches, until ``--seconds`` are measured.  Run from the repository root:

    python3 perfbench/run.py --workload pitman-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 [--trace 1]

``--trace 0`` reports the end-to-end metrics, timed at a fixed reference
speed of the host (see pace.py); ``--trace 1`` alternates
untraced and traced passes, runs the layer probe and reports the per-layer
metrics.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller result file
and, in traced runs, the spans go to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import char_table
import desk_mix
import doob_drift
import pace
import pitman_long
import probe
from common import ROOT, import_superwalk, machine_facts, purge_superwalk, reset_caches
from layers import Record, per_layer
from spans import NullTracer, Tracer, self_times

WORKLOADS = {
    "pitman-long": pitman_long,
    "doob-drift": doob_drift,
    "char-table": char_table,
    "desk-mix": desk_mix,
}
END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_FIRST = 3
FAST_MS = 10
OUT_DIR = ROOT / ".bench_out"


def time_setup(module, seed):
    """One set-up: import superwalk afresh and build the job list.

    Returns the workload, the wall-clock seconds and the seconds at the
    reference speed.  Modules loaded before are put back afterwards, so a
    workload built earlier keeps running against the modules its jobs were
    built from.
    """
    saved = {n: m for n, m in sys.modules.items() if n == "superwalk" or n.startswith("superwalk.")}
    purge_superwalk()
    workload, elapsed, factor = pace.bracketed(lambda: module.build(seed))
    if saved:
        purge_superwalk()
        sys.modules.update(saved)
    return workload, elapsed, elapsed * factor


def run_pass(jobs, tracer):
    """One closed-loop pass; returns outputs, {job: error}, wall-clock
    latencies and latencies at the reference speed.

    The calibration snippet runs after every job, outside its latency.
    """
    outputs, errors, times, samples = [], {}, [], []
    for i, job in enumerate(jobs):
        tracer.job_id = i
        start = perf_counter()
        try:
            if tracer.enabled:
                with tracer.span("job." + job.kind, job.attrs):
                    out = job.run(tracer)
            else:
                out = job.run(tracer)
        except Exception as exc:  # a raising job is a failed job; the pass goes on
            out = None
            errors[i] = f"raised {type(exc).__name__}: {exc}"
        times.append(perf_counter() - start)
        outputs.append(out)
        samples.append(pace.sample())
    return outputs, errors, times, [t * f for t, f in zip(times, pace.factors(samples))]


class Measurement:
    """Passes of one workload and what they produced."""

    def __init__(self, module, seed, seconds, traced):
        pace.warm_up()
        workload, *first = time_setup(module, seed)
        # Set-up is timed again after every pass, so its median spans the run;
        # each sample is (wall-clock s, s at the reference speed).
        self.setup_samples = [tuple(first)] + [time_setup(module, seed)[1:]
                                               for _ in range(SETUP_FIRST - 1)]
        self.workload = workload
        self.tracer = Tracer() if traced else None
        self.reference = None          # outputs of the first pass, which the check reads
        self.passes = []               # (traced, errors, mismatching job ids, busy s) per pass
        self.latencies = []            # per untraced pass: job latencies at the reference speed
        self.wall = []                 # per untraced pass: wall-clock job latencies
        self.measured_seconds = 0.0
        self.caches_cleared = 0
        null = NullTracer()
        while True:
            use_trace = traced and len(self.passes) % 2 == 1
            self.caches_cleared = reset_caches()
            outputs, errors, wall, times = run_pass(workload.jobs,
                                                    self.tracer if use_trace else null)
            self.measured_seconds += sum(wall)
            if self.reference is None:
                self.reference, mismatches = outputs, set()
            else:
                mismatches = {i for i, (a, b) in enumerate(zip(self.reference, outputs)) if a != b}
            del outputs  # keep one pass's outputs besides the reference, so RSS holds still
            self.passes.append((use_trace, errors, mismatches, sum(times)))
            if not use_trace:
                self.latencies.append(times)
                self.wall.append(wall)
            self.setup_samples.append(time_setup(module, seed)[1:])
            count = len(self.passes)
            if count >= (2 if traced else 1) and self.measured_seconds * (count + 1) / count > seconds:
                break
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.problems = workload.check(workload.jobs, self.reference)

    def failures(self):
        """(attempted, failed, correct, reasons).

        Every failing job execution counts in ``failed``.  ``correct`` is
        false when an output check fails, an output differs between passes
        or a job raises; the bad-input jobs of desk-mix count in ``failed``
        only, since they check error handling rather than outputs.
        """
        jobs = self.workload.jobs
        failed, correct, reasons = 0, True, Counter()
        for _, errors, mismatches, _ in self.passes:
            for i, job in enumerate(jobs):
                reason = errors.get(i) or (
                    "output differs from the first pass" if i in mismatches else self.problems.get(i)
                )
                if reason:
                    failed += 1
                    reasons[f"{job.kind}: {reason}"] += 1
                    correct = correct and bool(job.data.get("bad"))
        return len(jobs) * len(self.passes), failed, correct, reasons

    def job_latencies(self, wall=False) -> list[float]:
        """Each job's median latency over the untraced passes, at the
        reference speed or, with ``wall``, on the wall clock."""
        passes = self.wall if wall else self.latencies
        return [statistics.median(job) for job in zip(*passes)]

    def end_to_end(self, wall=False) -> dict:
        times = self.job_latencies(wall)
        cuts = statistics.quantiles(times, n=100, method="inclusive")
        return {
            "jobs_per_s": len(times) / sum(times),
            "job_p50_ms": 1000 * cuts[49],
            "job_p90_ms": 1000 * cuts[89],
            "setup_s": statistics.median(s[0 if wall else 1] for s in self.setup_samples),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def layer_records(self, probe_jobs, probe_outputs, probe_start):
        spans = self.tracer.spans
        items = list(zip(spans, self_times(spans)))
        busy = {mode: [b for traced, _, _, b in self.passes if traced == mode]
                for mode in (False, True)}
        # Each traced pass against the untraced pass before it: traced over
        # untraced jobs_per_s, with the machine in much the same state.
        overhead = statistics.median(u / t for u, t in zip(busy[False], busy[True]))
        workload = Record(items[:probe_start], self.workload.jobs, self.reference,
                          len(busy[True]), overhead)
        return workload, Record(items[probe_start:], probe_jobs, probe_outputs, 1)


def run_probe(tracer, seed):
    """Run the layer probe once, traced; a probe job that raises ends the run."""
    reset_caches()
    jobs = probe.build(seed)
    tracer.group = "probe"
    start = len(tracer.spans)
    outputs, errors, *_ = run_pass(jobs, tracer)
    if errors:
        raise SystemExit(f"perfbench: layer probe failed: {sorted(errors.values())[:3]}")
    return jobs, outputs, start


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> dict:
    m = Measurement(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    workload = m.workload
    attempted, failed, correct, reasons = m.failures()
    properties = dict(workload.properties)
    latencies = m.job_latencies()
    properties["fast_job_share"] = sum(t < FAST_MS / 1000 for t in latencies) / len(latencies)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "jobs_per_pass": len(workload.jobs), "passes": len(m.passes),
        "traced_passes": sum(1 for p in m.passes if p[0]),
        "measured_seconds": m.measured_seconds, "caches_cleared": m.caches_cleared,
        "reference_speed_snippet_s": pace.REFERENCE_S,
        "setup_samples_s": [{"wall": w, "reference": r} for w, r in m.setup_samples],
        "wall_clock_end_to_end": m.end_to_end(wall=True),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "correct": correct,
        "failure_reasons": dict(reasons.most_common()), "properties": properties,
    }
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        probe_jobs, probe_outputs, start = run_probe(m.tracer, args.seed)
        values, sources, missing = per_layer(*m.layer_records(probe_jobs, probe_outputs, start))
        result["per_layer_sources"] = sources
        result["per_layer_missing"] = missing
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        m.tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        units = dict(END_TO_END)
        values = {k: (v, units[k]) for k, v in m.end_to_end().items()}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, default=str) + "\n")

    machine = result["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(m.passes)} jobs/pass={len(workload.jobs)} "
          f"measured={m.measured_seconds:.2f}s")
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu_model']!r} "
          f"python={machine['python']} git={machine['git_rev'][:12]} "
          f"src={machine['src_sha256'][:12]}")
    for name, (value, unit) in values.items():
        source = f"  [{result['per_layer_sources'][name]}]" if args.trace else ""
        print(f"  {name:<44} {fmt(value):>14} {unit}{source}")
    if not args.trace:
        print("  wall clock: " + ", ".join(f"{name} {fmt(value)}" for name, value
                                           in result["wall_clock_end_to_end"].items()))
    for name in result.get("per_layer_missing", ()):
        print(f"  {name:<44} unavailable: neither the workload nor the probe calls it")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} job runs failed)")
    for name, value in properties.items():
        print(f"  property {name} = {fmt(value)}")
    for reason, count in reasons.most_common(8):
        print(f"  failure x{count}: {reason}")
    print(f"result file: {path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}


def run_all(args) -> int:
    """Run every workload in its own process and print their metrics."""
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}")
        for metric, entry in line["metrics"].items():
            print(f"  {metric:<44} {fmt(entry['value']):>14} {entry['unit']}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_superwalk()
    if args.all:
        return run_all(args)
    print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
