"""Shared pieces of the benchmark: jobs, seeded inputs, caches and machine facts.

Nothing here imports ``superwalk`` at module level.  Set-up re-imports the
package several times to time it, so every workload imports what it needs
inside its ``build`` function and binds the fresh modules.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import platform
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Job:
    """One closed-loop request: ``run(tracer)`` makes the library calls.

    ``kind`` names the job type.  ``attrs`` go on the job's span in traced
    runs; their ``size`` entry is the input size the growth fits use.
    ``data`` holds the inputs the output check needs.
    """

    kind: str
    run: Callable
    attrs: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


@dataclass
class Workload:
    """A fixed job list plus the check that validates its outputs.

    ``check(jobs, outputs)`` returns ``{job index: problem}`` for every job
    whose output is wrong.  ``properties`` are workload facts that later
    claims cite, such as the share of long words.
    """

    jobs: list
    check: Callable
    properties: dict = field(default_factory=dict)


def import_superwalk():
    """Make ``src/`` of this checkout the only place ``superwalk`` comes from."""
    if not (SRC / "superwalk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no superwalk sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def purge_superwalk():
    """Drop every loaded superwalk module so the next import runs it again."""
    for name in [n for n in sys.modules if n == "superwalk" or n.startswith("superwalk.")]:
        del sys.modules[name]


def reset_caches() -> int:
    """Empty every module-level cache in the loaded superwalk modules.

    Each pass of a workload starts cold, so repeated passes measure the same
    work.  Any ``functools`` cache and any module dict whose name contains
    "cache" is cleared; the count is returned so a run can show it happened.
    """
    cleared = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "superwalk" or name.startswith("superwalk.")):
            continue
        for attr, obj in list(vars(module).items()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
                cleared += 1
            elif isinstance(obj, dict) and "cache" in attr.lower():
                obj.clear()
                cleared += 1
    return cleared


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def log_uniform_sizes(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes at the mid-quantiles of the log-uniform law on [lo, hi].

    The sizes do not depend on the seed, so every seed does the same amount
    of work; only the values fed in change.
    """
    return [round(lo * (hi / lo) ** ((i + 0.5) / count)) for i in range(count)]


def prob_vector(rng, kind, base: tuple[int, ...]):
    """A seeded step law near ``base``: integer weights over the fixed total
    ``sum(base)``, each within 2 (1 for ranks above 4) of its base weight and
    strictly decreasing inside each block.

    Every base here sums to a prime, so no probability reduces: all
    denominators are powers of that prime and the size of the rationals,
    hence the cost of exact arithmetic, does not swing with the seed.
    """
    from superwalk import ProbVector

    total = sum(base)
    spread = 2 if len(base) <= 4 else 1
    # index ranges inside which the probabilities must strictly decrease
    blocks = [(0, kind.m), (kind.m, kind.N)] if kind.kind == "hook" else [(0, kind.N)]
    candidates = []
    for delta in itertools.product(range(-spread, spread + 1), repeat=len(base)):
        weights = tuple(b + d for b, d in zip(base, delta))
        if sum(weights) != total or min(weights) < 1:
            continue
        if all(
            all(a > b for a, b in zip(weights[lo:hi], weights[lo + 1:hi]))
            for lo, hi in blocks
        ):
            candidates.append(weights)
    weights = rng.choice(candidates)
    return ProbVector.of(kind, [Fraction(w, total) for w in weights])


# ---------------------------------------------------------------------------
# Machine and source facts recorded in every result file
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    package = SRC / "superwalk"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
    }
