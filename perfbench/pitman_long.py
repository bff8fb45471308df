"""pitman-long: Pitman transforms of long seeded words.

Insertion does nearly all the work.  Long words expose the cost of copying
the whole tableau on every letter; short words expose the per-call cost.
One word in four also goes through ``rsk``, which builds P and Q, so a
speed-up that only serves shapes and slows P/Q shows here.  gl(2,2) gets the
lowest maximum length because its cost grows fastest.
"""

from __future__ import annotations

import random

from common import Job, Workload, log_uniform_sizes

# (kind constructor arguments, longest word, words per pass)
KINDS = (
    (("empty", 3, 0), 1024, 32),
    (("hook", 2, 2), 384, 32),
    (("strict", 4, 0), 1024, 100),
)
SHORTEST = 16
RSK_EVERY = 4
LONG = 512


def make_jobs(rng, plan) -> list[Job]:
    """Jobs for ``plan``, a list of (kind, lengths); every RSK_EVERY-th word
    of each kind also gets an rsk job."""
    from superwalk import pitman, rsk

    jobs = []
    for kind, lengths in plan:
        for i, length in enumerate(lengths):
            word = tuple(rng.choice(kind.alphabet) for _ in range(length))
            attrs = {"kind": kind.kind, "size": length}
            data = {"kind": kind, "word": word}
            jobs.append(Job("pitman", _caller("insertion.pitman", pitman, kind, word, attrs),
                            attrs, data))
            if i % RSK_EVERY == RSK_EVERY // 2:
                jobs.append(Job("rsk", _caller("insertion.rsk", rsk, kind, word, attrs),
                                attrs, data))
    return jobs


def _caller(span, fn, kind, word, attrs):
    return lambda t: t.call(span, fn, kind, word, attrs=attrs)


def build(seed: int) -> Workload:
    from superwalk import AlgebraKind

    rng = random.Random(seed)
    plan = [(AlgebraKind(*spec), log_uniform_sizes(SHORTEST, longest, count))
            for spec, longest, count in KINDS]
    jobs = make_jobs(rng, plan)
    # A fixed interleaving, the same for every seed, mixes kinds and lengths.
    random.Random(0).shuffle(jobs)
    long_jobs = sum(1 for job in jobs if job.attrs["size"] >= LONG)
    return Workload(
        jobs, check,
        properties={
            "long_word_share": long_jobs / len(jobs),
            "long_word_threshold": LONG,
            "letters_per_pass": sum(job.attrs["size"] for job in jobs),
            "rsk_share": sum(job.kind == "rsk" for job in jobs) / len(jobs),
        },
    )


def _chain_problem(kind, chain, length) -> str | None:
    from superwalk import is_valid_shape

    if len(chain) != length:
        return f"chain has {len(chain)} shapes for {length} letters"
    prev: tuple = ()
    for step, shape in enumerate(chain, 1):
        if not is_valid_shape(kind, shape):
            return f"step {step}: {shape} is not a valid shape"
        padded = prev + (0,) * (len(shape) - len(prev))
        grown = [r for r in range(len(shape)) if shape[r] != padded[r]]
        if len(shape) < len(prev) or len(grown) != 1 or shape[grown[0]] != padded[grown[0]] + 1:
            return f"step {step}: {shape} does not add one box to {prev}"
        prev = shape
    return None


def check(jobs, outputs) -> dict[int, str]:
    """Every chain adds one valid box per letter; on the rsk share
    ``pitman(w) == rsk(w).q.chain``; on the empty kind ``rsk_inverse``
    recovers the word."""
    from superwalk import is_valid_tableau, rsk_inverse, weight_of

    problems = {}
    chains = {}
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if job.kind == "pitman" and out is not None:
            kind, word = job.data["kind"], job.data["word"]
            chains[word] = out
            problem = _chain_problem(kind, out, len(word))
            if problem:
                problems[i] = problem
    for i, (job, pair) in enumerate(zip(jobs, outputs)):
        if job.kind != "rsk" or pair is None:
            continue
        kind, word = job.data["kind"], job.data["word"]
        if pair.q.chain != chains.get(word):
            problems[i] = "rsk recording chain differs from pitman"
        elif not is_valid_tableau(pair.p) or pair.p.weight() != weight_of(kind, word):
            problems[i] = "P is not a valid tableau of the word's weight"
        elif kind.kind == "empty" and rsk_inverse(kind, pair) != word:
            problems[i] = "rsk_inverse does not recover the word"
    return problems
