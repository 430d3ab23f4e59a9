"""The three benchmark workloads: seeded job lists, timed execution, checks.

A run executes a whole number of rounds.  A round is a fixed list of job
classes, interleaved, each class filled with fresh seeded inputs, so every
round of every run has the same make-up.  No codec word and no orbit start
repeats in a run, nor matches a warm-up input.  A ``fixed-points`` call has no input but (k, M), so its
calls repeat from round to round; they reach none of the library's caches.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from time import perf_counter

import checker


@dataclass(frozen=True)
class Job:
    kind: str  # "codec", "orbit" or "fixed"
    op: str = ""
    word: str = ""
    k: int = 0
    limit: int = 0
    start: tuple = ()  # (elements, horizon) of an orbit start
    max_element: int = 0


def half_word(rng: random.Random, length: int, ones: int, seen=None) -> str:
    """A word of ``length`` bits with exactly ``ones`` of them set.

    With ``seen``, the word is drawn again until it is not in ``seen``, and
    then added to it: there are only 3432 words of 14 bits with 7 ones.
    """
    bits = ["1"] * ones + ["0"] * (length - ones)
    while True:
        rng.shuffle(bits)
        word = "".join(bits)
        if seen is None or word not in seen:
            break
    if seen is not None:
        seen.add(word)
    return word


# --- make-up of each round ------------------------------------------------------

DENSE_OPS = ("sumfree", "coprime", "normk:4")
DENSE_BITS = 4096
DENSE_ONES = (1024, 2048, 3072)  # densities 1/4, 1/2 and 3/4

# (operator, word length, jobs per round); lengths keep every job far below
# the encoder's candidate ceiling (see the frontier table in README.md).
LACUNARY = (
    ("normk:5", 160, 2),
    ("normk:7", 40, 4),
    ("normk:9", 24, 6),
    ("normk:12", 20, 6),
    ("normk:16", 14, 10),
    ("fs", 28, 10),
)

ORBIT_KS = (5, 7, 9)
ORBIT_HORIZON = 2000
ORBIT_ELEMENTS = 200  # density 1/10
ORBIT_LIMIT = 40
ORBITS_PER_K = 5
FIXED_POINT_JOBS = ((5, 10), (7, 11), (9, 11))  # (k, M)


def _dense_round(rng, seen):
    return [Job("codec", op, half_word(rng, DENSE_BITS, ones, seen))
            for ones in DENSE_ONES for op in DENSE_OPS]


def _lacunary_round(rng, seen):
    jobs = []
    for i in range(max(reps for _, _, reps in LACUNARY)):
        for op, length, reps in LACUNARY:
            if i < reps:
                jobs.append(Job("codec", op, half_word(rng, length, length // 2, seen)))
    return jobs


def _orbit(rng, k):
    elements = tuple(sorted(rng.sample(range(1, ORBIT_HORIZON + 1), ORBIT_ELEMENTS)))
    return Job("orbit", k=k, limit=ORBIT_LIMIT, start=(elements, ORBIT_HORIZON))


def _dynamics_round(rng, seen):
    jobs = []
    for i in range(ORBITS_PER_K):
        jobs.extend(_orbit(rng, k) for k in ORBIT_KS)
        if i < len(FIXED_POINT_JOBS):
            k, m = FIXED_POINT_JOBS[i]
            jobs.append(Job("fixed", k=k, max_element=m))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    warmup: tuple  # one job per job class, from a fixed seed
    nominal_round_s: float  # round length on the reference machine


def _warmup_codec(ops):
    rng = random.Random("warm-up")
    return tuple(Job("codec", op, half_word(rng, length, length // 2)) for op, length in ops)


WORKLOADS = {
    "codec-dense": Workload(
        "codec-dense", _dense_round,
        _warmup_codec([(op, DENSE_BITS) for op in DENSE_OPS]), 5.75),
    "codec-lacunary": Workload(
        "codec-lacunary", _lacunary_round,
        _warmup_codec([(op, n) for op, n, _ in LACUNARY]), 0.68),
    "dynamics": Workload(
        "dynamics", _dynamics_round,
        tuple(_orbit(random.Random("warm-up"), k) for k in ORBIT_KS)
        + (Job("fixed", k=5, max_element=8),), 0.78),
}


def round_jobs(workload: Workload, seed: int, index: int, seen: set) -> list[Job]:
    """Round ``index`` of a run; ``seen`` holds the codec words the run has used."""
    return workload.make_round(random.Random(f"{workload.name}/{seed}/{index}"), seen)


# --- running one job --------------------------------------------------------------

def _cli(lib, argv, tracer):
    out = io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(out):
        code = lib.cli.main(argv)
    if tracer:
        tracer.counts["cli.output_bytes"] += len(out.getvalue())
    return code, out.getvalue()


def _prefix_text(elements, horizon):
    return f"{','.join(map(str, elements))} @ {horizon}"


def _no_span(name, **counts):
    return contextlib.nullcontext()


def run_job(lib, job: Job, tracer=None) -> dict:
    """Run one job and return its timings and outputs.

    ``lib`` is the ``sievecodec`` package; ``tracer``, when given, wraps the
    calls into it in spans.
    """
    if job.kind == "codec":
        span = tracer.span if tracer else _no_span
        op = lib.parse_operator(job.op)
        t0 = perf_counter()
        with span("codec.encode", bits=len(job.word)):
            enc = lib.encode(op, job.word)
        t1 = perf_counter()
        with span("codec.decode", positions=enc.accepted.horizon):
            dec = lib.decode(op, enc.accepted)
        t2 = perf_counter()
        return {"encode_s": t1 - t0, "decode_s": t2 - t1, "bits": len(job.word),
                "out_bits": len(dec.bits), "enc": enc, "dec": dec}
    if job.kind == "orbit":
        t0 = perf_counter()
        code, out = _cli(lib, ["dynamics", "--k", str(job.k), "--limit", str(job.limit),
                               "--split", _prefix_text(*job.start)], tracer)
        stable = checker.records(out).get("stabilized", "@ 0")
        _, suff = _cli(lib, ["sufficient", "--k", str(job.k), stable], tracer)
        t1 = perf_counter()
        decoded = sum(checker.parse_prefix(line.split("set=", 1)[1].rsplit(" stars=", 1)[0])[1]
                      for line in out.splitlines()
                      if line.startswith("iterate ") and not line.endswith("stars="))
        return {"orbit_s": t1 - t0, "decoded": decoded, "code": code, "out": out, "suff": suff}
    t0 = perf_counter()
    code, out = _cli(lib, ["fixed-points", "--k", str(job.k),
                           "--max-element", str(job.max_element)], tracer)
    t1 = perf_counter()
    return {"fixed_s": t1 - t0, "subset_bits": job.max_element << job.max_element,
            "code": code, "out": out}


def check_job(job: Job, result: dict, rng: random.Random) -> list[str]:
    if job.kind == "codec":
        enc, dec = result["enc"], result["dec"]
        return checker.check_codec(job.op, job.word, enc.accepted.elements,
                                   enc.rejected.elements, enc.consumed, dec.ternary,
                                   dec.bits, dec.violations, rng)
    if job.kind == "orbit":
        return checker.check_orbit(job.k, job.limit, job.start, result["code"],
                                   result["out"], result["suff"])
    return checker.check_fixed_points(job.k, job.max_element, result["code"], result["out"])
