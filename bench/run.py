"""Benchmark of sievecodec: the codec and the decoder dynamics, end to end.

Run one workload (from the root of the repository):

    python3 bench/run.py --workload codec-dense --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it, starting ``detail``, holds figures that no gate reads.

Check that runs agree (N runs per workload, seeds 1..N, plus one traced run):

    python3 bench/run.py --steadiness 10 [--workload NAME ...] [--seconds 30]

See README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one process, one thread

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from math import gcd
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: Time of one :func:`speed_probe` on the reference machine (see README.md).
PROBE_REF_S = 2.0e-3
BENCHMARK = ROOT / "BENCHMARK.json"
OUT = HERE / "out"


# Data of the speed probe: a set larger than the core's private caches, and
# the values looked up in it.
_PROBE_KEYS = frozenset(range(0, 300_000, 5))
_PROBE_LOOKUPS = [random.Random(0).randrange(300_000) for _ in range(4000)]


def speed_probe() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed.

    The machine's speed drifts by up to a quarter within minutes, and the
    library's code slows down with it.  Each measured time ``t`` is reported
    as ``t * PROBE_REF_S / p``, with ``p`` the probe time measured next to it:
    the time at the speed where the probe takes ``PROBE_REF_S``.  It mixes the
    kinds of work the library does: small-dict updates and integer
    arithmetic, lookups in a large set, and ``gcd``.
    """
    t0 = perf_counter()
    total = 0
    table = {}
    for i in range(8000):
        table[i & 255] = total
        total += (i * i) % 7
    total += sum(1 for v in _PROBE_LOOKUPS if v in _PROBE_KEYS)
    for i in range(1, 3000):
        total += gcd(i * 7919, 123_456_789)
    return perf_counter() - t0


def load_library():
    source = ROOT / "src"
    if not (source / "sievecodec").is_dir():
        print(f"bench: no sievecodec sources under {source}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(source))
    try:
        import sievecodec
        import sievecodec.cli  # noqa: F401  (jobs call sievecodec.cli.main)
    except ImportError as exc:
        print(f"bench: cannot import sievecodec from {source}: {exc}", file=sys.stderr)
        sys.exit(2)
    return sievecodec


def setup(workload):
    """Import the library and run one warm-up job per job class."""
    from workloads import run_job

    lib = load_library()
    for job in workload.warmup:
        run_job(lib, job)
    return lib


def setup_seconds(name: str) -> float:
    """Median wall time of fresh processes that only import and warm up."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = statistics.median(speed_probe() for _ in range(5))
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-only", "--workload", name],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        elapsed = perf_counter() - t0
        after = statistics.median(speed_probe() for _ in range(5))
        times.append(elapsed * 2 * PROBE_REF_S / (before + after))
    return statistics.median(times)


def run(name: str, seed: int, seconds: int, trace: bool) -> int:
    from workloads import WORKLOADS, check_job, round_jobs, run_job

    workload = WORKLOADS[name]
    setup_s = 0.0 if trace else setup_seconds(name)
    lib = setup(workload)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(lib)
    rounds = max(1, round(seconds / workload.nominal_round_s))
    sums = {"encode_s": 0.0, "decode_s": 0.0, "bits": 0, "out_bits": 0, "orbit_s": 0.0,
            "decoded": 0, "fixed_s": 0.0, "subset_bits": 0, "subsets": 0}
    raw = dict.fromkeys(TIMES, 0.0)  # job times as measured, before scaling
    probes = [speed_probe()]
    latencies = []
    attempted = failed = 0
    problems = []
    seen = {job.word for job in workload.warmup}
    for r in range(rounds):
        for i, job in enumerate(round_jobs(workload, seed, r, seen)):
            attempted += 1
            try:
                result = run_job(lib, job, tracer)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"bench: job {r}/{i} failed: {exc!r}", file=sys.stderr)
                continue
            finally:
                probes.append(speed_probe())
            if result.get("code", 0) != 0:
                failed += 1
                continue
            scale = 2 * PROBE_REF_S / (probes[-2] + probes[-1])
            for key in TIMES:
                raw[key] += result.get(key, 0.0)
                result[key] = result.get(key, 0.0) * scale
            for key in sums:
                sums[key] += result.get(key, 0)
            if job.kind == "fixed":
                sums["subsets"] += 1 << job.max_element
            if job.kind == "orbit":
                latencies.append(result["orbit_s"])
            try:
                found = check_job(job, result, random.Random(f"check/{seed}/{r}/{i}"))
            except (AttributeError, IndexError, KeyError, ValueError) as exc:
                found = [f"output could not be parsed: {exc!r}"]
            problems.extend(f"round {r} job {i} ({job.kind} {job.op or job.k}): {p}"
                            for p in found)
    for p in problems[:20]:
        print(f"bench: wrong output: {p}", file=sys.stderr)
    detail = {"workload": name, "seed": seed, "rounds": rounds, "job_s": sum(raw.values()),
              "probe_ms": 1000 * statistics.mean(probes)}
    if trace:
        tracer.uninstall()
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in tracer.metrics().items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{seed}.json")
        detail["skipped_hooks"] = tracer.skipped
    else:
        if name == "dynamics":
            encode = ("subset_bits", "fixed_s")
            decode = ("decoded", "orbit_s")
            if len(latencies) > 1:
                detail["orbit_p50_ms"] = 1000 * statistics.median(latencies)
                detail["orbit_p90_ms"] = 1000 * statistics.quantiles(latencies, n=10)[-1]
            detail["fixed_points_subsets_per_s"] = _ratio(sums["subsets"], sums["fixed_s"])
        else:
            encode = ("bits", "encode_s")
            decode = ("out_bits", "decode_s")
        encode_rate = _ratio(sums[encode[0]], sums[encode[1]])
        decode_rate = _ratio(sums[decode[0]], sums[decode[1]])
        detail["raw_encode_bits_per_s"] = _ratio(sums[encode[0]], raw[encode[1]])
        detail["raw_decode_bits_per_s"] = _ratio(sums[decode[0]], raw[decode[1]])
        values = {
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "encode_bits_per_s": encode_rate,
            "decode_bits_per_s": decode_rate,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _ratio(amount, seconds):
    return amount / seconds if seconds else 0.0  # 0 only when every such job failed


# --- steadiness ------------------------------------------------------------------

def _bench_run(name, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2].removeprefix("detail ")), json.loads(lines[-1])


def steadiness(names, repeats: int, seconds: int) -> int:
    """Run each workload ``repeats`` times and compare the spread with the bounds."""
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    for name in names:
        runs = [_bench_run(name, seed, seconds, 0) for seed in range(1, repeats + 1)]
        traced = _bench_run(name, 1, seconds, 1)
        print(f"\n{name}: {repeats} runs, seeds 1..{repeats}, {seconds} s each")
        print(f"{'metric':<28}{'unit':>9}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>8}"
              f"{'bound':>7}")
        rows = {}
        shares = {(r["failed"], r["attempted"]) for _, r in runs}
        if any(not r["correct"] for _, r in runs) or len(shares) != 1:
            ok = False
        metrics = [(k, m["unit"]) for k, m in runs[0][1]["metrics"].items()]
        extra = [k for k in runs[0][0] if k.endswith(("_ms", "_per_s"))]
        for key, unit in metrics + [(k, "-") for k in extra]:
            values = [r["metrics"][key]["value"] if key in r["metrics"] else d[key]
                      for d, r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(key)
            flag = "" if bound is None or key == "setup_s" or spread <= bound else "  WIDE"
            ok = ok and not flag
            print(f"{key:<28}{unit:>9}{med:>14.5g}{q1:>14.5g}{q3:>14.5g}{spread:>8.3f}"
                  f"{bound if bound is not None else '':>7}{flag}")
            rows[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        # Job time per probe time, so that a drift of the machine cancels.
        overhead = ((traced[0]["job_s"] / traced[0]["probe_ms"])
                    / (runs[0][0]["job_s"] / runs[0][0]["probe_ms"]))
        print(f"correct in every run: {all(r['correct'] for _, r in runs)}; "
              f"failed/attempted: {sorted(shares)}")
        print(f"tracing overhead (seed 1, traced job time / untraced, scaled by the "
              f"probe): {overhead:.2f}x")
        report[name] = {"metrics": rows, "trace_overhead": overhead,
                        "traced_metrics": traced[1]["metrics"]}
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


TIMES = ("encode_s", "decode_s", "orbit_s", "fixed_s")
UNITS = {
    "setup_s": "s", "peak_rss_mib": "MiB", "encode_bits_per_s": "bit/s",
    "decode_bits_per_s": "bit/s",
    "operators.probes": "count", "operators.probe_s": "s",
    "operators.candidate_yield": "1/probe", "operators.adds": "count",
    "operators.add_s": "s", "relations.table_adds": "count", "relations.table_add_s": "s",
    "relations.table_grows": "count", "relations.table_bytes_peak": "B",
    "relations.anchored_s": "s", "codec.encode_self_s": "s", "codec.decode_self_s": "s",
    "codec.decode_passes": "count", "codec.decoded_positions": "count", "core.self_s": "s",
    "dynamics.find_limit_self_s": "s", "dynamics.split_s": "s", "dynamics.sufficient_s": "s",
    "dynamics.fixed_point_tests": "count", "dynamics.fixed_point_test_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "B",
}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run each workload N times and report the spread")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.steadiness:
        return steadiness(names, args.steadiness, args.seconds)
    if len(names) != 1:
        parser.error("give exactly one --workload")
    if args.setup_only:
        setup(WORKLOADS[names[0]])
        return 0
    load_library()  # fail before any work when the library is missing
    return run(names[0], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
