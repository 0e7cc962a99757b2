"""Closed-loop benchmark of reeb-bubble: one client, one process, no threads.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Set-up (a fresh import of the library plus building the job list) runs
``SETUP_REPEATS`` times and ``setup_s`` is the median.  A run then makes
whole passes over the workload's jobs while the budget lasts (see
``measure``), and a job's time is the median of its runs.  Every output is
checked after its pass: every report must be ok, and in the first pass
every job's digest must match ``reference.json``.

``--trace 0`` reports the end-to-end metrics with the library unwrapped.
``--trace 1`` wraps the library's layers (see ``tracer.py``), reports the
per-layer metrics per pass and writes every span to ``.perfbench/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
TRACE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 25


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def set_up(workload, seed: int):
    """Median-timed set-up; returns (median seconds, library, jobs)."""
    times = []
    for _ in range(SETUP_REPEATS):
        # free the previous copy of the library first, so that, as in a
        # fresh process, no set-up pays for collecting the last one's cycles
        gc.collect()
        t0 = perf_counter()
        lib = workloads.load_library(SRC)
        jobs = workload.jobs(lib, seed)
        times.append(perf_counter() - t0)
    return statistics.median(times), lib, jobs


def run_pass(jobs, operation, tracer=None):
    """One pass; returns (wall seconds, per-op seconds, outcomes or exceptions)."""
    latencies = []
    outcomes = []
    if tracer:
        tracer.active = True
    start = perf_counter()
    for job in jobs:
        t0 = perf_counter()
        root = tracer.enter(tracing.ROOT, job.key) if tracer else None
        try:
            outcome = operation(job)
        except Exception:  # noqa: BLE001 - a raising operation is a counted failure
            outcome = traceback.format_exc()
        finally:
            if tracer:
                tracer.exit(root)
        latencies.append(perf_counter() - t0)
        outcomes.append(outcome)
    wall = perf_counter() - start
    if tracer:
        tracer.active = False
    return wall, latencies, outcomes


def measure(jobs, operation, seconds: float, after_pass, tracer=None) -> list[list[float]]:
    """Run whole passes over ``jobs``; return each job's run times, by job index.

    The first pass always runs; another starts only while one more pass of
    the last one's length would keep the total within ``seconds``.
    ``after_pass(outcomes, wall)`` is called after every pass.
    """
    times = [[] for _ in jobs]
    spent = 0.0
    while True:
        wall, latencies, outcomes = run_pass(jobs, operation, tracer)
        after_pass(outcomes, wall)
        for t, latency in zip(times, latencies):
            t.append(latency)
        spent += wall
        if spent + wall > seconds:
            return times


def check(lib, jobs, outcomes, reference: dict | None) -> list[str]:
    """One line per failed job: raised, report not ok, or digest mismatch.

    ``reference=None`` skips the digests: later passes repeat the first
    one's computations, so their digests are checked once per run.
    """
    problems = []
    for job, outcome in zip(jobs, outcomes):
        if isinstance(outcome, str):
            problems.append(f"{job.key}: raised\n{outcome}")
        elif not outcome.report.ok:
            problems.append(f"{job.key}: verification report not ok")
        elif reference is not None:
            digest = workloads.digest_of(lib, outcome)
            if workloads.digest_hash(digest) != reference.get(job.key):
                problems.append(
                    f"{job.key}: digest differs from reference: "
                    + json.dumps(digest, sort_keys=True)
                )
    return problems


def pass_seconds(times: list[list[float]]) -> float:
    """Seconds of one pass: the sum over jobs of each job's median time.

    Job by job, the median discards the runs that a slow spell of the
    machine hit, which the median of whole-pass times does less well.
    """
    return sum(statistics.median(t) for t in times)


def layer_metrics(summaries: list[dict], counters: list, times, walls) -> dict:
    """Per-pass per-layer metrics: mean self time and calls, exact counts."""
    passes = len(summaries)
    out = {}

    def mean(key, field):
        return sum(s[field][key] for s in summaries) / passes

    for name in tracing.span_names():
        out[f"{name}.self_s"] = (mean(name, "self_s"), "s")
        out[f"{name}.calls"] = (mean(name, "calls"), "count")
    for name in (tracing.CUP_RING, tracing.COLUMN_REDUCTION):
        for ring in tracing.RING_NAMES.values():
            key = f"{name}.{ring}.s"
            out[key] = (mean(key, "by_ring"), "s")
    units = {tracing.COLUMN_REDUCTION + ".max_bits": "bits"}
    for name in tracing.counter_names():
        out[name] = (counters[0].get(name, 0), units.get(name, "count"))
    accounted = sum(sum(s["self_s"].values()) for s in summaries)
    benchmark_own = sum(s["self_s"][n] for s in summaries for n in tracing.OWN_SPANS)
    out["trace.wall_s"] = (pass_seconds(times), "s")
    out["trace.accounted_frac"] = (accounted / sum(walls), "ratio")
    # time inside the library's layer spans; what no wrapper covers is
    # the root span's (or the counters') self time
    out["trace.layer_frac"] = ((accounted - benchmark_own) / sum(walls), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.POOL_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / workloads.PACKAGE / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    try:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no reference digests for {args.workload}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    setup_s, lib, jobs = set_up(workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(tracing.library_modules())
        tracer.install()
    tap = workloads.RingTap(lib.oracle)
    operation = workload.operation(lib, tap)

    walls, summaries, counters, problems = [], [], [], []
    mark = 0  # first span of the next pass

    def after_pass(outcomes, wall):
        nonlocal mark
        # digests are checked in the first pass; later passes repeat its work
        problems.extend(check(lib, jobs, outcomes, None if walls else reference))
        walls.append(wall)
        if tracer:
            summaries.append(tracer.summarize(mark, len(tracer.spans)))
            counters.append(dict(tracer.counters))
            tracer.counters.clear()
            mark = len(tracer.spans)

    times = measure(jobs, operation, args.seconds, after_pass, tracer)
    tap.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = len(problems)
    attempted = sum(map(len, times))
    info = dict(
        machine(), workload=args.workload, seed=args.seed, trace=args.trace,
        passes=len(walls), operations=attempted, jobs=len(jobs),
    )
    print(json.dumps({"run": info}))
    for line in problems[:20]:
        print(f"FAILED {line}")
    print(f"failed_frac {failed / attempted:.6g} frac ({failed} of {attempted} operations)")

    if tracer:
        tracer.uninstall()
        metrics = layer_metrics(summaries, counters, times, walls)
        if any(c != counters[0] for c in counters[1:]):
            print("WARNING size counters differ between passes")
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(path, {"run": info})
        print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        per_job = [statistics.median(t) for t in times]
        deciles = statistics.quantiles(per_job, n=10, method="inclusive")
        metrics = {
            "wall_s": (pass_seconds(times), "s"),
            "latency_p50_ms": (deciles[4] * 1e3, "ms"),
            "latency_p90_ms": (deciles[8] * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"latency samples {len(per_job)} jobs, each the median of its "
              f"{len(walls)} runs ({attempted} runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
