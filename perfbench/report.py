"""Run every workload at its default seed and print all metrics.

    python3 perfbench/report.py

Each workload runs twice for ``run_seconds`` of ``BENCHMARK.json``, each
time in a fresh process: untraced for the end-to-end metrics, then traced
for the per-layer metrics.  The tracing
overhead is the traced pass time minus the untraced one.  Exits 1 if any
operation failed or any digest differed from the reference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def run_once(workload: str, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(RUN), "--workload", workload,
        "--seed", str(workloads.POOL_SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["run"] = json.loads(lines[0])["run"]
    return result


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    all_correct = True
    for name in workloads.WORKLOADS:
        plain = run_once(name, seconds, 0)
        traced = run_once(name, seconds, 1)
        info = plain["run"]
        print(f"== {name}  seed {info['seed']}  {info['cores']} cores  "
              f"Python {info['python']}  {info['jobs']} jobs, {info['passes']} pass(es)")
        for result in (plain, traced):
            all_correct &= result["correct"]
            frac = result["failed"] / result["attempted"]
            tag = "traced" if result is traced else "untraced"
            print(f"  failed_frac {frac:g} frac ({result['failed']} of "
                  f"{result['attempted']} operations, {tag})")
        print(f"  latency samples {info['jobs']} jobs, each the median of its runs "
              f"({plain['attempted']} runs)")
        for label, result in (("end-to-end", plain), ("per-layer", traced)):
            print(f"  -- {label}")
            for metric, m in result["metrics"].items():
                print(f"  {metric} {m['value']:.6g} {m['unit']}")
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        print(f"  tracing_overhead_s {overhead:.6g} s")
    print("all correct" if all_correct else "FAILURES PRESENT")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
