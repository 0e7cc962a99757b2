"""Regenerate ``reference.json``: one digest hash per pool entry and workload.

    python3 perfbench/make_reference.py

Each workload runs once at seed 0 and every report must be ok.  Only run
this when the library's answers are meant to change; the reference is what
keeps a fast-but-wrong change from passing the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        lib = workloads.load_library(run.SRC)
        jobs = workload.jobs(lib, workloads.POOL_SEED)
        tap = workloads.RingTap(lib.oracle)
        _, _, outcomes = run.run_pass(jobs, workload.operation(lib, tap))
        tap.remove()
        digests = {}
        for job, outcome in zip(jobs, outcomes):
            if isinstance(outcome, str) or not outcome.report.ok:
                print(f"{name} {job.key}: not ok, no reference written", file=sys.stderr)
                return 1
            digests[job.key] = workloads.digest_of(lib, outcome)
        reference[name] = {k: workloads.digest_hash(d) for k, d in digests.items()}
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    run.REFERENCE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
