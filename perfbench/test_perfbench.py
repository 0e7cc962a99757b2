"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

The catalog test verifies one full catalog pass and takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def lib():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return workloads.load_library(run.SRC)


def _reference(name):
    return json.loads(run.REFERENCE.read_text(encoding="utf-8"))[name]


def _run_cli(*args, seconds="0", env=None):
    cmd = [sys.executable, str(HERE / "run.py"), *args, "--seconds", seconds]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, check=False, cwd=HERE.parent,
        env=dict(os.environ, **(env or {})),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- seed handling ------------------------------------------------------------


def test_catalog_seed0_is_the_catalog_command_job_list(lib):
    ser = lib.descriptor.serialize_descriptor
    jobs = workloads.catalog_jobs(lib, 0)
    want = [(e.name, ser(e.descriptor), "auto") for e in lib.catalog.ENTRIES]
    want += [
        (f"plan-{i}", ser(lib.catalog.plan_descriptor(p)), 1)
        for i, p in enumerate(lib.catalog.random_plans(0, 6), start=1)
    ]
    assert [(j.key, ser(j.payload), j.tier) for j in jobs] == want


def test_catalog_nonzero_seed_changes_descriptors_and_stays_ok(lib):
    ser = lib.descriptor.serialize_descriptor
    base = {j.key: ser(j.payload) for j in workloads.catalog_jobs(lib, 0)}
    jobs = workloads.catalog_jobs(lib, 5)
    moved = {j.key: ser(j.payload) for j in jobs}
    assert set(moved) == set(base)
    assert [j.key for j in jobs] != list(base)
    changed = {k for k in base if moved[k] != base[k]}
    assert changed and all(k.startswith("plan-") for k in changed)
    tap = workloads.RingTap(lib.oracle)
    try:
        _, _, outcomes = run.run_pass(jobs, workloads.verify_operation(lib, tap))
    finally:
        tap.remove()
    assert run.check(lib, jobs, outcomes, _reference("catalog")) == []


@pytest.mark.parametrize("name", ["tier2-small", "formula"])
def test_nonzero_seed_keeps_reference_digests(name):
    result = _run_cli("--workload", name, "--seed", "11", "--trace", "0")
    assert result["correct"] and result["failed"] == 0


def test_digest_mismatch_and_bad_report_count_as_failures(lib):
    jobs = workloads.formula_jobs(lib, 0)[:4]
    tap = workloads.RingTap(lib.oracle)
    try:
        _, _, outcomes = run.run_pass(jobs, workloads.formula_operation(lib, tap))
    finally:
        tap.remove()
    reference = dict(_reference("formula"))
    assert run.check(lib, jobs, outcomes, reference) == []
    reference[jobs[0].key] = "0" * 64
    outcomes[1] = "Traceback: simulated"
    problems = run.check(lib, jobs, outcomes, reference)
    assert [p.split(":")[0] for p in problems] == [jobs[0].key, jobs[1].key]


def test_whole_passes_run_within_the_budget():
    seconds = 0.2
    naps = [0.001, 0.002, 0.003]
    walls = []
    times = run.measure(naps, time.sleep, seconds, lambda outcomes, wall: walls.append(wall))
    assert len(walls) > 2
    assert [len(t) for t in times] == [len(walls)] * len(naps)
    assert sum(walls) < seconds * 1.25
    # the first pass runs even when it alone is over budget
    assert [len(t) for t in run.measure(naps, time.sleep, 0, lambda *_: None)] == [1, 1, 1]


# -- tracing ------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs per workload under different hash seeds."""
    out = {}
    for name in ("tier2-small", "formula"):
        out[name] = [
            _run_cli("--workload", name, "--seed", "3", "--trace", "1",
                     env={"PYTHONHASHSEED": hs})
            for hs in ("1", "2")
        ]
    return out


@pytest.mark.parametrize("name", ["tier2-small", "formula"])
def test_size_counters_repeat_exactly(traced_runs, name):
    first, second = traced_runs[name]
    counted = tracing.counter_names() + [
        m for m in first["metrics"] if m.endswith(".calls")
    ]
    assert {m: first["metrics"][m]["value"] for m in counted} == {
        m: second["metrics"][m]["value"] for m in counted
    }
    models = first["metrics"]["oracle.model_simplices"]["value"]
    reductions = first["metrics"][tracing.COLUMN_REDUCTION + ".calls"]["value"]
    if name == "formula":  # tier 1 only: no simplicial model, no cycle splitting
        assert models == 0 and reductions == 0
    else:
        assert models > 0 and reductions > 0


@pytest.mark.parametrize("name", ["tier2-small", "formula"])
def test_self_times_account_for_the_traced_pass(traced_runs, name):
    for result in traced_runs[name]:
        assert result["correct"]
        frac = result["metrics"]["trace.accounted_frac"]["value"]
        assert 0.97 <= frac <= 1.0, frac
        # and the library's layer spans cover nearly all of it
        frac = result["metrics"]["trace.layer_frac"]["value"]
        assert 0.95 <= frac <= 1.0, frac


def test_tracer_wraps_every_binding_and_restores(lib):
    modules = tracing.library_modules()
    originals = {
        (layer, fn): getattr(modules[layer], fn)
        for layer, fns in tracing.LAYERS.items()
        for fn in fns
    }
    bindings = [
        (mod, attr, value)
        for mod in modules.values()
        for attr, value in vars(mod).items()
        if any(value is f for f in originals.values())
    ]
    init = lib.graded.PresentedGradedRing.__init__
    t = tracing.Tracer(modules)
    t.install()
    try:
        for mod, attr, value in bindings:
            assert getattr(mod, attr).__wrapped__ is value
        assert lib.graded.PresentedGradedRing.__init__.__wrapped__ is init
        # simplicial binds coefficients' kernels under the same names
        assert lib.simplicial.sparse_column_reduction.__wrapped__ is (
            originals[("coefficients", "sparse_column_reduction")]
        )
    finally:
        t.uninstall()
    for mod, attr, value in bindings:
        assert getattr(mod, attr) is value
    assert lib.graded.PresentedGradedRing.__init__ is init


# -- the contract -------------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json(traced_runs):
    plain = _run_cli("--workload", "formula", "--trace", "0")
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == declared
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for first, _ in traced_runs.values():
        assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "formula", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=False, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
