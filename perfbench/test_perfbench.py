"""Self-tests of the benchmark harness.

Run from the repository root with `python3 -m pytest perfbench -q`.  They use
the cheap requests of each workload, so they finish in well under a minute."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def cheap(argv):
    """Requests that take well under 0.3 s at the seed commit."""
    cmd, path = argv[0], argv[2] if argv[0] == "verify" else argv[1]
    if cmd == "verify" and argv[1] in ("linking", "unlinking", "poincare", "gr"):
        return True
    if cmd == "verify" and argv[1] == "diagonalization":
        return path == "A2.json"
    if cmd == "verify" and argv[1] == "homology":
        return argv[argv.index("--order") + 1] == "4" and path in ("A2.json", "M2.json")
    if cmd in ("dt", "series"):
        order = int(argv[argv.index("--order") + 1])
        return order <= 8 and path != "MIX3.json"
    if cmd == "algebra-dims":
        return path.startswith("L") or argv[argv.index("--smax") + 1] == "8"
    return False


def small_plan(workload, seed=7, limit=12):
    plan = workloads.generate(workload, seed)
    requests = [r for r in plan["requests"] if cheap(r["argv"])][:limit]
    return {"files": plan["files"], "requests": requests}


def run_pass(plan, trace=False):
    harness = run.Harness(ROOT, plan)
    try:
        return harness.worker(plan["requests"], trace=trace)
    finally:
        harness.close()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_hash_depends_only_on_seed(workload):
    first = run.request_hash(workloads.generate(workload, 11))
    assert first == run.request_hash(workloads.generate(workload, 11))
    assert first != run.request_hash(workloads.generate(workload, 12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_each_workload(workload):
    plan = small_plan(workload)
    assert len(plan["requests"]) >= 4
    harness = run.Harness(ROOT, plan)
    try:
        passes, metrics, notes = run.measure(harness, seconds=0)
    finally:
        harness.close()
    assert not os.path.exists(harness.base)
    attempted, failed, _, _, reasons = run.tally(plan, passes)
    assert attempted == 2 * len(plan["requests"]) and failed == 0, reasons
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert notes["passes"] == 2 and notes["setup_samples"] == run.SETUP_SAMPLES


def test_traced_pass_matches_untraced_and_counts_calls():
    plan = small_plan("identity-verify", limit=20)
    plain = run_pass(plan)
    traced = run_pass(plan, trace=True)
    assert ([o["sha256"] for o in plain["results"]]
            == [o["sha256"] for o in traced["results"]])
    metrics = run.layer_metrics(traced, plain["wall_s"])
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["series.laurent_mul.calls"] > 0
    assert metrics["series.laurent_mul.self_s"] > 0
    assert metrics["linalg.add_row.calls"] == 0


def test_known_defects_are_reported_not_failed():
    plan = workloads.generate("identity-verify", 5)
    defects = [r for r in plan["requests"] if r.get("defect")]
    assert len(defects) == 3
    subset = {"files": plan["files"], "requests": defects}
    attempted, failed, count, still_open, _ = run.tally(subset, [run_pass(subset)])
    assert (attempted, failed, count) == (3, 0, 3)
    assert 0 <= still_open <= 3


def test_wrong_expectation_is_counted_as_failed():
    plan = small_plan("identity-verify")
    plan["requests"][0] = dict(plan["requests"][0], expect={"exit": 99})
    passes = [run_pass(plan)]
    attempted, failed, _, _, reasons = run.tally(plan, passes)
    assert failed == 1 and len(reasons) == 1
    assert attempted == len(plan["requests"])


def test_check_rejects_wrong_calibration_and_dimensions():
    scan = {"details": {"calibration": {"0": True, "1": True}}}
    ok, why = workloads.check({"exit": 0, "calibration": "1"}, 0, json.dumps(scan))
    assert not ok and "singled out" in why
    rows = {"components": [{"hdeg": -4, "dimension": 2, "functional_dimension": 1}]}
    ok, why = workloads.check({"exit": 0, "dims_match": True}, 0, json.dumps(rows))
    assert not ok and "-4" in why


def test_normalise_follows_the_reference_loop():
    nominal = run.speed.REFERENCE_NOMINAL_S
    assert run.speed.normalise(2.0, [nominal]) == pytest.approx(2.0)
    # a host at half speed doubles both the request and the reference loop
    assert run.speed.normalise(4.0, [2 * nominal, 2 * nominal]) == pytest.approx(2.0)
    with run.speed.Sampler(0.05) as sampler:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.3:
            pass
    assert len(sampler.refs) >= 2 and sampler.paused > 0


def test_tail_keeps_ten_samples_beyond():
    value, percentile, n = run.tail([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40) and percentile == 75.0
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_refuses_to_run_without_source_tree():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "series-dt",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(os.path.dirname(bare)):
            os.rmdir(os.path.dirname(bare))
    assert proc.returncode != 0
    assert proc.stdout == ""
