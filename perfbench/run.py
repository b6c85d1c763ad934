"""quivercalc benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): series-dt, identity-verify, algebra-rank,
algebra-homology.  One client drives a closed loop: each pass starts one fresh
worker process (worker.py), which imports quivercalc from src/, writes the
generated quiver files and runs the whole request list through
`quivercalc.cli.main` in-process, one request at a time.  A fresh worker per
pass means the algebra component cache and the lru_cache tables start empty,
as they do for a CLI user.  Passes repeat while another one fits in
--seconds; there are always at least two.

Every time is taken next to the reference loop of speed.py and reported in
seconds at its nominal speed, because the host's own speed drifts by more
than the bounds; the provenance line gives the raw seconds too.

--trace 0 prints the end-to-end metrics:
  setup_s         median time from worker start until the first request is
                  ready (interpreter, package import, writing the input files),
                  over SETUP_SAMPLES set-up-only workers
  wall_s          median over the passes of the summed request times
  request_p50_s   median request time, pooled over the passes
  request_tail_s  highest percentile of request time with at least ten
                  samples beyond it, pooled over the first two passes
  peak_rss_mb     median of the workers' ru_maxrss

--trace 1 runs one untraced pass and one traced pass, checks that every
request printed the same bytes in both, checks the layer coverage predictions
in EXERCISED and BYPASSED, and prints the per-layer metrics of the traced pass.

The last line of standard output is the result JSON; the line before it
records provenance (Python, cores, git commit, seed, request-list hash,
percentile sample counts, failed_ratio and known-defect outcomes).  The exit
status is 0 when every check held, 1 when one failed, 2 on a usage error or
when the source tree is missing."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8  # set-up-only workers started per run
RUN_LIMIT_S = 170  # every worker of a run is killed after this

# Per-layer calls each workload must make (exercised) or must not make
# (bypassed).  A zero where a call is predicted, or a call where none is,
# means a wrapper sits on the wrong binding or the workload lost its reason.
# dt_extract is not predicted zero on identity-verify: its `dt --guard 0`
# known-defect request reaches dt_extract, which rejects the guard.
EXERCISED = {
    "series-dt": ["series.laurent_mul", "series.multi_mul", "series.pleth_log",
                  "motivic.motivic_series", "dt.dt_extract"],
    "identity-verify": ["series.laurent_mul", "series.multi_mul",
                        "series.substitute", "series.pochhammer_inv",
                        "motivic.motivic_series", "motivic.diagonalize"],
    "algebra-rank": ["linalg.add_row", "algebra.relation_rows"],
    "algebra-homology": ["linalg.reduce_vector", "linalg.rank_of_rows",
                         "algebra.component_basis", "algebra.relation_rows",
                         "algebra.normalize_word", "algebra.unlink_differential",
                         "algebra.functional_dimension"],
}
BYPASSED = {
    "series-dt": ["series.substitute", "motivic.diagonalize", "linalg.add_row",
                  "algebra.component_basis", "algebra.relation_rows",
                  "algebra.normalize_word", "algebra.unlink_differential",
                  "algebra.functional_dimension"],
    "identity-verify": ["series.pleth_log", "linalg.add_row"],
    "algebra-rank": ["series.laurent_mul", "series.multi_mul",
                     "series.pochhammer_inv", "motivic.motivic_series",
                     "dt.dt_extract", "linalg.reduce_vector", "linalg.rank_of_rows"],
    "algebra-homology": ["series.laurent_mul", "series.multi_mul", "dt.dt_extract"],
}
LAYERS = ("series", "motivic", "dt", "linalg", "algebra")

END_TO_END = {"setup_s": "s", "wall_s": "s", "request_p50_s": "s",
              "request_tail_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units():
    units = {}
    for name in ("series.laurent_mul", "series.multi_mul", "series.pleth_log",
                 "series.substitute", "series.pochhammer_inv",
                 "motivic.motivic_series", "motivic.diagonalize", "dt.dt_extract",
                 "linalg.add_row", "linalg.reduce_vector", "linalg.rank_of_rows",
                 "algebra.component_basis", "algebra.relation_rows",
                 "algebra.unlink_differential", "algebra.functional_dimension"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["series.laurent_mul.operand_terms"] = "count"
    units["linalg.add_row.rank_growth_ratio"] = "ratio"
    units["algebra.component_basis.monomials"] = "count"
    units["algebra.relation_rows.rows"] = "count"
    units["algebra.normalize_word.calls"] = "count"
    units["algebra.component_cache.hit_ratio"] = "ratio"
    units["cli.main.self_s"] = "s"
    units["cli.output_bytes"] = "bytes"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


class Harness:
    """Starts workers for one run inside `root/.perfbench_work/`."""

    def __init__(self, root, plan):
        self.root = root
        self.plan = plan
        self.base = os.path.join(root, ".perfbench_work", str(os.getpid()))
        self.started = 0
        self.setup_times = []  # normalised
        self.setup_raw = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)
        parent = os.path.dirname(self.base)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    def worker(self, requests, trace=False):
        """Run one fresh worker over `requests`; returns its result dict,
        with the normalised request times ("norm"), their sum ("wall_s"), the
        raw sum ("raw_wall_s") and the raw set-up time ("setup_raw_s")."""
        self.started += 1
        tag = os.path.join(self.base, f"w{self.started}")
        os.makedirs(tag)
        spec = {"src": os.path.join(self.root, "src"), "workdir": os.path.join(tag, "in"),
                "files": self.plan["files"], "requests": requests, "trace": trace,
                "result_out": os.path.join(tag, "result.json"),
                "spans_out": os.path.join(tag, "spans.bin")}
        spec_path = os.path.join(tag, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                                stdout=subprocess.PIPE, text=True, cwd=self.root)
        watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"worker failed (exit {proc.returncode})")
        with open(spec["result_out"], encoding="utf-8") as fh:
            result = json.load(fh)
        if trace:
            result["spans"] = spans.load(spec["spans_out"])
        refs = result["refs"]
        result["norm"] = [speed.normalise(o["seconds"], [refs[i], *o["refs"], refs[i + 1]])
                          for i, o in enumerate(result["results"])]
        result["wall_s"] = sum(result["norm"])
        result["raw_wall_s"] = sum(o["seconds"] for o in result["results"])
        result["setup_raw_s"] = ready - started
        return result

    def setup_sample(self):
        """Start one worker with no requests and record its set-up time."""
        before = speed.reference_seconds()
        raw = self.worker([])["setup_raw_s"]
        after = speed.reference_seconds()
        self.setup_raw.append(raw)
        self.setup_times.append(speed.normalise(raw, [before, after]))


def request_hash(plan):
    text = json.dumps(plan, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tail(samples):
    """(value, percentile, sample count): the highest order statistic with at
    least ten samples above it."""
    xs = sorted(samples)
    k = len(xs) - 11
    if k < 0:
        raise ValueError(f"tail needs at least 11 samples, got {len(xs)}")
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def git_sha(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def tally(plan, passes):
    """(attempted, failed, known-defect attempts, known defects still open,
    failure reasons) over every pass."""
    attempted = failed = defects = open_defects = 0
    reasons = []
    for result in passes:
        for request, outcome in zip(plan["requests"], result["results"]):
            attempted += 1
            if request.get("defect"):
                defects += 1
                open_defects += not outcome["ok"]
            elif not outcome["ok"]:
                failed += 1
                reasons.append(f"{' '.join(request['argv'])}: {outcome['why']}"
                               f"{' (' + outcome['error'] + ')' if outcome['error'] else ''}")
    return attempted, failed, defects, open_defects, reasons


def measure(harness, seconds):
    """Closed loop of untraced passes; returns (passes, end-to-end metrics, notes)."""
    plan = harness.plan
    passes = []
    run_started = time.perf_counter()
    while len(harness.setup_times) < SETUP_SAMPLES:
        harness.setup_sample()
    while True:
        pass_started = time.perf_counter()
        passes.append(harness.worker(plan["requests"]))
        last = time.perf_counter() - pass_started
        elapsed = time.perf_counter() - run_started
        if len(passes) >= 2 and elapsed + last > seconds:
            break
    times = [t for p in passes for t in p["norm"]]
    tail_s, pct, tail_n = tail([t for p in passes[:2] for t in p["norm"]])
    metrics = {
        "setup_s": statistics.median(harness.setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "request_p50_s": statistics.median(times),
        "request_tail_s": tail_s,
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024.0,
    }
    notes = {"passes": len(passes), "request_p50_samples": len(times),
             "request_tail_percentile": round(pct, 2), "request_tail_samples": tail_n,
             "setup_samples": len(harness.setup_times),
             "raw_setup_s": statistics.median(harness.setup_raw),
             "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
             "raw_request_p50_s": statistics.median(
                 o["seconds"] for p in passes for o in p["results"]),
             "reference_loop_s": statistics.median(r for p in passes for r in p["refs"]),
             "reference_nominal_s": speed.REFERENCE_NOMINAL_S}
    return passes, metrics, notes


def layer_metrics(traced, untraced_wall):
    header, arrays = traced["spans"]
    calls_self = spans.self_times(header, arrays)
    counters = header["counters"]
    metrics = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls_self[base][0] if base in calls_self else counters.get(base, 0)
        elif kind == "self_s" and base in calls_self:
            metrics[name] = calls_self[base][1]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v[1] for k, v in calls_self.items()
                                         if k.startswith(layer + "."))
    add_calls = metrics["linalg.add_row.calls"]
    metrics["linalg.add_row.rank_growth_ratio"] = (
        counters.get("linalg.add_row.rank_grew", 0) / add_calls if add_calls else 0.0)
    lookups = calls_self["algebra.algebra_component"][0]
    builds = counters.get("algebra.component_build", 0)
    metrics["algebra.component_cache.hit_ratio"] = 1 - builds / lookups if lookups else 0.0
    for key in ("series.laurent_mul.operand_terms", "algebra.component_basis.monomials",
                "algebra.relation_rows.rows", "cli.output_bytes"):
        metrics[key] = counters.get(key, 0)
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall
    return metrics


def coverage_problems(workload, metrics):
    problems = []
    for name in EXERCISED[workload]:
        if metrics[f"{name}.calls"] == 0:
            problems.append(f"{name} predicted exercised, recorded no calls")
    for name in BYPASSED[workload]:
        if metrics[f"{name}.calls"] != 0:
            problems.append(f"{name} predicted bypassed, recorded "
                            f"{metrics[f'{name}.calls']} calls")
    hit = metrics["algebra.component_cache.hit_ratio"]
    if workload == "algebra-rank" and hit > 0.05:
        problems.append(f"component cache hit ratio {hit:.3f} on algebra-rank, predicted ~0")
    if workload == "algebra-homology" and hit <= 0:
        problems.append("component cache never hit on algebra-homology")
    return problems


def trace_run(harness, workload):
    """One untraced and one traced pass; returns (passes, per-layer metrics,
    problems)."""
    plain = harness.worker(harness.plan["requests"])
    traced = harness.worker(harness.plan["requests"], trace=True)
    for a, b in zip(plain["results"], traced["results"]):
        if a["sha256"] != b["sha256"] or a["code"] != b["code"]:
            b["ok"] = False
            b["why"] = "traced output differs from untraced"
    metrics = layer_metrics(traced, plain["wall_s"])
    return [plain, traced], metrics, coverage_problems(workload, metrics)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quivercalc", "cli.py")):
        print("error: run from the root of a quivercalc checkout "
              "(src/quivercalc/cli.py not found)", file=sys.stderr)
        return 2
    plan = workloads.generate(args.workload, args.seed)
    harness = Harness(root, plan)
    try:
        if args.trace:
            passes, metrics, problems = trace_run(harness, args.workload)
            units = PER_LAYER
            notes = {"passes": 2}
        else:
            passes, metrics, notes = measure(harness, args.seconds)
            units = END_TO_END
            problems = []
    finally:
        harness.close()
    attempted, failed, defects, open_defects, reasons = tally(plan, passes)
    provenance = {
        "workload": args.workload, "seed": args.seed, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(root),
        "request_hash": request_hash(plan), "requests_per_pass": len(plan["requests"]),
        "failed_ratio": failed / attempted, "known_defect_requests": defects,
        "known_defects_open": open_defects,
        "cache_state": "fresh worker per pass: component cache and lru_cache tables start empty",
        **notes,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    for line in reasons[:20] + problems:
        print(f"check failed: {line}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
