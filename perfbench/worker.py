"""One benchmark worker: a fresh interpreter that runs one pass of requests.

Usage: python3 worker.py SPEC_JSON

The spec names the source tree, the worker's own directory, the generated
files and the request list.  The worker imports quivercalc, writes the files,
prints "ready" (the parent's setup clock stops there), then calls
`quivercalc.cli.main(argv, out=buffer)` for each request in turn and writes a
result JSON next to the spec.  Expectations are checked after each request's
clock stops.  The reference loop of speed.py is timed before the first request,
after each one and, in untraced passes, every speed.SAMPLE_INTERVAL_S during
one, so the parent can put request times on one CPU speed.  Before each
request the worker collects garbage and freezes what survives (gc.freeze), off
the clock: a request then pays for collecting its own objects only, as it
would in a fresh CLI process, and not for scanning the components and tables
that earlier requests left cached, whose scan cost would otherwise land on
whichever request happens to trip a full collection.  With "trace" set, timing
wrappers are installed before "ready" and the spans are saved on exit."""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time


def run_request(cli, argv, sampler):
    """(exit code or None, error type or None, stdout text, seconds, reference
    timings taken during the request)."""
    out = io.StringIO()
    err = io.StringIO()
    error = None
    with sampler:
        started = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(list(argv), out=out, err=err)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed request, not a harness crash
            code = None
            error = type(exc).__name__
        seconds = time.perf_counter() - started - sampler.paused
    return code, error, out.getvalue(), seconds, sampler.refs


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import quivercalc  # noqa: F401  (setup cost: the package import)
    from quivercalc import cli
    import speed
    import workloads

    workdir = spec["workdir"]
    os.makedirs(workdir, exist_ok=True)
    for name, text in spec["files"].items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    os.chdir(workdir)
    recorder = None
    if spec["trace"]:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    # spans of a traced pass should not hold the sampler's reference loops;
    # an interval of 0 never arms the timer
    sampler = speed.Sampler(0 if recorder else speed.SAMPLE_INTERVAL_S)
    print("ready", flush=True)

    results = []
    refs = [speed.reference_seconds()] if spec["requests"] else []
    for i, request in enumerate(spec["requests"]):
        if recorder is not None:
            recorder.request = i
        gc.collect()
        gc.freeze()
        code, error, text, seconds, during = run_request(cli, request["argv"], sampler)
        if recorder is not None:
            recorder.count("cli.output_bytes", len(text.encode()))
        ok, why = workloads.check(request["expect"], code, text)
        results.append({"code": code, "error": error, "seconds": seconds, "refs": during,
                        "sha256": hashlib.sha256(text.encode()).hexdigest(),
                        "ok": ok, "why": why})
        refs.append(speed.reference_seconds())
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.save(spec["spans_out"])
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump({"results": results, "refs": refs, "maxrss_kb": maxrss_kb}, fh)


if __name__ == "__main__":
    main(sys.argv[1])
