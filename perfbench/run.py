"""Benchmark of incitoric: time to a verified verdict, end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload faces --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md): faces, volumes, toric, claims.  The
seed makes the workload's inputs; the library only receives them.

Each pass runs in a fresh interpreter (perfbench/worker.py), so no
process-global cache carries results from one pass to the next, and uses
one worker process (``RunConfig(workers=1)``).  Passes repeat until
``--seconds`` of passes have run; a pass is never cut short, so a run
measures at least one whole pass.  Set-up (interpreter start, import,
building the inputs) is also timed in extra set-up-only interpreters, so
that every run has at least ``SETUP_SAMPLES`` set-up samples; their median
is reported.

Times are in seconds of a reference machine: steadyclock.py scales them by
how fast a fixed snippet of pure-Python work runs at that moment, which
takes out most of the slow-downs other tenants cause on a shared machine.
The unscaled times and the processor times are printed too, on a line of
their own.  Most queries run three times, round by round, and a query's
latency is the median of its runs (workloads.py).

Every result is re-checked by perfbench/workloads.py with plain integer
arithmetic.  ``attempted`` counts checked results and ``failed`` those that
raised or failed a check, so failed / attempted is the fail ratio.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured with no wrapper installed.  With ``--trace 1`` every pass is
traced, at least two of them, and the run reports the per-layer metrics:
counts, inclusive (``.s``) and self (``.self_s``) seconds per traced
function, the tracing overhead and the span count.  A traced run also
checks coverage (counts fixed by the inputs) and determinism (the traced
passes give the same counts); these checks are printed on lines of their
own and make ``correct`` false when they fail, but are not results and do
not count in ``attempted``.  The spans of the first traced pass are
written to perfbench/out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 21
PASS_TIMEOUT_S = 150


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, inputs: dict, trace: bool, setup_only: bool) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spawned_at = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate(json.dumps({
            "workload": workload, "inputs": inputs, "trace": trace,
            "setup_only": setup_only, "spawned_at": spawned_at}))
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise PassFailed(f"{workload} worker exited with code {proc.returncode} before reporting")
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them; a single value
    stands for all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(passes: list, setups: list) -> dict:
    """Each end-to-end metric as (value, samples): medians over the run's
    passes, and percentiles of the query latencies pooled over them."""
    queries = [ms for p in passes for ms in p["queries_ms"]]
    out = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    out = {name: (statistics.median(values), values) for name, values in out.items()}
    out["query_p50_ms"] = (statistics.median(queries), queries)
    out["query_p90_ms"] = (statistics.quantiles(queries, n=10)[8], queries)
    return out


def unscaled(passes: list, setups: list) -> dict:
    """Medians of the same wall and set-up times, unscaled and as processor
    time, to judge the scaling against."""
    def median(reports, key):
        return statistics.median(r[key] for r in reports)

    return {
        "wall_s": {"raw": median(passes, "raw_wall_s"), "cpu": median(passes, "cpu_s")},
        "setup_s": {"raw": median(setups, "raw_setup_s"), "cpu": median(setups, "setup_cpu_s")},
    }


def layer_value(name: str, traces: list):
    """One per-layer metric: counts from the first traced pass (the
    determinism check holds them equal), times as medians over the passes."""
    if name == "trace.overhead_s":
        return statistics.median(t["overhead_s"] for t in traces)
    if name == "trace.spans":
        return len(traces[0]["spans"])
    fn, _, kind = name.rpartition(".")
    if kind in ("self_s", "s"):
        key = "self_s" if kind == "self_s" else "incl_s"
        return statistics.median(t[key].get(fn, 0.0) for t in traces)
    return traces[0]["counts"].get(name, 0)


def deterministic_counts(trace: dict) -> dict:
    counts = dict(trace["counts"])
    counts["trace.spans"] = len(trace["spans"])
    counts["polytope.simplices"] = trace["simplex_counts"]
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "incitoric" / "__init__.py").is_file():
        print(f"error: no incitoric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs = workloads.make_inputs(args.workload, args.seed)
    trace = bool(args.trace)

    passes = []
    start = perf_counter()
    while len(passes) < (2 if trace else 1) or perf_counter() - start < args.seconds:
        passes.append(run_pass(args.workload, inputs, trace, setup_only=False))
    setups = list(passes)
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(args.workload, inputs, False, setup_only=True))

    checks = []
    for report in passes:
        checks += workloads.check(args.workload, inputs, report["results"])
    failed = [what for what, ok in checks if not ok]
    for what in failed:
        print(f"FAILED {what}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  {len(passes)} "
          f"{'traced' if trace else 'untraced'} passes, {len(setups)} set-ups")
    print(f"  fail_ratio     {len(failed) / len(checks):.6g}  "
          f"({len(failed)} of {len(checks)} results)")

    trace_failed = []
    if trace:
        traces = [p["trace"] for p in passes]
        trace_checks = [(f"coverage: {what}", ok) for t in traces
                        for what, ok in workloads.coverage(args.workload, inputs, t)]
        trace_checks.append(("determinism: traced passes give the same counts",
                             all(deterministic_counts(t) == deterministic_counts(traces[0])
                                 for t in traces)))
        for what, ok in trace_checks:
            print(f"  {'ok' if ok else 'FAILED'}  {what}")
        trace_failed = [what for what, ok in trace_checks if not ok]
        metrics = {}
        for m in spec["per_layer"]:
            value = layer_value(m["name"], traces)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<40} {value:.6g} {m['unit']}")
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                          "spans": traces[0]["spans"]}))
    else:
        samples = end_to_end(passes, setups)
        for m in spec["end_to_end"]:
            value, values = samples[m["name"]]
            q1, _, q3 = quartiles(values)
            print(f"  {m['name']:<14} {value:.6g} {m['unit']}  (of n={len(values)} samples: "
                  f"q1 {q1:.6g}, q3 {q3:.6g})")
        metrics = {m["name"]: {"value": samples[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print("unscaled " + json.dumps(unscaled(passes, setups)))

    print(json.dumps({"correct": not failed and not trace_failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind so that run_pass() kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
