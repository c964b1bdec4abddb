"""Steadiness report: run the benchmark on several seeds, in two sets.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py --runs 10 [--workloads faces volumes] \\
        [--out perfbench/out/steadiness.json]

Each set runs every chosen workload once per seed, round-robin over the
workloads; set 1 uses seeds 1..runs, set 2 seeds runs+1..2*runs.  For each
end-to-end metric and workload it prints, per set, the median and
quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, and how far the second set's median lies from the
first's.  A spread at or above a third of the metric's bound in
BENCHMARK.json, or a drift beyond the bound, is marked.  For wall and
set-up time it also gives the spread of the same times unscaled (``raw``)
and as processor time (``cpu``), which shows what the scaling of
steadyclock.py removes.  With ``--trace`` it also makes one traced run per
workload and prints its per-layer metrics.  The exit code is 0 only when
every run reports correct results and nothing is marked.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, with the run's ``unscaled`` line under
    that key when it printed one."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("unscaled "):
            out["unscaled"] = json.loads(line[len("unscaled "):])
    return out


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    sets = []
    correct = True
    for first_seed in (1, args.runs + 1):
        results = {w: [] for w in args.workloads}
        for seed in range(first_seed, first_seed + args.runs):
            for w in args.workloads:
                out = run_once(w, seed, seconds, 0)
                correct = correct and out["correct"] and out["failed"] == 0
                results[w].append(out)
                print(f"set {len(sets) + 1} {w} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.6g}" for k, v in out["metrics"].items()), flush=True)
        sets.append(results)

    command = " ".join(["python3 perfbench/steadiness.py", *(argv or sys.argv[1:])])
    report = {"claim": None, "command": command,
              "python": platform.python_version(), "nproc": _nproc(),
              "run_seconds": seconds, "runs_per_set": args.runs,
              "seeds": [[1, args.runs], [args.runs + 1, 2 * args.runs]],
              "workloads": {}}
    marked = []
    print(f"\n{'workload':<8} {'metric':<13} {'set':<3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'drift':>7}  bound")
    for w in args.workloads:
        report["workloads"][w] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [summarize([r["metrics"][name]["value"] for r in s[w]]) for s in sets]
            drift = (per_set[1]["median"] - per_set[0]["median"]) / per_set[0]["median"]
            report["workloads"][w][name] = {"unit": m["unit"], "bound": bound,
                                            "sets": per_set, "drift": drift}
            if name in sets[0][w][0]["unscaled"]:
                report["workloads"][w][name]["unscaled_spread"] = {
                    kind: [round(summarize([r["unscaled"][name][kind] for r in s[w]])["spread"], 4)
                           for s in sets]
                    for kind in ("raw", "cpu")}
            for i, s in enumerate(per_set):
                flag = ""
                if s["spread"] >= bound / 3:
                    flag = " SPREAD"
                if i == 1 and abs(drift) > bound:
                    flag += " DRIFT"
                if flag:
                    marked.append(f"{w} {name} set {i + 1}:{flag}")
                print(f"{w:<8} {name:<13} {i + 1:<3} {s['median']:>11.6g} {s['q1']:>11.6g} "
                      f"{s['q3']:>11.6g} {s['spread']:>7.3f} "
                      f"{drift if i else 0:>7.3f}  {bound}{flag}")
            for kind, spreads in report["workloads"][w][name].get("unscaled_spread", {}).items():
                print(f"{'':<8} {name + ' ' + kind:<17} spread per set: "
                      + ", ".join(f"{x:.3f}" for x in spreads))

    if args.trace:
        report["traced"] = {}
        for w in args.workloads:
            out = run_once(w, 1, seconds, 1)
            correct = correct and out["correct"]
            report["traced"][w] = {k: v["value"] for k, v in out["metrics"].items()}
            print(f"\ntraced {w} seed 1 (correct: {out['correct']})")
            for k, v in out["metrics"].items():
                if v["value"]:
                    print(f"  {k:<40} {v['value']:.6g} {v['unit']}")

    report["correct"] = correct
    report["marked"] = marked
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("\nall results correct" if correct else "\nINCORRECT results")
    for line in marked:
        print("marked:", line)
    return 0 if correct and not marked else 1


def _nproc() -> int:
    import os

    return len(os.sched_getaffinity(0))


if __name__ == "__main__":
    sys.exit(main())
