"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/prove.py [--runs 10] [--first-seed 1]
                               [--workload W ...] [--trace-runs 0] [--out FILE]
                               [--trajectory LABEL]

For every workload, runs ``perfbench/run.py`` once per seed with the
``run_seconds`` of ``BENCHMARK.json`` and reports, per end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: the distance between the quartiles as a share of the
median.  A spread at or above a third of the metric's bound is flagged
(``setup_s`` is exempt).  ``--trace-runs`` adds that many traced runs
per workload.  ``--out`` writes every run and the summary as JSON;
``--trajectory LABEL`` appends a compact entry (summary, per-seed
values, properties of the first run, the traced run's non-zero
per-layer metrics) labelled with, e.g., a commit id to
``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {
        "seed": seed, "trace": trace,
        "wall_s": time.perf_counter() - t0,
        "record": json.loads(lines[-2]),
        "result": json.loads(lines[-1]),
    }


def summarise(spec: dict, runs: list) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"]
                  for r in runs if r["trace"] == 0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / statistics.median(values)
        out[m["name"]] = {
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "bound": m["bound"],
            "steady": m["name"] == "setup_s" or spread < m["bound"] / 3,
        }
    return out


def entry(label: str, report: dict) -> dict:
    """The compact trajectory record of one ``prove.py`` report."""
    out = {"label": label, "date": time.strftime("%Y-%m-%d"),
           "host": f"{os.cpu_count()} vCPU", "run_seconds": report["run_seconds"],
           "workloads": {}}
    for name, w in report["workloads"].items():
        plain = [r for r in w["runs"] if r["trace"] == 0]
        traced = [r for r in w["runs"] if r["trace"] == 1]
        out["workloads"][name] = {
            "summary": w["summary"],
            "runs": [
                {"seed": r["seed"], "attempted": r["result"]["attempted"],
                 "failed": r["result"]["failed"],
                 "metrics": {k: v["value"]
                             for k, v in r["result"]["metrics"].items()}}
                for r in plain
            ],
            "properties": plain[0]["record"]["properties"] if plain else None,
            "traced": [
                {"seed": r["seed"],
                 "metrics": {k: v["value"]
                             for k, v in r["result"]["metrics"].items()
                             if v["value"]}}
                for r in traced
            ],
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--trajectory")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(name, args.first_seed + i, spec["run_seconds"], 0))
            r = runs[-1]
            print(f"{name} seed {r['seed']}: {r['wall_s']:.1f}s "
                  f"attempted {r['result']['attempted']} failed {r['result']['failed']}",
                  flush=True)
        for i in range(args.trace_runs):
            runs.append(run_once(name, args.first_seed + i, spec["run_seconds"], 1))
        summary = summarise(spec, runs)
        for metric, s in summary.items():
            print(f"  {metric:22s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}  {'ok' if s['steady'] else 'UNSTEADY'}",
                  flush=True)
        report["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    if args.trajectory:
        path = os.path.join(HERE, "trajectory.json")
        entries = []
        if os.path.exists(path):
            with open(path) as fh:
                entries = json.load(fh)
        entries.append(entry(args.trajectory, report))
        with open(path, "w") as fh:
            json.dump(entries, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
