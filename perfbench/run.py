"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Builds nothing: the program is
pure Python and is imported from ``src/``.  The metric names and units
come from ``BENCHMARK.json`` at the checkout root.  ``--trace 0``
measures the end-to-end metrics with no tracing at all; ``--trace 1``
is a separate run that records spans around each layer and reports the
per-layer metrics (see ``GLOSSARY.md``).

The last stdout line is the result record::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it records the workload's properties (lane-cycles per
design, pool-word activity, shards per job, executor and backend in
effect) and any failures.  Both also go to
``.perfbench_out/result-<workload>-<seed>-trace<t>.json``, and a traced
run writes its spans to ``.perfbench_out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys

from common import (
    ROOT, ProgramMissing, Tally, out_path, result_line, stop_helper_processes,
    use_program,
)

WORKLOADS = ("batch_datapath", "batch_control", "service_campaign")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def select(metrics: dict, declared: list) -> dict:
    """Exactly the declared metrics, with their declared units.

    A declared metric the workload does not exercise (a design it does
    not run, the service layers on a batch workload) reads 0.  A
    computed metric that is not declared is an error in the benchmark.
    """
    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {m["name"]: (metrics.get(m["name"], 0.0), m["unit"]) for m in declared}


def measure(args, tally: Tally):
    """Returns (metrics, extra record) for one run."""
    if args.workload == "service_campaign":
        import service as workload
    else:
        import batch as workload

    if args.trace:
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        metrics = workload.run_traced(
            args.workload, args.seed, args.seconds, tally, recorder
        )
        metrics["trace.overhead_share"] = (
            metrics["trace.untraced_lane_cycles_per_s"]
            / metrics["trace.traced_lane_cycles_per_s"] - 1.0
        )
        recorder.dump(out_path(f"spans-{args.workload}-{args.seed}.json"))
        return metrics, {}
    metrics, props = workload.run_untraced(
        args.workload, args.seed, args.seconds, tally
    )
    metrics["ok_rate"] = tally.ok_rate
    return metrics, {"properties": props}


def main(argv=None) -> int:
    args = parse_args(argv)
    atexit.register(stop_helper_processes)
    try:
        use_program()
        spec = load_spec()
    except (ProgramMissing, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tally = Tally()
    metrics, extra = measure(args, tally)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = result_line(tally, select(metrics, declared))
    record = dict(extra, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  failures=tally.failures)
    with open(out_path(f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(record, result=line), fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
