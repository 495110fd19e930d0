"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Corrupts one output lane and checks that the benchmark counts the
operation as failed and keeps its time out of the throughput figures:

* batch: ``BatchSimulator.run`` is wrapped to flip a bit in the last
  lane of the first watched output, then the batch measurement loop
  runs on ``counter``;
* service: a cold result with one flipped lane, and a hit whose digest
  differs from its cold job, go through the service checker.

Exits 0 when every corruption is caught and the clean runs pass.
"""

from __future__ import annotations

import sys

from common import Tally, use_program

use_program()

import batch  # noqa: E402
import service  # noqa: E402

from repro.core.simulator import BatchSimulator  # noqa: E402
from repro.serve import encode_outputs, outputs_digest  # noqa: E402


def corrupting(run):
    def corrupt_last_lane(self, *args, **kwargs):
        outputs = run(self, *args, **kwargs)
        first = next(iter(outputs))
        outputs[first][-1] ^= 1
        return outputs

    return corrupt_last_lane


def batch_gate() -> list:
    problems = []
    _seconds, built = batch.cold_setup(["counter"], batch.LANES)
    d = batch.Design("counter", *built["counter"], seed=7)
    tally = Tally()
    original = BatchSimulator.run
    BatchSimulator.run = corrupting(original)
    try:
        batch.measure([d], 0.0, tally)
    finally:
        BatchSimulator.run = original
    if tally.attempted == 0 or tally.failed != tally.attempted:
        problems.append(f"batch: {tally.failed}/{tally.attempted} corrupted runs counted")
    if d.run_s:
        problems.append("batch: a corrupted run contributed a time sample")
    clean = Tally()
    d.attempts = 0
    batch.measure([d], 0.0, clean)
    if clean.failed or not d.run_s:
        problems.append(f"batch: clean runs failed: {clean.failures}")
    return problems


def service_gate() -> list:
    problems = []
    checker = service.Checker()
    seed = 11
    stim = checker.bundle.make_stimulus(service.LANES, service.CYCLES, seed)
    outputs = checker.flow.simulator(service.LANES).run(stim)

    def job(outs, cold: bool) -> service.Job:
        j = service.Job(seed, cold)
        j.result = {"digest": outputs_digest(outs), "outputs": encode_outputs(outs)}
        return j

    tally = Tally()
    bad = {k: v.copy() for k, v in outputs.items()}
    bad[next(iter(bad))][-1] ^= 1
    tally.record(*checker.check(job(bad, True)))
    if tally.failed != 1:
        problems.append("service: a cold result with a corrupted lane passed")
    tally.record(*checker.check(job(outputs, True)))
    if tally.failed != 1:
        problems.append(f"service: the clean cold result failed: {tally.failures}")
    tally.record(*checker.check(job(bad, False)))
    if tally.failed != 2:
        problems.append("service: a hit with a different digest passed")
    return problems


def main() -> int:
    problems = batch_gate() + service_gate()
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: ok" if not problems else "selftest: failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
