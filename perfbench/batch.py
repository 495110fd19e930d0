"""The batch workloads: large-batch throughput of the default simulation path.

Every design goes through the path a user gets with no options:
``RTLFlow.from_source`` -> ``flow.simulator(n)`` -> ``BatchSimulator.run``.
The benchmark generates stimulus with each bundle's ``make_stimulus``
and hands only the generated inputs to the program.

* ``batch_datapath`` -- crypto, spinal, counter.  Their random recipes
  toggle every lane's datapath every cycle, so per-element numpy kernel
  work dominates (crypto's 96-bit multi-limb shifts included) and
  per-cycle dispatch is amortised over the batch.  Activity gating has
  nothing to skip here.
* ``batch_control`` -- riscv_mini (program image preloaded) and nvdla
  (weights preloaded).  Control-heavy designs with memory gathers and
  dynamic bit-selects, where most logic is quiescent each cycle.
"""

from __future__ import annotations

import gc
import hashlib
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import geomean, median, peak_rss_mb
from tracing import RUN_TARGETS, SETUP_TARGETS, SpanRecorder

from repro import RTLFlow
from repro.backends import build_kernel_ir
from repro.baselines.reference import ReferenceSimulator
from repro.designs import get_design

WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "batch_datapath": ("crypto", "spinal", "counter"),
    "batch_control": ("riscv_mini", "nvdla"),
}

LANES = 2048
CYCLES = 100
#: Cold set-ups per run: this process plus fresh child processes.
SETUP_SAMPLES = 7
#: Every design runs at least this often, even past the deadline, so
#: each per-design median has a sample to stand on.
MIN_REPEATS = 3
#: Lanes checked against the golden interpreter: lane 0, the last lane,
#: and this many more drawn from the seed.
EXTRA_CHECK_LANES = 2

_SETUP_NAMES = sorted({t[2] for t in SETUP_TARGETS})


def build(bundle, n: int):
    """Verilog text -> simulator ready, exactly as a user does it."""
    flow = RTLFlow.from_source(bundle.source, bundle.top)
    sim = flow.simulator(n)
    bundle.preload(sim)
    return flow, sim


def cold_setup(names: Sequence[str], n: int) -> Tuple[float, dict]:
    """Set up every design once; returns (seconds summed, {name: (bundle, flow)})."""
    total = 0.0
    built = {}
    for name in names:
        bundle = get_design(name)
        t0 = time.perf_counter()
        flow, _sim = build(bundle, n)
        total += time.perf_counter() - t0
        built[name] = (bundle, flow)
    return total, built


def setup_in_fresh_process(workload: str) -> float:
    """One cold set-up of ``workload``'s designs in a new interpreter."""
    probe = __file__.replace("batch.py", "setup_probe.py")
    proc = subprocess.run(
        [sys.executable, probe, workload], capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def fingerprint(outputs: Dict[str, np.ndarray]) -> str:
    """sha256 over every lane of every output (wide lanes as hex ints)."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        arr = outputs[name]
        h.update(name.encode())
        if arr.dtype == object:
            h.update(",".join(format(int(v), "x") for v in arr).encode())
        else:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def check_lanes(n: int, seed: int) -> List[int]:
    rng = np.random.default_rng(seed)
    extra = rng.choice(np.arange(1, n - 1), size=EXTRA_CHECK_LANES, replace=False)
    return sorted({0, n - 1, *(int(x) for x in extra)})


class Design:
    """One design of a batch workload: its flow, stimulus, golden lanes
    and the samples measured on it."""

    def __init__(self, name: str, bundle, flow, seed: int):
        self.name = name
        self.bundle = bundle
        self.flow = flow
        self.stim = bundle.make_stimulus(LANES, CYCLES, seed)
        self.lanes = check_lanes(LANES, seed)
        self.golden = {lane: self._reference(lane) for lane in self.lanes}
        self.digest: Optional[str] = None
        self.attempts = 0
        self.run_s: List[float] = []
        self.build_s: List[float] = []

    @property
    def lane_cycles(self) -> int:
        return LANES * CYCLES

    def _reference(self, lane: int) -> Dict[str, int]:
        ref = ReferenceSimulator(self.flow.graph)
        self.bundle.preload(ref)
        for step in self.stim.lane(lane):
            ref.cycle(step)
        return {w: int(ref.get(w)) for w in self.bundle.watch}

    def check(self, outputs: Dict[str, np.ndarray]) -> Tuple[bool, str]:
        """Sampled lanes bit for bit against the golden interpreter, and
        every lane identical to the first run of the same stimulus."""
        for lane, want in self.golden.items():
            for w, value in want.items():
                got = int(outputs[w][lane])
                if got != value:
                    return False, (f"{self.name}: {w}[lane {lane}] = {got:#x}, "
                                   f"golden {value:#x}")
        digest = fingerprint(outputs)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return False, f"{self.name}: outputs differ between repeats"
        return True, ""

    def lane_cycles_per_s(self) -> float:
        return self.lane_cycles / median(self.run_s)


def run_once(d: Design, tally, recorder: Optional[SpanRecorder] = None):
    """One operation: build a simulator for ``d``, run it, check it.

    Returns (wall seconds, simulator or None on failure).  Only a run
    that passes its check contributes time samples.
    """
    d.attempts += 1
    if recorder is not None:
        recorder.label = d.name
        recorder.request = f"{d.name}#{d.attempts}"
    # A BatchSimulator is part of a reference cycle (its arrays' write
    # hook is a bound method), so earlier simulators are freed only by
    # the cyclic collector.  Collect here, untimed, so neither their
    # memory nor a collection pause lands in this operation.
    gc.collect()
    t0 = time.perf_counter()
    try:
        sim = d.flow.simulator(LANES)
        d.bundle.preload(sim)
        t1 = time.perf_counter()
        outputs = sim.run(d.stim, watch=d.bundle.watch)
        t2 = time.perf_counter()
        ok, why = d.check(outputs)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        tally.record(False, f"{d.name}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, None
    if not tally.record(ok, why):
        return time.perf_counter() - t0, None
    d.build_s.append(t1 - t0)
    d.run_s.append(t2 - t1)
    return time.perf_counter() - t0, sim


def measure(designs: Sequence[Design], seconds: float, tally,
            recorder: Optional[SpanRecorder] = None, on_run=None) -> None:
    """Interleave operations so every design gets an equal share of
    ``seconds``; ``on_run(design, sim)`` sees every passing run."""
    deadline = time.perf_counter() + seconds
    spent = {d.name: 0.0 for d in designs}
    while True:
        short = [d for d in designs if d.attempts < MIN_REPEATS]
        if time.perf_counter() >= deadline:
            if not short:
                return
            d = short[0]
        else:
            d = min(designs, key=lambda d: spent[d.name])
        wall, sim = run_once(d, tally, recorder)
        spent[d.name] += wall
        if sim is not None and on_run is not None:
            on_run(d, sim)
        del sim


def pool_activity(flow, bundle, stim, lanes: int):
    """Share of memory-pool words that change per simulated cycle, over
    every cycle of ``stim``; returns it with the simulator it ran on."""
    sim = flow.simulator(lanes)
    bundle.preload(sim)
    pools = sim.arrays.pools
    changed = total = 0
    for c in range(len(stim)):
        before = [p.copy() for p in pools]
        sim.cycle(stim.inputs_at(c))
        for b, p in zip(before, pools):
            changed += int(np.count_nonzero(b != p))
            total += p.size
    return changed / max(1, total), sim


def properties(designs: Sequence[Design]) -> dict:
    """The workload-property record written with each result."""
    out = {}
    for d in designs:
        ratio, sim = pool_activity(d.flow, d.bundle, d.stim, LANES)
        out[d.name] = {
            "lanes": LANES,
            "cycles": CYCLES,
            "lane_cycles": d.lane_cycles,
            "lane_cycles_per_s": d.lane_cycles_per_s() if d.run_s else None,
            "runs": len(d.run_s),
            "core.memory.words_changed_ratio": ratio,
            "executor": type(sim.executor).__name__,
            "backend": sim.backend,
        }
    return out


def prepare(workload: str, seed: int, built: dict) -> List[Design]:
    return [Design(name, *built[name], seed=seed) for name in WORKLOADS[workload]]


def run_untraced(workload: str, seed: int, seconds: float, tally):
    """End-to-end metrics.  Returns (metrics {name: value}, properties)."""
    names = WORKLOADS[workload]
    first, built = cold_setup(names, LANES)
    setups = [first] + [
        setup_in_fresh_process(workload) for _ in range(SETUP_SAMPLES - 1)
    ]
    designs = prepare(workload, seed, built)
    measure(designs, seconds, tally)
    rss_mb = peak_rss_mb()
    props = properties(designs)
    props["setup_samples_s"] = setups
    metrics = {
        "setup_s": median(setups),
        "lane_cycles_per_s": geomean([d.lane_cycles_per_s() for d in designs]),
        "cold_latency_p50_s": sum(
            median([b + r for b, r in zip(d.build_s, d.run_s)]) for d in designs
        ),
        "hit_latency_p50_s": sum(median(d.build_s) for d in designs),
        "peak_rss_mb": rss_mb,
    }
    return metrics, props


def ir_ops(flow) -> int:
    ir = build_kernel_ir(flow.compile().taskgraph)
    return sum(len(node.ops) for unit in ir.units for node in unit.nodes)


def run_traced(workload: str, seed: int, seconds: float, tally,
               recorder: SpanRecorder):
    """Per-layer metrics: a cold set-up under the set-up spans, half the
    time untraced, half under the simulation-loop spans."""
    unattributed = 0.0
    built = {}
    with recorder.patched(SETUP_TARGETS):
        for name in WORKLOADS[workload]:
            bundle = get_design(name)
            recorder.label = name
            recorder.request = f"{name}#setup"
            t0 = time.perf_counter()
            flow, _sim = build(bundle, LANES)
            unattributed += (time.perf_counter() - t0
                             - recorder.top_level_seconds(name))
            built[name] = (bundle, flow)
    designs = prepare(workload, seed, built)
    measure(designs, seconds / 2, tally)
    untraced = {d.name: d.lane_cycles_per_s() for d in designs}
    for d in designs:
        d.run_s.clear()
        d.build_s.clear()
        d.attempts = 0
    device = {d.name: {"launches": 0, "busy": 0.0, "stopwatch_inputs": 0.0,
                       "pool_bytes": 0} for d in designs}

    def on_run(d: Design, sim) -> None:
        acc = device[d.name]
        acc["launches"] += (sim.device.stats.kernel_launches
                            + sim.device.stats.graph_launches)
        acc["busy"] += sim.device.stats.busy_seconds
        acc["stopwatch_inputs"] += sim.stopwatch.total("set_inputs")
        acc["pool_bytes"] = sum(pool.nbytes for pool in sim.arrays.pools)

    with recorder.patched(RUN_TARGETS):
        measure(designs, seconds / 2, tally, recorder, on_run)
    traced = {d.name: d.lane_cycles_per_s() for d in designs}

    m: Dict[str, float] = {}
    for d in designs:
        p = d.name + "."
        spans = recorder.totals(d.name)
        for key in _SETUP_NAMES:
            m[p + key] = spans.get(key, {}).get("self", 0.0)
        m[p + "partition.tasks"] = spans["partition.partition_s"]["count"]
        m[p + "backends.ir_ops"] = ir_ops(d.flow)
        acc = device[d.name]
        k = spans["core.simulator.run_s"]["calls"]
        run = spans["core.simulator.run_s"]["seconds"]
        evaluate = spans["core.simulator.evaluate_s"]["seconds"]
        readback = spans["core.simulator.readback_s"]["seconds"]
        inputs = spans.get("core.simulator.set_inputs_s", {}).get("seconds", 0.0)
        if inputs == 0.0:
            # Direct-apply runs bypass set_inputs; the simulator's
            # always-on stopwatch still times that input application.
            inputs = acc["stopwatch_inputs"]
        m[p + "core.simulator.run_s"] = run / k
        m[p + "core.simulator.set_inputs_s"] = inputs / k
        m[p + "core.simulator.evaluate_s"] = evaluate / k
        m[p + "core.simulator.readback_s"] = readback / k
        m[p + "core.simulator.loop_self_s"] = (run - inputs - evaluate - readback) / k
        m[p + "gpu.kernel_launches_per_cycle"] = (
            acc["launches"] / (len(d.run_s) * CYCLES)
        )
        m[p + "gpu.busy_s"] = acc["busy"] / len(d.run_s)
        m[p + "core.memory.pool_bytes"] = acc["pool_bytes"]
        m[p + "core.memory.words_changed_ratio"] = pool_activity(
            d.flow, d.bundle, d.stim, LANES
        )[0]
        m[p + "lane_cycles_per_s"] = untraced[d.name]
    m["setup.unattributed_s"] = unattributed
    m["trace.untraced_lane_cycles_per_s"] = geomean(list(untraced.values()))
    m["trace.traced_lane_cycles_per_s"] = geomean(list(traced.values()))
    return m

