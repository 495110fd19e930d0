"""Differential-testing helpers shared across the suite.

The paper validates RTLflow outputs against Verilator's golden reference;
here every engine is validated against :class:`ReferenceSimulator`.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.baselines.reference import ReferenceSimulator
from repro.core.codegen import KernelCodegen
from repro.core.simulator import BatchSimulator
from repro.partition.merge import partition
from repro.stimulus.batch import StimulusBatch
from repro.stimulus.generator import random_batch

from tests.conftest import compile_graph


def reference_traces(
    graph,
    stim: StimulusBatch,
    watch: Sequence[str],
    memories: Optional[Dict[str, Sequence[int]]] = None,
) -> Dict[str, np.ndarray]:
    """Per-cycle traces (cycles, N) from the golden model, lane by lane.

    Object dtype: traces hold Python ints so wide (>64-bit) signals
    compare exactly.
    """
    out = {w: np.zeros((stim.cycles, stim.n), dtype=object) for w in watch}
    for lane in range(stim.n):
        sim = ReferenceSimulator(graph)
        if memories:
            for name, vals in memories.items():
                sim.load_memory(name, vals)
        steps = stim.lane(lane)
        for c, step in enumerate(steps):
            sim.cycle(step)
            for w in watch:
                out[w][c, lane] = int(sim.get(w))
    return out


def batch_traces(
    graph,
    stim: StimulusBatch,
    watch: Sequence[str],
    executor: str = "graph",
    target_weight: float = 64.0,
    strategy: str = "levelpack",
    memories: Optional[Dict[str, Sequence[int]]] = None,
) -> Dict[str, np.ndarray]:
    """Per-cycle traces from the RTLflow batch simulator."""
    tg = partition(graph, target_weight=target_weight, strategy=strategy)
    model = KernelCodegen(tg).compile()
    sim = BatchSimulator(model, stim.n, executor=executor)
    if memories:
        for name, vals in memories.items():
            sim.load_memory(name, vals)
    out = {w: np.zeros((stim.cycles, stim.n), dtype=object) for w in watch}
    for c in range(stim.cycles):
        sim.cycle(stim.inputs_at(c))
        for w in watch:
            out[w][c] = [int(v) for v in sim.get(w)]
    return out


def assert_batch_matches_reference(
    source: str,
    top: str,
    n: int = 8,
    cycles: int = 20,
    seed: int = 0,
    watch: Optional[Sequence[str]] = None,
    executor: str = "graph",
    memories: Optional[Dict[str, Sequence[int]]] = None,
    target_weight: float = 64.0,
    strategy: str = "levelpack",
):
    """Run random stimulus through reference and batch engines; compare."""
    graph = compile_graph(source, top)
    if watch is None:
        watch = [s.name for s in graph.design.outputs]
    stim = random_batch(graph.design, n, cycles, seed=seed)
    ref = reference_traces(graph, stim, watch, memories)
    got = batch_traces(
        graph, stim, watch, executor=executor,
        target_weight=target_weight, strategy=strategy, memories=memories,
    )
    for w in watch:
        mism = np.nonzero(ref[w] != got[w])
        if mism[0].size:
            c, lane = int(mism[0][0]), int(mism[1][0])
            raise AssertionError(
                f"signal {w!r} mismatch at cycle {c} lane {lane}: "
                f"reference={ref[w][c, lane]:#x} batch={got[w][c, lane]:#x}"
            )
    return graph


#: Runtime shift/select calls that take a per-lane amount as their
#: second argument.
DYNAMIC_SHIFT_CALLS = ("wv.shl(", "wv.shr(", "bvb.b_shl(", "bvb.b_shr(")


def literal_shift_amounts(source: str) -> List[str]:
    """Calls in generated ``source`` that pass a dynamic shift a literal
    amount (``u64(17)`` or ``17``): constant amounts lower statically."""
    import re

    found = []
    for call in DYNAMIC_SHIFT_CALLS:
        start = source.find(call)
        while start >= 0:
            # Split the call's top-level arguments by paren depth.
            depth, args, cur = 0, [], []
            for ch in source[start + len(call):]:
                if ch == "," and depth == 0:
                    args.append("".join(cur))
                    cur = []
                    continue
                if ch in "([":
                    depth += 1
                elif ch in ")]":
                    if depth == 0:
                        break
                    depth -= 1
                cur.append(ch)
            args.append("".join(cur))
            amount = args[1].strip() if len(args) > 1 else ""
            if re.fullmatch(r"(u64\()?\d+\)?", amount):
                found.append(f"{call}..., {amount})")
            start = source.find(call, start + 1)
    return found


def dead_ir_ops(ir) -> List[str]:
    """Rendered ops of a kernel IR that no later op or store reads."""
    dead = []
    for unit in ir.units:
        for node in unit.nodes:
            used = {a for op in node.ops for a in op.args}
            used |= {st.value for st in node.stores}
            dead += [f"node {node.nid}: {op.render()}" for op in node.ops
                     if op.vid not in used]
    return dead
