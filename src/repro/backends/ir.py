"""The batch-axis kernel IR: the lowering walk's ops, recorded.

:func:`build_kernel_ir` runs the lowering walk of
:mod:`repro.core.lowering` — the same code that prints the numpy
kernels — with an op recorder in place of the numpy renderer, so each
node becomes an explicit SSA list of batch ops plus its stores.
Nothing executes the IR; it is the printed source's decisions in data
form (docs/fusion.md, "Kernel IR").

Semantics contract: an IR op means exactly what
:meth:`repro.core.codegen.ExprCodegen.op` renders for it, the uint64 /
widevec tier.  The two cannot drift apart: they are one walk.  A value
is an ``(N,)`` uint64 lane vector when its context width fits one limb
and an ``(L, N)`` little-endian limb matrix otherwise.  The fused
emitter's packed/native tiers are proven bit-identical to that tier by
the translation validator.

Execution units are the fused bundle's
(:func:`~repro.core.codegen.program_units`): the whole combinational
phase in ``comb_topo`` order, then one unit per sequential clock domain.
Stores carry resolved placements (shadow slots for SEQ targets,
cond/addr/data scratch for guarded memory writes) in the
``pack_bits=True`` :class:`~repro.core.memory.MemoryLayout`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.codegen import MemWriteBinding, mem_write_bindings, program_units
from repro.core.lowering import BatchOpWalk, IrStore
from repro.core.memory import MemoryLayout
from repro.partition.taskgraph import TaskGraph
from repro.rtlir.graph import NodeKind

__all__ = [
    "IrOp",
    "IrStore",
    "NodeIr",
    "KernelUnit",
    "KernelIR",
    "build_kernel_ir",
    "validate_ir",
]

@dataclass(frozen=True)
class IrOp:
    """One SSA batch op.  ``vid`` indexes the node-local value table."""

    vid: int
    opcode: str
    args: Tuple[int, ...]
    attrs: Mapping[str, object]
    limbs: int  # result representation: 1 -> (N,) u64, L>1 -> (L,N)

    def render(self) -> str:
        args = ", ".join(f"v{a}" for a in self.args)
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.attrs.items()))
        body = ", ".join(s for s in (args, attrs) if s)
        return f"v{self.vid} = {self.opcode}({body})  ; limbs={self.limbs}"


@dataclass
class NodeIr:
    """The flattened program of one RTL node (ops then stores)."""

    nid: int
    target: str
    kind: str  # "comb" | "seq" | "memw"
    ops: List[IrOp]
    stores: List[IrStore]


@dataclass
class KernelUnit:
    """One execution unit: the comb phase, or one sequential domain."""

    name: str
    kind: str  # "comb" | "seq"
    domain: Optional[Tuple[str, str]]
    tids: List[int]
    nodes: List[NodeIr]


@dataclass
class KernelIR:
    """The complete kernel IR of one task graph."""

    top: str
    layout: MemoryLayout
    units: List[KernelUnit]
    mem_writes: List[MemWriteBinding]
    taskgraph: TaskGraph = field(repr=False, compare=False, default=None)

    @property
    def comb(self) -> KernelUnit:
        return self.units[0]

    def seq_units(self) -> List[KernelUnit]:
        return [u for u in self.units if u.kind == "seq"]

    def render(self) -> str:
        """A textual listing of the IR."""
        lines = [f"; kernel IR for {self.top}"]
        for unit in self.units:
            dom = f" {unit.domain[1]} {unit.domain[0]}" if unit.domain else ""
            lines.append(f"unit {unit.name} [{unit.kind}{dom}] "
                         f"({len(unit.nodes)} nodes)")
            for node in unit.nodes:
                lines.append(f"  node {node.nid} ({node.kind}) -> {node.target}")
                for op in node.ops:
                    lines.append(f"    {op.render()}")
                for st in node.stores:
                    lines.append(f"    {st.render()}")
        return "\n".join(lines) + "\n"


class _OpRecorder(BatchOpWalk[int]):
    """The lowering walk with an op recorder: each op becomes an
    :class:`IrOp` whose vid indexes the node-local value table."""

    def __init__(self, layout: MemoryLayout, graph):
        super().__init__(layout, graph)
        self.ops: List[IrOp] = []

    def op(self, opcode: str, args: Tuple[int, ...], attrs: Dict[str, object],
           limbs: int) -> int:
        self.ops.append(IrOp(len(self.ops), opcode, tuple(args), dict(attrs),
                             limbs))
        return len(self.ops) - 1


def build_kernel_ir(
    taskgraph: TaskGraph, layout: Optional[MemoryLayout] = None
) -> KernelIR:
    """Lower ``taskgraph`` to the kernel IR.

    Uses (or builds) the same ``pack_bits=True`` layout as the fused
    numpy lowering, so the two agree on every store placement, and the
    same execution units (:func:`~repro.core.codegen.program_units`).
    """
    graph = taskgraph.graph
    layout = layout or MemoryLayout.from_graph(graph, pack_bits=True)

    def lower(nid: int) -> NodeIr:
        node = graph.nodes[nid]
        rec = _OpRecorder(layout, graph)
        stores = rec.lower_stores(node)
        return NodeIr(nid=nid, target=node.target, kind=node.kind.value,
                      ops=rec.ops, stores=stores)

    units = [
        KernelUnit(
            name=name, kind="seq" if dom else "comb", domain=dom, tids=tids,
            nodes=[lower(nid) for tid in tids
                   for nid in taskgraph.tasks[tid].nodes],
        )
        for name, dom, tids in program_units(taskgraph)
    ]
    return KernelIR(
        top=graph.design.top,
        layout=layout,
        units=units,
        mem_writes=mem_write_bindings(graph, layout),
        taskgraph=taskgraph,
    )


def validate_ir(ir: KernelIR) -> List[str]:
    """Structural well-formedness checks; returns problem strings.

    Re-derives the invariants a consumer relies on: SSA ordering, store
    placements inside their pools, exactly-once task coverage across
    units, and sequential-domain completeness.  An empty list means the
    IR is safe to interpret.
    """
    problems: List[str] = []
    layout = ir.layout
    tg = ir.taskgraph

    def check_placement(where: str, pool: int, offset: int, limbs: int,
                        packed: bool) -> None:
        if packed:
            if not (0 <= offset < layout.packed_size):
                problems.append(
                    f"{where}: packed offset {offset} outside P1 pool "
                    f"of {layout.packed_size} blocks")
            return
        if not (0 <= pool < len(layout.pool_sizes)):
            problems.append(f"{where}: pool index {pool} out of range")
            return
        if offset < 0 or offset + limbs > layout.pool_sizes[pool]:
            problems.append(
                f"{where}: offsets [{offset},{offset + limbs}) outside "
                f"pool {pool} of {layout.pool_sizes[pool]}")

    for unit in ir.units:
        for node in unit.nodes:
            where = f"{unit.name}/node{node.nid}"
            for i, op in enumerate(node.ops):
                if op.vid != i:
                    problems.append(f"{where}: op {i} has vid {op.vid}")
                if any(a >= op.vid or a < 0 for a in op.args):
                    problems.append(
                        f"{where}: op v{op.vid} ({op.opcode}) references "
                        f"a later or negative value")
                if op.opcode == "load":
                    check_placement(
                        where, op.attrs["pool"], op.attrs["offset"],
                        op.limbs, op.attrs["packed"])
            if not node.stores:
                problems.append(f"{where}: node has no stores")
            for st in node.stores:
                if not (0 <= st.value < len(node.ops)):
                    problems.append(
                        f"{where}: store of undefined value v{st.value}")
                check_placement(where, st.pool, st.offset, st.limbs,
                                st.packed)

    if tg is not None:
        seen: Dict[int, str] = {}
        for unit in ir.units:
            for tid in unit.tids:
                if tid in seen:
                    problems.append(
                        f"task {tid} lowered in both {seen[tid]} and "
                        f"{unit.name}")
                seen[tid] = unit.name
        missing = [t.tid for t in tg.tasks if t.tid not in seen]
        if missing:
            problems.append(f"tasks never lowered: {missing}")
        want_domains = {
            (t.clock, t.edge) for t in tg.tasks if t.kind is NodeKind.SEQ
        }
        have_domains = {u.domain for u in ir.units if u.kind == "seq"}
        if want_domains != have_domains:
            problems.append(
                f"sequential domains {sorted(have_domains)} do not match "
                f"the task graph's {sorted(want_domains)}")
    return problems
