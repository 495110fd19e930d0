"""The lowering walk: annotated RTL expressions to batch ops.

Every decision that maps an AST node to a batch operation lives here,
once, and ends in a single :meth:`BatchOpWalk.op` call.  Consumers only
say what an op *becomes*:

* :class:`repro.core.codegen.ExprCodegen` renders each op as numpy
  source text (the per-task kernels, and the uint64 fallback tier of
  the fused programs);
* :func:`repro.backends.build_kernel_ir` records each op as an SSA
  :class:`~repro.backends.ir.IrOp`.

Representation rule: a value is an ``(N,)`` uint64 lane vector when its
width fits one limb, and an ``(L, N)`` little-endian limb matrix
otherwise (``L = ceil(width/64)``); ``op`` is told the result's limb
count.  Opcodes, with their attrs in brackets: ``const`` [value],
``load`` [name, pool, offset, width, packed], ``mem_gather`` [mem,
pool, base, depth]; the conversions ``wide_extend`` [limbs],
``to_bool_wide``, ``to_amount_wide``, ``to_narrow_wide``; the selects
``bit_index``, ``part`` [lsb, mask], ``amount_bias`` [bias],
``dyn_part`` [mask] and their ``wide_*`` forms (width in place of
mask when the result is wide); ``mux``, ``shl_or`` / ``wide_shl_or`` [shift];
``not_bool``, ``bnot`` / ``neg`` [mask], ``wide_bnot`` / ``wide_neg``
[width], ``reduce`` [op, width, wide]; ``logic`` [op], ``compare``
[op, wide], and ``shift`` / ``arith`` [op, wide, mask or width].

:meth:`BatchOpWalk.lower_stores` lowers a whole RTL node: which
conversion each stored value takes and which slot it lands in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, List, Tuple, TypeVar

from repro.core.memory import PACKED_POOL, MemoryLayout, VarSlot
from repro.rtlir.graph import NodeKind, RtlGraph, RtlNode
from repro.utils import bitvec as bv
from repro.utils.errors import SimulationError, UnsupportedFeatureError
from repro.verilog import ast_nodes as A

_CMP = {"==": "==", "===": "==", "!=": "!=", "!==": "!=",
        "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH = ("+", "-", "*", "/", "%", "**", "&", "|", "^", "~^", "^~")
_REDUCE = ("&", "|", "^", "~&", "~|", "~^")

#: A lowered value: numpy source text for the emitter, an SSA value id
#: for the IR recorder.
V = TypeVar("V")


def _limbs(width: int) -> int:
    """Representation limb count: 1 for <=64 bits, else ceil(width/64)."""
    return 1 if width <= 64 else (width + 63) // 64


@dataclass
class IrStore(Generic[V]):
    """A width-masked store of one lowered value into its placement.

    Kinds: ``signal`` (COMB current / SEQ shadow slot, ``packed`` for
    lane-packed 1-bit targets), and the ``memw_cond`` / ``memw_addr`` /
    ``memw_data`` scratch triple of a guarded memory write.
    """

    kind: str
    value: V
    target: str
    pool: int
    offset: int
    limbs: int
    width: int
    shadow: bool = False
    packed: bool = False

    def render(self) -> str:
        where = "P1" if self.packed else f"P{(8, 16, 32, 64)[self.pool]}"
        tag = " shadow" if self.shadow else ""
        return (
            f"{self.kind} {self.target} <- v{self.value} "
            f"[{where}+{self.offset}, w{self.width}{tag}]"
        )


class BatchOpWalk(Generic[V]):
    """The uint64/widevec expression walk over one memory layout.

    Subclasses implement :meth:`op`; the walk decides which op, at which
    context width and representation, for every expression node.
    """

    def __init__(self, layout: MemoryLayout, graph: RtlGraph):
        self.layout = layout
        self.graph = graph
        self.design = graph.design

    def op(self, opcode: str, args: Tuple[V, ...], attrs: Dict[str, object],
           limbs: int) -> V:
        """Produce one batch op over ``args`` (``limbs``: its result)."""
        raise NotImplementedError

    # -- conversions ----------------------------------------------------------

    def emit(self, e: A.Expr) -> V:
        """``e`` at its context representation."""
        v, limbs = self._value(e)
        want = _limbs(e.ctx_width)
        if want == limbs:
            return v
        if want > 1:
            return self.op("wide_extend", (v,), {"limbs": want}, want)
        raise SimulationError(  # pragma: no cover - ctx >= width by pass
            f"cannot narrow a wide value to ctx {e.ctx_width}"
        )

    def emit_bool(self, e: A.Expr) -> V:
        """(N,) truthiness of ``e`` (for conditions/guards)."""
        v, limbs = self._value(e)
        return v if limbs == 1 else self.op("to_bool_wide", (v,), {}, 1)

    def emit_amount(self, e: A.Expr) -> V:
        """(N,) shift/address amount; wide amounts saturate."""
        v, limbs = self._value(e)
        return v if limbs == 1 else self.op("to_amount_wide", (v,), {}, 1)

    def emit_narrow(self, e: A.Expr) -> V:
        """(N,) low-64-bit value of ``e`` (for <=64-bit stores)."""
        v = self.emit(e)
        if _limbs(e.ctx_width) == 1:
            return v
        return self.op("to_narrow_wide", (v,), {}, 1)

    # -- stores ---------------------------------------------------------------

    def lower_stores(self, node: RtlNode) -> List[IrStore[V]]:
        """Lower one RTL node to its stores.

        A full-signal store takes the low word (one limb) or the limb
        matrix and lands in the live slot, or in the shadow slot for a
        register; a guarded memory write stores its condition's
        truthiness, its address amount and its data's low word into the
        write's scratch.
        """
        if node.kind is NodeKind.MEMW:
            sc = self.layout.scratch[node.nid]
            width = self.design.memories[node.target].width

            def scratch(kind: str, slot: VarSlot, value: V, w: int):
                return IrStore(kind, value, node.target, slot.pool,
                               slot.offset, 1, w)

            return [
                scratch("memw_cond", sc.cond, self.emit_bool(node.cond), 1),
                scratch("memw_addr", sc.addr, self.emit_amount(node.addr), 64),
                scratch("memw_data", sc.data, self.emit_narrow(node.expr),
                        width),
            ]
        if node.kind not in (NodeKind.COMB, NodeKind.SEQ):  # pragma: no cover
            raise SimulationError(f"unknown node kind {node.kind}")
        shadow = node.kind is NodeKind.SEQ
        slot = self.layout.slot(node.target)
        value = (self.emit_narrow(node.expr) if slot.limbs == 1
                 else self.emit(node.expr))
        return [IrStore(
            "signal", value, node.target, slot.pool,
            slot.store_offset(shadow), slot.limbs, slot.width,
            shadow=shadow, packed=slot.pool == PACKED_POOL,
        )]

    # -- dispatch (returns (value, repr_limbs)) -------------------------------

    def _value(self, e: A.Expr) -> Tuple[V, int]:
        if isinstance(e, A.Number):
            L = _limbs(e.ctx_width)
            return self.op("const", (), {"value": e.value}, L), L
        if isinstance(e, A.Ident):
            return self._load(e.name)
        if isinstance(e, A.Unary):
            return self._unary(e)
        if isinstance(e, A.Binary):
            return self._binary(e)
        if isinstance(e, A.Ternary):
            c = self.emit_bool(e.cond)
            t = self.emit(e.then)
            f = self.emit(e.other)
            L = _limbs(e.ctx_width)
            return self.op("mux", (c, t, f), {}, L), L
        if isinstance(e, A.Concat):
            return self._concat([(p, p.width) for p in e.parts], e.width)
        if isinstance(e, A.Repeat):
            count = getattr(e, "_count_i")
            return self._concat([(e.value, e.value.width)] * count, e.width)
        if isinstance(e, A.Index):
            idx = self.emit_amount(e.index)
            if e.is_memory:
                m = self.layout.mem(e.base)
                return self.op(
                    "mem_gather", (idx,),
                    {"mem": e.base, "pool": m.pool, "base": m.base,
                     "depth": m.depth}, 1,
                ), 1
            base, base_limbs = self._load(e.base)
            opc = "bit_index" if base_limbs == 1 else "wide_bit_index"
            return self.op(opc, (base, idx), {}, 1), 1
        if isinstance(e, A.PartSelect):
            lsb = getattr(e, "_lsb_i")
            base, base_limbs = self._load(e.base)
            if base_limbs == 1 or e.width <= 64:
                opc = "part" if base_limbs == 1 else "wide_part_narrow"
                return self.op(opc, (base,),
                               {"lsb": lsb, "mask": bv.mask(e.width)}, 1), 1
            L = _limbs(e.width)
            return self.op("wide_part_wide", (base,),
                           {"lsb": lsb, "width": e.width}, L), L
        if isinstance(e, A.IndexedPartSelect):
            w = getattr(e, "_width_i")
            sig_lsb = getattr(e, "_base_lsb_i", 0)
            start = self.emit_amount(e.start)
            bias = (w - 1 if e.descending else 0) + sig_lsb
            pos = self.op("amount_bias", (start,), {"bias": bias}, 1)
            base, base_limbs = self._load(e.base)
            if base_limbs == 1 or w <= 64:
                opc = "dyn_part" if base_limbs == 1 else "wide_dyn_narrow"
                return self.op(opc, (base, pos), {"mask": bv.mask(w)}, 1), 1
            L = _limbs(w)
            return self.op("wide_dyn_wide", (base, pos), {"width": w}, L), L
        raise SimulationError(f"cannot lower {type(e).__name__}")

    def _load(self, name: str) -> Tuple[V, int]:
        slot = self.layout.slot(name)
        return self.op(
            "load", (),
            {"name": name, "pool": slot.pool, "offset": slot.offset,
             "width": slot.width, "packed": slot.pool == PACKED_POOL},
            slot.limbs,
        ), slot.limbs

    def _concat(self, parts, total_width: int) -> Tuple[V, int]:
        """Concat/replicate ``parts`` (MSB first) into ``total_width`` bits."""
        L = _limbs(total_width)
        if L == 1:
            acc = self.emit(parts[0][0])
            for p, w in parts[1:]:
                acc = self.op("shl_or", (acc, self.emit(p)), {"shift": w}, 1)
            return acc, 1

        def as_limbs(p: A.Expr) -> V:
            # Constants become limb matrices directly (a scalar u64 has
            # no lane axis for extend to replicate).
            if isinstance(p, A.Number):
                return self.op("const", (), {"value": p.value}, L)
            v, _ = self._value(p)
            return self.op("wide_extend", (v,), {"limbs": L}, L)

        acc = as_limbs(parts[0][0])
        for p, w in parts[1:]:
            acc = self.op("wide_shl_or", (acc, as_limbs(p)), {"shift": w}, L)
        return acc, L

    def _unary(self, e: A.Unary) -> Tuple[V, int]:
        L = _limbs(e.ctx_width)
        if e.op == "!":
            return self.op("not_bool", (self.emit_bool(e.operand),), {}, 1), 1
        if e.op in ("~", "-", "+"):
            x = self.emit(e.operand)
            if e.op == "+":
                return x, L
            if L == 1:
                return self.op(
                    "bnot" if e.op == "~" else "neg", (x,),
                    {"mask": bv.mask(min(e.ctx_width, 64))}, 1,
                ), 1
            return self.op(
                "wide_bnot" if e.op == "~" else "wide_neg", (x,),
                {"width": e.ctx_width}, L,
            ), L
        if e.op not in _REDUCE:
            raise SimulationError(f"unknown unary op {e.op!r}")
        # Reductions: operand at its self-determined representation.
        x, xl = self._value(e.operand)
        return self.op("reduce", (x,),
                       {"op": e.op, "width": e.operand.width, "wide": xl > 1},
                       1), 1

    def _binary(self, e: A.Binary) -> Tuple[V, int]:
        op = e.op
        L = _limbs(e.ctx_width)
        if op in ("&&", "||"):
            l = self.emit_bool(e.left)
            r = self.emit_bool(e.right)
            return self.op("logic", (l, r), {"op": op}, 1), 1
        if op in _CMP:
            # Comparison operands share a self-determined context.
            wide = (_limbs(e.left.ctx_width) > 1
                    or _limbs(e.right.ctx_width) > 1)
            l = self.emit(e.left)
            r = self.emit(e.right)
            return self.op("compare", (l, r), {"op": op, "wide": wide}, 1), 1
        # Width attrs: a one-limb result masks to its context, a wide one
        # names the width to mask to.
        sized = ({"mask": bv.mask(min(e.ctx_width, 64)), "wide": False}
                 if L == 1 else {"width": e.ctx_width, "wide": True})
        if op in ("<<", "<<<", ">>", ">>>"):
            l = self.emit(e.left)
            r = self.emit_amount(e.right)
            attrs = {"op": "<<" if op in ("<<", "<<<") else ">>", **sized}
            return self.op("shift", (l, r), attrs, L), L
        if op not in _ARITH:
            raise SimulationError(f"unknown binary op {op!r}")
        if L > 1 and op in ("*", "/", "%", "**"):
            raise UnsupportedFeatureError(
                f"operator {op!r} is not supported on values wider than 64 "
                f"bits (context width {e.ctx_width})"
            )
        l = self.emit(e.left)
        r = self.emit(e.right)
        return self.op("arith", (l, r), {"op": op, **sized}, L), L
