"""Batch kernel code generation.

Transpiles the partitioned RTL task graph into vectorized Python source
(the CUDA analog), compiles it with :func:`compile`, and returns a
:class:`CompiledModel` holding the kernel callables plus everything the
executors need.

Each macro task becomes one generated function

.. code-block:: python

    # __global__ task_3  (2 nodes, weight 17)
    def task_3(P8, P16, P32, P64, N, LANE):
        # c1.in = 10'h1 + c1.sum;    offset of c1.in is 1 (P8)
        P8[1*N:2*N] = ((u64(1) + P16[17*N:18*N].astype(u64, copy=False))
                       & u64(0xff))

mirroring Listing 3: every access is a contiguous batch slice at
``offset*N``, all arithmetic is uint64 with context-width masking, and the
semantics match :func:`repro.baselines.reference.eval_expr` op for op
(the differential test suite enforces this).  The expression and store
decisions come from the lowering walk of :mod:`repro.core.lowering`;
:class:`ExprCodegen` renders its ops as numpy text.
"""

from __future__ import annotations

import hashlib
import linecache
import time
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.core.annotate import render_header
from repro.core.indexmap import IndexMapper, PackedIndexMapper
from repro.core.lowering import _CMP, BatchOpWalk, IrStore, _limbs
from repro.core.memory import PACKED_POOL, MemoryLayout
from repro.partition.merge import partition
from repro.partition.taskgraph import TaskGraph
from repro.partition.weights import WeightVector
from repro.rtlir.graph import NodeKind, RtlGraph, RtlNode
from repro.utils import bitvec as bv
from repro.utils.errors import SimulationError
from repro.verilog import ast_nodes as A

# Native-dtype emission tables (pool index order: var8..var64).
_NATIVE_DT = ("u8", "u16", "u32", "u64")
_NATIVE_BITS = (8, 16, 32, 64)


def _dt_name(bits: int) -> str:
    return _NATIVE_DT[_NATIVE_BITS.index(bits)]


@dataclass
class AuditRecord:
    """One rewrite claim the fused emitter made, kept for re-proving.

    The fused tier drops mux branches it folded to constant zero,
    collapses ``c ? x + 1 : x`` into a single add, truncates stores to
    the slot's demanded width, and lane-packs 1-bit stores.  Each such
    rewrite appends a record naming the claim; the translation validator
    (:func:`repro.verify.ir_checks.check_audit`) re-establishes every
    claim through an independent known-bits analysis, so an emitter bug
    surfaces as a verification error instead of silent corruption.
    """

    kind: str  # const0-branch | inc-mux | demand-store | packed-store
    node: int  # RTL node id being emitted (-1 when unknown)
    target: str  # driven signal of that node
    expr: Optional[A.Expr] = None  # the expression the claim is about
    detail: Dict[str, object] = field(default_factory=dict)


# Compiled-code-object cache, keyed by the content-addressed pseudo-
# filename.  Cluster shards simulating the same design produce identical
# generated source, so they share one compile() instead of recompiling
# per shard; the digest in the filename also disambiguates tracebacks
# and ``repro profile`` attribution when two models of the same top
# coexist in one process.
_CODE_CACHE: Dict[str, CodeType] = {}
_CODE_CACHE_MAX = 128


def compile_source(source: str, top: str, tag: str = "") -> CodeType:
    """Compile generated kernel source under a content-addressed filename.

    The pseudo-filename is ``<rtlflow:{top}[:tag]:{digest}>`` where the
    digest hashes the full source, so two different designs sharing a
    ``top`` name never alias in tracebacks, and identical designs reuse
    the cached code object.  The source is registered with
    :mod:`linecache` so tracebacks through generated kernels show the
    offending generated line.
    """
    digest = hashlib.sha256(source.encode()).hexdigest()[:12]
    label = f"{top}:{tag}" if tag else top
    filename = f"<rtlflow:{label}:{digest}>"
    code = _CODE_CACHE.get(filename)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        code = compile(source, filename, "exec")
        _CODE_CACHE[filename] = code
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    return code


class ExprCodegen(BatchOpWalk[str]):
    """The lowering walk rendered as numpy source text.

    Every op of :class:`~repro.core.lowering.BatchOpWalk` becomes a
    uint64 expression with context-width masking; the wide ops live in
    :mod:`repro.utils.widevec` (Verilator's VL_WIDE analog) and pool
    accesses come from the :class:`~repro.core.indexmap.IndexMapper`.
    """

    def __init__(self, mapper: IndexMapper, graph: RtlGraph):
        super().__init__(mapper.layout, graph)
        self.mapper = mapper

    #: Ops whose numpy text is a fixed template over the args ``x``,
    #: ``y`` and the op's attrs; :meth:`op` writes the rest out.
    _TEMPLATES = {
        "wide_extend": "wv.extend({x}, {limbs}, N)",
        "to_bool_wide": "wv.nonzero({x})",
        "to_amount_wide": "wv.saturate_narrow({x})",
        "to_narrow_wide": "wv.narrow({x})",
        "shl_or": "((({x}) << u64({shift})) | ({y}))",
        "wide_shl_or": "(wv.shl_const({x}, {shift}) | {y})",
        "bit_index": "(bvb.b_shr({x}, {y}) & u64(1))",
        "wide_bit_index": "(wv.narrow(wv.shr({x}, {y})) & u64(1))",
        "dyn_part": "(bvb.b_shr({x}, {y}) & u64({mask}))",
        "wide_dyn_narrow": "(wv.narrow(wv.shr({x}, {y})) & u64({mask}))",
        "wide_dyn_wide": "wv.mask_width(wv.shr({x}, {y}), {width})",
        "not_bool": "(({x}) == 0).astype(u64)",
        "bnot": "((~({x})) & u64({mask}))",
        "neg": "((u64(0) - ({x})) & u64({mask}))",
        "wide_bnot": "wv.mask_width(wv.bit_not({x}), {width})",
        "wide_neg": "wv.mask_width(wv.neg({x}), {width})",
    }

    def op(self, opcode: str, args: Tuple[str, ...], attrs: Dict[str, object],
           limbs: int) -> str:
        """The numpy text of one batch op: the only place it is written."""
        a = attrs
        if opcode == "load":
            return self.mapper.load(a["name"])
        if opcode == "const":
            if limbs == 1:
                return f"u64({a['value'] & ((1 << 64) - 1)})"
            return f"wv.from_const({a['value']}, {limbs}, N)"
        x = args[0]
        y = args[1] if len(args) > 1 else ""
        template = self._TEMPLATES.get(opcode)
        if template is not None:
            return template.format(x=x, y=y, **a)
        if opcode == "mem_gather":
            return self.mapper.mem_read_call(a["mem"], x)
        if opcode == "mux":
            if limbs == 1:
                return f"np.where(({x}) != 0, {y}, {args[2]})"
            return f"wv.mux({x}, {y}, {args[2]})"
        if opcode == "part":
            if a["lsb"] == 0:
                return f"(({x}) & u64({a['mask']}))"
            return f"((({x}) >> u64({a['lsb']})) & u64({a['mask']}))"
        if opcode == "wide_part_narrow":
            word, bit = divmod(a["lsb"], 64)
            if bit + a["mask"].bit_length() <= 64:
                # The field lies in one limb: read that limb alone.
                sh = f" >> u64({bit})" if bit else ""
                return f"((({x})[{word}]{sh}) & u64({a['mask']}))"
            return (f"(wv.narrow(wv.shr_const({x}, {a['lsb']})) "
                    f"& u64({a['mask']}))")
        if opcode == "wide_part_wide":
            inner = f"wv.shr_const({x}, {a['lsb']})" if a["lsb"] else x
            return f"wv.mask_width({inner}, {a['width']})"
        if opcode == "amount_bias":
            return f"(({x}) - u64({a['bias']}))" if a["bias"] else f"({x})"
        if opcode == "reduce":
            fn = {"&": "and", "|": "or", "^": "xor"}[a["op"][-1]]
            if not a["wide"]:
                call = f"bvb.b_red_{fn}({x}, {a['width']})"
            elif fn == "and":
                call = f"wv.red_and({x}, {a['width']})"
            else:
                call = f"wv.red_{fn}({x})"
            return f"(u64(1) - {call})" if a["op"][0] == "~" else call
        if opcode == "logic":
            sym = "&" if a["op"] == "&&" else "|"
            return f"(((({x}) != 0) {sym} (({y}) != 0))).astype(u64)"
        if opcode == "compare":
            if not a["wide"]:
                return f"(({x}) {_CMP[a['op']]} ({y})).astype(u64)"
            fn = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt",
                  ">=": "ge"}[_CMP[a["op"]]]
            return f"wv.{fn}({x}, {y})"
        if opcode == "shift":
            left = a["op"] == "<<"
            if not a["wide"]:
                if left:
                    return f"(bvb.b_shl({x}, {y}) & u64({a['mask']}))"
                return f"bvb.b_shr({x}, {y})"
            if left:
                return f"wv.mask_width(wv.shl({x}, {y}), {a['width']})"
            return f"wv.shr({x}, {y})"
        if opcode == "shift_const":
            k = a["amount"]
            if a["op"] == "<<":
                if a["wide"]:
                    return f"wv.mask_width(wv.shl_const({x}, {k}), {a['width']})"
                return f"((({x}) << u64({k})) & u64({a['mask']}))"
            if a["wide"]:
                return f"wv.shr_const({x}, {k})"
            return f"(({x}) >> u64({k}))"
        if opcode == "arith":
            op = a["op"]
            if op in ("&", "|", "^"):
                return f"(({x}) {op} ({y}))"
            if a["wide"]:
                if op in ("~^", "^~"):
                    body = f"wv.bit_not(({x}) ^ ({y}))"
                else:
                    body = f"wv.{'add' if op == '+' else 'sub'}({x}, {y})"
                return f"wv.mask_width({body}, {a['width']})"
            m = a["mask"]
            if op in ("/", "%"):
                return f"bvb.b_{'div' if op == '/' else 'mod'}({x}, {y})"
            if op == "**":
                return f"(bvb.b_pow({x}, {y}) & u64({m}))"
            if op in ("~^", "^~"):
                return f"((~(({x}) ^ ({y}))) & u64({m}))"
            return f"((({x}) {op} ({y})) & u64({m}))"
        raise SimulationError(f"no numpy rendering for op {opcode!r}")


class FusedExprCodegen(ExprCodegen):
    """Expression emission for fused flat programs (three tiers).

    Tier 1 — *packed*: 1-bit expressions over lane-packed operands emit
    word-level boolean ops on (W,) uint64 vectors (64 lanes per machine
    op; see :mod:`repro.utils.packbits`).  Tier 2 — *native dtype*:
    narrow expressions emit at their pool dtype (uint8/16/32/64) instead
    of round-tripping every operand through ``astype(uint64)``; sound
    because every emitted value is kept *exactly* equal to the reference
    scalar value of :func:`repro.baselines.reference.eval_expr` at that
    node (wrap-around ops require a compute dtype at least as wide as
    the context, otherwise emission bails).  Tier 3 — fallback to the
    inherited uint64 emission (wide values, division, dynamic shifts,
    concats), with packed operands unpacked at the boundary by the
    :class:`~repro.core.indexmap.PackedIndexMapper`.

    Every tier reads values known at transpile time through the walk's
    one memoized fold (:meth:`~repro.core.lowering.BatchOpWalk._fold`).
    """

    def __init__(self, mapper: IndexMapper, graph: RtlGraph):
        super().__init__(mapper, graph)
        # Hoisted-subexpression statements (mask temporaries for the
        # branchless muxes below).  The program generator drains these
        # ahead of each node's store statement.
        self._prelude: List[str] = []
        self._tmp_n = 0
        # Rewrite audit trail for the translation validator; the program
        # generator stamps the node being emitted into audit_node/target.
        self.audit: List[AuditRecord] = []
        self.audit_node = -1
        self.audit_target = ""

    def _record(self, kind: str, expr: Optional[A.Expr] = None,
                **detail) -> None:
        self.audit.append(AuditRecord(
            kind=kind, node=self.audit_node, target=self.audit_target,
            expr=expr, detail=detail))

    def _temp(self, code: str) -> str:
        """Bind ``code`` to a fresh program-local temp (used >1 time)."""
        name = f"_t{self._tmp_n}"
        self._tmp_n += 1
        self._prelude.append(f"{name} = {code}")
        return name

    def drain_prelude(self) -> List[str]:
        out, self._prelude = self._prelude, []
        return out

    def _has_ident(self, e: A.Expr) -> bool:
        """True when the emitted value is guaranteed to be a batch array."""
        if isinstance(e, (A.Ident, A.Index, A.PartSelect, A.IndexedPartSelect)):
            return True
        if isinstance(e, A.Unary):
            return self._has_ident(e.operand)
        if isinstance(e, A.Binary):
            return self._has_ident(e.left) or self._has_ident(e.right)
        if isinstance(e, A.Ternary):
            return (self._has_ident(e.cond) or self._has_ident(e.then)
                    or self._has_ident(e.other))
        if isinstance(e, A.Concat):
            return any(self._has_ident(p) for p in e.parts)
        if isinstance(e, A.Repeat):
            return self._has_ident(e.value)
        return False

    # -- tier 3: uint64 fallback with branchless muxes -------------------------

    def _lower(self, e: A.Expr):
        if (isinstance(e, A.Ternary) and _limbs(e.ctx_width) == 1
                and self._fold(e.cond) is None):
            mask = self._cond_mask(e.cond, 64)
            if mask is None:  # wide condition: emit_bool it the base way
                mask = (f"(u64(0) - (({self.emit_bool(e.cond)}) != 0)"
                        f".view(u8))")
            # A constant-zero branch drops out of the blend entirely
            # (x & 0 == 0): common for reset muxes.
            if self._fold(e.then) == 0:
                self._record("const0-branch", e.then)
                m = self._temp(mask)
                return f"(({self.emit(e.other)}) & ~{m})", 1
            if self._fold(e.other) == 0:
                self._record("const0-branch", e.other)
                m = self._temp(mask)
                return f"(({self.emit(e.then)}) & {m})", 1
            m = self._temp(mask)
            t = self.emit(e.then)
            f = self.emit(e.other)
            return f"((({t}) & {m}) | (({f}) & ~{m}))", 1
        return super()._lower(e)

    # -- tier 1: lane-packed 1-bit emission -----------------------------------

    def emit_packed(self, e: A.Expr) -> Optional[str]:
        """(W,) packed-word code for a 1-bit-valued expression, or None.

        Invariant: a non-None result holds, per lane, exactly the 0/1
        reference value of the expression (tail bits zero), so packed
        subvalues compose under &, |, ^ and xnor without re-masking.
        """
        if _limbs(e.ctx_width) > 1:
            return None
        c = self._fold(e)
        if c is not None:
            # Only canonical 0/1 constants are packable: a wider constant
            # (e.g. 2'd2 drifting into a comparison) must keep its raw
            # value, which the native/base tiers preserve.
            if c == 0:
                return "pk.zeros(N)"
            if c == 1:
                return "pk.ones(N)"
            return None
        if isinstance(e, A.Ident):
            slot = self.layout.slots.get(e.name)
            if slot is not None and slot.pool == PACKED_POOL:
                return self.mapper.slice_of(slot)
            return None
        if isinstance(e, A.Unary):
            if e.op == "!" or (e.op == "~" and e.ctx_width == 1):
                x = self.emit_packed(e.operand)
                if x is not None:
                    return f"pk.not_({x}, N)"
            if e.op == "!":
                n = self.emit_native(e.operand)
                if n is not None and self._has_ident(e.operand):
                    return f"pk.pack_bool(({n[0]}) == 0, N)"
            return None
        if isinstance(e, A.Ternary):
            cc = self.emit_packed(e.cond)
            tc = self.emit_packed(e.then)
            fc = self.emit_packed(e.other)
            if cc is None or tc is None or fc is None:
                return None
            # (c & t) | (~c & f): tail-safe without re-masking because t
            # and f have zero tails.
            return f"((({cc}) & ({tc})) | (~({cc}) & ({fc})))"
        if isinstance(e, A.Binary):
            op = e.op
            if op in ("&", "&&", "|", "||", "^"):
                l = self.emit_packed(e.left)
                r = self.emit_packed(e.right)
                if l is not None and r is not None:
                    sym = {"&": "&", "&&": "&", "|": "|", "||": "|",
                           "^": "^"}[op]
                    return f"(({l}) {sym} ({r}))"
                if op in ("&&", "||"):
                    ln = self.emit_native(e.left)
                    rn = self.emit_native(e.right)
                    if ln is not None and rn is not None and self._has_ident(e):
                        sym = "&" if op == "&&" else "|"
                        return (f"pk.pack_bool((({ln[0]}) != 0) {sym} "
                                f"(({rn[0]}) != 0), N)")
                return None
            if op in ("~^", "^~") and e.ctx_width == 1:
                l = self.emit_packed(e.left)
                r = self.emit_packed(e.right)
                if l is not None and r is not None:
                    return f"pk.not_(({l}) ^ ({r}), N)"
                return None
            if op in ("==", "!="):
                l = self.emit_packed(e.left)
                r = self.emit_packed(e.right)
                if l is not None and r is not None:
                    x = f"(({l}) ^ ({r}))"
                    return x if op == "!=" else f"pk.not_({x}, N)"
            if op in _CMP:
                ln = self.emit_native(e.left)
                rn = self.emit_native(e.right)
                if ln is not None and rn is not None and self._has_ident(e):
                    return (f"pk.pack_bool(({ln[0]}) {_CMP[op]} "
                            f"({rn[0]}), N)")
            return None
        return None

    # -- tier 2: native-dtype emission ----------------------------------------

    def _native_const(self, v: int, ctx_width: int):
        if v < 0:
            return None
        nbits = max(v.bit_length(), 1)
        if nbits > 64:
            return None
        for dt, bits in zip(_NATIVE_DT, _NATIVE_BITS):
            if nbits <= bits:
                return f"{dt}({v})", bits
        return None  # pragma: no cover

    def _native_load(self, name: str):
        slot = self.layout.slots.get(name)
        if slot is None:
            return None
        if slot.pool == PACKED_POOL:
            return f"pk.unpack_u8({self.mapper.slice_of(slot)}, N)", 8
        if slot.limbs != 1:
            return None
        return self.mapper.slice_of(slot), _NATIVE_BITS[slot.pool]

    def emit_native(self, e: A.Expr, demand: Optional[int] = None):
        """``(code, dtype_bits)`` at the smallest sound dtype, or None.

        Two soundness modes, selected by ``demand``:

        * ``demand=None`` (exact): the emitted batch value, viewed
          zero-extended, equals the scalar ``eval_expr`` value of ``e``
          per lane — so comparisons, shifts and truthiness on native
          subvalues are always sound.
        * ``demand=d``: only the low ``d`` bits are guaranteed (again
          under the zero-extended view); physical bits at and above
          ``d`` may hold wrap garbage.  This is the store path's mode —
          a register of width ``w`` only keeps ``w`` bits, so ``+ - *``
          chains compute at the *storage* dtype instead of widening to
          the (often 32-bit integer) expression context.  Demand
          propagates structurally: wrap and bitwise ops pass it through,
          ``<<``/``>>`` shift it, and every exactness-sensitive consumer
          (comparison operand, truthiness, dynamic-shift amount)
          requests exact sub-emission.

        Emission bails (returns None) whenever soundness would need a
        compute dtype wider than uint64; the caller then falls back to
        the uint64 tier.
        """
        if _limbs(e.ctx_width) > 1:
            return None
        if demand is not None and demand >= e.ctx_width:
            demand = None  # an exact value satisfies any wider demand
        c = self._fold(e)
        if c is not None:
            return self._native_const(c, e.ctx_width)
        if isinstance(e, A.Ident):
            return self._native_load(e.name)
        if isinstance(e, A.Unary):
            return self._native_unary(e, demand)
        if isinstance(e, A.Binary):
            return self._native_binary(e, demand)
        if isinstance(e, A.Ternary):
            cf = self._fold(e.cond)
            if cf is not None:
                return self.emit_native(e.then if cf else e.other, demand)
            inc = self._native_inc_mux(e, demand)
            if inc is not None:
                return inc
            # Constant-zero branch: the blend collapses to a single
            # AND with the (possibly negated) mask — common for resets.
            if self._fold(e.then) == 0:
                f = self.emit_native(e.other, demand)
                if f is None:
                    return None
                mask = self._cond_mask(e.cond, f[1])
                if mask is None:
                    return None
                self._record("const0-branch", e.then)
                m = self._temp(mask)
                return f"(({f[0]}) & ~{m})", f[1]
            if self._fold(e.other) == 0:
                t = self.emit_native(e.then, demand)
                if t is None:
                    return None
                mask = self._cond_mask(e.cond, t[1])
                if mask is None:
                    return None
                self._record("const0-branch", e.other)
                m = self._temp(mask)
                return f"(({t[0]}) & {m})", t[1]
            t = self.emit_native(e.then, demand)
            f = self.emit_native(e.other, demand)
            if t is None or f is None:
                return None
            bits = max(t[1], f[1])
            mask = self._cond_mask(e.cond, bits)
            if mask is None:
                return None
            # Branchless mux: (t & m) | (f & ~m) with an all-ones/zeros
            # mask — bitwise selection, so demand-mode wrap garbage in
            # the unread high bits stays harmless.  (np.where pays an
            # order of magnitude more per element here.)
            m = self._temp(mask)
            return f"((({t[0]}) & {m}) | (({f[0]}) & ~{m}))", bits
        if isinstance(e, A.PartSelect):
            lsb = getattr(e, "_lsb_i")
            loaded = self._native_load(e.base)
            if loaded is None or loaded[1] == 8 and self._is_packed(e.base):
                return None
            code, bits = loaded
            if lsb:  # inside the signal: one outside folded already
                code = f"(({code}) >> {lsb})"
            slot = self.layout.slot(e.base)
            if slot.width > lsb + e.width:
                code = f"(({code}) & {_dt_name(bits)}({bv.mask(e.width)}))"
            return code, bits
        if isinstance(e, A.Index) and not e.is_memory:
            idx = self._fold(e.index)
            if idx is None:
                return None
            slot = self.layout.slots.get(e.base)
            if slot is None or slot.limbs != 1:
                return None
            if slot.pool == PACKED_POOL:  # 1-bit base, idx == 0
                return self._native_load(e.base)
            bits = _NATIVE_BITS[slot.pool]
            code = self.mapper.slice_of(slot)
            if idx:
                code = f"(({code}) >> {idx})"
            return f"(({code}) & {_dt_name(bits)}(1))", bits
        return None

    def _is_packed(self, name: str) -> bool:
        slot = self.layout.slots.get(name)
        return slot is not None and slot.pool == PACKED_POOL

    def _is_bool(self, e: A.Expr) -> bool:
        """True when the native emission of ``e`` is exactly 0/1-valued."""
        c = self._fold(e)
        if c is not None:
            return c in (0, 1)
        if isinstance(e, A.Ident):
            slot = self.layout.slots.get(e.name)
            return slot is not None and slot.width == 1
        if isinstance(e, A.Unary):
            return e.op == "!"
        if isinstance(e, A.Binary):
            return e.op in _CMP or e.op in ("&&", "||")
        if isinstance(e, A.Ternary):
            return self._is_bool(e.then) and self._is_bool(e.other)
        if isinstance(e, A.Index):  # single-bit select of a variable
            return not e.is_memory
        return False

    def _cond_mask(self, e: A.Expr, bits: int) -> Optional[str]:
        """All-ones/zeros select mask at ``bits`` from ``e``'s truthiness.

        ``dt(0) - cond`` turns an exact 0/1 condition into 0x00…/0xFF…
        directly — NEP 50 scalar dtypes are strong, so the subtraction
        lands at the mask dtype without materializing an intermediate.
        """
        dt = _dt_name(bits)
        if self._is_bool(e):
            n = self.emit_native(e)
            if n is not None:
                return f"({dt}(0) - ({n[0]}))"
        p = self.emit_packed(e)
        if p is not None:
            return f"({dt}(0) - pk.unpack_u8({p}, N))"
        n = self.emit_native(e)
        if n is None:
            return None
        return f"({dt}(0) - (({n[0]}) != 0).view(u8))"

    def _native_inc_mux(
        self, e: A.Ternary, demand: Optional[int]
    ) -> Optional[Tuple[str, int]]:
        """``c ? x + 1 : x`` as ``x + (c as 0/1)`` — one add, no mask.

        The enable-counter idiom.  Addition wraps, so this inherits the
        wrap-op soundness rule: the compute dtype must cover the demanded
        bits (widening the base when necessary), and the result is exact
        only when the dtype already covers the full context width.
        """
        t, f = e.then, e.other
        if not (isinstance(t, A.Binary) and t.op == "+"):
            return None
        if not ((self._fold(t.right) == 1 and self._same(t.left, f))
                or (self._fold(t.left) == 1 and self._same(t.right, f))):
            return None
        base = self.emit_native(f, demand)
        if base is None:
            return None
        code, bits = base
        need = demand if demand is not None else e.ctx_width
        if bits < need:
            want = self._fit_bits(need)
            if want is None:
                return None
            code, bits = self._widen(code, bits, want)
        c01 = self._cond01(e.cond)
        if c01 is None:
            return None
        self._record("inc-mux", e)
        out = f"(({code}) + ({c01}))"
        if demand is None and e.ctx_width < bits:
            out = f"(({out}) & {_dt_name(bits)}({bv.mask(e.ctx_width)}))"
        return out, bits

    def _cond01(self, e: A.Expr) -> Optional[str]:
        """A 0/1-valued uint8 batch from ``e``'s truthiness (no mask)."""
        if self._is_bool(e):
            n = self.emit_native(e)
            if n is not None:
                return n[0]
        p = self.emit_packed(e)
        if p is not None:
            return f"pk.unpack_u8({p}, N)"
        n = self.emit_native(e)
        if n is None:
            return None
        return f"(({n[0]}) != 0).view(u8)"

    @staticmethod
    def _same(a: A.Expr, b: A.Expr) -> bool:
        """Structural equality of two (small) expressions."""
        if type(a) is not type(b):
            return False
        if isinstance(a, A.Ident):
            return a.name == b.name
        if isinstance(a, A.Number):
            return a.value == b.value
        if isinstance(a, A.Unary):
            return a.op == b.op and FusedExprCodegen._same(a.operand, b.operand)
        if isinstance(a, A.Binary):
            return (a.op == b.op
                    and FusedExprCodegen._same(a.left, b.left)
                    and FusedExprCodegen._same(a.right, b.right))
        return False

    @staticmethod
    def _fit_bits(width: int) -> Optional[int]:
        """Smallest native bit width that can hold ``width`` bits."""
        for bits in _NATIVE_BITS:
            if width <= bits:
                return bits
        return None

    @staticmethod
    def _widen(code: str, bits: int, want: int) -> Tuple[str, int]:
        """Upcast a native subvalue to a wider dtype (exact — zero-extend).

        Works on batch arrays and numpy scalars alike (both have
        ``astype``); used when a wrap-around op needs a compute dtype
        wider than its operands (e.g. ``count + 1`` in a 32-bit integer
        context over uint8 storage).
        """
        if bits >= want:
            return code, bits
        return f"({code}).astype({_dt_name(want)})", want

    def _native_unary(self, e: A.Unary, demand: Optional[int] = None):
        if e.op == "!":
            x = self.emit_native(e.operand)
            if x is None or not self._has_ident(e.operand):
                return None
            return f"(({x[0]}) == 0).view(u8)", 8
        if e.op in ("~", "-", "+"):
            x = self.emit_native(e.operand, demand)
            if x is None:
                return None
            code, bits = x
            if e.op == "+":
                return code, bits
            # ~ flips and - borrows across every compute bit: the dtype
            # must cover the needed width (context, or just the demanded
            # low bits when the consumer masks anyway).
            need = demand if demand is not None else e.ctx_width
            if bits < need:
                want = self._fit_bits(need)
                if want is None:
                    return None
                code, bits = self._widen(code, bits, want)
            dt = _dt_name(bits)
            if e.op == "~":
                body = f"(~({code}))"
            else:
                body = f"({dt}(0) - ({code}))"
            if demand is None and e.ctx_width < bits:
                body = f"({body} & {dt}({bv.mask(e.ctx_width)}))"
            return body, bits
        return None  # reductions: uint64 tier

    def _native_binary(self, e: A.Binary, demand: Optional[int] = None):
        op = e.op
        if op in ("&&", "||"):
            if not self._has_ident(e):
                return None
            l = self.emit_native(e.left)
            r = self.emit_native(e.right)
            if l is None or r is None:
                return None
            sym = "&" if op == "&&" else "|"
            return (f"((({l[0]}) != 0) {sym} (({r[0]}) != 0)).view(u8)", 8)
        if op in _CMP:
            # Comparison operands are exactness-sensitive: always exact.
            if not self._has_ident(e):
                return None
            l = self.emit_native(e.left)
            r = self.emit_native(e.right)
            if l is None or r is None:
                return None
            return f"(({l[0]}) {_CMP[op]} ({r[0]})).view(u8)", 8
        if op in ("<<", "<<<", ">>", ">>>"):
            amt = self._fold(e.right)
            if amt is None:
                return None  # dynamic shift amounts: uint64 tier (bvb)
            # (An amount at or past the context width folded already.)
            if demand is not None and op in ("<<", "<<<") and amt >= demand:
                return self._native_const(0, e.ctx_width)
            if op in ("<<", "<<<"):
                # Low ``demand`` result bits come from the operand's low
                # ``demand - amt`` bits.
                l = self.emit_native(
                    e.left, None if demand is None else demand - amt
                )
                if l is None:
                    return None
                code, bits = l
                need = demand if demand is not None else e.ctx_width
                if bits < need:
                    want = self._fit_bits(need)
                    if want is None:
                        return None
                    code, bits = self._widen(code, bits, want)
                body = f"(({code}) << {amt})" if amt else code
                if demand is None and e.ctx_width < bits:
                    body = f"({body} & {_dt_name(bits)}({bv.mask(e.ctx_width)}))"
                return body, bits
            # >>: result bits [0, d) are operand bits [amt, amt + d).
            l = self.emit_native(
                e.left, None if demand is None else amt + demand
            )
            if l is None:
                return None
            code, bits = l
            if amt >= bits:
                # The operand value has no bits there (and C shift-by-
                # >=width is undefined; sidestep it).
                return self._native_const(0, e.ctx_width)
            return (f"(({code}) >> {amt})" if amt else code), bits
        if op in ("+", "-", "*", "&", "|", "^", "~^", "^~"):
            # Low result bits of all of these depend only on equally-low
            # operand bits: demand passes straight through.
            l = self.emit_native(e.left, demand)
            r = self.emit_native(e.right, demand)
            if l is None or r is None:
                return None
            lc, lb = l
            rc, rb = r
            bits = max(lb, rb)
            wraps = op not in ("&", "|", "^")
            need = demand if demand is not None else e.ctx_width
            if wraps and bits < need:
                # Carries/flips reach past the operand dtypes: widen one
                # side (a constant side for free — NEP 50 scalar dtypes
                # are "strong", so the promotion carries the batch array
                # along) and compute at the needed width.
                want = self._fit_bits(need)
                if want is None:
                    return None
                if self._fold(e.right) is not None:
                    rc, rb = self._widen(rc, rb, want)
                else:
                    lc, lb = self._widen(lc, lb, want)
                bits = want
            table = {
                "+": f"(({lc}) + ({rc}))",
                "-": f"(({lc}) - ({rc}))",
                "*": f"(({lc}) * ({rc}))",
                "&": f"(({lc}) & ({rc}))",
                "|": f"(({lc}) | ({rc}))",
                "^": f"(({lc}) ^ ({rc}))",
                "~^": f"(~(({lc}) ^ ({rc})))",
                "^~": f"(~(({lc}) ^ ({rc})))",
            }
            body = table[op]
            # &, |, ^ of sound subvalues stay sound unmasked (eval_expr
            # does not mask them either); wrap ops in exact mode mask to
            # the context unless the compute dtype already wraps there —
            # in demand mode the consumer discards those bits anyway.
            if wraps and demand is None and e.ctx_width < bits:
                body = f"({body} & {_dt_name(bits)}({bv.mask(e.ctx_width)}))"
            return body, bits
        return None  # / % ** : uint64 tier (div-fault sink lives there)


@dataclass
class MemWriteBinding:
    """Commit-time binding for one guarded memory write."""

    node_id: int
    clock: str
    edge: str
    mem_pool: int
    mem_base: int
    mem_depth: int
    cond_pool: int
    cond_off: int
    addr_pool: int
    addr_off: int
    data_pool: int
    data_off: int


def mem_write_bindings(graph: RtlGraph, layout: MemoryLayout) -> List[MemWriteBinding]:
    """Commit-time bindings for ``layout``'s scratch slots (program order).

    Shared by every lowering of the same layout — the generated-source
    codegens and the kernel IR must agree on these offsets or commits
    would scatter through the wrong scratch.
    """
    mem_writes: List[MemWriteBinding] = []
    for node in graph.memw_nodes:  # original program order
        sc = layout.scratch[node.nid]
        ms = layout.mem(node.target)
        mem_writes.append(
            MemWriteBinding(
                node_id=node.nid,
                clock=node.clock or "",
                edge=node.edge,
                mem_pool=ms.pool,
                mem_base=ms.base,
                mem_depth=ms.depth,
                cond_pool=sc.cond.pool,
                cond_off=sc.cond.offset,
                addr_pool=sc.addr.pool,
                addr_off=sc.addr.offset,
                data_pool=sc.data.pool,
                data_off=sc.data.offset,
            )
        )
    return mem_writes


@dataclass
class TaskAccess:
    """Offset-level read/write footprint of one macro task.

    ``read_offsets``/``write_offsets`` are per-pool sorted offset arrays
    (scattered signal slots); ``read_ranges`` are contiguous ``[lo, hi)``
    pool ranges (whole memories — a dynamic ``mem[idx]`` read may touch
    any word).  The conditional replay executor intersects these with
    :class:`~repro.core.memory.DeviceArrays` write epochs to decide which
    tasks a replay can skip.
    """

    tid: int
    read_offsets: List[Tuple[int, np.ndarray]]
    read_ranges: List[Tuple[int, int, int]]
    write_offsets: List[Tuple[int, np.ndarray]]


def compute_task_accesses(
    taskgraph: TaskGraph, layout: MemoryLayout
) -> Dict[int, TaskAccess]:
    """Derive every task's offset-level footprint from the task graph.

    Reads map a node's ``reads`` names to current-value slots (plus whole
    memory ranges); writes map COMB targets to their live slots, SEQ
    targets to their *shadow* slots (commit marks the current slot after
    comparing), and MEMW nodes to their cond/addr/data scratch.  A
    sequential node's clock is excluded from its reads — edge detection
    belongs to the simulator, and counting the toggle would dirty every
    sequential task twice per cycle.
    """
    graph = taskgraph.graph
    out: Dict[int, TaskAccess] = {}
    for task in taskgraph.tasks:
        reads: Dict[int, set] = {}
        ranges: List[Tuple[int, int, int]] = []
        writes: Dict[int, set] = {}

        def add(acc: Dict[int, set], pool: int, lo: int, limbs: int) -> None:
            acc.setdefault(pool, set()).update(range(lo, lo + limbs))

        for nid in task.nodes:
            node = graph.nodes[nid]
            for name in node.reads:
                if node.clock is not None and name == node.clock:
                    continue
                if name in layout.mems:
                    ms = layout.mems[name]
                    ranges.append((ms.pool, ms.base, ms.base + ms.depth))
                    continue
                s = layout.slots.get(name)
                if s is not None:
                    add(reads, s.pool, s.offset, s.limbs)
            if node.kind is NodeKind.MEMW:
                sc = layout.scratch[node.nid]
                for slot in (sc.cond, sc.addr, sc.data):
                    add(writes, slot.pool, slot.offset, slot.limbs)
            else:
                s = layout.slot(node.target)
                lo = s.store_offset(node.kind is NodeKind.SEQ)
                add(writes, s.pool, lo, s.limbs)

        out[task.tid] = TaskAccess(
            tid=task.tid,
            read_offsets=[
                (p, np.fromiter(sorted(offs), dtype=np.int64, count=len(offs)))
                for p, offs in sorted(reads.items())
            ],
            read_ranges=sorted(set(ranges)),
            write_offsets=[
                (p, np.fromiter(sorted(offs), dtype=np.int64, count=len(offs)))
                for p, offs in sorted(writes.items())
            ],
        )
    return out


@dataclass
class CompiledModel:
    """A transpiled, compiled multi-stimulus simulator for one design."""

    graph: RtlGraph
    taskgraph: TaskGraph
    layout: MemoryLayout
    source: str
    namespace: Dict[str, object]
    task_fns: Dict[int, Callable]
    mem_writes: List[MemWriteBinding]
    transpile_seconds: float = 0.0
    _task_accesses: Optional[Dict[int, TaskAccess]] = field(
        default=None, repr=False, compare=False
    )
    _fused: Optional["FusedPrograms"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def design(self):
        return self.graph.design

    def task_accesses(self) -> Dict[int, TaskAccess]:
        """Per-task offset footprints (cached; layout is immutable)."""
        if self._task_accesses is None:
            self._task_accesses = compute_task_accesses(self.taskgraph, self.layout)
        return self._task_accesses

    def fused(self) -> "FusedPrograms":
        """The flat-program lowering of this model (built lazily, cached).

        Fused programs run against their *own* bit-packed memory layout;
        the simulator picks it up via the executor's ``layout`` marker.
        """
        if self._fused is None:
            self._fused = FusedProgramCodegen(self.taskgraph).compile()
        return self._fused

    def comb_schedule(self) -> List[int]:
        return list(self.taskgraph.comb_topo)

    def seq_schedule(self, clock: str, edge: str) -> List[int]:
        return self.taskgraph.seq_domains().get((clock, edge), [])

    def clock_domains(self) -> List[Tuple[str, str]]:
        return list(self.taskgraph.seq_domains())


class KernelCodegen:
    """Generates and compiles the batch kernel module for a task graph."""

    def __init__(self, taskgraph: TaskGraph, layout: Optional[MemoryLayout] = None):
        self.tg = taskgraph
        self.graph = taskgraph.graph
        self.layout = layout or MemoryLayout.from_graph(self.graph)
        self.mapper = IndexMapper(self.layout)
        self.expr = ExprCodegen(self.mapper, self.graph)

    # -- statement generation ---------------------------------------------------

    def _store_stmt(self, st: IrStore[str]) -> str:
        """Assignment statement for one store of the lowering walk."""
        tgt = self.mapper.slice_at(st.pool, st.offset, st.limbs)
        if st.kind == "memw_cond":
            return f"{tgt} = (({st.value}) != 0).astype(np.uint8)"
        if st.kind == "memw_addr":
            return f"{tgt} = {st.value}"
        if st.packed:
            return f"{tgt} = pk.pack({st.value}, N)"
        if st.limbs == 1:
            return f"{tgt} = ({st.value}) & u64({bv.mask(st.width)})"
        return f"{tgt} = wv.mask_width({st.value}, {st.width}).reshape(-1)"

    def _store_stmts(self, node: RtlNode) -> List[str]:
        return [self._store_stmt(st) for st in self.expr.lower_stores(node)]

    def _node_stmts(self, node: RtlNode) -> List[str]:
        if node.kind is NodeKind.COMB:
            comment = f"# {node.target} = ...;  {self.mapper.comment_for(node.target)}"
        elif node.kind is NodeKind.SEQ:
            comment = f"# {node.target} <= ...;  (shadow slot)"
        else:
            comment = f"# if (cond) {node.target}[addr] <= data;  (scratch)"
        return [comment] + self._store_stmts(node)

    def _task_fn(self, tid: int) -> List[str]:
        task = self.tg.tasks[tid]
        lines = [
            f"# __global__ task_{tid} ({task.kind.value}, {len(task.nodes)} "
            f"nodes, weight {task.weight:.0f})",
            f"def task_{tid}(P8, P16, P32, P64, N, LANE):",
        ]
        for nid in task.nodes:
            for stmt in self._node_stmts(self.graph.nodes[nid]):
                lines.append(f"    {stmt}")
        if not task.nodes:
            lines.append("    pass")
        return lines

    # -- module generation --------------------------------------------------------

    def generate_source(self) -> str:
        header = [
            '"""Batch RTL simulation kernels transpiled by repro.core.',
            "",
            "Auto-generated; do not edit.  One GPU thread <-> one stimulus:",
            "the batch axis of every slice is the stimulus axis.",
            '"""',
            "import numpy as np",
            "from repro.core import kernels as rt",
            "from repro.utils import bitvec as bvb",
            "from repro.utils import widevec as wv",
            "",
            "u64 = np.uint64",
            "",
        ]
        header.extend(render_header(self.tg))
        body: List[str] = []
        for task in self.tg.tasks:
            body.extend(self._task_fn(task.tid))
            body.append("")

        tasklist = ", ".join(f"task_{t.tid}" for t in self.tg.tasks)
        body.append(f"TASKS = [{tasklist}]")
        return "\n".join(header + [""] + body) + "\n"

    def compile(self) -> CompiledModel:
        t0 = time.perf_counter()
        source = self.generate_source()
        code = compile_source(source, self.graph.design.top)
        ns: Dict[str, object] = {}
        exec(code, ns)
        elapsed = time.perf_counter() - t0

        task_fns = {t.tid: ns[f"task_{t.tid}"] for t in self.tg.tasks}
        mem_writes = mem_write_bindings(self.graph, self.layout)

        return CompiledModel(
            graph=self.graph,
            taskgraph=self.tg,
            layout=self.layout,
            source=source,
            namespace=ns,
            task_fns=task_fns,
            mem_writes=mem_writes,
            transpile_seconds=elapsed,
        )


def program_units(
    taskgraph: TaskGraph,
) -> List[Tuple[str, Optional[Tuple[str, str]], List[int]]]:
    """The fused execution units as ``(name, domain, tids)``, in program
    order: the whole comb phase, then one unit per sequential domain."""
    units = [("fused_comb", None, list(taskgraph.comb_topo))]
    for i, (dom, tids) in enumerate(taskgraph.seq_domains().items()):
        units.append((f"fused_seq_{i}", dom, tids))
    return units


@dataclass
class FusedProgram:
    """One straight-line compiled program (a partition x clock-domain unit).

    The handle the simulator executes: ``fn`` is a compiled numpy
    program over the packed pools.
    """

    name: str
    kind: str  # "comb" | "seq"
    domain: Optional[Tuple[str, str]]  # (clock, edge) for seq programs
    fn: Callable
    n_nodes: int


@dataclass
class FusedPrograms:
    """The fused flat-program lowering of a task graph.

    One program for the whole combinational phase, one per sequential
    clock domain — no per-task dispatch loop remains.  Runs against a
    ``pack_bits=True`` layout, so it carries its own
    :class:`~repro.core.memory.MemoryLayout` and the matching
    :class:`MemWriteBinding` offsets (they differ from the unpacked
    model's).
    """

    layout: MemoryLayout
    comb: FusedProgram
    seq: Dict[Tuple[str, str], FusedProgram]
    mem_writes: List[MemWriteBinding]
    source: str
    namespace: Dict[str, object]
    transpile_seconds: float = 0.0
    # Rewrite claims the emitter made, for the translation validator.
    audit: List[AuditRecord] = field(default_factory=list)
    # The lowering that produced this bundle; numpy is the only one.
    backend: ClassVar[str] = "numpy"


class FusedProgramCodegen(KernelCodegen):
    """Flat-program code generator over the bit-packed layout.

    Where :class:`KernelCodegen` emits one function per macro task, this
    emits exactly one ``compile()``-d straight-line function per
    execution unit — the whole comb phase, and each sequential clock
    domain — with no per-task function calls left on the replay path,
    mirroring the paper's define-once/replay-per-cycle CUDA Graph.
    Expressions lower through :class:`FusedExprCodegen`
    (packed/native/uint64 tiers).
    """

    def __init__(self, taskgraph: TaskGraph, layout: Optional[MemoryLayout] = None):
        self.tg = taskgraph
        self.graph = taskgraph.graph
        self.layout = layout or MemoryLayout.from_graph(
            self.graph, pack_bits=True
        )
        self.mapper = PackedIndexMapper(self.layout)
        self.expr = FusedExprCodegen(self.mapper, self.graph)

    # -- statement generation (packed/native-aware stores) ---------------------

    def _store_stmts(self, node: RtlNode) -> List[str]:
        stmt = None if node.kind is NodeKind.MEMW else self._tiered_store(node)
        return [stmt] if stmt is not None else super()._store_stmts(node)

    def _tiered_store(self, node: RtlNode) -> Optional[str]:
        """A full-signal store through the packed or native tier, or None
        to store through the lowering walk's uint64 tier."""
        expr, shadow = node.expr, node.kind is NodeKind.SEQ
        slot = self.layout.slot(node.target)
        if slot.pool == PACKED_POOL:
            tgt = self.mapper.slice_of(slot, shadow=shadow)
            c = self.expr._fold(expr)
            if c is not None:
                # Assignment to a 1-bit target keeps the low bit only.
                self.expr._record("packed-store", expr, mode="const",
                                  value=c & 1)
                return f"{tgt} = {'pk.ones(N)' if (c & 1) else 'pk.zeros(N)'}"
            pcode = self.expr.emit_packed(expr)
            if pcode is not None:
                self.expr._record("packed-store", expr, mode="packed")
                return f"{tgt} = {pcode}"
            nat = self.expr.emit_native(expr, 1)  # pack keeps the low bit
            if nat is not None:
                self.expr._record("packed-store", expr, mode="native")
                return f"{tgt} = pk.pack({nat[0]}, N)"
            self.expr._record("packed-store", expr, mode="fallback")
            return None
        if slot.limbs == 1:
            nat = self.expr.emit_native(expr, slot.width)
            if nat is not None:
                code, bits = nat
                # Demand-mode results may carry wrap garbage at and above
                # slot.width.  Physical garbage exists only when the
                # compute dtype is wider than the slot, and it survives
                # the store only when the pool dtype is wider too (equal
                # widths truncate on assignment).
                masked = slot.width < min(bits, _NATIVE_BITS[slot.pool])
                if masked:
                    code = f"({code}) & {_dt_name(bits)}({bv.mask(slot.width)})"
                self.expr._record("demand-store", expr, demand=slot.width,
                                  bits=bits, masked=masked)
                return (
                    f"{self.mapper.slice_of(slot, shadow=shadow)} = {code}"
                )
        return None

    # -- program generation ----------------------------------------------------

    def _program_fn(self, name: str, tids: List[int], title: str) -> List[str]:
        n_nodes = sum(len(self.tg.tasks[t].nodes) for t in tids)
        lines = [
            f"# fused program: {title} ({len(tids)} tasks, {n_nodes} nodes, "
            "straight-line)",
            f"def {name}(P8, P16, P32, P64, P1, N, W, LANE):",
        ]
        any_stmt = False
        for tid in tids:
            for nid in self.tg.tasks[tid].nodes:
                self.expr.audit_node = nid
                self.expr.audit_target = self.graph.nodes[nid].target
                stmts = self._node_stmts(self.graph.nodes[nid])
                # Mask temporaries hoisted while emitting this node's
                # expressions; they only read design state, so they are
                # sound ahead of every store of the same node.
                for pre in self.expr.drain_prelude():
                    lines.append(f"    {pre}")
                for stmt in stmts:
                    lines.append(f"    {stmt}")
                    any_stmt = True
        if not any_stmt:
            lines.append("    pass")
        return lines

    def generate_source(self) -> str:
        header = [
            '"""Fused batch RTL programs transpiled by repro.core.',
            "",
            "Auto-generated; do not edit.  One straight-line program per",
            "partition x clock domain; 1-bit signals are lane-packed into",
            "uint64 words (pool P1, W = ceil(N/64) words per signal).",
            '"""',
            "import numpy as np",
            "from repro.core import kernels as rt",
            "from repro.utils import bitvec as bvb",
            "from repro.utils import packbits as pk",
            "from repro.utils import widevec as wv",
            "",
            "u8 = np.uint8",
            "u16 = np.uint16",
            "u32 = np.uint32",
            "u64 = np.uint64",
            "",
        ]
        header.extend(render_header(self.tg))
        body: List[str] = []
        for name, dom, tids in program_units(self.tg):
            title = f"{dom[1]} {dom[0]} domain" if dom else "comb phase"
            body.extend(self._program_fn(name, tids, title))
            body.append("")
        return "\n".join(header + [""] + body) + "\n"

    def compile(self) -> FusedPrograms:  # type: ignore[override]
        t0 = time.perf_counter()
        source = self.generate_source()
        code = compile_source(source, self.graph.design.top, tag="fused")
        ns: Dict[str, object] = {}
        exec(code, ns)
        elapsed = time.perf_counter() - t0
        comb, *seq = (
            FusedProgram(
                name=name,
                kind="seq" if dom else "comb",
                domain=dom,
                fn=ns[name],
                n_nodes=sum(len(self.tg.tasks[t].nodes) for t in tids),
            )
            for name, dom, tids in program_units(self.tg)
        )
        return FusedPrograms(
            layout=self.layout,
            comb=comb,
            seq={p.domain: p for p in seq},
            mem_writes=mem_write_bindings(self.graph, self.layout),
            source=source,
            namespace=ns,
            transpile_seconds=elapsed,
            audit=list(self.expr.audit),
        )


def transpile(
    graph: RtlGraph,
    weights: Optional[WeightVector] = None,
    target_weight: float = 64.0,
    strategy: str = "levelpack",
    taskgraph: Optional[TaskGraph] = None,
) -> CompiledModel:
    """One-call transpilation: partition (unless given) + codegen + compile."""
    tg = taskgraph or partition(
        graph, weights=weights, target_weight=target_weight, strategy=strategy
    )
    return KernelCodegen(tg).compile()
