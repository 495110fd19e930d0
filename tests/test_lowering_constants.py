"""Constant-operand lowering at its boundaries.

A shift amount, bit index or ``+:``/``-:`` start that folds to a
constant lowers statically (``shift_const``, ``part``/``wide_part_*``,
or the constant 0 when it lands outside the value).  These tests drive
every boundary of that decision — amounts around each limb edge and
the context width, indices at and past the signal's top bit, selects
fully in, partly out of and fully out of range — through the per-task
(``graph``) and fused (``graph-fused``) kernels against the golden
reference interpreter.  RuntimeWarnings are errors here: a constant
select used to wrap a uint64 scalar subtraction on the way.
"""

import pytest

from repro.backends import build_kernel_ir
from repro.core.codegen import FusedProgramCodegen, KernelCodegen
from repro.partition.merge import partition

from tests.conftest import compile_graph
from tests.helpers import (
    assert_batch_matches_reference, dead_ir_ops, literal_shift_amounts,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

WIDTHS = [8, 64, 100, 140, 256]
EXECUTORS = ["graph", "graph-fused"]


def _limbs(width: int) -> int:
    return (width + 63) // 64


def _decl(width: int, lsb: int = 0) -> str:
    return f"[{width + lsb - 1}:{lsb}]" if width > 1 else ""


def _module(width: int, assigns) -> str:
    """A module over ``x`` (``width`` bits) driving one output per assign."""
    outs = "".join(
        f",\n    output wire {_decl(w)} y{i}" for i, (w, _) in enumerate(assigns)
    )
    body = "\n".join(
        f"    assign y{i} = {e};" for i, (_, e) in enumerate(assigns)
    )
    return (f"module k (\n    input wire {_decl(width)} x,\n"
            f"    input wire {_decl(width, 4)} z{outs}\n);\n{body}\nendmodule\n")


def _check(src: str, executor: str) -> None:
    assert_batch_matches_reference(src, "k", n=16, cycles=3, seed=7,
                                   executor=executor)
    # The folded operands took the static ops: no runtime shift or
    # select got a literal amount, and the kernel IR recorded no op
    # that nothing reads (a folded amount's dead ``const``).
    tg = partition(compile_graph(src, "k"))
    for codegen in (KernelCodegen, FusedProgramCodegen):
        assert literal_shift_amounts(codegen(tg).generate_source()) == []
    assert dead_ir_ops(build_kernel_ir(tg)) == []


def _amounts(width: int):
    L = _limbs(width)
    return sorted({0, 1, 63, 64, 65, 64 * L - 1, 64 * L, 64 * L + 1})


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("width", WIDTHS)
def test_constant_shift_amounts(width, executor):
    """Every shift operator at every boundary amount, in the operand's
    own context and in a context twice as wide."""
    wider = min(2 * width, 512)
    assigns = [
        (w, f"x {op} {k}")
        for op in ("<<", ">>", "<<<", ">>>")
        for k in _amounts(width)
        for w in (width, wider)
    ]
    _check(_module(width, assigns), executor)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("width", WIDTHS)
def test_constant_bit_index(width, executor):
    """``x[k]`` at the top bit, just past it, around the first limb
    edge and at the limb matrix's end; ``z`` has a non-zero lsb."""
    idx = sorted({width - 1, width, 63, 64, 64 * _limbs(width)})
    assigns = [(1, f"x[{k}]") for k in idx]
    assigns += [(1, f"z[{k + 4}]") for k in idx]
    _check(_module(width, assigns), executor)


def _selects(width: int):
    """``(start, dir, w)`` triples: fully in, partly out, fully out."""
    out = []
    for w in sorted({1, min(4, width), min(64, width), width}):
        out += [
            (0, "+:", w),                   # in range, from bit 0
            (width - w, "+:", w),           # in range, up to the top
            (width - w // 2 - 1, "+:", w),  # runs off the top
            (width + 3, "+:", w),           # wholly above
            (w - 1, "-:", w),               # in range, down to bit 0
            (width - 1, "-:", w),           # in range, from the top
            (w // 2, "-:", w),              # runs off the bottom
            (width + w + 3, "-:", w),       # wholly above
        ]
    return out


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("width", WIDTHS)
def test_constant_indexed_part_selects(width, executor):
    assigns = [(w, f"x[{s} {d} {w}]") for s, d, w in _selects(width)]
    assigns += [(w, f"z[{s + 4} {d} {w}]") for s, d, w in _selects(width)]
    _check(_module(width, assigns), executor)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_folded_amount_expressions(executor):
    """Amounts, indices and starts that are constant expressions rather
    than literals fold the same way, including reads the lowering itself
    knows (a select past the top bit, a flushed shift, a mux with a
    known condition)."""
    assigns = [
        (8, "x[x[140] -: 8]"),
        (4, "x[(x << 200) +: 4]"),
        (140, "x << z[200]"),
        (1, "x[(x >> 140) + 7'd5]"),
        (4, "x[(x[200] ? x[7:0] : 8'd9) -: 4]"),  # known mux condition
        (8, "x[(1'b1 ? x[3:0] : 4'd2) +: 8]"),    # ... with a live branch
        (140, "x << (2 * 35)"),
        (140, "x << (2'd3 ** 3)"),
        (4, "x[(2 ** 3) +: 4]"),
        (140, "x >> {2'b10, 6'd1}"),
        (140, "x >> (8'd3 - 8'd5)"),  # wraps to a huge amount: flushes
        (1, "x[(1 ? 7'd99 : 7'd3)]"),
        (8, "x[(64 + 64) -: 8]"),
        (8, "z[{1'b1, 6'd0} +: 8]"),
    ]
    _check(_module(140, assigns), executor)
