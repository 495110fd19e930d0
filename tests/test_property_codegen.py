"""Property-based differential tests (hypothesis).

Random expression trees and random sequential designs are generated as
Verilog source; the vectorized batch kernels must agree with the golden
reference on every lane, every cycle.  This is the strongest guard on
codegen fidelity (the repro band's main concern).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import bitvec as bv
from tests.helpers import assert_batch_matches_reference

# --- random expression generator -------------------------------------------

_BIN_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "~^", "<<", ">>",
            "<<<", ">>>", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]
_UN_OPS = ["~", "-", "!", "&", "|", "^", "~&", "~|", "~^"]

_INPUTS = [("a", 8), ("b", 8), ("c", 16), ("d", 32), ("e", 1), ("f", 100),
           ("g", 140)]


@st.composite
def expr_strings(draw, depth=0):
    """A random Verilog expression over the fixed input ports."""
    if depth >= 4 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            name = draw(st.sampled_from([n for n, _ in _INPUTS]))
            return name
        if choice == 1:
            width = draw(st.integers(1, 16))
            value = draw(st.integers(0, (1 << width) - 1))
            return f"{width}'d{value}"
        name, w = draw(st.sampled_from([(n, w) for n, w in _INPUTS if w > 1]))
        hi = draw(st.integers(0, w - 1))
        lo = draw(st.integers(0, hi))
        return f"{name}[{hi}:{lo}]"
    kind = draw(st.integers(0, 6))
    if kind == 0:
        op = draw(st.sampled_from(_BIN_OPS))
        l = draw(expr_strings(depth + 1))
        r = draw(expr_strings(depth + 1))
        return f"({l} {op} {r})"
    if kind == 1:
        op = draw(st.sampled_from(_UN_OPS))
        x = draw(expr_strings(depth + 1))
        return f"({op}{x})"
    if kind == 2:
        c = draw(expr_strings(depth + 1))
        t = draw(expr_strings(depth + 1))
        f = draw(expr_strings(depth + 1))
        return f"(({c}) ? ({t}) : ({f}))"
    if kind in (3, 4):
        # Dynamic bit-select, or a +:/-: part-select at a dynamic start.
        name, w = draw(st.sampled_from([(n, w) for n, w in _INPUTS if w > 1]))
        at = draw(expr_strings(depth + 1))
        if kind == 3:
            return f"{name}[{at}]"
        dirn = draw(st.sampled_from(["+:", "-:"]))
        return f"{name}[{at} {dirn} {draw(st.integers(1, w))}]"
    if kind == 5:
        x = draw(expr_strings(depth + 1))
        return f"{{{draw(st.integers(1, 4))}{{{x}}}}}"
    l = draw(expr_strings(depth + 1))
    r = draw(expr_strings(depth + 1))
    return f"{{{l}, {r}}}"


def _comb_module(exprs):
    ports = ", ".join(
        f"input wire [{w - 1}:{0}] {n}" if w > 1 else f"input wire {n}"
        for n, w in _INPUTS
    )
    outs = ", ".join(f"output wire [31:0] y{i}" for i in range(len(exprs)))
    body = "\n".join(f"    assign y{i} = {e};" for i, e in enumerate(exprs))
    return f"module fuzz ({ports}, {outs});\n{body}\nendmodule\n"


class TestRandomCombExpressions:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(expr_strings(), min_size=1, max_size=4),
        st.integers(0, 2**31),
        st.sampled_from(["graph", "graph-fused"]),
    )
    def test_batch_matches_reference(self, exprs, seed, executor):
        src = _comb_module(exprs)
        try:
            assert_batch_matches_reference(src, "fuzz", n=16, cycles=4,
                                           seed=seed, executor=executor)
        except Exception as exc:  # noqa: BLE001
            from repro.utils.errors import UnsupportedFeatureError, WidthError
            # Two rejections are correct behaviour, not fuzz failures:
            # concats exceeding the 512-bit cap, and wide multiply/divide
            # (explicitly unsupported on >64-bit values).
            if isinstance(exc, (WidthError, UnsupportedFeatureError)):
                return
            raise


# --- random sequential designs -----------------------------------------------


@st.composite
def seq_modules(draw):
    """A random register pipeline with muxed feedback."""
    n_regs = draw(st.integers(1, 4))
    width = draw(st.sampled_from([4, 8, 13, 16, 32]))
    lines = []
    updates = []
    for i in range(n_regs):
        srcs = [f"r{j}" for j in range(n_regs)] + ["din"]
        a = draw(st.sampled_from(srcs))
        b = draw(st.sampled_from(srcs))
        op = draw(st.sampled_from(["+", "^", "&", "|", "-"]))
        cond = draw(st.sampled_from(["en", f"din[{draw(st.integers(0, width - 1))}]"]))
        updates.append(
            f"        if (rst) r{i} <= 0;\n"
            f"        else if ({cond}) r{i} <= {a} {op} {b};"
        )
    regs = ", ".join(f"r{i}" for i in range(n_regs))
    outsum = " ^ ".join(f"r{i}" for i in range(n_regs))
    return (
        f"module seqfuzz (input wire clk, input wire rst, input wire en,\n"
        f"                input wire [{width - 1}:0] din,\n"
        f"                output wire [{width - 1}:0] out);\n"
        f"    reg [{width - 1}:0] {regs};\n"
        f"    always @(posedge clk) begin\n" + "\n".join(updates) + "\n    end\n"
        f"    assign out = {outsum};\nendmodule\n"
    )


class TestRandomSequentialDesigns:
    @settings(max_examples=30, deadline=None)
    @given(
        seq_modules(),
        st.integers(0, 2**31),
        st.sampled_from(["graph", "graph-fused", "stream"]),
        st.sampled_from([("levelpack", 2.0), ("levelpack", 64.0),
                         ("chain", 16.0)]),
    )
    def test_batch_matches_reference(self, src, seed, executor, part):
        strategy, target = part
        assert_batch_matches_reference(
            src, "seqfuzz", n=8, cycles=12, seed=seed, executor=executor,
            strategy=strategy, target_weight=target,
        )


# --- bitvec invariants -------------------------------------------------------


class TestBitvecProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(1, 64))
    def test_scalar_batch_agree_on_div_mod(self, a, b, w):
        m = bv.mask(w)
        a &= m
        b &= m
        aa = np.array([a], dtype=np.uint64)
        bb = np.array([b], dtype=np.uint64)
        assert int(bv.b_div(aa, bb)[0]) == bv.s_div(a, b)
        assert int(bv.b_mod(aa, bb)[0]) == bv.s_mod(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 127))
    def test_scalar_batch_agree_on_shifts(self, a, sh):
        aa = np.array([a], dtype=np.uint64)
        ss = np.array([sh], dtype=np.uint64)
        assert int(bv.b_shl(aa, ss)[0]) == bv.s_shl(a, sh)
        assert int(bv.b_shr(aa, ss)[0]) == bv.s_shr(a, sh)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 64))
    def test_reductions_agree(self, a, w):
        a &= bv.mask(w)
        aa = np.array([a], dtype=np.uint64)
        assert int(bv.b_red_and(aa, w)[0]) == bv.s_red_and(a, w)
        assert int(bv.b_red_or(aa, w)[0]) == bv.s_red_or(a, w)
        assert int(bv.b_red_xor(aa, w)[0]) == bv.s_red_xor(a, w)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 16))
    def test_pow_matches_python(self, a, b):
        aa = np.array([a], dtype=np.uint64)
        bb = np.array([b], dtype=np.uint64)
        assert int(bv.b_pow(aa, bb)[0]) == pow(a, b, 1 << 64)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64))
    def test_pool_choice_is_minimal(self, w):
        pool = bv.pool_for_width(w)
        assert bv.POOL_WIDTHS[pool] >= w
        if pool > 0:
            assert bv.POOL_WIDTHS[pool - 1] < w
