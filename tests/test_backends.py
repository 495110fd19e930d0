"""The kernel IR in ``repro.backends`` and what is left of the backend layer.

``build_kernel_ir`` lowers a task graph to explicit SSA batch ops over
the packed layout; ``validate_ir`` re-derives its structural invariants.
The pluggable backends are gone: numpy is the only lowering, and the
``backend`` attributes that persisted stores and job records carry stay
as the constant ``"numpy"`` (docs/fusion.md, "Kernel IR").  The numpy
lowering keeps its contract: a fused-program bundle bit-identical to the
per-node ``graph`` executor at every store boundary, on the packed
``MemoryLayout``, covering every sequential clock domain.
"""

import numpy as np
import pytest

from repro.backends import build_kernel_ir, validate_ir
from repro.cluster import CampaignSpec
from repro.cluster.spec import ShardSpec
from repro.core.codegen import transpile
from repro.core.simulator import BatchSimulator
from repro.resilience import FaultPlan, LaneFaultSpec
from repro.stimulus.generator import random_batch
from repro.utils.errors import ClusterError

from tests.conftest import ALU_V, COUNTER_V, HIER_V, MEMDUT_V, compile_graph
from tests.test_fusion import MEMOOB_V, WIDEACC_V

# Combinational soup over the opcodes the fused emitter and the kernel IR
# must both get right: mul/div/mod (division-by-zero fault sink), shifts
# by a dynamic amount, reductions with inversion, concat with constant
# parts, part selects and a mux.
OPSOUP_V = """
module opsoup (
    input wire [7:0] a,
    input wire [7:0] b,
    input wire [2:0] s,
    output wire [7:0] y,
    output wire r,
    output wire [15:0] w
);
    wire [7:0] m = (a * b) + (a / (b | 8'h1)) - (a % (b | 8'h3));
    wire [7:0] sh = (a << s) | (b >> s);
    assign y = s[0] ? m ^ sh : m + sh;
    assign r = ^a & |b & ~&b[3:0];
    assign w = {a, b} + {8'd0, a[6:2], s};
endmodule
"""


def _model(src, top):
    return transpile(compile_graph(src, top))


def _run(model, n, stim, executor, faults=None):
    sim = BatchSimulator(model, n, executor=executor,
                         fault_isolation=bool(faults))
    plan = (
        FaultPlan(lane_faults=[
            LaneFaultSpec(cycle=c, lane=l, reason=r) for c, l, r in faults
        ])
        if faults else None
    )
    outs = sim.run(stim, trace_every=1, fault_plan=plan)
    return {k: np.asarray(v).copy() for k, v in outs.items()}, sim


# The one lowering left.  It stays a parameter so each check asserts the
# simulator reports it, as persisted stores and job records record it.
BACKEND_MATRIX = [pytest.param("numpy", id="numpy")]

DESIGN_MATRIX = [
    pytest.param(COUNTER_V, "counter", id="counter"),
    pytest.param(ALU_V, "alu", id="alu-comb"),
    pytest.param(HIER_V, "adder4", id="hier-1bit"),
    pytest.param(MEMDUT_V, "memdut", id="memory"),
    pytest.param(MEMOOB_V, "memoob", id="memory-oob"),
    pytest.param(WIDEACC_V, "wideacc", id="wide-96bit"),
    pytest.param(OPSOUP_V, "opsoup", id="op-soup"),
]


# ---------------------------------------------------------------------------
# Kernel IR: structural validity + rendering


@pytest.mark.parametrize("src,top", DESIGN_MATRIX)
def test_kernel_ir_validates(src, top):
    model = _model(src, top)
    ir = build_kernel_ir(model.taskgraph)
    assert validate_ir(ir) == []
    # Every sequential clock domain of the model has a unit.
    assert {u.domain for u in ir.seq_units()} == set(model.clock_domains())


def test_kernel_ir_render_is_readable():
    model = _model(COUNTER_V, "counter")
    ir = build_kernel_ir(model.taskgraph)
    text = ir.render()
    assert "fused_comb" in text
    assert "fused_seq_0" in text
    assert "signal q <-" in text


# ---------------------------------------------------------------------------
# Bundle contract


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
def test_bundle_contract(backend):
    model = _model(COUNTER_V, "counter")
    bundle = model.fused()
    assert bundle.backend == backend
    assert callable(bundle.comb.fn)
    assert set(bundle.seq) == set(model.clock_domains())
    assert bundle.layout.packed


# ---------------------------------------------------------------------------
# Compatibility: the backend attributes are the constant "numpy"


def test_simulator_reports_active_backend():
    model = _model(COUNTER_V, "counter")
    assert BatchSimulator(model, 8).backend == "numpy"
    assert BatchSimulator(model, 8, executor="graph-fused").backend == "numpy"
    assert model.fused().backend == "numpy"


# ---------------------------------------------------------------------------
# Differential matrix: per-node graph executor vs the fused lowering


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
@pytest.mark.parametrize("src,top", DESIGN_MATRIX)
@pytest.mark.parametrize("n", [16, 67])  # 67: ragged tail word
def test_backend_bit_identical_to_graph(src, top, n, backend):
    model = _model(src, top)
    stim = random_batch(model.design, n, 30, seed=9)
    ref, _ = _run(model, n, stim, "graph")
    got, sim = _run(model, n, stim, "graph-fused")
    assert sim.backend == backend
    assert set(ref) == set(got)
    for name in ref:
        np.testing.assert_array_equal(ref[name], got[name], err_msg=name)


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
def test_backend_with_quarantined_lanes_matches_graph(backend):
    model = _model(COUNTER_V, "counter")
    n = 24
    stim = random_batch(model.design, n, 40, seed=7)
    faults = [(7, 13, "injected"), (15, 2, "injected")]
    ref, ref_sim = _run(model, n, stim, "graph", faults=faults)
    got, got_sim = _run(model, n, stim, "graph-fused", faults=faults)
    assert got_sim.backend == backend
    for name in ref:
        np.testing.assert_array_equal(ref[name], got[name], err_msg=name)
    assert ref_sim.quarantine.faulted_lanes() == \
        got_sim.quarantine.faulted_lanes()


# ---------------------------------------------------------------------------
# Checkpoints


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
def test_backend_midrun_checkpoint_restore(backend):
    model = _model(COUNTER_V, "counter")
    n = 16
    stim = random_batch(model.design, n, 50, seed=4)
    ref, _ = _run(model, n, stim, "graph-fused")

    sim = BatchSimulator(model, n, executor="graph-fused")
    assert sim.backend == backend
    sim.run(stim, cycles=23)
    ckpt = sim.save_checkpoint()

    fresh = BatchSimulator(model, n, executor="graph-fused")
    fresh.restore_checkpoint(ckpt)
    assert fresh.cycles_run == 23
    out = fresh.run(stim, trace_every=1, start_cycle=fresh.cycles_run)
    np.testing.assert_array_equal(out["count"][-1], ref["count"][-1])


# ---------------------------------------------------------------------------
# Campaigns: the spec keeps its backend field, fixed to "numpy"


def test_campaign_spec_rejects_unknown_backend():
    for backend in ("tensor", "fortran"):
        spec = CampaignSpec(n=8, cycles=4, design="counter",
                            executor="graph-fused", backend=backend)
        with pytest.raises(ClusterError, match="backend layer was removed"):
            spec.validate()


def test_campaign_spec_rejects_backend_on_unfused_executor():
    spec = CampaignSpec(n=8, cycles=4, design="counter",
                        executor="graph", backend="tensor")
    with pytest.raises(ClusterError, match="backend layer was removed"):
        spec.validate()


def test_campaign_spec_signature_covers_backend():
    a = CampaignSpec(n=8, cycles=4, design="counter",
                     executor="graph-fused", backend="numpy")
    b = CampaignSpec(n=8, cycles=4, design="counter",
                     executor="graph-fused", backend="tensor")
    assert a.signature() != b.signature()


@pytest.mark.parametrize("design,sig,shard_sig", [
    ("counter",
     "0b1380a666df202bc45a8a528356dc58bbee73ddae080db768077e2c71e654a8",
     "8bbf8c629c76512bac8e31acc95b362fb375b417f05f71c42b041228828cb530"),
    ("spinal",
     "0b02da30617ec49c79fcf49200f1ccc5caf7ccd13d2ac1d3637197f64554dc5f",
     "84e3e09955f4cf05bdc05c6e6a317666bc652dca1e64861d5c140fd183e780bc"),
])
def test_default_campaign_signatures_are_stable(design, sig, shard_sig):
    # Golden values from the last release with the backend layer: result
    # stores and durable job records keyed by these stay hits.
    spec = CampaignSpec(n=64, cycles=16, design=design)
    spec.validate()
    assert spec.signature() == sig
    assert spec.shard_signature(ShardSpec(id=1, lo=16, hi=32)) == shard_sig
