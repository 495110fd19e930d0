"""Golden digests of the generated kernels and the kernel IR.

Per bundled design this pins the sha256 of the per-task kernel module
(``KernelCodegen``), of the fused flat-program module
(``FusedProgramCodegen``) and of the rendered kernel IR, plus the IR's
op count.  A refactor of the lowering must leave all four unchanged; a
change that means to alter the generated code updates the digests here
and says why.  Elaboration is independent of the hash seed, so the
digests hold under any ``PYTHONHASHSEED``.

Structural pins ride along: constant shift amounts, bit indices and
``+:``/``-:`` starts lower statically, so no runtime shift in the
generated source takes a literal amount, and a folded amount leaves no
dead op in the IR.
"""

import hashlib

import pytest

from repro import RTLFlow
from repro.backends import build_kernel_ir
from repro.core.codegen import FusedProgramCodegen, KernelCodegen
from repro.designs import get_design

from tests.helpers import dead_ir_ops, literal_shift_amounts

DESIGNS = ["counter", "crypto", "spinal", "riscv_mini", "nvdla"]

GOLDEN = [
    pytest.param(
        "counter",
        "ef741c32112b5fe21284abda20d034d5b0e1d93217790742ae260b65ba9d9343",
        "dbcf73cc9ff38572d54780ea2661cfd5dad0ddb68eb01e22c75c1d32f7255889",
        "64e6a3aeafe78e947767b850262717865e1b87cba9ce87a9eec9d19a779143c8",
        15,
        id="counter",
    ),
    pytest.param(
        "crypto",
        "af09a180516895038fb140a5ae3655d0d40aaf016dbb125989c6049f62b8be61",
        "aa44486e62f2f250f7ed32561a6532103ac2d4576b1409eb2c6dd9493da7b385",
        "55f581c57a67cba0be9a3f8abeb558c2668c46c005f99ed74f9c12528a99c3f6",
        95,
        id="crypto",
    ),
    pytest.param(
        "spinal",
        "af3cc7989fc1fb0f35cb8686880cf70d3df5285e92eff94808d29028a5669dec",
        "c733f80bd6e11e3aa3de5489b37a90ce52d48d6b1f2facbcb5f8156f5d22a420",
        "57ca084b6fec49178bc4e26f040d4d7f4c02e44d60d16e8c1a02b52e40ff8c47",
        313,
        id="spinal",
    ),
    pytest.param(
        "riscv_mini",
        "ab6b697e61c1c88c26f4d0312ba9c10612527847aca6b1e22dcf1f18c063803a",
        "f7fc2a61c0bad7b84009a2bb2fdea1118664b30cf3abe2965682af49874cbb6f",
        "1aeca124a0f2d76e6e60f9c7134133a3016eb883ee0bd590db880252775833e7",
        834,
        id="riscv_mini",
    ),
    pytest.param(
        "nvdla",
        "3a781096a770e3d2c7a670546f4316485697268af8ae30048b25b7ce5bb50bc8",
        "d372482b6192b891e0ded7a40688672db494985ae32bd7c4723af2cbc005e373",
        "b4b82a14b7a0968bdce2364e1b9f27fb0d85b7cbfd92c03242b84f587ef01ea4",
        1501,
        id="nvdla",
    ),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _taskgraph(design: str):
    bundle = get_design(design)
    return RTLFlow.from_source(bundle.source, bundle.top).compile().taskgraph


@pytest.mark.parametrize("design,kernel,fused,ir,ops", GOLDEN)
def test_codegen_golden(design, kernel, fused, ir, ops):
    tg = _taskgraph(design)
    assert _sha(KernelCodegen(tg).generate_source()) == kernel
    assert _sha(FusedProgramCodegen(tg).generate_source()) == fused
    kir = build_kernel_ir(tg)
    assert _sha(kir.render()) == ir
    assert sum(len(n.ops) for u in kir.units for n in u.nodes) == ops


@pytest.mark.parametrize("design", DESIGNS)
def test_no_literal_amount_reaches_a_runtime_shift(design):
    tg = _taskgraph(design)
    assert literal_shift_amounts(KernelCodegen(tg).generate_source()) == []
    assert literal_shift_amounts(FusedProgramCodegen(tg).generate_source()) == []


@pytest.mark.parametrize("design", DESIGNS)
def test_kernel_ir_has_no_dead_ops(design):
    assert dead_ir_ops(build_kernel_ir(_taskgraph(design))) == []
