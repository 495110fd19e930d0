"""Golden digests of the generated kernels and the kernel IR.

Per bundled design this pins the sha256 of the per-task kernel module
(``KernelCodegen``), of the fused flat-program module
(``FusedProgramCodegen``) and of the rendered kernel IR, plus the IR's
op count.  A refactor of the lowering must leave all four unchanged; a
change that means to alter the generated code updates the digests here
and says why.  Elaboration is independent of the hash seed, so the
digests hold under any ``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro import RTLFlow
from repro.backends import build_kernel_ir
from repro.core.codegen import FusedProgramCodegen, KernelCodegen
from repro.designs import get_design

GOLDEN = [
    pytest.param(
        "counter",
        "c18d2510043f93c177c0e9fe670b6f9c1ecbc17de34155b422d9340e5e31972a",
        "dbcf73cc9ff38572d54780ea2661cfd5dad0ddb68eb01e22c75c1d32f7255889",
        "aeb9f00ddb7f621391bead152f2fa112fad27f5a47b86378112ef5ed30bfac5f",
        29,
        id="counter",
    ),
    pytest.param(
        "crypto",
        "11d1f7fab6d91c5bc1da9de78805860b7ca242630929306157a4f2447abf365b",
        "ac6e0773ba1deac16edfb2431de48dea1810b481dda028bdb4cefefd15b8a71a",
        "5789ef60aa561dbdc2604d75ae7b4f372c85efc51b1cef704c233d631cc0c34e",
        127,
        id="crypto",
    ),
    pytest.param(
        "spinal",
        "4746300701f148176a36e54da1fca7e4de296c72f3232eb6d709f58d8a870ca8",
        "c733f80bd6e11e3aa3de5489b37a90ce52d48d6b1f2facbcb5f8156f5d22a420",
        "a409e1cbfbe6ecfe5883066d1e53fec053b241aade449e58017654df18d45cae",
        337,
        id="spinal",
    ),
    pytest.param(
        "riscv_mini",
        "d84a327436745e1d2c12db12942b3be1b3f3a6705fe8438b21d736ee48049da4",
        "f8d8e71e40b0151a185b1beda48159953f610e29225a3fa8be11fbde487a941b",
        "27266915ddf0ff9fe6061aaab9311690fe52ef812de94f4178346818ec7b639a",
        913,
        id="riscv_mini",
    ),
    pytest.param(
        "nvdla",
        "f09f38682181f45e66b84af9dacd579f6e26712d988ee40969d24c0348a31716",
        "d372482b6192b891e0ded7a40688672db494985ae32bd7c4723af2cbc005e373",
        "de60da9cb26301c2c98b757d3961787225538e319adaeefffc74a081eea4748a",
        1509,
        id="nvdla",
    ),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("design,kernel,fused,ir,ops", GOLDEN)
def test_codegen_golden(design, kernel, fused, ir, ops):
    bundle = get_design(design)
    tg = RTLFlow.from_source(bundle.source, bundle.top).compile().taskgraph
    assert _sha(KernelCodegen(tg).generate_source()) == kernel
    assert _sha(FusedProgramCodegen(tg).generate_source()) == fused
    kir = build_kernel_ir(tg)
    assert _sha(kir.render()) == ir
    assert sum(len(n.ops) for u in kir.units for n in u.nodes) == ops
