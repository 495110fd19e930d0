"""The backend-neutral batch-axis kernel IR.

:func:`build_kernel_ir` lowers a task graph to explicit per-node SSA
batch ops over the packed pool layout; :func:`validate_ir` re-derives
its structural invariants.  Nothing executes the IR today — the fused
numpy emitter (:class:`~repro.core.codegen.FusedProgramCodegen`) prints
source directly — so it is the seam for making one lowering the only
emitter (see docs/fusion.md, "Kernel IR").
"""

from repro.backends.ir import KernelIR, build_kernel_ir, validate_ir

__all__ = ["KernelIR", "build_kernel_ir", "validate_ir"]
