"""The batch-axis kernel IR.

:func:`build_kernel_ir` records the ops of the lowering walk that also
prints the numpy kernels (:mod:`repro.core.lowering`), as per-node SSA
batch ops over the packed pool layout; :func:`validate_ir` re-derives
its structural invariants.  Nothing executes the IR (see
docs/fusion.md, "Kernel IR").
"""

from repro.backends.ir import KernelIR, build_kernel_ir, validate_ir

__all__ = ["KernelIR", "build_kernel_ir", "validate_ir"]
