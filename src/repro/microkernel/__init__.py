"""Microkernel substrate: batch-reduce GEMM and the CPU machine model.

The paper builds on a hand-tuned, JIT-compiled batch-reduce GEMM microkernel
(LIBXSMM-style).  We reproduce its *interface and semantics* on the BLAS
numpy links (one GEMM per call) — the compiler treats the microkernel as a
black box either way — and pair it with a machine description used by the
heuristics and the performance model.
"""

from .brgemm import batch_reduce_gemm, brgemm_flops
from .machine import CacheLevel, MachineModel, XEON_8358

__all__ = [
    "batch_reduce_gemm",
    "brgemm_flops",
    "CacheLevel",
    "MachineModel",
    "XEON_8358",
]
