"""The batch-reduce GEMM microkernel.

Interface follows LIBXSMM / TPP and the paper's Figure 2:

    C[0:MB, 0:NB] += sum over bs of A[bs] x B[bs]

where A is a batch of ``[MB, KB]`` blocks and B a batch of ``[NB, KB]``
blocks in the blocked-B layout (``b_transposed=True``) or ``[KB, NB]``
blocks in plain layout.  Int8 inputs accumulate in int32 (VNNI semantics);
floating inputs accumulate in float32.

The compiler only chooses block sizes and batch; everything inside this call
is the "expert-tuned" black box the hybrid approach relies on.  Here that
box is the BLAS numpy links: the batch-reduce flattens into ONE GEMM over
the ``BS*KB`` reduction axis (A ``[BS, MB, KB]`` -> ``[MB, BS*KB]``, B
``[BS, NB, KB]`` -> ``[NB, BS*KB]`` or ``[BS, KB, NB]`` -> ``[BS*KB, NB]``),
which is sgemm for f32/bf16.  Int8 operands widen to float64 and run
dgemm: every partial sum is an integer of magnitude below
``255 * 128 * BS * KB``, far under 2**53, so the product is exact and casts
back to int32 bit-identically to an integer GEMM.

:func:`brgemm_kernel` is that numeric sequence alone; both runtime
backends execute it, so they stay bit-identical by construction.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError

_INT8 = (np.int8, np.uint8)


def batch_reduce_gemm(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    b_transposed: bool = True,
    initialize: bool = False,
) -> None:
    """Accumulate a batch-reduce GEMM into ``c`` in place.

    Args:
        c: Accumulator block ``[MB, NB]`` (float32 or int32).
        a: Batch of A blocks ``[BS, MB, KB]``.
        b: Batch of B blocks — ``[BS, NB, KB]`` if ``b_transposed`` else
            ``[BS, KB, NB]``.
        b_transposed: Whether B blocks are in the swapped-inner blocked
            layout (the layout the paper's templates produce).
        initialize: Zero the accumulator first (``beta = 0`` GEMM).

    Raises:
        ExecutionError: on shape or dtype mismatches.
    """
    if a.ndim != 3 or b.ndim != 3:
        raise ExecutionError(
            f"brgemm operands must be 3-D batches, got a{a.shape} b{b.shape}"
        )
    if a.shape[0] != b.shape[0]:
        raise ExecutionError(
            f"brgemm batch mismatch: a has {a.shape[0]}, b has {b.shape[0]}"
        )
    mb, kb = a.shape[1], a.shape[2]
    if b_transposed:
        nb, kb_b = b.shape[1], b.shape[2]
    else:
        kb_b, nb = b.shape[1], b.shape[2]
    if kb != kb_b:
        raise ExecutionError(
            f"brgemm K mismatch: a blocks [{mb},{kb}], b blocks "
            f"{'[NB,KB]' if b_transposed else '[KB,NB]'}={list(b.shape[1:])}"
        )
    if c.shape != (mb, nb):
        raise ExecutionError(
            f"brgemm accumulator shape {c.shape} != ({mb}, {nb})"
        )

    if a.dtype in _INT8:
        if c.dtype != np.int32:
            raise ExecutionError(
                f"int8 brgemm needs an int32 accumulator, got {c.dtype}"
            )
    elif c.dtype != np.float32:
        raise ExecutionError(
            f"float brgemm needs a float32 accumulator, got {c.dtype}"
        )
    brgemm_kernel(c, a, b, b_transposed, initialize)


def brgemm_kernel(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    b_transposed: bool,
    initialize: bool,
) -> None:
    """:func:`batch_reduce_gemm` without its checks: one BLAS GEMM.

    Callers guarantee the shapes and dtypes ``batch_reduce_gemm``
    validates (the code generator proves them at build time).  Operands
    may be any strided views: each is copied once into a C-contiguous
    GEMM operand, so the BLAS call sees the same layout whatever the
    caller's strides.
    """
    bs, mb, kb = a.shape
    exact = a.dtype in _INT8
    gemm_dtype = np.float64 if exact else np.float32
    lhs = np.ascontiguousarray(a.transpose(1, 0, 2), dtype=gemm_dtype)
    if b_transposed:
        rhs = np.ascontiguousarray(b.transpose(1, 0, 2), dtype=gemm_dtype)
        rhs = rhs.reshape(-1, bs * kb).T
    else:
        rhs = np.ascontiguousarray(b, dtype=gemm_dtype).reshape(bs * kb, -1)
    partial = np.dot(lhs.reshape(mb, bs * kb), rhs)
    if exact:
        partial = partial.astype(np.int32)
    if initialize:
        c[...] = partial
    else:
        c += partial


def brgemm_flops(mb: int, nb: int, kb: int, batch: int) -> int:
    """Multiply-accumulate operation count of one microkernel invocation."""
    return 2 * mb * nb * kb * batch
