"""Tests for the batch-reduce GEMM microkernel and the machine model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dtypes import DType
from repro.errors import ExecutionError
from repro.microkernel import (
    XEON_8358,
    CacheLevel,
    MachineModel,
    batch_reduce_gemm,
    brgemm_flops,
)


class TestBrgemm:
    def test_accumulates(self):
        a = np.random.rand(2, 4, 8).astype(np.float32)
        b = np.random.rand(2, 6, 8).astype(np.float32)
        c = np.ones((4, 6), dtype=np.float32)
        batch_reduce_gemm(c, a, b)
        expected = 1.0 + sum(a[i] @ b[i].T for i in range(2))
        np.testing.assert_allclose(c, expected, rtol=1e-5)

    def test_initialize_overwrites(self):
        a = np.random.rand(1, 4, 8).astype(np.float32)
        b = np.random.rand(1, 6, 8).astype(np.float32)
        c = np.full((4, 6), 100.0, dtype=np.float32)
        batch_reduce_gemm(c, a, b, initialize=True)
        np.testing.assert_allclose(c, a[0] @ b[0].T, rtol=1e-5)

    def test_plain_b_layout(self):
        a = np.random.rand(2, 4, 8).astype(np.float32)
        b = np.random.rand(2, 8, 6).astype(np.float32)
        c = np.zeros((4, 6), dtype=np.float32)
        batch_reduce_gemm(c, a, b, b_transposed=False)
        expected = sum(a[i] @ b[i] for i in range(2))
        np.testing.assert_allclose(c, expected, rtol=1e-5)

    def test_int8_semantics(self):
        a = np.random.randint(0, 256, (3, 4, 8)).astype(np.uint8)
        b = np.random.randint(-128, 128, (3, 6, 8)).astype(np.int8)
        c = np.zeros((4, 6), dtype=np.int32)
        batch_reduce_gemm(c, a, b)
        expected = sum(
            a[i].astype(np.int32) @ b[i].astype(np.int32).T for i in range(3)
        )
        np.testing.assert_array_equal(c, expected)

    def test_shape_errors(self):
        with pytest.raises(ExecutionError, match="3-D"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.float32),
                np.zeros((4, 4), np.float32),
                np.zeros((1, 4, 4), np.float32),
            )
        with pytest.raises(ExecutionError, match="batch mismatch"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.float32),
                np.zeros((2, 4, 4), np.float32),
                np.zeros((3, 4, 4), np.float32),
            )
        with pytest.raises(ExecutionError, match="K mismatch"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.float32),
                np.zeros((1, 4, 8), np.float32),
                np.zeros((1, 4, 4), np.float32),
            )
        with pytest.raises(ExecutionError, match="accumulator shape"):
            batch_reduce_gemm(
                np.zeros((5, 4), np.float32),
                np.zeros((1, 4, 8), np.float32),
                np.zeros((1, 4, 8), np.float32),
            )

    def test_dtype_errors(self):
        with pytest.raises(ExecutionError, match="int32 accumulator"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.float32),
                np.zeros((1, 4, 8), np.int8),
                np.zeros((1, 4, 8), np.int8),
            )
        with pytest.raises(ExecutionError, match="float32 accumulator"):
            batch_reduce_gemm(
                np.zeros((4, 4), np.int32),
                np.zeros((1, 4, 8), np.float32),
                np.zeros((1, 4, 8), np.float32),
            )

    def test_flops(self):
        assert brgemm_flops(16, 32, 64, 4) == 2 * 16 * 32 * 64 * 4

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),  # batch
        st.integers(min_value=1, max_value=8),  # mb
        st.integers(min_value=1, max_value=8),  # nb
        st.integers(min_value=1, max_value=8),  # kb
        st.booleans(),
        st.booleans(),
    )
    def test_matches_einsum_oracle(self, bs, mb, nb, kb, transposed, init):
        """brgemm == the einsum definition for any block geometry."""
        rng = np.random.RandomState(bs * 1000 + mb * 100 + nb * 10 + kb)
        a = rng.rand(bs, mb, kb).astype(np.float32)
        if transposed:
            b = rng.rand(bs, nb, kb).astype(np.float32)
            expected = np.einsum("bmk,bnk->mn", a, b)
        else:
            b = rng.rand(bs, kb, nb).astype(np.float32)
            expected = np.einsum("bmk,bkn->mn", a, b)
        c = rng.rand(mb, nb).astype(np.float32)
        if not init:
            expected = expected + c
        batch_reduce_gemm(c, a, b, b_transposed=transposed, initialize=init)
        np.testing.assert_allclose(c, expected, rtol=1e-4, atol=1e-5)


#: (bs, mb, nb, kb): tiny, a typical template block, and two reductions
#: of bs*kb >= 4096 (the second with a single output column).
INT8_SHAPES = [(1, 3, 5, 7), (4, 16, 32, 16), (64, 16, 16, 64),
               (16, 5, 1, 300)]


def _int8_operands(kind, bs, mb, nb, kb, transposed, rng):
    b_shape = (bs, nb, kb) if transposed else (bs, kb, nb)
    if kind == "u8xs8":
        a = rng.randint(0, 256, (bs, mb, kb)).astype(np.uint8)
        b = rng.randint(-128, 128, b_shape).astype(np.int8)
    elif kind == "s8xs8":
        a = rng.randint(-128, 128, (bs, mb, kb)).astype(np.int8)
        b = rng.randint(-128, 128, b_shape).astype(np.int8)
    elif kind == "u8high":
        # Same-sign, irregular products: sums pass 2**24 at bs*kb=4096,
        # where a float32 GEMM would round (uniform extremes would not).
        a = rng.randint(192, 256, (bs, mb, kb)).astype(np.uint8)
        b = rng.randint(-128, -96, b_shape).astype(np.int8)
    elif kind == "u8max":
        a = np.full((bs, mb, kb), 255, np.uint8)
        b = np.full(b_shape, -128, np.int8)
    else:  # s8min
        a = np.full((bs, mb, kb), -128, np.int8)
        b = np.full(b_shape, -128, np.int8)
    return a, b


class TestInt8Exact:
    """The float64 GEMM path equals an int64 oracle exactly."""

    @pytest.mark.parametrize(
        "kind", ["u8xs8", "s8xs8", "u8high", "u8max", "s8min"]
    )
    @pytest.mark.parametrize("shape", INT8_SHAPES,
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("transposed", [True, False],
                             ids=["nk", "kn"])
    @pytest.mark.parametrize("init", [True, False],
                             ids=["init", "accum"])
    def test_matches_int64_oracle(self, kind, shape, transposed, init):
        bs, mb, nb, kb = shape
        rng = np.random.RandomState(bs * 7 + kb)
        a, b = _int8_operands(kind, bs, mb, nb, kb, transposed, rng)
        subscripts = "bmk,bnk->mn" if transposed else "bmk,bkn->mn"
        expected = np.einsum(
            subscripts, a.astype(np.int64), b.astype(np.int64)
        )
        c = rng.randint(-10**6, 10**6, (mb, nb)).astype(np.int32)
        if not init:
            expected = expected + c
        batch_reduce_gemm(c, a, b, b_transposed=transposed, initialize=init)
        assert c.dtype == np.int32
        np.testing.assert_array_equal(c, expected)


class TestStridedOperands:
    """Views of larger buffers give the bits contiguous copies give."""

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    @pytest.mark.parametrize("transposed", [True, False])
    def test_views_equal_contiguous_copies(self, dtype, transposed):
        rng = np.random.RandomState(5)
        if dtype == np.float32:
            big_a = rng.rand(6, 20, 40).astype(np.float32)
            big_b = rng.rand(6, 40, 40).astype(np.float32) - 0.5
            acc = np.float32
        else:
            big_a = rng.randint(0, 256, (6, 20, 40)).astype(np.uint8)
            big_b = rng.randint(-128, 128, (6, 40, 40)).astype(np.int8)
            acc = np.int32
        a = big_a[1:5, 2:18, 3:35]
        b = big_b[1:5, 4:28, 3:35] if transposed else big_b[1:5, 3:35, 4:28]
        c_big = np.zeros((20, 30), acc)
        view_c = c_big[2:18, 1:25]
        flat_c = np.zeros((16, 24), acc)
        for c, lhs, rhs in ((view_c, a, b), (flat_c, a.copy(), b.copy())):
            batch_reduce_gemm(c, lhs, rhs, b_transposed=transposed,
                              initialize=True)
            batch_reduce_gemm(c, lhs, rhs, b_transposed=transposed)
        np.testing.assert_array_equal(view_c, flat_c)
        assert not c_big[:2].any() and not c_big[:, 25:].any()


class TestMachineModel:
    def test_xeon_parameters(self):
        assert XEON_8358.num_cores == 32
        assert XEON_8358.vector_lanes(DType.f32) == 16
        assert XEON_8358.vector_lanes(DType.s8) == 64
        assert XEON_8358.flops_per_cycle[DType.s8] == (
            4 * XEON_8358.flops_per_cycle[DType.f32]
        )

    def test_cache_lookup(self):
        assert XEON_8358.cache("L1").size_bytes == 48 * 1024
        assert XEON_8358.l1.name == "L1"
        assert XEON_8358.dram.name == "DRAM"
        with pytest.raises(KeyError):
            XEON_8358.cache("L9")

    def test_peak_flops(self):
        assert XEON_8358.peak_flops(DType.f32) == pytest.approx(
            64 * 32 * 2.6e9
        )

    def test_cycles_to_seconds(self):
        assert XEON_8358.cycles_to_seconds(2.6e9) == pytest.approx(1.0)

    def test_custom_machine(self):
        tiny = MachineModel(
            name="tiny",
            num_cores=2,
            frequency_hz=1e9,
            flops_per_cycle={DType.f32: 8.0, DType.s8: 32.0,
                             DType.u8: 32.0, DType.bf16: 16.0},
            vector_bytes=32,
            num_vector_registers=16,
            caches=(
                CacheLevel("L1", 32 * 1024, 64.0),
                CacheLevel("L2", 512 * 1024, 32.0),
                CacheLevel("DRAM", 1 << 50, 4.0, shared=True),
            ),
            barrier_cycles=1000.0,
            api_call_cycles=500.0,
        )
        assert tiny.peak_flops(DType.f32) == pytest.approx(16e9)
        assert tiny.caches[-1].shared
