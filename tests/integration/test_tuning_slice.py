"""Differential slice over the tuning space.

The tuner and the adaptive retuner may install any valid ``MatmulParams``
point, so every point must compute the right answer, not only the
heuristic pick.  Each case forces one sampled point through
``compile_graph(param_selector=...)`` and checks that

* the codegen and interpreter backends agree bitwise, and
* both match ``evaluate_graph`` within the ``test_workload_matrix``
  tolerances (fp32: allclose; int8: relative-mismatch statistics).

The shapes are the paper's awkward ones: a prime-ish ``k=479``, a single
output column, and an odd ``m``.  The tier-1 slice is a few points per
shape; the ``slow`` slice samples more.
"""

import random

import numpy as np
import pytest

from repro import DType, XEON_8358, CompilerOptions, compile_graph
from repro.graph_ir import GraphBuilder
from repro.graph_ir.reference import evaluate_graph
from repro.templates.params import TemplateKind
from repro.tuner.space import TuningSpace

#: (m, k, n).  The k=479 shape is tall enough that its fp32 space has
#: L2_BLOCKED points; every space here has K_SLICED points.
SHAPES = [(1024, 479, 8), (64, 128, 1), (33, 64, 48)]
DTYPES = [DType.f32, DType.s8]
#: Kinds each slice includes whenever the space has them.
FORCED_KINDS = (TemplateKind.K_SLICED, TemplateKind.L2_BLOCKED)
#: Sampled points per (shape, dtype): tier-1 slice, then the slow one.
TIER1_POINTS, SLOW_POINTS = 3, 12


def _graph(m, k, n, dtype):
    b = GraphBuilder(f"slice_{m}x{k}x{n}_{dtype.value}")
    if dtype == DType.f32:
        x = b.input("x", DType.f32, (m, k))
        w = b.constant("w", dtype=DType.f32, shape=(k, n))
        y = b.matmul(x, w)
    else:
        x = b.input("x", DType.u8, (m, k))
        w = b.constant("w", dtype=DType.s8, shape=(k, n))
        y = b.matmul(
            b.dequantize(x, scale=0.05, zero_point=8),
            b.dequantize(w, scale=0.05),
        )
    b.output(b.relu(y))
    return b.finish()


def _inputs(m, k, n, dtype):
    rng = np.random.default_rng(m * 1000 + k + n)
    if dtype == DType.f32:
        return {
            "x": rng.standard_normal((m, k)).astype(np.float32),
            "w": rng.standard_normal((k, n)).astype(np.float32),
        }
    return {
        "x": rng.integers(0, 256, (m, k), dtype=np.uint8),
        "w": rng.integers(-128, 128, (k, n), dtype=np.int8),
    }


def _slice(m, k, n, dtype, count, seed):
    """A fixed-seed sample plus one point of each forced kind present."""
    space = TuningSpace(m, n, k, dtype, XEON_8358)
    rng = random.Random(seed)
    points = space.sample(rng, count)
    for kind in FORCED_KINDS:
        if any(p.kind == kind for p in points):
            continue
        of_kind = [p for p in space.candidates() if p.kind == kind]
        if of_kind:
            points.append(rng.choice(of_kind))
    return points


def _cases(count, seed):
    cases = []
    for m, k, n in SHAPES:
        for dtype in DTYPES:
            for index, params in enumerate(
                _slice(m, k, n, dtype, count, seed)
            ):
                case_id = (
                    f"{m}x{k}x{n}-{dtype.value}-{index}-{params.kind.name}"
                )
                cases.append(pytest.param((m, k, n), dtype, params,
                                          id=case_id))
    return cases


def _run(shape, dtype, params, executor):
    def forced(m, n, k, dtype, machine, batch=1, constraints=None):
        return params

    partition = compile_graph(
        _graph(*shape, dtype),
        options=CompilerOptions(executor=executor),
        param_selector=forced,
    )
    try:
        outputs = partition.execute(_inputs(*shape, dtype))
    finally:
        partition.close()
    return list(outputs.values())[0]


def _check(shape, dtype, params):
    interpreted = _run(shape, dtype, params, "interpret")
    generated = _run(shape, dtype, params, "codegen")
    np.testing.assert_array_equal(generated, interpreted)
    expected = list(
        evaluate_graph(_graph(*shape, dtype), _inputs(*shape, dtype)).values()
    )[0]
    if dtype == DType.f32:
        np.testing.assert_allclose(generated, expected, rtol=1e-3, atol=1e-3)
    else:
        denom = max(np.abs(expected).max(), 1.0)
        mismatch = np.abs(generated - expected) / denom
        assert np.median(mismatch) < 1e-6
        assert (mismatch > 1e-2).mean() < 0.01


def test_slice_has_both_special_kinds():
    kinds = {
        params.kind
        for m, k, n in SHAPES
        for dtype in DTYPES
        for params in _slice(m, k, n, dtype, TIER1_POINTS, seed=0)
    }
    assert set(FORCED_KINDS) <= kinds


@pytest.mark.parametrize(
    "shape, dtype, params", _cases(TIER1_POINTS, seed=0)
)
def test_sampled_point_matches_reference(shape, dtype, params):
    _check(shape, dtype, params)


@pytest.mark.slow
@pytest.mark.parametrize(
    "shape, dtype, params", _cases(SLOW_POINTS, seed=1)
)
def test_larger_sample_matches_reference(shape, dtype, params):
    _check(shape, dtype, params)
