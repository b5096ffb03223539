"""The default executor: differential equivalence and satellites.

A partition compiled with default options runs on the codegen backend,
which is only allowed to be the default because it is bit-identical to
the interpreter.  The differential matrix here (MLP/MHA x f32/int8 x 1/4
threads, default options vs ``executor="interpret"``) is the contract;
the rest covers backend selection, the build-time specialization's unit
behavior (checked against the interpreter's exact messages and stats),
and the interpreter satellites (persistent pool, Free clearing
thread-local status, lock-free serial stats).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import CompilerOptions, DType, compile_graph
from repro.errors import ExecutionError
from repro.runtime import (
    EXECUTOR_BACKENDS,
    CodegenExecutor,
    ExecutionStats,
    Interpreter,
)
from repro.runtime.interpreter import _NullLock
from repro.tensor_ir import SliceRef, TirBuilder, TirModule
from repro.tensor_ir.stmt import Alloc, full_slice
from repro.workloads import (
    build_mha_graph,
    build_mlp_graph,
    make_mha_inputs,
    make_mlp_inputs,
)

WORKLOADS = {
    "MLP_1": (lambda dtype: build_mlp_graph("MLP_1", 16, dtype),
              lambda dtype: make_mlp_inputs("MLP_1", 16, dtype)),
    "MHA_1": (lambda dtype: build_mha_graph("MHA_1", 2, dtype),
              lambda dtype: make_mha_inputs("MHA_1", 2, dtype)),
}


def run_backend(workload, dtype, backend, num_threads):
    """Outputs and stats of one execute; ``backend=None`` keeps defaults."""
    build, feed = WORKLOADS[workload]
    options = CompilerOptions() if backend is None else CompilerOptions(
        executor=backend
    )
    partition = compile_graph(
        build(dtype), options=options, num_threads=num_threads
    )
    outputs, stats = partition.execute_with_stats(dict(feed(dtype)))
    partition.close()
    # Tensor names differ between independently built graphs (global id
    # counter), so equivalence is positional.
    return list(outputs.values()), stats


class TestDifferential:
    """Interpreter and the default executor must be indistinguishable."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("dtype", [DType.f32, DType.s8],
                             ids=["f32", "int8"])
    @pytest.mark.parametrize("num_threads", [1, 4])
    def test_outputs_bit_identical_and_stats_match(
        self, workload, dtype, num_threads
    ):
        ref_out, ref_stats = run_backend(
            workload, dtype, "interpret", num_threads
        )
        got_out, got_stats = run_backend(workload, dtype, None, num_threads)
        assert len(ref_out) == len(got_out)
        for ref, got in zip(ref_out, got_out):
            np.testing.assert_array_equal(ref, got)
        ref_dict, got_dict = ref_stats.to_dict(), got_stats.to_dict()
        if num_threads == 1:
            assert ref_dict == got_dict
        else:
            # peak_temp_bytes depends on thread interleaving in both
            # backends; every deterministic counter must still agree.
            for key in ref_dict:
                if key != "peak_temp_bytes":
                    assert ref_dict[key] == got_dict[key], key
            assert got_dict["peak_temp_bytes"] > 0

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_threaded_equals_serial_codegen(self, workload):
        serial, _ = run_backend(workload, DType.f32, "codegen", 1)
        threaded, _ = run_backend(workload, DType.f32, "codegen", 4)
        for ref, got in zip(serial, threaded):
            np.testing.assert_array_equal(ref, got)

    def test_repeated_calls_reuse_state_correctly(self):
        build, feed = WORKLOADS["MLP_1"]
        partition = compile_graph(build(DType.f32))
        first = partition.execute(dict(feed(DType.f32)))
        second = partition.execute(dict(feed(DType.f32)))
        # Pooled temporaries and the pooled arena must be re-zeroed: any
        # stale state from call one would perturb call two.
        for ref, got in zip(first.values(), second.values()):
            np.testing.assert_array_equal(ref, got)


class TestBackendSelection:
    def test_default_is_codegen(self):
        partition = compile_graph(build_mlp_graph("MLP_1", 16, DType.f32))
        assert partition.executor == "codegen"
        assert CompilerOptions().executor == "codegen"
        assert EXECUTOR_BACKENDS == ("interpret", "codegen")

    def test_removed_closure_backend_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            compile_graph(
                build_mlp_graph("MLP_1", 16, DType.f32),
                options=CompilerOptions(executor="compiled"),
            )
        partition = compile_graph(build_mlp_graph("MLP_1", 16, DType.f32))
        from repro.runtime import CompiledPartition

        with pytest.raises(ValueError, match="compiled"):
            CompiledPartition(partition.lowered, executor="compiled")

    def test_every_executor_default_reads_compiler_options(self):
        import inspect

        from repro.adaptive.monitor import AdaptiveManager
        from repro.adaptive.retuner import Retuner
        from repro.tuner.cache import tuning_key
        from repro.tuner.tuner import MatmulTuner

        for fn in (tuning_key, MatmulTuner, AdaptiveManager, Retuner):
            default = inspect.signature(fn).parameters["executor"].default
            assert default == CompilerOptions().executor, fn

    def test_interpret_selectable_via_options(self):
        partition = compile_graph(
            build_mlp_graph("MLP_1", 16, DType.f32),
            options=CompilerOptions(executor="interpret"),
        )
        assert partition.executor == "interpret"

    def test_invalid_backend_rejected_at_compile(self):
        with pytest.raises(ValueError, match="executor"):
            compile_graph(
                build_mlp_graph("MLP_1", 16, DType.f32),
                options=CompilerOptions(executor="jit"),
            )

    def test_invalid_backend_rejected_by_partition(self):
        partition = compile_graph(build_mlp_graph("MLP_1", 16, DType.f32))
        from repro.runtime import CompiledPartition

        with pytest.raises(ValueError, match="jit"):
            CompiledPartition(partition.lowered, executor="jit")

    def test_executor_choice_enters_cache_signature(self):
        from repro.microkernel.machine import XEON_8358
        from repro.service import graph_signature

        sig_default = graph_signature(
            build_mlp_graph("MLP_1", 16, DType.f32),
            XEON_8358,
            CompilerOptions(),
        )
        sig_interp = graph_signature(
            build_mlp_graph("MLP_1", 16, DType.f32),
            XEON_8358,
            CompilerOptions(executor="interpret"),
        )
        assert sig_default != sig_interp

    def test_session_executor_override(self):
        from repro.service import InferenceSession

        feed = make_mlp_inputs("MLP_1", 16, DType.f32)
        sessions = []
        for backend in ("interpret", "codegen"):
            session = InferenceSession.for_workload(
                "MLP_1", executor=backend
            )
            weights = {
                name: feed[name] for name in session.weight_names
            }
            session = InferenceSession.for_workload(
                "MLP_1",
                weights=weights,
                executor=backend,
            )
            inputs = {name: feed[name] for name in session.input_names}
            sessions.append(list(session.run(inputs).values()))
        for ref, got in zip(*sessions):
            np.testing.assert_array_equal(ref, got)


class TestPartitionPool:
    def test_pool_persists_across_calls_and_tracks_num_threads(self):
        feed = make_mlp_inputs("MLP_1", 16, DType.f32)
        partition = compile_graph(
            build_mlp_graph("MLP_1", 16, DType.f32), num_threads=2
        )
        partition.execute(dict(feed))
        pool = partition._pool
        assert pool is not None
        partition.execute(dict(feed))
        assert partition._pool is pool  # no per-call churn
        partition.num_threads = 3
        partition.execute(dict(feed))
        assert partition._pool is not pool
        assert partition._pool_size == 3
        partition.close()
        assert partition._pool is None

    def test_single_threaded_partition_never_builds_a_pool(self):
        feed = make_mlp_inputs("MLP_1", 16, DType.f32)
        partition = compile_graph(build_mlp_graph("MLP_1", 16, DType.f32))
        partition.execute(dict(feed))
        assert partition._pool is None


def _parallel_module():
    b = TirBuilder("f")
    b.param("x", DType.f32, (4, 8))
    with b.parallel_for("i", 4) as i:
        b.fill(SliceRef("x", (i, 0), (1, 8)), 2.0)
    with b.parallel_for("j", 4) as j:
        b.fill(SliceRef("x", (j, 0), (1, 8)), 3.0)
    module = TirModule(entry="f")
    module.add(b.finish())
    return module


class TestInterpreterSatellites:
    def test_parallel_loops_share_one_pool_for_interpreter_lifetime(self):
        module = _parallel_module()
        interp = Interpreter(module, num_threads=2)
        x = np.zeros((4, 8), dtype=np.float32)
        interp.run({"x": x})
        pool = interp._own_pool
        assert pool is not None  # created once, on the first loop
        interp.run({"x": x})
        assert interp._own_pool is pool
        assert np.all(x == 3.0)
        interp.close()
        assert interp._own_pool is None

    def test_injected_pool_is_used_and_not_owned(self):
        module = _parallel_module()
        with ThreadPoolExecutor(max_workers=2) as pool:
            interp = Interpreter(module, num_threads=2, pool=pool)
            x = np.zeros((4, 8), dtype=np.float32)
            interp.run({"x": x})
            assert interp._own_pool is None
            assert np.all(x == 3.0)

    def test_serial_interpreter_skips_the_stats_lock(self):
        module = _parallel_module()
        assert isinstance(Interpreter(module)._stats_lock, _NullLock)
        threaded = Interpreter(module, num_threads=2)
        assert not isinstance(threaded._stats_lock, _NullLock)
        assert isinstance(threaded._stats_lock, type(threading.Lock()))

    def test_free_clears_thread_local_status(self):
        # A name freed and re-allocated as a plain buffer must not be
        # forked (zeroed) per parallel iteration like the dead
        # thread-local buffer it replaced.
        b = TirBuilder("f")
        b.param("out", DType.f32, (4, 4))
        b.alloc("scratch", DType.f32, (4,), thread_local=True)
        b.free("scratch")
        b.emit(
            Alloc(tensor="scratch", dtype=DType.f32, shape=(4,))
        )
        b.fill(full_slice("scratch", (4,)), 3.0)
        with b.parallel_for("i", 4) as i:
            b.copy(
                SliceRef("out", (i, 0), (1, 4)),
                full_slice("scratch", (4,)),
            )
        b.free("scratch")
        module = TirModule(entry="f")
        module.add(b.finish())
        out = np.zeros((4, 4), dtype=np.float32)
        Interpreter(module, num_threads=2).run({"out": out})
        assert np.all(out == 3.0)  # stale thread-local status would give 0

    def test_stats_merge(self):
        parent = ExecutionStats(brgemm_calls=1, parallel_loops=1)
        parent.note_alloc(100)
        child = ExecutionStats(brgemm_calls=2, compute_stmts=3)
        child.note_alloc(50)
        child.note_free(50)
        parent.merge(child)
        assert parent.brgemm_calls == 3
        assert parent.compute_stmts == 3
        assert parent.parallel_loops == 1
        # Child peak stacks on the parent's live bytes at the fork.
        assert parent.peak_temp_bytes == 150


class TestSpecialization:
    """Unit behavior of codegen's build-time specialization.

    Each case checks codegen against the interpreter's exact messages,
    stats or values, on a variant the codegen unit tests do not cover.
    """

    def test_constant_slices_and_bounds_precomputed(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4, 8))
        with b.for_("i", 4) as i:
            b.fill(SliceRef("x", (i, 0), (1, 8)), 1.0)
        b.fill(SliceRef("x", (1, 2), (2, 3)), 5.0)
        module = TirModule(entry="f")
        module.add(b.finish())
        executor = CodegenExecutor(module)
        # The static 2-D slice indexes through one prebound tuple.
        assert "t_x[_ix" in executor.source_for("f")
        x = np.zeros((4, 8), dtype=np.float32)
        executor.run({"x": x})
        expected = np.ones((4, 8), dtype=np.float32)
        expected[1:3, 2:5] = 5.0
        np.testing.assert_array_equal(x, expected)

    def test_dynamic_bounds_error_matches_interpreter(self):
        # The out-of-bounds slice sits inside a threaded parallel loop:
        # the error must surface from the worker with the same message.
        def build():
            b = TirBuilder("f")
            b.param("x", DType.f32, (6,))
            with b.parallel_for("i", 4) as i:
                b.fill(SliceRef("x", (i * 2,), (2,)), 1.0)
            module = TirModule(entry="f")
            module.add(b.finish())
            return module

        x = np.zeros(6, dtype=np.float32)
        with pytest.raises(ExecutionError) as interp_err:
            Interpreter(build(), num_threads=2).run({"x": x})
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(ExecutionError) as exec_err:
                CodegenExecutor(build()).run(
                    {"x": x}, pool=pool, num_threads=2
                )
        assert str(interp_err.value) == str(exec_err.value)
        assert "out of bounds" in str(exec_err.value)

    def test_static_out_of_bounds_raises_at_run_not_build(self):
        def build():
            b = TirBuilder("f")
            b.param("x", DType.f32, (4,))
            b.fill(SliceRef("x", (2,), (4,)), 1.0)  # [2, 6) over (4,)
            module = TirModule(entry="f")
            module.add(b.finish())
            return module

        executor = CodegenExecutor(build())  # build must not raise
        with pytest.raises(ExecutionError) as exec_err:
            executor.run({"x": np.zeros(4, dtype=np.float32)})
        with pytest.raises(ExecutionError) as interp_err:
            Interpreter(build()).run({"x": np.zeros(4, dtype=np.float32)})
        assert str(exec_err.value) == str(interp_err.value)
        assert "out of bounds" in str(exec_err.value)

    def test_entry_validation_matches_interpreter(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        b.fill(full_slice("x", (4,)), 1.0)
        module = TirModule(entry="f")
        module.add(b.finish())
        for feed in ({}, {"x": np.zeros((5,), dtype=np.float32)}):
            with pytest.raises(ExecutionError) as interp_err:
                Interpreter(module).run(dict(feed))
            with pytest.raises(ExecutionError) as exec_err:
                CodegenExecutor(module).run(dict(feed))
            assert str(exec_err.value) == str(interp_err.value)

    def test_pooled_temporaries_are_rezeroed(self):
        # Thread-local scratch inside a threaded parallel loop: worker
        # slots are pooled across calls and must read zeros on every
        # iteration of every call, as the interpreter's frame fork does.
        b = TirBuilder("f")
        b.param("out", DType.f32, (4, 4))
        b.alloc("scratch", DType.f32, (4,), thread_local=True)
        with b.parallel_for("i", 4) as i:
            b.compute(
                "add",
                full_slice("scratch", (4,)),
                [full_slice("scratch", (4,)), 1.0],
            )
            b.copy(
                SliceRef("out", (i, 0), (1, 4)),
                full_slice("scratch", (4,)),
            )
        b.free("scratch")
        module = TirModule(entry="f")
        module.add(b.finish())
        expected = np.zeros((4, 4), dtype=np.float32)
        Interpreter(module, num_threads=2).run({"out": expected})
        np.testing.assert_array_equal(expected, np.ones((4, 4)))
        executor = CodegenExecutor(module)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                out = np.zeros((4, 4), dtype=np.float32)
                executor.run({"out": out}, pool=pool, num_threads=2)
                np.testing.assert_array_equal(out, expected)

    def test_stats_match_interpreter_exactly(self):
        # Nested parallel loops: the inner loop runs serially inside the
        # outer chunk, and every counter still matches the interpreter.
        b = TirBuilder("f")
        b.param("x", DType.f32, (4, 8))
        with b.parallel_for("i", 4) as i:
            with b.parallel_for("j", 2) as j:
                b.fill(SliceRef("x", (i, j * 4), (1, 4)), 2.0)
        module = TirModule(entry="f")
        module.add(b.finish())
        interp = Interpreter(module)
        interp.run({"x": np.zeros((4, 8), dtype=np.float32)})
        x = np.zeros((4, 8), dtype=np.float32)
        stats = CodegenExecutor(module).run({"x": x})
        assert stats.to_dict() == interp.stats.to_dict()
        assert np.all(x == 2.0)
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = CodegenExecutor(module).run(
                {"x": x}, pool=pool, num_threads=2
            )
        for key, value in interp.stats.to_dict().items():
            if key != "peak_temp_bytes":
                assert threaded.to_dict()[key] == value, key
