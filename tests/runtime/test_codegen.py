"""The codegen executor: differential equivalence and satellites.

The codegen backend is only allowed to be the default because it is
bit-identical to the interpreter, the reference backend.  The
differential matrix (MLP/MHA x f32/int8 x 1/4 threads) is the contract;
the rest covers codegen unit behavior (deterministic source linear in
the IR size, linecache registration and release, pooled buffers, source
dumping) and the executor-choice cache-isolation regression suite.
"""

import gc
import linecache
import re
import traceback

import numpy as np
import pytest

from repro import CompilerOptions, DType, compile_graph
from repro.errors import ExecutionError
from repro.microkernel.machine import XEON_8358
from repro.runtime import EXECUTOR_BACKENDS, CodegenExecutor, Interpreter
from repro.service import PartitionCache, graph_signature
from repro.tensor_ir import SliceRef, TirBuilder, TirModule
from repro.tensor_ir.expr import Var
from repro.tensor_ir.stmt import Assign, BrgemmCall, For, full_slice
from repro.tensor_ir.visitor import walk
from repro.tuner.cache import tuning_key
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
    build, feed = WORKLOADS[workload]
    partition = compile_graph(
        build(dtype),
        options=CompilerOptions(executor=backend),
        num_threads=num_threads,
    )
    outputs, stats = partition.execute_with_stats(dict(feed(dtype)))
    partition.close()
    # Tensor names differ between independently built graphs (global id
    # counter), so equivalence is positional.
    return list(outputs.values()), stats


class TestDifferential:
    """Codegen and the interpreter must be indistinguishable."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("dtype", [DType.f32, DType.s8],
                             ids=["f32", "int8"])
    @pytest.mark.parametrize("num_threads", [1, 4])
    def test_outputs_bit_identical_and_stats_match(
        self, workload, dtype, num_threads
    ):
        results = {
            backend: run_backend(workload, dtype, backend, num_threads)
            for backend in EXECUTOR_BACKENDS
        }
        ref_out, ref_stats = results["interpret"]
        got_out, got_stats = results["codegen"]
        assert len(ref_out) == len(got_out)
        for ref, got in zip(ref_out, got_out):
            np.testing.assert_array_equal(ref, got)
        ref_dict, got_dict = ref_stats.to_dict(), got_stats.to_dict()
        if num_threads == 1:
            assert ref_dict == got_dict
        else:
            # peak_temp_bytes depends on thread interleaving; every
            # deterministic counter must still agree.
            for key in ref_dict:
                if key != "peak_temp_bytes":
                    assert ref_dict[key] == got_dict[key], key

    def test_dynamic_oob_error_identical_across_backends(self):
        def build():
            b = TirBuilder("f")
            b.param("x", DType.f32, (6,))
            with b.for_("i", 4) as i:
                b.fill(SliceRef("x", (i * 2,), (2,)), 1.0)
            module = TirModule(entry="f")
            module.add(b.finish())
            return module

        messages = []
        for runner in (Interpreter, CodegenExecutor):
            with pytest.raises(ExecutionError) as err:
                runner(build()).run(
                    {"x": np.zeros(6, dtype=np.float32)}
                )
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "out of bounds" in messages[0]


class TestCacheIsolation:
    """The executor choice must partition every cache namespace."""

    def test_graph_signatures_distinct_per_executor(self):
        signatures = {
            backend: graph_signature(
                build_mlp_graph("MLP_1", 16, DType.f32),
                XEON_8358,
                CompilerOptions(executor=backend),
            )
            for backend in EXECUTOR_BACKENDS
        }
        assert len(set(signatures.values())) == len(EXECUTOR_BACKENDS)

    def test_graph_signatures_distinct_with_tuning_enabled(self):
        signatures = {
            graph_signature(
                build_mlp_graph("MLP_1", 16, DType.f32),
                XEON_8358,
                CompilerOptions(executor=backend, tuning="model"),
            )
            for backend in EXECUTOR_BACKENDS
        }
        assert len(signatures) == len(EXECUTOR_BACKENDS)

    def test_partition_cache_never_shares_across_executors(self):
        cache = PartitionCache()
        compiles = []

        def compile_for(backend):
            def compile_fn():
                compiles.append(backend)
                return compile_graph(
                    build_mlp_graph("MLP_1", 16, DType.f32),
                    options=CompilerOptions(executor=backend),
                )

            return compile_fn

        partitions = {}
        for backend in EXECUTOR_BACKENDS:
            signature = graph_signature(
                build_mlp_graph("MLP_1", 16, DType.f32),
                XEON_8358,
                CompilerOptions(executor=backend),
            )
            partitions[backend] = cache.get_or_compile(
                signature, compile_for(backend)
            )
            # A second lookup with the same signature must hit, not
            # recompile.
            assert cache.get_or_compile(
                signature, compile_for(backend)
            ) is partitions[backend]
        assert compiles == list(EXECUTOR_BACKENDS)
        assert len(set(map(id, partitions.values()))) == len(
            EXECUTOR_BACKENDS
        )

    def test_tuning_keys_distinct_per_executor(self):
        keys = {
            tuning_key(
                256, 256, 256, DType.f32, XEON_8358, executor=backend
            )
            for backend in EXECUTOR_BACKENDS
        }
        assert len(keys) == len(EXECUTOR_BACKENDS)
        # A caller that omits executor= gets the default partition's
        # namespace: the CompilerOptions default, named in one place.
        assert tuning_key(256, 256, 256, DType.f32, XEON_8358) == tuning_key(
            256, 256, 256, DType.f32, XEON_8358,
            executor=CompilerOptions().executor,
        )


def _fill_module(shape=(4, 8)):
    b = TirBuilder("f")
    b.param("x", DType.f32, shape)
    with b.for_("i", shape[0]) as i:
        b.fill(SliceRef("x", (i, 0), (1, shape[1])), 1.0)
    module = TirModule(entry="f")
    module.add(b.finish())
    return module


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


class TestCodegenUnit:
    """Unit behavior of the source emitter and the generated programs."""

    def test_generated_source_is_deterministic(self):
        first = CodegenExecutor(_fill_module())
        second = CodegenExecutor(_fill_module())
        assert first.sources == second.sources
        assert first.filenames == second.filenames

    def test_sources_are_real_python_with_literal_loops(self):
        executor = CodegenExecutor(_fill_module())
        source = executor.source_for("f")
        assert "def _codegen_f(_ctx, t_x):" in source
        assert "for s_i in range(0, 4, 1):" in source
        compile(source, "<check>", "exec")  # must be valid Python

    def test_linecache_registration_and_traceback_lines(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        b.fill(SliceRef("x", (2,), (4,)), 1.0)  # static OOB: [2, 6)
        module = TirModule(entry="f")
        module.add(b.finish())
        executor = CodegenExecutor(module)  # build must not raise
        filename = executor.filenames["f"]
        assert filename.startswith("<repro-codegen:f:")
        try:
            executor.run({"x": np.zeros(4, dtype=np.float32)})
        except ExecutionError as exc:
            frames = traceback.extract_tb(exc.__traceback__)
        else:  # pragma: no cover - the run above must raise
            pytest.fail("static OOB did not raise at run time")
        generated = [f for f in frames if f.filename == filename]
        assert generated, "no traceback frame in generated code"
        # linecache serves the emitted line, so the frame shows source.
        assert "out of bounds" in generated[-1].line
        assert linecache.getline(filename, generated[-1].lineno).strip() \
            == generated[-1].line

    def test_static_oob_raises_at_run_not_build(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4,))
        b.fill(SliceRef("x", (2,), (4,)), 1.0)
        module = TirModule(entry="f")
        module.add(b.finish())
        executor = CodegenExecutor(module)
        with pytest.raises(ExecutionError, match="out of bounds"):
            executor.run({"x": np.zeros(4, dtype=np.float32)})

    def test_entry_validation_matches_other_backends(self):
        module = _fill_module()
        executor = CodegenExecutor(module)
        with pytest.raises(ExecutionError, match="missing buffer 'x'"):
            executor.run({})
        with pytest.raises(ExecutionError, match="has shape"):
            executor.run({"x": np.zeros((5, 8), dtype=np.float32)})

    def test_pooled_temporaries_are_rezeroed(self):
        b = TirBuilder("f")
        b.param("out", DType.f32, (4,))
        tmp = b.alloc("tmp", DType.f32, (4,))
        b.compute(
            "add",
            full_slice("out", (4,)),
            [full_slice("out", (4,)), full_slice(tmp, (4,))],
        )
        b.fill(full_slice(tmp, (4,)), 9.0)  # poison before the free
        b.free(tmp)
        module = TirModule(entry="f")
        module.add(b.finish())
        executor = CodegenExecutor(module)
        for _ in range(3):
            out = np.ones(4, dtype=np.float32)
            executor.run({"out": out})
            np.testing.assert_array_equal(out, np.ones(4))

    def test_parallel_stats_match_interpreter_exactly(self):
        module = _parallel_module()
        interp = Interpreter(module)
        interp.run({"x": np.zeros((4, 8), dtype=np.float32)})
        x = np.zeros((4, 8), dtype=np.float32)
        stats = CodegenExecutor(module).run({"x": x})
        assert stats.to_dict() == interp.stats.to_dict()
        assert np.all(x == 3.0)

    def test_dump_sources_writes_every_function(self, tmp_path):
        executor = CodegenExecutor(_fill_module())
        paths = executor.dump_sources(str(tmp_path))
        assert len(paths) == len(executor.sources)
        for path in paths:
            content = open(path, encoding="utf-8").read()
            assert "generated by repro.runtime.codegen" in content

    def test_dump_env_var_writes_on_build(self, tmp_path, monkeypatch):
        target = tmp_path / "emitted"
        monkeypatch.setenv("REPRO_DUMP_CODEGEN", str(target))
        CodegenExecutor(_fill_module())
        written = list(target.glob("*.py"))
        assert written, "REPRO_DUMP_CODEGEN did not write sources"

    def test_codegen_selectable_via_options(self):
        partition = compile_graph(
            build_mlp_graph("MLP_1", 16, DType.f32),
            options=CompilerOptions(executor="codegen"),
        )
        assert partition.executor == "codegen"
        feed = make_mlp_inputs("MLP_1", 16, DType.f32)
        outputs = partition.execute(dict(feed))
        assert outputs
        partition.close()

    def test_session_executor_override_accepts_codegen(self):
        from repro.service import InferenceSession

        feed = make_mlp_inputs("MLP_1", 16, DType.f32)
        outs = []
        for backend in ("interpret", "codegen"):
            probe = InferenceSession.for_workload(
                "MLP_1", executor=backend
            )
            weights = {name: feed[name] for name in probe.weight_names}
            session = InferenceSession.for_workload(
                "MLP_1", weights=weights, executor=backend
            )
            inputs = {name: feed[name] for name in session.input_names}
            outs.append(list(session.run(inputs).values()))
        for ref, got in zip(*outs):
            np.testing.assert_array_equal(ref, got)


def _defs(source):
    """Top-level ``def`` blocks of generated source: name -> text."""
    blocks = re.split(r"^(?=def )", source, flags=re.M)
    return {
        re.match(r"def (\w+)", block).group(1): block
        for block in blocks
        if block.startswith("def ")
    }


class TestSourceIsLinear:
    """Each statement is emitted a fixed number of times, at any depth."""

    @pytest.mark.parametrize("workload, batch", [
        ("MLP_1", 16), ("MLP_2", 16), ("MHA_1", 2),
    ])
    @pytest.mark.parametrize("dtype", [DType.f32, DType.s8],
                             ids=["f32", "int8"])
    def test_one_brgemm_site_per_branch_and_one_chunk_per_loop(
        self, workload, batch, dtype
    ):
        build = build_mlp_graph if workload.startswith("MLP") else (
            build_mha_graph
        )
        partition = compile_graph(build(workload, batch, dtype))
        module = partition.lowered.module
        executor = CodegenExecutor(module)
        stmts = [
            stmt
            for func in module.functions.values()
            for stmt in walk(func.body)
        ]
        brgemms = sum(isinstance(s, BrgemmCall) for s in stmts)
        loops = sum(isinstance(s, For) and s.parallel for s in stmts)
        assert brgemms and loops
        source = "".join(executor.sources.values())
        # One untraced and one traced copy of each microkernel call.
        assert source.count("_einsum(") == 2 * brgemms
        chunks = {
            name: text
            for src in executor.sources.values()
            for name, text in _defs(src).items()
            if name.startswith("_chunk")
        }
        assert len(chunks) == loops
        for name, text in chunks.items():
            assert not re.search(r"(?<!\w)_par\w*\(", text), name
        executor.close()
        partition.close()


class TestLinecacheLifetime:
    def test_dropped_executors_leave_linecache_unchanged(self):
        gc.collect()
        before = len(linecache.cache)
        for rows in range(1, 21):
            executor = CodegenExecutor(_fill_module((rows, 8)))
            assert executor.filenames["f"] in linecache.cache
            del executor
        gc.collect()
        assert len(linecache.cache) == before

    def test_close_releases_lines_and_partition_close_closes(self):
        before = len(linecache.cache)
        partition = compile_graph(build_mlp_graph("MLP_1", 16, DType.f32))
        partition.execute(dict(make_mlp_inputs("MLP_1", 16, DType.f32)))
        names = list(partition._codegen.filenames.values())
        assert all(name in linecache.cache for name in names)
        partition.close()
        assert not any(name in linecache.cache for name in names)
        assert len(linecache.cache) == before
        # Executing after close rebuilds the executor, as it does the pool.
        assert partition.execute(
            dict(make_mlp_inputs("MLP_1", 16, DType.f32))
        )
        assert all(name in linecache.cache for name in names)
        partition.close()
        assert len(linecache.cache) == before

    def test_identical_sources_keep_lines_until_last_user(self):
        first = CodegenExecutor(_fill_module())
        second = CodegenExecutor(_fill_module())
        filename = first.filenames["f"]
        assert second.filenames["f"] == filename
        first.close()
        first.close()  # idempotent: must not drop second's reference
        assert filename in linecache.cache
        second.close()
        assert filename not in linecache.cache


class TestStaticBoundsChecks:
    """Offsets proven in bounds at build time carry no run-time check."""

    def test_constant_trip_loops_need_no_checks(self):
        b = TirBuilder("f")
        b.param("x", DType.f32, (4, 8))
        with b.for_("i", 4) as i:
            with b.for_("j", 2) as j:
                k = b.let("k", j * 4)
                b.fill(SliceRef("x", (i, k), (1, 4)), 1.0)
        module = TirModule(entry="f")
        module.add(b.finish())
        executor = CodegenExecutor(module)
        assert "_oob" not in executor.source_for("f")
        x = np.zeros((4, 8), dtype=np.float32)
        executor.run({"x": x})
        assert np.all(x == 1.0)

    def test_unprovable_offsets_keep_the_interpreters_error(self):
        # ``k`` is read before its reassignment in the loop body, so its
        # value comes from the previous iteration: the build must not
        # trust the range of the first assignment.
        def build():
            b = TirBuilder("f")
            b.param("x", DType.f32, (6,))
            b.emit(Assign("k", 0))
            with b.for_("i", 3) as i:
                b.fill(SliceRef("x", (Var("k"),), (2,)), 1.0)
                b.emit(Assign("k", i * 5))  # x[5:7] on the third trip
            module = TirModule(entry="f")
            module.add(b.finish())
            return module

        assert "_oob" in CodegenExecutor(build()).source_for("f")
        messages = []
        for runner in (Interpreter, CodegenExecutor):
            with pytest.raises(ExecutionError) as err:
                runner(build()).run({"x": np.zeros(6, dtype=np.float32)})
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "out of bounds" in messages[0]


def test_concurrent_builds_and_closes_balance_linecache():
    """Lost refcount updates would leak or evict entries under threads."""
    import sys
    import threading

    gc.collect()
    before = len(linecache.cache)
    errors = []

    def worker():
        try:
            for rows in range(1, 11):
                # Shapes shared across threads: identical sources.
                executor = CodegenExecutor(_fill_module((rows, 8)))
                name = executor.filenames["f"]
                assert name in linecache.cache
                executor.close()
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    gc.collect()
    assert len(linecache.cache) == before
