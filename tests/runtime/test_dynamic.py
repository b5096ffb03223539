"""Shape-polymorphic partitions: the dynamic-batch differential matrix.

One symbolic-batch compile must be indistinguishable — bit for bit —
from the static-bucket serving path it replaces: pad the batch up to the
compile hint, run the hint-sized static partition, crop the rows back.
The matrix here (MLP/MHA x f32/int8 x 1/4 threads x batch sweep) pins
that contract across both executors.

The ``Dynamicity`` taxonomy is ported from IREE's e2e matmul test
generator (DYNAMIC / STATIC / MIXED tensor types); in this IR the
shape-polymorphic contract is exactly MIXED — one symbolic leading dim,
every inner dim static — so the classifier doubles as a guard that the
builders never widen the contract by accident.
"""

import enum

import numpy as np
import pytest

from repro import CompilerOptions, DType, compile_graph
from repro.graph_ir.symbolic import SymDim, canonical_dim, dyn, is_symbolic
from repro.workloads import (
    build_mha_graph,
    build_mlp_graph,
    make_mha_inputs,
    make_mlp_inputs,
)


@enum.unique
class Dynamicity(enum.Enum):
    """How a graph's tensor shapes mix symbolic and fixed dims."""

    DYNAMIC = "dynamic"  # every dim symbolic; out of this IR's scope
    STATIC = "static"  # fixed values everywhere
    MIXED = "mixed"  # symbolic batch dim, static inner dims


def dynamicity_of(graph) -> Dynamicity:
    """Classify a graph by the dims of its inputs and outputs."""
    dims = [
        dim
        for tensor in list(graph.inputs) + list(graph.outputs)
        for dim in tensor.shape
    ]
    symbolic = sum(1 for dim in dims if is_symbolic(dim))
    if symbolic == 0:
        return Dynamicity.STATIC
    if symbolic == len(dims):
        return Dynamicity.DYNAMIC
    return Dynamicity.MIXED


#: hint = the static bucket the symbolic compile is planned against;
#: the batch sweep crosses 1, a prime, the hint itself, and (for MLP)
#: non-divisors of the microkernel tile.  MHA stays small: its probe
#: cost scales with seq_len^2 and the suite shares a single core.
CASES = {
    "MLP_1": dict(
        build=build_mlp_graph,
        inputs=make_mlp_inputs,
        hint=32,
        batches=(1, 3, 8, 17, 32),
    ),
    "MHA_1": dict(
        build=build_mha_graph,
        inputs=make_mha_inputs,
        hint=4,
        batches=(1, 3, 4),
    ),
}

EXECUTORS = ("interpret", "codegen")


def pad_to_hint(fresh, base, batch, hint):
    """Split fresh inputs into (dynamic feed, padded static-hint feed).

    Weights come from ``base`` (drawn once at the hint) so both programs
    see identical constants; every per-batch array — leading dim equal
    to ``batch`` — is zero-padded up to the hint for the static feed.
    """
    dyn_feed, static_feed = {}, {}
    for name, array in base.items():
        if array.shape[0] == hint and fresh[name].shape[0] == batch:
            exact = fresh[name]
            padded = np.zeros((hint,) + exact.shape[1:], dtype=exact.dtype)
            padded[:batch] = exact
            dyn_feed[name], static_feed[name] = exact, padded
        else:
            dyn_feed[name] = static_feed[name] = array
    return dyn_feed, static_feed


class TestDynamicityTaxonomy:
    def test_static_builder_is_static(self):
        graph = build_mlp_graph("MLP_1", 8)
        assert dynamicity_of(graph) is Dynamicity.STATIC

    @pytest.mark.parametrize("workload", sorted(CASES))
    def test_symbolic_builders_are_mixed_never_dynamic(self, workload):
        cfg = CASES[workload]
        graph = cfg["build"](workload, dyn("B", cfg["hint"]))
        # The IR contract: ONE symbolic leading dim, static inner dims.
        assert dynamicity_of(graph) is Dynamicity.MIXED
        for tensor in list(graph.inputs) + list(graph.outputs):
            assert not any(is_symbolic(d) for d in tensor.shape[1:])

    def test_symdim_identity(self):
        b = dyn("B", 32)
        assert isinstance(b, SymDim)
        assert b.name == "B" and b.hint == 32
        # SymDim subclasses int: equality compares hints, so cache keys
        # must go through canonical_dim, which never collides with ints.
        assert b == 32
        assert canonical_dim(b) != canonical_dim(32)
        assert canonical_dim(b) == ["dyn", "B", 32]


class TestDifferentialMatrix:
    """dynamic(batch) must equal crop(static_hint(pad(batch)))."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "dtype", [DType.f32, DType.s8], ids=["f32", "int8"]
    )
    @pytest.mark.parametrize("num_threads", [1, 4])
    @pytest.mark.parametrize("workload", sorted(CASES))
    def test_dynamic_matches_padded_static(
        self, workload, dtype, num_threads, executor
    ):
        cfg = CASES[workload]
        hint = cfg["hint"]
        options = CompilerOptions(executor=executor)
        # compile_graph mutates its graph (weights are blocked in
        # place), so each partition gets a freshly built graph.
        dynamic = compile_graph(
            cfg["build"](workload, dyn("B", hint), dtype),
            options=options,
            num_threads=num_threads,
        )
        static = compile_graph(
            cfg["build"](workload, hint, dtype),
            options=options,
            num_threads=num_threads,
        )
        # Weights are drawn once at the hint: partitions cache constant
        # inputs from their first feed, so the sweep must vary only the
        # per-batch activations.
        base = cfg["inputs"](workload, hint, dtype)
        for batch in cfg["batches"]:
            fresh = cfg["inputs"](workload, batch, dtype)
            dyn_feed, static_feed = pad_to_hint(fresh, base, batch, hint)
            got = list(dynamic.execute(dyn_feed).values())
            want = list(static.execute(static_feed).values())
            assert len(got) == len(want)
            for got_arr, want_arr in zip(got, want):
                assert got_arr.shape[0] == batch
                np.testing.assert_array_equal(got_arr, want_arr[:batch])
        dynamic.close()
        static.close()

    def test_one_partition_serves_every_batch(self):
        """No respecialization: the compiled object is reused as-is."""
        from repro import compile_counter

        with compile_counter() as counter:
            partition = compile_graph(
                build_mlp_graph("MLP_1", dyn("B", 32))
            )
        assert counter.count == 1
        base = make_mlp_inputs("MLP_1", 32)
        weights = {k: v for k, v in base.items() if k.startswith("w")}
        with compile_counter() as counter:
            for batch in (1, 3, 8, 17, 32):
                fresh = make_mlp_inputs("MLP_1", batch)
                out = partition.execute({**weights, "x": fresh["x"]})
                assert list(out.values())[0].shape[0] == batch
        assert counter.count == 0
        partition.close()
