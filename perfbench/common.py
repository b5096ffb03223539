"""Shared helpers: statistics, seeded inputs, output checks, provenance.

Imported only after ``run.py`` has pinned the BLAS/OpenMP thread
variables, because importing this module imports numpy.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro import XEON_8358, DType
from repro.baseline import BaselineExecutor
from repro.workloads import (
    build_mha_graph,
    build_mlp_graph,
    make_mha_inputs,
    make_mlp_inputs,
)

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
#: Where results and span files go (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "_out"


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile)``.  With fewer than 11 samples no such
    percentile exists and the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def geomean(values: Sequence[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


#: Nominal seconds of one calibration kernel at the reference host speed.
CALIBRATION_REF_S = 0.9e-3


def _calibration_kernel() -> None:
    """Fixed interpreted-Python work, the kind that sets the program's
    time.  It calls no numpy: a small numpy matmul's speed differs from
    one process to the next (by up to 1.7x here, with the buffer's
    placement), which would make the scale itself vary between runs."""
    total = 0
    for i in range(13000):
        total += i * i
class HostSpeed:
    """Scales measured times to a reference host speed.

    Shared virtual machines drift by +-20% in speed over seconds; no run
    length averages that out.  Each timed operation is bracketed by calls to
    :meth:`probe`, a ~0.9 ms fixed kernel, and its time is multiplied by
    :meth:`factor` = reference kernel time / median of the recent kernel
    times, so the drift common to both cancels.  A change to the program
    cannot move the kernel, so it still moves the scaled times in full.
    """

    WINDOW = 6

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> float:
        start = time.perf_counter()
        _calibration_kernel()
        sample = time.perf_counter() - start
        self.samples.append(sample)
        return sample

    def burst(self, seconds: float) -> List[float]:
        """Probe repeatedly for ``seconds``; returns the new samples."""
        deadline = time.perf_counter() + seconds
        samples = [self.probe()]
        while time.perf_counter() < deadline:
            samples.append(self.probe())
        return samples

    def factor(self) -> float:
        """Scale for a time measured right after the latest probe."""
        return self.factor_of(self.samples[-self.WINDOW:])

    @staticmethod
    def factor_of(samples: Sequence[float]) -> float:
        return CALIBRATION_REF_S / median(samples)

    def overall(self) -> float:
        return self.factor_of(self.samples)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derive_seed(seed: int, *parts: int) -> int:
    """A reproducible sub-seed for one input of one workload."""
    value = seed & 0x7FFFFFFF
    for part in parts:
        value = (value * 1_000_003 + part + 1) % 2**31
    return value


# -- Table 1 graphs and inputs ------------------------------------------------


def build_graph(name: str, batch: int, dtype: DType):
    """A fresh Table 1 graph (compilation mutates its input graph)."""
    if name.startswith("MLP"):
        return build_mlp_graph(name, batch, dtype)
    return build_mha_graph(name, batch, dtype)


def make_inputs(
    name: str, batch: int, dtype: DType, seed: int, variant: int
) -> Dict[str, np.ndarray]:
    """Seeded inputs; MLP weights depend on ``seed`` only, activations on
    ``variant`` too, so every variant can feed the same partition (its
    constant cache keeps the first weights it sees)."""
    if name.startswith("MLP"):
        inputs = make_mlp_inputs(name, batch, dtype, seed=derive_seed(seed))
        inputs["x"] = make_mlp_inputs(
            name, batch, dtype, seed=derive_seed(seed, variant + 1)
        )["x"]
        return inputs
    return make_mha_inputs(
        name, batch, dtype, seed=derive_seed(seed, variant + 1)
    )


def matmul_macs(graph) -> int:
    """Multiply-accumulates of every matmul in ``graph``, from its shapes."""
    total = 0
    for op in graph.ops:
        if op.kind != "matmul":
            continue
        a_shape = op.inputs[0].shape
        k = a_shape[-2] if op.attrs.get("transpose_a") else a_shape[-1]
        total += int(np.prod(op.outputs[0].shape)) * int(k)
    return total


# -- output checks -----------------------------------------------------------


def f32_close(name: str, out: np.ndarray, expected: np.ndarray) -> bool:
    """The f32 tolerances of the repo's workload-matrix integration test."""
    atol = 1e-3 if name.startswith("MLP") else 1e-4
    return out.shape == expected.shape and bool(
        np.allclose(out, expected, rtol=1e-3, atol=atol)
    )


def int8_close(name: str, out: np.ndarray, expected: np.ndarray) -> bool:
    """The int8 mismatch rule of the repo's workload-matrix test."""
    if out.shape != expected.shape:
        return False
    median_limit, far, far_share = (
        (1e-6, 1e-2, 0.01) if name.startswith("MLP") else (1e-5, 2e-2, 0.01)
    )
    denom = max(float(np.abs(expected).max()), 1.0)
    mismatch = np.abs(out.astype(np.float64) - expected) / denom
    return bool(
        np.median(mismatch) < median_limit
        and (mismatch > far).mean() < far_share
    )


def baseline_output(name: str, batch: int, dtype: DType, inputs) -> np.ndarray:
    """Int8 expected output: the primitive-by-primitive baseline executor."""
    executor = BaselineExecutor(build_graph(name, batch, dtype), XEON_8358)
    return first_output(executor.execute(inputs))


def first_output(outputs: Mapping[str, np.ndarray]) -> np.ndarray:
    return next(iter(outputs.values()))


# -- provenance ----------------------------------------------------------------


def git_commit() -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(thread_vars: Sequence[str]) -> Dict[str, object]:
    return {
        "host_cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "thread_env": {var: os.environ.get(var) for var in thread_vars},
        "argv": sys.argv[1:],
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def count_metric(value: float) -> Dict[str, object]:
    return metric(value, "count")


def ms(seconds: float) -> float:
    return seconds * 1e3
