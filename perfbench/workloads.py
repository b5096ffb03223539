"""The four benchmark workloads.

Each workload sets itself up ``SETUP_REPS`` times (``setup_s`` is the
median), measures for the given number of seconds, checks every output
and returns an :class:`Outcome`.  All of them use the public API with
default ``CompilerOptions()`` and ``num_threads=1``.

Every workload reports the same metrics.  ``latency_p50_ms`` and
``latency_tail_ms`` time the workload's unit of work: one ``execute``
(``*_infer``), one ``compile_graph`` (``compile_sweep``) or one request
(``serve_open``).  When a :class:`~layers.SpanLog` is passed the layer
wrappers are already installed; the workload then also derives every
per-layer metric, reading zero for a layer it does not exercise.
"""

from __future__ import annotations

import bisect
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import DType, InferenceSession
from repro.graph_ir import reference
from repro.tensor_ir.visitor import walk

from common import (
    HostSpeed,
    baseline_output,
    build_graph,
    count_metric,
    derive_seed,
    f32_close,
    first_output,
    geomean,
    int8_close,
    make_inputs,
    matmul_macs,
    median,
    metric,
    ms,
    peak_rss_mb,
    tail,
)
from layers import SpanLog, graph_pass_names, layer_of, tir_pass_names

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 5
#: Host-speed calibration before and after each set-up (s).
SETUP_PROBE_S = 0.02
#: Activation sets each partition rotates through.
VARIANTS = 3

#: ``mlp_infer``: Table 1 MLPs at batch 32, f32 and int8.
MLP_PARTITIONS = (
    ("MLP_1", 32, DType.f32),
    ("MLP_1", 32, DType.s8),
    ("MLP_2", 32, DType.f32),
    ("MLP_2", 32, DType.s8),
)
#: ``mha_infer``: MHA_1 in f32.  Batch 4 keeps one execute near 0.2 s on
#: a 2-CPU host, so a run holds enough samples for a tail.
MHA_PARTITIONS = (("MHA_1", 4, DType.f32),)
#: ``compile_sweep``: all six Table 1 configs x {f32, int8}.
SWEEP_GRAPHS = tuple(
    (name, batch, dtype)
    for name, batch in (
        ("MLP_1", 32),
        ("MLP_2", 32),
        ("MHA_1", 1),
        ("MHA_2", 1),
        ("MHA_3", 1),
        ("MHA_4", 1),
    )
    for dtype in (DType.f32, DType.s8)
)

#: ``serve_open``: Poisson arrival rates of its two phases (requests/s).
LIGHT_RPS = 20.0
BUSY_RPS = 40.0
#: Shares of the run spent in the closed-loop phase and the light open-
#: loop phase; the rest is the busy phase.
CLOSED_SHARE = 0.4
LIGHT_SHARE = 0.2
#: Latency limit for goodput (ms).
LATENCY_LIMIT_MS = 100.0
#: A phase is invalid when the generator's lag tail exceeds this share of
#: the latency limit: it then measured the generator, not the program.
LAG_LIMIT_SHARE = 0.25
#: Request batches are drawn uniformly from 1..MAX_REQUEST_BATCH.
MAX_REQUEST_BATCH = 32
SERVE_MODEL = "MLP_1"
#: Longest wait for one response before it counts as failed (s).
RESPONSE_TIMEOUT_S = 60.0


class InvalidMeasurement(RuntimeError):
    """The run measured something other than the program."""


@dataclass
class Outcome:
    metrics: Dict[str, dict] = field(default_factory=dict)
    layers: Dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: Dict[str, object] = field(default_factory=dict)


def end_to_end(setup_times, op_medians, op_tails) -> Dict[str, dict]:
    """The end-to-end metrics, from a workload's per-kind samples."""
    return {
        "setup_s": metric(median(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "latency_p50_ms": metric(ms(geomean(op_medians)), "ms"),
        "latency_tail_ms": metric(ms(geomean(op_tails)), "ms"),
    }


def _timed_setup(
    build: Callable[[], object], release: Callable, host: HostSpeed
) -> Tuple[object, List[float]]:
    """Run ``build`` SETUP_REPS times; keep the last state, release others.

    Returns the state and each set-up's host-speed-scaled seconds.
    """
    times: List[float] = []
    state = None
    for _ in range(SETUP_REPS):
        if state is not None:
            release(state)
        probes = host.burst(SETUP_PROBE_S)
        start = time.perf_counter()
        state = build()
        elapsed = time.perf_counter() - start
        probes += host.burst(SETUP_PROBE_S)
        times.append(elapsed * host.factor_of(probes))
    return state, times


def _close_partitions(partitions) -> None:
    for partition in partitions:
        partition.close()


def _label(name: str, batch: int, dtype: DType) -> str:
    return f"{name}_b{batch}_{dtype.value}"


# -- per-layer metrics shared by every workload that compiles ----------------


def compile_layer_metrics(log: SpanLog, partitions) -> Dict[str, dict]:
    """Compile-layer metrics, per ``compile_graph`` call (spans under it)."""
    self_times = log.self_times()
    compiles = [s for s in log.closed() if s.name == "compile"]
    if not compiles:
        return {}
    n = len(compiles)
    nested = log.descendants_of(["compile"])

    def per_compile_ms(name: str, inclusive: bool = False) -> float:
        spans = [s for s in nested if s.name == name]
        total = sum(s.duration if inclusive else self_times[s.id] for s in spans)
        return ms(total) / n

    out: Dict[str, dict] = {
        "graph_ir.passes_ms": metric(
            per_compile_ms("graph_ir.passes", inclusive=True), "ms"),
    }
    for name in graph_pass_names():
        out[f"graph_ir.{name}_ms"] = metric(
            per_compile_ms(f"graph_ir.{name}"), "ms")
    selects = [s for s in nested if s.name == "templates.select"]
    out["templates.select_calls"] = count_metric(len(selects) / n)
    out["templates.select_ms"] = metric(per_compile_ms("templates.select"), "ms")
    out["templates.cost_evals"] = count_metric(
        log.counts["templates.cost_evals"] / n)
    out["lowering.lower_graph_ms"] = metric(
        per_compile_ms("lowering.lower_graph"), "ms")
    for name in tir_pass_names():
        out[f"tensor_ir.{name}_ms"] = metric(
            per_compile_ms(f"tensor_ir.{name}"), "ms")
    out["graph_ir.ops_out"] = count_metric(sum(
        len(p.lowered.graph.ops)
        + (len(p.lowered.init_graph.ops) if p.lowered.init_graph else 0)
        for p in partitions
    ))
    out["tensor_ir.stmts"] = count_metric(sum(
        _stmt_count(p.lowered.module) + _stmt_count(p.lowered.init_module)
        for p in partitions
    ))
    total = sum(s.duration for s in compiles)
    uncovered = sum(self_times[s.id] for s in compiles)
    out["compile.coverage"] = metric(1.0 - uncovered / total, "ratio")
    return out


def _stmt_count(module) -> int:
    if module is None:
        return 0
    return sum(
        sum(1 for _ in walk(func.body)) for func in module.functions.values()
    )


#: Layers whose self time the traced run reports as a share of its wall.
SELF_SHARE_LAYERS = (
    "compile", "graph_ir", "templates", "lowering", "tensor_ir", "runtime",
    "reference",
)


def self_share_metrics(log: SpanLog, wall: float) -> Dict[str, dict]:
    """Each layer's self time as a share of the traced run's wall time."""
    totals = dict.fromkeys(SELF_SHARE_LAYERS, 0.0)
    self_times = log.self_times()
    for span in log.closed():
        layer = layer_of(span.name)
        if layer in totals:
            totals[layer] += self_times[span.id]
    return {
        f"{layer}.self_share": metric(total / wall, "ratio")
        for layer, total in totals.items()
    }


def runtime_layer_metrics(
    log: SpanLog, partitions, window: Tuple[float, float]
) -> Dict[str, dict]:
    """Runtime, microkernel and reference metrics.

    Counts come from each partition's first execute (a fixed input, so
    they repeat exactly).  Times cover the executes that began inside
    ``window`` and the reference calls from its start on.
    """
    builds = log.named("runtime.executor_build")
    executes = log.named("runtime.execute", *window)
    refs = [s for s in log.named("reference.evaluate", window[0]) if s.macs]
    firsts = [log.first_exec[id(p)] for p in partitions]
    stats = [s for _, s in firsts]
    exec_s = sum(s.duration for s in executes)
    exec_macs = sum(s.macs for s in executes)
    brgemm_calls = sum(s.brgemm_calls for s in executes)
    ref_s = sum(s.duration for s in refs)
    ref_macs = sum(s.macs for s in refs)
    out = {
        "runtime.executor_build_ms": metric(
            ms(sum(s.duration for s in builds)) / len(builds), "ms"),
        "runtime.first_exec_ms": metric(
            ms(geomean([d for d, _ in firsts])), "ms"),
    }
    for counter in ("brgemm_calls", "compute_stmts", "pack_stmts",
                    "parallel_loops"):
        out[f"runtime.{counter}"] = count_metric(
            sum(getattr(s, counter) for s in stats))
    out.update({
        "runtime.peak_temp_bytes": metric(
            max(s.peak_temp_bytes for s in stats), "B"),
        "runtime.execute_ms": metric(
            ms(median([s.duration for s in executes])), "ms"),
        "runtime.busy_share": metric(exec_s / (window[1] - window[0]), "ratio"),
        "microkernel.us_per_brgemm": metric(
            exec_s / max(brgemm_calls, 1) * 1e6, "us"),
        "microkernel.gflops": metric(2.0 * exec_macs / exec_s / 1e9, "GFLOP/s"),
        "reference.exec_ms": metric(
            ms(median([s.duration for s in refs])), "ms"),
        # Seconds per MAC of the reference over those of the executes.
        "x_vs_reference": metric(
            (ref_s / ref_macs) / (exec_s / exec_macs), "x"),
    })
    return out


#: Service-layer metrics; a workload that sends no requests reads zero.
SERVICE_METRICS = {
    "service.queue_share": "ratio",
    "service.max_queue_share": "ratio",
    "service.coalesce_ratio": "ratio",
    "service.rows_per_exec": "rows",
    "service.utilization": "ratio",
    "service.padded_rows": "count",
    "service.compiles": "count",
    "service.cache_hit_rate": "ratio",
    "service.residual_share": "ratio",
    "service.goodput": "ratio",
    "service.load_p50_x": "x",
    "service.load_tail_x": "x",
    "loadgen.lag_share": "ratio",
}


def service_layer_metrics(values: Optional[Dict[str, float]] = None):
    values = values or {}
    return {
        name: metric(values.get(name, 0.0), unit)
        for name, unit in SERVICE_METRICS.items()
    }


def layer_metrics(
    log: SpanLog, partitions, window, wall, service=None
) -> Dict[str, dict]:
    """Every per-layer metric of a traced run."""
    out = compile_layer_metrics(log, partitions)
    out.update(runtime_layer_metrics(log, partitions, window))
    out.update(service_layer_metrics(service))
    out.update(self_share_metrics(log, wall))
    return out


# -- closed-loop inference: mlp_infer, mha_infer ------------------------------


def run_infer(
    configs, seed: int, seconds: float, log: Optional[SpanLog] = None
) -> Outcome:
    wall_start = time.perf_counter()
    feeds = {
        cfg: [make_inputs(cfg[0], cfg[1], cfg[2], seed, v) for v in range(VARIANTS)]
        for cfg in configs
    }

    def build():
        partitions = {}
        for cfg in configs:
            partition = repro.compile_graph(build_graph(*cfg))
            partition.execute(feeds[cfg][0])
            partitions[cfg] = partition
        return partitions

    host = HostSpeed()
    partitions, setup_times = _timed_setup(
        build, lambda ps: _close_partitions(ps.values()), host)
    ref_graphs = {cfg: build_graph(*cfg) for cfg in configs}
    expected_int8 = {
        cfg: [baseline_output(*cfg, feed) for feed in feeds[cfg]]
        for cfg in configs
        if cfg[2] != DType.f32
    }
    if log is not None:
        macs = {id(partitions[c]): matmul_macs(ref_graphs[c]) for c in configs}
        log.macs_of = lambda partition, inputs: macs.get(id(partition))

    exec_times: Dict[tuple, List[float]] = {cfg: [] for cfg in configs}
    ref_times: Dict[tuple, List[float]] = {cfg: [] for cfg in configs}
    attempted = failed = 0
    measure_start = time.perf_counter()
    deadline = measure_start + seconds
    round_index = 0
    while round_index == 0 or time.perf_counter() < deadline:
        variant = round_index % VARIANTS
        for cfg in configs:
            feed = feeds[cfg][variant]
            partition = partitions[cfg]
            attempted += 1
            host.probe()
            try:
                start = time.perf_counter()
                out = first_output(partition.execute(feed))
                elapsed = time.perf_counter() - start
                reference.evaluate_graph(ref_graphs[cfg], feed)
                # The second, warm reference call is timed: it runs on
                # caches the same input just filled, as each execute does.
                mid = time.perf_counter()
                expected = first_output(
                    reference.evaluate_graph(ref_graphs[cfg], feed))
                end = time.perf_counter()
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            host.probe()
            scale = host.factor()
            exec_times[cfg].append(elapsed * scale)
            ref_times[cfg].append((end - mid) * scale)
            if cfg[2] == DType.f32:
                ok = f32_close(cfg[0], out, expected)
            else:
                ok = int8_close(cfg[0], out, expected_int8[cfg][variant])
            failed += not ok
        round_index += 1
    measure_end = time.perf_counter()

    exec_medians = [median(exec_times[c]) for c in configs]
    ref_medians = [median(ref_times[c]) for c in configs]
    outcome = Outcome(attempted=attempted, failed=failed)
    outcome.metrics = end_to_end(
        setup_times, exec_medians, [tail(exec_times[c])[0] for c in configs])
    outcome.notes = {
        "samples_per_partition": {
            _label(*c): len(exec_times[c]) for c in configs},
        "tail_percentile": {
            _label(*c): tail(exec_times[c])[1] for c in configs},
        "exec_ms_each": {
            _label(*c): ms(m) for c, m in zip(configs, exec_medians)},
        "reference_ms_each": {
            _label(*c): ms(m) for c, m in zip(configs, ref_medians)},
        "x_vs_reference": geomean(
            [r / e for r, e in zip(ref_medians, exec_medians)]),
        "setup_s_each": setup_times,
        "host_speed": host.overall(),
    }
    if log is not None:
        outcome.layers = layer_metrics(
            log, partitions.values(), (measure_start, measure_end),
            time.perf_counter() - wall_start)
    _close_partitions(partitions.values())
    return outcome


def run_mlp_infer(seed, seconds, log=None) -> Outcome:
    return run_infer(MLP_PARTITIONS, seed, seconds, log)


def run_mha_infer(seed, seconds, log=None) -> Outcome:
    return run_infer(MHA_PARTITIONS, seed, seconds, log)


# -- compile_sweep ------------------------------------------------------------


def run_compile_sweep(seed, seconds, log=None) -> Outcome:
    wall_start = time.perf_counter()

    def build():
        return {cfg: repro.compile_graph(build_graph(*cfg)) for cfg in SWEEP_GRAPHS}

    host = HostSpeed()
    last, setup_times = _timed_setup(
        build, lambda ps: _close_partitions(ps.values()), host)
    compile_times: Dict[tuple, List[float]] = {c: [] for c in SWEEP_GRAPHS}
    attempted = failed = 0
    measure_start = time.perf_counter()
    deadline = measure_start + seconds
    first_round = True
    while first_round or time.perf_counter() < deadline:
        for cfg in SWEEP_GRAPHS:
            graph = build_graph(*cfg)
            attempted += 1
            host.probe()
            try:
                start = time.perf_counter()
                partition = repro.compile_graph(graph)
                elapsed = time.perf_counter() - start
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            host.probe()
            compile_times[cfg].append(elapsed * host.factor())
            last[cfg].close()
            last[cfg] = partition
        first_round = False

    # Verify each graph's latest partition once, outside the timed loop.
    if log is not None:
        macs = {
            id(last[c]): matmul_macs(build_graph(*c)) for c in SWEEP_GRAPHS}
        log.macs_of = lambda partition, inputs: macs.get(id(partition))
    for index, cfg in enumerate(SWEEP_GRAPHS):
        feed = make_inputs(*cfg, seed, index)
        attempted += 1
        try:
            out = first_output(last[cfg].execute(feed))
            if cfg[2] == DType.f32:
                expected = first_output(
                    reference.evaluate_graph(build_graph(*cfg), feed))
                ok = f32_close(cfg[0], out, expected)
            else:
                ok = int8_close(cfg[0], out, baseline_output(*cfg, feed))
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
    measure_end = time.perf_counter()

    outcome = Outcome(attempted=attempted, failed=failed)
    outcome.metrics = end_to_end(
        setup_times,
        [median(compile_times[c]) for c in SWEEP_GRAPHS],
        [tail(compile_times[c])[0] for c in SWEEP_GRAPHS])
    outcome.notes = {
        "compiles_per_graph": min(len(t) for t in compile_times.values()),
        "tail_percentile": min(
            tail(t)[1] for t in compile_times.values()),
        "compile_ms_each": {
            _label(*c): ms(median(compile_times[c])) for c in SWEEP_GRAPHS},
        "setup_s_each": setup_times,
        "host_speed": host.overall(),
    }
    if log is not None:
        outcome.layers = layer_metrics(
            log, last.values(), (measure_start, measure_end),
            time.perf_counter() - wall_start)
    _close_partitions(last.values())
    return outcome


# -- serve_open -----------------------------------------------------------------


@dataclass
class _Phase:
    name: str
    due: np.ndarray
    feeds: List[np.ndarray]
    sent: List[float] = field(default_factory=list)
    done: Dict[int, float] = field(default_factory=dict)
    outputs: Dict[int, np.ndarray] = field(default_factory=dict)
    errors: int = 0
    start: float = 0.0
    end: float = 0.0


def _schedule(seed: int, index: int, name: str, rate: float, seconds: float) -> _Phase:
    """Seeded Poisson arrivals with uniformly drawn batch sizes.

    The arrival count is fixed at ``rate * seconds``; given their count,
    the arrival times of a Poisson process are uniform order statistics.
    """
    rng = np.random.RandomState(derive_seed(seed, 100 + index))
    count = max(1, int(round(rate * seconds)))
    due = np.sort(rng.uniform(0.0, seconds, count))
    feeds = [
        rng.randn(int(rng.randint(1, MAX_REQUEST_BATCH + 1)), 13).astype(np.float32)
        for _ in range(count)
    ]
    return _Phase(name, due, feeds)


def _drive(
    session: InferenceSession, phase: _Phase, log: Optional[SpanLog]
) -> None:
    """Send the phase's requests on schedule from this thread (open loop).

    A request completes when its Future's done callback has stamped the
    time, so the generator waits on the callbacks, not on ``result()``
    (which can return before the callbacks have run).
    """
    futures = []
    finished = threading.Semaphore(0)

    def on_done(index: int) -> None:
        phase.done[index] = time.perf_counter()
        finished.release()

    phase.start = time.perf_counter() + 0.005
    for i, (offset, x) in enumerate(zip(phase.due, phase.feeds)):
        due = phase.start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.sent.append(time.perf_counter())
        try:
            future = session.submit({"x": x})
        except Exception:
            traceback.print_exc()
            phase.errors += 1
            futures.append(None)
            continue
        future.add_done_callback(lambda f, i=i: on_done(i))
        futures.append(future)
    pending = sum(f is not None for f in futures)
    deadline = time.perf_counter() + RESPONSE_TIMEOUT_S
    while pending and finished.acquire(
        timeout=max(0.0, deadline - time.perf_counter())
    ):
        pending -= 1
    for i, future in enumerate(futures):
        if future is None:
            continue
        if i not in phase.done:
            phase.errors += 1  # no response within RESPONSE_TIMEOUT_S
            continue
        try:
            phase.outputs[i] = first_output(future.result(0))
        except Exception:
            traceback.print_exc()
            phase.errors += 1
    phase.end = time.perf_counter()
    if log is not None:
        for i, sent in enumerate(phase.sent):
            if i in phase.done:
                log.record("service.request", sent, phase.done[i],
                           request=f"{phase.name}-{i}")


def _phase_latencies(phase: _Phase) -> Tuple[List[float], List[float]]:
    """Request latencies (from each due time) and the generator's lags."""
    latencies = [
        phase.done[i] - (phase.start + phase.due[i])
        for i in phase.outputs
    ]
    lags = [sent - (phase.start + due) for sent, due in zip(phase.sent, phase.due)]
    return latencies, lags


def run_serve_open(seed, seconds, log=None) -> Outcome:
    wall_start = time.perf_counter()
    weights = make_inputs(SERVE_MODEL, 1, DType.f32, seed, 0)
    weights.pop("x")
    warm_x = np.ones((8, 13), np.float32)

    def build():
        session = InferenceSession(
            lambda batch: build_graph(SERVE_MODEL, batch, DType.f32),
            weights=weights,
            batching="on",
            dynamic_batch="on",
        )
        session.submit({"x": warm_x}).result(RESPONSE_TIMEOUT_S)
        return session

    host = HostSpeed()
    session, setup_times = _timed_setup(build, lambda s: s.close(), host)
    if log is not None:
        macs_per_row = matmul_macs(build_graph(SERVE_MODEL, 1, DType.f32))
        log.macs_of = lambda partition, inputs: macs_per_row * len(inputs["x"])
    light = _schedule(seed, 0, "light", LIGHT_RPS, seconds * LIGHT_SHARE)
    busy = _schedule(seed, 1, "busy", BUSY_RPS,
                     seconds * (1.0 - CLOSED_SHARE - LIGHT_SHARE))
    # Check every response against the reference at its request's batch.
    ref_graphs = {}

    def correct(x, out) -> bool:
        graph = ref_graphs.get(len(x))
        if graph is None:
            graph = ref_graphs[len(x)] = build_graph(
                SERVE_MODEL, len(x), DType.f32)
        expected = first_output(
            reference.evaluate_graph(graph, dict(weights, x=x)))
        return f32_close(SERVE_MODEL, out, expected)

    try:
        closed = _closed_loop(
            session, seed, seconds * CLOSED_SHARE, host, correct)
        _drive(session, light, log)
        before = session.engine.stats()
        _drive(session, busy, log)
        after = session.engine.stats()
        service = session.stats()
    finally:
        session.close()

    attempted = closed.attempted
    failed = closed.failed
    ok_in_limit = 0
    limit = LATENCY_LIMIT_MS / 1e3
    for phase in (light, busy):
        attempted += len(phase.due)
        failed += phase.errors
        for i, out in phase.outputs.items():
            ok = correct(phase.feeds[i], out)
            failed += not ok
            if phase is busy and ok:
                latency = phase.done[i] - (phase.start + phase.due[i])
                ok_in_limit += latency <= limit

    light_lat, light_lag = _phase_latencies(light)
    busy_lat, busy_lag = _phase_latencies(busy)
    lag_limit = LAG_LIMIT_SHARE * LATENCY_LIMIT_MS
    for phase, lags in ((light, light_lag), (busy, busy_lag)):
        lag_tail = ms(tail(lags)[0])
        if lag_tail > lag_limit:
            raise InvalidMeasurement(
                f"{phase.name} phase: generator lag tail {lag_tail:.2f} ms "
                f"> {lag_limit:.2f} ms ({LAG_LIMIT_SHARE} x latency limit)")

    outcome = Outcome(attempted=attempted, failed=failed)
    outcome.metrics = end_to_end(
        setup_times, [median(closed.scaled)], [tail(closed.scaled)[0]])
    load_x = {
        "service.load_p50_x": median(busy_lat) / median(closed.raw),
        "service.load_tail_x": tail(busy_lat)[0] / tail(closed.raw)[0],
    }
    outcome.notes = {
        "requests": {"closed": closed.attempted,
                     "light": len(light.due), "busy": len(busy.due)},
        "tail_percentile": {
            "closed": tail(closed.scaled)[1], "light": tail(light_lat)[1],
            "busy": tail(busy_lat)[1]},
        "open_loop_ms": {
            "light_p50": ms(median(light_lat)),
            "light_tail": ms(tail(light_lat)[0]),
            "busy_p50": ms(median(busy_lat)),
            "busy_tail": ms(tail(busy_lat)[0])},
        "lag_tail_ms": {
            "light": ms(tail(light_lag)[0]), "busy": ms(tail(busy_lag)[0])},
        "goodput": ok_in_limit / len(busy.due),
        **load_x,
        "setup_s_each": setup_times,
        "host_speed": host.overall(),
    }
    if log is not None:
        service_values = _service_values(
            log, busy, busy_lat, busy_lag, before, after, service)
        service_values["service.goodput"] = ok_in_limit / len(busy.due)
        service_values.update(load_x)
        # Every set-up compiled the same one dynamic partition; count the last.
        outcome.layers = layer_metrics(
            log, log.compiled[-1:], (busy.start, busy.end),
            time.perf_counter() - wall_start, service_values)
    return outcome


@dataclass
class _ClosedLoop:
    raw: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _closed_loop(
    session: InferenceSession, seed: int, seconds: float, host: HostSpeed,
    correct: Callable[[np.ndarray, np.ndarray], bool],
) -> _ClosedLoop:
    """One caller: submit a request, wait for its result, send the next.

    The server is idle between requests, so host-speed probes bracket
    each one without competing with it, as around each execute of
    ``*_infer``.  Batches are drawn uniformly from 1..MAX_REQUEST_BATCH;
    each response is checked before the next request is sent.
    """
    rng = np.random.RandomState(derive_seed(seed, 99))
    loop = _ClosedLoop()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not loop.attempted:
        rows = int(rng.randint(1, MAX_REQUEST_BATCH + 1))
        x = rng.randn(rows, 13).astype(np.float32)
        loop.attempted += 1
        host.probe()
        try:
            start = time.perf_counter()
            out = session.submit({"x": x}).result(RESPONSE_TIMEOUT_S)
            elapsed = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            loop.failed += 1
            continue
        host.probe()
        loop.raw.append(elapsed)
        loop.scaled.append(elapsed * host.factor())
        loop.failed += not correct(x, first_output(out))
    return loop


def _service_values(log, busy, busy_lat, busy_lag, before, after, service):
    """Busy-phase service metrics; latency parts as shares of latency."""
    executes = sorted(
        log.named("runtime.execute", busy.start, busy.end), key=lambda s: s.end)
    ends = [s.end for s in executes]
    residual = matched_latency = 0.0
    for i, done in busy.done.items():
        # The execution that served request i is the last one to end
        # before its Future completed.
        k = bisect.bisect_right(ends, done) - 1
        if k >= 0 and executes[k].start >= busy.sent[i]:
            residual += done - executes[k].end
            matched_latency += done - (busy.start + busy.due[i])
    batches = after.batches - before.batches
    completed = after.completed - before.completed
    rows = after.rows - before.rows
    padded = after.padded_rows - before.padded_rows
    lookups = service.hits + service.misses
    limit = LATENCY_LIMIT_MS / 1e3
    return {
        "service.queue_share": (
            after.queue_wait_seconds - before.queue_wait_seconds)
        / sum(busy_lat),
        "service.max_queue_share": after.max_queue_wait_seconds / limit,
        "service.coalesce_ratio": completed / max(batches, 1),
        "service.rows_per_exec": rows / max(batches, 1),
        "service.utilization": rows / max(rows + padded, 1),
        "service.padded_rows": padded,
        "service.compiles": service.compiles,
        "service.cache_hit_rate": service.hits / lookups if lookups else 0.0,
        "service.residual_share": residual / max(matched_latency, 1e-9),
        "loadgen.lag_share": tail(busy_lag)[0] / limit,
    }


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "mlp_infer": run_mlp_infer,
    "mha_infer": run_mha_infer,
    "compile_sweep": run_compile_sweep,
    "serve_open": run_serve_open,
}
