"""The repository benchmark: compile, execute and serve workloads.

Run one workload (the form the benchmark contract uses)::

    python3 perfbench/run.py --workload mlp_infer --seed 1 --seconds 20 --trace 0

or every workload, untraced and traced, with every metric printed by
name and unit::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run that prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when an output is wrong or the measurement is invalid.  See
``perfbench/METRICS.md`` for every metric's definition.
"""

import os
import sys

# Pin BLAS/OpenMP to one thread before anything imports numpy: the
# executors run their kernels on one thread, so the reference must too.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

WORKLOAD_NAMES = ("mlp_infer", "mha_infer", "compile_sweep", "serve_open")
#: The end-to-end metric whose traced/untraced difference is the overhead.
PRIMARY = "latency_p50_ms"
#: A child run of ``--workload all`` may take this long (s) beyond --seconds.
CHILD_SLACK_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def refuse_if_traced() -> None:
    """Program-side tracing would distort every number: refuse to measure."""
    if os.environ.get("REPRO_TRACE"):
        raise SystemExit("refusing to measure: REPRO_TRACE is set")
    import repro

    if repro.get_tracer().enabled:
        raise SystemExit("refusing to measure: repro's tracer is enabled")


def pin_to_one_cpu() -> None:
    """Keep every thread of the run on one CPU.

    The program runs with ``num_threads=1`` and its Python work holds one
    interpreter lock, so a second CPU adds little.  Moving between CPUs
    of a shared host, whose speeds differ, adds run-to-run noise.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    refuse_if_traced()
    pin_to_one_cpu()
    from common import OUT_DIR, metric, provenance
    from layers import Instrumentation, SpanLog
    from workloads import WORKLOADS, InvalidMeasurement

    run = WORKLOADS[workload]
    started = time.time()
    try:
        if not trace:
            outcome = run(seed, seconds)
            metrics = outcome.metrics
            attempted, failed = outcome.attempted, outcome.failed
            notes = outcome.notes
        else:
            # Half the time untraced, half traced: their difference in
            # latency_p50_ms is the tracing overhead.
            plain = run(seed, seconds / 2)
            log = SpanLog()
            with Instrumentation(log):
                traced = run(seed, seconds / 2, log)
            log.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
            metrics = dict(traced.layers)
            base = plain.metrics[PRIMARY]["value"]
            over = traced.metrics[PRIMARY]["value"] - base
            metrics["trace.overhead_ms"] = metric(over, "ms")
            metrics["trace.overhead_share"] = metric(over / base, "ratio")
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            notes = {"untraced": plain.notes, "traced": traced.notes,
                     "untraced_metrics": plain.metrics}
    except InvalidMeasurement as exc:
        print(f"invalid measurement: {exc}", file=sys.stderr)
        return 3

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_unix": started,
        "fail_ratio": failed / attempted,
        "provenance": provenance(THREAD_VARS),
        "notes": notes,
        **result,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    print(f"# {workload} seed={seed} seconds={seconds} trace={trace}")
    print(f"# provenance {json.dumps(record['provenance'])}")
    print(f"# notes {json.dumps(notes)}")
    print(f"{'fail_ratio':36s} {failed / attempted:14.6g} ratio"
          f"  ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"{name:36s} {value['value']:14.6g} {value['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True,
                    timeout=seconds + CHILD_SLACK_S)
            except subprocess.TimeoutExpired:
                print(f"== {workload} trace={trace}: timed out")
                status = 1
                continue
            print(f"== {workload} trace={trace} (exit {proc.returncode})")
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("# ")))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    src = HERE.parent / "src"
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if src not in Path(repro.__file__).resolve().parents:
        # Never measure an installed copy in place of this checkout's.
        print(f"repro is not this checkout's ({src})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
