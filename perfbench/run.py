"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics. ``--trace 1`` first measures untraced for a third of the time, then
traced with span wrappers for the rest, and prints the per-layer metrics.
The last line of standard output is the result object; the line before it
holds provenance and check details, also written to
``.perfbench-out/<workload>-seed<seed>-trace<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One caller, one thread: keep BLAS from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import calibrate  # noqa: E402  (imports numpy, so after the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "loedetect"
SETUP_REPEATS = 3
UNTRACED_SHARE = 1.0 / 3.0

perf = time.perf_counter


def import_checkout_package():
    """Import ``loedetect`` from this checkout's ``src/``; refuse any other copy."""
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run the benchmark from a full checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import loedetect

    resolved = Path(loedetect.__file__).resolve()
    if resolved != init.resolve():
        raise SystemExit(f"error: loedetect resolved to {resolved}, not this checkout's {init}")
    return loedetect


def provenance() -> dict:
    import numpy

    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
        commit = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or platform.machine(),
    }


def calibrate_block(sampler, started: float, seconds: float, before: float, after: float) -> tuple[float, float]:
    """Wall seconds of a timed block without the sampler's kernel runs, and its slowdown.

    The slowdown is the median of the kernel readings taken just before,
    inside and just after the block.
    """
    seen = [before, after]
    if sampler is not None:
        kernel_seconds, inside = sampler.within(started, started + seconds)
        seconds -= kernel_seconds
        seen += inside
    return seconds, statistics.median(seen)


def measure(workload, seconds: float, sampled: bool) -> list:
    """Back-to-back operations until their timed seconds reach ``seconds``.

    The calibration kernel runs before and after each operation and, with
    ``sampled``, every 100 ms inside it; a workload that calibrates inside
    its operation sets the slowdown itself.
    """
    from workloads import Op

    sampler = calibrate.Sampler() if sampled and not workload.calibrates_itself else None
    ops, timed, index = [], 0.0, 0
    after = calibrate.slowdown()
    with sampler or contextlib.nullcontext():
        while timed < seconds or not ops:
            before = after
            t0 = perf()
            try:
                op = workload.op(index)
            except Exception as exc:  # a failed operation is counted, not fatal
                op = Op(index=index, started=t0, seconds=perf() - t0, error=f"{type(exc).__name__}: {exc}")
            after = calibrate.slowdown()
            if op.slowdown is None:
                op.seconds, op.slowdown = calibrate_block(sampler, op.started, op.seconds, before, after)
            ops.append(op)
            timed += op.seconds
            index += 1
    return ops


def timed_setup(make_workload, sampled: bool):
    """Set a fresh workload up several times; returns the last one, wall seconds and slowdowns.

    Each setup starts from a collected heap with the previous workload's
    inputs released, so neither its garbage nor its memory is charged to the
    next one.
    """
    sampler = calibrate.Sampler() if sampled else None
    workload, seconds, slowdowns = None, [], []
    with sampler or contextlib.nullcontext():
        after = calibrate.slowdown()
        for _ in range(SETUP_REPEATS):
            workload = None
            gc.collect()
            workload = make_workload()
            before = after
            t0 = perf()
            workload.setup()
            wall = perf() - t0
            after = calibrate.slowdown()
            wall, slow = calibrate_block(sampler, t0, wall, before, after)
            seconds.append(wall)
            slowdowns.append(slow)
    return workload, seconds, slowdowns


def per_sample_seconds(ops, calibrated: bool) -> float:
    return sum(o.scaled_seconds(calibrated) for o in ops) / max(1, sum(o.samples for o in ops))


def end_to_end(workload, ops, setup_seconds, setup_slowdowns, calibrated: bool = True) -> dict:
    timed = [o for o in ops if o.samples and o.seconds > 0]
    if not timed:
        raise SystemExit(f"error: no operation completed: {[o.error for o in ops][:3]}")
    sample_us, op_ms = workload.latencies(timed, calibrated)
    setups = [s / d for s, d in zip(setup_seconds, setup_slowdowns)] if calibrated else setup_seconds
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_samples_per_s": (1.0 / per_sample_seconds(timed, calibrated), "1/s"),
        "sample_latency_us_p50": (sample_us, "us"),
        "op_latency_ms_p50": (op_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, seconds: float, out_dir: Path):
    from spans import Tracer

    untraced = measure(workload, seconds * UNTRACED_SHARE, sampled=False)
    tracer = Tracer()
    tracer.install()
    try:
        wall0 = perf()
        traced = measure(workload, seconds * (1.0 - UNTRACED_SHARE), sampled=False)
        wall = perf() - wall0
    finally:
        tracer.uninstall()
    tracer.save(out_dir / "spans.npz")

    metrics = tracer.layer_metrics()
    metrics["cli.output_bytes"] = (sum(o.output_bytes for o in traced), "B")

    metrics["trace.overhead_ratio"] = (
        per_sample_seconds(traced, True) / per_sample_seconds(untraced, True),
        "ratio",
    )
    metrics["trace.uncovered_ratio"] = (1.0 - tracer.root_seconds() / wall, "ratio")

    # Tracing must not change what the detector computes: an op of a given
    # index has one fingerprint, traced or not.
    first = {o.index: o.fingerprint for o in untraced}
    for o in traced:
        if o.error is None and o.index in first and o.fingerprint != first[o.index]:
            o.error = f"traced output {o.fingerprint} differs from untraced {first[o.index]}"
    return untraced + traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_checkout_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    out_dir = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True)
    try:
        workload, setup_seconds, setup_slowdowns = timed_setup(
            lambda: WORKLOADS[args.workload](args.seed, str(work_dir)), sampled=not args.trace
        )
        workload.prepare_reference()

        raw = None
        if args.trace:
            ops, metrics = per_layer(workload, args.seconds, out_dir)
        else:
            ops = measure(workload, args.seconds, sampled=True)
            metrics = end_to_end(workload, ops, setup_seconds, setup_slowdowns)
            raw = end_to_end(workload, ops, setup_seconds, setup_slowdowns, calibrated=False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", file=sys.stderr)
        return 1

    failed = [o for o in ops if o.error is not None]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(),
        "uncalibrated_metrics": raw and {name: value for name, (value, _) in raw.items()},
        "setup": {"seconds": setup_seconds, "slowdown": setup_slowdowns},
        "fingerprints": sorted({o.fingerprint for o in ops}),
        "ops": [
            {"index": o.index, "seconds": o.seconds, "slowdown": o.slowdown, "samples": o.samples, **o.details}
            for o in ops
        ],
        "errors": [f"op {o.index}: {o.error}" for o in failed],
    }
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out_dir / "result.json").write_text(json.dumps({**details, "result": result}, indent=1), encoding="utf-8")
    summary = {k: details[k] for k in ("provenance", "uncalibrated_metrics", "fingerprints", "errors")}
    print("details: " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
