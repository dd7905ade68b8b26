"""The four benchmark workloads.

Each is a closed loop: one caller in one process calls the package back to
back, with no threads and ``--jobs 1``. A workload builds its inputs in
``setup`` (timed by the harness, several times), computes any reference it
checks against in ``prepare_reference`` (untimed), and runs one timed
operation per ``op`` call, checking its output after the clock stops.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from loedetect import cli, detector, flightlog, replay, simulator
from loedetect.simulator import SensorNoiseModel

import calibrate
from inputs import corpus_plan, flight_plan, loss_stream_log

perf = time.perf_counter

# The acceptance suite's detection-delay window, seconds.
DELAY_WINDOW = (0.02, 0.20)


@dataclass
class Op:
    """One timed operation and the result of its output check."""

    index: int
    started: float = 0.0  # perf_counter() when the timed call began
    seconds: float = 0.0  # wall time of the timed call(s)
    samples: int = 0  # sensor samples pushed through them
    fingerprint: str = ""  # digest of the outputs
    error: str | None = None  # why the output check failed, if it did
    output_bytes: int = 0  # bytes the CLI wrote
    slowdown: float | None = None  # machine slowdown while it ran; see calibrate
    # Stream only: (uncalibrated, calibrated) medians of the non-tick sample
    # latency and of the estimator-period latency, seconds.
    sample_p50: tuple[float, float] | None = None
    period_p50: tuple[float, float] | None = None
    details: dict = field(default_factory=dict)

    def scaled_seconds(self, calibrated: bool) -> float:
        return self.seconds / self.slowdown if calibrated else self.seconds


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _check_single_latch(status, actuator: int, fault_time: float) -> tuple[float | None, str | None]:
    """Delay of the latch on ``actuator``; an error unless it is the only latch and in the window."""
    expected = tuple(i == actuator - 1 for i in range(4))
    latch = status.first_detection_time[actuator - 1]
    delay = None if latch is None else latch - fault_time
    if status.failed != expected:
        return delay, f"latched {status.failed_actuators()}, expected only ({actuator},)"
    if not DELAY_WINDOW[0] <= delay <= DELAY_WINDOW[1]:
        return delay, f"detection delay {delay:.4f} s outside {DELAY_WINDOW}"
    return delay, None


def _run_cli(argv: list[str]) -> tuple[int, str, float, float]:
    """``loedetect`` in-process; returns exit code, captured stdout, start time and wall seconds."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf()
        code = cli.main(argv)
        seconds = perf() - t0
    return code, buf.getvalue(), t0, seconds


class Workload:
    # True when ``op`` runs the calibration kernel itself and sets ``Op.slowdown``.
    calibrates_itself = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.config = detector.default_config()

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_reference(self) -> None:
        pass

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def latencies(self, ops: list[Op], calibrated: bool) -> tuple[float, float]:
        """(sample_latency_us_p50, op_latency_ms_p50) over the run's operations.

        Batch workloads cannot time single samples without tracing, so the
        per-sample figure is the median over operations of wall time per
        sample.
        """
        seconds = [o.scaled_seconds(calibrated) for o in ops]
        per_sample = [s / o.samples for s, o in zip(seconds, ops)]
        return float(np.median(per_sample)) * 1e6, float(np.median(seconds)) * 1e3


class Stream(Workload):
    """Per-sample ``Detector.process_sample`` on one long in-memory stream.

    One operation is one pass of a fresh detector over the whole stream; the
    long hover before the loss is the long-flight case.
    """

    N_SAMPLES = 100_000  # 200 s at 500 Hz
    FAULT_INDEX = 80_000  # 160 s of hover before the loss
    CHUNK = 2000  # samples between calibration kernels, about 40 ms
    calibrates_itself = True

    def setup(self) -> None:
        self.log = loss_stream_log(self.config, self.N_SAMPLES, self.FAULT_INDEX, self.seed)
        self.samples = list(self.log.samples())

    def op(self, index: int) -> Op:
        det = detector.Detector(self.config)
        process = det.process_sample
        samples = self.samples
        n = len(samples)
        times = np.empty(n)
        slowdown = np.empty(n)
        out = None
        started = perf()
        before = calibrate.slowdown()
        for start in range(0, n, self.CHUNK):
            stop = min(start + self.CHUNK, n)
            for i in range(start, stop):
                raw = samples[i]
                t0 = perf()
                out = process(raw)
                times[i] = perf() - t0
            after = calibrate.slowdown()
            slowdown[start:stop] = 0.5 * (before + after)
            before = after
        actuator, fault_time = self.log.ground_truth()
        delay, error = _check_single_latch(out.status, actuator, fault_time)
        # A period is the steps_per_estimate consecutive samples ending in one
        # estimator tick, so its latency carries the tick's cost.
        steps = self.config.steps_per_estimate()
        is_tick = np.arange(n) % steps == steps - 1
        n_periods = n // steps

        def medians(t):
            return float(np.median(t[~is_tick])), float(np.median(t[: n_periods * steps].reshape(-1, steps).sum(axis=1)))

        raw_sample, raw_period = medians(times)
        cal_sample, cal_period = medians(times / slowdown)
        return Op(
            index=index,
            started=started,
            seconds=float(times.sum()),
            samples=n,
            fingerprint=_digest(out.k_hat, out.variances, out.p_fail, np.array(out.status.failed)),
            error=error,
            slowdown=float(times.sum() / (times / slowdown).sum()),
            sample_p50=(raw_sample, cal_sample),
            period_p50=(raw_period, cal_period),
            details={"delay_s": delay},
        )

    def latencies(self, ops: list[Op], calibrated: bool) -> tuple[float, float]:
        """Median over passes of the non-tick sample median and of the estimator-period median."""
        sample = np.median([o.sample_p50[calibrated] for o in ops])
        period = np.median([o.period_p50[calibrated] for o in ops])
        return float(sample) * 1e6, float(period) * 1e3


class Detect(Workload):
    """``loedetect detect --log L --out T`` in-process on one long CSV log."""

    N_SAMPLES = 40_000  # 80 s at 500 Hz
    FAULT_INDEX = 35_000

    def setup(self) -> None:
        self.log_path = os.path.join(self.workdir, "stream.csv")
        self.ticks_path = os.path.join(self.workdir, "ticks.csv")
        self.log = loss_stream_log(self.config, self.N_SAMPLES, self.FAULT_INDEX, self.seed)
        flightlog.save_log(self.log, self.log_path)

    def prepare_reference(self) -> None:
        outputs = replay.run_detector(self.log, self.config)
        self.reference = replay.evaluate(outputs, self.log.ground_truth())
        self.reference_failed = outputs[-1].status.failed
        _, self.reference_error = _check_single_latch(
            outputs[-1].status, self.log.fault_actuator, self.log.fault_time_s
        )

    def op(self, index: int) -> Op:
        code, stdout, started, seconds = _run_cli(["detect", "--log", self.log_path, "--out", self.ticks_path])
        op = Op(index=index, started=started, seconds=seconds, samples=len(self.log))
        if code != 0:
            op.error = f"loedetect detect exited {code}"
            return op
        with open(self.ticks_path, "rb") as fh:
            data = fh.read()
        op.fingerprint = hashlib.sha256(data).hexdigest()[:16]
        op.output_bytes = len(data)
        op.details = {"delay_s": self.reference.detection_delay}
        rows = data.count(b"\n") - 1
        last = data.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode().split(",")
        verdict = re.search(r"delay_s=(\S+) false_alarms=(\d+) missed=(\w+)", stdout)
        ref = self.reference
        if rows != len(self.log):
            op.error = f"ticks CSV has {rows} rows for {len(self.log)} log rows"
        elif verdict is None:
            op.error = f"no verdict line in output {stdout!r}"
        elif (
            verdict.group(1) != ("none" if ref.detection_delay is None else f"{ref.detection_delay:.4f}")
            or int(verdict.group(2)) != ref.false_alarm_count
            or verdict.group(3) != str(ref.missed_detection).lower()
        ):
            op.error = f"verdict {verdict.group(0)!r} differs from the in-memory replay {ref}"
        elif tuple(bool(int(v)) for v in last[-4:]) != self.reference_failed:
            op.error = f"final ticks row {last[-4:]} differs from the in-memory replay"
        else:
            op.error = self.reference_error
        return op


class Sweep(Workload):
    """``loedetect sweep --jobs 1`` with the default 19-set spec over a simulated corpus."""

    N_LOGS = 6

    def setup(self) -> None:
        self.log_dir = os.path.join(self.workdir, "corpus")
        self.out_dir = os.path.join(self.workdir, "sweep_out")
        os.makedirs(self.log_dir, exist_ok=True)
        self.logs = [simulator.fly_scenario(**kw) for kw in corpus_plan(self.N_LOGS, self.seed)]
        for i, log in enumerate(self.logs):
            flightlog.save_log(log, os.path.join(self.log_dir, f"log_{i:02d}.csv"))

    def prepare_reference(self) -> None:
        self.n_sets = len(replay.default_sweep_spec(self.config).parameter_sets())
        self.reference = [replay.evaluate_log(log, self.config) for log in self.logs]

    def op(self, index: int) -> Op:
        rows_in = sum(len(log) for log in self.logs)
        code, _, started, seconds = _run_cli(
            ["sweep", "--logs", os.path.join(self.log_dir, "*.csv"), "--out-dir", self.out_dir, "--jobs", "1"]
        )
        op = Op(index=index, started=started, seconds=seconds, samples=rows_in * self.n_sets)
        if code != 0:
            op.error = f"loedetect sweep exited {code}"
            return op
        results_path = os.path.join(self.out_dir, "results.csv")
        op.fingerprint = _file_digest(results_path)
        op.output_bytes = sum(os.path.getsize(p) for p in glob.glob(os.path.join(self.out_dir, "*.csv")))
        rows = replay.read_results_csv(results_path)
        base = [r for r in rows if r.param_set_id == "set_00_base"]
        delays = [r.delay_s for r in base]
        op.details = {"results_sha256_16": op.fingerprint, "base_delays_s": delays}
        if len(rows) != self.n_sets * self.N_LOGS or len(base) != self.N_LOGS:
            op.error = f"{len(rows)} result rows ({len(base)} base), expected {self.n_sets} x {self.N_LOGS}"
            return op
        for row, ref in zip(base, self.reference):
            got = (row.delay_s, row.false_alarms, row.missed)
            want = (ref.detection_delay, ref.false_alarm_count, ref.missed_detection)
            if got != want:
                op.error = f"base row {row.log_id} {got} differs from evaluate_log {want}"
                return op
            if row.missed or row.false_alarms or not DELAY_WINDOW[0] <= row.delay_s <= DELAY_WINDOW[1]:
                op.error = f"base row {row.log_id} {got} fails the acceptance window {DELAY_WINDOW}"
                return op
        return op


class Simulate(Workload):
    """Simulator corpus generation: one seeded flight, saved and loaded back, per op."""

    DURATION_S = 1.5
    N_PLANNED = 400  # more flights than a run reaches; ops cycle past the end

    def setup(self) -> None:
        self.path = os.path.join(self.workdir, "flight.csv")
        self.plan = flight_plan(self.N_PLANNED, self.DURATION_S, self.seed)
        # One warm-up flight, so timed flights run in a warm process.
        simulator.fly_scenario("hover", duration=self.DURATION_S, noise=SensorNoiseModel(seed=self.seed))

    def op(self, index: int) -> Op:
        kwargs = self.plan[index % len(self.plan)]
        t0 = perf()
        log = simulator.fly_scenario(**kwargs)
        flightlog.save_log(log, self.path)
        back = flightlog.load_log(self.path)
        op = Op(index=index, started=t0, seconds=perf() - t0, samples=len(log))
        op.fingerprint = _digest(log.t, log.gyro, log.accel_z, log.rotor_speeds)
        fields = ("sample_rate_hz", "fault_actuator", "fault_time_s", "vehicle")
        for name in ("t", "gyro", "accel_z", "rotor_speeds"):
            a, b = getattr(log, name), getattr(back, name)
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                op.error = f"{name} changed in the save/load round trip"
                return op
        if any(getattr(log, f) != getattr(back, f) for f in fields):
            op.error = "header fields changed in the save/load round trip"
        return op


WORKLOADS = {"stream": Stream, "detect": Detect, "sweep": Sweep, "simulate": Simulate}
