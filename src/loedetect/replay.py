"""Offline replay, evaluation metrics and one-at-a-time parameter sweeps.

Replaying a log feeds the exact same per-sample pipeline the streaming
detector runs, so offline results are bit-identical to online processing of
the same samples. A sweep runs conditioning once per distinct conditioning
key, and estimation once per distinct estimator key in one pass that also
takes the failure probabilities of each distinct ``k_threshold``, on the
estimates below it only; each config then latches by first exceedance
(``decision.first_exceedance``), with the same results as a full replay.
Evaluation produces the three metrics that matter for a fault detector:
detection delay, false alarms, missed detections.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

from . import kalman
from .decision import DetectionStatus, failure_probability, first_exceedance
from .detector import (
    Conditioner,
    Detector,
    DetectorConfig,
    DetectorOutput,
    config_to_dict,
    config_with,
    default_config,
    estimation_step,
)
from .effectiveness import signed_gains
from .flightlog import RATE_TOLERANCE, FlightLog


class SampleRateMismatchError(ValueError):
    """A config's ``sensor_interval`` does not match the rate of the log it meets."""


def _check_sample_rate(log: FlightLog, config: DetectorConfig) -> None:
    """Reject ``config`` for ``log`` unless ``sensor_interval`` is ``1 / sample_rate_hz``
    within ``RATE_TOLERANCE``, the tolerance ``FlightLog.validate`` gives the header rate."""
    if abs(config.sensor_interval * log.sample_rate_hz - 1.0) > RATE_TOLERANCE:
        raise SampleRateMismatchError(
            f"config sensor_interval={config.sensor_interval!r} s does not match the log's "
            f"sample_rate_hz={log.sample_rate_hz!r} (period {1.0 / log.sample_rate_hz:.6g} s) "
            f"within {RATE_TOLERANCE:.0%}"
        )


def run_detector(log: FlightLog, config: DetectorConfig) -> list[DetectorOutput]:
    """Replay a log through a fresh detector, one output per sample."""
    _check_sample_rate(log, config)
    detector = Detector(config)
    return [detector.process_sample(s) for s in log.samples()]


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of one replay against ground truth.

    A latch on a non-failed actuator is a false alarm; a fault with no latch
    on the failed actuator is a missed detection (so latching only the wrong
    actuator counts as both).
    """

    detection_delay: float | None
    false_alarm_count: int
    missed_detection: bool
    detected_actuator: int | None


def evaluate(
    outputs: list[DetectorOutput], ground_truth: tuple[int, float] | None
) -> EvaluationResult:
    if not outputs:
        raise ValueError("cannot evaluate an empty output stream")
    return evaluate_status(
        outputs[-1].status, outputs[0].timestamp, outputs[-1].timestamp, ground_truth
    )


def evaluate_status(
    final: DetectionStatus, t0: float, t_end: float, ground_truth: tuple[int, float] | None
) -> EvaluationResult:
    """Evaluate a run from its final status and the time span ``[t0, t_end]`` it covered."""
    # The earliest latch; on a tie, the lowest actuator index.
    latches = [(t, i + 1) for i, t in enumerate(final.first_detection_time) if t is not None]
    detected_actuator = min(latches)[1] if latches else None

    if ground_truth is None:
        return EvaluationResult(
            detection_delay=None,
            false_alarm_count=len(latches),
            missed_detection=False,
            detected_actuator=detected_actuator,
        )

    actuator, t_fail = ground_truth
    if not 1 <= actuator <= 4:
        raise ValueError(f"ground truth actuator out of range: {actuator}")
    if not t0 <= t_fail <= t_end:
        raise ValueError(
            f"ground truth fault time {t_fail} outside the log span [{t0}, {t_end}]"
        )
    correct_time = final.first_detection_time[actuator - 1]
    return EvaluationResult(
        detection_delay=None if correct_time is None else correct_time - t_fail,
        false_alarm_count=len(latches) - (correct_time is not None),
        missed_detection=correct_time is None,
        detected_actuator=detected_actuator,
    )


def evaluate_log(log: FlightLog, config: DetectorConfig) -> EvaluationResult:
    """Replay plus evaluation against the log's own annotation, holding no outputs."""
    _check_sample_rate(log, config)
    detector = Detector(config)
    process_sample = detector.process_sample
    for raw in log.samples():
        process_sample(raw)
    return evaluate_status(detector.status, float(log.t[0]), float(log.t[-1]), log.ground_truth())


# ---------------------------------------------------------------------------
# Parameter sweeps.


@dataclass(frozen=True)
class ParameterSet:
    set_id: str
    parameter: str  # "base" for the unmodified configuration
    value: float | None
    config: DetectorConfig


@dataclass(frozen=True)
class SweepSpec:
    """Base configuration plus parameters varied one at a time."""

    base: DetectorConfig
    variations: tuple[tuple[str, tuple[float, ...]], ...]

    def parameter_sets(self) -> tuple[ParameterSet, ...]:
        """All runs, base first; unknown parameter names fail here, before any run.

        Built on the first call and shared by every later call on this spec.
        """
        return self._parameter_sets

    @cached_property
    def _parameter_sets(self) -> tuple[ParameterSet, ...]:
        sets = [ParameterSet("set_00_base", "base", None, self.base)]
        index = 1
        for name, values in self.variations:
            for value in values:
                sets.append(
                    ParameterSet(
                        set_id=f"set_{index:02d}_{name}={value!r}",
                        parameter=name,
                        value=float(value),
                        config=config_with(self.base, name, value),
                    )
                )
                index += 1
        return tuple(sets)


def default_sweep_spec(base: DetectorConfig | None = None) -> SweepSpec:
    """The committed 19-set sweep: lumped gains +/-20%, noise halved/doubled,
    and both decision thresholds over three values each (nominal included)."""
    base = base or default_config()
    flat = config_to_dict(base)
    relative = (("g_p", (0.8, 1.2)), ("g_q", (0.8, 1.2)), ("g_az", (0.8, 1.2)))
    relative += (("process_noise_q", (0.5, 1.0, 2.0)), ("measurement_noise_r", (0.5, 1.0, 2.0)))
    absolute = (("k_threshold", (0.15, 0.25, 0.35)), ("probability_threshold", (0.8, 0.9, 0.99)))
    scaled = tuple((key, tuple(f * flat[key] for f in factors)) for key, factors in relative)
    return SweepSpec(base=base, variations=scaled + absolute)


@dataclass(frozen=True)
class SweepResultRow:
    param_set_id: str
    log_id: str
    delay_s: float | None
    false_alarms: int
    missed: bool


def _sub_threshold_probabilities(ticks: list, config: DetectorConfig, k_thresholds) -> dict:
    """Run the estimator over ``ticks`` once, taking the probabilities ``first_exceedance`` reads.

    Returns, per ``k_threshold``, one list per actuator of ``(t, p)`` pairs:
    ``p = failure_probability(k_hat, variance, k_threshold)`` on each tick
    whose ``k_hat < k_threshold``. A negative variance raises the decision
    stage's ``ValueError`` at its tick, as a replay does.
    """
    state = kalman.init()
    gains = signed_gains(config.gains)
    noise = config.noise
    records = {k_threshold: ([], [], [], []) for k_threshold in k_thresholds}
    pending = tuple(records.items())
    probability = failure_probability
    for t, z, w_sq in ticks:
        state = estimation_step(state, gains, noise, z, w_sq)
        v0, v1, v2, v3 = variances = state.variances()
        if v0 < 0.0 or v1 < 0.0 or v2 < 0.0 or v3 < 0.0:
            # The decision stage's ValueError, at the tick a replay raises it.
            probability(0.0, next(v for v in variances if v < 0.0), k_thresholds[0])
        k0, k1, k2, k3 = state.k
        for k_threshold, (r0, r1, r2, r3) in pending:
            if k0 < k_threshold:
                r0.append((t, probability(k0, v0, k_threshold)))
            if k1 < k_threshold:
                r1.append((t, probability(k1, v1, k_threshold)))
            if k2 < k_threshold:
                r2.append((t, probability(k2, v2, k_threshold)))
            if k3 < k_threshold:
                r3.append((t, probability(k3, v3, k_threshold)))
    return records


def _sweep_log(log: FlightLog, configs: list[DetectorConfig]) -> list[EvaluationResult]:
    """Evaluate one log under every config, one result per config in order.

    Conditioning runs once per distinct conditioning key. Estimation runs
    once per distinct estimator key, in one pass over the armed ticks that
    also takes the failure probabilities of each distinct ``k_threshold``
    under that key, on sub-threshold estimates only. Configs that differ
    only in ``probability_threshold`` share those probabilities. Each config
    then latches by first exceedance, so each result equals
    ``evaluate_log(log, config)``.

    Errors come key by key, in first-appearance order, each at the tick
    where it arises. A replay of the first failing config raises the same.
    """
    for config in configs:
        _check_sample_rate(log, config)
    span = float(log.t[0]), float(log.t[-1])
    truth = log.ground_truth()
    # estimator key -> k_threshold -> distinct configs, all in first-appearance order
    groups: dict[tuple, dict[float, list[DetectorConfig]]] = {}
    for config in dict.fromkeys(configs):
        by_threshold = groups.setdefault(config.estimator_key(), {})
        by_threshold.setdefault(config.decision.k_threshold, []).append(config)
    ticks: dict[tuple, list] = {}  # conditioning key -> [(t, z, w_sq)] per armed tick
    decided: dict[DetectorConfig, EvaluationResult] = {}
    for by_threshold in groups.values():
        first = next(iter(by_threshold.values()))[0]
        ckey = first.conditioning_key()
        if ckey not in ticks:
            conditioner = Conditioner(first)
            ticks[ckey] = [
                (raw.timestamp, *tick)
                for raw in log.samples()
                if (tick := conditioner.push(raw)) is not None
            ]
        records = _sub_threshold_probabilities(ticks[ckey], first, tuple(by_threshold))
        for k_threshold, same_threshold in by_threshold.items():
            for config in same_threshold:
                status = first_exceedance(records[k_threshold], config.decision)
                decided[config] = evaluate_status(status, *span, truth)
    return [decided[config] for config in configs]


def run_sweep(
    logs: list[FlightLog],
    spec: SweepSpec,
    log_ids: list[str] | None = None,
    jobs: int = 1,
) -> list[SweepResultRow]:
    """Evaluate every (parameter set, log) pair exactly once.

    Work is shared within a log (see ``_sweep_log``); ``jobs > 1`` fans logs
    out over ``min(jobs, len(logs))`` processes. Rows are ordered by
    parameter set, then log, regardless of ``jobs``.
    """
    if not logs:
        raise ValueError("sweep needs at least one log")
    if log_ids is None:
        log_ids = [f"log_{i:03d}" for i in range(len(logs))]
    if len(log_ids) != len(logs):
        raise ValueError("log_ids and logs must have the same length")
    psets = spec.parameter_sets()
    configs = [pset.config for pset in psets]

    workers = min(jobs, len(logs))
    if workers <= 1:
        per_log = [_sweep_log(log, configs) for log in logs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_log = list(pool.map(_sweep_log, logs, [configs] * len(logs)))
    return [
        SweepResultRow(
            param_set_id=pset.set_id,
            log_id=log_id,
            delay_s=results[i].detection_delay,
            false_alarms=results[i].false_alarm_count,
            missed=results[i].missed_detection,
        )
        for i, pset in enumerate(psets)
        for log_id, results in zip(log_ids, per_log)
    ]


# ---------------------------------------------------------------------------
# Box-plot statistics of delay distributions.


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already sorted list."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo])


@dataclass(frozen=True)
class BoxStats:
    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    p025: float
    p975: float
    outliers: tuple[float, ...]  # outside [q1 - 1.5 IQR, q3 + 1.5 IQR]


def box_stats(values: list[float]) -> BoxStats:
    if not values:
        raise ValueError("box_stats needs at least one value")
    ordered = sorted(float(v) for v in values)
    q1 = _quantile(ordered, 0.25)
    q3 = _quantile(ordered, 0.75)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    return BoxStats(
        n=len(ordered),
        minimum=ordered[0],
        q1=q1,
        median=_quantile(ordered, 0.5),
        q3=q3,
        maximum=ordered[-1],
        p025=_quantile(ordered, 0.025),
        p975=_quantile(ordered, 0.975),
        outliers=tuple(v for v in ordered if v < lo_fence or v > hi_fence),
    )


@dataclass(frozen=True)
class SweepSummaryRow:
    param_set_id: str
    parameter: str
    value: float | None
    n_logs: int
    n_detected: int
    n_missed: int
    false_alarms: int
    delays: BoxStats | None  # None when nothing was detected


def summarize_sweep(rows: list[SweepResultRow], spec: SweepSpec) -> list[SweepSummaryRow]:
    by_set: dict[str, list[SweepResultRow]] = {}
    for row in rows:
        by_set.setdefault(row.param_set_id, []).append(row)
    summaries = []
    for pset in spec.parameter_sets():
        group = by_set.get(pset.set_id, [])
        delays = [r.delay_s for r in group if r.delay_s is not None]
        summaries.append(
            SweepSummaryRow(
                param_set_id=pset.set_id,
                parameter=pset.parameter,
                value=pset.value,
                n_logs=len(group),
                n_detected=len(delays),
                n_missed=sum(r.missed for r in group),
                false_alarms=sum(r.false_alarms for r in group),
                delays=box_stats(delays) if delays else None,
            )
        )
    return summaries


# ---------------------------------------------------------------------------
# CSV import/export. Schemas are stable; see README.

RESULTS_HEADER = ("param_set_id", "log_id", "delay_s", "false_alarms", "missed")
SUMMARY_HEADER = (
    "param_set_id",
    "parameter",
    "value",
    "n_logs",
    "n_detected",
    "n_missed",
    "false_alarms",
    "delay_min",
    "delay_q1",
    "delay_median",
    "delay_q3",
    "delay_max",
    "delay_p025",
    "delay_p975",
    "outliers",
)


def write_results_csv(rows: list[SweepResultRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.param_set_id,
                    row.log_id,
                    "" if row.delay_s is None else repr(row.delay_s),
                    row.false_alarms,
                    int(row.missed),
                ]
            )


def read_results_csv(path) -> list[SweepResultRow]:
    """Read ``write_results_csv``'s file.

    A wrong header or a malformed row raises ``ValueError`` naming the line.
    """
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader, ()))
            if header != RESULTS_HEADER:
                raise ValueError(f"unexpected results header {header!r}")
            for record in reader:
                if not record:
                    continue
                if len(record) != len(RESULTS_HEADER):
                    raise ValueError(f"expected {len(RESULTS_HEADER)} fields, got {len(record)}")
                rows.append(
                    SweepResultRow(
                        param_set_id=record[0],
                        log_id=record[1],
                        delay_s=None if record[2] == "" else float(record[2]),
                        false_alarms=int(record[3]),
                        missed=bool(int(record[4])),
                    )
                )
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return rows


def write_summary_csv(summaries: list[SweepSummaryRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for s in summaries:
            box = s.delays
            stats = (
                ["", "", "", "", "", "", "", ""]
                if box is None
                else [
                    repr(box.minimum),
                    repr(box.q1),
                    repr(box.median),
                    repr(box.q3),
                    repr(box.maximum),
                    repr(box.p025),
                    repr(box.p975),
                    ";".join(repr(v) for v in box.outliers),
                ]
            )
            writer.writerow(
                [
                    s.param_set_id,
                    s.parameter,
                    "" if s.value is None else repr(s.value),
                    s.n_logs,
                    s.n_detected,
                    s.n_missed,
                    s.false_alarms,
                    *stats,
                ]
            )


# ---------------------------------------------------------------------------
# Plain-text report rendering.


def _strip(box: BoxStats, lo: float, hi: float, width: int = 32) -> str:
    """One-line whisker sketch of a box on a shared [lo, hi] axis."""
    if hi <= lo:
        return "|" + " " * (width - 1)
    cells = [" "] * width

    def col(v: float) -> int:
        return min(width - 1, max(0, int((v - lo) / (hi - lo) * (width - 1))))

    for a, b, ch in ((box.minimum, box.q1, "-"), (box.q3, box.maximum, "-")):
        for c in range(col(a), col(b) + 1):
            cells[c] = ch
    for c in range(col(box.q1), col(box.q3) + 1):
        cells[c] = "="
    cells[col(box.median)] = "M"
    return "".join(cells)


def render_report(rows: list[SweepResultRow], spec: SweepSpec) -> str:
    """Box-plot table of delays per parameter set plus the base delay interval."""
    summaries = summarize_sweep(rows, spec)
    with_box = [s for s in summaries if s.delays is not None]
    lo = min((s.delays.minimum for s in with_box), default=0.0)
    hi = max((s.delays.maximum for s in with_box), default=1.0)

    lines = []
    header = (
        f"{'parameter':<22}{'value':>12}  {'n':>3} {'miss':>4} {'fa':>3} "
        f"{'min':>8} {'q1':>8} {'median':>8} {'q3':>8} {'max':>8}  delays"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for s in summaries:
        value = "" if s.value is None else f"{s.value:.6g}"
        if s.delays is None:
            lines.append(
                f"{s.parameter:<22}{value:>12}  {s.n_logs:>3} {s.n_missed:>4} "
                f"{s.false_alarms:>3} {'no detections':>44}"
            )
            continue
        b = s.delays
        lines.append(
            f"{s.parameter:<22}{value:>12}  {s.n_logs:>3} {s.n_missed:>4} {s.false_alarms:>3} "
            f"{b.minimum:8.4f} {b.q1:8.4f} {b.median:8.4f} {b.q3:8.4f} {b.maximum:8.4f}  "
            f"|{_strip(b, lo, hi)}|"
        )

    base = next((s for s in summaries if s.parameter == "base"), None)
    if base is not None and base.delays is not None:
        lines.append("")
        lines.append(
            f"base config delay 95% interval: [{base.delays.p025:.4f}, {base.delays.p975:.4f}] s "
            f"over {base.delays.n} detections"
        )
    return "\n".join(lines) + "\n"
