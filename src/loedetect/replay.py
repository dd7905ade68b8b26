"""Offline replay, evaluation metrics and one-at-a-time parameter sweeps.

Replaying a log feeds the exact same pipeline the streaming detector runs,
so offline results are bit-identical to online processing of the same
samples. A log is replayed one of two ways. ``run_detector`` streams it
through ``Detector.process_sample``, the serial reference, one output per
sample. ``replay_log``, which ``loedetect detect`` and ``evaluate_log`` run,
replays it in blocks instead: the sweep's conditioning on the one log, then
the detector's own estimation and decision code on its armed ticks only,
with the same outputs. For one log the conditioning runs the filter bank in
its column form (``filters.filter_columns``): the lane kernel pays about
four ufunc calls per time step whatever the width, which for one log costs
more than the arithmetic. A sweep conditions every log at once, one pass per
distinct conditioning key with one numpy lane per log: ``push``'s checks and
the takeoff gate per log, the filter bank by ``filters.filter_lanes`` on
blocks of every log's samples, and the differencing at the ticks, all
bit-identical to ``Conditioner.push``. It writes each tick once, into one
(ticks, 8) table that holds each set's ticks one set after another, and
holds about three (block, 7, logs) arrays besides. The sweep then runs the
estimator of every (log, distinct estimator key) pair in one lane pass: one
numpy lane per pair, all stepped together by ``kalman.step_lanes``, which is
bit-identical to ``kalman.step`` on each lane. Lanes run longest first, and
the pass narrows as shorter runs end, so no lane steps past its own last
tick. The lanes step in buffers made once per width, and each lane's
inputs are sliced once per width. Of each tick the pass keeps only the
estimates below the lane's largest ``k_threshold``, and folds its trip
checks into running extremes. The failure probabilities of each
distinct ``k_threshold`` are then taken per lane on the estimates below
it only, each actuator's up to the first probability that latches every
config sharing them, and each config latches by first exceedance
(``decision.first_exceedance``), with the same results as a full replay.
Errors come from one place, the serial replay (``_replay_serially``),
which streams a log through a fresh ``Detector`` and so raises what
``run_detector`` raises. It runs on a log whose block
replay's conditioning flags it, and on a sweep's first bad log: one that
fails a sample-rate check, that the conditioning lanes flag or whose
estimator lane meets a NaN innovation, an innovation variance outside (0,
inf) or a negative variance. A ``FlightLog`` is validated when built and
read-only after, so the conditioning flags only a timestamp step outside
a ``sensor_interval``'s step band. Evaluation produces the three
metrics that matter for a fault detector: detection delay, false alarms,
missed detections.
"""

from __future__ import annotations

import csv
import json
import math
import reprlib
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from . import kalman
from .decision import DetectionStatus, failure_probability, first_exceedance
from .detector import (
    Conditioner,
    Detector,
    DetectorConfig,
    DetectorOutput,
    Estimation,
    config_to_dict,
    config_with,
    default_config,
)
from .effectiveness import signed_gains
from .filters import (
    STEP_TOLERANCE,
    FilterCoefficients,
    design_lowpass,
    filter_columns,
    filter_lanes,
)
from .flightlog import RATE_TOLERANCE, SAMPLE_BLOCK_ROWS, FlightLog


class SampleRateMismatchError(ValueError):
    """A config's ``sensor_interval`` does not match the rate of the log it meets."""


def _mismatched_rate(log: FlightLog, config: DetectorConfig) -> bool:
    """Whether ``config``'s ``sensor_interval`` misses ``1 / sample_rate_hz`` by more than
    ``RATE_TOLERANCE``, the tolerance ``FlightLog.validate`` gives the header rate."""
    return abs(config.sensor_interval * log.sample_rate_hz - 1.0) > RATE_TOLERANCE


def _check_sample_rate(log: FlightLog, config: DetectorConfig) -> None:
    """Reject ``config`` for ``log`` unless ``sensor_interval`` matches the log's rate (``_mismatched_rate``)."""
    if _mismatched_rate(log, config):
        raise SampleRateMismatchError(
            f"config sensor_interval={config.sensor_interval!r} s does not match the log's "
            f"sample_rate_hz={log.sample_rate_hz!r} (period {1.0 / log.sample_rate_hz:.6g} s) "
            f"within {RATE_TOLERANCE:.0%}"
        )


def run_detector(log: FlightLog, config: DetectorConfig) -> list[DetectorOutput]:
    """Stream a log through a fresh detector's ``process_sample``, one output per sample."""
    _check_sample_rate(log, config)
    return list(map(Detector(config).process_sample, log.samples()))


def _replay_serially(log: FlightLog, config: DetectorConfig) -> None:
    """``run_detector`` holding no outputs: the serial replay, run for the error it raises."""
    deque(map(Detector(config).process_sample, log.samples()), maxlen=0)


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
    if not isinstance(actuator, Integral) or isinstance(actuator, bool):
        raise ValueError(f"ground truth actuator must be an integer, got {actuator!r}")
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
    """``replay_log`` plus evaluation against the log's own annotation, holding no outputs."""
    return evaluate_status(replay_log(log, config), float(log.t[0]), float(log.t[-1]), log.ground_truth())


def replay_log(log: FlightLog, config: DetectorConfig, ticks_path=None) -> DetectionStatus:
    """``run_detector``'s replay of ``log`` in blocks, holding no outputs; returns the final status.

    ``loedetect detect`` and ``evaluate_log`` run it. Conditioning is
    ``_condition_lanes`` on the one log, and the detector's own estimation
    and decision code (``Estimation._tick``) runs on its armed tick rows.
    With ``ticks_path``, the ticks CSV goes there: the rows of
    ``run_detector``'s outputs (``TICKS_HEADER``). Every field after the
    timestamp changes only with the estimation's state or with ``armed``,
    so each run of rows between two changes shares one tail of text
    (``_ticks_tail``) and is one write: the rows before the first armed
    tick (``_write_run``), then, right after each tick, the tick's
    ``steps_per_estimate`` rows. The tick rows are converted to Python
    floats, and their samples' timestamps to text, in blocks of about
    ``SAMPLE_BLOCK_ROWS`` samples. A log the conditioning flags is replayed
    serially (``_replay_serially``), so it raises what ``run_detector``
    raises, before any file is opened. An estimator error leaves the rows
    before its tick written.
    """
    _check_sample_rate(log, config)
    ticks, first, n_ticks, flagged, armed_at = _condition_lanes([log], [config])
    if flagged[0]:
        _replay_serially(log, config)
        raise RuntimeError("the conditioning flagged the log, but its serial replay raised nothing")
    estimation = Estimation(config)
    steps, first, armed_at = config.steps_per_estimate(), int(first[0]), int(armed_at[0])
    first_tick = (first + 1) * steps - 1  # the sample of the first armed tick
    rows, block = ticks[first : first + n_ticks[0]], max(1, SAMPLE_BLOCK_ROWS // steps)
    with nullcontext() if ticks_path is None else open(ticks_path, "w", encoding="utf-8") as fh:
        if fh is not None:
            fh.write(TICKS_HEADER + "\n")
            _write_run(fh, log.t[:armed_at], _ticks_tail(estimation, armed=False))
            _write_run(fh, log.t[armed_at:first_tick], _ticks_tail(estimation, armed=True))
        for start in range(0, len(rows), block):
            if fh is not None:
                sample = first_tick + start * steps
                times = list(map(repr, log.t[sample : sample + block * steps].tolist()))
            for i, row in enumerate(rows[start : start + block].tolist()):
                estimation._tick(row)
                if fh is not None:
                    tail = _ticks_tail(estimation, armed=True)
                    fh.write(tail.join(times[i * steps : (i + 1) * steps]) + tail)
    return estimation.status


def _write_run(fh, timestamps: np.ndarray, tail: str) -> None:
    """Write one ticks-CSV row per timestamp, all ending in ``tail``, ``SAMPLE_BLOCK_ROWS`` rows a write."""
    for start in range(0, len(timestamps), SAMPLE_BLOCK_ROWS):
        fh.write(tail.join(map(repr, timestamps[start : start + SAMPLE_BLOCK_ROWS].tolist())) + tail)


def _ticks_tail(estimation: Estimation, armed: bool) -> str:
    """The text after the timestamp in a ticks-CSV row of ``estimation``'s state."""
    estimates = estimation._estimator.k + estimation._variances + estimation._p_fail
    flags = ",".join("0" if t is None else "1" for t in estimation._status.first_detection_time)
    return f",{','.join(map(repr, estimates))},{int(armed)},{flags}\n"


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
    """Base configuration plus parameters varied one at a time.

    Each parameter is named once, with a non-empty list of distinct real
    numbers (bools refused), kept as a tuple of floats; ``ValueError`` names
    the first name or value that breaks a rule. The parameter sets are
    built here too, so an unknown name raises ``KeyError`` and a value its
    field rejects ``ValueError`` when the spec is built. ``variations=()``
    sweeps the base alone.
    """

    base: DetectorConfig
    variations: tuple[tuple[str, tuple[float, ...]], ...]
    _sets: tuple[ParameterSet, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        variations = {}
        for name, values in self.variations:
            if name in variations:
                raise ValueError(f"repeated parameter {name!r}")
            floats = variations[name] = []
            for value in values:
                if isinstance(value, bool) or not isinstance(value, Real):
                    raise ValueError(f"parameter {name!r} value {json.dumps(value, default=repr)} is not a number")
                try:
                    number = float(value)
                except OverflowError:
                    raise ValueError(f"parameter {name!r} value is too large for a float") from None
                if number in floats:
                    raise ValueError(f"parameter {name!r} repeats the value {json.dumps(value, default=repr)}")
                floats.append(number)
            if not floats:
                raise ValueError(f"parameter {name!r} has no values")
        object.__setattr__(self, "variations", tuple((name, tuple(v)) for name, v in variations.items()))
        sets = [ParameterSet("set_00_base", "base", None, self.base)]
        for name, values in self.variations:
            for value in values:
                set_id = f"set_{len(sets):02d}_{name}={value!r}"
                sets.append(ParameterSet(set_id, name, value, config_with(self.base, name, value)))
        object.__setattr__(self, "_sets", tuple(sets))

    def parameter_sets(self) -> tuple[ParameterSet, ...]:
        """All runs, base first."""
        return self._sets


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


# The differencing across two sets' rows may divide by zero, and a log
# overflows only where the float kernel does, which does not warn either.
@np.errstate(all="ignore")
def _condition_lanes(logs: list[FlightLog], configs: list[DetectorConfig]) -> tuple:
    """``Conditioner.push`` over every log under each config, with one numpy lane per log.

    ``configs`` hold distinct conditioning keys; tick set ``c * len(logs) +
    i`` is log ``i`` under ``configs[c]``. Returns ``(ticks, first,
    n_ticks, flagged, armed_at)``. ``ticks`` (n, 8) holds every tick row of
    each set once, one set after another, with no padding; rows ``first[s]
    : first[s] + n_ticks[s]`` are set ``s``'s armed ticks, bit for bit the
    tick rows ``push`` returns. ``armed_at[s]`` is the sample that arms set
    ``s``'s takeoff gate, or the log's length if none does. ``flagged[s]``
    marks a set whose log has a timestamp step outside ``push``'s step
    band for the config's ``sensor_interval``, with the same float
    comparison; its rows mean nothing, and ``push`` raises on the log.
    ``FlightLog.validate`` holds every other rule of ``push``, and the
    band is monotone in the step, so the log's shortest and longest step
    decide the flag. The takeoff gate (``_gate_arms_at``) runs per log, a
    block of samples at a time. The filter bank (``_filtered_ticks``)
    writes into the table, where the rates are differenced and the speeds
    squared in place, once over every set.
    """
    lengths = np.array([len(log) for log in logs])
    # Each log's shortest and longest timestamp step; a 1-row log has none.
    extremes = [np.array([dt.min(), dt.max()]) if len(dt) else dt for dt in (np.diff(log.t) for log in logs)]
    counts = np.concatenate([lengths // config.steps_per_estimate() for config in configs])  # ticks per set
    bases = np.concatenate(([0], np.cumsum(counts)))  # set ``s``'s rows are ``bases[s] : bases[s + 1]``
    ticks = np.zeros((bases[-1], 8))
    first, armed_at = np.zeros((2, len(counts)), dtype=int)
    flagged = np.zeros(len(counts), dtype=bool)
    for c, config in enumerate(configs):
        steps, coeffs = config.steps_per_estimate(), design_lowpass(config.lowpass, config.sensor_interval)
        _filtered_ticks(logs, coeffs, steps, ticks[:, 1:], bases[c * len(logs) :])
        gate = Conditioner(config)  # the gate's own window and level
        for s, (log, extreme) in enumerate(zip(logs, extremes), c * len(logs)):
            ticks[bases[s] : bases[s + 1], 0] = log.t[steps - 1 :: steps]
            armed_at[s] = _gate_arms_at(log, gate)
            first[s] = bases[s] + armed_at[s] // steps  # the first armed tick
            flagged[s] = (np.abs(extreme / config.sensor_interval - 1.0) >= STEP_TOLERANCE).any()
    # (p - p0) / (t - t0) in place, last block first, so each block reads its predecessor's rates.
    for stop in range(len(ticks), 1, -SAMPLE_BLOCK_ROWS):
        start = max(stop - SAMPLE_BLOCK_ROWS, 1)
        rates, t = ticks[start - 1 : stop, 1:3], ticks[start - 1 : stop, 0]
        ticks[start:stop, 1:3] = (rates[1:] - rates[:-1]) / (t[1:] - t[:-1])[:, None]
    ticks[bases[:-1][counts > 0], 1:3] = 0.0  # a set's first tick has no predecessor
    np.multiply(ticks[:, 4:], ticks[:, 4:], out=ticks[:, 4:])
    return ticks, first, bases[1:] - first, flagged, armed_at


def _gate_arms_at(log: FlightLog, gate: Conditioner) -> int:
    """The sample at which ``gate``'s takeoff gate arms on ``log``; ``len(log)`` if none.

    Taken one block of ``SAMPLE_BLOCK_ROWS`` rows at a time, up to the
    arming block. The window sum is a running sum (``np.cumsum`` adds in
    order, from the sum the block before left) of each sample's thrust proxy
    less the one a window before, as ``push`` keeps it.
    """
    window, n = gate._gate_len, len(log)
    window_sum = 0.0
    for start in range(0, n, SAMPLE_BLOCK_ROWS):
        stop = min(start + SAMPLE_BLOCK_ROWS, n)
        rise = _thrust_proxies(log.rotor_speeds[start:stop])  # thrust_k - thrust_{k-L}: what push adds
        lagged = max(start, window)  # the block's first sample with one a window before it
        if stop > lagged:
            rise[lagged - start :] -= _thrust_proxies(log.rotor_speeds[lagged - window : stop - window])
        rise[0] += window_sum
        np.cumsum(rise, out=rise)
        window_sum = rise[-1]
        above = rise / np.minimum(np.arange(start + 1, stop + 1), window) > gate._gate_level
        if above.any():
            return start + int(above.argmax())
    return n


def _thrust_proxies(speeds: np.ndarray) -> np.ndarray:
    """``w1*w1 + w2*w2 + w3*w3 + w4*w4`` of each row of rotor speeds, in ``push``'s order."""
    w1, w2, w3, w4 = np.asarray(speeds, dtype=float).T
    return w1 * w1 + w2 * w2 + w3 * w3 + w4 * w4


def _filtered_ticks(logs: list[FlightLog], coeffs: FilterCoefficients, steps: int, out: np.ndarray, bases) -> None:
    """Write the filtered p, q, az and w1..w4 of log ``i``'s ``k``-th tick into row ``bases[i] + k`` of ``out`` (n, 7).

    A tick is every ``steps``-th sample. ``filter_lanes`` runs on blocks of
    ``SAMPLE_BLOCK_ROWS`` samples of every log at once, each block taking
    the bank's memory from the one before, so it holds about three (block,
    7, logs) arrays however long the logs are. A lane past its log's end
    carries stale values and writes nothing. A single log runs in the
    column form, ``filter_columns``, which gives the same bits without
    ``filter_lanes``'s ufunc calls per time step.
    """
    n = max(len(log) for log in logs)
    x = np.zeros((min(n, SAMPLE_BLOCK_ROWS) + 2, 7, len(logs)))  # rows 0 and 1: the bank's memory
    y = np.empty_like(x)
    for start in range(0, n, SAMPLE_BLOCK_ROWS):
        size = min(n - start, SAMPLE_BLOCK_ROWS)
        for i, log in enumerate(logs):
            block, rows = slice(start, start + size), slice(2, 2 + min(size, len(log) - start))
            if rows.stop > 2:
                x[rows, :2, i] = log.gyro[block, :2]  # the bank's channels: r is not filtered
                x[rows, 2, i] = log.accel_z[block]
                x[rows, 3:, i] = log.rotor_speeds[block]
        if start == 0:
            x[0] = x[1] = x[2]  # the warm start
            y[:2] = x[:2]
        offset = (steps - 1 - start) % steps  # the block's first tick sample, from its start
        at = np.arange(start + offset, start + size, steps)  # tick samples in the block
        if len(logs) == 1:
            for channel, column in enumerate(filter_columns(coeffs, x[: size + 2, :, 0], y[:2, :, 0])):
                out[bases[0] + at // steps, channel] = column[2 + offset :: steps]
                y[:2, channel, 0] = column[-2:]
        else:
            filter_lanes(coeffs, x[: size + 2], y[: size + 2])
            for i, log in enumerate(logs):
                mine = at[at < len(log)]
                out[bases[i] + mine // steps] = y[2 + mine - start, :, i]
            y[:2] = y[size : size + 2]
        x[:2] = x[size : size + 2]


def _lane_pass(ticks: np.ndarray, first: np.ndarray, n_ticks: np.ndarray, configs: list, keys, k_tops) -> tuple:
    """Run lane ``l``: ``configs[keys[l]]``'s estimator on the ``n_ticks[l]`` rows of ``ticks`` from row ``first[l]``.

    ``ticks`` (n, 8) is the ``_condition_lanes`` table; ``configs`` holds
    each estimator key's first config, whose gains and noise are read once,
    and ``k_tops[l]`` is the largest ``k_threshold`` of lane ``l``'s key.
    Lanes step longest first, so those still running are a prefix, and the
    pass narrows to them. It returns ``(below, tripped)``, all the decision
    reads: ``below[l]`` is lane ``l``'s ``(t, actuator, k_hat, variance)``
    with ``k_hat < k_tops[l]`` in tick order; ``tripped[l]`` marks a lane
    meeting a NaN innovation, an ``s`` outside (0, inf) or a negative
    variance, where ``kalman.step`` or the decision raises.
    """
    run = np.argsort(-n_ticks, kind="stable")  # the lanes, longest first
    first, keys, top = first[run], keys[run], k_tops[run]
    running = (n_ticks[run] > np.arange(n_ticks.max())[:, None]).sum(axis=1)  # lanes still running, per tick
    gains = np.stack([signed_gains(config.gains) for config in configs], axis=-1)[..., keys]
    q = np.array([config.noise.process_noise_q for config in configs])[keys]
    r = np.array([config.noise.measurement_noise_r for config in configs])[keys]
    below = [[] for _ in run]
    below_run = [below[lane] for lane in run.tolist()]  # by each lane's place in the pass
    # Each lane's running extremes, from 1, which trips nothing: a NaN y sticks, and fmin skips a NaN variance.
    y_max, s_min, s_max, v_min = np.split(np.ones((13, len(run))), [3, 6, 9])
    # A lane that trips carries on with infs and NaNs, which must not warn.
    with np.errstate(all="ignore"):
        work = None
        for tick, width in enumerate(running.tolist()):
            if work is None or width != work.width:  # the pass narrows: slice once per width
                work = kalman.LaneWorkspace(width, work)
                lane_first, lane_q, lane_r, lane_top = first[:width], q[:width], r[:width], top[:width]
                lane_gains, hit = gains[..., :width], np.empty((4, width), dtype=bool)
                lane_y, lane_s_min, lane_s_max, lane_v = (a[:, :width] for a in (y_max, s_min, s_max, v_min))
            rows = ticks[lane_first + tick].T  # (8, lanes)
            kalman.step_lanes(work, lane_gains * rows[4:], rows[1:4], lane_q, lane_r)
            np.maximum(lane_y, work.y, out=lane_y)  # ``out`` by keyword: numpy 2.4 deprecates it positional here
            np.minimum(lane_s_min, work.s, out=lane_s_min)
            np.maximum(lane_s_max, work.s, out=lane_s_max)
            np.fmin(lane_v, work.diagonal, out=lane_v)
            i, lane = np.less(work.k, lane_top, hit).nonzero()  # by actuator, then lane
            if i.size:
                t, k_hat, variance = rows[0, lane].tolist(), work.k[i, lane].tolist(), work.diagonal[i, lane].tolist()
                for place, entry in zip(lane.tolist(), zip(t, i.tolist(), k_hat, variance)):
                    below_run[place].append(entry)
    tripped = np.empty(len(run), dtype=bool)
    tripped[run] = (np.isnan(y_max) | ~((s_min > 0.0) & (s_max < math.inf))).any(axis=0) | (v_min < 0.0).any(axis=0)
    return below, tripped


def _exceedance_records(below: list, k_threshold, top) -> tuple:
    """Each actuator's ``(t, p)`` pairs on its sub-threshold ticks, in tick order: ``first_exceedance``'s records.

    ``below`` is one lane's ``(t, actuator, k_hat, variance)`` entries from
    ``_lane_pass``, in tick order; those with ``k_hat < k_threshold`` count.
    Each record stops at its first ``p > top``: every config whose
    ``probability_threshold`` is at most ``top`` has latched by then, so
    ``first_exceedance`` never reads past it.
    """
    records = ([], [], [], [])
    for t, i, k_hat, variance in below:
        record = records[i]
        if k_hat < k_threshold and not (record and record[-1][1] > top):
            record.append((t, failure_probability(k_hat, variance, k_threshold)))
    return records


def run_sweep(logs: list[FlightLog], spec: SweepSpec, log_ids: list[str] | None = None) -> list[SweepResultRow]:
    """Evaluate every (parameter set, log) pair exactly once; rows by parameter set, then log.

    Conditioning runs once per distinct conditioning key, over every log at
    once (``_condition_lanes``). Estimation runs once per (log, distinct
    estimator key), each such run one lane of a single ``_lane_pass``. Each
    config then latches by first exceedance, from exceedance records taken
    once per (log, estimator key, ``k_threshold``): failure probabilities
    on the sub-threshold estimates only, per actuator up to the first one
    above the largest ``probability_threshold`` that shares them. So each
    row equals ``evaluate_log(log, config)``.

    Logs are evaluated in order, each in full before the next. A log is
    bad if a config's sample rate mismatches it, if a conditioning set it
    uses is flagged, or if one of its lanes tripped. A bad log is replayed
    serially: the sample-rate check of every config, then
    ``_replay_serially`` under the first config of each of its bad lanes,
    in key order. So an earlier log's trip beats a later log's failed
    check, and within one (log, estimator key) the float replay decides
    which error comes first. A clean sweep replays nothing.
    """
    if not logs:
        raise ValueError("sweep needs at least one log")
    if log_ids is None:
        log_ids = [f"log_{i:03d}" for i in range(len(logs))]
    if len(log_ids) != len(logs):
        raise ValueError("log_ids and logs must have the same length")
    if len(set(log_ids)) != len(log_ids):
        duplicate = next(log_id for i, log_id in enumerate(log_ids) if log_id in log_ids[:i])
        raise ValueError(f"log_ids must be distinct, got {duplicate!r} twice")
    psets = spec.parameter_sets()
    configs = [pset.config for pset in psets]
    pairs = [(config.estimator_key(), config.decision.k_threshold) for config in configs]
    first_of: dict[tuple, DetectorConfig] = {}  # estimator key -> its first config
    tops: dict[tuple, float] = {}  # (estimator key, k_threshold) -> the largest probability_threshold
    for pair, config in zip(pairs, configs):
        first_of.setdefault(pair[0], config)
        tops[pair] = max(tops.get(pair, 0.0), config.decision.probability_threshold)
    lane_of = {key: lane for lane, key in enumerate(first_of)}  # log ``i``'s lane is ``i * len(firsts) + lane``
    firsts = list(first_of.values())
    k_tops = [max(k for key, k in pairs if key == first_key) for first_key in first_of]  # per estimator key
    conditioning = {first.conditioning_key(): first for first in firsts}  # equal keys condition alike
    ckeys = list(conditioning)
    ticks, first_armed, n_armed, flagged, _ = _condition_lanes(logs, list(conditioning.values()))

    key_sets = [ckeys.index(first.conditioning_key()) * len(logs) for first in firsts]
    sets = np.array([key_set + i for i in range(len(logs)) for key_set in key_sets])
    keys = np.arange(len(sets)) % len(firsts)
    below, tripped = _lane_pass(ticks, first_armed[sets], n_armed[sets], firsts, keys, np.array(k_tops)[keys])

    bad = (flagged[sets] | tripped).reshape(len(logs), len(firsts))
    rows: list[SweepResultRow] = [None] * (len(psets) * len(logs))  # row ``position * len(logs) + i``
    for i, log in enumerate(logs):
        if bad[i].any() or any(_mismatched_rate(log, config) for config in configs):
            for config in configs:
                _check_sample_rate(log, config)
            for key in np.flatnonzero(bad[i]).tolist():
                _replay_serially(log, firsts[key])
            raise RuntimeError(f"the lanes flagged log {i}, but its serial replay raised nothing")
        span, truth = (float(log.t[0]), float(log.t[-1])), log.ground_truth()
        records: dict[tuple, tuple] = {}  # (estimator key, k_threshold) -> this log's exceedance records
        for position, (pair, config) in enumerate(zip(pairs, configs)):
            if pair not in records:
                records[pair] = _exceedance_records(below[i * len(firsts) + lane_of[pair[0]]], pair[1], tops[pair])
            result = evaluate_status(first_exceedance(records[pair], config.decision), *span, truth)
            rows[position * len(logs) + i] = SweepResultRow(
                param_set_id=psets[position].set_id,
                log_id=log_ids[i],
                delay_s=result.detection_delay,
                false_alarms=result.false_alarm_count,
                missed=result.missed_detection,
            )
    return rows


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

TICKS_HEADER = ",".join(
    ["t"]
    + [f"k{i}" for i in range(1, 5)]
    + [f"var{i}" for i in range(1, 5)]
    + [f"pfail{i}" for i in range(1, 5)]
    + ["armed"]
    + [f"failed{i}" for i in range(1, 5)]
)
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

    A wrong header, a malformed row, a non-finite ``delay_s``, a negative
    ``false_alarms``, a ``missed`` other than 0 or 1 or a repeated
    ``(param_set_id, log_id)`` pair raises ``ValueError`` naming the line;
    an empty file names line 1, where the header belongs. A UTF-8
    byte-order mark is skipped. A negative delay is kept: a latch on the
    failed actuator before the annotated fault time gives one.
    """
    rows = []
    seen = set()  # the (param_set_id, log_id) pairs read so far
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header, expected = next(reader, []), RESULTS_HEADER
            if tuple(header) != expected:  # name the first field that differs, cut short
                j = next(j for j, name in enumerate([*header, None]) if j == len(expected) or name != expected[j])
                got = "missing" if j == len(header) else reprlib.repr(header[j])
                raise ValueError(f"unexpected results header: field {j + 1} is {got}, expected {','.join(expected)}")
            for record in reader:
                if not record:
                    continue
                if len(record) != len(RESULTS_HEADER):
                    raise ValueError(f"expected {len(RESULTS_HEADER)} fields, got {len(record)}")
                delay = None if record[2] == "" else float(record[2])
                false_alarms, missed = int(record[3]), int(record[4])
                if delay is not None and not math.isfinite(delay):
                    raise ValueError(f"delay_s must be finite, got {record[2]!r}")
                if false_alarms < 0:
                    raise ValueError(f"false_alarms must be non-negative, got {record[3]!r}")
                if missed not in (0, 1):
                    raise ValueError(f"missed must be 0 or 1, got {record[4]!r}")
                pair = (record[0], record[1])
                if pair in seen:
                    raise ValueError(f"repeated param_set_id and log_id {pair!r}")
                seen.add(pair)
                rows.append(SweepResultRow(record[0], record[1], delay, false_alarms, bool(missed)))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"line {reader.line_num or 1}: {exc}") from None
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
