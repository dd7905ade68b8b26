"""Differential harness: every replay path reaches one outcome on one (log, config).

The paths are the streaming entry (``Detector.process_sample`` on each
sample, the serial reference), ``evaluate_log``, the block replay
``replay_log`` (its ticks CSV and its final status) and ``run_sweep``'s
rows. An outcome is an ``EvaluationResult``, or the type and message of the
error raised. Logs are heads of four sources, at and beside the 1024-row
block edges or of any length, some with an idle prefix that arms the
takeoff gate mid-log, some with more than 1,024 estimator ticks, and some
with one row edited before the log is built: a NaN or Inf, a timestamp
step at or beside half the step tolerance, a rotor speed at or above the
ceiling, a roll rate at 1e308, an accelerometer value at +/-1e308. Where
``FlightLog`` refuses the edited rows, streaming the same rows must raise
at the sample its error names. The sweep's tick rows are also held to
``Conditioner.push``'s, bit for bit.
Configs take an estimator period of 1, 3, 5, 7 or 10 samples, a
``sensor_interval`` inside or outside the sample-rate tolerance, and
``g_az``, ``process_noise_q`` or ``measurement_noise_r`` at 1e308 or 1e-300.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loedetect.detector import Detector, config_from_dict, config_to_dict, default_config
from loedetect.filters import MAX_ROTOR_SPEED_RAD_S, RawSample
from loedetect.flightlog import COLUMNS, FlightLog, LogFormatError
from loedetect.replay import (
    SweepSpec,
    _check_sample_rate,
    _condition_lanes,
    evaluate,
    evaluate_log,
    evaluate_status,
    replay_log,
    run_sweep,
)

from oracles import oracle_ticks_csv, pushed_ticks, streamed_outputs

# Derandomized, so the suite stays deterministic, and with no example database.
HARNESS = settings(deadline=None, derandomize=True, database=None)

PERIOD = default_config().sensor_interval  # every source runs at 500 Hz
BLOCK_EDGES = (1, 2, 9, 10, 11, 1023, 1024, 1025, 2047, 2048, 2049)
EXTREMES = tuple(
    (key, value) for key in ("g_az", "process_noise_q", "measurement_noise_r") for value in (1e308, 1e-300)
)
# Edits to one row before the log is built: (column, value), or ("step", periods) to shift every
# timestamp from the edit on.
EDITS = (
    *((column, value) for column in COLUMNS for value in (math.nan, math.inf, -math.inf)),
    ("az", 1e308),
    ("az", -1e308),
    ("p", 1e308),
    ("w3", MAX_ROTOR_SPEED_RAD_S),
    ("w3", math.nextafter(MAX_ROTOR_SPEED_RAD_S, math.inf)),
    ("w1", 2e5),
    ("w4", -1e-3),
    *(("step", periods) for periods in (0.49, 0.5, 0.51, -0.49, -0.5, -0.51, -1.0)),
)


@dataclass(frozen=True)
class Case:
    """One log: the head of a source, optionally idled at the start and with one row edited."""

    source: str
    length: int  # rows kept, at most the source's
    idle: int = 0  # leading rows whose rotor speeds are scaled to 30%
    edit: tuple | None = None  # one of ``EDITS``
    at: int = 0  # the edited row, at most the last


class Raised(NamedTuple):
    type: type
    message: str


def _outcome(fn, *args):
    """``fn(*args)``, or the ``Raised`` of the ``ValueError`` or ``ArithmeticError`` it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return Raised(type(exc), str(exc))


def _config(steps=10, rate=1.0, extreme=()):
    """The default config with an estimator period of ``steps`` samples, ``sensor_interval`` scaled by ``rate``."""
    interval = PERIOD * rate
    values = config_to_dict(default_config()) | {"sensor_interval": interval, "estimator_interval": steps * interval}
    return config_from_dict(values | dict([extreme] if extreme else []))


@pytest.fixture(scope="session")
def sources(ejection_log, takeoff_logs, ground_idle_logs):
    """Logs to take heads of: they arm on the first sample, mid-log or never, and latch or not.

    ``long_ejection`` is 1200 rows of the ejection log's hover before its
    fault, then the whole ejection log: it latches near row 2040.
    """
    rows = np.concatenate([np.arange(1200) % 779, np.arange(len(ejection_log))])
    long_ejection = FlightLog(
        ejection_log.sample_rate_hz,
        np.arange(1, len(rows) + 1) * PERIOD,
        ejection_log.gyro[rows],
        ejection_log.accel_z[rows],
        ejection_log.rotor_speeds[rows],
        ejection_log.fault_actuator,
        ejection_log.fault_time_s + 1200 * PERIOD,
    )
    return {
        "ejection": ejection_log,
        "long_ejection": long_ejection,
        "takeoff": takeoff_logs[0],
        "idle": ground_idle_logs[0],
    }


def _build(case, sources, steps):
    """The log ``case`` names, annotated only if the fault lies in the unedited head; ``None`` if refused.

    Where ``FlightLog`` refuses the edited rows, streaming them under
    ``_config(steps)`` must raise at the sample its error names. A refusal
    that names no sample (the header rate against the median step, or the
    annotation against the span) is of the whole log, which streaming does
    not check.
    """
    source = sources[case.source]
    n = min(case.length, len(source))
    t, gyro, accel_z, speeds = (a[:n].copy() for a in (source.t, source.gyro, source.accel_z, source.rotor_speeds))
    speeds[: case.idle] *= 0.3
    truth = source.ground_truth() if source.ground_truth() and source.fault_time_s <= t[-1] else (None, None)
    if case.edit is not None:
        column, value = case.edit
        at = min(case.at, n - 1)
        if column == "step":
            t[at:] += value * PERIOD
        else:  # each column a view into the arrays
            dict(zip(COLUMNS, (t, *gyro.T, accel_z, *speeds.T)))[column][at] = value
    try:
        return FlightLog(source.sample_rate_hz, t, gyro, accel_z, speeds, *truth)
    except LogFormatError as refusal:
        if refusal.sample is not None:
            rows = zip(t.tolist(), gyro, accel_z.tolist(), speeds)
            assert _streaming_raises_at(rows, _config(steps)) == refusal.sample, refusal
        return None


def _streaming_raises_at(rows, config):
    """The index of the first row ``Detector.process_sample`` raises on, or ``None``."""
    detector = Detector(config)
    for index, row in enumerate(rows):
        try:
            detector.process_sample(RawSample(*row))
        except (ValueError, ArithmeticError):
            return index
    return None


@st.composite
def cases(draw, edit_odds=2):
    """A ``Case``; one in ``edit_odds`` has a row edited."""
    source = draw(st.sampled_from(("ejection", "long_ejection", "takeoff", "idle")))
    length = draw(st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(1, 3000)))
    idle = draw(st.one_of(st.just(0), st.integers(1, length)))
    edit = draw(st.sampled_from(EDITS)) if draw(st.integers(1, edit_odds)) == 1 else None
    return Case(source, length, idle, edit, draw(st.integers(0, length - 1)))


@st.composite
def configs(draw, extremes=True):
    steps = draw(st.sampled_from((10, 1, 3, 5, 7)))
    rate = draw(st.sampled_from((1.0, 0.991, 0.995, 1.005, 1.009, 1.02)))
    extreme = draw(st.one_of(st.just(()), st.sampled_from(EXTREMES))) if extremes else ()
    return _config(steps, rate, extreme)


@settings(HARNESS, max_examples=40)
@given(case=cases(), config=configs())
# Every block-edge length, estimator period, extreme and kind of edit, whatever the draws.
@example(case=Case("ejection", 1), config=_config())
@example(case=Case("ejection", 2), config=_config(steps=1))
@example(case=Case("ejection", 9, idle=4), config=_config(steps=3))
@example(case=Case("ejection", 10, edit=("r", math.nan), at=5), config=_config(steps=5))
@example(case=Case("ejection", 11, edit=("step", 0.5), at=6), config=_config(steps=7))
@example(case=Case("long_ejection", 1023, idle=600), config=_config(steps=3, extreme=("g_az", 1e308)))
@example(case=Case("takeoff", 1024, edit=("w3", 2e5), at=1023), config=_config(steps=7))
@example(case=Case("idle", 1025, edit=("az", 1e308), at=1000), config=_config(rate=0.991))
@example(case=Case("long_ejection", 2047), config=_config())
@example(
    case=Case("long_ejection", 2048, edit=("step", -0.49), at=1500),
    config=_config(extreme=("process_noise_q", 1e-300)),
)
@example(case=Case("takeoff", 2049), config=_config(steps=1, extreme=("measurement_noise_r", 1e308)))
@example(case=Case("ejection", 980, idle=300), config=_config(extreme=("g_az", 1e-300)))
@example(case=Case("ejection", 980, edit=("step", 0.49), at=900), config=_config(rate=0.991))
@example(case=Case("ejection", 980), config=_config(extreme=("process_noise_q", 1e308)))
# More than 1,024 estimator ticks, so the tick table's block edges fall among armed ticks:
# 2,180 from the first sample on, and about 1,500 from a takeoff that arms mid-log.
@example(case=Case("long_ejection", 2180), config=_config(steps=1))
@example(case=Case("takeoff", 3000), config=_config(steps=1))
@example(
    case=Case("ejection", 980, edit=("az", -1e308), at=850),
    config=_config(rate=1.009, extreme=("measurement_noise_r", 1e-300)),
)
def test_single_log_paths_reach_the_streaming_outcome(sources, tmp_path_factory, case, config):
    log = _build(case, sources, config.steps_per_estimate())
    if log is None:  # refused, and the refusal held to streaming
        return
    truth = log.ground_truth()
    outputs = _outcome(streamed_outputs, log, config)
    want = outputs if isinstance(outputs, Raised) else _outcome(evaluate, outputs, truth)
    assert _outcome(evaluate_log, log, config) == want
    ticks = tmp_path_factory.mktemp("ticks") / "ticks.csv"
    status = _outcome(replay_log, log, config, ticks)
    if isinstance(outputs, Raised):
        assert status == outputs
    else:
        assert _outcome(evaluate_status, status, float(log.t[0]), float(log.t[-1]), truth) == want
        assert ticks.read_bytes() == oracle_ticks_csv(outputs)


# Sweep variations: (key, value), an estimator_interval in samples of the base's sensor_interval.
VARIATIONS = (
    ("estimator_interval", 1),
    ("estimator_interval", 5),
    ("estimator_interval", 7),
    ("k_threshold", 0.15),
    ("probability_threshold", 0.99),
    ("filter_natural_frequency", 40.0),
    ("takeoff_thrust_fraction", 0.6),
    *EXTREMES,
)


def _sweep_reference(logs, configs):
    """``run_sweep``'s outcome by serial replays: rows in (set, log) order, or the error it documents.

    Logs are taken in order, and the first log whose replay under some set
    raises decides the error: its first sample-rate mismatch in set order,
    else the first set's error in set order.
    """
    results = []
    for log in logs:
        runs = [_outcome(streamed_outputs, log, config) for config in configs]
        raised = [run for run in runs if isinstance(run, Raised)]
        if raised:
            checks = [_outcome(_check_sample_rate, log, config) for config in configs]
            return ([check for check in checks if check] or raised)[0]  # a passed check is None
        results.append([evaluate(run, log.ground_truth()) for run in runs])
    by_set = zip(*results)
    return [(r.detection_delay, r.false_alarm_count, r.missed_detection) for per_log in by_set for r in per_log]


def _sweep_outcome(logs, spec):
    rows = _outcome(run_sweep, logs, spec)
    return rows if isinstance(rows, Raised) else [(row.delay_s, row.false_alarms, row.missed) for row in rows]


@settings(HARNESS, max_examples=12)
@given(
    log_cases=st.lists(cases(edit_odds=4), min_size=2, max_size=3),
    base=configs(extremes=False),
    variations=st.lists(st.sampled_from(VARIATIONS), max_size=2, unique_by=lambda variation: variation[0]),
)
# Mixed lengths, so the lane pass narrows mid-run, under mixed conditioning and estimator keys;
# then one long log beside short ones under a single estimator key, so the pass narrows to width
# 1 and runs on across the 1,024- and 2,048-tick block edges; then a later log's NaN; an earlier
# log's tripped lane; and one log bad under two estimator keys, where the first key's late NaN
# comes before the second key's overflow. Last, a log more than ten times longer than the others
# under two conditioning keys, beside a last log with no tick under either. A late NaN comes from a
# rate of 1e308, which loads and overflows the filter bank.
@example(
    log_cases=[Case("long_ejection", 2049), Case("takeoff", 2048), Case("ejection", 11, idle=4)],
    base=_config(),
    variations=[("estimator_interval", 5), ("k_threshold", 0.15)],
)
@example(
    log_cases=[Case("long_ejection", 2180), Case("ejection", 980), Case("ejection", 300, idle=100)],
    base=_config(steps=1),
    variations=[("k_threshold", 0.15), ("probability_threshold", 0.99)],
)
@example(
    log_cases=[Case("ejection", 980), Case("takeoff", 2049, edit=("p", 1e308), at=2040)],
    base=_config(steps=3),
    variations=[("takeoff_thrust_fraction", 0.6), ("probability_threshold", 0.99)],
)
@example(
    log_cases=[Case("ejection", 980), Case("long_ejection", 1024, edit=("p", 1e308), at=500)],
    base=_config(),
    variations=[("g_az", 1e308)],
)
@example(
    log_cases=[Case("ejection", 980, edit=("p", 1e308), at=900), Case("long_ejection", 1024)],
    base=_config(),
    variations=[("g_az", 1e308)],
)
@example(
    log_cases=[Case("takeoff", 3000), Case("ejection", 250, idle=100), Case("ejection", 5)],
    base=_config(),
    variations=[("estimator_interval", 7), ("k_threshold", 0.15)],
)
def test_sweep_rows_reach_the_streaming_outcomes(sources, log_cases, base, variations):
    # A refused log never reaches a sweep: its refusal is held to streaming, and the rest are swept.
    logs = [log for case in log_cases if (log := _build(case, sources, base.steps_per_estimate())) is not None]
    if not logs:
        return
    values = {key: value * base.sensor_interval if key == "estimator_interval" else value for key, value in variations}
    spec = SweepSpec(base=base, variations=tuple((key, (value,)) for key, value in values.items()))
    configs = [pset.config for pset in spec.parameter_sets()]
    assert _sweep_outcome(logs, spec) == _sweep_reference(logs, configs)
    # Under the rows, the lane form of the conditioning gives each unflagged log the tick rows, bit
    # for bit, of the one-log form that ``replay_log`` runs and of ``Conditioner.push``. The rows
    # alone miss a fault at one tick, such as one at a block edge of the tick table.
    keyed = list({config.conditioning_key(): config for config in configs}.values())
    ticks, first, n_ticks, flagged, armed_at = _condition_lanes(logs, keyed)
    for c, config in enumerate(keyed):
        for i, log in enumerate(logs):
            s = c * len(logs) + i
            one_ticks, one_first, one_n, one_flagged, one_armed_at = _condition_lanes([log], [config])
            assert flagged[s] == one_flagged[0]
            if not flagged[s]:
                assert (n_ticks[s], armed_at[s]) == (one_n[0], one_armed_at[0])
                armed, one_armed = slice(first[s], first[s] + n_ticks[s]), slice(one_first[0], one_first[0] + one_n[0])
                assert ticks[armed].tobytes() == one_ticks[one_armed].tobytes()
                assert ticks[armed].tobytes() == pushed_ticks(log, config).tobytes()
