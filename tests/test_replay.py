import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from loedetect.decision import DetectionStatus, failure_probability
from loedetect import decision, kalman, replay
from loedetect import detector as detector_module
from loedetect.detector import (
    Conditioner,
    Detector,
    DetectorConfig,
    DetectorOutput,
    config_from_dict,
    config_to_dict,
    config_with,
    default_config,
)
from loedetect.effectiveness import DEFAULT_GAINS, signed_gains
from loedetect.flightlog import SAMPLE_BLOCK_ROWS, FlightLog
from loedetect.replay import (
    SampleRateMismatchError,
    SweepResultRow,
    SweepSpec,
    box_stats,
    default_sweep_spec,
    evaluate,
    evaluate_log,
    evaluate_status,
    read_results_csv,
    render_report,
    run_detector,
    run_sweep,
    summarize_sweep,
    write_results_csv,
    write_summary_csv,
)
from loedetect.simulator import FaultEvent, SensorNoiseModel, fly_scenario
from oracles import pushed_ticks, serial_evaluation, state_arrays, state_from_arrays, sweep_probability_evaluations


def _output(t, status, armed=True):
    zeros = np.zeros(4)
    return DetectorOutput(
        timestamp=t, k_hat=zeros, variances=zeros, p_fail=zeros, status=status, armed=armed
    )


def _status(latched=(), times=()):
    fdt = [None] * 4
    for idx, t in zip(latched, times):
        fdt[idx - 1] = t
    return DetectionStatus(tuple(fdt))


def outputs_with_latch(latched=(), times=(), t_end=3.0):
    status = _status(latched, times)
    return [_output(0.002, DetectionStatus()), _output(t_end, status)]


def test_evaluate_correct_detection():
    outs = outputs_with_latch(latched=(3,), times=(1.66,))
    result = evaluate(outs, ground_truth=(3, 1.56))
    assert result.detection_delay == pytest.approx(0.10, abs=1e-12)
    assert result.false_alarm_count == 0
    assert result.missed_detection is False
    assert result.detected_actuator == 3


def test_evaluate_missed_detection():
    result = evaluate(outputs_with_latch(), ground_truth=(3, 1.56))
    assert result.detection_delay is None
    assert result.missed_detection is True
    assert result.false_alarm_count == 0


def test_evaluate_wrong_actuator_is_false_alarm_and_missed():
    outs = outputs_with_latch(latched=(2,), times=(1.7,))
    result = evaluate(outs, ground_truth=(3, 1.56))
    assert result.false_alarm_count == 1
    assert result.missed_detection is True
    assert result.detected_actuator == 2


def test_evaluate_no_fault_counts_all_latches():
    outs = outputs_with_latch(latched=(1, 4), times=(1.0, 0.5))
    result = evaluate(outs, ground_truth=None)
    assert result.false_alarm_count == 2
    assert result.missed_detection is False
    assert result.detected_actuator == 4  # earliest latch


def test_evaluate_rejects_fault_time_outside_span():
    outs = outputs_with_latch(latched=(3,), times=(1.66,))
    with pytest.raises(ValueError, match="outside the log span"):
        evaluate(outs, ground_truth=(3, 99.0))


@pytest.mark.parametrize("actuator", [3.0, 2.5, True])
def test_evaluate_status_rejects_a_non_integer_fault_actuator(actuator):
    with pytest.raises(ValueError, match=f"^ground truth actuator must be an integer, got {actuator}$"):
        evaluate_status(_status(), 0.0, 1.0, (actuator, 0.5))


def test_evaluate_rejects_empty_outputs():
    with pytest.raises(ValueError):
        evaluate([], ground_truth=None)


def test_run_detector_gives_one_output_per_sample_and_checks_the_rate(ejection_log):
    outputs = run_detector(ejection_log, default_config())
    assert len(outputs) == len(ejection_log)
    assert [output.timestamp for output in outputs] == ejection_log.t.tolist()
    long = default_config().sensor_interval * 1.02
    values = config_to_dict(default_config()) | {"sensor_interval": long, "estimator_interval": 10 * long}
    with pytest.raises(SampleRateMismatchError, match="^config sensor_interval=0.00204 s does not match"):
        run_detector(ejection_log, config_from_dict(values))


def test_ejection_log_detects_actuator_three(ejection_log):
    result = evaluate_log(ejection_log, default_config())
    assert result.detected_actuator == 3
    assert result.false_alarm_count == 0
    assert result.missed_detection is False
    assert 0.02 <= result.detection_delay <= 0.15


def test_long_noisy_hover_has_zero_false_alarms():
    log = fly_scenario("hover", duration=60.0, noise=SensorNoiseModel(seed=77))
    result = evaluate_log(log, default_config())
    assert result.false_alarm_count == 0


def test_wind_scenario_without_fault_has_zero_latches():
    log = fly_scenario("wind", duration=10.0, noise=SensorNoiseModel(seed=78))
    outputs = run_detector(log, default_config())
    assert not outputs[-1].status.any_failed()


def test_default_sweep_has_19_parameter_sets():
    spec = default_sweep_spec()
    sets = spec.parameter_sets()
    assert len(sets) == 19
    assert sets[0].parameter == "base"
    names = {s.parameter for s in sets[1:]}
    assert names == {
        "g_p",
        "g_q",
        "g_az",
        "process_noise_q",
        "measurement_noise_r",
        "k_threshold",
        "probability_threshold",
    }


def test_lane_pass_signs_each_estimator_keys_gains_once(ejection_log, monkeypatch):
    # One signed_gains call per distinct estimator key, however many logs
    # (and so lanes) run under it: 11 on the default spec, not 11 per log.
    spec = default_sweep_spec()
    keys = {pset.config.estimator_key() for pset in spec.parameter_sets()}
    calls = []
    monkeypatch.setattr(replay, "signed_gains", lambda gains: calls.append(gains) or signed_gains(gains))
    assert len(run_sweep([ejection_log] * 3, spec)) == 19 * 3
    assert len(keys) == len(calls) == 11


def test_sweep_rejects_unknown_parameter_before_any_run():
    with pytest.raises(KeyError, match="not_a_knob"):
        SweepSpec(base=default_config(), variations=(("not_a_knob", (1.0,)),))


BAD_VARIATIONS = {
    "repeated-value": ((("k_threshold", (0.2, 0.2)),), "^parameter 'k_threshold' repeats the value 0.2$"),
    "repeated-int-and-float": ((("g_p", (1, 1.0)),), "^parameter 'g_p' repeats the value 1.0$"),
    "empty-values": ((("k_threshold", (0.2,)), ("g_p", ())), "^parameter 'g_p' has no values$"),
    "bool-value": ((("process_noise_q", (True,)),), "^parameter 'process_noise_q' value true is not a number$"),
    "string-value": ((("g_p", ("1e1",)),), '^parameter \'g_p\' value "1e1" is not a number$'),
    "none-value": ((("g_p", (None,)),), "^parameter 'g_p' value null is not a number$"),
    "repeated-name": ((("k_threshold", (0.15,)), ("k_threshold", (0.35,))), "^repeated parameter 'k_threshold'$"),
    "int-too-large": ((("g_p", (10**400,)),), "^parameter 'g_p' value is too large for a float$"),
}


@pytest.mark.parametrize(("variations", "message"), BAD_VARIATIONS.values(), ids=BAD_VARIATIONS.keys())
def test_sweep_spec_refuses_bad_variations_when_built(variations, message):
    # The same rules a spec file meets, so a spec built in Python sweeps no set twice and no empty list.
    with pytest.raises(ValueError, match=message):
        SweepSpec(base=default_config(), variations=variations)


def test_sweep_spec_keeps_its_values_as_float_tuples():
    spec = SweepSpec(base=default_config(), variations=[("k_threshold", [0.2, np.float64(0.3)]), ("g_p", (1,))])
    assert spec.variations == (("k_threshold", (0.2, 0.3)), ("g_p", (1.0,)))
    assert all(type(v) is float for _, values in spec.variations for v in values)
    assert spec.parameter_sets()[3].set_id == "set_03_g_p=1.0"
    assert SweepSpec(base=default_config(), variations=()).variations == ()


def test_sweep_totality_every_pair_once(ejection_log):
    spec = SweepSpec(
        base=default_config(),
        variations=(("k_threshold", (0.15, 0.35)), ("probability_threshold", (0.8,))),
    )
    logs = [ejection_log, ejection_log]
    rows = run_sweep(logs, spec, log_ids=["a", "b"])
    assert len(rows) == 4 * 2
    pairs = {(r.param_set_id, r.log_id) for r in rows}
    assert len(pairs) == len(rows)


def test_sweep_rejects_repeated_log_ids(ejection_log):
    # Rows of two logs under one log_id could not be told apart.
    spec = SweepSpec(base=default_config(), variations=())
    with pytest.raises(ValueError, match="^log_ids must be distinct, got 'a' twice$"):
        run_sweep([ejection_log, ejection_log, ejection_log], spec, log_ids=["a", "b", "a"])


def test_single_pair_sweep_equals_direct_evaluation(ejection_log):
    spec = SweepSpec(base=default_config(), variations=())
    rows = run_sweep([ejection_log], spec)
    direct = serial_evaluation(ejection_log, default_config())
    assert len(rows) == 1
    assert rows[0].delay_s == direct.detection_delay
    assert rows[0].false_alarms == direct.false_alarm_count
    assert rows[0].missed == direct.missed_detection


def _recording(fn, calls, name):
    """``fn``, appending ``name`` to ``calls`` on every call."""

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_staged_sweep_equals_per_set_evaluation(ejection_log, monkeypatch):
    base = default_config()
    spec = SweepSpec(
        base=base,
        variations=(
            ("filter_natural_frequency", (40.0,)),
            ("takeoff_thrust_fraction", (0.6,)),
            ("g_p", (1.2e-4,)),
            ("process_noise_q", (0.05, base.noise.process_noise_q)),  # second value repeats base
            ("k_threshold", (0.15,)),
            ("probability_threshold", (0.99,)),
        ),
    )
    configs = [p.config for p in spec.parameter_sets()]
    assert len({c.conditioning_key() for c in configs}) == 3
    assert len({c.estimator_key() for c in configs}) == 5
    assert len({(c.estimator_key(), c.decision.k_threshold) for c in configs}) == 6
    assert len(set(configs)) == len(configs) - 1
    hover = fly_scenario("hover", duration=2.0, noise=SensorNoiseModel(seed=81))
    idle = fly_scenario("ground_idle", duration=1.5, noise=SensorNoiseModel(seed=82))
    push = Conditioner(base).push
    assert all(push(*row) is None for row in idle.rows())
    logs = [ejection_log, hover, idle]

    calls = []
    evaluations = []
    with monkeypatch.context() as patch:
        for module in (decision, detector_module, replay):
            for name in ("decide", "failure_probabilities"):
                if hasattr(module, name):
                    patch.setattr(module, name, _recording(getattr(module, name), calls, name))
        patch.setattr(replay, "failure_probability", _recording(failure_probability, evaluations, "p"))
        rows = run_sweep(logs, spec, log_ids=["eject", "hover", "idle"])

    # No per-tick decision: one failure probability per (log, estimator key,
    # k_threshold) and sub-threshold (tick, actuator) pair, up to the
    # actuator's first probability that latches every config sharing it.
    assert calls == []
    assert len(evaluations) == sweep_probability_evaluations(logs, configs) > 0
    assert len(evaluations) < sweep_probability_evaluations(logs, configs, every_tick=True)
    assert [(r.param_set_id, r.log_id) for r in rows] == [
        (p.set_id, log_id) for p in spec.parameter_sets() for log_id in ("eject", "hover", "idle")
    ]
    for row, (pset, log) in zip(rows, [(p, log) for p in spec.parameter_sets() for log in logs]):
        direct = serial_evaluation(log, pset.config)
        assert (row.delay_s, row.false_alarms, row.missed) == (
            direct.detection_delay,
            direct.false_alarm_count,
            direct.missed_detection,
        ), (row, direct)


class _FaultyStep:
    """``kalman.step`` with a negative variance or an ``ArithmeticError`` on chosen ticks.

    ``faults`` maps a ``process_noise_q`` to ``(negative_at, raise_at)``:
    the 1-based call, counted per noise config, whose result carries a
    negative variance for actuator 4, and the call that raises. The next
    call gets the variance back, so only the chosen tick is corrupted.
    """

    step = staticmethod(kalman.step)  # the real kernel, taken before any test patches it

    def __init__(self, faults):
        self.faults = faults
        self.calls = {}

    def __call__(self, state, H, z, noise):
        negative_at, raise_at = self.faults.get(noise.process_noise_q, (None, None))
        n = self.calls[noise] = self.calls.get(noise, 0) + 1
        if n == raise_at:
            raise ArithmeticError(f"injected estimator failure on call {n}")
        x, P = state_arrays(state)
        P[3, 3] = abs(P[3, 3])
        new = self.step(state_from_arrays(x, P), H, z, noise)
        if n != negative_at:
            return new
        x, P = state_arrays(new)
        P[3, 3] = -P[3, 3]
        return state_from_arrays(x, P)


class _FaultyLanes:
    """``kalman.step_lanes`` with ``_FaultyStep``'s faults, on the lanes whose ``q`` they name.

    Ticks are counted per call, which on one log is ``_FaultyStep``'s count
    per noise config. On ``negative_at`` a lane's result carries a negative
    variance for actuator 4, and on ``raise_at`` a NaN ``s``, both written
    into the workspace in place, so the lane trips there and the sweep
    replays it through ``kalman.step``.
    """

    step_lanes = staticmethod(kalman.step_lanes)  # the real kernel, taken before any test patches it

    def __init__(self, faults):
        self.faults = faults
        self.calls = 0

    def __call__(self, work, H, z, q, r):
        self.calls += 1
        work.P[15] = abs(work.P[15])
        self.step_lanes(work, H, z, q, r)
        for noise_q, (negative_at, raise_at) in self.faults.items():
            lanes = q == noise_q
            if self.calls == negative_at:
                work.P[15, lanes] = -work.P[15, lanes]
            if self.calls == raise_at:
                work.s[0, lanes] = np.nan


@pytest.mark.parametrize(
    "faults",
    [
        {0.1: (3, None)},
        {0.1: (None, 5)},
        {0.1: (3, 5)},
        {0.1: (3, None), 0.05: (None, 2)},
        {0.05: (None, 2)},
    ],
    ids=[
        "negative-variance",
        "estimator-error",
        "negative-variance-before-estimator-error",
        "first-key-before-second",
        "second-key-only",
    ],
)
def test_sweep_raises_what_the_first_failing_replay_raises(ejection_log, monkeypatch, faults):
    # Estimator keys: base, k_threshold and probability_threshold share
    # process_noise_q = 0.1 and run first; 0.05 runs second.
    spec = SweepSpec(
        base=default_config(),
        variations=(
            ("process_noise_q", (0.05,)),
            ("k_threshold", (0.15,)),
            ("probability_threshold", (0.99,)),
        ),
    )
    expected = None
    for pset in spec.parameter_sets():
        monkeypatch.setattr(kalman, "step", _FaultyStep(faults))
        try:
            serial_evaluation(ejection_log, pset.config)
        except (ValueError, ArithmeticError) as exc:
            expected = exc
            break
    assert expected is not None
    # The sweep's lane pass trips where the faults are; its replay of the
    # tripped key then raises through the float kernel's faults.
    monkeypatch.setattr(kalman, "step", _FaultyStep(faults))
    lanes = _FaultyLanes(faults)
    monkeypatch.setattr(kalman, "step_lanes", lanes)
    with pytest.raises((ValueError, ArithmeticError)) as caught:
        run_sweep([ejection_log], spec)
    assert lanes.calls > 0
    assert type(caught.value) is type(expected)
    assert str(caught.value) == str(expected)


def test_sweep_steps_each_lane_over_its_own_ticks_only(ejection_log, monkeypatch):
    # Lanes run longest first, and the pass narrows as shorter runs end: the
    # short log's lanes leave after its last tick, and no lane ever steps a
    # tick without a real observation.
    short = fly_scenario("hover", duration=0.5, noise=SensorNoiseModel(seed=14))
    logs = [short, ejection_log]
    spec = SweepSpec(base=default_config(), variations=(("process_noise_q", (0.05,)), ("k_threshold", (0.15,))))
    n_keys = len({pset.config.estimator_key() for pset in spec.parameter_sets()})
    ticks = []
    for log in logs:
        push = Conditioner(default_config()).push
        ticks.append(sum(push(*row) is not None for row in log.rows()))
    assert 0 < ticks[0] < ticks[1]
    widths = []
    real_step_lanes = kalman.step_lanes

    def step_lanes(work, H, z, q, r):
        assert np.abs(H).sum(axis=(0, 1)).all()
        widths.append(work.width)
        real_step_lanes(work, H, z, q, r)

    monkeypatch.setattr(kalman, "step_lanes", step_lanes)
    rows = run_sweep(logs, spec)
    assert widths == [2 * n_keys] * ticks[0] + [n_keys] * (ticks[1] - ticks[0])
    for row, (pset, log) in zip(rows, [(p, log) for p in spec.parameter_sets() for log in logs]):
        direct = serial_evaluation(log, pset.config)
        assert (row.delay_s, row.false_alarms, row.missed) == (
            direct.detection_delay,
            direct.false_alarm_count,
            direct.missed_detection,
        )


TRIP_FAULTS = {
    "nan-innovation": ({1: ("y", math.nan)}, True),
    "zero-s": ({1: ("s", 0.0)}, True),
    "infinite-s": ({1: ("s", math.inf)}, True),
    "nan-s": ({1: ("s", math.nan)}, True),
    "negative-variance": ({1: ("variance", -1e-9)}, True),
    "nan-variance-then-negative": ({0: ("variance", math.nan), 1: ("variance", -1e-9)}, True),
    "nan-innovation-then-finite": ({0: ("y", math.nan)}, True),
    "nan-variance-only": ({0: ("variance", math.nan)}, False),
    "none": ({}, False),
}


@pytest.mark.parametrize(("faults", "trips"), TRIP_FAULTS.values(), ids=TRIP_FAULTS.keys())
def test_lane_pass_folds_each_trip_into_a_lane_that_leaves_early(monkeypatch, faults, trips):
    # Lane 0 runs 3 ticks and lane 1 six, so lane 0 steps second and leaves
    # the pass after its third tick; its fault lands on its first or second
    # tick, and finite ticks follow it. The fake kernel writes a clean tick
    # on every lane (k 1, variances 1, y 0, s 1), and on lane 0 (q = 0.05)
    # the tick's fault and, on its last tick, k_hat 0.1 for actuator 4.
    ticks = np.ones((9, 8))
    ticks[:, 0] = 1.0 + 0.02 * np.arange(9)
    configs = [config_with(default_config(), "process_noise_q", 0.05), default_config()]
    calls = []

    def step_lanes(work, H, z, q, r):
        lane = q == 0.05
        tick = len(calls)
        calls.append(work.width)
        work.k[:], work.P[:], work.y[:], work.s[:] = 1.0, 0.0, 0.0, 1.0
        work.diagonal[:] = 1.0
        field, value = faults.get(tick, ("y", 0.0))
        {"y": work.y[0], "s": work.s[1], "variance": work.diagonal[2]}[field][lane] = value
        if tick == 2:
            work.k[3, lane] = 0.1

    monkeypatch.setattr(kalman, "step_lanes", step_lanes)
    first, n_ticks, keys = np.array([0, 3]), np.array([3, 6]), np.array([0, 1])
    below, tripped = replay._lane_pass(ticks, first, n_ticks, configs, keys, np.array([0.25, 0.25]))
    assert calls == [2, 2, 2, 1, 1, 1]
    assert tripped.dtype == bool and tripped.tolist() == [trips, False]
    assert below == [[(ticks[2, 0], 3, 0.1, 1.0)], []]


def test_sweep_memory_grows_with_the_tick_table_only():
    # A short ejection log beside a hover log that doubles from 10 to 20 s:
    # the lanes keep no per-tick store, so the sweep's traced peak grows by
    # at most 4 times the growth of the (ticks, 8) table that holds the
    # added ticks.
    fault = FaultEvent(time=1.1, actuator_index=3)
    ejection = fly_scenario("hover", duration=1.5, fault=fault, noise=SensorNoiseModel(seed=3))
    spec, tables, peaks = default_sweep_spec(), [], []
    condition_lanes = replay._condition_lanes

    def recording_condition_lanes(logs, configs):
        conditioned = condition_lanes(logs, configs)
        tables.append(conditioned[0].nbytes)
        return conditioned

    for seconds in (10.0, 20.0):
        logs = [ejection, fly_scenario("hover", duration=seconds, noise=SensorNoiseModel(seed=5))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(replay, "_condition_lanes", recording_condition_lanes)
            tracemalloc.start()
            try:
                rows = run_sweep(logs, spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(rows) == 2 * len(spec.parameter_sets())
    assert tables[1] > tables[0]
    assert peaks[1] - peaks[0] <= 4 * (tables[1] - tables[0])


def test_sweep_replays_the_first_tripped_lane_in_log_order(ejection_log, monkeypatch):
    # Both logs trip under g_az = 1e308; the longer one runs first in the
    # lane pass, but the shorter one comes first in the sweep.
    short = fly_scenario("hover", duration=0.5, noise=SensorNoiseModel(seed=14))
    spec = SweepSpec(base=default_config(), variations=(("g_az", (1e308,)),))
    replayed = []
    replay_serially = replay._replay_serially
    monkeypatch.setattr(replay, "_replay_serially", lambda log, config: replayed.append(log) or replay_serially(log, config))
    with pytest.raises(ArithmeticError, match="^innovation variance s=nan"):
        run_sweep([short, ejection_log], spec)
    assert len(replayed) == 1 and replayed[0] is short


@pytest.mark.parametrize(
    ("name", "value", "s"), [("g_az", 1e308, "nan"), ("process_noise_q", 1e308, "inf"), ("g_p", 1e200, "inf")]
)
def test_sweep_raises_the_replays_overflow_error(ejection_log, name, value, s):
    # Real overflows, under the suite's error::RuntimeWarning filter: the
    # lane pass must not warn, and the sweep raises the replay's own error.
    spec = SweepSpec(base=default_config(), variations=((name, (value,)),))
    with pytest.raises(ArithmeticError) as expected:
        serial_evaluation(ejection_log, spec.parameter_sets()[1].config)
    with pytest.raises(ArithmeticError) as caught:
        run_sweep([ejection_log], spec)
    assert type(caught.value) is type(expected.value) is ArithmeticError
    assert str(caught.value) == str(expected.value)
    assert str(caught.value) == f"innovation variance s={s} is not finite and positive"


def test_sweep_raises_the_first_error_in_log_order(ejection_log):
    # The same flight at 250 Hz fails the base config's sample-rate check;
    # the 500 Hz log overflows under g_az = 1e308. Whichever log comes first
    # decides the error, as it would in a serial replay.
    half_rate = FlightLog(
        sample_rate_hz=250.0,
        t=ejection_log.t[1::2],
        gyro=ejection_log.gyro[1::2],
        accel_z=ejection_log.accel_z[1::2],
        rotor_speeds=ejection_log.rotor_speeds[1::2],
        fault_actuator=ejection_log.fault_actuator,
        fault_time_s=ejection_log.fault_time_s,
    )
    spec = SweepSpec(base=default_config(), variations=(("g_az", (1e308,)),))
    with pytest.raises(ArithmeticError, match="^innovation variance s=nan"):
        run_sweep([ejection_log, half_rate], spec)
    with pytest.raises(SampleRateMismatchError):
        run_sweep([half_rate, ejection_log], spec)


def _head(log, n):
    """The first ``n`` rows of ``log``, unannotated."""
    return FlightLog(log.sample_rate_hz, log.t[:n], log.gyro[:n], log.accel_z[:n], log.rotor_speeds[:n])


def _arming_sample(log, config):
    """The index of the sample that arms ``Conditioner``'s takeoff gate on ``log``, or ``None``."""
    conditioner = Conditioner(config)
    for k, row in enumerate(log.rows()):
        conditioner.push(*row)
        if conditioner.armed:
            return k
    return None


def test_conditioning_lanes_equal_conditioner_push_bit_for_bit(ejection_log, takeoff_logs, ground_idle_logs):
    # One lane pass per distinct conditioning key, over logs of unequal
    # length: a takeoff ramp that arms mid-log and mid-period, an ejection
    # log that arms on its first sample, a ground-idle log that never arms,
    # a log shorter than one estimator period and a 1-row log. Each log
    # also runs alone, in the one-log column form. Every tick row is
    # compared by bytes, which tell -0.0 from 0.0, and each set's arming
    # sample with the one ``push`` arms on.
    base = default_config()
    spec = SweepSpec(
        base=base,
        variations=(
            ("filter_natural_frequency", (40.0,)),
            ("takeoff_thrust_fraction", (0.6,)),
            ("estimator_interval", (5 * base.sensor_interval,)),
            ("g_p", (1.2e-4,)),  # an estimator key that shares the base's conditioning
        ),
    )
    configs = list({pset.config.conditioning_key(): pset.config for pset in spec.parameter_sets()}.values())
    assert len(configs) == 4 and configs[3].steps_per_estimate() == 5
    ramp, idle = takeoff_logs[0], _head(ground_idle_logs[0], 1700)
    logs = [ramp, ejection_log, idle, _head(ejection_log, 4), _head(ejection_log, 1), _head(ramp, 2222)]
    assert len({len(log) for log in logs}) == len(logs)
    for config in configs:
        assert 0 < _arming_sample(ramp, config) < len(ramp) - 1
        assert _arming_sample(idle, config) is None
        assert _arming_sample(ejection_log, config) == 0
        assert len(logs[3]) < config.steps_per_estimate()
    # The ramp arms mid-period under the base config, and on a tick sample
    # itself under the 5-sample period.
    assert _arming_sample(ramp, configs[0]) % 10 == 4
    assert _arming_sample(ramp, configs[3]) % 5 == 4

    lanes = replay._condition_lanes(logs, configs)
    ticks, _, n_ticks, flagged, _ = lanes
    assert not flagged.any()
    for c, config in enumerate(configs):
        for i, log in enumerate(logs):
            want = pushed_ticks(log, config)
            arming = _arming_sample(log, config)
            # The lane loop over every log, and the one-log column form on this log alone.
            for (set_ticks, set_firsts, set_counts, set_flags, armed_at), s in (
                (lanes, c * len(logs) + i),
                (replay._condition_lanes([log], [config]), 0),
            ):
                armed = slice(set_firsts[s], set_firsts[s] + set_counts[s])
                assert not set_flags[s]
                assert set_counts[s] == len(want)
                assert np.ascontiguousarray(set_ticks[armed]).tobytes() == want.tobytes(), (c, i, s)
                assert armed_at[s] == (len(log) if arming is None else arming), (c, i, s)
    per_log = n_ticks.reshape(len(configs), len(logs))
    periods = np.array([len(ramp) // config.steps_per_estimate() for config in configs])
    assert (0 < per_log[:, 0]).all() and (per_log[:, 0] < periods).all()  # the ramp arms mid-log
    assert (per_log[:, [1, 5]] > 0).all() and (per_log[:, 2:5] == 0).all()

    # And the sweep over them equals a replay of each (log, set).
    rows = run_sweep(logs, spec)
    for row, (pset, log) in zip(rows, [(p, log) for p in spec.parameter_sets() for log in logs]):
        direct = serial_evaluation(log, pset.config)
        assert (row.delay_s, row.false_alarms, row.missed) == (
            direct.detection_delay,
            direct.false_alarm_count,
            direct.missed_detection,
        )


def test_conditioning_table_holds_each_sets_ticks_once(ejection_log, takeoff_logs):
    # One 8-float row per tick of each (conditioning key, log) set, set after
    # set in order, with no padding: short logs beside a long one, under two
    # estimator periods, pay for their own ticks only, and a log with no tick
    # holds no row.
    base = default_config()
    configs = [base, config_with(base, "estimator_interval", 7 * base.sensor_interval)]
    logs = [takeoff_logs[0], _head(ejection_log, 250), _head(ejection_log, 5)]
    counts = [len(log) // config.steps_per_estimate() for config in configs for log in logs]
    assert counts[2] == counts[5] == 0 and len(logs[0]) >= 10 * len(logs[1])
    ticks, first, n_ticks, flagged, _ = replay._condition_lanes(logs, configs)
    assert not flagged.any()
    assert ticks.shape == (sum(counts), 8) and ticks.dtype == np.float64
    assert (first + n_ticks).tolist() == np.cumsum(counts).tolist()  # each set's armed ticks end its rows


def _first_replay_error(logs, spec):
    """What a serial replay of every (log, set) raises first, logs in order."""
    for log in logs:
        for pset in spec.parameter_sets():
            try:
                serial_evaluation(log, pset.config)
            except (ValueError, ArithmeticError) as exc:
                return exc
    raise AssertionError("no replay failed")


def _assert_sweep_raises_the_first_replay_error(logs, spec):
    expected = _first_replay_error(logs, spec)
    with pytest.raises((ValueError, ArithmeticError)) as caught:
        run_sweep(logs, spec)
    assert type(caught.value) is type(expected)
    assert str(caught.value) == str(expected)
    return expected


def _flight(seed, duration=0.8):
    return fly_scenario("hover", duration=duration, noise=SensorNoiseModel(seed=seed))


def test_sweep_raises_the_step_error_of_a_sensor_interval_just_inside_the_rate_tolerance():
    # A 1.49-period step passes FlightLog.validate at the header rate, but not
    # the conditioner's step check under a sensor_interval 0.9% short of it,
    # which the sample-rate check (1%) still accepts.
    good = _flight(64)
    t = good.t.copy()
    t[150:] += 0.49 * (t[1] - t[0])
    stepped = FlightLog(good.sample_rate_hz, t, good.gyro, good.accel_z, good.rotor_speeds)
    short = default_config().sensor_interval * 0.991
    values = config_to_dict(default_config()) | {"sensor_interval": short, "estimator_interval": 10 * short}
    spec = SweepSpec(base=config_from_dict(values), variations=(("k_threshold", (0.15,)),))
    evaluate_log(stepped, default_config())  # the header rate's own check passes
    expected = _assert_sweep_raises_the_first_replay_error([good, stepped], spec)
    assert str(expected).startswith(f"timestamp step {t[150] - t[149]:.6g} s at t={float(t[150])!r} is outside")


def _short_step(log, at):
    """``log`` with a 0.501-period step into sample ``at``: ``validate`` accepts it at the header rate."""
    t = log.t.copy()
    t[at:] -= 0.499 * (t[1] - t[0])
    return FlightLog(log.sample_rate_hz, t, log.gyro, log.accel_z, log.rotor_speeds)


def _long_interval_config():
    """The default config with ``sensor_interval`` 0.5% long: within the rate tolerance, but its step
    check rejects ``_short_step``'s step."""
    long = default_config().sensor_interval * 1.005
    values = config_to_dict(default_config()) | {"sensor_interval": long, "estimator_interval": 10 * long}
    return config_from_dict(values)


def test_an_earlier_tripped_lane_wins_over_a_later_bad_log(ejection_log):
    # The first log's g_az lane overflows; the second log holds a step the
    # conditioner rejects. The lane comes first in log order, so the sweep
    # raises its replay's error; with the logs swapped, the step comes first.
    bad = _short_step(_flight(65), 99)
    spec = SweepSpec(base=_long_interval_config(), variations=(("g_az", (1e308,)),))
    expected = _assert_sweep_raises_the_first_replay_error([ejection_log, bad], spec)
    assert isinstance(expected, ArithmeticError)
    expected = _assert_sweep_raises_the_first_replay_error([bad, ejection_log], spec)
    assert str(expected).startswith(f"timestamp step {bad.t[99] - bad.t[98]:.6g} s at t={float(bad.t[99])!r}")


def test_sweep_replays_the_log_of_the_lane_that_tripped(ejection_log, ground_idle_logs):
    # The idle log never arms, so its lanes run no tick and come last in
    # the lane pass; the ejection log's g_az lane trips. The sweep must
    # replay the ejection log, not the log whose lane sits at the tripped
    # lane's place in the pass.
    spec = SweepSpec(base=default_config(), variations=(("g_az", (1e308,)),))
    expected = _assert_sweep_raises_the_first_replay_error([ground_idle_logs[0], ejection_log], spec)
    assert str(expected).startswith("innovation variance s=nan")


def test_sweep_raises_the_rate_error_of_a_log_no_lane_flags(ejection_log):
    # A sensor_interval 2% long fails the 1% sample-rate check, but its steps
    # pass the conditioner's (0.5, 1.5) check, so no lane flags the log.
    long = default_config().sensor_interval * 1.02
    values = config_to_dict(default_config()) | {"sensor_interval": long, "estimator_interval": 10 * long}
    spec = SweepSpec(base=config_from_dict(values), variations=())
    expected = _assert_sweep_raises_the_first_replay_error([ejection_log], spec)
    assert isinstance(expected, SampleRateMismatchError)


def test_sweep_refuses_a_flag_the_float_kernel_does_not_confirm(ejection_log, monkeypatch):
    # A log the lanes flag is replayed serially; if that raises nothing, the
    # two forms disagree, and the sweep says so.
    condition_lanes = replay._condition_lanes

    def flag_everything(logs, configs):
        ticks, first, n_ticks, flagged, armed_at = condition_lanes(logs, configs)
        return ticks, first, n_ticks, np.ones_like(flagged), armed_at

    monkeypatch.setattr(replay, "_condition_lanes", flag_everything)
    with pytest.raises(RuntimeError, match="^the lanes flagged log 0, but its serial replay raised nothing$"):
        run_sweep([ejection_log], SweepSpec(base=default_config(), variations=()))


def test_sweep_refuses_a_trip_the_float_kernel_does_not_confirm(ejection_log, monkeypatch):
    # The same for a lane the lane pass reports tripped: its serial replay
    # raises nothing, and the sweep says so.
    lane_pass = replay._lane_pass

    def trip_everything(ticks, first, n_ticks, configs, keys, k_tops):
        below, tripped = lane_pass(ticks, first, n_ticks, configs, keys, k_tops)
        return below, np.ones_like(tripped)

    monkeypatch.setattr(replay, "_lane_pass", trip_everything)
    spec = SweepSpec(base=default_config(), variations=(("g_q", (1.2e-4,)),))
    with pytest.raises(RuntimeError, match="^the lanes flagged log 0, but its serial replay raised nothing$"):
        run_sweep([ejection_log], spec)


def test_conditioning_lanes_arm_while_the_gate_window_fills(ejection_log):
    # Idle rotors for 0.3 s, then hover: the gate arms before its 1 s window
    # has filled, while its mean divides by the samples seen so far. The
    # one-log column form and the lane loop arm on push's sample.
    speeds = ejection_log.rotor_speeds.copy()
    speeds[:150] *= 0.3
    log = FlightLog(ejection_log.sample_rate_hz, ejection_log.t, ejection_log.gyro, ejection_log.accel_z, speeds)
    config = default_config()
    arming = _arming_sample(log, config)
    assert 150 < arming < Conditioner(config)._gate_len
    want = pushed_ticks(log, config)
    for logs in ([log], [log, ejection_log]):
        ticks, first, n_ticks, flagged, armed_at = replay._condition_lanes(logs, [config])
        armed = ticks[first[0] : first[0] + n_ticks[0]]
        assert not flagged.any() and armed_at[0] == arming
        assert n_ticks[0] == len(want) and np.ascontiguousarray(armed).tobytes() == want.tobytes()


def test_conditioning_lanes_difference_across_tick_block_edges(takeoff_logs):
    # A 1-sample estimator period gives more armed ticks than one block of
    # the in-place differencing, which runs last block first: every tick
    # row, alone and beside a second log, is push's.
    base = default_config()
    config = config_with(base, "estimator_interval", base.sensor_interval)
    want = pushed_ticks(takeoff_logs[0], config)
    assert len(want) > SAMPLE_BLOCK_ROWS
    for logs in (takeoff_logs[:1], takeoff_logs[:2]):
        ticks, first, n_ticks, flagged, _ = replay._condition_lanes(logs, [config])
        armed = ticks[first[0] : first[0] + n_ticks[0]]
        assert not flagged.any() and n_ticks[0] == len(want)
        assert np.ascontiguousarray(armed).tobytes() == want.tobytes()


def test_replay_log_refuses_a_flag_the_float_kernel_does_not_confirm(ejection_log, monkeypatch, tmp_path):
    # detect's block replay takes the same way out: a flagged log is
    # replayed serially, and if that raises nothing, no ticks file is opened.
    condition_lanes = replay._condition_lanes

    def flag_everything(logs, configs):
        ticks, first, n_ticks, flagged, armed_at = condition_lanes(logs, configs)
        return ticks, first, n_ticks, np.ones_like(flagged), armed_at

    monkeypatch.setattr(replay, "_condition_lanes", flag_everything)
    with pytest.raises(RuntimeError, match="^the conditioning flagged the log, but its serial replay raised nothing$"):
        replay.replay_log(ejection_log, default_config(), tmp_path / "ticks.csv")
    assert not (tmp_path / "ticks.csv").exists()


@pytest.mark.parametrize("config", [default_config(), config_with(default_config(), "process_noise_q", 0.5)])
def test_replay_log_status_equals_the_row_by_row_replay(
    ejection_log, takeoff_logs, ground_idle_logs, config, tmp_path
):
    # The block replay's final status, with and without a ticks file, is
    # the streamed replay's: latch times compared as floats, not rounded.
    for log in (ejection_log, takeoff_logs[1], ground_idle_logs[1], _head(ejection_log, 7)):
        want = run_detector(log, config)[-1].status
        assert replay.replay_log(log, config) == want
        assert replay.replay_log(log, config, tmp_path / "ticks.csv") == want
    assert ejection_log.fault_actuator is not None and replay.replay_log(ejection_log, config).any_failed()


def _late_step(log):
    """``log`` with its last five timestamps 0.49 periods late: a 1.49-period step ``validate`` accepts."""
    t = log.t.copy()
    t[-5:] += 0.49 * 0.002
    return FlightLog(
        log.sample_rate_hz, t, log.gyro, log.accel_z, log.rotor_speeds, log.fault_actuator, log.fault_time_s
    )


def test_sweep_raises_the_estimator_error_that_comes_before_a_late_conditioning_error(ejection_log):
    # The lanes flag the log for a fault near its end, but g_az = 1e308
    # overflows the estimator on its first armed tick. A serial replay
    # raises the overflow, so the sweep must too. A sensor_interval 0.9%
    # short passes the sample-rate check and turns the 1.49-period step
    # into one the conditioner rejects.
    short = 0.002 * 0.991
    config = DetectorConfig(
        gains=replace(DEFAULT_GAINS, g_az=1e308), sensor_interval=short, estimator_interval=short * 10
    )
    log = _late_step(ejection_log)
    with pytest.raises(ArithmeticError) as expected:
        serial_evaluation(log, config)
    with pytest.raises((ValueError, ArithmeticError)) as caught:
        run_sweep([log], SweepSpec(base=config, variations=()))
    assert type(caught.value) is type(expected.value)
    assert str(caught.value) == str(expected.value)


def test_raising_probability_threshold_never_speeds_detection(ejection_log):
    delays = []
    for thr in (0.8, 0.9, 0.99):
        config = config_with(default_config(), "probability_threshold", thr)
        result = evaluate_log(ejection_log, config)
        delays.append(math.inf if result.detection_delay is None else result.detection_delay)
    assert delays[0] <= delays[1] <= delays[2]


def brute_force_quantile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


@pytest.mark.parametrize("n", [1, 2, 3, 10, 26])
def test_box_stats_match_brute_force_exactly(n):
    rng = np.random.default_rng(40 + n)
    values = list(rng.uniform(0.02, 0.2, n))
    stats = box_stats(values)
    assert stats.n == n
    assert stats.minimum == min(values)
    assert stats.maximum == max(values)
    for attr, q in (("q1", 0.25), ("median", 0.5), ("q3", 0.75), ("p025", 0.025), ("p975", 0.975)):
        assert getattr(stats, attr) == brute_force_quantile(values, q)
    iqr = stats.q3 - stats.q1
    expected_outliers = tuple(
        v for v in sorted(values) if v < stats.q1 - 1.5 * iqr or v > stats.q3 + 1.5 * iqr
    )
    assert stats.outliers == expected_outliers


def test_box_stats_flags_known_outlier():
    stats = box_stats([0.1, 0.11, 0.12, 0.13, 0.9])
    assert stats.outliers == (0.9,)


def test_results_csv_round_trip(tmp_path, ejection_log):
    spec = SweepSpec(base=default_config(), variations=(("k_threshold", (0.15,)),))
    rows = run_sweep([ejection_log], spec)
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    assert read_results_csv(path) == rows


def test_read_results_csv_skips_a_byte_order_mark(tmp_path):
    # A spreadsheet saves CSV with a UTF-8 byte-order mark before the header.
    rows = [SweepResultRow("set_00_base", "a", 0.125, 0, False), SweepResultRow("set_00_base", "b", None, 1, True)]
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert read_results_csv(path) == rows


def test_summary_csv_schema(tmp_path, ejection_log):
    spec = SweepSpec(base=default_config(), variations=())
    rows = run_sweep([ejection_log], spec)
    summaries = summarize_sweep(rows, spec)
    path = tmp_path / "summary.csv"
    write_summary_csv(summaries, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("param_set_id,parameter,value,n_logs,n_detected")
    assert len(summaries) == 1
    assert summaries[0].delays is not None
    assert summaries[0].delays.n == 1


def test_render_report_mentions_parameters_and_interval(ejection_log):
    spec = SweepSpec(
        base=default_config(),
        variations=(("k_threshold", (0.15,)),),
    )
    rows = run_sweep([ejection_log], spec)
    text = render_report(rows, spec)
    assert "k_threshold" in text
    assert "base" in text
    assert "95% interval" in text
