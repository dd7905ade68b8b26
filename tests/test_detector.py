import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import loedetect
from loedetect import decision, effectiveness, filters, kalman
from loedetect import detector as detector_module
from loedetect.decision import DecisionConfig, DetectionStatus, decide, failure_probabilities
from loedetect.detector import (
    CONFIG_KEYS,
    DEFAULT_HOVER_THRUST_REFERENCE,
    MIN_SENSOR_INTERVAL_S,
    Conditioner,
    Detector,
    DetectorConfig,
    config_from_dict,
    config_to_dict,
    config_with,
    default_config,
    format_config,
    parse_config,
    read_config,
    signed_gains,
    write_config,
)
from loedetect.filters import FilterDesign, FilterState, RawSample, design_lowpass
from loedetect.effectiveness import VehicleParams, observation_rows

from budget import budget_stream, step_runtime_budget
from oracles import (
    OracleConditioner,
    OracleDetector,
    narrow_bank_step,
    oracle_arming_index,
    sample_values,
    state_arrays,
)


def hover_sample(i, dt=0.002, speed=700.357, az=-9.81):
    return RawSample(
        timestamp=(i + 1) * dt,
        angular_rate=np.zeros(3),
        proper_accel_z=az,
        rotor_speeds=np.full(4, speed),
    )


def idle_sample(i, dt=0.002, speed=200.0):
    return RawSample(
        timestamp=(i + 1) * dt,
        angular_rate=np.zeros(3),
        proper_accel_z=-9.81,
        rotor_speeds=np.full(4, speed),
    )


def test_create_starts_disarmed_at_nominal_estimate():
    det = Detector(default_config())
    assert det.armed is False
    assert np.array_equal(state_arrays(det.estimator_state)[0], np.ones(4))
    out = det.process_sample(hover_sample(0))
    assert np.array_equal(out.k_hat, np.ones(4))


def test_initial_failure_probability_comes_from_init_state():
    det = Detector(default_config())
    out = det.process_sample(idle_sample(0))
    # k=1, variance=1, threshold 0.25: Phi(-0.75)
    expected = 0.5 * (1.0 + math.erf(-0.75 / math.sqrt(2.0)))
    assert out.p_fail[0] == pytest.approx(expected, rel=1e-12)


def test_non_integer_rate_ratio_rejected():
    with pytest.raises(ValueError, match="integer multiple"):
        DetectorConfig(estimator_interval=0.003, sensor_interval=0.002)


@pytest.mark.parametrize("estimator_interval", [1e20, 1e308])
def test_rate_ratio_past_2_53_rejected(estimator_interval):
    # Past 2**53 every float ratio is an integer: 1e20 was once taken as a
    # multiple, and 1e308's infinite ratio raised OverflowError.
    with pytest.raises(ValueError, match=r"^estimator_interval \(.* s\) is more than 2\*\*53 sensor_intervals"):
        DetectorConfig(estimator_interval=estimator_interval)


def test_one_millisecond_config_filters_at_one_millisecond():
    # The sensor interval alone sets the filter's sample period.
    config = DetectorConfig(sensor_interval=0.001)
    conditioner = Conditioner(config)
    reference = FilterState(design_lowpass(FilterDesign(), 0.001))
    at_2ms = FilterState(design_lowpass(FilterDesign(), 0.002))
    ticks = differs = 0
    for i in range(400):
        speed = 700.357 if i < 100 else 760.0  # a step once the filter has settled
        want = narrow_bank_step(reference, [speed])[0]
        differs += want != narrow_bank_step(at_2ms, [speed])[0]
        tick = conditioner.push(*sample_values(hover_sample(i, dt=0.001, speed=speed)))
        if tick is not None:
            ticks += 1
            assert tick[4:] == (want * want,) * 4
    assert ticks == 400 // config.steps_per_estimate() == 20
    assert differs > 0


def test_filter_above_nyquist_fails_when_the_config_is_built():
    with pytest.raises(ValueError, match="Nyquist"):
        DetectorConfig(lowpass=FilterDesign(natural_frequency=2000.0))
    with pytest.raises(ValueError, match="Nyquist"):
        config_with(default_config(), "filter_natural_frequency", 1600.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["filter_natural_frequency", "filter_damping_ratio"])
def test_low_pass_keys_reject_non_finite_values_by_key(key, value):
    # inf passes a bare positivity check and would be reported as above Nyquist.
    with pytest.raises(ValueError, match=f"^{key} must be finite"):
        config_with(default_config(), key, value)


def test_config_validation_messages_name_the_invariant():
    with pytest.raises(ValueError, match="takeoff_thrust_fraction"):
        DetectorConfig(takeoff_thrust_fraction=0.0)
    with pytest.raises(ValueError, match="hover_thrust_reference"):
        DetectorConfig(hover_thrust_reference=-1.0)


def test_config_rejects_a_sensor_interval_below_the_floor():
    # The takeoff gate holds round(1 / sensor_interval) floats, so the floor
    # bounds its size; only the config is built here, never a detector.
    with pytest.raises(ValueError, match=r"sensor_interval must be at least 1e-05 s, got 1e-06"):
        DetectorConfig(sensor_interval=1e-6)
    assert DetectorConfig(sensor_interval=MIN_SENSOR_INTERVAL_S).steps_per_estimate() == 2000


def test_config_file_round_trip(tmp_path):
    config = DetectorConfig(
        decision=DecisionConfig(k_threshold=0.3, probability_threshold=0.95),
        estimator_interval=0.01,
    )
    path = tmp_path / "detector.cfg"
    write_config(config, path)
    assert read_config(path) == config


def test_read_config_skips_a_byte_order_mark(tmp_path):
    config = DetectorConfig(estimator_interval=0.01)
    path = tmp_path / "detector.cfg"
    path.write_text("\ufeff" + format_config(config), encoding="utf-8")
    assert read_config(path) == config


def test_config_dict_round_trip_default():
    config = default_config()
    assert config_from_dict(config_to_dict(config)) == config
    assert set(config_to_dict(config)) == set(CONFIG_KEYS)


def test_parse_config_rejects_unknown_and_duplicate_keys():
    good = format_config(default_config())
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(good + "bogus = 1.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(good + "g_p = 1e-4\n")
    with pytest.raises(ValueError, match="missing"):
        parse_config("g_p = 1e-4\n")


def test_config_with_rejects_unknown_parameter():
    with pytest.raises(KeyError, match="bogus"):
        config_with(default_config(), "bogus", 1.0)


def _config_fields(config):
    """``(dotted name, value)`` of every leaf field of a ``DetectorConfig``."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            yield from ((f"{field.name}.{name}", v) for name, v in _config_fields(value))
        else:
            yield field.name, value


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_each_flat_key_sets_the_one_field_it_names(key):
    # Checks the schema table against the dataclass fields: a swapped row
    # (g_p and g_q share a default) would still round-trip through dicts.
    base = default_config()
    value = 0.95 if key == "probability_threshold" else 0.5 * config_to_dict(base)[key]
    varied = config_with(base, key, value)
    changed = [
        (name, new) for (name, old), (_, new) in zip(_config_fields(base), _config_fields(varied)) if old != new
    ]
    assert len(changed) == 1
    name, new = changed[0]
    assert name.rpartition(".")[2] == key.removeprefix("filter_") and new == value


def test_config_with_replaces_nested_value():
    varied = config_with(default_config(), "process_noise_q", 0.2)
    assert varied.noise.process_noise_q == 0.2
    assert varied.gains == default_config().gains


def test_zero_rotor_speed_stream_never_arms():
    det = Detector(default_config())
    for i in range(2000):
        out = det.process_sample(
            RawSample((i + 1) * 0.002, np.zeros(3), -9.81, np.zeros(4))
        )
    assert out.armed is False
    assert np.array_equal(out.k_hat, np.ones(4))
    assert not out.status.any_failed()


def test_hover_stream_arms_quickly():
    det = Detector(default_config())
    out = det.process_sample(hover_sample(0))
    assert out.armed is True


def test_non_monotone_timestamp_rejected():
    det = Detector(default_config())
    det.process_sample(hover_sample(1))
    with pytest.raises(ValueError, match="non-monotone"):
        det.process_sample(hover_sample(0))


def test_nan_sample_rejected():
    det = Detector(default_config())
    bad = hover_sample(0)
    bad.proper_accel_z = float("nan")
    with pytest.raises(ValueError, match="NaN"):
        det.process_sample(bad)
    det2 = Detector(default_config())
    bad2 = hover_sample(0)
    bad2.rotor_speeds = np.array([700.0, np.nan, 700.0, 700.0])
    with pytest.raises(ValueError, match="NaN"):
        det2.process_sample(bad2)


@pytest.mark.parametrize("field", ["timestamp", "angular_rate", "proper_accel_z", "rotor_speeds"])
def test_inf_sample_rejected_with_timestamp(field):
    det = Detector(default_config())
    det.process_sample(hover_sample(0))
    bad = hover_sample(1)
    if field in ("angular_rate", "rotor_speeds"):
        values = getattr(bad, field).copy()
        values[1] = -np.inf
        setattr(bad, field, values)
    else:
        setattr(bad, field, np.inf)
    with pytest.raises(ValueError, match=r"Inf in sample at t=(0\.004|inf)"):
        det.process_sample(bad)


@pytest.mark.parametrize(
    ("field", "value", "expected"),
    [
        ("angular_rate", [0.0, 0.0, 0.0], "a numpy array of 3 real numbers"),
        ("angular_rate", np.zeros((3, 1)), "a numpy array of 3 real numbers"),
        ("angular_rate", np.zeros(4), "a numpy array of 3 real numbers"),
        ("rotor_speeds", [700.0] * 4, "a numpy array of 4 real numbers"),
        ("rotor_speeds", np.full(3, 700.0), "a numpy array of 4 real numbers"),
        ("rotor_speeds", np.full((4, 1), 700.0), "a numpy array of 4 real numbers"),
        ("rotor_speeds", np.array(["700"] * 4), "a numpy array of 4 real numbers"),
        # float() would parse the strings; the scalar fields take real numbers only.
        ("timestamp", "0.004", "a real number"),
        ("timestamp", None, "a real number"),
        ("timestamp", np.array([0.004, 0.006]), "a real number"),
        ("proper_accel_z", "-9.81", "a real number"),
        ("proper_accel_z", "x", "a real number"),
        ("proper_accel_z", None, "a real number"),
        ("proper_accel_z", np.array([-9.81, -9.81]), "a real number"),
    ],
)
@pytest.mark.parametrize("index", [0, 1], ids=["first", "later"])
def test_malformed_sample_field_rejected_naming_the_field_and_timestamp(field, value, expected, index):
    det = Detector(default_config())
    for i in range(index):
        det.process_sample(hover_sample(i))
    bad = hover_sample(index)
    setattr(bad, field, value)
    if field == "timestamp":
        where = "the first sample" if index == 0 else r"the sample after t=0\.002"
    else:
        where = rf"sample at t={bad.timestamp}"
    message = rf"^malformed {field} in {where}: expected {expected}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        det.process_sample(bad)
    det.process_sample(hover_sample(index))  # the rejected sample changed no state


def test_scalar_fields_take_any_real_number_as_a_float():
    # numpy scalars, ints and bools read as Python floats, as float() reads them.
    det, reference = Detector(default_config()), Detector(default_config())
    for i, az in enumerate((np.float64(-9.81), np.float32(-9.5), -9, True)):
        raw = hover_sample(i, az=az)
        out = det.process_sample(raw)
        assert repr(out) == repr(reference.process_sample(hover_sample(i, az=float(az))))
    raw = hover_sample(4)
    raw.timestamp = 5 * np.float64(0.002)
    assert det.process_sample(raw).timestamp == raw.timestamp


@pytest.mark.parametrize("speed", [1.5e5, 1e160, -1e160])
def test_rotor_speed_above_ceiling_rejected_with_timestamp(speed):
    det = Detector(default_config())
    at_ceiling = hover_sample(0)
    at_ceiling.rotor_speeds = np.array([700.0, 1e5, 700.0, 700.0])
    det.process_sample(at_ceiling)
    bad = hover_sample(1)
    bad.rotor_speeds = np.array([700.0, 700.0, speed, 700.0])
    with pytest.raises(ValueError, match=r"rotor speed above 100000 rad/s in sample at t=0\.004"):
        det.process_sample(bad)


def test_identical_streams_give_bit_identical_outputs():
    config = default_config()
    stream = list(budget_stream(config, 3000, 1500))
    det_a, det_b = Detector(config), Detector(config)
    out_a = [det_a.process_sample(s) for s in stream]
    out_b = [det_b.process_sample(s) for s in stream]
    for a, b in zip(out_a, out_b):
        assert a.timestamp == b.timestamp
        assert np.array_equal(a.k_hat, b.k_hat)
        assert np.array_equal(a.variances, b.variances)
        assert np.array_equal(a.p_fail, b.p_fail)
        assert a.status == b.status
        assert a.armed == b.armed


def test_every_sample_yields_one_output_and_fields_repeat_between_ticks():
    config = default_config()
    det = Detector(config)
    n = 100
    outs = [det.process_sample(hover_sample(i)) for i in range(n)]
    assert len(outs) == n
    steps = config.steps_per_estimate()
    # between estimator ticks (sample numbers that are multiples of `steps`)
    # the estimator-derived snapshots are the same objects
    for i in range(n - 1):
        if (i + 2) % steps != 0:
            assert outs[i + 1].k_hat is outs[i].k_hat
            assert outs[i + 1].p_fail is outs[i].p_fail


def test_gate_blocks_latching_while_disarmed():
    # rates ramp as if an actuator died, but rotors stay below the gate
    det = Detector(default_config())
    dt = 0.002
    for i in range(3000):
        t = (i + 1) * dt
        rate = 49.0 * t
        out = det.process_sample(
            RawSample(t, np.array([rate, rate, 0.0]), -2.0, np.full(4, 200.0))
        )
    assert out.armed is False
    assert not out.status.any_failed()


def test_budget_stream_latches_only_actuator_three():
    config = default_config()
    det = Detector(config)
    for raw in budget_stream(config, 6000, 2500):
        out = det.process_sample(raw)
    assert out.status.failed == (False, False, True, False)
    latch_time = out.status.first_detection_time[2]
    assert latch_time - 2500 * config.sensor_interval <= 0.15


def _analytic_sample(t, config, fault_time):
    """Sampling-rate-independent version of the synthetic failure stream."""
    w_hover = math.sqrt(config.hover_thrust_reference / 4.0)
    g = config.gains
    if t <= fault_time:
        speeds = np.full(4, w_hover)
        rates = np.zeros(3)
        az = -g.g_az * 4.0 * w_hover**2
    else:
        speeds = w_hover * np.array([0.35, 1.15, 1.75, 1.15])
        k_eff = np.square(speeds)
        k_eff[2] = 0.0
        az = -g.g_az * float(k_eff.sum())
        slope_p = g.g_p * float(np.array([1.0, -1.0, -1.0, 1.0]) @ k_eff)
        slope_q = g.g_q * float(np.array([1.0, 1.0, -1.0, -1.0]) @ k_eff)
        dt_fault = t - fault_time
        rates = np.array([slope_p * dt_fault, slope_q * dt_fault, 0.0])
    return RawSample(t, rates, az, speeds)


@pytest.mark.parametrize("sensor_interval", [0.002, 0.001])
def test_rate_decoupling_detection_within_one_tick(sensor_interval):
    fault_time = 1.0
    config = config_with(default_config(), "sensor_interval", sensor_interval)
    det = Detector(config)
    n = round(2.0 / sensor_interval)
    latch = None
    for i in range(n):
        t = (i + 1) * sensor_interval
        out = det.process_sample(_analytic_sample(t, config, fault_time))
        if latch is None and out.status.failed[2]:
            latch = t
    assert latch is not None
    # stash for comparison across the parametrized runs
    test_rate_decoupling_detection_within_one_tick.latches[sensor_interval] = latch
    latches = test_rate_decoupling_detection_within_one_tick.latches
    if len(latches) == 2:
        a, b = latches.values()
        assert abs(a - b) <= config.estimator_interval + 1e-9


test_rate_decoupling_detection_within_one_tick.latches = {}


def test_runtime_budget_smoke():
    report = step_runtime_budget(default_config(), n_samples=4000)
    assert report.n_samples == 4000
    assert report.mean_us > 0.0
    assert report.p99_us >= report.mean_us
    assert report.latched is True
    assert "runtime over 4000 samples" in str(report)


def test_runtime_budget_rejects_tiny_sample_counts():
    with pytest.raises(ValueError):
        step_runtime_budget(default_config(), n_samples=10)


def test_hover_thrust_reference_matches_default_airframe():
    # Exact: 0.5 * 9.81 / 2.5e-6 is 1.962e6 in float64.
    assert DEFAULT_HOVER_THRUST_REFERENCE == VehicleParams().hover_thrust_reference() == 1.962e6


def test_default_config_text_is_pinned():
    # The defaults derive from the airframe; the file format must not move.
    assert format_config(default_config()) == (
        "# loedetect detector configuration\n"
        "g_p = 0.0001\n"
        "g_q = 0.0001\n"
        "g_az = 5e-06\n"
        "filter_natural_frequency = 50.0\n"
        "filter_damping_ratio = 0.55\n"
        "process_noise_q = 0.1\n"
        "measurement_noise_r = 1.0\n"
        "k_threshold = 0.25\n"
        "probability_threshold = 0.9\n"
        "estimator_interval = 0.02\n"
        "sensor_interval = 0.002\n"
        "takeoff_thrust_fraction = 0.5\n"
        "hover_thrust_reference = 1962000.0\n"
    )


@pytest.mark.parametrize("index", [0, 1, 600])
def test_negative_rotor_speed_rejected_with_timestamp(index):
    det = Detector(default_config())
    for i in range(index):
        det.process_sample(hover_sample(i))
    bad = hover_sample(index)
    bad.rotor_speeds = np.array([700.0, 700.0, -0.5, 700.0])
    t = (index + 1) * 0.002
    with pytest.raises(ValueError, match=rf"negative rotor speed in sample at t={t}$"):
        det.process_sample(bad)


def test_negative_hover_stream_rejected_before_arming():
    # every rotor at -700.357 rad/s: the squares alone would arm the gate
    det = Detector(default_config())
    with pytest.raises(ValueError, match=r"negative rotor speed in sample at t=0\.002"):
        det.process_sample(hover_sample(0, speed=-700.357))
    assert det.armed is False


@pytest.mark.parametrize(
    ("shift", "step"),
    [(0.2, "0.202"), (-0.0012, "0.0008")],
    ids=["0.2 s gap", "0.4x step"],
)
def test_stream_rejects_dropped_or_inserted_samples(shift, step):
    det = Detector(default_config())
    for i in range(600):
        det.process_sample(hover_sample(i))
    bad = hover_sample(600)
    bad.timestamp += shift
    message = rf"^timestamp step {step} s at t={bad.timestamp} is outside \(0\.5, 1\.5\) x sensor_interval 0\.002 s$"
    with pytest.raises(ValueError, match=message):
        det.process_sample(bad)


def test_stream_accepts_steps_within_tolerance():
    det = Detector(default_config())
    for i in range(40):
        raw = hover_sample(i)
        raw.timestamp += 0.0009 * (i >= 10) - 0.0009 * (i >= 30)  # one 1.45x, one 0.55x step
        det.process_sample(raw)


# A sample with two faults reports the first in check order: timestamp order,
# then the value chain (NaN or Inf, ceiling, negative), then the step size.


@pytest.mark.parametrize(
    "gyro", [np.array([0.0, np.nan, 0.0]), [0.0, 0.0, 0.0], np.zeros((3, 1))], ids=["nan", "list", "3x1"]
)
def test_non_monotone_outranks_a_bad_gyro(gyro):
    det = Detector(default_config())
    det.process_sample(hover_sample(1))
    bad = hover_sample(0)
    bad.angular_rate = gyro
    with pytest.raises(ValueError, match=r"^non-monotone timestamp: 0\.002 after 0\.004$"):
        det.process_sample(bad)


def test_nan_outranks_an_off_tolerance_step():
    det = Detector(default_config())
    for i in range(20):
        det.process_sample(hover_sample(i))
    bad = hover_sample(20)
    bad.timestamp += 0.2
    bad.proper_accel_z = np.nan
    with pytest.raises(ValueError, match=r"^NaN or Inf in sample at t="):
        det.process_sample(bad)


def test_rotor_ceiling_outranks_an_off_tolerance_step():
    det = Detector(default_config())
    for i in range(20):
        det.process_sample(hover_sample(i))
    bad = hover_sample(20)
    bad.timestamp -= 0.0012
    bad.rotor_speeds = np.array([700.0, 2e5, 700.0, 700.0])
    with pytest.raises(ValueError, match=r"^rotor speed above 100000 rad/s in sample at t="):
        det.process_sample(bad)


def _faulty_copy(raw, fault):
    """``raw`` with one fault that ``push`` rejects; ``raw`` itself is untouched."""
    bad = RawSample(raw.timestamp, raw.angular_rate.copy(), raw.proper_accel_z, raw.rotor_speeds.copy())
    if fault == "non-monotone":
        bad.timestamp -= 0.003
    elif fault == "off-step":
        bad.timestamp -= 0.0012
    elif fault == "nan":
        bad.angular_rate[2] = np.nan
    elif fault == "ceiling":
        bad.rotor_speeds[0] = 2e5
    else:
        bad.rotor_speeds[3] = -1.0
    return bad


@pytest.mark.parametrize("steps", [10, 3])
def test_rejected_sample_advances_nothing(steps):
    # Bad samples before a tick while disarmed (they would move the gate and
    # the countdown), on the sample that arms the gate and inside the armed
    # stretch: the outputs match the clean stream's, bit for bit.
    config = config_with(default_config(), "estimator_interval", steps * 0.002)
    assert config.steps_per_estimate() == steps
    clean = list(_random_stream(config, 3000, 23))
    clean_det = Detector(config)
    reference = [clean_det.process_sample(raw) for raw in clean]
    arming = next(i for i, out in enumerate(reference) if out.armed)
    assert 0 < arming < 2000
    inserts = {
        steps - 1: "off-step",
        arming - 1: "nan",
        arming: "ceiling",
        arming + 1: "negative",
        2000: "non-monotone",
        2999: "off-step",
    }
    det = Detector(config)
    got = []
    for i, raw in enumerate(clean):
        if i in inserts:
            with pytest.raises(ValueError):
                det.process_sample(_faulty_copy(raw, inserts[i]))
        got.append(repr(det.process_sample(raw)))
    # repr spells every float exactly, so equal reprs are equal bits.
    assert got == [repr(out) for out in reference]


def test_hour_of_hover_keeps_the_estimator_healthy():
    # 180,000 estimator ticks (one hour at 50 Hz) of the budget stream's
    # hover tick, then its loss of actuator 3, against a 500-tick hover.
    config = default_config()
    fault_time = 2500 * config.sensor_interval
    conditioner = Conditioner(config)
    ticks = [
        tick
        for raw in budget_stream(config, 6000, 2500)
        if (tick := conditioner.push(*sample_values(raw))) is not None
    ]
    hover = [tick for tick in ticks if tick[0] <= fault_time][-1]
    loss = [tick for tick in ticks if tick[0] > fault_time]
    gains = signed_gains(config.gains)

    def run(state, status, ticks):
        """Feed tick rows; return the new state, status and the index of the tick that latched."""
        latched_at = None
        for n, tick in enumerate(ticks):
            state = kalman.step(state, observation_rows(gains, tick[4:]), tick[1:4], config.noise)
            p_fail = failure_probabilities(state.k, state.variances(), config.decision.k_threshold)
            status = decide(p_fail, status, config.decision, 0.0)
            if latched_at is None and status.any_failed():
                latched_at = n
        return state, status, latched_at

    hour = 180_000
    state, status, _ = run(kalman.init(), DetectionStatus(), [hover] * hour)
    P = state_arrays(state)[1]
    assert np.isfinite(P).all() and np.array_equal(P, P.T)
    assert np.linalg.eigvalsh(P).min() > 0.0
    # along the unobservable (1, -1, 1, -1) direction each diagonal entry grows by q/4 per tick
    assert P.diagonal().max() == pytest.approx(hour * config.noise.process_noise_q / 4, rel=1e-3)
    assert not status.any_failed()
    after_hour = run(state, status, loss)
    state, status, _ = run(kalman.init(), DetectionStatus(), [hover] * 500)
    after_500 = run(state, status, loss)
    for state, status, _ in (after_hour, after_500):
        assert status.failed == (False, False, True, False)
        P = state_arrays(state)[1]
        assert np.isfinite(P).all() and np.linalg.eigvalsh(P).min() > 0.0
    assert after_hour[2] == after_500[2] is not None


def test_zero_rotor_speed_is_accepted():
    det = Detector(default_config())
    raw = hover_sample(0)
    raw.rotor_speeds = np.array([0.0, -0.0, 700.0, 700.0])
    det.process_sample(raw)


# ---------------------------------------------------------------------------
# The conditioning stage, the observation matrix and the estimator update run on
# Python floats; the array-form pipeline in ``oracles`` must come out bit for
# bit the same, output by output.


def _random_stream(config, n, seed):
    """Idle (disarmed), then a noisy hover with rotor-speed jumps."""
    rng = np.random.default_rng(seed)
    dt = config.sensor_interval
    w_hover = math.sqrt(config.hover_thrust_reference / 4.0)
    for i in range(n):
        level = 0.3 if i < n // 5 else rng.choice([0.8, 1.0, 1.3])
        yield RawSample(
            timestamp=(i + 1) * dt,
            angular_rate=rng.normal(0.0, 0.5, 3),
            proper_accel_z=float(rng.normal(-9.81, 0.5)),
            rotor_speeds=w_hover * level * rng.uniform(0.9, 1.1, 4),
        )


def _assert_conditioner_matches_oracle(config, samples):
    mine, oracle = Conditioner(config), OracleConditioner(config)
    ticks = 0
    for raw in samples:
        got, want = mine.push(*sample_values(raw)), oracle.push(raw)
        assert mine.armed == oracle.armed
        assert (got is None) == (want is None)
        if got is not None:
            ticks += 1
            assert np.array_equal(got[1:4], want[0])
            assert np.array_equal(got[4:], want[1])
    assert ticks > 0


def _assert_detector_matches_oracle(config, samples):
    mine, oracle = Detector(config), OracleDetector(config)
    for raw in samples:
        out = mine.process_sample(raw)
        t, k_hat, variances, p_fail, status, armed = oracle.process_sample(raw)
        assert out.timestamp == t
        assert np.array_equal(out.k_hat, k_hat)
        assert np.array_equal(out.variances, variances)
        assert np.array_equal(out.p_fail, p_fail)
        assert out.status == status
        assert out.armed == armed
    return out


OTHER_CONFIG = config_from_dict(
    {
        **config_to_dict(default_config()),
        "filter_natural_frequency": 80.0,
        "filter_damping_ratio": 0.7,
        "estimator_interval": 0.01,
        "process_noise_q": 0.05,
    }
)


# Every estimator tick (steps 1) and an odd period (steps 3), beside steps 10 and 5.
ORACLE_CONFIGS = [
    default_config(),
    OTHER_CONFIG,
    config_with(default_config(), "estimator_interval", 0.002),
    config_with(OTHER_CONFIG, "estimator_interval", 0.006),
]
ORACLE_CONFIG_IDS = ["default", "other", "steps1", "steps3"]


@pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=ORACLE_CONFIG_IDS)
def test_conditioner_equals_array_oracle(config, ejection_log):
    _assert_conditioner_matches_oracle(config, _random_stream(config, 5000, 21))
    _assert_conditioner_matches_oracle(config, list(ejection_log.samples()))


@pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=ORACLE_CONFIG_IDS)
def test_detector_equals_array_oracle_on_budget_stream(config):
    out = _assert_detector_matches_oracle(config, budget_stream(config, 6000, 2500))
    assert out.status.failed == (False, False, True, False)


def test_detector_equals_array_oracle_on_noisy_fault_log(ejection_log):
    config = default_config()
    out = _assert_detector_matches_oracle(config, ejection_log.samples())
    assert out.status.failed[ejection_log.fault_actuator - 1]
    _assert_detector_matches_oracle(config, _random_stream(config, 5000, 22))


# ---------------------------------------------------------------------------
# ``process_sample`` reads a ``RawSample`` into the nine floats
# ``Conditioner.push`` takes. The takeoff gate sums the four squared speeds on
# floats, where ``oracles.OracleGate`` takes a numpy dot that can round
# differently, so the arming sample is checked log by log.


def _arming_index(log, config):
    conditioner = Conditioner(config)
    for i, row in enumerate(log.rows()):
        conditioner.push(*row)
        if conditioner.armed:
            return i
    return None


def test_float_gate_arms_at_the_dot_oracle_sample(ejection_corpus, ground_idle_logs, takeoff_logs):
    config = default_config()
    for logs, arming in (
        (ejection_corpus[0], {0}),  # hover from the first sample
        (ground_idle_logs, {None}),
        (takeoff_logs, {1554, 1556}),  # the ramp crosses the gate level mid-log
    ):
        got = [_arming_index(log, config) for log in logs]
        assert got == [oracle_arming_index(log, config) for log in logs]
        assert set(got) == arming


@pytest.mark.parametrize("index", [50, 600], ids=["disarmed", "armed"])
@pytest.mark.parametrize(
    ("fault", "message"),
    [
        ("non-monotone", r"non-monotone timestamp: "),
        ("nan", r"NaN or Inf in sample at t="),
        ("ceiling", r"rotor speed above 100000 rad/s in sample at t="),
        ("negative", r"negative rotor speed in sample at t="),
        ("off-step", r"timestamp step 0\.0008 s at t="),
    ],
)
def test_stream_rejects_a_bad_sample_with_push_message(fault, message, index):
    config = default_config()
    clean = list(_random_stream(config, 700, 24))  # arms at sample 140
    by_sample, untouched = Detector(config), Detector(config)
    for raw in clean[:index]:
        by_sample.process_sample(raw)
        untouched.process_sample(raw)
    assert by_sample.armed == (index == 600)
    bad = _faulty_copy(clean[index], fault)
    with pytest.raises(ValueError, match=f"^{message}"):
        by_sample.process_sample(bad)
    # The stream kept nothing of the rejected sample.
    assert repr(by_sample.process_sample(clean[index])) == repr(untouched.process_sample(clean[index]))


class _NoNumpy:
    """Stands in for the ``np`` module global; any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} called on the per-sample path")


def test_per_sample_path_makes_no_numpy_call(monkeypatch):
    # Twelve idle samples (a disarmed tick at the tenth), then hover: the gate
    # arms at the 23rd sample and the 30th is an armed estimator tick.
    config = default_config()
    samples = [idle_sample(i) for i in range(12)] + [hover_sample(i) for i in range(12, 32)]
    by_sample = Detector(config)
    for module in (detector_module, filters, kalman, decision, effectiveness):
        monkeypatch.setattr(module, "np", _NoNumpy(), raising=False)
    streamed = [by_sample.process_sample(raw) for raw in samples]
    monkeypatch.undo()
    assert [out.armed for out in streamed].index(True) == 22
    assert streamed[29].k_hat is not streamed[28].k_hat  # the armed tick ran the estimator


def test_published_snapshots_are_read_only():
    det = Detector(default_config())
    for i in range(40):
        out = det.process_sample(hover_sample(i))
    for published in (out.k_hat, out.variances, out.p_fail):
        with pytest.raises(TypeError):
            published[0] = 0.5
    x, P = state_arrays(det.estimator_state)
    x[0] = 0.5  # fresh arrays: writable, and the detector's own state is untouched
    P[0, 0] = 0.5
    assert out.k_hat[0] != 0.5
    assert det.estimator_state.k[0] != 0.5 and det.estimator_state.p_upper[0] != 0.5


ONBOARD_MODULES = ("filters", "effectiveness", "kalman", "decision", "detector")
OFFLINE_MODULES = {"simulator", "flightlog", "replay", "cli"}


def _package_modules_imported(source: str) -> set[str]:
    """Names of the ``loedetect`` modules a source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["loedetect" if node.level else "", node.module]))
            # "from . import x" and "from loedetect import x" name the modules in the list.
            modules = [f"{module}.{alias.name}" for alias in node.names] if module == "loedetect" else [module]
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("loedetect."))
    return found


def test_package_import_scan_sees_every_import_form():
    source = (
        "from . import simulator\nfrom .flightlog import load_log\n"
        "import loedetect.replay\nfrom loedetect import cli\nfrom loedetect.kalman import step\n"
    )
    assert _package_modules_imported(source) == {"simulator", "flightlog", "replay", "cli", "kalman"}


@pytest.mark.parametrize("module", ONBOARD_MODULES)
def test_onboard_module_imports_no_offline_module(module):
    # The package __init__ imports everything, so check the sources, not sys.modules.
    source = Path(loedetect.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    assert not _package_modules_imported(source) & OFFLINE_MODULES
