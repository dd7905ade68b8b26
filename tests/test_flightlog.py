import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from loedetect.detector import default_config
from loedetect.flightlog import (
    COLUMNS,
    SAMPLE_BLOCK_ROWS,
    FlightLog,
    LogFormatError,
    _load_bulk,
    _load_by_line,
    load_log,
    save_log,
)
from loedetect.replay import SweepSpec, run_detector, run_sweep


def synthetic_log(n=50, rate=500.0, fault=None):
    rng = np.random.default_rng(30)
    t = (np.arange(n) + 1) / rate
    log = FlightLog(
        sample_rate_hz=rate,
        t=t,
        gyro=rng.normal(0.0, 0.1, (n, 3)),
        accel_z=rng.normal(-9.81, 0.2, n),
        rotor_speeds=rng.uniform(300.0, 1200.0, (n, 4)),
        fault_actuator=fault[0] if fault else None,
        fault_time_s=fault[1] if fault else None,
    )
    return log


def test_round_trip_is_lossless(tmp_path):
    log = synthetic_log(fault=(3, 0.05))
    path = tmp_path / "flight.csv"
    save_log(log, path)
    loaded = load_log(path)
    assert np.array_equal(loaded.t, log.t)
    assert np.array_equal(loaded.gyro, log.gyro)
    assert np.array_equal(loaded.accel_z, log.accel_z)
    assert np.array_equal(loaded.rotor_speeds, log.rotor_speeds)
    assert loaded.ground_truth() == (3, 0.05)
    assert loaded.sample_rate_hz == log.sample_rate_hz


def test_round_trip_keeps_numpy_scalar_headers(tmp_path):
    base = synthetic_log()
    log = FlightLog(
        np.float64(500.0), base.t, base.gyro, base.accel_z, base.rotor_speeds,
        fault_actuator=np.int64(3), fault_time_s=np.float64(0.05),
    )
    save_log(log, tmp_path / "flight.csv")
    loaded = load_log(tmp_path / "flight.csv")
    _assert_same_log(loaded, log)
    assert type(loaded.sample_rate_hz) is float and type(loaded.fault_time_s) is float


@pytest.mark.parametrize("vehicle", ["quad v2", "quad=v2", "", "quad\u2028v2", "quad\tv2"])
def test_round_trip_keeps_the_vehicle(tmp_path, vehicle):
    log = replace(synthetic_log(), vehicle=vehicle)
    save_log(log, tmp_path / "flight.csv")
    assert load_log(tmp_path / "flight.csv").vehicle == vehicle


@pytest.mark.parametrize("vehicle", ["quad\nv2", "quad\rv2", " quad", "quad ", "quad\t", 7, None])
def test_validate_rejects_a_vehicle_that_would_not_read_back(vehicle):
    log = synthetic_log()
    with pytest.raises(LogFormatError, match="^vehicle must be a string") as caught:
        FlightLog(500.0, log.t, log.gyro, log.accel_z, log.rotor_speeds, vehicle=vehicle)
    assert caught.value.sample is None


def test_load_log_peak_memory_under_twice_the_file_size(tmp_path):
    # One pass: no whole-file text, line list or per-row tuples held at once.
    path = tmp_path / "long.csv"
    save_log(synthetic_log(n=4000), path)
    tracemalloc.start()
    try:
        log = load_log(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) == 4000
    assert peak < 2 * path.stat().st_size


def test_save_log_peak_memory_under_the_file_size(tmp_path):
    # One block of rows at a time: no whole-file text, which alone is the file's size.
    log = synthetic_log(n=10_000, fault=(2, 0.05))
    path = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        save_log(log, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
    assert load_log(path).ground_truth() == (2, 0.05) and len(load_log(path)) == 10_000


def test_samples_iterator_matches_arrays():
    log = synthetic_log(n=5)
    for i, raw in enumerate(log.samples()):
        assert raw.timestamp == log.t[i]
        assert np.array_equal(raw.angular_rate, log.gyro[i])
        assert raw.proper_accel_z == log.accel_z[i]
        assert np.array_equal(raw.rotor_speeds, log.rotor_speeds[i])


def test_samples_yield_every_row_with_python_float_scalars():
    log = synthetic_log(n=2 * SAMPLE_BLOCK_ROWS + 300)  # two full blocks and a part
    samples = list(log.samples())
    assert len(samples) == len(log)
    for i, raw in enumerate(samples):
        assert type(raw.timestamp) is float and raw.timestamp == log.t[i]
        assert type(raw.proper_accel_z) is float and raw.proper_accel_z == log.accel_z[i]
        assert isinstance(raw.angular_rate, np.ndarray) and np.array_equal(raw.angular_rate, log.gyro[i])
        assert isinstance(raw.rotor_speeds, np.ndarray) and np.array_equal(raw.rotor_speeds, log.rotor_speeds[i])


def test_rows_yield_every_row_as_nine_python_floats():
    log = synthetic_log(n=2 * SAMPLE_BLOCK_ROWS + 300)  # two full blocks and a part
    rows = list(log.rows())
    assert all(type(row) is list and len(row) == len(COLUMNS) for row in rows)
    assert all(type(value) is float for row in rows for value in row)
    assert np.array_equal(np.array(rows), np.column_stack((log.t, log.gyro, log.accel_z, log.rotor_speeds)))


def test_iterating_samples_holds_a_bounded_block_of_floats():
    # Python floats for the whole t and az columns of 40,000 rows take 2.56
    # MB, and one list of nine floats per row 14.1 MB.
    log = synthetic_log(n=40_000)
    for iterate in (log.samples, log.rows):
        tracemalloc.start()
        try:
            n = sum(1 for _ in iterate())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == len(log)
        assert peak < 1_000_000


def _write(path, text):
    path.write_text(text)
    return path


def test_rpm_units_converted_on_load(tmp_path):
    path = _write(
        tmp_path / "rpm.csv",
        "# sample_rate_hz=500.0\n"
        "# rpm_units=rpm\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,3000,3000,3000,3000\n"
        "0.004,0,0,0,-9.81,3000,3000,3000,3000\n",
    )
    log = load_log(path)
    assert log.rotor_speeds[0, 0] == pytest.approx(3000.0 * 2.0 * math.pi / 60.0, rel=1e-12)


def test_empty_file_is_an_error(tmp_path):
    with pytest.raises(LogFormatError, match="empty"):
        load_log(_write(tmp_path / "empty.csv", ""))


def test_header_only_file_is_an_error(tmp_path):
    path = _write(
        tmp_path / "no_rows.csv",
        "# sample_rate_hz=500.0\n" + ",".join(COLUMNS) + "\n",
    )
    with pytest.raises(LogFormatError, match="no data rows"):
        load_log(path)


def test_wrong_columns_rejected(tmp_path):
    path = _write(
        tmp_path / "cols.csv",
        "# sample_rate_hz=500.0\nt,p,q,r,az,w1,w2,w3\n0.002,0,0,0,0,1,2,3\n",
    )
    with pytest.raises(LogFormatError, match="expected columns"):
        load_log(path)


def test_non_monotone_time_reports_line(tmp_path):
    path = _write(
        tmp_path / "time.csv",
        "# sample_rate_hz=500.0\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n"
        "0.002,0,0,0,-9.81,500,500,500,500\n",
    )
    with pytest.raises(LogFormatError, match="line 4"):
        load_log(path)


def test_nan_field_reports_line(tmp_path):
    path = _write(
        tmp_path / "nan.csv",
        "# sample_rate_hz=500.0\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n"
        "0.004,0,nan,0,-9.81,500,500,500,500\n",
    )
    with pytest.raises(LogFormatError, match="line 4"):
        load_log(path)


def test_inf_field_reports_line(tmp_path):
    path = _write(
        tmp_path / "inf.csv",
        "# sample_rate_hz=500.0\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n"
        "0.004,0,0,0,-9.81,500,500,500,500\n"
        "0.006,0,-inf,0,-9.81,500,500,500,500\n",
    )
    with pytest.raises(LogFormatError, match="line 5: NaN or Inf"):
        load_log(path)


@pytest.mark.parametrize("column", ["t", "gyro", "accel_z", "rotor_speeds"])
def test_validate_rejects_non_finite_values(column):
    log = synthetic_log()
    values = getattr(log, column).copy()
    if column == "t":
        values[-1] = np.inf  # still strictly increasing
    else:
        values[7] = np.nan if column == "gyro" else np.inf
    with pytest.raises(LogFormatError, match="NaN or Inf"):
        replace(log, **{column: values})


@pytest.mark.parametrize(
    ("units", "fast", "ok"),
    [
        ("rad_s", "1e160", "1e5"),  # its square overflows; the ceiling itself loads
        ("rpm", "955000", "954900"),  # the ceiling applies after the RPM conversion
    ],
)
def test_rotor_speed_above_ceiling_reports_line(tmp_path, units, fast, ok):
    header = f"# sample_rate_hz=500.0\n# rpm_units={units}\n" + ",".join(COLUMNS) + "\n"
    good_row = f"0.002,0,0,0,-9.81,500,500,500,{ok}\n"
    path = _write(tmp_path / "fast.csv", header + good_row + f"0.004,0,0,0,-9.81,500,{fast},500,500\n")
    with pytest.raises(LogFormatError, match=r"line 5: rotor speed above 100000 rad/s"):
        load_log(path)
    assert len(load_log(_write(tmp_path / "ok.csv", header + good_row))) == 1


def test_validate_rejects_rotor_speed_above_ceiling():
    log = synthetic_log()
    speeds = log.rotor_speeds.copy()
    speeds[7, 2] = 1.5e5
    with pytest.raises(LogFormatError, match=r"rotor speed above 100000 rad/s at sample 7 \(t=0\.016\)"):
        replace(log, rotor_speeds=speeds)


def test_short_row_reports_line(tmp_path):
    path = _write(
        tmp_path / "short.csv",
        "# sample_rate_hz=500.0\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500\n",
    )
    with pytest.raises(LogFormatError, match="line 3"):
        load_log(path)


def test_sample_rate_must_match_timestamps(tmp_path):
    path = _write(
        tmp_path / "rate.csv",
        "# sample_rate_hz=100.0\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n"
        "0.004,0,0,0,-9.81,500,500,500,500\n"
        "0.006,0,0,0,-9.81,500,500,500,500\n",
    )
    with pytest.raises(LogFormatError, match="sample_rate_hz"):
        load_log(path)


def test_fault_header_requires_time(tmp_path):
    path = _write(
        tmp_path / "fault.csv",
        "# sample_rate_hz=500.0\n# fault_actuator=3\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n",
    )
    with pytest.raises(LogFormatError, match="fault_time_s"):
        load_log(path)


_KNOWN_KEYS = "(expected one of sample_rate_hz, rpm_units, vehicle, fault_actuator, fault_time_s)"


@pytest.mark.parametrize(
    ("header", "message"),
    [
        (
            "# fault_actuator=2\n# fault_time_s=0.004\n# fault_actuator=4\n",
            "line 4: duplicate header key 'fault_actuator'",
        ),
        ("# sample_rate_hz=250.0\n", "line 2: duplicate header key 'sample_rate_hz'"),
        ("# fault_actuatr=2\n# fault_time_s=0.004\n", f"line 2: unknown header key 'fault_actuatr' {_KNOWN_KEYS}"),
        ("# fault_actuator=2\n# fault_time=0.004\n", f"line 3: unknown header key 'fault_time' {_KNOWN_KEYS}"),
    ],
    ids=["repeated-actuator", "repeated-rate", "misspelled-actuator", "misspelled-time"],
)
def test_a_header_key_given_twice_or_unknown_names_its_line(tmp_path, header, message):
    # The last of two values, or a no-fault log read from a misspelled
    # annotation, would count a correct latch as a false alarm.
    path = _write(
        tmp_path / "header.csv",
        "# sample_rate_hz=500.0\n"
        + header
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n0.004,0,0,0,-9.81,500,500,500,500\n"
        + "0.006,0,0,0,-9.81,500,500,500,500\n",
    )
    with pytest.raises(LogFormatError) as caught:
        load_log(path)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    ("actuator", "time", "message"),
    [
        (7, 0.05, "^fault_actuator out of range: 7$"),
        (0, 0.05, "^fault_actuator out of range: 0$"),
        (3.0, 0.05, r"^fault_actuator must be an integer, got 3\.0$"),
        (2.5, 0.05, r"^fault_actuator must be an integer, got 2\.5$"),
        (True, 0.05, r"^fault_actuator must be an integer, got True$"),
        (3, None, "^fault_actuator given without fault_time_s$"),
        (None, 0.05, "^fault_time_s given without fault_actuator$"),
    ],
)
def test_validate_rejects_an_annotation_out_of_range_or_given_by_half(actuator, time, message):
    log = synthetic_log()
    with pytest.raises(LogFormatError, match=message) as caught:
        FlightLog(500.0, log.t, log.gyro, log.accel_z, log.rotor_speeds, fault_actuator=actuator, fault_time_s=time)
    assert caught.value.sample is None


@pytest.mark.parametrize("n", [1, 50])
@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -500.0])
def test_validate_rejects_a_rate_that_is_not_finite_and_positive(rate, n):
    log = synthetic_log(n=n)
    with pytest.raises(LogFormatError, match="^header sample_rate_hz=.* is not finite and positive$") as caught:
        FlightLog(rate, log.t, log.gyro, log.accel_z, log.rotor_speeds)
    assert caught.value.sample is None


def test_validate_rejects_a_non_finite_fault_time():
    log = synthetic_log(fault=(3, 0.05))
    for time in (math.nan, math.inf):
        with pytest.raises(LogFormatError, match="^header fault_time_s=.* is not finite$") as caught:
            replace(log, fault_time_s=time)
        assert caught.value.sample is None


@pytest.mark.parametrize("time", [0.0, 0.001, 0.1000001, 99.0])
def test_validate_rejects_a_fault_time_outside_the_log_span(time):
    # The log runs from t = 0.002 to 0.1 s.
    with pytest.raises(LogFormatError, match=r"^header fault_time_s=.* is outside the log span \[0\.002, 0\.1\]$") as caught:
        synthetic_log(fault=(3, time))
    assert caught.value.sample is None


def test_validate_accepts_a_fault_time_at_either_end_of_the_log():
    log = synthetic_log(fault=(3, 0.05))
    for time in (float(log.t[0]), float(log.t[-1])):
        assert replace(log, fault_time_s=time).ground_truth() == (3, time)


@pytest.mark.parametrize(("rate", "rows"), [("nan", 3), ("inf", 3), ("0", 3), ("-500.0", 1), ("nan", 1)])
def test_load_log_rejects_a_rate_that_is_not_finite_and_positive(tmp_path, rate, rows):
    path = _write(
        tmp_path / "rate.csv",
        f"# sample_rate_hz={rate}\n"
        + ",".join(COLUMNS)
        + "\n"
        + "".join(f"{(i + 1) * 0.002!r},0,0,0,-9.81,500,500,500,500\n" for i in range(rows)),
    )
    with pytest.raises(LogFormatError, match=f"^header sample_rate_hz={rate[:3]}.* is not finite and positive$"):
        load_log(path)


@pytest.mark.parametrize(
    ("value", "message"), [("abc", "^bad fault_time_s: 'abc'$"), ("nan", "^header fault_time_s=nan is not finite$")]
)
def test_load_log_rejects_a_bad_fault_time(tmp_path, value, message):
    path = _write(
        tmp_path / "fault_time.csv",
        f"# sample_rate_hz=500.0\n# fault_actuator=3\n# fault_time_s={value}\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n",
    )
    with pytest.raises(LogFormatError, match=message):
        load_log(path)


def test_fault_actuator_range_checked(tmp_path):
    path = _write(
        tmp_path / "fault5.csv",
        "# sample_rate_hz=500.0\n# fault_actuator=5\n# fault_time_s=1.0\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n",
    )
    with pytest.raises(LogFormatError, match="out of range"):
        load_log(path)


def test_unknown_rpm_units_rejected(tmp_path):
    path = _write(
        tmp_path / "units.csv",
        "# sample_rate_hz=500.0\n# rpm_units=furlongs\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n",
    )
    with pytest.raises(LogFormatError, match="rpm_units"):
        load_log(path)


def test_negative_rotor_speed_rejected(tmp_path):
    path = _write(
        tmp_path / "neg.csv",
        "# sample_rate_hz=500.0\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,-500,500,500\n",
    )
    with pytest.raises(LogFormatError, match="negative rotor"):
        load_log(path)


@pytest.mark.parametrize(
    "later", ["0.010,0,0,0,-9.81,500,500,500", "0.010,0,0,0,-9.81,500,5x0,500,500"], ids=["columns", "number"]
)
def test_non_finite_line_named_before_a_later_bad_line(tmp_path, later):
    path = _write(
        tmp_path / "inf_then_bad.csv",
        "# sample_rate_hz=500.0\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n"
        "0.004,0,0,nan,-9.81,500,500,500,500\n"
        "0.006,0,0,0,-9.81,500,500,inf,500\n"
        "0.008,0,0,0,-9.81,500,500,500,500\n"
        + later
        + "\n",
    )
    with pytest.raises(LogFormatError, match="^line 4: NaN or Inf field$"):
        load_log(path)


def test_bad_line_named_when_earlier_lines_are_finite(tmp_path):
    path = _write(
        tmp_path / "bad.csv",
        "# sample_rate_hz=500.0\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,500,500,500,500\n"
        "0.004,0,0,0,-9.81,500,500,500\n"
        "0.006,0,0,0,-9.81,500,500,inf,500\n",
    )
    with pytest.raises(LogFormatError, match="^line 4: expected 9 columns, got 8$"):
        load_log(path)


def test_negative_rotor_speed_reports_line(tmp_path):
    path = _write(
        tmp_path / "neg_line.csv",
        "# sample_rate_hz=500.0\n"
        + ",".join(COLUMNS)
        + "\n0.002,0,0,0,-9.81,700.357,700.357,700.357,700.357\n"
        "0.004,0,0,0,-9.81,700.357,700.357,-700.357,700.357\n",
    )
    with pytest.raises(LogFormatError, match=r"^line 4: negative rotor speed at sample 1 \(t=0\.004\)$"):
        load_log(path)


def test_validate_negative_rotor_speed_names_sample_and_time():
    log = synthetic_log()
    speeds = log.rotor_speeds.copy()
    speeds[7, 2] = -700.357
    with pytest.raises(LogFormatError, match=rf"^negative rotor speed at sample 7 \(t={log.t[7]}\)$"):
        replace(log, rotor_speeds=speeds)


def _with_steps(log, t):
    return FlightLog(log.sample_rate_hz, t, log.gyro, log.accel_z, log.rotor_speeds)


@pytest.mark.parametrize(
    ("shift", "step"),
    [(0.2, "0.202"), (-0.0012, "0.0008")],
    ids=["0.2 s gap", "inserted sample"],
)
def test_validate_rejects_dropped_or_inserted_samples(shift, step):
    log = synthetic_log()
    t = log.t.copy()
    t[20:] += shift  # the step into sample 20 leaves (0.5, 1.5) x 2 ms
    with pytest.raises(LogFormatError, match=rf"^timestamp step {step} s at sample 20 \(t={t[20]}\) is outside"):
        _with_steps(log, t).validate()


def test_validate_accepts_steps_within_tolerance():
    log = synthetic_log()
    t = log.t.copy()
    t[10:] += 0.0009  # one 1.45x step
    t[30:] -= 0.0009  # one 0.55x step
    _with_steps(log, t).validate()


def test_wrong_header_rate_reported_before_the_step_check():
    log = synthetic_log()
    t = log.t.copy()
    t[20:] += 0.2
    with pytest.raises(LogFormatError, match="^header sample_rate_hz=100.0 does not match"):
        FlightLog(100.0, t, log.gyro, log.accel_z, log.rotor_speeds).validate()


@pytest.mark.parametrize("field", ["gyro", "accel_z", "rotor_speeds"])
def test_mismatched_array_shapes_rejected_at_construction(field):
    log = synthetic_log()
    arrays = {"t": log.t, "gyro": log.gyro, "accel_z": log.accel_z, "rotor_speeds": log.rotor_speeds}
    arrays[field] = arrays[field][:-1]  # one row short
    with pytest.raises(LogFormatError, match="^log arrays have inconsistent shapes$") as caught:
        FlightLog(sample_rate_hz=500.0, **arrays)
    assert caught.value.sample is None


def test_format_error_carries_the_sample_index():
    log = synthetic_log()
    speeds = log.rotor_speeds.copy()
    speeds[7, 2] = -1.0
    with pytest.raises(LogFormatError) as caught:
        replace(log, rotor_speeds=speeds)
    assert caught.value.sample == 7
    with pytest.raises(LogFormatError, match="^header sample_rate_hz") as caught:
        FlightLog(100.0, log.t, log.gyro, log.accel_z, np.abs(speeds))
    assert caught.value.sample is None


@pytest.mark.parametrize("column", ["t", "gyro", "accel_z", "rotor_speeds"])
def test_a_logs_arrays_are_read_only(column):
    # An array the log owns is frozen in place, so the caller's handle to it too.
    rng = np.random.default_rng(31)
    speeds = rng.uniform(300.0, 1200.0, (50, 4))
    log = FlightLog(500.0, np.arange(1, 51) / 500.0, rng.normal(0.0, 0.1, (50, 3)), rng.normal(-9.81, 0.2, 50), speeds)
    assert log.rotor_speeds is speeds
    with pytest.raises(ValueError, match="read-only"):
        getattr(log, column)[3] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        speeds[3, 0] = 1.0


@pytest.mark.parametrize("field", ["t", "rotor_speeds", "sample_rate_hz", "fault_time_s", "vehicle"])
def test_a_logs_fields_cannot_be_assigned(field):
    log = synthetic_log(fault=(3, 0.05))
    with pytest.raises(FrozenInstanceError):
        setattr(log, field, getattr(log, field))


def test_a_log_built_from_views_copies_them():
    # Whatever holds a view's base can still write to it, so the log takes a copy.
    n, rng = 50, np.random.default_rng(32)
    table = np.column_stack(
        [np.arange(1, n + 1) / 500.0, rng.normal(0.0, 0.1, (n, 4)), rng.uniform(300.0, 1200.0, (n, 4))]
    )
    log = FlightLog(500.0, table[:, 0], table[:, 1:4], table[:, 4], table[:, 5:9])
    before = [a.copy() for a in (log.t, log.gyro, log.accel_z, log.rotor_speeds)]
    table[7] = np.nan
    assert all(np.array_equal(a, b) for a, b in zip((log.t, log.gyro, log.accel_z, log.rotor_speeds), before))
    assert table.flags.writeable  # the caller's table stays theirs
    listed = FlightLog(500.0, [0.002, 0.004], [[0.0] * 3] * 2, [-9.81] * 2, [[700.0] * 4] * 2)
    assert isinstance(listed.gyro, np.ndarray) and not listed.gyro.flags.writeable


def test_replace_validates_the_new_log():
    log = synthetic_log(fault=(3, 0.05))
    with pytest.raises(LogFormatError, match="^fault_actuator out of range: 5$"):
        replace(log, fault_actuator=5)
    with pytest.raises(LogFormatError, match="^header sample_rate_hz=100.0 does not match"):
        replace(log, sample_rate_hz=100.0)
    with pytest.raises(LogFormatError, match="^log arrays have inconsistent shapes$"):
        replace(log, accel_z=log.accel_z[:-1])
    assert replace(log, vehicle="quad v2").vehicle == "quad v2"


def test_load_log_validates_once_and_nothing_downstream_validates_again(tmp_path, monkeypatch):
    path = tmp_path / "flight.csv"
    save_log(synthetic_log(n=200), path)
    calls = []
    validate = FlightLog.validate
    monkeypatch.setattr(FlightLog, "validate", lambda self: calls.append(len(self)) or validate(self))
    log = load_log(path)
    assert calls == [200]
    run_detector(log, default_config())
    run_sweep([log], SweepSpec(base=default_config(), variations=()))
    save_log(log, tmp_path / "copy.csv")
    assert calls == [200]


def _log_with_p(path, p_field="0", extra="", blank=None):
    """A four-row 500 Hz hover log; the third row's ``p`` field is ``p_field`` (line 5).

    ``blank``, if given, is a line put between the rows.
    """
    rows = [f"{0.002 * (i + 1)!r},{p_field if i == 2 else '0'},0,0,-9.81,500,500,500,500\n" for i in range(4)]
    sep = "" if blank is None else blank + "\n"
    path.write_text("# sample_rate_hz=500.0\n" + ",".join(COLUMNS) + "\n" + sep.join(rows) + extra, encoding="utf-8")
    return path


def _assert_same_log(a, b):
    for name in ("t", "gyro", "accel_z", "rotor_speeds"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.sample_rate_hz, a.ground_truth(), a.vehicle) == (b.sample_rate_hz, b.ground_truth(), b.vehicle)


# Field text -> the value ``float`` gives it. ``np.loadtxt`` does not read the
# last two, so those logs take the per-line parse.
ACCEPTED_FIELDS = {" 1.5 ": 1.5, "+1.5": 1.5, "1.": 1.0, ".5": 0.5, "1e-400": 0.0, "1_0": 10.0, "１２": 12.0}
FLOAT_ONLY_FIELDS = ("1_0", "１２")


@pytest.mark.parametrize("field", list(ACCEPTED_FIELDS))
def test_bulk_and_per_line_parses_agree_bit_for_bit_on_every_accepted_field(tmp_path, field):
    path = _log_with_p(tmp_path / "f.csv", field)
    by_line = _load_by_line(path)
    assert by_line.gyro[2, 0] == ACCEPTED_FIELDS[field]
    if field in FLOAT_ONLY_FIELDS:
        with pytest.raises(ValueError):
            _load_bulk(path)
    else:
        _assert_same_log(_load_bulk(path), by_line)
    _assert_same_log(load_log(path), by_line)


def test_bulk_parse_reads_a_saved_log_and_rpm_like_the_per_line_parse(tmp_path):
    path = tmp_path / "saved.csv"
    save_log(synthetic_log(n=300, fault=(2, 0.3)), path)
    _assert_same_log(_load_bulk(path), _load_by_line(path))
    rpm = _log_with_p(tmp_path / "rpm.csv", blank="")
    rpm.write_text(rpm.read_text().replace("# sample_rate_hz=500.0", "# sample_rate_hz=500.0\n# rpm_units=rpm"))
    _assert_same_log(_load_bulk(rpm), _load_by_line(rpm))
    assert load_log(rpm).rotor_speeds[3, 1] == 500.0 * 2.0 * math.pi / 60.0


def test_white_space_lines_between_rows_take_the_per_line_parse(tmp_path):
    # ``np.loadtxt`` skips empty lines but reads "  " as a one-column row.
    path = _log_with_p(tmp_path / "spaced.csv", blank=" \t ")
    with pytest.raises(ValueError):
        _load_bulk(path)
    _assert_same_log(load_log(path), _load_by_line(path))
    assert len(load_log(path)) == 4


@pytest.mark.parametrize(
    ("field", "extra", "message"),
    [
        ("", "", "line 5: unparseable number in '0.006,,0,0,-9.81,500,500,500,500'"),
        ("abc", "", "line 5: unparseable number in '0.006,abc,0,0,-9.81,500,500,500,500'"),
        ("0x10", "", "line 5: unparseable number in '0.006,0x10,0,0,-9.81,500,500,500,500'"),
        ("1e400", "", "line 5: NaN or Inf field"),
        ("nan", "", "line 5: NaN or Inf field"),
        # ``np.loadtxt`` strips an ASCII separator from a field; ``float`` does not.
        ("1.5\x1c", "", "line 5: unparseable number in '0.006,1.5\\x1c,0,0,-9.81,500,500,500,500'"),
        ("0,0", "", "line 5: expected 9 columns, got 10"),
        ("0\n0.006,0,0", "", "line 5: expected 9 columns, got 2"),
        ("0", "# note=late\n", "line 7: header line after data began"),
    ],
    ids=["empty", "abc", "hex", "overflow", "nan", "separator", "extra-column", "missing-column", "late-header"],
)
def test_bulk_parse_rejects_what_the_per_line_parse_rejects_with_its_message(tmp_path, field, extra, message):
    path = _log_with_p(tmp_path / "bad.csv", field, extra)
    with pytest.raises(ValueError):
        _load_bulk(path)
    with pytest.raises(LogFormatError) as by_line:
        _load_by_line(path)
    with pytest.raises(LogFormatError) as loaded:
        load_log(path)
    assert str(loaded.value) == str(by_line.value) == message


def test_bulk_parse_leaves_per_sample_errors_to_the_per_line_parse(tmp_path):
    path = _log_with_p(tmp_path / "neg.csv")
    path.write_text(path.read_text().replace("0.008,0,0,0,-9.81,500,500", "0.008,0,0,0,-9.81,500,-500"))
    with pytest.raises(LogFormatError, match=r"^line 6: negative rotor speed at sample 3 \(t=0\.008\)$"):
        load_log(path)
