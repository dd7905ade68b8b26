import json
import re
import shlex
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from loedetect import cli, flightlog, replay
from loedetect.cli import main
from loedetect.detector import (
    CONFIG_KEYS,
    config_from_dict,
    config_to_dict,
    config_with,
    default_config,
    format_config,
    parse_config,
)
from loedetect.replay import run_detector
from oracles import oracle_ticks_csv


def run_cli(*argv):
    return main(list(argv))


def simulate_log(tmp_path, name, *extra):
    path = tmp_path / name
    code = run_cli(
        "simulate",
        "--scenario",
        "hover",
        "--duration",
        "1.4",
        "--fault",
        "3:1.0",
        "--seed",
        "5",
        "--out",
        str(path),
        *extra,
    )
    assert code == 0
    return path


DEFAULT_CONFIG_TEXT = """\
# loedetect detector configuration
g_p = 0.0001
g_q = 0.0001
g_az = 5e-06
filter_natural_frequency = 50.0
filter_damping_ratio = 0.55
process_noise_q = 0.1
measurement_noise_r = 1.0
k_threshold = 0.25
probability_threshold = 0.9
estimator_interval = 0.02
sensor_interval = 0.002
takeoff_thrust_fraction = 0.5
hover_thrust_reference = 1962000.0
"""


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language):
    """The bodies of the README's fenced code blocks in ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_quickstart_and_python_api_print_what_the_readme_says(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = next(block for block in readme_blocks("sh") if "loedetect simulate" in block).splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith(("loedetect simulate", "loedetect detect"))]
    verdict = [line[1:].strip() for line in lines if line.startswith("#   ")]
    assert [argv[0] for argv in commands] == ["simulate", "detect"]
    assert verdict == ["actuator 3 latched at t=1.62 s", "delay_s=0.1200 false_alarms=0 missed=false"]
    for argv in commands:
        assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == verdict

    (api,) = readme_blocks("python")
    exec(api, {})
    delay, false_alarms = capsys.readouterr().out.split()
    assert f"delay_s={float(delay):.4f} false_alarms={false_alarms} missed=false" == verdict[1]


def test_readme_log_schema_gives_the_header_keys_the_loader_accepts():
    section = README.read_text(encoding="utf-8").split("## Flight log CSV schema\n", 1)[1]
    schema = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    keys = [line[1:].partition("=")[0].strip() for line in schema.splitlines() if line.startswith("#")]
    assert sorted(keys) == sorted(flightlog.HEADER_KEYS)


def test_print_default_config_round_trips(capsys):
    assert run_cli("--print-default-config") == 0
    text = capsys.readouterr().out
    assert parse_config(text) == default_config()


def test_print_default_config_text_is_pinned(capsys):
    # Key order and value formatting are part of the file format.
    assert run_cli("--print-default-config") == 0
    assert capsys.readouterr().out == DEFAULT_CONFIG_TEXT


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli() == 2


def test_simulate_writes_annotated_log(tmp_path, capsys):
    path = simulate_log(tmp_path, "f30.csv")
    header = path.read_text().splitlines()[:6]
    assert any("fault_actuator=3" in line for line in header)
    out = capsys.readouterr().out
    assert "actuator 3 fails at t=1" in out


def test_simulate_is_deterministic(tmp_path):
    a = simulate_log(tmp_path, "a.csv")
    b = simulate_log(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rejects_bad_actuator(tmp_path, capsys):
    code = run_cli(
        "simulate", "--duration", "2", "--fault", "5:1.0", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "actuator" in capsys.readouterr().err


def test_simulate_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--scenario", "barrel-roll", "--out", str(tmp_path / "x.csv"))
    assert exc.value.code == 2


@pytest.mark.parametrize("when", ["2.0", "1.0", "0", "0.001"])
def test_simulate_rejects_fault_outside_the_flight(tmp_path, capsys, when):
    # The first sample is at t = 0.002 s: an annotation before it would fail
    # only later, in detect or sweep, after a full replay.
    out = tmp_path / "x.csv"
    assert run_cli("simulate", "--duration", "1.0", "--fault", f"3:{when}", "--out", str(out)) == 2
    assert "fault time must fall inside the flight duration, in [0.002, 1.0) s" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("when", ["1.0005", "1.0"])
def test_simulate_rejects_fault_after_the_last_sample_before_flying(tmp_path, capsys, monkeypatch, when):
    # 1.0009 s flies 500 samples, the last at t = 1.0 s: a fault at or after
    # it leaves no faulted row.
    def no_flying(*args, **kwargs):
        raise AssertionError("flew before rejecting the fault time")

    monkeypatch.setattr("loedetect.simulator.dynamics_step", no_flying)
    out = tmp_path / "x.csv"
    assert run_cli("simulate", "--duration", "1.0009", "--fault", f"3:{when}", "--out", str(out)) == 2
    assert "fault time must fall inside the flight duration, in [0.002, 1.0) s" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_ground_idle_with_a_fault_is_usage_error_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "idle.csv"
    code = run_cli("simulate", "--scenario", "ground_idle", "--duration", "1", "--fault", "3:0.5", "--out", str(out))
    assert code == 2
    captured = capsys.readouterr()
    assert "ground_idle takes no fault" in captured.err
    assert "ground truth" not in captured.out
    assert not out.exists()


def test_detect_reports_delay_in_range(tmp_path, capsys):
    log = simulate_log(tmp_path, "flight.csv")
    capsys.readouterr()
    out_csv = tmp_path / "outputs.csv"
    assert run_cli("detect", "--log", str(log), "--out", str(out_csv)) == 0
    out = capsys.readouterr().out
    match = re.search(r"delay_s=([0-9.]+) false_alarms=(\d+) missed=(\w+)", out)
    assert match, out
    assert 0.02 <= float(match.group(1)) <= 0.15
    assert match.group(2) == "0"
    assert match.group(3) == "false"
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("t,k1,k2,k3,k4,var1")


def test_detect_skips_a_utf8_byte_order_mark(tmp_path, capsys):
    # Spreadsheets save a CSV with a byte-order mark, which once read as
    # part of line 1 and failed on line 2. Both parsers skip it.
    plain = simulate_log(tmp_path, "flight.csv")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    original = flightlog.load_log(plain)
    for loaded in (flightlog.load_log(marked), flightlog._load_by_line(marked)):
        for name in ("t", "gyro", "accel_z", "rotor_speeds"):
            assert np.array_equal(getattr(loaded, name), getattr(original, name))
        assert (loaded.sample_rate_hz, loaded.vehicle, loaded.ground_truth()) == (
            original.sample_rate_hz,
            original.vehicle,
            original.ground_truth(),
        )
    for path in (plain, marked):
        assert run_cli("detect", "--log", str(path), "--out", str(path.with_suffix(".ticks"))) == 0
    assert marked.with_suffix(".ticks").read_bytes() == plain.with_suffix(".ticks").read_bytes()


def _head(log, n):
    """The first ``n`` rows of ``log``, unannotated."""
    return flightlog.FlightLog(log.sample_rate_hz, log.t[:n], log.gyro[:n], log.accel_z[:n], log.rotor_speeds[:n])


FIVE_SAMPLE_PERIOD = config_with(default_config(), "estimator_interval", 5 * default_config().sensor_interval)


# Each case: the log, the config (``None`` for the defaults) and what the case is there for.
TICKS_CASES = {
    "ejection": (lambda request: flightlog.load_log(simulate_log(request.getfixturevalue("tmp_path"), "sim.csv")), None),
    "takeoff_ramp": (lambda request: request.getfixturevalue("takeoff_logs")[0], None),
    "ground_idle": (lambda request: request.getfixturevalue("ground_idle_logs")[0], None),
    "shorter_than_a_period": (lambda request: _head(request.getfixturevalue("ejection_log"), 4), None),
    "one_row": (lambda request: _head(request.getfixturevalue("ejection_log"), 1), None),
    "five_sample_period": (lambda request: _head(request.getfixturevalue("takeoff_logs")[0], 2222), FIVE_SAMPLE_PERIOD),
}


@pytest.mark.parametrize("case", TICKS_CASES)
def test_detect_ticks_csv_equals_row_by_row_formatting(tmp_path, capsys, request, case):
    # detect replays in blocks and writes the CSV run by run; every byte
    # must equal run_detector's outputs formatted row by row: a latching
    # ejection, a ramp that arms mid-period, a log that never arms, logs
    # shorter than one estimator period, and a 5-sample period whose ramp
    # arms on a tick sample and whose log ends in a partial period.
    make_log, config = TICKS_CASES[case]
    log = make_log(request)
    path = tmp_path / "flight.csv"
    flightlog.save_log(log, path)
    argv = ["detect", "--log", str(path), "--out", str(tmp_path / "outputs.csv")]
    if config is not None:
        (tmp_path / "detector.cfg").write_text(format_config(config))
        argv += ["--config", str(tmp_path / "detector.cfg")]
    assert run_cli(*argv) == 0
    outputs = run_detector(flightlog.load_log(path), config or default_config())
    armed = [out.armed for out in outputs]
    steps = (config or default_config()).steps_per_estimate()
    if case == "ejection":
        assert outputs[-1].status.any_failed()
    elif case == "takeoff_ramp":
        assert not armed[0] and armed[-1] and armed.index(True) % steps != steps - 1
    elif case == "ground_idle":
        assert not any(armed)
    elif case == "five_sample_period":
        assert armed.index(True) % steps == steps - 1 and len(log) % steps != 0
    else:
        assert len(log) < steps
    assert (tmp_path / "outputs.csv").read_bytes() == oracle_ticks_csv(outputs)


def test_detect_streams_its_outputs_instead_of_holding_them(tmp_path, capsys, monkeypatch):
    # Past the loaded log, detect holds a bounded amount: no list of one
    # DetectorOutput per sample (about 150 B each, 1.5 MB for 10,000 rows).
    # What grows with the log is one copy of each estimator tick, 8 floats:
    # from 10,000 to 40,000 rows the peak grows by at most 12 floats a tick.
    load_log = flightlog.load_log
    after_load = []

    def load_then_reset_peak(path):
        loaded = load_log(path)
        tracemalloc.reset_peak()
        after_load.append(tracemalloc.get_traced_memory()[0])
        return loaded

    monkeypatch.setattr(flightlog, "load_log", load_then_reset_peak)
    lengths, peaks = (10_000, 40_000), []
    for rows in lengths:
        log = _write_hover_log(tmp_path / f"long_{rows}.csv", rows=rows)
        tracemalloc.start()
        try:
            code = run_cli("detect", "--log", str(log), "--out", str(tmp_path / "ticks.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len((tmp_path / "ticks.csv").read_text().splitlines()) == 1 + rows
        peaks.append(peak - after_load[-1])
        assert peaks[-1] < 1_000_000
    added_ticks = (lengths[1] - lengths[0]) // default_config().steps_per_estimate()
    assert peaks[1] - peaks[0] <= 12 * 8 * added_ticks


def test_detect_no_fault_log_reports_false_alarms(tmp_path, capsys):
    path = tmp_path / "clean.csv"
    assert run_cli("simulate", "--duration", "2", "--seed", "1", "--out", str(path)) == 0
    capsys.readouterr()
    assert run_cli("detect", "--log", str(path)) == 0
    assert "false_alarms=0" in capsys.readouterr().out


def test_detect_missing_config_names_path(tmp_path, capsys):
    log = simulate_log(tmp_path, "flight.csv")
    code = run_cli("detect", "--log", str(log), "--config", str(tmp_path / "nope.cfg"))
    assert code == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_detect_missing_log_is_usage_error(tmp_path, capsys):
    assert run_cli("detect", "--log", str(tmp_path / "absent.csv")) == 2


@pytest.mark.parametrize(
    "command, what",
    [("detect --log", "log"), ("detect --config", "config"), ("sweep --spec", "sweep spec"),
     ("sweep --logs", "log"), ("report --results", "results")],
)
def test_directory_for_an_input_file_is_usage_error(tmp_path, capsys, command, what):
    # A directory where a file is expected exits 2 with one line naming it, as a missing file does.
    folder = tmp_path / "logs" / "b.csv"
    folder.mkdir(parents=True)
    log = _write_hover_log(tmp_path / "logs" / "a.csv")
    out = tmp_path / "out"
    argv = {
        "detect --log": ["detect", "--log", str(folder), "--out", str(out)],
        "detect --config": ["detect", "--log", str(log), "--config", str(folder), "--out", str(out)],
        "sweep --spec": ["sweep", "--logs", str(log), "--spec", str(folder), "--out-dir", str(out)],
        "sweep --logs": ["sweep", "--logs", str(tmp_path / "logs" / "*.csv"), "--out-dir", str(out)],
        "report --results": ["report", "--results", str(folder), "--out", str(out)],
    }[command]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: no {what} file at {folder}"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [
        ("detect --log {log} --out {folder}", "--out {folder} is a directory"),
        ("detect --log {log} --out {absent}/x.csv", "--out {absent}/x.csv: no directory {absent}"),
        ("simulate --duration 0.1 --out {folder}", "--out {folder} is a directory"),
        ("simulate --duration 0.1 --out {absent}/x.csv", "--out {absent}/x.csv: no directory {absent}"),
        ("report --results {results} --out {folder}", "--out {folder} is a directory"),
        ("report --results {results} --out {absent}/x.txt", "--out {absent}/x.txt: no directory {absent}"),
        ("sweep --logs {log} --out-dir {file}", "--out-dir {file}: {file} is not a directory"),
        ("sweep --logs {log} --out-dir {file}/out", "--out-dir {file}/out: {file} is not a directory"),
    ],
)
def test_an_unwritable_output_path_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch, command, message):
    # An output path that cannot be written exits 2 with one line naming it, as a bad input path does,
    # before a log is read, a flight flown or the sweep run, and creates nothing.
    (tmp_path / "folder").mkdir()
    (tmp_path / "file").write_text("")
    replay.write_results_csv([], tmp_path / "results.csv")
    _write_hover_log(tmp_path / "log.csv")
    paths = {"log": tmp_path / "log.csv", "results": tmp_path / "results.csv"}
    paths.update((name, tmp_path / name) for name in ("folder", "absent", "file"))
    monkeypatch.setattr(flightlog, "load_log", _refuse_to_load)
    for name in ("run_sweep", "fly_scenario"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(f"{name} was called"))
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*shlex.split(command.format(**paths))) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: " + message.format(**paths)]
    assert captured.out == "" and sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 PiB for an array with shape (500000000000000000,)", ""])
def test_running_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message):
    # A flight too long to hold in memory is a runtime failure, reported as one line, not a traceback.
    def out_of_memory(**kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "fly_scenario", out_of_memory)
    assert run_cli("simulate", "--duration", "1e15", "--out", str(tmp_path / "long.csv")) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message or 'MemoryError'}"]
    assert captured.out == "" and not (tmp_path / "long.csv").exists()


def _write_hover_log(path, rotor_speed="700.0", gyro_p_at_row=None, gap_before_row=None, rows=40):
    """Hand-written hover log at 500 Hz, 40 rows unless ``rows`` says otherwise.

    ``gyro_p_at_row`` is ``(row, text)`` to corrupt one p value;
    ``gap_before_row`` drops 100 samples (0.2 s) before that row.
    """
    lines = ["# sample_rate_hz=500.0", "t,p,q,r,az,w1,w2,w3,w4"]
    for i in range(rows):
        p = gyro_p_at_row[1] if gyro_p_at_row and gyro_p_at_row[0] == i else "0.0"
        k = i + 1 + (100 if gap_before_row is not None and i >= gap_before_row else 0)
        lines.append(f"{k * 0.002!r},{p},0.0,0.0,-9.81," + ",".join([rotor_speed] * 4))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("--fault", "3:nan"), "fault time must be finite and non-negative"),
        (("--duration", "inf"), "duration must be finite and positive"),
        (("--noise-scale", "-1"), "noise scale factor must be finite and non-negative"),
        (("--noise-scale", "nan"), "noise scale factor must be finite and non-negative"),
    ],
)
def test_simulate_non_finite_or_negative_input_is_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert run_cli("simulate", *argv, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["nan", "-500.0", "0.0", "inf"])
def test_detect_rate_that_is_not_finite_and_positive_is_bad_log(tmp_path, capsys, rate):
    log = _write_hover_log(tmp_path / "rate.csv", rows=1 if rate == "-500.0" else 40)
    log.write_text(log.read_text().replace("sample_rate_hz=500.0", f"sample_rate_hz={rate}", 1))
    assert run_cli("detect", "--log", str(log)) == 2
    err = capsys.readouterr().err
    assert f"bad log {log}: header sample_rate_hz={rate[:3]}" in err and "is not finite and positive" in err


# The 40-row log runs from t = 0.002 to 0.08 s.
@pytest.mark.parametrize("value", ["abc", "nan", "0.0", "0.001", "0.09"])
@pytest.mark.parametrize("command", ["detect", "sweep"])
def test_bad_fault_time_header_is_bad_log(tmp_path, capsys, value, command):
    log = _write_hover_log(tmp_path / "fault.csv")
    log.write_text(f"# fault_actuator=3\n# fault_time_s={value}\n" + log.read_text())
    if command == "detect":
        code = run_cli("detect", "--log", str(log))
    else:
        code = run_cli("sweep", "--logs", str(log), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad log {log}: " in err and "fault_time_s" in err


@pytest.mark.parametrize(
    ("header", "message"),
    [
        (
            "# fault_actuator=2\n# fault_time_s=0.05\n# fault_actuator=4\n",
            "line 3: duplicate header key 'fault_actuator'",
        ),
        ("# fault_actuatr=2\n# fault_time=0.05\n", "line 1: unknown header key 'fault_actuatr'"),
    ],
    ids=["repeated", "misspelled"],
)
@pytest.mark.parametrize("command", ["detect", "sweep"])
def test_repeated_or_unknown_header_key_is_bad_log(tmp_path, capsys, header, message, command):
    log = _write_hover_log(tmp_path / "header.csv")
    log.write_text(header + log.read_text())
    if command == "detect":
        code = run_cli("detect", "--log", str(log))
    else:
        code = run_cli("sweep", "--logs", str(log), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert f"bad log {log}: {message}" in capsys.readouterr().err


def test_detect_fault_time_without_fault_actuator_is_bad_log(tmp_path, capsys):
    # Read as a no-fault log, the correct latch would count as a false alarm.
    log = tmp_path / "half.csv"
    assert run_cli("simulate", "--duration", "1.0", "--fault", "3:0.5", "--out", str(log)) == 0
    capsys.readouterr()
    log.write_text(log.read_text().replace("# fault_actuator=3\n", "", 1))
    assert run_cli("detect", "--log", str(log)) == 2
    captured = capsys.readouterr()
    assert f"bad log {log}: fault_time_s given without fault_actuator" in captured.err
    assert "false_alarms" not in captured.out


def test_detect_inf_gyro_is_bad_log_naming_the_line(tmp_path, capsys):
    log = _write_hover_log(tmp_path / "inf.csv", gyro_p_at_row=(5, "inf"))
    assert run_cli("detect", "--log", str(log)) == 2
    err = capsys.readouterr().err
    assert f"bad log {log}: line 8:" in err  # two header lines, then row index 5


def test_detect_overflowing_rotor_speed_is_bad_log_naming_the_line(tmp_path, capsys):
    # Finite, but its square would overflow inside the estimator: rejected on
    # load by the rotor speed ceiling, before any arithmetic.
    log = _write_hover_log(tmp_path / "huge.csv", rotor_speed="1e160")
    with np.errstate(over="raise", invalid="raise"):
        code = run_cli("detect", "--log", str(log))
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad log {log}: line 3: rotor speed above 100000 rad/s" in err


def test_detect_negative_rotor_speed_is_bad_log_naming_the_line(tmp_path, capsys):
    log = _write_hover_log(tmp_path / "neg.csv", rotor_speed="-700.357")
    assert run_cli("detect", "--log", str(log)) == 2
    err = capsys.readouterr().err
    assert f"bad log {log}: line 3: negative rotor speed" in err


def _write_config_with_q(path, q):
    path.write_text(format_config(config_with(default_config(), "process_noise_q", q)))
    return path


def test_detect_overflowing_estimator_is_one_error_line(tmp_path, capsys):
    # q = 1e308 overflows the innovation variance on the first armed tick
    log = _write_hover_log(tmp_path / "hover.csv")
    cfg = _write_config_with_q(tmp_path / "huge_q.cfg", 1e308)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("detect", "--log", str(log), "--config", str(cfg))
    assert code == 1
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(r"^error: innovation variance s=(inf|nan) is not finite", err[0])


def test_detect_large_but_finite_process_noise_runs(tmp_path, capsys):
    log = _write_hover_log(tmp_path / "hover.csv", rows=2000)  # 4 s
    cfg = _write_config_with_q(tmp_path / "big_q.cfg", 1e200)
    assert run_cli("detect", "--log", str(log), "--config", str(cfg)) == 0
    assert capsys.readouterr().err == ""


def test_detect_dropped_samples_is_bad_log_naming_the_sample(tmp_path, capsys):
    log = _write_hover_log(tmp_path / "gap.csv", gap_before_row=20)
    assert run_cli("detect", "--log", str(log)) == 2
    err = capsys.readouterr().err
    assert f"bad log {log}: line 23: timestamp step 0.202 s at sample 20 (t=0.242) is outside" in err


@pytest.mark.parametrize("key", ["hover_thrust_reference", "estimator_interval", "sensor_interval"])
def test_detect_infinite_interval_or_thrust_reference_is_config_error(tmp_path, capsys, key):
    # inf once gave a silent never-armed run (hover_thrust_reference) or an
    # OverflowError at exit 1 (estimator_interval).
    log = simulate_log(tmp_path, "flight.csv")
    capsys.readouterr()
    text = format_config(default_config())
    assert f"\n{key} = " in text
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = inf", text, flags=re.M))
    assert run_cli("detect", "--log", str(log), "--config", str(cfg)) == 2
    captured = capsys.readouterr()
    assert f"bad config file {cfg}: {key} must be finite and positive, got inf" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["1e20", "1e308"])
def test_detect_estimator_interval_past_2_53_sensor_intervals_is_config_error(tmp_path, capsys, value):
    # 1e20 once crashed the block replay with an IndexError, and 1e308 exited 1 on an OverflowError.
    log = _write_hover_log(tmp_path / "hover.csv")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(DEFAULT_CONFIG_TEXT.replace("estimator_interval = 0.02", f"estimator_interval = {value}"))
    assert run_cli("detect", "--log", str(log), "--config", str(cfg)) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: bad config file {cfg}: estimator_interval ({float(value)} s) is more than 2**53 "
        "sensor_intervals (0.002 s)"
    ]
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_detect_config_value_outside_its_field_is_config_error_naming_it(tmp_path, capsys, key, value):
    # Every flat key takes only finite values in its own range; the error
    # names the key as the file writes it.
    log = _write_hover_log(tmp_path / "hover.csv")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", DEFAULT_CONFIG_TEXT, flags=re.M))
    assert run_cli("detect", "--log", str(log), "--config", str(cfg)) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: bad config file {cfg}: ")
    assert key in err[0]
    assert captured.out == ""


def test_detect_sensor_interval_mismatching_the_log_rate_is_config_error(tmp_path, capsys):
    log = _write_hover_log(tmp_path / "hover.csv")  # 500 Hz
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(format_config(config_with(default_config(), "sensor_interval", 0.001)))
    assert run_cli("detect", "--log", str(log), "--config", str(cfg)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "sensor_interval=0.001 s" in err[0] and "sample_rate_hz=500.0" in err[0]


def test_sweep_sensor_interval_mismatching_the_log_rate_is_config_error(tmp_path, capsys):
    log = simulate_log(tmp_path, "a.csv")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"parameters": {"sensor_interval": [0.001]}}))
    out_dir = tmp_path / "out"
    code = run_cli("sweep", "--logs", str(log), "--spec", str(spec_path), "--out-dir", str(out_dir))
    assert code == 2
    err = capsys.readouterr().err
    assert "sensor_interval=0.001 s" in err and "sample_rate_hz=500.0" in err
    assert not out_dir.exists()


def test_sweep_and_report_round_trip(tmp_path, capsys):
    log_a = simulate_log(tmp_path, "a.csv")
    log_b = simulate_log(tmp_path, "b.csv", "--seed", "6")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"parameters": {"k_threshold": [0.15, 0.35]}}))
    out_dir = tmp_path / "sweep"
    code = run_cli(
        "sweep",
        "--logs",
        str(tmp_path / "*.csv"),
        "--spec",
        str(spec_path),
        "--out-dir",
        str(out_dir),
    )
    assert code == 0
    results = (out_dir / "results.csv").read_text().splitlines()
    assert len(results) == 1 + 3 * 2  # header + 3 parameter sets x 2 logs
    capsys.readouterr()
    code = run_cli(
        "report",
        "--results",
        str(out_dir / "results.csv"),
        "--spec",
        str(spec_path),
        "--out",
        str(tmp_path / "report.txt"),
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "k_threshold" in text
    assert (tmp_path / "report.txt").exists()


def test_sweep_and_report_each_build_the_parameter_sets_once(tmp_path, capsys, monkeypatch):
    # One build makes one config per swept value. Loading the spec, the runs
    # and the summary all read the sets; sweep and report build them once each.
    simulate_log(tmp_path, "a.csv")
    n_varied = len(replay.default_sweep_spec().parameter_sets()) - 1
    built = []
    config_with = replay.config_with

    def counting_config_with(config, key, value):
        built.append((key, value))
        return config_with(config, key, value)

    monkeypatch.setattr(replay, "config_with", counting_config_with)
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--logs", str(tmp_path / "*.csv"), "--out-dir", str(out_dir)) == 0
    assert len(built) == n_varied == 18
    built.clear()
    assert run_cli("report", "--results", str(out_dir / "results.csv")) == 0
    assert len(built) == n_varied


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        ("param_set_id,log_id,delay\n", "unexpected results header"),
        (
            "param_set_id,log_id," + "d" * 5000 + ",false_alarms,missed\n",
            f"line 1: unexpected results header: field 3 is '{'d' * 12}...{'d' * 13}', "
            "expected param_set_id,log_id,delay_s,false_alarms,missed",
        ),
        ("param_set_id,log_id,delay_s,false_alarms\n", "line 1: unexpected results header: field 5 is missing,"),
        ("", "line 1: unexpected results header: field 1 is missing,"),
        ("param_set_id,log_id,delay_s,false_alarms,missed,n\n", "line 1: unexpected results header: field 6 is 'n',"),
        ("param_set_id,log_id,delay_s,false_alarms,missed\nset_00_base,a\n", "line 2: expected 5 fields, got 2"),
        (
            "param_set_id,log_id,delay_s,false_alarms,missed\nset_00_base,a,0.1,0,0\nset_00_base,b,soon,0,0\n",
            "line 3: could not convert string to float: 'soon'",
        ),
        (
            "param_set_id,log_id,delay_s,false_alarms,missed\nset_00_base," + "a" * 200_000 + ",,0,1\n",
            "line 2: field larger than field limit",
        ),
    ],
    ids=["header", "long-header-field", "missing-header-field", "empty-file", "extra-header-field"]
    + ["short-row", "number", "oversized-field"],
)
def test_report_malformed_results_file_is_usage_error(tmp_path, capsys, rows, message):
    # A malformed input file exits 2, as a bad log does for detect and sweep.
    results = tmp_path / "results.csv"
    results.write_text(rows)
    assert run_cli("report", "--results", str(results)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: bad results file {results}: ") and message in err[0]


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ("set_00_base,a,nan,0,0", "line 2: delay_s must be finite, got 'nan'"),
        ("set_00_base,a,1e400,0,0", "line 2: delay_s must be finite, got '1e400'"),
        ("set_00_base,a,-inf,0,0", "line 2: delay_s must be finite, got '-inf'"),
        ("set_00_base,a,0.1,-3,0", "line 2: false_alarms must be non-negative, got '-3'"),
        ("set_00_base,a,,0,7", "line 2: missed must be 0 or 1, got '7'"),
        ("set_00_base,a,,0,-1", "line 2: missed must be 0 or 1, got '-1'"),
        (
            "set_00_base,a,0.1,0,0\nset_00_base,b,0.1,0,0\nset_01_k,a,,0,1\nset_00_base,a,0.2,0,0",
            "line 5: repeated param_set_id and log_id ('set_00_base', 'a')",
        ),
    ],
    ids=[
        "nan-delay",
        "overflowing-delay",
        "minus-inf-delay",
        "negative-false-alarms",
        "missed-7",
        "missed-minus-1",
        "repeated-pair",
    ],
)
def test_report_rejects_values_it_cannot_interpret(tmp_path, capsys, row, message):
    # A NaN or overflowing delay once crashed the box plot (exit 1), and
    # false_alarms=-3, missed=7 rendered as "fa -3" (exit 0).
    results = tmp_path / "results.csv"
    results.write_text(f"param_set_id,log_id,delay_s,false_alarms,missed\n{row}\n")
    assert run_cli("report", "--results", str(results)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: bad results file {results}: {message}"]


def test_report_keeps_a_negative_delay(tmp_path, capsys):
    # A latch on the failed actuator before the annotated fault time.
    results = tmp_path / "results.csv"
    results.write_text("param_set_id,log_id,delay_s,false_alarms,missed\nset_00_base,a,-0.012,0,0\n")
    assert run_cli("report", "--results", str(results)) == 0
    assert "-0.0120" in capsys.readouterr().out


def test_detect_and_sweep_print_the_same_error(tmp_path, capsys, ejection_log):
    # A 1.49-period step near the log's end, which a sensor_interval 0.9%
    # short turns into a step error, and g_az = 1e308, which overflows the
    # estimator on its first armed tick. The replay meets the overflow
    # first; the sweep must report it too, not the later step.
    t = ejection_log.t.copy()
    t[-5:] += 0.49 * 0.002
    log = flightlog.FlightLog(
        ejection_log.sample_rate_hz, t, ejection_log.gyro, ejection_log.accel_z, ejection_log.rotor_speeds
    )
    log_path = tmp_path / "stepped.csv"
    flightlog.save_log(log, log_path)
    short = 0.002 * 0.991
    values = {"g_az": 1e308, "sensor_interval": short, "estimator_interval": 10 * short}
    config_path = tmp_path / "tripping.cfg"
    config_path.write_text(format_config(config_from_dict(config_to_dict(default_config()) | values)))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"parameters": {"k_threshold": [0.2]}}))
    assert run_cli("detect", "--log", str(log_path), "--config", str(config_path)) == 1
    detect_err = capsys.readouterr().err.splitlines()
    out_dir = tmp_path / "out"
    argv = ["--logs", str(log_path), "--config", str(config_path), "--spec", str(spec_path), "--out-dir", str(out_dir)]
    assert run_cli("sweep", *argv) == 1
    sweep_err = capsys.readouterr().err.splitlines()
    assert detect_err == sweep_err == ["error: innovation variance s=nan is not finite and positive"]


@pytest.mark.parametrize(
    ("shift", "scale", "error"),
    [
        (0.49, 0.991, "timestamp step 0.00298 s at t=1.95298 is outside (0.5, 1.5) x sensor_interval 0.001982 s"),
        (
            -0.496,
            1.009,
            "timestamp step 0.001008 s at t=1.9510079999999999 is outside (0.5, 1.5) x sensor_interval 0.002018 s",
        ),
    ],
    ids=["long-step", "short-step"],
)
def test_detect_step_error_after_a_clean_load_is_the_serial_replays(tmp_path, capsys, ejection_log, shift, scale, error):
    # A 1.49-period step near the log's end (or a 0.504-period one) loads
    # clean, but a sensor_interval 0.9% short (or long) turns it into a step
    # push rejects, with no estimator overflow. The block replay's
    # conditioning flags it and replays the log serially, so detect prints
    # the streamed replay's error line and exit code, and writes no ticks
    # file.
    t = ejection_log.t.copy()
    t[-5:] += shift * 0.002
    log = flightlog.FlightLog(
        ejection_log.sample_rate_hz, t, ejection_log.gyro, ejection_log.accel_z, ejection_log.rotor_speeds
    )
    log_path = tmp_path / "stepped.csv"
    flightlog.save_log(log, log_path)
    interval = 0.002 * scale
    values = {"sensor_interval": interval, "estimator_interval": 10 * interval}
    config_path = tmp_path / "off_rate.cfg"
    config_path.write_text(format_config(config_from_dict(config_to_dict(default_config()) | values)))
    out_csv = tmp_path / "ticks.csv"
    assert run_cli("detect", "--log", str(log_path), "--config", str(config_path), "--out", str(out_csv)) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {error}"]
    assert captured.out == ""
    assert not out_csv.exists()


def test_sweep_unknown_parameter_fails_before_running(tmp_path, capsys):
    log = simulate_log(tmp_path, "a.csv")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"parameters": {"warp_factor": [9.0]}}))
    code = run_cli(
        "sweep",
        "--logs",
        str(log),
        "--spec",
        str(spec_path),
        "--out-dir",
        str(tmp_path / "out"),
    )
    assert code == 2
    assert "warp_factor" in capsys.readouterr().err


BAD_SPECS = {
    "not-a-mapping": ('{"parameters": [1, 2]}', 'expected {"parameters": '),
    "value-list-is-a-string": ('{"parameters": {"g_p": "12"}}', 'expected {"parameters": '),
    "no-parameters": ('{"sets": {}}', 'expected {"parameters": '),
    "out-of-range": ('{"parameters": {"k_threshold": [2.0]}}', "k_threshold must be in (0, 1)"),
    "nan": ('{"parameters": {"g_p": [NaN]}}', "g_p must be finite and strictly positive, got nan"),
    "unknown-name": ('{"parameters": {"warp_factor": [9.0]}}', "unknown configuration key: 'warp_factor'"),
    # ``json`` keeps the last of two values: only 0.35 would be swept.
    "repeated-name": (
        '{"parameters": {"k_threshold": [0.15], "k_threshold": [0.35]}}',
        "repeated parameter 'k_threshold'",
    ),
    "bool-value": ('{"parameters": {"process_noise_q": [true]}}', "parameter 'process_noise_q' value true is not a number"),
    "string-value": ('{"parameters": {"g_p": ["1e1"]}}', "parameter 'g_p' value \"1e1\" is not a number"),
    "empty-list": ('{"parameters": {"k_threshold": []}}', "parameter 'k_threshold' has no values"),
    "empty-parameters": ('{"parameters": {}}', "'parameters' names no config key"),
    # 1e20 once crashed the sweep with an IndexError, and 1e308 exited without naming the key.
    "huge-estimator-interval": ('{"parameters": {"estimator_interval": [1e20]}}', "estimator_interval (1e+20 s)"),
    "overflowing-estimator-interval": (
        '{"parameters": {"estimator_interval": [1e308]}}',
        "estimator_interval (1e+308 s) is more than 2**53 sensor_intervals",
    ),
    "repeated-value": ('{"parameters": {"k_threshold": [0.2, 0.2]}}', "parameter 'k_threshold' repeats the value 0.2"),
    # An integer past the float range once exited without naming the parameter.
    "int-too-large-for-a-float": ('{"parameters": {"g_p": [1%s]}}' % ("0" * 400), "parameter 'g_p' value is too large"),
    # Only "parameters" is read: a base would be dropped without a word.
    "unknown-top-level-key": (
        '{"parameters": {"k_threshold": [0.2]}, "base": {"g_p": 9}}',
        "unknown top-level key 'base'",
    ),
}


@pytest.mark.parametrize("spec_text, message", BAD_SPECS.values(), ids=BAD_SPECS.keys())
@pytest.mark.parametrize("command", ["sweep", "report"])
def test_bad_sweep_spec_is_usage_error(tmp_path, capsys, command, spec_text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    out_dir = tmp_path / "out"
    if command == "sweep":
        log = _write_hover_log(tmp_path / "hover.csv")
        argv = ["sweep", "--logs", str(log), "--out-dir", str(out_dir)]
    else:
        results = tmp_path / "results.csv"
        results.write_text("param_set_id,log_id,delay_s,false_alarms,missed\n")
        argv = ["report", "--results", str(results), "--out", str(out_dir)]
    assert run_cli(*argv, "--spec", str(spec)) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: bad sweep spec {spec}: ") and message in err[0]
    assert captured.out == "" and not out_dir.exists()


def test_report_reads_a_spec_with_a_byte_order_mark(tmp_path, capsys):
    # Editors on Windows save JSON with a UTF-8 byte-order mark; the spec loader skips it.
    spec = tmp_path / "spec.json"
    spec.write_text('\ufeff{"parameters": {"k_threshold": [0.15]}}', encoding="utf-8")
    results = tmp_path / "results.csv"
    results.write_text("param_set_id,log_id,delay_s,false_alarms,missed\nset_01_k_threshold=0.15,a,0.1,0,0\n")
    assert run_cli("report", "--results", str(results), "--spec", str(spec)) == 0
    assert "k_threshold" in capsys.readouterr().out


def test_sweep_empty_glob_is_usage_error(tmp_path, capsys):
    code = run_cli(
        "sweep", "--logs", str(tmp_path / "none-*.csv"), "--out-dir", str(tmp_path / "out")
    )
    assert code == 2


def _refuse_to_load(path):
    raise AssertionError(f"load_log({path!r}) was called")


@pytest.mark.parametrize("jobs", ["0", "-3", "2"])
def test_sweep_jobs_other_than_one_is_usage_error(tmp_path, capsys, monkeypatch, jobs):
    # The sweep runs in one process; --jobs stays only as 1, and any other value exits 2 before a log is read.
    log = _write_hover_log(tmp_path / "hover.csv")
    monkeypatch.setattr(flightlog, "load_log", _refuse_to_load)
    code = run_cli("sweep", "--logs", str(log), "--out-dir", str(tmp_path / "out"), "--jobs", jobs)
    assert code == 2
    assert capsys.readouterr().err == f"error: --jobs must be 1, got {jobs}: the sweep runs in one process\n"
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_logs_that_share_a_log_id(tmp_path, capsys, monkeypatch):
    # Two logs named log.csv in different directories would both write rows
    # under log_id "log"; the sweep exits 2 before it reads either.
    for name in "ab":
        (tmp_path / "dup" / name).mkdir(parents=True)
    first = _write_hover_log(tmp_path / "dup" / "a" / "log.csv")
    second = _write_hover_log(tmp_path / "dup" / "b" / "log.csv")
    monkeypatch.setattr(flightlog, "load_log", _refuse_to_load)
    code = run_cli("sweep", "--logs", str(tmp_path / "dup" / "*" / "log.csv"), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == f"error: logs {first} and {second} share the log id 'log'\n"
    assert not (tmp_path / "out").exists()
