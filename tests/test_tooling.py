"""The benchmark's span tracer wraps package attributes by name; a rename must fail here."""

import importlib.util
from pathlib import Path

import pytest

from loedetect import cli, kalman, replay, simulator
from loedetect.detector import Conditioner, Detector, config_with, default_config
from loedetect.flightlog import load_log, save_log
from loedetect.replay import default_sweep_spec
from loedetect.simulator import FaultEvent, SensorNoiseModel, fly_scenario
from oracles import sweep_probability_evaluations

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_target_resolves():
    spans = _load_spans()
    missing = [name for owner, attr, name in spans.TARGETS if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_detect_calls_each_layer_through_the_detector_names(tmp_path, monkeypatch):
    # The per-layer split counts calls through the names the detector looks
    # up; a refactor that stops calling through them would read zero here.
    log = fly_scenario("hover", duration=1.0, noise=SensorNoiseModel(seed=3))
    path = tmp_path / "hover.csv"
    save_log(log, path)
    # detect replays a clean log in blocks: the filter bank runs as columns
    # and the differencing on arrays, so it calls neither filter_step,
    # differentiate nor its serial-replay fallback; the estimator and the
    # decision still run through the detector's names, once per armed tick.
    replayed = []
    replay_serially = replay._replay_serially
    monkeypatch.setattr(replay, "_replay_serially", lambda *args: replayed.append(args) or replay_serially(*args))
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["detect", "--log", str(path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["filters.filter_step.calls"][0] == 0
    assert len(replayed) == 0
    assert metrics["detector.process_sample.calls"][0] == 0
    assert metrics["filters.differentiate.calls"][0] == 0
    # A refactor that inlined the estimator or the hypothesis test would read zero here.
    conditioner = Conditioner(default_config())
    armed_ticks = sum(conditioner.push(*row) is not None for row in log.rows())
    assert armed_ticks > 0
    assert metrics["kalman.step.calls"][0] == armed_ticks
    assert metrics["decision.decide.calls"][0] == armed_ticks
    # One more for the initial probabilities Detector.__init__ publishes.
    assert metrics["decision.failure_probabilities.calls"][0] == armed_ticks + 1
    # The log is checked once, when load_log builds it.
    assert metrics["flightlog.FlightLog.validate.calls"][0] == 1


def test_stream_counts_follow_a_non_default_estimator_interval():
    # Five samples per estimator tick: the filter bank runs on every sample
    # and the differencing on every fifth; a partial period at the end makes
    # no tick.
    config = config_with(default_config(), "estimator_interval", 5 * default_config().sensor_interval)
    log = fly_scenario("hover", duration=0.506, noise=SensorNoiseModel(seed=5))
    assert len(log) % 5 != 0
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        detector = Detector(config)
        for raw in log.samples():
            detector.process_sample(raw)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["detector.process_sample.calls"][0] == len(log)
    assert metrics["filters.filter_step.calls"][0] == len(log)
    assert metrics["filters.differentiate.calls"][0] == len(log) // 5


def test_sweep_runs_each_kernel_once_per_distinct_key_and_armed_tick(tmp_path, monkeypatch):
    # The sweep's layer split: conditioning runs on lanes, one pass per
    # distinct conditioning key, and the estimator on lanes, one lane per
    # (log, distinct estimator key), stepped together once per armed tick
    # while their runs last, so no float kernel runs.
    # There is no per-tick decision: the failure probability runs once per
    # distinct (estimator key, k_threshold) on each sub-threshold (tick,
    # actuator) pair, and each config latches by first exceedance.
    for i, (scenario, actuator) in enumerate((("hover", 3), ("wind", 1))):
        fault = FaultEvent(time=1.2, actuator_index=actuator)
        log = fly_scenario(scenario, duration=1.5, fault=fault, noise=SensorNoiseModel(seed=30 + i))
        save_log(log, tmp_path / f"log_{i}.csv")
    logs = [load_log(path) for path in sorted(tmp_path.glob("log_*.csv"))]
    configs = [pset.config for pset in default_sweep_spec().parameter_sets()]

    def armed_ticks(log, config):
        conditioner = Conditioner(config)
        return sum(conditioner.push(*row) is not None for row in log.rows())

    estimator_runs = {config.estimator_key(): config for config in configs}.values()
    threshold_runs = {(config.estimator_key(), config.decision.k_threshold) for config in configs}
    decision_runs = set(configs)
    assert 1 < len(estimator_runs) < len(threshold_runs) < len(decision_runs) < len(configs)
    lane_ticks = [armed_ticks(log, c) for log in logs for c in estimator_runs]
    expected_evaluations = sweep_probability_evaluations(logs, configs)
    assert min(lane_ticks) > 0
    assert expected_evaluations > 0

    evaluations = []
    real_probability = replay.failure_probability
    monkeypatch.setattr(
        replay, "failure_probability", lambda *args: evaluations.append(args) or real_probability(*args)
    )
    widths = []
    real_step_lanes = kalman.step_lanes
    monkeypatch.setattr(
        kalman, "step_lanes", lambda work, *args: widths.append(work.width) or real_step_lanes(work, *args)
    )
    replays = []  # a clean sweep never reaches its serial-replay fallback
    monkeypatch.setattr(replay, "_replay_serially", lambda *args: replays.append(args))
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        argv = ["sweep", "--logs", str(tmp_path / "log_*.csv"), "--out-dir", str(tmp_path / "out"), "--jobs", "1"]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["filters.filter_step.calls"][0] == 0
    assert metrics["filters.differentiate.calls"][0] == 0
    assert metrics["kalman.step.calls"][0] == 0
    assert widths == [sum(n > t for n in lane_ticks) for t in range(max(lane_ticks))]
    assert metrics["decision.decide.calls"][0] == 0
    assert metrics["decision.failure_probabilities.calls"][0] == 0
    assert len(evaluations) == expected_evaluations
    assert replays == []


@pytest.mark.parametrize("scenario", ["hover", "step", "wind"])
def test_simulator_steps_per_sample_and_corrupts_sensors_once_per_flight(scenario):
    # The simulator's layer split: one dynamics step per sample, and one
    # sensor-model call for the whole flight.
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        log = simulator.fly_scenario(scenario, duration=0.3, noise=SensorNoiseModel(seed=4))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["simulator.fly_scenario.calls"][0] == 1
    assert metrics["simulator.dynamics_step.calls"][0] == len(log) == 150
    assert metrics["simulator.synthesize_sensors.calls"][0] == 1
