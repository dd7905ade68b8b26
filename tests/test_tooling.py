"""The benchmark's span tracer wraps package attributes by name; a rename must fail here."""

import importlib.util
from pathlib import Path

from loedetect import cli, simulator
from loedetect.detector import Conditioner, default_config
from loedetect.flightlog import save_log
from loedetect.simulator import SensorNoiseModel, fly_scenario

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


def test_detect_calls_each_layer_through_the_detector_names(tmp_path):
    # The per-layer split counts calls through the names the detector looks
    # up; a refactor that stops calling through them would read zero here.
    log = fly_scenario("hover", duration=1.0, noise=SensorNoiseModel(seed=3))
    path = tmp_path / "hover.csv"
    save_log(log, path)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["detect", "--log", str(path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["filters.filter_step.calls"][0] == len(log)
    assert metrics["detector.process_sample.calls"][0] == len(log)
    assert metrics["filters.differentiate.calls"][0] == len(log) // 10
    # A refactor that inlined the estimator or the hypothesis test would read zero here.
    conditioner = Conditioner(default_config())
    armed_ticks = sum(conditioner.push(raw) is not None for raw in log.samples())
    assert armed_ticks > 0
    assert metrics["kalman.step.calls"][0] == armed_ticks
    assert metrics["decision.decide.calls"][0] == armed_ticks
    # One more for the initial probabilities Detector.__init__ publishes.
    assert metrics["decision.failure_probabilities.calls"][0] == armed_ticks + 1
    # The log is checked once, when load_log builds it.
    assert metrics["flightlog.FlightLog.validate.calls"][0] == 1


def test_simulator_steps_per_sample_and_corrupts_sensors_once_per_flight():
    # The simulator's layer split: one dynamics step per sample, and one
    # sensor-model call for the whole flight.
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        log = simulator.fly_scenario("wind", duration=0.3, noise=SensorNoiseModel(seed=4))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["simulator.fly_scenario.calls"][0] == 1
    assert metrics["simulator.dynamics_step.calls"][0] == len(log) == 150
    assert metrics["simulator.synthesize_sensors.calls"][0] == 1
