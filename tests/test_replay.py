import math

import numpy as np
import pytest

from loedetect.decision import DetectionStatus, failure_probability
from loedetect import decision, kalman, replay
from loedetect import detector as detector_module
from loedetect.detector import Conditioner, Detector, DetectorOutput, config_with, default_config
from loedetect.replay import (
    SweepSpec,
    box_stats,
    default_sweep_spec,
    evaluate,
    evaluate_log,
    read_results_csv,
    render_report,
    run_detector,
    run_sweep,
    summarize_sweep,
    write_results_csv,
    write_summary_csv,
)
from loedetect.simulator import SensorNoiseModel, fly_scenario
from oracles import sweep_probability_evaluations


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


def test_evaluate_rejects_empty_outputs():
    with pytest.raises(ValueError):
        evaluate([], ground_truth=None)


def test_replay_equals_streaming(ejection_log):
    config = default_config()
    harness_outputs = run_detector(ejection_log, config)
    detector = Detector(config)
    manual = [detector.process_sample(s) for s in ejection_log.samples()]
    assert len(harness_outputs) == len(manual) == len(ejection_log)
    for a, b in zip(harness_outputs, manual):
        assert a.timestamp == b.timestamp
        assert np.array_equal(a.k_hat, b.k_hat)
        assert np.array_equal(a.variances, b.variances)
        assert np.array_equal(a.p_fail, b.p_fail)
        assert a.status == b.status and a.armed == b.armed


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


def test_sweep_rejects_unknown_parameter_before_any_run():
    spec = SweepSpec(base=default_config(), variations=(("not_a_knob", (1.0,)),))
    with pytest.raises(KeyError, match="not_a_knob"):
        spec.parameter_sets()


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


def test_single_pair_sweep_equals_direct_evaluation(ejection_log):
    spec = SweepSpec(base=default_config(), variations=())
    rows = run_sweep([ejection_log], spec)
    direct = evaluate_log(ejection_log, default_config())
    assert len(rows) == 1
    assert rows[0].delay_s == direct.detection_delay
    assert rows[0].false_alarms == direct.false_alarm_count
    assert rows[0].missed == direct.missed_detection


def test_parallel_sweep_matches_serial(ejection_log):
    spec = SweepSpec(
        base=default_config(),
        variations=(("probability_threshold", (0.8, 0.99)),),
    )
    logs = [ejection_log, fly_scenario("hover", duration=1.0, noise=SensorNoiseModel(seed=12))]
    serial = run_sweep(logs, spec, jobs=1)
    parallel = run_sweep(logs, spec, jobs=2)
    assert serial == parallel


class _InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers``, maps in-process."""

    def __init__(self, created, max_workers):
        created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_sweep_starts_at_most_one_worker_per_log(monkeypatch):
    created = []
    monkeypatch.setattr(replay, "ProcessPoolExecutor", lambda max_workers: _InlineExecutor(created, max_workers))
    spec = SweepSpec(base=default_config(), variations=())
    logs = [fly_scenario("ground_idle", duration=0.2, noise=SensorNoiseModel(seed=s)) for s in (1, 2)]
    rows = run_sweep(logs, spec, jobs=64)
    assert created == [2]
    assert rows == run_sweep(logs, spec, jobs=1)
    assert run_sweep(logs[:1], spec, jobs=64) == rows[:1]
    assert created == [2]  # one log runs serially


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
    assert all(Conditioner(base).push(raw) is None for raw in idle.samples())
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
    # k_threshold) and sub-threshold (tick, actuator) pair.
    assert calls == []
    assert len(evaluations) == sweep_probability_evaluations(logs, configs) > 0
    assert [(r.param_set_id, r.log_id) for r in rows] == [
        (p.set_id, log_id) for p in spec.parameter_sets() for log_id in ("eject", "hover", "idle")
    ]
    for row, (pset, log) in zip(rows, [(p, log) for p in spec.parameter_sets() for log in logs]):
        direct = evaluate_log(log, pset.config)
        assert (row.delay_s, row.false_alarms, row.missed) == (
            direct.detection_delay,
            direct.false_alarm_count,
            direct.missed_detection,
        ), (row, direct)
    assert run_sweep(logs, spec, log_ids=["eject", "hover", "idle"], jobs=2) == rows


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
        P = state.P
        P[3, 3] = abs(P[3, 3])
        new = self.step(kalman.EstimatorState(state.x, P), H, z, noise)
        if n != negative_at:
            return new
        P = new.P
        P[3, 3] = -P[3, 3]
        return kalman.EstimatorState(new.x, P)


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
            evaluate_log(ejection_log, pset.config)
        except (ValueError, ArithmeticError) as exc:
            expected = exc
            break
    assert expected is not None
    monkeypatch.setattr(kalman, "step", _FaultyStep(faults))
    with pytest.raises((ValueError, ArithmeticError)) as caught:
        run_sweep([ejection_log], spec)
    assert type(caught.value) is type(expected)
    assert str(caught.value) == str(expected)


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
