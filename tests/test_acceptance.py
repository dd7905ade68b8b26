"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The ejection corpus is generated once per session (see conftest).
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from loedetect import kalman
from loedetect.detector import Detector, default_config
from loedetect.decision import failure_probability
from loedetect.effectiveness import DEFAULT_GAINS, observation_matrix
from loedetect.filters import N_CHANNELS, FilterDesign, FilterState, design_lowpass, filter_step
from loedetect.replay import default_sweep_spec, evaluate, replay_log, run_detector, run_sweep, summarize_sweep
from loedetect.simulator import SensorNoiseModel, fly_scenario

from budget import step_runtime_budget
from oracles import frequency_response, oracle_ticks_csv, state_arrays, state_from_arrays

DELAY_WINDOW = (0.02, 0.20)


def _verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _replay_corpus(logs):
    config = default_config()
    results = []
    for log in logs:
        results.append(evaluate(run_detector(log, config), log.ground_truth()))
    return results


def test_criterion_01_detection_delay_envelope(ejection_corpus):
    logs, build_seconds = ejection_corpus
    t0 = time.monotonic()
    results = _replay_corpus(logs)
    replay_seconds = time.monotonic() - t0
    elapsed = build_seconds + replay_seconds

    delays = [r.detection_delay for r in results if r.detection_delay is not None]
    in_window = sum(1 for d in delays if DELAY_WINDOW[0] <= d <= DELAY_WINDOW[1])
    missed = sum(r.missed_detection for r in results)
    false_alarms = sum(r.false_alarm_count for r in results)
    ok = (
        len(logs) >= 26
        and len(delays) == len(logs)
        and in_window / len(logs) >= 0.95
        and missed == 0
        and false_alarms == 0
        and elapsed < 120.0
    )
    detail = (
        f"{in_window}/{len(logs)} delays in [{DELAY_WINDOW[0]}, {DELAY_WINDOW[1]}] s, "
        f"missed={missed}, false_alarms={false_alarms}, "
        f"delay range [{min(delays):.3f}, {max(delays):.3f}] s, runtime {elapsed:.1f} s "
        f"(corpus build {build_seconds:.1f} s, replay {replay_seconds:.1f} s)"
    )
    _verdict("01 detection-delay-envelope", ok, detail)


def test_criterion_02_correct_isolation(ejection_corpus):
    logs, _ = ejection_corpus
    results = _replay_corpus(logs)
    mismatches = [
        (i, r.detected_actuator, log.fault_actuator)
        for i, (log, r) in enumerate(zip(logs, results))
        if r.detected_actuator != log.fault_actuator
    ]
    _verdict(
        "02 correct-isolation",
        not mismatches,
        f"{len(logs) - len(mismatches)}/{len(logs)} scenarios latched the ejected actuator",
    )


def test_criterion_03_kalman_oracle_equivalence():
    def reference_step(x, P, H, z, q, r):
        p_pred = P + q * np.eye(4)
        s = r * np.eye(3) + H @ p_pred @ H.T
        gain = p_pred @ H.T @ np.linalg.inv(s)
        return x + gain @ (z - H @ x), (np.eye(4) - gain @ H) @ p_pred

    rng = np.random.default_rng(101)
    gains = DEFAULT_GAINS
    noise = kalman.NoiseConfig()
    mine = kalman.init()
    x_ref, p_ref = state_arrays(mine)
    worst_rel = 0.0
    worst_asym = 0.0
    worst_eig = math.inf
    k_true = np.array([1.0, 0.7, 0.1, 1.2])
    for _ in range(100):
        H = observation_matrix(gains, rng.uniform(300.0, 1200.0, 4))
        z = H @ k_true + rng.normal(0.0, 0.5, 3)
        mine = kalman.step(mine, H, z, noise)
        x_ref, p_ref = reference_step(x_ref, p_ref, H, z, 0.1, 1.0)
        x_ref = np.clip(x_ref, kalman.K_MIN, kalman.K_MAX)  # as step clamps its estimates
        x, P = state_arrays(mine)
        worst_rel = max(
            worst_rel,
            np.linalg.norm(x - x_ref) / max(1.0, np.linalg.norm(x_ref)),
            np.linalg.norm(P - p_ref) / np.linalg.norm(p_ref),
        )
        worst_asym = max(worst_asym, np.abs(P - P.T).max())
        worst_eig = min(worst_eig, np.linalg.eigvalsh(P).min())
    ok = worst_rel <= 1e-9 and worst_asym <= 1e-12 and worst_eig >= -1e-10
    _verdict(
        "03 kalman-oracle-equivalence",
        ok,
        f"max rel err {worst_rel:.2e}, max asymmetry {worst_asym:.2e}, min eig {worst_eig:.2e}",
    )


def test_criterion_04_hypothesis_test_oracle():
    rng = np.random.default_rng(102)
    threshold = 0.25
    worst = 0.0
    for _ in range(1000):
        k_hat = rng.uniform(-0.5, 2.0)
        variance = 10.0 ** rng.uniform(-4, 0)
        sigma = math.sqrt(variance)
        expected, _ = quad(
            lambda x: math.exp(-0.5 * ((x - k_hat) / sigma) ** 2)
            / (sigma * math.sqrt(2 * math.pi)),
            k_hat - 40 * sigma,
            threshold,
            limit=200,
        )
        worst = max(worst, abs(failure_probability(k_hat, variance, threshold) - max(0.0, expected)))
    boundary = failure_probability(threshold, 0.37, threshold)
    ok = worst <= 1e-8 and boundary == 0.5
    _verdict(
        "04 hypothesis-test-oracle",
        ok,
        f"max |p - quadrature| = {worst:.2e} over 1000 draws, p at threshold = {boundary}",
    )


def test_criterion_05_filter_fidelity():
    design = FilterDesign()
    dt = default_config().sensor_interval
    c = design_lowpass(design, dt)
    dc = math.fsum((c.b0, c.b1, c.b2)) / math.fsum((1.0, c.a1, c.a2))

    mag = abs(frequency_response(c, design.natural_frequency, dt))
    mag_target = 1.0 / (2.0 * design.damping_ratio)
    mag_err = abs(mag - mag_target) / mag_target

    state = FilterState(c)
    filter_step(state, [0.0] * N_CHANNELS)
    step_out = np.array([filter_step(state, [1.0] * N_CHANNELS)[0] for _ in range(3000)])
    overshoot = step_out.max() - 1.0
    overshoot_target = math.exp(
        -math.pi * design.damping_ratio / math.sqrt(1.0 - design.damping_ratio**2)
    )
    overshoot_err = abs(overshoot - overshoot_target) / overshoot_target

    ok = dc == 1.0 and mag_err <= 0.02 and overshoot_err <= 0.03
    _verdict(
        "05 filter-fidelity",
        ok,
        f"dc={dc!r}, |H(wn)|={mag:.6f} vs {mag_target:.6f} ({mag_err:.2e}), "
        f"overshoot {overshoot:.5f} vs {overshoot_target:.5f} ({overshoot_err:.2e})",
    )


def test_criterion_06_sensitivity_reproduction(ejection_corpus):
    logs, _ = ejection_corpus
    spec = default_sweep_spec()
    sets = spec.parameter_sets()
    t0 = time.monotonic()
    rows = run_sweep(logs, spec)
    elapsed = time.monotonic() - t0
    summaries = {s.param_set_id: s for s in summarize_sweep(rows, spec)}
    base_median = summaries["set_00_base"].delays.median
    worst_shift = 0.0
    for s in summaries.values():
        if s.parameter in ("g_p", "g_q", "g_az"):
            worst_shift = max(worst_shift, abs(s.delays.median - base_median))
    two_ticks = 2.0 * default_config().estimator_interval
    ok = len(sets) == 19 and len(rows) == 19 * len(logs) and worst_shift < two_ticks
    _verdict(
        "06 sensitivity-reproduction",
        ok,
        f"{len(sets)} parameter sets x {len(logs)} logs = {len(rows)} runs, "
        f"max |median shift| under gain variation "
        f"{worst_shift * 1e3:.1f} ms < {two_ticks * 1e3:.0f} ms, sweep runtime {elapsed:.1f} s",
    )


def test_criterion_07_no_excitation_variance_growth():
    noise = kalman.NoiseConfig()
    st = state_from_arrays(np.ones(4), 0.25 * np.eye(4))
    H = np.zeros((3, 4))
    z = np.zeros(3)
    exact = True
    for _ in range(50):
        out = kalman.step(st, H, z, noise)
        (x, P), (x_before, P_before) = state_arrays(out), state_arrays(st)
        exact = exact and np.array_equal(P.diagonal(), P_before.diagonal() + noise.process_noise_q)
        exact = exact and np.array_equal(x, x_before)
        st = out
    _verdict(
        "07 no-excitation-variance-growth",
        exact,
        "diag(P) grew by exactly q for 50 zero-observation steps",
    )


def test_criterion_08_takeoff_gate_blocks_ground_alarms():
    log = fly_scenario("ground_idle", duration=30.0, noise=SensorNoiseModel(seed=50))
    outputs = run_detector(log, default_config())
    armed = any(o.armed for o in outputs)
    latched = outputs[-1].status.any_failed()
    ok = not armed and not latched
    _verdict(
        "08 takeoff-gate",
        ok,
        f"{len(log)} ground-idle samples: armed={armed}, latched={latched}",
    )


def test_criterion_09_performance_budget():
    # One run's post/pre ratio follows machine load, so the gate takes the
    # median of three runs; every run must still latch and meet the mean.
    reports = [step_runtime_budget(default_config(), n_samples=100_000) for _ in range(3)]
    ratios = [r.post_fault_mean_us / r.pre_fault_mean_us for r in reports]
    median_ratio = sorted(ratios)[1]
    ok = all(r.mean_us < 100.0 and r.latched for r in reports) and median_ratio < 1.5
    _verdict(
        "09 performance-budget",
        ok,
        f"mean {max(r.mean_us for r in reports):.1f} us/sample at worst of 3 runs "
        f"(p99 {max(r.p99_us for r in reports):.1f}), post/pre-fault ratios "
        f"{', '.join(f'{x:.2f}' for x in ratios)} (median {median_ratio:.2f}), "
        f"latched={[r.latched for r in reports]}",
    )


def test_criterion_10_replay_equivalence(ejection_corpus, tmp_path):
    # Streaming against the offline block replay, two different code paths:
    # the ticks CSV spells every output's timestamp, estimates, variances,
    # probabilities, armed flag and latch flags exactly (repr), and the final
    # status holds the latch times.
    logs, _ = ejection_corpus
    log = logs[0]
    config = default_config()
    detector = Detector(config)
    streamed = [detector.process_sample(raw) for raw in log.samples()]
    ticks = tmp_path / "ticks.csv"
    final = replay_log(log, config, ticks)
    identical = ticks.read_bytes() == oracle_ticks_csv(streamed) and final == streamed[-1].status
    _verdict(
        "10 replay-equivalence",
        identical,
        f"streaming vs offline replay bit-identical over {len(log)} samples",
    )
