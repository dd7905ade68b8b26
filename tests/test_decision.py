import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from loedetect.decision import (
    DecisionConfig,
    DetectionStatus,
    decide,
    failure_probabilities,
    failure_probability,
    first_exceedance,
)

THRESHOLD = 0.25


def gaussian_tail_oracle(k_hat, variance, threshold):
    """Numerical integration of the Gaussian density over (-inf, threshold]."""
    sigma = math.sqrt(variance)

    def pdf(x):
        return math.exp(-0.5 * ((x - k_hat) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

    value, _ = quad(pdf, k_hat - 40 * sigma, threshold, limit=200)
    return max(0.0, value)


def test_probability_is_half_at_threshold():
    for variance in (1e-6, 0.01, 1.0, 100.0):
        assert failure_probability(THRESHOLD, variance, THRESHOLD) == 0.5


def test_healthy_estimate_gives_zero_probability():
    assert failure_probability(1.0, 1e-4, THRESHOLD) == 0.0


def test_textbook_value():
    # (0.25 - 0.1) / sqrt(0.01) = 1.5 standard deviations
    p = failure_probability(0.1, 0.01, THRESHOLD)
    assert abs(p - 0.93319) < 1e-5


def test_zero_variance_degenerates_to_indicator():
    assert failure_probability(0.1, 0.0, THRESHOLD) == 1.0
    assert failure_probability(0.9, 0.0, THRESHOLD) == 0.0
    assert failure_probability(THRESHOLD, 0.0, THRESHOLD) == 0.5


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        failure_probability(1.0, -1e-9, THRESHOLD)


def test_reflection_symmetry():
    rng = np.random.default_rng(20)
    for _ in range(200):
        k_hat = rng.uniform(-0.5, 2.0)
        variance = 10.0 ** rng.uniform(-4, 1)
        total = failure_probability(k_hat, variance, THRESHOLD) + failure_probability(
            2 * THRESHOLD - k_hat, variance, THRESHOLD
        )
        assert abs(total - 1.0) <= 1e-12


def test_monotone_in_estimate_and_threshold():
    ks = np.linspace(-0.5, 2.0, 40)
    ps = [failure_probability(k, 0.05, THRESHOLD) for k in ks]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    ts = np.linspace(0.05, 0.95, 40)
    ps = [failure_probability(0.5, 0.05, t) for t in ts]
    assert all(a <= b for a, b in zip(ps, ps[1:]))


def test_large_variance_approaches_half_from_both_sides():
    below = failure_probability(0.0, 1e9, THRESHOLD)
    above = failure_probability(1.0, 1e9, THRESHOLD)
    assert 0.5 < below < 0.51
    assert 0.49 < above < 0.5


def test_against_numerical_integration_oracle():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        k_hat = rng.uniform(-0.5, 2.0)
        variance = 10.0 ** rng.uniform(-4, 0)
        expected = gaussian_tail_oracle(k_hat, variance, THRESHOLD)
        assert abs(failure_probability(k_hat, variance, THRESHOLD) - expected) <= 1e-8


def test_vector_form_matches_scalar():
    k = np.array([0.1, 0.9, 0.25, 1.4])
    v = np.array([0.01, 0.5, 0.2, 0.0])
    probs = failure_probabilities(k, v, THRESHOLD)
    for i in range(4):
        assert probs[i] == failure_probability(k[i], v[i], THRESHOLD)


@pytest.mark.parametrize("n_k, n_v", [(3, 3), (5, 5), (4, 3), (3, 4), (4, 5)])
def test_vector_form_rejects_anything_but_four_actuators(n_k, n_v):
    with pytest.raises(ValueError):
        failure_probabilities([0.5] * n_k, [0.1] * n_v, THRESHOLD)


def test_decide_latches_above_threshold_and_records_time():
    config = DecisionConfig()
    status = decide(np.array([0.0, 0.0, 0.95, 0.0]), DetectionStatus(), config, now=1.66)
    assert status.failed == (False, False, True, False)
    assert status.first_detection_time == (None, None, 1.66, None)
    assert status.failed_actuators() == (3,)


def test_decide_keeps_latch_when_probability_drops():
    config = DecisionConfig()
    latched = decide(np.array([0.0, 0.0, 0.95, 0.0]), DetectionStatus(), config, now=1.0)
    after = decide(np.array([0.0, 0.0, 0.1, 0.0]), latched, config, now=2.0)
    assert after.failed == (False, False, True, False)
    assert after.first_detection_time[2] == 1.0


def test_decide_requires_strictly_greater_probability():
    config = DecisionConfig()
    status = decide(np.full(4, config.probability_threshold), DetectionStatus(), config, now=1.0)
    assert status.failed == (False, False, False, False)


def test_decide_is_idempotent_for_unchanged_probs():
    config = DecisionConfig()
    probs = np.array([0.0, 0.99, 0.0, 0.0])
    once = decide(probs, DetectionStatus(), config, now=3.0)
    twice = decide(probs, once, config, now=4.0)
    assert twice is once  # no change, not even the timestamp


def test_decide_returns_input_when_only_latched_actuators_stay_above():
    config = DecisionConfig()
    latched = decide(np.array([0.0, 0.95, 0.0, 0.0]), DetectionStatus(), config, now=1.0)
    again = decide((0.0, 0.99, 0.5, 0.0), latched, config, now=2.0)
    assert again is latched


def test_decide_keeps_old_time_when_a_new_latch_joins():
    config = DecisionConfig()
    first = decide(np.array([0.0, 0.95, 0.0, 0.0]), DetectionStatus(), config, now=1.0)
    both = decide((0.0, 0.97, 0.0, 0.93), first, config, now=2.5)
    assert both.failed == (False, True, False, True)
    assert both.first_detection_time == (None, 1.0, None, 2.5)


def test_latched_set_never_shrinks():
    rng = np.random.default_rng(22)
    config = DecisionConfig()
    status = DetectionStatus()
    latched = set()
    for step in range(100):
        probs = rng.uniform(0.0, 1.0, 4)
        status = decide(probs, status, config, now=float(step))
        now_latched = set(status.failed_actuators())
        assert latched <= now_latched
        latched = now_latched


def test_decision_config_validation():
    with pytest.raises(ValueError):
        DecisionConfig(k_threshold=0.0)
    with pytest.raises(ValueError):
        DecisionConfig(k_threshold=1.0)
    with pytest.raises(ValueError):
        DecisionConfig(probability_threshold=0.5)
    with pytest.raises(ValueError):
        DecisionConfig(probability_threshold=1.0)


JUST_ABOVE_HALF = math.nextafter(0.5, 1.0)


@st.composite
def decision_runs(draw):
    """A ``DecisionConfig`` and a trajectory of ``(t, k_hat, variances)`` ticks.

    Estimates and variances come partly from small pools, so several
    actuators often share a value, sit exactly at ``k_threshold`` or have
    zero variance. The probability threshold is sometimes one of the run's
    own probabilities, so some ``p`` sit exactly at it.
    """
    k_threshold = draw(st.sampled_from([0.15, 0.25, 0.35]) | st.floats(0.01, 0.99))
    below, above = math.nextafter(k_threshold, 0.0), math.nextafter(k_threshold, 1.0)
    k_values = st.sampled_from([k_threshold, below, above, 0.0, 1.0, math.nan]) | st.floats(0.0, 1.5)
    variances = st.sampled_from([0.0, 1e-6, 1e-3]) | st.floats(0.0, 10.0)
    n_ticks = draw(st.integers(1, 12))
    ticks = [
        (0.02 * (i + 1), draw(st.tuples(*[k_values] * 4)), draw(st.tuples(*[variances] * 4)))
        for i in range(n_ticks)
    ]
    own = [
        p
        for _, k_hat, var in ticks
        for p in failure_probabilities(k_hat, var, k_threshold)
        if 0.5 < p < 1.0
    ]
    thresholds = st.sampled_from([JUST_ABOVE_HALF, 0.9]) | st.floats(
        0.5, 1.0, exclude_min=True, exclude_max=True
    )
    if own:
        thresholds |= st.sampled_from(own)
    return DecisionConfig(k_threshold, draw(thresholds)), ticks


def _sub_threshold_records(config, ticks):
    records = ([], [], [], [])
    for t, k_hat, variances in ticks:
        for i in range(4):
            if k_hat[i] < config.k_threshold:
                records[i].append((t, failure_probability(k_hat[i], variances[i], config.k_threshold)))
    return records


ONE_TICK_ALL_LATCH = (DecisionConfig(), [(0.02, (0.0, 0.0, 0.1, 1.0), (0.0, 0.0, 1e-3, 0.0))])
AT_THRESHOLD = (
    DecisionConfig(0.25, JUST_ABOVE_HALF),
    [(0.02, (0.25, 0.25, 0.25, 0.25), (0.0, 1e-3, 1.0, 0.0)), (0.04, (0.25, 0.2, 1.0, 0.25), (0.0, 0.0, 0.0, 1.0))],
)
P_AT_THRESHOLD = (
    DecisionConfig(0.25, failure_probability(0.1, 0.01, 0.25)),
    [(0.02, (0.1, 1.0, 1.0, 1.0), (0.01, 0.0, 0.0, 0.0)), (0.04, (0.09, 1.0, 1.0, 1.0), (0.01, 0.0, 0.0, 0.0))],
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(decision_runs())
@example(ONE_TICK_ALL_LATCH)
@example(AT_THRESHOLD)
@example(P_AT_THRESHOLD)
def test_first_exceedance_equals_folding_decide_over_every_tick(run):
    config, ticks = run
    status = DetectionStatus()
    for t, k_hat, variances in ticks:
        status = decide(failure_probabilities(k_hat, variances, config.k_threshold), status, config, now=t)
    assert first_exceedance(_sub_threshold_records(config, ticks), config) == status


def test_first_exceedance_edge_examples_latch_as_described():
    # The explicit examples above do hit the cases they are named after.
    config, ticks = ONE_TICK_ALL_LATCH
    status = first_exceedance(_sub_threshold_records(config, ticks), config)
    assert status.failed == (True, True, True, False)
    assert status.first_detection_time == (0.02, 0.02, 0.02, None)
    config, ticks = AT_THRESHOLD
    status = first_exceedance(_sub_threshold_records(config, ticks), config)
    assert status.failed == (False, True, False, False)
    assert status.first_detection_time == (None, 0.04, None, None)
    config, ticks = P_AT_THRESHOLD
    status = first_exceedance(_sub_threshold_records(config, ticks), config)
    assert status.first_detection_time == (0.04, None, None, None)
