"""Property tests: invariants of the filter design and the estimator update."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loedetect import kalman
from loedetect.effectiveness import EffectivenessGains, observation_matrix
from loedetect.filters import FilterDesign, FilterState, design_lowpass
from loedetect.kalman import NoiseConfig

from oracles import narrow_bank_step, state_arrays, state_from_arrays

# Derandomized, so the suite stays deterministic, and with no example database.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def filter_designs(draw):
    dt = draw(st.floats(1e-4, 1e-2))
    wn = draw(st.floats(1.0, 0.9 * math.pi / dt))
    return FilterDesign(natural_frequency=wn, damping_ratio=draw(st.floats(0.05, 0.95))), dt


@PROPERTY
@given(filter_designs(), st.floats(-1e3, 1e3))
def test_filter_has_unity_dc_gain(design_and_interval, level):
    c = design_lowpass(*design_and_interval)
    assert math.fsum((c.b0, c.b1, c.b2)) == math.fsum((1.0, c.a1, c.a2))
    state = FilterState(c)
    out = [narrow_bank_step(state, [level])[0] for _ in range(300)]
    assert np.abs(np.array(out) - level).max() <= 1e-9 * max(1.0, abs(level))


gain_values = st.floats(1e-6, 1e-3)
speeds = st.lists(st.floats(0.0, 1500.0), min_size=4, max_size=4)
measurements = st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3)


@PROPERTY
@given(
    gains=st.tuples(gain_values, gain_values, st.floats(1e-7, 1e-4)),
    ticks=st.lists(st.tuples(speeds, measurements), min_size=1, max_size=20),
    q=st.floats(1e-4, 10.0),
    r=st.floats(1e-2, 100.0),
    initial_variance=st.floats(0.0, 10.0),
)
def test_step_keeps_covariance_symmetric_and_psd(gains, ticks, q, r, initial_variance):
    gains = EffectivenessGains(*gains)
    noise = NoiseConfig(q, r)
    state = state_from_arrays(np.ones(4), initial_variance * np.eye(4))
    for w, z in ticks:
        state = kalman.step(state, observation_matrix(gains, np.array(w)), np.array(z), noise)
        x, P = state_arrays(state)
        assert np.isfinite(P).all()
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-12 * np.abs(P).max()
        assert np.all((kalman.K_MIN <= x) & (x <= kalman.K_MAX))

    # no excitation: x is kept and the diagonal grows by exactly q
    grown = kalman.step(state, np.zeros((3, 4)), np.array(ticks[0][1]), noise)
    (grown_x, grown_P), (x, P) = state_arrays(grown), state_arrays(state)
    assert np.array_equal(grown_x, x)
    assert np.array_equal(grown_P.diagonal(), P.diagonal() + q)
    assert np.array_equal(grown_P, grown_P.T)
