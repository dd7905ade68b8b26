import math

import numpy as np
import pytest

from loedetect.filters import (
    CHANNELS,
    FilterDesign,
    FilterState,
    design_lowpass,
    differentiate,
    filter_step,
    frequency_response,
)

from oracles import OracleFilterState, narrow_bank_step

DT = 0.002
ZETA = 0.55
WN = 50.0


def fresh_bank():
    return FilterState(design_lowpass(FilterDesign(), DT))


def run_stream(values):
    state = fresh_bank()
    return np.array([narrow_bank_step(state, [v])[0] for v in values])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"natural_frequency": 0.0},
        {"natural_frequency": -5.0},
        {"damping_ratio": 0.0},
        {"damping_ratio": 1.0},
        {"damping_ratio": 1.3},
        {"sample_interval": 0.0},
        {"natural_frequency": 2000.0},  # above pi/0.002
    ],
)
def test_design_rejects_bad_parameters(kwargs):
    design = {k: v for k, v in kwargs.items() if k != "sample_interval"}
    with pytest.raises(ValueError):
        design_lowpass(FilterDesign(**design), kwargs.get("sample_interval", DT))


def test_dc_gain_is_exactly_one():
    c = design_lowpass(FilterDesign(), DT)
    assert math.fsum((c.b0, c.b1, c.b2)) / math.fsum((1.0, c.a1, c.a2)) == 1.0


def test_poles_strictly_inside_unit_circle():
    c = design_lowpass(FilterDesign(), DT)
    roots = np.roots([1.0, c.a1, c.a2])
    assert np.abs(roots).max() < 1.0


def test_constant_input_is_fixed_point():
    const = 3.7
    out = run_stream([const] * 500)
    assert np.max(np.abs(out - const)) < 1e-12


def test_magnitude_at_natural_frequency_matches_prototype():
    # |H(j*wn)| of the continuous prototype is 1/(2*zeta)
    c = design_lowpass(FilterDesign(), DT)
    mag = abs(frequency_response(c, WN, DT))
    expected = 1.0 / (2.0 * ZETA)
    assert abs(mag - expected) / expected < 0.02


def test_impulse_response_decays_below_1e6_of_peak():
    out = run_stream([1.0] + [0.0] * 6000)
    peak = np.abs(out).max()
    assert np.abs(out[-100:]).max() < 1e-6 * peak


def test_step_overshoot_matches_analytic_second_order():
    # overshoot of the continuous prototype: exp(-pi*zeta/sqrt(1-zeta^2))
    state = fresh_bank()
    narrow_bank_step(state, [0.0])  # warm start at zero
    out = np.array([narrow_bank_step(state, [1.0])[0] for _ in range(2000)])
    overshoot = out.max() - 1.0
    analytic = math.exp(-math.pi * ZETA / math.sqrt(1.0 - ZETA**2))
    assert abs(overshoot - analytic) <= 0.03 * analytic


def test_zero_input_gives_zero_output():
    out = run_stream([0.0] * 200)
    assert np.all(out == 0.0)


def test_identical_channels_are_bit_identical():
    state = fresh_bank()
    rng = np.random.default_rng(1)
    for _ in range(300):
        v = rng.normal()
        out = narrow_bank_step(state, [v, v])
        assert out[0] == out[1]


def test_channel_permutation_does_not_change_values():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=300)
    ys = rng.normal(size=300)
    s1 = fresh_bank()
    s2 = fresh_bank()
    for x, y in zip(xs, ys):
        a = narrow_bank_step(s1, [x, y])
        b = narrow_bank_step(s2, [y, x])
        assert a[0] == b[1] and a[1] == b[0]


def test_linearity_to_machine_precision():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=400)
    ys = rng.normal(size=400)
    a, b = 2.5, -1.25
    fx = run_stream(xs)
    fy = run_stream(ys)
    fmix = run_stream(a * xs + b * ys)
    assert np.allclose(fmix, a * fx + b * fy, rtol=1e-12, atol=1e-12)


def test_filter_step_maps_channels_correctly():
    state = FilterState(design_lowpass(FilterDesign(), DT))
    values = [1.0, 2.0, 3.0, -9.81, 500.0, 600.0, 700.0, 800.0]  # CHANNELS order
    out = filter_step(state, values)
    # warm start: constant input passes through on the first sample
    assert np.allclose(out[0:3], [1.0, 2.0, 3.0], rtol=1e-12)
    assert abs(out[3] - (-9.81)) < 1e-9
    assert np.allclose(out[4:8], [500.0, 600.0, 700.0, 800.0], rtol=1e-12)
    assert len(out) == len(CHANNELS)


def test_differentiate_first_sample_is_zero():
    assert differentiate(None, (0.02, 0.5, 0.0)) == (0.0, 0.0)


def test_differentiate_identical_rates_is_zero():
    assert differentiate((0.0, 0.1, 0.0), (0.02, 0.1, 0.0)) == (0.0, 0.0)


def test_differentiate_backward_difference_arithmetic():
    accel = differentiate((0.0, 0.10, 0.0), (0.02, 0.12, 0.0))
    assert accel == ((0.12 - 0.10) / (0.02 - 0.0), 0.0)
    assert abs(accel[0] - 1.0) < 1e-12


def test_differentiate_rejects_non_increasing_timestamps():
    with pytest.raises(ValueError):
        differentiate((0.02, 0.1, 0.0), (0.02, 0.2, 0.0))
    with pytest.raises(ValueError):
        differentiate((0.04, 0.1, 0.0), (0.02, 0.2, 0.0))


def test_ramp_slope_recovered_after_settling():
    # unit-DC-gain filter passes a ramp with constant lag
    slope = 2.3
    n = 1000
    ts = np.arange(1, n + 1) * DT
    out = run_stream(slope * ts)
    measured = (out[-1] - out[-2]) / DT
    assert abs(measured - slope) / slope < 0.01


def test_telescoping_reconstruction_over_long_stream():
    rng = np.random.default_rng(4)
    out = run_stream(np.cumsum(rng.normal(size=10_000)) * 0.01)
    diffs = np.diff(out)
    recon = out[0] + np.cumsum(diffs)
    drift = np.abs(recon - out[1:]).max()
    assert drift <= 1e-9 * max(1.0, np.abs(out).max())


# ---------------------------------------------------------------------------
# The recursion runs on Python floats; the float64-array form in
# ``oracles.OracleFilterState`` must come out bit for bit the same, on the
# whole bank and on one channel padded with zeros.


@pytest.mark.parametrize("n_channels", [1, 8])
@pytest.mark.parametrize("seed", [5, 6])
def test_scalar_recursion_equals_array_oracle(n_channels, seed):
    rng = np.random.default_rng(seed)
    coeffs = design_lowpass(FilterDesign(natural_frequency=rng.uniform(20.0, 300.0), damping_ratio=rng.uniform(0.2, 0.95)), DT)
    mine = FilterState(coeffs)
    oracle = OracleFilterState(coeffs, n_channels=n_channels)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, n_channels)
    for i in range(3000):
        if i == 1700:  # the warm start again, mid-stream
            mine = FilterState(coeffs)
            oracle.reset()
        x = rng.normal(size=n_channels) * scales
        out = filter_step(mine, x.tolist()) if n_channels == 8 else narrow_bank_step(mine, x)
        assert np.array_equal(out, oracle.step(x))


def test_filter_step_equals_array_oracle():
    rng = np.random.default_rng(8)
    coeffs = design_lowpass(FilterDesign(), DT)
    mine = FilterState(coeffs)
    oracle = OracleFilterState(coeffs)
    for i in range(2000):
        rates = rng.normal(0.0, 2.0, 3)
        accel_z = float(rng.normal(-9.81, 1.0))
        speeds = rng.uniform(0.0, 1500.0, 4)
        out = filter_step(mine, [*rates.tolist(), accel_z, *speeds.tolist()])
        want = oracle.step(np.concatenate([rates, [accel_z], speeds]))
        assert np.array_equal(np.array(out), want)


def test_filter_step_rejects_wrong_channel_count():
    state = FilterState(design_lowpass(FilterDesign(), DT))
    with pytest.raises(ValueError, match="^expected 8 channels, got 7$"):
        filter_step(state, [0.0, 0.0, 0.0, -9.81, 500.0, 500.0, 500.0])
