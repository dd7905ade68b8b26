import numpy as np
import pytest

from loedetect.effectiveness import (
    DEFAULT_GAINS,
    SIGN_MATRIX,
    EffectivenessGains,
    VehicleParams,
    gains_from_geometry,
    observation_matrix,
)

TABLE_GAINS = DEFAULT_GAINS  # g_p = g_q = 100e-6, g_az = 5e-6


def test_sign_matrix_is_exactly_as_printed():
    expected = np.array(
        [
            [1, -1, -1, 1],
            [1, 1, -1, -1],
            [-1, -1, -1, -1],
        ],
        dtype=float,
    )
    assert np.array_equal(SIGN_MATRIX, expected)
    assert not SIGN_MATRIX.flags.writeable


def test_gains_direct_substitution():
    geom = VehicleParams(
        arm_x=0.08,
        arm_y=0.1,
        thrust_coeff=1e-5,
        moment_coeff=1e-7,
        inertia_diag=(1e-2, 2e-2, 3e-2),
        mass=0.4,
    )
    gains = gains_from_geometry(geom)
    assert abs(gains.g_p - 1e-4) < 1e-16
    assert abs(gains.g_q - 1e-5 * 0.08 / 2e-2) < 1e-16
    assert abs(gains.g_az - 1e-5 / 0.4) < 1e-16


def test_doubling_mass_halves_only_vertical_gain():
    base = VehicleParams(mass=0.5)
    heavy = VehicleParams(mass=1.0)
    g0, g1 = gains_from_geometry(base), gains_from_geometry(heavy)
    assert g1.g_az == pytest.approx(g0.g_az / 2, rel=1e-12)
    assert g1.g_p == g0.g_p
    assert g1.g_q == g0.g_q


def test_default_vehicle_reproduces_default_gains():
    # Exact: the README's default gains are what the default airframe gives.
    assert gains_from_geometry(VehicleParams()) == DEFAULT_GAINS
    assert DEFAULT_GAINS == EffectivenessGains(g_p=100e-6, g_q=100e-6, g_az=5e-6)


def test_zero_or_negative_geometry_rejected():
    with pytest.raises(ValueError):
        VehicleParams(mass=0.0)
    with pytest.raises(ValueError):
        VehicleParams(inertia_diag=(0.0, 1.5e-3, 2.8e-3))
    with pytest.raises(ValueError):
        EffectivenessGains(g_p=-1e-6, g_q=100e-6, g_az=5e-6)


def test_observation_matrix_zero_speeds():
    H = observation_matrix(TABLE_GAINS, np.zeros(4))
    assert np.array_equal(H, np.zeros((3, 4)))


def test_observation_matrix_hand_evaluated_rows():
    # gain * w^2: 100e-6 * 500^2 = 25, 5e-6 * 500^2 = 1.25
    H = observation_matrix(TABLE_GAINS, np.full(4, 500.0))
    expected = np.array(
        [
            [25.0, -25.0, -25.0, 25.0],
            [25.0, 25.0, -25.0, -25.0],
            [-1.25, -1.25, -1.25, -1.25],
        ]
    )
    assert np.allclose(H, expected, rtol=1e-12)


def test_observation_matrix_rejects_negative_speeds():
    with pytest.raises(ValueError):
        observation_matrix(TABLE_GAINS, np.array([100.0, -1.0, 100.0, 100.0]))


def test_observation_matrix_quadratic_homogeneity():
    rng = np.random.default_rng(5)
    w = rng.uniform(200, 1200, 4)
    for c in (0.5, 2.0, 3.7):
        assert np.allclose(
            observation_matrix(TABLE_GAINS, c * w),
            c * c * observation_matrix(TABLE_GAINS, w),
            rtol=1e-12,
        )


def test_predict_equal_speeds_nominal_k():
    w = np.full(4, 700.0)
    pred = observation_matrix(TABLE_GAINS, w) @ np.ones(4)
    assert pred[0] == 0.0 and pred[1] == 0.0
    assert pred[2] == pytest.approx(-4 * TABLE_GAINS.g_az * 700.0**2, rel=1e-12)


def test_predict_with_dropped_actuator():
    pred = observation_matrix(TABLE_GAINS, np.full(4, 500.0)) @ np.array([1.0, 1.0, 0.0, 1.0])
    assert np.allclose(pred, [25.0, 25.0, -3.75], rtol=1e-12)


def test_predict_zero_k_is_zero():
    pred = observation_matrix(TABLE_GAINS, np.full(4, 900.0)) @ np.zeros(4)
    assert np.array_equal(pred, np.zeros(3))


def test_vertical_prediction_nonpositive_for_nonnegative_k():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = rng.uniform(0, 1300, 4)
        k = rng.uniform(0, 1.5, 4)
        assert (observation_matrix(TABLE_GAINS, w) @ k)[2] <= 0.0


def test_prediction_linear_in_k():
    rng = np.random.default_rng(8)
    w = rng.uniform(200, 1200, 4)
    k1 = rng.uniform(0, 1.5, 4)
    k2 = rng.uniform(0, 1.5, 4)
    a, b = 0.3, 1.7
    H = observation_matrix(TABLE_GAINS, w)
    lhs = H @ (a * k1 + b * k2)
    rhs = a * (H @ k1) + b * (H @ k2)
    assert np.allclose(lhs, rhs, rtol=1e-12)
