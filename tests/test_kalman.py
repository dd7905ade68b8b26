import pickle

import numpy as np
import pytest

from loedetect import kalman
from loedetect.effectiveness import DEFAULT_GAINS, observation_matrix
from loedetect.kalman import EstimatorState, NoiseConfig

from oracles import _dot4, oracle_kalman_step

TABLE_NOISE = NoiseConfig()  # q = 0.1, r = 1


def reference_step(x, P, H, z, q, r):
    """Plain dense-matrix update used as the independent oracle."""
    p_pred = P + q * np.eye(4)
    y = z - H @ x
    s = r * np.eye(3) + H @ p_pred @ H.T
    gain = p_pred @ H.T @ np.linalg.inv(s)
    return x + gain @ y, (np.eye(4) - gain @ H) @ p_pred


def random_observation(rng, gains=DEFAULT_GAINS):
    w = rng.uniform(300.0, 1200.0, 4)
    return observation_matrix(gains, w)


def test_init_defaults():
    st = kalman.init()
    assert np.array_equal(st.x, np.ones(4))
    assert np.array_equal(st.P, np.eye(4))


def test_init_validation():
    with pytest.raises(ValueError):
        kalman.init(np.array([1.0, 1.0, -0.1, 1.0]))
    with pytest.raises(ValueError):
        kalman.init(np.array([1.0, 1.0, 1.6, 1.0]))
    with pytest.raises(ValueError):
        kalman.init(np.ones(3))
    with pytest.raises(ValueError):
        kalman.init(initial_variance=-1.0)


def test_zero_innovation_leaves_state_unchanged():
    rng = np.random.default_rng(10)
    st = kalman.init(np.array([1.0, 0.8, 0.6, 1.2]), 0.5)
    H = random_observation(rng)
    z = np.array([_dot4(h, st.x) for h in H])  # the kernel's own sum: y is exactly zero
    out = kalman.step(st, H, z, TABLE_NOISE)
    assert np.array_equal(out.x, st.x)


def test_zero_initial_variance_and_zero_innovation():
    st = kalman.init(np.ones(4), 0.0)
    H = random_observation(np.random.default_rng(11))
    z = np.array([_dot4(h, st.x) for h in H])  # the kernel's own sum: y is exactly zero
    out = kalman.step(st, H, z, TABLE_NOISE)
    assert np.array_equal(out.x, st.x)


def test_no_excitation_grows_variance_by_exactly_q():
    st = kalman.init(np.array([1.0, 1.0, 0.5, 1.0]), 0.3)
    H = np.zeros((3, 4))
    z = np.zeros(3)
    prev = st
    for _ in range(25):
        out = kalman.step(prev, H, z, TABLE_NOISE)
        assert np.array_equal(out.x, prev.x)
        assert np.array_equal(
            out.P.diagonal(), prev.P.diagonal() + TABLE_NOISE.process_noise_q
        )
        prev = out


def test_single_step_matches_hand_built_oracle():
    # trimmed start, one rotor dead, noiseless measurement of that condition
    st = kalman.init(np.ones(4), 1.0)
    H = observation_matrix(DEFAULT_GAINS, np.full(4, 500.0))
    z = np.array([25.0, 25.0, -3.75])
    mine = kalman.step(st, H, z, TABLE_NOISE, clamp_state=False)
    x_ref, p_ref = reference_step(st.x, st.P, H, z, 0.1, 1.0)
    assert np.abs(mine.x - x_ref).max() < 1e-10
    assert np.abs(mine.P - 0.5 * (p_ref + p_ref.T)).max() < 1e-10
    clamped = kalman.step(st, H, z, TABLE_NOISE)
    assert np.array_equal(clamped.x, np.clip(mine.x, 0.0, 1.5))


def test_hundred_step_trajectory_matches_dense_oracle():
    rng = np.random.default_rng(12)
    k_true = np.array([1.0, 1.0, 0.2, 0.9])
    mine = kalman.init()
    x_ref, p_ref = mine.x.copy(), mine.P.copy()
    for _ in range(100):
        H = random_observation(rng)
        z = H @ k_true + rng.normal(0.0, 0.5, 3)
        mine = kalman.step(mine, H, z, TABLE_NOISE, clamp_state=False)
        x_ref, p_ref = reference_step(x_ref, p_ref, H, z, 0.1, 1.0)
        assert np.linalg.norm(mine.x - x_ref) <= 1e-9 * max(1.0, np.linalg.norm(x_ref))
        assert np.linalg.norm(mine.P - p_ref) <= 1e-9 * np.linalg.norm(p_ref)
        assert np.abs(mine.P - mine.P.T).max() <= 1e-12
        assert np.linalg.eigvalsh(mine.P).min() >= -1e-10


def test_convergence_under_persistent_excitation():
    rng = np.random.default_rng(13)
    k_true = np.array([1.0, 0.8, 0.6, 1.2])
    st = kalman.init()
    for _ in range(200):
        H = random_observation(rng)
        st = kalman.step(st, H, H @ k_true, TABLE_NOISE)
    assert np.abs(st.x - k_true).max() <= 1e-3


def test_equal_speeds_leave_null_component_unchanged():
    # with identical rotor speeds the direction (1,-1,1,-1) is unobservable
    rng = np.random.default_rng(14)
    null = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    st = kalman.init(np.array([1.0, 0.9, 1.1, 1.0]), 0.4)
    base = float(null @ st.x)
    var = float(null @ st.P @ null)
    for _ in range(30):
        w = np.full(4, rng.uniform(400.0, 900.0))
        H = observation_matrix(DEFAULT_GAINS, w)
        st = kalman.step(st, H, H @ np.ones(4) + rng.normal(0, 0.1, 3), TABLE_NOISE, clamp_state=False)
        assert abs(float(null @ st.x) - base) <= 1e-12
        new_var = float(null @ st.P @ null)
        assert new_var == pytest.approx(var + TABLE_NOISE.process_noise_q, rel=1e-9)
        var = new_var


def test_step_clamps_estimate_into_bounds():
    # H = 0 leaves x as it was, so only the clamp acts
    H, z = np.zeros((3, 4)), np.zeros(3)
    st = EstimatorState(np.array([-0.2, 0.5, 1.0, 2.0]), np.eye(4))
    assert np.array_equal(kalman.step(st, H, z, TABLE_NOISE).x, [0.0, 0.5, 1.0, 1.5])
    assert np.array_equal(kalman.step(st, H, z, TABLE_NOISE, clamp_state=False).x, st.x)
    inside = EstimatorState(np.array([0.0, 0.3, 1.2, 1.5]), np.eye(4))
    assert np.array_equal(kalman.step(inside, H, z, TABLE_NOISE).x, inside.x)


def test_non_finite_innovation_variance_is_a_hard_error():
    # q = 1e308 overflows P h on the first row; nothing is returned half-updated.
    # ``H`` holds numpy scalars, so numpy warns as it overflows.
    H = observation_matrix(DEFAULT_GAINS, np.full(4, 700.0))
    with pytest.warns(RuntimeWarning, match="overflow encountered in scalar multiply"):
        with pytest.raises(ArithmeticError, match=r"^innovation variance s=(inf|nan) is not finite and positive$"):
            kalman.step(kalman.init(), H, np.zeros(3), NoiseConfig(process_noise_q=1e308))
    H[1, 2] = np.inf
    with pytest.warns(RuntimeWarning, match="invalid value encountered in scalar add"):
        with pytest.raises(ArithmeticError, match="innovation variance s="):
            kalman.step(kalman.init(), H, np.zeros(3), TABLE_NOISE)


def test_nan_input_is_a_hard_error():
    st = kalman.init()
    H = np.zeros((3, 4))
    with pytest.raises(ValueError):
        kalman.step(st, H, np.array([np.nan, 0.0, 0.0]), TABLE_NOISE)
    H[0, 0] = np.nan
    with pytest.raises(ValueError):
        kalman.step(st, H, np.zeros(3), TABLE_NOISE)


def test_shape_mismatch_is_a_hard_error():
    st = kalman.init()
    with pytest.raises(ValueError):
        kalman.step(st, np.zeros((3, 4)), np.zeros(2), TABLE_NOISE)
    with pytest.raises(ValueError):
        kalman.step(st, np.zeros((3, 3)), np.zeros(3), TABLE_NOISE)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(process_noise_q=0.0)
    with pytest.raises(ValueError):
        NoiseConfig(measurement_noise_r=-1.0)


def test_psd_and_symmetry_preserved_on_random_sequences():
    rng = np.random.default_rng(15)
    st = kalman.init()
    for _ in range(300):
        H = random_observation(rng)
        z = rng.normal(0.0, 20.0, 3)
        st = kalman.step(st, H, z, TABLE_NOISE)
        assert np.abs(st.P - st.P.T).max() <= 1e-12
        assert np.linalg.eigvalsh(st.P).min() >= -1e-10
        assert np.all(st.x >= 0.0) and np.all(st.x <= 1.5)


def test_state_round_trips_arrays_bit_for_bit_and_is_immutable():
    rng = np.random.default_rng(16)
    x = rng.uniform(0.0, 1.5, 4)
    A = rng.normal(size=(4, 4))
    P = A @ A.T
    P = np.triu(P) + np.triu(P, 1).T  # exactly symmetric
    st = EstimatorState(x, P)
    assert np.array_equal(st.x, x) and np.array_equal(st.P, P)
    assert np.array_equal(st.P, st.P.T)
    assert st.variances() == tuple(P.diagonal().tolist())
    assert all(type(v) is float for v in st.k + st.p_upper)
    # every access builds a fresh array: writing to one leaves the state as it was
    st.x[0] = -1.0
    st.P[0, 1] = -1.0
    assert np.array_equal(st.x, x) and np.array_equal(st.P, P)
    with pytest.raises(AttributeError):
        st.k = (0.0, 0.0, 0.0, 0.0)
    again = pickle.loads(pickle.dumps(st))
    assert again.k == st.k and again.p_upper == st.p_upper
    # only the upper triangle is read
    assert np.array_equal(EstimatorState(x, np.triu(P)).P, P)


def test_step_on_nested_lists_equals_step_on_arrays_bit_for_bit():
    rng = np.random.default_rng(17)
    on_arrays = on_lists = kalman.init()
    for _ in range(200):
        H = random_observation(rng)
        z = H @ rng.uniform(0.0, 1.5, 4) + rng.normal(0.0, 1.0, 3)
        on_arrays = kalman.step(on_arrays, H, z, TABLE_NOISE)
        on_lists = kalman.step(on_lists, H.tolist(), z.tolist(), TABLE_NOISE)
        assert on_lists.k == on_arrays.k and on_lists.p_upper == on_arrays.p_upper


def test_step_equals_array_oracle_bit_for_bit():
    rng = np.random.default_rng(15)
    mine = oracle = kalman.init()
    for _ in range(500):
        H = random_observation(rng)
        z = H @ rng.uniform(0.0, 1.5, 4) + rng.normal(0.0, 1.0, 3)
        mine = kalman.step(mine, H, z, TABLE_NOISE)
        oracle = oracle_kalman_step(oracle, H, z, TABLE_NOISE)
        assert np.array_equal(mine.x, oracle.x)
        assert np.array_equal(mine.P, oracle.P)
