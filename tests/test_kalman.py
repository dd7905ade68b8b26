import copy
import math
import pickle

import numpy as np
import pytest

from loedetect import kalman
from loedetect.effectiveness import DEFAULT_GAINS, observation_matrix, signed_gains
from loedetect.kalman import K_MAX, K_MIN, EstimatorState, NoiseConfig

from oracles import _dot4, oracle_kalman_step, state_arrays, state_from_arrays

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
    x, P = state_arrays(kalman.init())
    assert np.array_equal(x, np.ones(4))
    assert np.array_equal(P, np.eye(4))


def test_zero_innovation_leaves_state_unchanged():
    rng = np.random.default_rng(10)
    x = np.array([1.0, 0.8, 0.6, 1.2])
    st = state_from_arrays(x, 0.5 * np.eye(4))
    H = random_observation(rng)
    z = np.array([_dot4(h, x) for h in H])  # the kernel's own sum: y is exactly zero
    out = kalman.step(st, H, z, TABLE_NOISE)
    assert np.array_equal(state_arrays(out)[0], x)


def test_zero_initial_variance_and_zero_innovation():
    x = np.ones(4)
    st = state_from_arrays(x, np.zeros((4, 4)))
    H = random_observation(np.random.default_rng(11))
    z = np.array([_dot4(h, x) for h in H])  # the kernel's own sum: y is exactly zero
    out = kalman.step(st, H, z, TABLE_NOISE)
    assert np.array_equal(state_arrays(out)[0], x)


def test_no_excitation_grows_variance_by_exactly_q():
    st = state_from_arrays(np.array([1.0, 1.0, 0.5, 1.0]), 0.3 * np.eye(4))
    H = np.zeros((3, 4))
    z = np.zeros(3)
    prev = st
    for _ in range(25):
        out = kalman.step(prev, H, z, TABLE_NOISE)
        (x, P), (prev_x, prev_P) = state_arrays(out), state_arrays(prev)
        assert np.array_equal(x, prev_x)
        assert np.array_equal(P.diagonal(), prev_P.diagonal() + TABLE_NOISE.process_noise_q)
        prev = out


def test_single_step_matches_hand_built_oracle():
    # trimmed start, one rotor dead, noiseless measurement of that condition
    st = state_from_arrays(np.ones(4), np.eye(4))
    H = observation_matrix(DEFAULT_GAINS, np.full(4, 500.0))
    z = np.array([25.0, 25.0, -3.75])
    x, P = state_arrays(kalman.step(st, H, z, TABLE_NOISE))
    x_ref, p_ref = reference_step(*state_arrays(st), H, z, 0.1, 1.0)
    assert np.abs(x - np.clip(x_ref, K_MIN, K_MAX)).max() < 1e-10
    assert np.abs(P - 0.5 * (p_ref + p_ref.T)).max() < 1e-10


def test_hundred_step_trajectory_matches_dense_oracle():
    rng = np.random.default_rng(12)
    k_true = np.array([1.0, 1.0, 0.2, 0.9])
    mine = kalman.init()
    x_ref, p_ref = state_arrays(mine)
    for _ in range(100):
        H = random_observation(rng)
        z = H @ k_true + rng.normal(0.0, 0.5, 3)
        mine = kalman.step(mine, H, z, TABLE_NOISE)
        x_ref, p_ref = reference_step(x_ref, p_ref, H, z, 0.1, 1.0)
        x_ref = np.clip(x_ref, K_MIN, K_MAX)  # as step clamps its estimates
        x, P = state_arrays(mine)
        assert np.linalg.norm(x - x_ref) <= 1e-9 * max(1.0, np.linalg.norm(x_ref))
        assert np.linalg.norm(P - p_ref) <= 1e-9 * np.linalg.norm(p_ref)
        assert np.abs(P - P.T).max() <= 1e-12
        assert np.linalg.eigvalsh(P).min() >= -1e-10


def test_convergence_under_persistent_excitation():
    rng = np.random.default_rng(13)
    k_true = np.array([1.0, 0.8, 0.6, 1.2])
    st = kalman.init()
    for _ in range(200):
        H = random_observation(rng)
        st = kalman.step(st, H, H @ k_true, TABLE_NOISE)
    assert np.abs(state_arrays(st)[0] - k_true).max() <= 1e-3


def test_equal_speeds_leave_null_component_unchanged():
    # with identical rotor speeds the direction (1,-1,1,-1) is unobservable
    rng = np.random.default_rng(14)
    null = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    st = state_from_arrays(np.array([1.0, 0.9, 1.1, 1.0]), 0.4 * np.eye(4))
    x, P = state_arrays(st)
    base = float(null @ x)
    var = float(null @ P @ null)
    for _ in range(30):
        w = np.full(4, rng.uniform(400.0, 900.0))
        H = observation_matrix(DEFAULT_GAINS, w)
        st = kalman.step(st, H, H @ np.ones(4) + rng.normal(0, 0.1, 3), TABLE_NOISE)
        x, P = state_arrays(st)
        assert abs(float(null @ x) - base) <= 1e-12
        new_var = float(null @ P @ null)
        assert new_var == pytest.approx(var + TABLE_NOISE.process_noise_q, rel=1e-9)
        var = new_var


def test_step_clamps_estimate_into_bounds():
    # H = 0 leaves x as it was, so only the clamp acts
    H, z = np.zeros((3, 4)), np.zeros(3)
    x = np.array([-0.2, 0.5, 1.0, 2.0])
    st = state_from_arrays(x, np.eye(4))
    assert np.array_equal(state_arrays(kalman.step(st, H, z, TABLE_NOISE))[0], [0.0, 0.5, 1.0, 1.5])
    x_inside = np.array([0.0, 0.3, 1.2, 1.5])
    inside = state_from_arrays(x_inside, np.eye(4))
    assert np.array_equal(state_arrays(kalman.step(inside, H, z, TABLE_NOISE))[0], x_inside)


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


@pytest.mark.parametrize(
    "H, z",
    [
        (np.zeros((4, 4)), np.zeros(3)),
        (np.zeros((3, 4)), np.zeros(4)),
        (np.zeros((3, 5)), np.zeros(3)),
        ([[0.0] * 4] * 4, [0.0] * 3),
        ([[0.0] * 4] * 3, [0.0] * 4),
        ([[0.0] * 4, [0.0] * 5, [0.0] * 4], [0.0] * 3),
    ],
    ids=["4-row-H", "4-z", "5-col-H", "4-row-list", "4-z-list", "one-5-entry-row"],
)
def test_extra_rows_entries_or_measurements_are_a_hard_error(H, z):
    with pytest.raises(ValueError):
        kalman.step(kalman.init(), H, z, TABLE_NOISE)


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
        x, P = state_arrays(st)
        assert np.abs(P - P.T).max() <= 1e-12
        assert np.linalg.eigvalsh(P).min() >= -1e-10
        assert np.all(x >= 0.0) and np.all(x <= 1.5)


def test_state_round_trips_arrays_bit_for_bit_and_is_immutable():
    rng = np.random.default_rng(16)
    x = rng.uniform(0.0, 1.5, 4)
    A = rng.normal(size=(4, 4))
    P = A @ A.T
    P = np.triu(P) + np.triu(P, 1).T  # exactly symmetric
    st = state_from_arrays(x, P)
    x_back, P_back = state_arrays(st)
    assert np.array_equal(x_back, x) and np.array_equal(P_back, P)
    assert np.array_equal(P_back, P_back.T)
    assert st.variances() == tuple(P.diagonal().tolist())
    assert all(type(v) is float for v in st.k + st.p_upper)
    # every read builds fresh arrays: writing to them leaves the state as it was
    x_back[0] = -1.0
    P_back[0, 1] = -1.0
    assert np.array_equal(state_arrays(st)[0], x) and np.array_equal(state_arrays(st)[1], P)
    with pytest.raises(AttributeError):
        st.k = (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        st.p_upper = st.p_upper
    for again in (pickle.loads(pickle.dumps(st)), copy.copy(st)):
        assert type(again) is EstimatorState
        assert again.k == st.k and again.p_upper == st.p_upper


@pytest.mark.parametrize(
    "state",
    [
        EstimatorState((1.0, 1.0, 1.0), kalman.init().p_upper),
        EstimatorState((1.0, 1.0, 1.0, 1.0, 1.0), kalman.init().p_upper),
        EstimatorState(kalman.init().k, kalman.init().p_upper[:9]),
        EstimatorState(kalman.init().k, kalman.init().p_upper + (0.0,)),
    ],
    ids=["k-3", "k-5", "p_upper-9", "p_upper-11"],
)
def test_step_rejects_a_state_of_the_wrong_length(state):
    H = random_observation(np.random.default_rng(18))
    with pytest.raises(ValueError):
        kalman.step(state, H, np.zeros(3), TABLE_NOISE)


def test_step_on_nested_lists_equals_step_on_arrays_bit_for_bit():
    rng = np.random.default_rng(17)
    on_arrays = on_lists = kalman.init()
    for _ in range(200):
        H = random_observation(rng)
        z = H @ rng.uniform(0.0, 1.5, 4) + rng.normal(0.0, 1.0, 3)
        on_arrays = kalman.step(on_arrays, H, z, TABLE_NOISE)
        on_lists = kalman.step(on_lists, H.tolist(), z.tolist(), TABLE_NOISE)
        # float.hex tells -0.0 from 0.0, which == does not
        assert list(map(float.hex, on_lists.k)) == list(map(float.hex, on_arrays.k))
        assert list(map(float.hex, on_lists.p_upper)) == list(map(float.hex, on_arrays.p_upper))


# Lanes whose bits depend on how a 4-term sum is taken: (H, z) held for every tick.
ZERO_SPEED = (  # every h is +/-0.0, and the az row's are all -0.0: its sums are -0.0 only if taken from -0.0
    (np.array(signed_gains(DEFAULT_GAINS)) * 0.0).tolist(),
    [-0.0, -0.0, -0.0],
)
CANCELLING = (  # row 0's products at k = 1 sum to 1.0 left to right and to 0.0 pairwise
    [[1.0, 1e16, -1e16, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    [3.0, 0.5, -0.0],
)
# Row 0 all negative or -0.0: its h.dx at dx = 0, which ``step`` leaves out, is -0.0.
NEGATIVE_ROW_0 = [[-1.0, -0.0, -2.0, -0.5], [0.5, 1.0, -1.0, 0.0], [0.0, -1.0, 1.0, 2.0]]


def test_step_equals_array_oracle_bit_for_bit():
    # 500 random ticks, then three rounds of the special cases. The oracle
    # keeps row 0's h.dx term at dx = 0; ``NEGATIVE_ROW_0`` meets it with a
    # zero first innovation, where that term is -0.0.
    rng = np.random.default_rng(15)
    cases = []
    for _ in range(500):
        H = random_observation(rng)
        cases.append((H, H @ rng.uniform(0.0, 1.5, 4) + rng.normal(0.0, 1.0, 3)))
    cases += [ZERO_SPEED, CANCELLING, (NEGATIVE_ROW_0, None)] * 3
    mine = oracle = kalman.init()
    for H, z in cases:
        if z is None:
            z = [_dot4(H[0], mine.k), 0.3, -0.7]
            assert _innovations(mine, H, z)[0] == 0.0
        mine = kalman.step(mine, H, z, TABLE_NOISE)
        oracle = oracle_kalman_step(oracle, H, z, TABLE_NOISE)
        # bytes tell -0.0 from 0.0, which array_equal does not
        (x, P), (x_oracle, P_oracle) = state_arrays(mine), state_arrays(oracle)
        assert x.tobytes() == x_oracle.tobytes()
        assert P.tobytes() == P_oracle.tobytes()


UPPER = np.flatnonzero(np.triu(np.ones((4, 4))))  # the ``p_upper`` entries of a row-major 4x4


@pytest.mark.parametrize("width", [1, 11, 66, 286])
def test_step_lanes_equals_step_bit_for_bit(width):
    # Wide z makes estimates clamp at both bounds; about one tick in ten of a
    # lane is a zero-H, zero-z padding tick. Noise differs between lanes.
    rng = np.random.default_rng(width)
    q = rng.choice([0.05, 0.1, 0.2], width)
    r = rng.choice([0.5, 1.0, 2.0], width)
    gains = np.array(signed_gains(DEFAULT_GAINS))[:, :, None]
    noises = [NoiseConfig(*pair) for pair in zip(q.tolist(), r.tolist())]
    states = [kalman.init()] * width
    work = kalman.LaneWorkspace(width)
    k, P, y, s = work.k, work.P, work.y, work.s
    clamped = set()
    padded = 0
    for _ in range(40):
        w_sq = rng.uniform(300.0, 1200.0, (4, width)) ** 2
        z = rng.normal(0.0, 20.0, (3, width))
        pad = rng.random(width) < 0.1
        w_sq[:, pad] = 0.0
        z[:, pad] = 0.0
        padded += pad.sum()
        H = gains * w_sq
        kalman.step_lanes(work, H, z, q, r)
        assert not np.isnan(y).any() and ((0.0 < s) & (s < np.inf)).all()
        states = [
            kalman.step(state, H[:, :, lane].tolist(), z[:, lane].tolist(), noise)
            for lane, (state, noise) in enumerate(zip(states, noises))
        ]
        # bytes tell -0.0 from 0.0, which array_equal does not
        assert k.tobytes() == np.array([state.k for state in states]).T.tobytes()
        assert P[UPPER].tobytes() == np.array([state.p_upper for state in states]).T.tobytes()
        square = P.reshape(4, 4, width)
        assert square.tobytes() == square.transpose(1, 0, 2).tobytes()
        clamped.update(k[(k == 0.0) | (k == 1.5)].tolist())
    assert clamped == {0.0, 1.5}
    assert padded > 0


def test_step_lanes_flags_what_step_rejects():
    # Per lane: healthy, NaN z, NaN H, overflowing H, overflowing q. ``step``
    # raises exactly on the lanes whose ``y`` holds a NaN (``ValueError``) or
    # whose ``s`` leaves (0, inf) (``ArithmeticError`` naming the first such s).
    H = np.repeat(observation_matrix(DEFAULT_GAINS, np.full(4, 700.0))[:, :, None], 5, axis=2)
    z = np.zeros((3, 5))
    q = np.full(5, 0.1)
    z[1, 1] = np.nan
    H[0, 2, 2] = np.nan
    H[:, :, 3] *= 1e200
    q[4] = 1e308
    work = kalman.LaneWorkspace(5)
    with np.errstate(all="ignore"):
        kalman.step_lanes(work, H, z, q, 1.0)
        y, s = work.y, work.s
        bad_s = ~((0.0 < s) & (s < np.inf))
    for lane in range(5):
        step = (kalman.init(), H[:, :, lane].tolist(), z[:, lane].tolist(), NoiseConfig(float(q[lane]), 1.0))
        if np.isnan(y[:, lane]).any():
            with pytest.raises(ValueError, match="NaN in estimator input"):
                kalman.step(*step)
        elif bad_s[:, lane].any():
            first = s[bad_s[:, lane].argmax(), lane]
            with pytest.raises(ArithmeticError, match=rf"^innovation variance s={first} is not"):
                kalman.step(*step)
        else:
            assert lane == 0
            kalman.step(*step)
    assert np.isnan(y[:, 1:3]).any(axis=0).all() and bad_s[:, 3:].any(axis=0).all()


def _innovations(state, H, z):
    """``step``'s innovations ``z_j - (h0*x0 + h1*x1 + h2*x2 + h3*x3)`` from ``state``, as floats."""
    x0, x1, x2, x3 = state.k
    return [zj - (h0 * x0 + h1 * x1 + h2 * x2 + h3 * x3) for (h0, h1, h2, h3), zj in zip(H, z)]


@pytest.mark.parametrize("width", [1, 66])
def test_step_lanes_sums_in_order_and_keeps_zero_signs(width):
    # The two special lanes, alone at width 1, or at both ends of 64 random
    # lanes. Each lane's k, P and y must equal ``step``'s by bytes, which tell
    # -0.0 from 0.0; y against the float innovation from the prior state.
    rng = np.random.default_rng(50)
    for lanes in ([ZERO_SPEED], [CANCELLING]) if width == 1 else ([ZERO_SPEED, *([None] * 64), CANCELLING],):
        cases = [lane or (random_observation(rng).tolist(), rng.normal(0.0, 5.0, 3).tolist()) for lane in lanes]
        H = np.array([h for h, _ in cases]).transpose(1, 2, 0)
        z = np.array([zj for _, zj in cases]).T
        states = [kalman.init()] * len(cases)
        work = kalman.LaneWorkspace(len(cases))
        k, P, y = work.k, work.P, work.y
        for _ in range(3):
            want_y = [_innovations(state, h, zj) for state, (h, zj) in zip(states, cases)]
            kalman.step_lanes(work, H, z, TABLE_NOISE.process_noise_q, TABLE_NOISE.measurement_noise_r)
            states = [kalman.step(state, h, zj, TABLE_NOISE) for state, (h, zj) in zip(states, cases)]
            assert y.tobytes() == np.array(want_y).T.tobytes()
            assert k.tobytes() == np.array([state.k for state in states]).T.tobytes()
            assert P[UPPER].tobytes() == np.array([state.p_upper for state in states]).T.tobytes()
    # The lanes hold what they are meant to: a signed zero innovation and an order-dependent one.
    assert math.copysign(1.0, _innovations(kalman.init(), *ZERO_SPEED)[2]) == 1.0  # -0.0 - (-0.0)
    assert _innovations(kalman.init(), *CANCELLING)[0] == 2.0


def test_lane_workspace_carries_lanes_over_ticks_and_narrowing():
    # One workspace per width, stepped tick after tick, as ``replay._lane_pass``
    # runs it: 66 lanes, then 11, then 1, each workspace carrying on with the
    # first lanes of the one before. Lane 0 is the zero-speed lane, whose sums
    # are signed zeros; bytes tell -0.0 from 0.0. A ``d`` left over from the
    # tick before moves every lane's k.
    rng = np.random.default_rng(33)
    q = rng.choice([0.05, 0.1, 0.2], 66)
    r = rng.choice([0.5, 1.0, 2.0], 66)
    noises = [NoiseConfig(*pair) for pair in zip(q.tolist(), r.tolist())]
    states = [kalman.init()] * 66
    work = None
    for width, n_ticks in ((66, 4), (11, 3), (1, 3)):
        work = kalman.LaneWorkspace(width, work)
        lane_q, lane_r = q[:width], r[:width]
        for _ in range(n_ticks):
            cases = [ZERO_SPEED] + [
                (random_observation(rng).tolist(), rng.normal(0.0, 20.0, 3).tolist()) for _ in range(width - 1)
            ]
            H = np.array([h for h, _ in cases]).transpose(1, 2, 0)
            z = np.array([zj for _, zj in cases]).T
            inputs = [array.tobytes() for array in (H, z, lane_q, lane_r)]
            want_y = [_innovations(state, *case) for state, case in zip(states, cases)]
            kalman.step_lanes(work, H, z, lane_q, lane_r)
            assert [array.tobytes() for array in (H, z, lane_q, lane_r)] == inputs
            states = [kalman.step(state, *case, noise) for state, case, noise in zip(states, cases, noises)]
            assert work.y.tobytes() == np.array(want_y).T.tobytes()
            assert work.k.tobytes() == np.array([state.k for state in states]).T.tobytes()
            assert work.P[UPPER].tobytes() == np.array([state.p_upper for state in states]).T.tobytes()
    assert math.copysign(1.0, work.y[0, 0]) == -1.0  # the zero-speed lane's -0.0 innovation


def test_lane_workspace_refuses_to_widen():
    narrow = kalman.LaneWorkspace(3)
    with pytest.raises(ValueError, match=r"^a workspace of width 3 cannot carry 4 lanes$"):
        kalman.LaneWorkspace(4, narrow)
