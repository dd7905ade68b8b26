import math
from dataclasses import replace

import numpy as np
import pytest

from loedetect.effectiveness import DEFAULT_GAINS, SIGN_MATRIX, observation_matrix
from loedetect.filters import FilterState, design_lowpass, FilterDesign, filter_step
from loedetect.simulator import (
    GRAVITY,
    IDLE_ROTOR_SPEED,
    YAW_SIGNS,
    DivergenceError,
    FaultEvent,
    SensorNoiseModel,
    SimState,
    VehicleParams,
    _attitude_schedule,
    _check_plausible,
    _Controller,
    _moments_and_thrust,
    _true_accel_z,
    _wind,
    _wind_accel_z,
    dynamics_step,
    fly_scenario,
    hover_state,
    inject_fault,
    synthesize_sensors,
)

PARAMS = VehicleParams()
QUIET = SensorNoiseModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, seed=0)


# ---------------------------------------------------------------------------
# Vector-form oracle: the numpy RK4, controller and per-sample sensor model
# the simulator's float code and its one-block sensor model reproduce bit
# for bit (same operations, same order). Oracle states hold ndarrays.


def as_arrays(state):
    return SimState(**{name: np.array(value, dtype=float) for name, value in vars(state).items()})


def as_floats(state):
    return SimState(**{name: np.asarray(value, dtype=float).tolist() for name, value in vars(state).items()})


def floats_or_none(vector):
    return None if vector is None else np.asarray(vector, dtype=float).tolist()


def quat_to_matrix(q):
    """Body-to-world rotation matrix of a (w, x, y, z) quaternion."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def oracle_wind_accel_z(quaternion, external_force, params):
    """Body-z component of one world-frame external force, per unit mass: ``(R(q)ᵀ @ f)[2]`` left to right."""
    column, f = quat_to_matrix(quaternion)[:, 2], np.asarray(external_force, dtype=float)
    return float(column[0] * f[0] + column[1] * f[1] + column[2] * f[2]) / params.mass


def oracle_moments_and_thrust(state, params):
    thrusts = params.thrust_coeff * state.true_k * np.square(state.rotor_speeds)
    m_x = params.arm_y * float(SIGN_MATRIX[0] @ thrusts)
    m_y = params.arm_x * float(SIGN_MATRIX[1] @ thrusts)
    m_z = params.moment_coeff * float(YAW_SIGNS @ (state.true_k * np.square(state.rotor_speeds)))
    return np.array([m_x, m_y, m_z]), float(thrusts.sum())


def oracle_quat_rate(q, omega):
    w, x, y, z = q
    ox, oy, oz = omega
    return 0.5 * np.array(
        [
            -x * ox - y * oy - z * oz,
            w * ox + y * oz - z * oy,
            w * oy + z * ox - x * oz,
            w * oz + x * oy - y * ox,
        ]
    )


def oracle_dynamics_step(state, rotor_setpoints, params, dt, external_force=None, external_moment=None):
    lo, hi = params.rotor_speed_limits
    decay = math.exp(-dt / params.motor_time_constant)
    new_speeds = np.clip(
        np.asarray(rotor_setpoints, dtype=float) + (state.rotor_speeds - rotor_setpoints) * decay,
        lo,
        hi,
    )
    moments, thrust_total = oracle_moments_and_thrust(replace(state, rotor_speeds=new_speeds), params)
    if external_moment is not None:
        moments = moments + external_moment
    inertia = np.asarray(params.inertia_diag)
    f_body = np.array([0.0, 0.0, -thrust_total / params.mass])
    g_world = np.array([0.0, 0.0, GRAVITY])
    f_ext = np.zeros(3) if external_force is None else np.asarray(external_force) / params.mass

    def deriv(omega, q, vel):
        omega_dot = (moments - np.cross(omega, inertia * omega)) / inertia
        return omega_dot, oracle_quat_rate(q, omega), quat_to_matrix(q) @ f_body + g_world + f_ext

    om, q, v, pos = state.angular_rate, state.quaternion, state.velocity, state.position
    k1 = deriv(om, q, v)
    k2 = deriv(om + 0.5 * dt * k1[0], q + 0.5 * dt * k1[1], v + 0.5 * dt * k1[2])
    k3 = deriv(om + 0.5 * dt * k2[0], q + 0.5 * dt * k2[1], v + 0.5 * dt * k2[2])
    k4 = deriv(om + dt * k3[0], q + dt * k3[1], v + dt * k3[2])
    sixth = dt / 6.0
    new_q = q + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    norm = math.sqrt(new_q[0] * new_q[0] + new_q[1] * new_q[1] + new_q[2] * new_q[2] + new_q[3] * new_q[3])
    return SimState(
        angular_rate=om + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        quaternion=new_q / norm,
        velocity=v + sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
        position=pos
        + sixth * (v + 2 * (v + 0.5 * dt * k1[2]) + 2 * (v + 0.5 * dt * k2[2]) + (v + dt * k3[2])),
        rotor_speeds=new_speeds,
        true_k=state.true_k.copy(),
    )


def oracle_synthesize_sensors(state, params, draws, t, external_force=None):
    _, thrust_total = oracle_moments_and_thrust(state, params)
    az_true = -thrust_total / params.mass
    if external_force is not None:
        az_true += oracle_wind_accel_z(state.quaternion, external_force, params)
    return oracle_measure(state.angular_rate, az_true, state.rotor_speeds, draws, t)


def oracle_noise_draws(noise):
    """One flight's generator, after its constant draws: gyro biases, accelerometer bias, phases."""
    rng = np.random.default_rng(noise.seed)
    gyro_bias = rng.normal(0.0, noise.gyro_bias, 3)
    accel_bias = float(rng.normal(0.0, noise.accel_bias))
    phases = rng.uniform(0.0, 2.0 * math.pi, 4)
    return noise, rng, gyro_bias, accel_bias, phases


def oracle_measure(omega, az_true, rotor_speeds, draws, t):
    """One sample's corruption: three gyro draws, then one accelerometer draw."""
    noise, rng, gyro_bias, accel_bias, phases = draws
    wbar = float(rotor_speeds.mean())
    gyro = (
        omega
        + gyro_bias
        + rng.normal(0.0, noise.gyro_noise_std, 3)
        + noise.gyro_vibration * np.sin(wbar * t + phases[:3])
    )
    az = (
        az_true
        + accel_bias
        + float(rng.normal(0.0, noise.accel_noise_std))
        + noise.accel_vibration * math.sin(wbar * t + phases[3])
    )
    return gyro, az


def allocation(params):
    """The mixer from rotor ``w^2`` to (thrust, m_x, m_y, m_z): ``diag(d) @ signs``."""
    signs = np.array([np.ones(4), SIGN_MATRIX[0], SIGN_MATRIX[1], YAW_SIGNS])
    ct = params.thrust_coeff
    return np.array([ct, ct * params.arm_y, ct * params.arm_x, params.moment_coeff]), signs


def oracle_setpoints(state, roll_sp, pitch_sp, z_sp, params):
    """``_Controller.setpoints`` on arrays: same gains, same operations."""
    d, signs = allocation(params)
    alloc_inv = signs.T / (4.0 * d)  # signs @ signs.T is 4I
    w, x, y, z = state.quaternion
    roll = math.atan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y))
    pitch = math.asin(np.clip(2 * (w * y - z * x), -1.0, 1.0))
    rate_sp = np.array([_Controller.ATT_P * (roll_sp - roll), _Controller.ATT_P * (pitch_sp - pitch), 0.0])
    gains = np.array([_Controller.RATE_P, _Controller.RATE_P, _Controller.YAW_RATE_P])
    moments = np.asarray(params.inertia_diag) * gains * (rate_sp - state.angular_rate)
    thrust = params.mass * (
        GRAVITY + _Controller.ALT_P * (state.position[2] - z_sp) + _Controller.ALT_D * state.velocity[2]
    )
    thrust = max(thrust, 0.1 * params.mass * GRAVITY)
    terms = alloc_inv * np.concatenate([[thrust], moments])  # column j scales input j
    w_sq = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]
    lo, hi = params.rotor_speed_limits
    return np.sqrt(np.clip(w_sq, lo**2, hi**2))


def oracle_flight(scenario, duration, fault, noise):
    """``fly_scenario`` from the oracles, one step and one sensor sample at a time."""
    draws = oracle_noise_draws(noise)
    dt = 0.002
    n = round(duration / dt)
    t, gyro, az, speeds = np.empty(n), np.empty((n, 3)), np.empty(n), np.empty((n, 4))
    state = as_arrays(hover_state(PARAMS))
    z_sp = state.position[2]
    pending = fault
    for i in range(n):
        t[i] = (i + 1) * dt
        if scenario == "ground_idle":
            speeds[i] = IDLE_ROTOR_SPEED
            gyro[i], az[i] = oracle_measure(np.zeros(3), -GRAVITY, speeds[i], draws, t[i])
            continue
        if pending is not None and t[i] > pending.time:
            true_k = state.true_k.copy()
            true_k[pending.actuator_index - 1] = pending.new_k
            state = replace(state, true_k=true_k)
            pending = None
        force, moment = (None if v is None else np.array(v) for v in _wind(scenario, i * dt))
        setpoints = oracle_setpoints(state, *_attitude_schedule(scenario, i * dt), z_sp, PARAMS)
        state = oracle_dynamics_step(state, setpoints, PARAMS, dt, force, moment)
        gyro[i], az[i] = oracle_synthesize_sensors(state, PARAMS, draws, t[i], force)
        speeds[i] = state.rotor_speeds
    return t, gyro, az, speeds


def random_state(rng):
    """A random flight state: attitude anywhere, some actuators faulted."""
    q = rng.normal(0.0, 1.0, 4)
    true_k = np.ones(4)
    faulted = rng.random(4) < 0.3
    true_k[faulted] = rng.choice([0.0, 0.4, 0.75], int(faulted.sum()))
    return SimState(
        angular_rate=rng.normal(0.0, 3.0, 3),
        quaternion=q / np.linalg.norm(q),
        velocity=rng.normal(0.0, 5.0, 3),
        position=rng.normal(0.0, 10.0, 3),
        rotor_speeds=rng.uniform(150.0, 1300.0, 4),
        true_k=true_k,
    )


def random_wind(rng):
    force = rng.normal(0.0, 0.5, 3) if rng.random() < 0.5 else None
    moment = rng.normal(0.0, 0.003, 3) if rng.random() < 0.5 else None
    return force, moment


def test_dynamics_step_matches_vector_oracle_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        state = random_state(rng)
        # setpoints beyond both rotor speed limits exercise the clip
        setpoints = rng.uniform(0.0, 1600.0, 4)
        dt = float(rng.choice([0.002, 0.0005, 0.01]))
        force, moment = random_wind(rng)
        got = dynamics_step(
            as_floats(state), setpoints.tolist(), PARAMS, dt, floats_or_none(force), floats_or_none(moment)
        )
        want = oracle_dynamics_step(state, setpoints, PARAMS, dt, force, moment)
        for name in ("angular_rate", "quaternion", "velocity", "position", "rotor_speeds", "true_k"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert all(type(v) is float for v in getattr(got, name)), name


def test_controller_and_dynamics_step_make_no_numpy_call(monkeypatch):
    controller = _Controller(PARAMS)
    state = random_state(np.random.default_rng(2026))
    floats = as_floats(state)
    want = oracle_setpoints(state, 0.1, -0.05, -1.5, PARAMS)
    monkeypatch.setattr("loedetect.simulator.np", None)
    setpoints = controller.setpoints(floats, 0.1, -0.05, -1.5)
    stepped = dynamics_step(floats, setpoints, PARAMS, 0.002, [0.3, -0.2, 0.0], [0.002, 0.001, 0.0])
    assert setpoints == want.tolist()
    assert all(type(v) is float for v in stepped.quaternion + stepped.angular_rate)


def test_closed_form_allocation_inverse_is_within_one_ulp_of_lapack():
    d, signs = allocation(PARAMS)
    lapack = np.linalg.inv(d[:, None] * signs)
    got = np.array(_Controller(PARAMS)._alloc_inv)
    assert np.all(np.abs(got - lapack) <= np.spacing(np.abs(lapack)))
    assert np.array_equal(got, signs.T / (4.0 * d))


def test_dynamics_step_reads_lists_tuples_and_arrays_alike():
    rng = np.random.default_rng(2025)
    for _ in range(200):
        state = random_state(rng)
        setpoints = rng.uniform(0.0, 1600.0, 4)
        force, moment = rng.normal(0.0, 0.5, 3), rng.normal(0.0, 0.003, 3)
        want = dynamics_step(as_floats(state), setpoints.tolist(), PARAMS, 0.002, force.tolist(), moment.tolist())
        as_tuples = SimState(**{name: tuple(value.tolist()) for name, value in vars(state).items()})
        for got in (
            dynamics_step(state, setpoints, PARAMS, 0.002, force, moment),
            dynamics_step(as_tuples, tuple(setpoints.tolist()), PARAMS, 0.002, tuple(force), tuple(moment)),
        ):
            for name, value in vars(want).items():
                assert np.array_equal(getattr(got, name), value), name


def test_synthesize_sensors_matches_vector_oracle_bit_for_bit():
    # One block call against the oracle's rows, drawn from one generator.
    rng = np.random.default_rng(7)
    n = 2000
    states = [random_state(rng) for _ in range(n)]
    forces = [random_wind(rng)[0] for _ in range(n)]
    t = np.arange(1, n + 1) * 0.002
    rows = [as_floats(state) for state in states]
    # The block form: the thrust of every row, plus the wind term of the rows with a force.
    speeds = np.array([floats.rotor_speeds for floats in rows])
    true_k = np.array([floats.true_k for floats in rows])
    windy = np.array([force is not None for force in forces])
    assert 0 < windy.sum() < n
    az_true = np.empty(n)
    az_true[~windy] = _true_accel_z(speeds[~windy], true_k[~windy], PARAMS)
    wind = _wind_accel_z(
        [floats.quaternion for floats, force in zip(rows, forces) if force is not None],
        [force for force in forces if force is not None],
        PARAMS,
    )
    az_true[windy] = _true_accel_z(speeds[windy], true_k[windy], PARAMS, wind)
    noise = SensorNoiseModel(seed=11)
    gyro, az = synthesize_sensors(
        [floats.angular_rate for floats in rows], az_true, [floats.rotor_speeds for floats in rows], t, noise
    )
    assert gyro.shape == (n, 3) and az.shape == (n,)
    draws = oracle_noise_draws(noise)
    for i, (state, force) in enumerate(zip(states, forces)):
        want_gyro, want_az = oracle_synthesize_sensors(state, PARAMS, draws, t[i], external_force=force)
        assert np.array_equal(gyro[i], want_gyro)
        assert az[i] == want_az
    *moments, thrust = _moments_and_thrust(rows[-1].rotor_speeds, rows[-1].true_k, PARAMS)
    want_moments, want_thrust = oracle_moments_and_thrust(states[-1], PARAMS)
    assert np.array_equal(moments, want_moments) and thrust == want_thrust


def test_wind_block_equals_one_projection_per_row_bit_for_bit():
    # The block sums R's third column times f left to right, as the
    # per-row oracle does; no BLAS product rounds either of them.
    rng = np.random.default_rng(10)
    n = 6000
    q = rng.normal(0.0, 1.0, (n, 4))
    quaternions = q / np.linalg.norm(q, axis=1)[:, None]
    forces = rng.normal(0.0, 0.5, (n, 3)) * rng.choice([1e-3, 1.0, 1e3], (n, 1))
    forces[::3, 2] = 0.0  # the wind scenario's forces are horizontal
    quaternion_lists, force_lists = quaternions.tolist(), forces.tolist()
    got = _wind_accel_z(quaternion_lists, force_lists, PARAMS)
    want = [oracle_wind_accel_z(q, f, PARAMS) for q, f in zip(quaternion_lists, force_lists)]
    assert got.shape == (n,)
    assert np.array_equal(got, want)
    assert np.array_equal(_wind_accel_z(quaternions, forces, PARAMS), got)


def test_one_sensor_block_equals_its_rows_one_at_a_time():
    # One block draws the generator in the per-sample order: three gyro
    # draws, then one accelerometer draw, row after row.
    rng = np.random.default_rng(8)
    n = 500
    omega = rng.normal(0.0, 1.0, (n, 3))
    az_true = rng.normal(-GRAVITY, 1.0, n)
    speeds = rng.uniform(150.0, 1300.0, (n, 4))
    t = np.arange(1, n + 1) * 0.002
    noise = SensorNoiseModel(seed=12)
    gyro, az = synthesize_sensors(omega, az_true, speeds, t, noise)
    draws = oracle_noise_draws(noise)
    for i in range(n):
        row_gyro, row_az = oracle_measure(omega[i], az_true[i], speeds[i], draws, t[i])
        assert np.array_equal(row_gyro, gyro[i])
        assert row_az == az[i]


def test_synthesize_sensors_draws_the_same_noise_on_every_call():
    rng = np.random.default_rng(9)
    n = 50
    args = (rng.normal(0.0, 1.0, (n, 3)), rng.normal(-GRAVITY, 1.0, n), rng.uniform(150.0, 1300.0, (n, 4)))
    t = np.arange(1, n + 1) * 0.002
    noise = SensorNoiseModel(seed=13)
    first, second = synthesize_sensors(*args, t, noise), synthesize_sensors(*args, t, noise)
    assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])


def test_sensor_noise_model_is_frozen_and_flying_leaves_it_unchanged():
    noise = SensorNoiseModel(seed=14).scaled(2.0)
    before = replace(noise)
    assert hash(noise) == hash(before)
    with pytest.raises(AttributeError):
        noise.seed = 15
    fly_scenario("hover", duration=0.1, fault=FaultEvent(time=0.05, actuator_index=2), noise=noise)
    assert noise == before


@pytest.mark.parametrize(("seed", "error"), [(-1, ValueError), (1.5, TypeError), (None, TypeError)])
def test_sensor_noise_model_rejects_a_bad_seed_when_built(seed, error):
    with pytest.raises(error):
        SensorNoiseModel(seed=seed)


@pytest.mark.parametrize(
    ("scenario", "fault"),
    [
        ("hover", FaultEvent(time=0.55, actuator_index=3)),
        ("step", FaultEvent(time=0.9, actuator_index=1)),
        ("wind", FaultEvent(time=0.7, actuator_index=2, new_k=0.4)),
        ("ground_idle", None),
    ],
)
def test_whole_flight_matches_the_per_step_vector_oracles_bit_for_bit(scenario, fault):
    log = fly_scenario(scenario, duration=1.2, fault=fault, noise=SensorNoiseModel(seed=21))
    t, gyro, az, speeds = oracle_flight(scenario, 1.2, fault, SensorNoiseModel(seed=21))
    assert np.array_equal(log.t, t)
    assert np.array_equal(log.gyro, gyro)
    assert np.array_equal(log.accel_z, az)
    assert np.array_equal(log.rotor_speeds, speeds)
    assert log.ground_truth() == (None if fault is None else (fault.actuator_index, fault.time))


def test_vehicle_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(mass=0.0)
    with pytest.raises(ValueError):
        VehicleParams(rotor_speed_limits=(900.0, 900.0))


def test_hover_speed_balances_weight():
    w = PARAMS.hover_speed()
    assert 4.0 * PARAMS.thrust_coeff * w * w == pytest.approx(PARAMS.mass * GRAVITY, rel=1e-12)


def test_hover_trim_prediction_matches_gravity():
    # detector model and simulator truth agree at trim: predicted a_z is -g
    from loedetect.effectiveness import gains_from_geometry

    gains = gains_from_geometry(PARAMS)
    speeds = np.full(4, PARAMS.hover_speed())
    pred = observation_matrix(gains, speeds) @ np.ones(4)
    assert abs(pred[2] + GRAVITY) / GRAVITY < 0.01


@pytest.mark.parametrize("count", [3, 5])
def test_dynamics_step_needs_four_setpoints(count):
    state = hover_state(PARAMS)
    with pytest.raises(ValueError):
        dynamics_step(state, [PARAMS.hover_speed()] * count, PARAMS, 0.002)
    with pytest.raises(ValueError):
        dynamics_step(state, np.full(count, PARAMS.hover_speed()), PARAMS, 0.002)


def test_hover_equilibrium_is_a_fixed_point():
    state = hover_state(PARAMS)
    setpoints = list(state.rotor_speeds)
    for _ in range(100):
        state = dynamics_step(state, setpoints, PARAMS, 0.002)
    assert np.abs(state.angular_rate).max() <= 1e-9
    assert np.abs(state.velocity).max() <= 1e-9
    assert np.abs(np.asarray(state.position) - hover_state(PARAMS).position).max() <= 1e-9


def test_sudden_loss_of_rotor_three_signs():
    # losing rotor 3 must roll and pitch positive and reduce the z load
    state = hover_state(PARAMS)
    *_, thrust_before = _moments_and_thrust(state.rotor_speeds, state.true_k, PARAMS)
    failed = inject_fault(state, FaultEvent(time=0.0, actuator_index=3))
    *moments, thrust_after = _moments_and_thrust(failed.rotor_speeds, failed.true_k, PARAMS)
    assert moments[0] > 0.0 and moments[1] > 0.0
    assert thrust_after < thrust_before
    stepped = dynamics_step(failed, list(state.rotor_speeds), PARAMS, 0.002)
    assert stepped.angular_rate[0] > 0.0 and stepped.angular_rate[1] > 0.0
    # proper acceleration becomes less negative (one thrust share gone)
    assert -thrust_after / PARAMS.mass > -thrust_before / PARAMS.mass


def test_angular_momentum_conserved_without_applied_moments():
    state = hover_state(PARAMS)
    state.true_k = [0.0] * 4  # no thrust, no yaw reaction: pure coupling term
    state.angular_rate = [1.0, -2.0, 3.0]
    inertia = np.asarray(PARAMS.inertia_diag)
    h0 = np.linalg.norm(inertia * state.angular_rate)
    setpoints = list(state.rotor_speeds)
    for _ in range(1000):
        state = dynamics_step(state, setpoints, PARAMS, 0.002)
    h1 = np.linalg.norm(inertia * state.angular_rate)
    assert abs(h1 - h0) / h0 <= 1e-6


def test_quaternion_stays_normalized():
    state = hover_state(PARAMS)
    state.angular_rate = [2.0, 1.0, -1.5]
    setpoints = list(state.rotor_speeds)
    for _ in range(500):
        state = dynamics_step(state, setpoints, PARAMS, 0.002)
        assert abs(np.linalg.norm(state.quaternion) - 1.0) <= 1e-9


def test_motor_lag_tracks_setpoints():
    state = hover_state(PARAMS)
    target = np.array([900.0, 900.0, 900.0, 900.0])
    state = dynamics_step(state, target, PARAMS, PARAMS.motor_time_constant)
    expected = target + (PARAMS.hover_speed() - target) * math.exp(-1.0)
    assert np.allclose(state.rotor_speeds, expected, rtol=1e-9)


def test_rotor_speeds_clipped_to_limits():
    state = hover_state(PARAMS)
    state = dynamics_step(state, np.full(4, 10_000.0), PARAMS, 1.0)
    assert np.all(np.asarray(state.rotor_speeds) <= PARAMS.rotor_speed_limits[1])
    state = dynamics_step(state, np.zeros(4), PARAMS, 10.0)
    assert np.all(np.asarray(state.rotor_speeds) >= PARAMS.rotor_speed_limits[0])


def test_inject_fault_zeroes_thrust_but_keeps_rotor_spinning():
    state = hover_state(PARAMS)
    failed = inject_fault(state, FaultEvent(time=1.0, actuator_index=2, new_k=0.0))
    assert failed.true_k[1] == 0.0
    assert failed.rotor_speeds[1] == state.rotor_speeds[1] > 0.0
    thrusts = PARAMS.thrust_coeff * np.asarray(failed.true_k) * np.square(failed.rotor_speeds)
    assert thrusts[1] == 0.0


def test_inject_fault_on_healthy_value_is_noop():
    state = hover_state(PARAMS)
    same = inject_fault(state, FaultEvent(time=1.0, actuator_index=1, new_k=1.0))
    assert np.array_equal(same.true_k, state.true_k)


def test_double_ejection_zeroes_both():
    state = hover_state(PARAMS)
    state = inject_fault(state, FaultEvent(time=1.0, actuator_index=1))
    state = inject_fault(state, FaultEvent(time=2.0, actuator_index=4))
    assert np.array_equal(state.true_k, [0.0, 1.0, 1.0, 0.0])


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(time=-1.0, actuator_index=1)
    for time in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            FaultEvent(time=time, actuator_index=1)
    with pytest.raises(ValueError):
        FaultEvent(time=1.0, actuator_index=5)
    with pytest.raises(ValueError):
        FaultEvent(time=1.0, actuator_index=1, new_k=1.5)


@pytest.mark.parametrize("index", [2.5, 3.0, True, False])
def test_fault_event_rejects_a_non_integer_actuator_index(index):
    with pytest.raises(TypeError):
        FaultEvent(time=0.5, actuator_index=index)


@pytest.mark.parametrize("factor", [-1.0, math.nan, math.inf])
def test_noise_scale_must_be_finite_and_non_negative(factor):
    with pytest.raises(ValueError, match="finite and non-negative"):
        SensorNoiseModel(seed=1).scaled(factor)
    with pytest.raises(ValueError, match="gyro_noise_std must be finite and non-negative"):
        SensorNoiseModel(gyro_noise_std=factor)


def test_zero_noise_sensors_are_exact():
    state = hover_state(PARAMS)
    az_true = _true_accel_z([state.rotor_speeds], [state.true_k], PARAMS)
    gyro, az = synthesize_sensors([state.angular_rate], az_true, [state.rotor_speeds], [0.5], QUIET)
    assert np.array_equal(gyro, [state.angular_rate])
    *_, thrust = _moments_and_thrust(state.rotor_speeds, state.true_k, PARAMS)
    assert az[0] == pytest.approx(-thrust / PARAMS.mass, rel=1e-12)
    assert az[0] == pytest.approx(-GRAVITY, rel=1e-9)


def test_rpm_telemetry_never_corrupted():
    # The sensor model returns gyro and accelerometer only, so the logged
    # rotor speeds are the true ones however noisy the sensors; the
    # whole-flight oracle test checks the same for flying scenarios.
    idle = fly_scenario("ground_idle", duration=0.5, noise=SensorNoiseModel(seed=3))
    assert np.all(idle.rotor_speeds == IDLE_ROTOR_SPEED)


def test_fixed_seed_streams_are_bit_identical():
    a = fly_scenario("hover", duration=0.5, noise=SensorNoiseModel(seed=9))
    b = fly_scenario("hover", duration=0.5, noise=SensorNoiseModel(seed=9))
    assert np.array_equal(a.gyro, b.gyro)
    assert np.array_equal(a.accel_z, b.accel_z)
    assert np.array_equal(a.rotor_speeds, b.rotor_speeds)
    c = fly_scenario("hover", duration=0.5, noise=SensorNoiseModel(seed=10))
    assert not np.array_equal(a.gyro, c.gyro)


def test_vibration_tracks_rotor_frequency():
    vib_only = SensorNoiseModel(0.0, 0.0, 0.0, 0.0, gyro_vibration=0.05, accel_vibration=0.0, seed=1)
    state = hover_state(PARAMS)
    dt = 0.002
    n = 2000
    gyro, _ = synthesize_sensors(
        [state.angular_rate] * n,
        _true_accel_z([state.rotor_speeds] * n, [state.true_k] * n, PARAMS),
        [state.rotor_speeds] * n,
        np.arange(1, n + 1) * dt,
        vib_only,
    )
    samples = gyro[:, 0]
    spectrum = np.abs(np.fft.rfft(samples - samples.mean()))
    freqs = np.fft.rfftfreq(n, dt)
    peak = freqs[int(np.argmax(spectrum))]
    rotor_hz = PARAMS.hover_speed() / (2.0 * math.pi)
    assert abs(peak - rotor_hz) < 2.0
    assert 50.0 <= peak <= 200.0


def test_hover_ten_seconds_yields_5000_samples():
    log = fly_scenario("hover", duration=10.0, noise=QUIET)
    assert len(log) == 5000
    assert log.sample_rate_hz == pytest.approx(500.0)
    assert log.ground_truth() is None


def test_fault_annotation_uses_requested_time():
    log = fly_scenario(
        "hover",
        duration=2.0,
        fault=FaultEvent(time=1.56, actuator_index=3),
        noise=QUIET,
    )
    assert log.ground_truth() == (3, 1.56)


def test_model_residual_small_in_benign_hover():
    # with noise off, measured accelerations match the effectiveness model
    log = fly_scenario("hover", duration=4.0, noise=QUIET)
    gains = DEFAULT_GAINS
    bank = FilterState(design_lowpass(FilterDesign(), 0.002))
    prev = None
    worst = 0.0
    for i in range(len(log)):
        vec = np.concatenate([log.gyro[i, :2], [log.accel_z[i]], log.rotor_speeds[i]])
        out = np.array(filter_step(bank, vec.tolist()))
        if (i + 1) % 10 == 0:
            if prev is not None:
                accel = (out[:2] - prev[:2]) / 0.02
                z = np.array([accel[0], accel[1], out[2]])
                h = observation_matrix(gains, out[3:7])
                if i > 500:  # after filter settling
                    resid = np.linalg.norm(z - h @ np.ones(4))
                    worst = max(worst, resid / np.linalg.norm(z))
            prev = out.copy()
    assert worst <= 0.05


def test_scenario_validation():
    with pytest.raises(ValueError, match="unknown scenario"):
        fly_scenario("loop-the-loop", duration=1.0)
    with pytest.raises(ValueError):
        fly_scenario("hover", duration=0.0)
    for duration in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            fly_scenario("hover", duration=duration)
    with pytest.raises(ValueError, match="shorter than one 0.002 s sample"):
        fly_scenario("ground_idle", duration=0.001)
    with pytest.raises(ValueError):
        fly_scenario("hover", duration=1.0, fault=FaultEvent(time=2.0, actuator_index=1))


def test_ground_idle_rejects_a_fault():
    # A fault it never injects would be a ground truth the log does not carry.
    with pytest.raises(ValueError, match="ground_idle takes no fault"):
        fly_scenario("ground_idle", duration=1.0, fault=FaultEvent(time=0.5, actuator_index=3))
    assert fly_scenario("ground_idle", duration=1.0).ground_truth() is None


def test_divergence_check_raises():
    state = hover_state(PARAMS)
    state.angular_rate = [math.inf, 0.0, 0.0]
    with pytest.raises(DivergenceError, match="step 7"):
        _check_plausible(state, 7, 0.016)


def _diverged_components():
    """Each checked component at NaN and +-inf; rates and velocity also just past the envelope."""
    for field in ("angular_rate", "quaternion", "velocity", "position"):
        values = [math.nan, math.inf, -math.inf]
        if field in ("angular_rate", "velocity"):
            values += [1000.5, -1000.5]
        for index in range(len(getattr(hover_state(PARAMS), field))):
            for value in values:
                yield pytest.param(field, index, value, id=f"{field}[{index}]={value}")


@pytest.mark.parametrize(("field", "index", "value"), list(_diverged_components()))
def test_divergence_check_catches_nan_and_runaway_states(field, index, value):
    state = hover_state(PARAMS)
    bad = list(getattr(state, field))
    bad[index] = value
    setattr(state, field, bad)
    with pytest.raises(DivergenceError, match="step 7"):
        _check_plausible(state, 7, 0.016)


def test_divergence_check_accepts_the_envelope_edge():
    state = hover_state(PARAMS)
    state.angular_rate = [0.0, -1000.0, 0.0]
    state.velocity = [1000.0, 0.0, 0.0]
    _check_plausible(state, 7, 0.016)


def test_ground_idle_stays_below_gate():
    log = fly_scenario("ground_idle", duration=2.0, noise=SensorNoiseModel(seed=2))
    thrust_proxy = np.sum(np.square(log.rotor_speeds), axis=1)
    assert thrust_proxy.max() < 0.5 * 1.962e6
    assert len(log) == 1000


def test_wind_scenario_stays_plausible():
    log = fly_scenario("wind", duration=3.0, noise=QUIET)
    assert len(log) == 1500
    assert np.isfinite(log.gyro).all()
    # wind tilts the vehicle; rates stay small in closed loop
    assert np.abs(log.gyro).max() < 2.0


def test_step_scenario_exercises_attitude():
    log = fly_scenario("step", duration=3.0, noise=QUIET)
    assert np.abs(log.gyro[:, 0]).max() > 0.1  # roll maneuvers actually happen
    spread = log.rotor_speeds.max(axis=1) - log.rotor_speeds.min(axis=1)
    assert spread.max() > 10.0
