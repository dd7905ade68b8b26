"""Quadrotor flight simulator with injectable sudden actuator failures.

Rigid-body dynamics with first-order motor lag, a simple cascaded
attitude/rate controller to keep flights plausible, and a sensor model that
corrupts gyro and accelerometer channels with bias, white noise and
rotor-synchronous vibration. Rotor speed telemetry stays exact: the failure
being modeled is a propeller leaving the motor, so the motor keeps spinning
and reporting truthfully while its thrust vanishes instantly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .effectiveness import GRAVITY, SIGN_MATRIX, YAW_SIGNS, VehicleParams
from .flightlog import FlightLog

# Roll and pitch signs are rows 0 and 1 of the detector's SIGN_MATRIX. The
# per-step code runs on Python floats, so it reads the signs as lists.
_ROLL, _PITCH = SIGN_MATRIX[:2].tolist()
_YAW = YAW_SIGNS.tolist()

SCENARIOS = ("hover", "step", "wind", "ground_idle")


class DivergenceError(RuntimeError):
    """Simulated state left the plausible envelope."""


@dataclass
class SimState:
    """Vehicle state; every field is a list of Python floats."""

    angular_rate: list[float]  # 3, body rad/s
    quaternion: list[float]  # 4, w,x,y,z body-to-world
    velocity: list[float]  # 3, world NED m/s
    position: list[float]  # 3, world NED m, z down
    rotor_speeds: list[float]  # 4, rad/s
    true_k: list[float]  # 4, actual effectiveness factors

    def copy(self) -> "SimState":
        return SimState(
            list(self.angular_rate),
            list(self.quaternion),
            list(self.velocity),
            list(self.position),
            list(self.rotor_speeds),
            list(self.true_k),
        )


@dataclass(frozen=True)
class FaultEvent:
    """Sudden effectiveness change of one actuator (total loss by default)."""

    time: float
    actuator_index: int  # 1-based
    new_k: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < math.inf:
            raise ValueError(f"fault time must be finite and non-negative, got {self.time}")
        if not 1 <= self.actuator_index <= 4:
            raise ValueError(f"actuator_index must be 1..4, got {self.actuator_index}")
        if not 0.0 <= self.new_k <= 1.0:
            raise ValueError("new_k must lie in [0, 1]")


@dataclass
class SensorNoiseModel:
    """Gyro/accelerometer corruption; rotor speed telemetry is never corrupted.

    Biases and vibration phases are drawn once per reset from the seeded
    generator, so a (scenario, seed, params) triple fully determines a log.
    """

    gyro_noise_std: float = 0.005  # rad/s
    gyro_bias: float = 0.01  # rad/s, std of the per-axis constant bias
    accel_noise_std: float = 0.08  # m/s^2
    accel_bias: float = 0.05  # m/s^2
    gyro_vibration: float = 0.02  # rad/s at rotor frequency
    accel_vibration: float = 0.3  # m/s^2 at rotor frequency
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False, compare=False, default=None)
    _gyro_bias_vec: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _accel_bias_val: float = field(init=False, repr=False, compare=False, default=0.0)
    _phases: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        for name in (
            "gyro_noise_std",
            "gyro_bias",
            "accel_noise_std",
            "accel_bias",
            "gyro_vibration",
            "accel_vibration",
        ):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        self.reset()

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._gyro_bias_vec = self._rng.normal(0.0, self.gyro_bias, 3)
        self._accel_bias_val = float(self._rng.normal(0.0, self.accel_bias))
        self._phases = self._rng.uniform(0.0, 2.0 * math.pi, 4)

    def scaled(self, factor: float) -> "SensorNoiseModel":
        """Copy with every corruption magnitude multiplied by ``factor``."""
        if not 0.0 <= factor < math.inf:
            raise ValueError(f"noise scale factor must be finite and non-negative, got {factor}")
        return SensorNoiseModel(
            gyro_noise_std=self.gyro_noise_std * factor,
            gyro_bias=self.gyro_bias * factor,
            accel_noise_std=self.accel_noise_std * factor,
            accel_bias=self.accel_bias * factor,
            gyro_vibration=self.gyro_vibration * factor,
            accel_vibration=self.accel_vibration * factor,
            seed=self.seed,
        )


# --------------------------------------------------------------------------
# Quaternion helpers (w, x, y, z convention, body-to-world).


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _roll_pitch(q: list[float]) -> tuple[float, float]:
    w, x, y, z = q
    roll = math.atan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y))
    pitch = math.asin(max(-1.0, min(1.0, 2 * (w * y - z * x))))
    return roll, pitch


# --------------------------------------------------------------------------


def hover_state(params: VehicleParams) -> SimState:
    """Trimmed hover 1.5 m above the ground (NED: z = -1.5)."""
    return SimState(
        angular_rate=[0.0, 0.0, 0.0],
        quaternion=[1.0, 0.0, 0.0, 0.0],
        velocity=[0.0, 0.0, 0.0],
        position=[0.0, 0.0, -1.5],
        rotor_speeds=[params.hover_speed()] * 4,
        true_k=[1.0] * 4,
    )


def _signed_sum(signs: list, values: list) -> float:
    # Left-to-right sum: equals numpy's ``signs @ values`` bit for bit.
    return signs[0] * values[0] + signs[1] * values[1] + signs[2] * values[2] + signs[3] * values[3]


def _moments_and_thrust(
    speeds, true_k, params: VehicleParams
) -> tuple[float, float, float, float]:
    """Scalar core: body moments (m_x, m_y, m_z) and the total thrust."""
    ct = params.thrust_coeff
    w_sq = [w * w for w in speeds]
    thrusts = [ct * k * s for k, s in zip(true_k, w_sq)]
    reaction = [k * s for k, s in zip(true_k, w_sq)]
    return (
        params.arm_y * _signed_sum(_ROLL, thrusts),
        params.arm_x * _signed_sum(_PITCH, thrusts),
        params.moment_coeff * _signed_sum(_YAW, reaction),
        thrusts[0] + thrusts[1] + thrusts[2] + thrusts[3],
    )


def actuator_moments_and_thrust(
    state: SimState, params: VehicleParams
) -> tuple[np.ndarray, float]:
    """Body moments from the actuators and the total thrust magnitude."""
    m_x, m_y, m_z, thrust = _moments_and_thrust(state.rotor_speeds, state.true_k, params)
    return np.array([m_x, m_y, m_z]), thrust


def dynamics_step(
    state: SimState,
    rotor_setpoints,
    params: VehicleParams,
    dt: float,
    external_force=None,
    external_moment=None,
) -> SimState:
    """Advance the vehicle one fixed step (RK4 on the rigid body).

    Rotors track their setpoints through a first-order lag and are held
    constant inside the integration step. The Euler coupling term
    ``-Omega x I Omega`` is always included; external force is expressed in
    the world frame, external moment in the body frame.

    The state fields, setpoints, force and moment are read as float
    sequences; lists, tuples and arrays give the same bits. The arithmetic
    runs on Python floats in the operation order of the vector form, so
    results are bit-identical to it; only the quaternion norm's dot stays
    numpy, whose BLAS dot a scalar sum of squares does not reproduce.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lo, hi = params.rotor_speed_limits
    decay = math.exp(-dt / params.motor_time_constant)
    speeds = []
    for sp, w in zip(rotor_setpoints, state.rotor_speeds, strict=True):
        x = sp + (w - sp) * decay
        speeds.append(hi if x > hi else lo if x < lo else x)

    m_x, m_y, m_z, thrust = _moments_and_thrust(speeds, state.true_k, params)
    if external_moment is not None:
        e_x, e_y, e_z = external_moment
        m_x, m_y, m_z = m_x + e_x, m_y + e_y, m_z + e_z
    ix, iy, iz = params.inertia_diag
    f_z = -thrust / params.mass  # body-frame specific force, along body z only
    if external_force is None:
        a_x = a_y = a_z = 0.0
    else:
        a_x, a_y, a_z = [f / params.mass for f in external_force]

    def deriv(p, q, r, qw, qx, qy, qz):
        # omega_dot = (M - omega x I omega) / I, q_dot = q * (0, omega) / 2,
        # v_dot = R(q) f_body + g + a_ext with R's third column written out.
        bx, by, bz = ix * p, iy * q, iz * r
        return (
            (m_x - (q * bz - r * by)) / ix,
            (m_y - (r * bx - p * bz)) / iy,
            (m_z - (p * by - q * bx)) / iz,
            0.5 * (-qx * p - qy * q - qz * r),
            0.5 * (qw * p + qy * r - qz * q),
            0.5 * (qw * q + qz * p - qx * r),
            0.5 * (qw * r + qx * q - qy * p),
            2 * (qx * qz + qw * qy) * f_z + a_x,
            2 * (qy * qz - qw * qx) * f_z + a_y,
            (1 - 2 * (qx * qx + qy * qy)) * f_z + GRAVITY + a_z,
        )

    # y = (omega, q, v); the derivative does not depend on v or position.
    y = [*state.angular_rate, *state.quaternion, *state.velocity]
    half = 0.5 * dt
    k1 = deriv(*y[:7])
    y2 = [a + half * d for a, d in zip(y, k1)]
    k2 = deriv(*y2[:7])
    y3 = [a + half * d for a, d in zip(y, k2)]
    k3 = deriv(*y3[:7])
    y4 = [a + dt * d for a, d in zip(y, k3)]
    k4 = deriv(*y4[:7])

    sixth = dt / 6.0
    new = [a + sixth * (d1 + 2 * d2 + 2 * d3 + d4) for a, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]
    new_q = new[3:7]
    q_arr = np.array(new_q)
    norm = math.sqrt(q_arr.dot(q_arr))  # np.linalg.norm's own formula
    # velocity enters position linearly; same RK4 weights on the v stages
    new_pos = [
        x + sixth * (v1 + 2 * v2 + 2 * v3 + v4)
        for x, v1, v2, v3, v4 in zip(state.position, y[7:], y2[7:], y3[7:], y4[7:])
    ]

    return SimState(
        angular_rate=new[:3],
        quaternion=[c / norm for c in new_q],
        velocity=new[7:],
        position=new_pos,
        rotor_speeds=speeds,
        true_k=list(state.true_k),
    )


def inject_fault(state: SimState, event: FaultEvent) -> SimState:
    """Apply a sudden effectiveness change; the motor keeps spinning."""
    out = state.copy()
    out.true_k[event.actuator_index - 1] = float(event.new_k)
    return out


def _true_accel_z(state: SimState, params: VehicleParams, external_force=None) -> float:
    """Body-z specific force the accelerometer would read with no corruption."""
    thrust = _moments_and_thrust(state.rotor_speeds, state.true_k, params)[3]
    az_true = -thrust / params.mass
    if external_force is not None:
        # Stays a numpy product: BLAS rounds this 3-term sum differently
        # from a scalar one, and the logs must stay bit-stable.
        f_body = quat_to_matrix(state.quaternion).T @ np.asarray(external_force, dtype=float)
        az_true += float(f_body[2]) / params.mass
    return az_true


def synthesize_sensors(
    angular_rate,
    az_true,
    rotor_speeds,
    t,
    noise: SensorNoiseModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Corrupted gyro ``(n, 3)`` and accelerometer ``(n,)`` readings of n samples.

    ``angular_rate`` ``(n, 3)`` holds the true body rates, ``az_true``
    ``(n,)`` the true body-z specific force, ``rotor_speeds`` ``(n, 4)`` the
    rotor speeds that set the vibration frequency, and ``t`` ``(n,)`` the
    sample times. Rotor speed telemetry is never corrupted, so it is not
    returned. The white noise is drawn in one call, row by row: three gyro
    draws, then one accelerometer draw, which is the order n one-row calls
    take them in, so a block gives the same bits as its rows one at a time.
    """
    omega = np.asarray(angular_rate, dtype=float)
    az_true = np.asarray(az_true, dtype=float)
    speeds = np.asarray(rotor_speeds, dtype=float)
    t = np.asarray(t, dtype=float)
    n = len(t)
    if t.shape != (n,) or omega.shape != (n, 3) or az_true.shape != (n,) or speeds.shape != (n, 4):
        raise ValueError("synthesize_sensors needs rates (n, 3), az_true (n,), rotor speeds (n, 4), t (n,)")
    g, a = noise.gyro_noise_std, noise.accel_noise_std
    white = noise._rng.normal(0.0, (g, g, g, a), (n, 4))
    wbar = (speeds[:, 0] + speeds[:, 1] + speeds[:, 2] + speeds[:, 3]) / 4
    phase = wbar * t
    gyro = (
        omega
        + noise._gyro_bias_vec
        + white[:, :3]
        + noise.gyro_vibration * np.sin(phase[:, None] + noise._phases[:3])
    )
    # The accelerometer's sine is ``math.sin``, one row at a time.
    accel_phase = float(noise._phases[3])
    accel_sin = np.array([math.sin(x + accel_phase) for x in phase.tolist()])
    az = az_true + noise._accel_bias_val + white[:, 3] + noise.accel_vibration * accel_sin
    return gyro, az


# --------------------------------------------------------------------------
# Closed-loop scenario generation.


class _Controller:
    """Cascaded attitude/rate controller with nominal-effectiveness allocation."""

    ATT_P = 6.0  # attitude to rate setpoint, 1/s
    RATE_P = 25.0  # rate loop bandwidth, 1/s
    YAW_RATE_P = 8.0
    ALT_P = 2.5
    ALT_D = 3.0

    def __init__(self, params: VehicleParams):
        self.params = params
        ct, cm = params.thrust_coeff, params.moment_coeff
        alloc = np.array(
            [
                [ct, ct, ct, ct],
                ct * params.arm_y * SIGN_MATRIX[0],
                ct * params.arm_x * SIGN_MATRIX[1],
                cm * YAW_SIGNS,
            ]
        )
        self._alloc_inv = np.linalg.inv(alloc)
        self._w_sq_limits = (
            params.rotor_speed_limits[0] ** 2,
            params.rotor_speed_limits[1] ** 2,
        )

    def setpoints(
        self, state: SimState, roll_sp: float, pitch_sp: float, z_sp: float
    ) -> list[float]:
        params = self.params
        roll, pitch = _roll_pitch(state.quaternion)
        p, q, r = state.angular_rate
        ix, iy, iz = params.inertia_diag

        p_sp = self.ATT_P * (roll_sp - roll)
        q_sp = self.ATT_P * (pitch_sp - pitch)
        m_x = ix * self.RATE_P * (p_sp - p)
        m_y = iy * self.RATE_P * (q_sp - q)
        m_z = iz * self.YAW_RATE_P * (0.0 - r)

        z, vz = state.position[2], state.velocity[2]
        thrust = params.mass * (
            GRAVITY + self.ALT_P * (z - z_sp) + self.ALT_D * vz
        )
        thrust = max(thrust, 0.1 * params.mass * GRAVITY)

        lo, hi = self._w_sq_limits
        # Stays a numpy product, rounded as BLAS rounds it.
        w_sq = (self._alloc_inv @ np.array([thrust, m_x, m_y, m_z])).tolist()
        return [math.sqrt(hi if x > hi else lo if x < lo else x) for x in w_sq]


def _attitude_schedule(scenario: str, t: float) -> tuple[float, float]:
    if scenario != "step":
        return 0.0, 0.0
    block = int(t) % 5
    return [(0.12, 0.0), (0.0, 0.12), (-0.12, 0.0), (0.0, -0.12), (0.0, 0.0)][block]


def _wind(scenario: str, t: float) -> tuple[list[float] | None, list[float] | None]:
    """World-frame external force and body-frame external moment at ``t``."""
    if scenario != "wind":
        return None, None
    force = [
        0.3 + 0.15 * math.sin(2.0 * math.pi * 0.5 * t),
        0.2 * math.sin(2.0 * math.pi * 0.3 * t + 1.0),
        0.0,
    ]
    moment = [
        0.002 * math.sin(2.0 * math.pi * 0.8 * t),
        0.0015 * math.sin(2.0 * math.pi * 0.6 * t + 0.5),
        0.0,
    ]
    return force, moment


def _check_plausible(state: SimState, step_index: int, t: float) -> None:
    rate, vel = state.angular_rate, state.velocity
    if (
        not all(map(math.isfinite, [*rate, *vel, *state.position, *state.quaternion]))
        or max(map(abs, rate)) > 1000.0
        or max(map(abs, vel)) > 1000.0
    ):
        raise DivergenceError(f"simulation diverged at step {step_index} (t={t:.3f} s)")


IDLE_ROTOR_SPEED = 350.0  # rad/s, below the default takeoff gate


def fly_scenario(
    scenario: str = "hover",
    duration: float = 10.0,
    fault: FaultEvent | None = None,
    noise: SensorNoiseModel | None = None,
) -> FlightLog:
    """Simulate a closed-loop flight of the default airframe; return its 500 Hz log.

    Scenarios: ``hover`` holds altitude and level attitude, ``step`` flies a
    repeating sequence of attitude steps, ``wind`` adds a constant-plus-gust
    external force and moment, ``ground_idle`` keeps the vehicle on the ground
    with rotors idling below the takeoff gate. Nothing flies on the ground, so
    ``ground_idle`` takes no fault.

    The flight loop reads only the true state, so the sensors of the whole
    flight are corrupted in one ``synthesize_sensors`` call at the end.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r} (expected one of {SCENARIOS})")
    if scenario == "ground_idle" and fault is not None:
        raise ValueError("scenario ground_idle takes no fault: nothing flies")
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be finite and positive, got {duration}")
    if fault is not None and fault.time >= duration:
        raise ValueError("fault time must fall inside the flight duration")
    params = VehicleParams()
    noise = noise if noise is not None else SensorNoiseModel()
    noise.reset()

    dt = 0.002  # s
    n = round(duration / dt)
    if n < 1:
        raise ValueError(f"duration {duration} s is shorter than one {dt} s sample")
    times = np.arange(1, n + 1) * dt

    if scenario == "ground_idle":
        rates = np.zeros((n, 3))
        az_true = np.full(n, -GRAVITY)
        speeds = np.full((n, 4), IDLE_ROTOR_SPEED)
    else:
        controller = _Controller(params)
        state = hover_state(params)
        z_sp = state.position[2]
        fault_applied = fault is None
        rates, az_true, speeds = [], [], []
        for i in range(n):
            t_start = i * dt
            t_next = (i + 1) * dt
            if not fault_applied and t_next > fault.time:
                state = inject_fault(state, fault)
                fault_applied = True
            roll_sp, pitch_sp = _attitude_schedule(scenario, t_start)
            force, moment = _wind(scenario, t_start)
            setpoints = controller.setpoints(state, roll_sp, pitch_sp, z_sp)
            state = dynamics_step(state, setpoints, params, dt, force, moment)
            _check_plausible(state, i, t_next)
            rates.append(state.angular_rate)
            az_true.append(_true_accel_z(state, params, force))
            speeds.append(state.rotor_speeds)
        speeds = np.array(speeds)

    gyro, accel_z = synthesize_sensors(rates, az_true, speeds, times, noise)
    return FlightLog(
        sample_rate_hz=1.0 / dt,
        t=times,
        gyro=gyro,
        accel_z=accel_z,
        rotor_speeds=speeds,
        fault_actuator=fault.actuator_index if fault else None,
        fault_time_s=fault.time if fault else None,
        vehicle="default",
    )
