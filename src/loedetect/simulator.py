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
import operator
from dataclasses import dataclass, replace

import numpy as np

from .effectiveness import GRAVITY, SIGN_MATRIX, YAW_SIGNS, VehicleParams
from .flightlog import FlightLog

SCENARIOS = ("hover", "step", "wind", "ground_idle")


class DivergenceError(RuntimeError):
    """Simulated state left the plausible envelope."""


@dataclass  # not frozen: a frozen __init__ costs one call per field, every step
class SimState:
    """Vehicle state; every field is a tuple of Python floats, shared between states."""

    angular_rate: tuple[float, ...]  # 3, body rad/s
    quaternion: tuple[float, ...]  # 4, w,x,y,z body-to-world
    velocity: tuple[float, ...]  # 3, world NED m/s
    position: tuple[float, ...]  # 3, world NED m, z down
    rotor_speeds: tuple[float, ...]  # 4, rad/s
    true_k: tuple[float, ...]  # 4, actual effectiveness factors


@dataclass(frozen=True)
class FaultEvent:
    """Sudden effectiveness change of one actuator (total loss by default)."""

    time: float
    actuator_index: int  # 1-based
    new_k: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.time < math.inf:
            raise ValueError(f"fault time must be finite and non-negative, got {self.time}")
        if isinstance(self.actuator_index, bool):  # saved as "True", which no log reads back
            raise TypeError(f"actuator_index must be an integer, got {self.actuator_index!r}")
        if not 1 <= operator.index(self.actuator_index) <= 4:  # a TypeError unless an integer
            raise ValueError(f"actuator_index must be 1..4, got {self.actuator_index}")
        if not 0.0 <= self.new_k <= 1.0:
            raise ValueError("new_k must lie in [0, 1]")


# The corruption magnitudes of ``SensorNoiseModel``, which ``scaled`` multiplies.
_MAGNITUDES = ("gyro_noise_std", "gyro_bias", "accel_noise_std", "accel_bias", "gyro_vibration", "accel_vibration")


@dataclass(frozen=True)
class SensorNoiseModel:
    """Gyro/accelerometer corruption; rotor speed telemetry is never corrupted.

    ``synthesize_sensors`` draws the biases, the vibration phases and the
    white noise from a generator seeded with ``seed`` on each call, so a
    (scenario, seed, params) triple fully determines a log.
    """

    gyro_noise_std: float = 0.005  # rad/s
    gyro_bias: float = 0.01  # rad/s, std of the per-axis constant bias
    accel_noise_std: float = 0.08  # m/s^2
    accel_bias: float = 0.05  # m/s^2
    gyro_vibration: float = 0.02  # rad/s at rotor frequency
    accel_vibration: float = 0.3  # m/s^2 at rotor frequency
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _MAGNITUDES:
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if operator.index(self.seed) < 0:  # a TypeError unless an integer
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def scaled(self, factor: float) -> "SensorNoiseModel":
        """Copy with every corruption magnitude multiplied by ``factor``."""
        if not 0.0 <= factor < math.inf:
            raise ValueError(f"noise scale factor must be finite and non-negative, got {factor}")
        return replace(self, **{name: getattr(self, name) * factor for name in _MAGNITUDES})


def hover_state(params: VehicleParams) -> SimState:
    """Trimmed hover 1.5 m above the ground (NED: z = -1.5)."""
    return SimState(
        angular_rate=(0.0, 0.0, 0.0),
        quaternion=(1.0, 0.0, 0.0, 0.0),
        velocity=(0.0, 0.0, 0.0),
        position=(0.0, 0.0, -1.5),
        rotor_speeds=(params.hover_speed(),) * 4,
        true_k=(1.0,) * 4,
    )


def _moments_and_thrust(
    speeds, true_k, params: VehicleParams
) -> tuple[float, float, float, float]:
    """Scalar core: body moments (m_x, m_y, m_z) and the total thrust.

    The signed sums are ``SIGN_MATRIX[0]``, ``SIGN_MATRIX[1]`` and
    ``YAW_SIGNS`` written out, summed left to right: with signs of +/-1 each
    term is exact, so this equals numpy's ``signs @ values`` bit for bit.
    """
    ct = params.thrust_coeff
    w0, w1, w2, w3 = speeds
    k0, k1, k2, k3 = true_k
    s0, s1, s2, s3 = w0 * w0, w1 * w1, w2 * w2, w3 * w3
    t0, t1, t2, t3 = ct * k0 * s0, ct * k1 * s1, ct * k2 * s2, ct * k3 * s3
    return (
        params.arm_y * (t0 - t1 - t2 + t3),
        params.arm_x * (t0 + t1 - t2 - t3),
        params.moment_coeff * (k0 * s0 - k1 * s1 + k2 * s2 - k3 * s3),
        t0 + t1 + t2 + t3,
    )


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
    results are bit-identical to it. The quaternion norm is the written-out
    sum of squares, left to right, so no step makes a numpy call.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lo, hi = params.rotor_speed_limits
    decay = math.exp(-dt / params.motor_time_constant)
    s0, s1, s2, s3 = rotor_setpoints  # a ValueError unless four
    w0, w1, w2, w3 = state.rotor_speeds
    x0, x1 = s0 + (w0 - s0) * decay, s1 + (w1 - s1) * decay
    x2, x3 = s2 + (w2 - s2) * decay, s3 + (w3 - s3) * decay
    speeds = (
        hi if x0 > hi else lo if x0 < lo else x0,
        hi if x1 > hi else lo if x1 < lo else x1,
        hi if x2 > hi else lo if x2 < lo else x2,
        hi if x3 > hi else lo if x3 < lo else x3,
    )

    m_x, m_y, m_z, thrust = _moments_and_thrust(speeds, state.true_k, params)
    if external_moment is not None:
        e_x, e_y, e_z = external_moment
        m_x, m_y, m_z = m_x + e_x, m_y + e_y, m_z + e_z
    ix, iy, iz = params.inertia_diag
    mass = params.mass
    f_z = -thrust / mass  # body-frame specific force, along body z only
    if external_force is None:
        a_x = a_y = a_z = 0.0
    else:
        e_x, e_y, e_z = external_force
        a_x, a_y, a_z = e_x / mass, e_y / mass, e_z / mass

    # omega_dot = (M - omega x I omega) / I, q_dot = q * (0, omega) / 2,
    # v_dot = R(q) f_body + g + a_ext with R's third column written out.
    # The derivative reads neither v nor position; velocity enters position
    # linearly, so position takes the same RK4 weights on the v stages.
    # Stage s holds the state p<s> ... vz<s> and its derivative dp<s> ... dvz<s>.
    p1, q1, r1 = state.angular_rate
    qw1, qx1, qy1, qz1 = state.quaternion
    vx1, vy1, vz1 = state.velocity
    bx, by, bz = ix * p1, iy * q1, iz * r1
    dp1 = (m_x - (q1 * bz - r1 * by)) / ix
    dq1 = (m_y - (r1 * bx - p1 * bz)) / iy
    dr1 = (m_z - (p1 * by - q1 * bx)) / iz
    dqw1 = 0.5 * (-qx1 * p1 - qy1 * q1 - qz1 * r1)
    dqx1 = 0.5 * (qw1 * p1 + qy1 * r1 - qz1 * q1)
    dqy1 = 0.5 * (qw1 * q1 + qz1 * p1 - qx1 * r1)
    dqz1 = 0.5 * (qw1 * r1 + qx1 * q1 - qy1 * p1)
    dvx1 = 2.0 * (qx1 * qz1 + qw1 * qy1) * f_z + a_x
    dvy1 = 2.0 * (qy1 * qz1 - qw1 * qx1) * f_z + a_y
    dvz1 = (1.0 - 2.0 * (qx1 * qx1 + qy1 * qy1)) * f_z + GRAVITY + a_z

    half = 0.5 * dt
    p2, q2, r2 = p1 + half * dp1, q1 + half * dq1, r1 + half * dr1
    qw2, qx2 = qw1 + half * dqw1, qx1 + half * dqx1
    qy2, qz2 = qy1 + half * dqy1, qz1 + half * dqz1
    vx2, vy2, vz2 = vx1 + half * dvx1, vy1 + half * dvy1, vz1 + half * dvz1
    bx, by, bz = ix * p2, iy * q2, iz * r2
    dp2 = (m_x - (q2 * bz - r2 * by)) / ix
    dq2 = (m_y - (r2 * bx - p2 * bz)) / iy
    dr2 = (m_z - (p2 * by - q2 * bx)) / iz
    dqw2 = 0.5 * (-qx2 * p2 - qy2 * q2 - qz2 * r2)
    dqx2 = 0.5 * (qw2 * p2 + qy2 * r2 - qz2 * q2)
    dqy2 = 0.5 * (qw2 * q2 + qz2 * p2 - qx2 * r2)
    dqz2 = 0.5 * (qw2 * r2 + qx2 * q2 - qy2 * p2)
    dvx2 = 2.0 * (qx2 * qz2 + qw2 * qy2) * f_z + a_x
    dvy2 = 2.0 * (qy2 * qz2 - qw2 * qx2) * f_z + a_y
    dvz2 = (1.0 - 2.0 * (qx2 * qx2 + qy2 * qy2)) * f_z + GRAVITY + a_z

    p3, q3, r3 = p1 + half * dp2, q1 + half * dq2, r1 + half * dr2
    qw3, qx3 = qw1 + half * dqw2, qx1 + half * dqx2
    qy3, qz3 = qy1 + half * dqy2, qz1 + half * dqz2
    vx3, vy3, vz3 = vx1 + half * dvx2, vy1 + half * dvy2, vz1 + half * dvz2
    bx, by, bz = ix * p3, iy * q3, iz * r3
    dp3 = (m_x - (q3 * bz - r3 * by)) / ix
    dq3 = (m_y - (r3 * bx - p3 * bz)) / iy
    dr3 = (m_z - (p3 * by - q3 * bx)) / iz
    dqw3 = 0.5 * (-qx3 * p3 - qy3 * q3 - qz3 * r3)
    dqx3 = 0.5 * (qw3 * p3 + qy3 * r3 - qz3 * q3)
    dqy3 = 0.5 * (qw3 * q3 + qz3 * p3 - qx3 * r3)
    dqz3 = 0.5 * (qw3 * r3 + qx3 * q3 - qy3 * p3)
    dvx3 = 2.0 * (qx3 * qz3 + qw3 * qy3) * f_z + a_x
    dvy3 = 2.0 * (qy3 * qz3 - qw3 * qx3) * f_z + a_y
    dvz3 = (1.0 - 2.0 * (qx3 * qx3 + qy3 * qy3)) * f_z + GRAVITY + a_z

    p4, q4, r4 = p1 + dt * dp3, q1 + dt * dq3, r1 + dt * dr3
    qw4, qx4 = qw1 + dt * dqw3, qx1 + dt * dqx3
    qy4, qz4 = qy1 + dt * dqy3, qz1 + dt * dqz3
    vx4, vy4, vz4 = vx1 + dt * dvx3, vy1 + dt * dvy3, vz1 + dt * dvz3
    bx, by, bz = ix * p4, iy * q4, iz * r4
    dp4 = (m_x - (q4 * bz - r4 * by)) / ix
    dq4 = (m_y - (r4 * bx - p4 * bz)) / iy
    dr4 = (m_z - (p4 * by - q4 * bx)) / iz
    dqw4 = 0.5 * (-qx4 * p4 - qy4 * q4 - qz4 * r4)
    dqx4 = 0.5 * (qw4 * p4 + qy4 * r4 - qz4 * q4)
    dqy4 = 0.5 * (qw4 * q4 + qz4 * p4 - qx4 * r4)
    dqz4 = 0.5 * (qw4 * r4 + qx4 * q4 - qy4 * p4)
    dvx4 = 2.0 * (qx4 * qz4 + qw4 * qy4) * f_z + a_x
    dvy4 = 2.0 * (qy4 * qz4 - qw4 * qx4) * f_z + a_y
    dvz4 = (1.0 - 2.0 * (qx4 * qx4 + qy4 * qy4)) * f_z + GRAVITY + a_z

    sixth = dt / 6.0
    qw = qw1 + sixth * (dqw1 + 2.0 * dqw2 + 2.0 * dqw3 + dqw4)
    qx = qx1 + sixth * (dqx1 + 2.0 * dqx2 + 2.0 * dqx3 + dqx4)
    qy = qy1 + sixth * (dqy1 + 2.0 * dqy2 + 2.0 * dqy3 + dqy4)
    qz = qz1 + sixth * (dqz1 + 2.0 * dqz2 + 2.0 * dqz3 + dqz4)
    norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    x, y, z = state.position
    return SimState(
        angular_rate=(
            p1 + sixth * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4),
            q1 + sixth * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4),
            r1 + sixth * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4),
        ),
        quaternion=(qw / norm, qx / norm, qy / norm, qz / norm),
        velocity=(
            vx1 + sixth * (dvx1 + 2.0 * dvx2 + 2.0 * dvx3 + dvx4),
            vy1 + sixth * (dvy1 + 2.0 * dvy2 + 2.0 * dvy3 + dvy4),
            vz1 + sixth * (dvz1 + 2.0 * dvz2 + 2.0 * dvz3 + dvz4),
        ),
        position=(
            x + sixth * (vx1 + 2.0 * vx2 + 2.0 * vx3 + vx4),
            y + sixth * (vy1 + 2.0 * vy2 + 2.0 * vy3 + vy4),
            z + sixth * (vz1 + 2.0 * vz2 + 2.0 * vz3 + vz4),
        ),
        rotor_speeds=speeds,
        true_k=tuple(state.true_k),  # the same object when it is a tuple already
    )


def inject_fault(state: SimState, event: FaultEvent) -> SimState:
    """Apply a sudden effectiveness change; the motor keeps spinning."""
    i, true_k = event.actuator_index - 1, tuple(state.true_k)
    return replace(state, true_k=true_k[:i] + (float(event.new_k),) + true_k[i + 1 :])


def _true_accel_z(rotor_speeds, true_k, params: VehicleParams, wind_accel_z=None) -> np.ndarray:
    """Body-z specific force the accelerometer would read with no corruption.

    One row per sample: ``rotor_speeds`` and ``true_k`` are ``(n, 4)``, and
    ``wind_accel_z`` ``(n,)`` is the body-z share of the external force per
    unit mass (see ``_wind_accel_z``). The thrust is ``(ct * k) * (w * w)`` with
    the four rotors added left to right, the operations of the per-step
    scalar thrust in ``_moments_and_thrust``.
    """
    speeds = np.asarray(rotor_speeds, dtype=float)
    thrusts = (params.thrust_coeff * np.asarray(true_k, dtype=float)) * (speeds * speeds)
    thrust = thrusts[:, 0] + thrusts[:, 1] + thrusts[:, 2] + thrusts[:, 3]
    az_true = -thrust / params.mass
    if wind_accel_z is not None:
        az_true += wind_accel_z
    return az_true


def _wind_accel_z(quaternions, external_forces, params: VehicleParams) -> np.ndarray:
    """Body-z component of each world-frame external force, per unit mass.

    One row per sample: ``quaternions`` ``(n, 4)`` body-to-world (w, x, y, z)
    and ``external_forces`` ``(n, 3)``. The body-z force is ``R(q)ᵀ @ f``'s
    last entry: R's third column dotted with f, summed left to right.
    """
    w, x, y, z = np.asarray(quaternions, dtype=float).T
    f_x, f_y, f_z = np.asarray(external_forces, dtype=float).T
    f_body_z = 2.0 * (x * z + w * y) * f_x + 2.0 * (y * z - w * x) * f_y + (1.0 - 2.0 * (x * x + y * y)) * f_z
    return f_body_z / params.mass


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
    returned. A generator seeded with ``noise.seed`` draws the three gyro
    biases, the accelerometer bias and the four vibration phases, then the
    white noise in one call, row by row: three gyro draws, then one
    accelerometer draw.
    """
    omega = np.asarray(angular_rate, dtype=float)
    az_true = np.asarray(az_true, dtype=float)
    speeds = np.asarray(rotor_speeds, dtype=float)
    t = np.asarray(t, dtype=float)
    n = len(t)
    if t.shape != (n,) or omega.shape != (n, 3) or az_true.shape != (n,) or speeds.shape != (n, 4):
        raise ValueError("synthesize_sensors needs rates (n, 3), az_true (n,), rotor speeds (n, 4), t (n,)")
    rng = np.random.default_rng(noise.seed)
    gyro_bias = rng.normal(0.0, noise.gyro_bias, 3)
    accel_bias = float(rng.normal(0.0, noise.accel_bias))
    phases = rng.uniform(0.0, 2.0 * math.pi, 4)
    g, a = noise.gyro_noise_std, noise.accel_noise_std
    white = rng.normal(0.0, (g, g, g, a), (n, 4))
    wbar = (speeds[:, 0] + speeds[:, 1] + speeds[:, 2] + speeds[:, 3]) / 4
    phase = wbar * t
    gyro = omega + gyro_bias + white[:, :3] + noise.gyro_vibration * np.sin(phase[:, None] + phases[:3])
    # The accelerometer's sine is ``math.sin``, one row at a time.
    accel_phase = float(phases[3])
    accel_sin = np.array([math.sin(x + accel_phase) for x in phase.tolist()])
    az = az_true + accel_bias + white[:, 3] + noise.accel_vibration * accel_sin
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
        ix, iy, iz = params.inertia_diag
        # The left-hand products of the moment and thrust-floor terms, taken once.
        self._rate_gains = (ix * self.RATE_P, iy * self.RATE_P, iz * self.YAW_RATE_P)
        self._min_thrust = 0.1 * params.mass * GRAVITY
        # The mixer is diag(d) @ S, S's rows the thrust and moment signs; S Sᵀ = 4I,
        # so the inverse's entry (i, j) is S[j][i] / (4 d_j). Row i gives w_i^2.
        ct = params.thrust_coeff
        signs = ((1.0, 1.0, 1.0, 1.0), *SIGN_MATRIX[:2].tolist(), YAW_SIGNS.tolist())
        d = (ct, ct * params.arm_y, ct * params.arm_x, params.moment_coeff)
        self._alloc_inv = tuple(tuple(row[i] / (4.0 * d_j) for row, d_j in zip(signs, d)) for i in range(4))
        self._w_sq_limits = (
            params.rotor_speed_limits[0] ** 2,
            params.rotor_speed_limits[1] ** 2,
        )

    def setpoints(
        self, state: SimState, roll_sp: float, pitch_sp: float, z_sp: float
    ) -> list[float]:
        params = self.params
        w, x, y, z = state.quaternion
        roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
        sin_pitch = 2.0 * (w * y - z * x)
        # max(-1.0, min(1.0, sin_pitch)) written out; NaN reads as 1.0.
        pitch = math.asin((sin_pitch if sin_pitch > -1.0 else -1.0) if sin_pitch < 1.0 else 1.0)
        p, q, r = state.angular_rate
        gain_x, gain_y, gain_z = self._rate_gains

        p_sp = self.ATT_P * (roll_sp - roll)
        q_sp = self.ATT_P * (pitch_sp - pitch)
        m_x = gain_x * (p_sp - p)
        m_y = gain_y * (q_sp - q)
        m_z = gain_z * (0.0 - r)

        thrust = params.mass * (
            GRAVITY + self.ALT_P * (state.position[2] - z_sp) + self.ALT_D * state.velocity[2]
        )
        if self._min_thrust > thrust:
            thrust = self._min_thrust

        lo, hi = self._w_sq_limits
        # The allocation's four rows, each summed left to right.
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (e0, e1, e2, e3) = self._alloc_inv
        w0 = a0 * thrust + a1 * m_x + a2 * m_y + a3 * m_z
        w1 = b0 * thrust + b1 * m_x + b2 * m_y + b3 * m_z
        w2 = c0 * thrust + c1 * m_x + c2 * m_y + c3 * m_z
        w3 = e0 * thrust + e1 * m_x + e2 * m_y + e3 * m_z
        return [
            math.sqrt(hi if w0 > hi else lo if w0 < lo else w0),
            math.sqrt(hi if w1 > hi else lo if w1 < lo else w1),
            math.sqrt(hi if w2 > hi else lo if w2 < lo else w2),
            math.sqrt(hi if w3 > hi else lo if w3 < lo else w3),
        ]


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
    # A chained comparison is False on NaN and on +-inf, so one chain per
    # rate and velocity component is both the finiteness and the envelope check.
    (p, q, r), (u, v, w) = state.angular_rate, state.velocity
    if not (
        -1000.0 <= p <= 1000.0
        and -1000.0 <= q <= 1000.0
        and -1000.0 <= r <= 1000.0
        and -1000.0 <= u <= 1000.0
        and -1000.0 <= v <= 1000.0
        and -1000.0 <= w <= 1000.0
        and all(map(math.isfinite, state.position))
        and all(map(math.isfinite, state.quaternion))
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
    flight are corrupted in one ``synthesize_sensors`` call at the end, and
    the wind's body-z share of the true specific force is projected in one
    ``_wind_accel_z`` block.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r} (expected one of {SCENARIOS})")
    if scenario == "ground_idle" and fault is not None:
        raise ValueError("scenario ground_idle takes no fault: nothing flies")
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be finite and positive, got {duration}")
    dt = 0.002  # s
    n = round(duration / dt)
    if n < 1:
        raise ValueError(f"duration {duration} s is shorter than one {dt} s sample")
    # The last row flies faulted exactly when the fault comes before its time, n * dt.
    if fault is not None and not dt <= fault.time < n * dt:
        raise ValueError(
            f"fault time must fall inside the flight duration, in [{dt}, {n * dt}) s; got {fault.time}"
        )
    params = VehicleParams()
    noise = noise if noise is not None else SensorNoiseModel()
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
        stepping, windy = scenario == "step", scenario == "wind"
        roll_sp = pitch_sp = 0.0
        force = moment = None
        rates, speeds, true_k, quaternions, forces = [], [], [], [], []
        for i in range(n):
            t_start = i * dt
            t_next = (i + 1) * dt
            if not fault_applied and t_next > fault.time:
                state = inject_fault(state, fault)
                fault_applied = True
            if stepping:
                roll_sp, pitch_sp = _attitude_schedule(scenario, t_start)
            if windy:
                force, moment = _wind(scenario, t_start)
            setpoints = controller.setpoints(state, roll_sp, pitch_sp, z_sp)
            # Looked up on the module each step, where a tracer can wrap it.
            state = dynamics_step(state, setpoints, params, dt, force, moment)
            _check_plausible(state, i, t_next)
            rates.append(state.angular_rate)
            speeds.append(state.rotor_speeds)
            true_k.append(state.true_k)
            if windy:
                quaternions.append(state.quaternion)
                forces.append(force)
        speeds = np.array(speeds)
        wind_accel_z = _wind_accel_z(quaternions, forces, params) if windy else None
        az_true = _true_accel_z(speeds, true_k, params, wind_accel_z)

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
