"""Control-effectiveness model of an X-configuration quadrotor.

Maps squared rotor speeds and per-actuator effectiveness factors to roll and
pitch angular acceleration and vertical specific force. The model is linear in
the effectiveness factors, which is what makes them estimable online.

Also holds the airframe, ``VehicleParams``, with its sign conventions: the
detector's default gains and hover thrust reference derive from it, and the
simulator flies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81  # m/s^2

# Rows: roll, pitch, vertical specific force. Columns: actuators 1..4.
SIGN_MATRIX = np.array(
    [
        [1.0, -1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [-1.0, -1.0, -1.0, -1.0],
    ]
)
SIGN_MATRIX.setflags(write=False)

# Reaction-torque sign of each rotor about body z (1 & 3 spin one way, 2 & 4
# the other); losing rotor 3 leaves a net negative yaw moment.
YAW_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


@dataclass(frozen=True)
class VehicleParams:
    """The airframe: the simulator's vehicle and the source of the detector defaults."""

    mass: float = 0.5  # kg
    inertia_diag: tuple[float, float, float] = (1.5e-3, 1.5e-3, 2.8e-3)  # kg m^2
    thrust_coeff: float = 2.5e-6  # N s^2
    moment_coeff: float = 5e-8  # N m s^2
    arm_x: float = 0.06  # h, m
    arm_y: float = 0.06  # b, m
    motor_time_constant: float = 0.03  # s
    rotor_speed_limits: tuple[float, float] = (150.0, 1300.0)  # rad/s

    def __post_init__(self) -> None:
        positives = (
            self.mass,
            *self.inertia_diag,
            self.thrust_coeff,
            self.moment_coeff,
            self.arm_x,
            self.arm_y,
            self.motor_time_constant,
            self.rotor_speed_limits[0],
        )
        if not all(v > 0 for v in positives):
            raise ValueError("all vehicle parameters must be positive")
        if not self.rotor_speed_limits[0] < self.rotor_speed_limits[1]:
            raise ValueError("rotor_speed_limits must satisfy min < max")

    def hover_speed(self) -> float:
        """Rotor speed at which four nominal rotors balance the weight."""
        return math.sqrt(self.mass * GRAVITY / (4.0 * self.thrust_coeff))

    def hover_thrust_reference(self) -> float:
        """Sum of squared rotor speeds at hover, (rad/s)^2."""
        return self.mass * GRAVITY / self.thrust_coeff


@dataclass(frozen=True)
class EffectivenessGains:
    """Lumped gains from squared rotor speed to acceleration.

    g_p, g_q in rad/s^2 per (rad/s)^2; g_az in m/s^2 per (rad/s)^2.
    """

    g_p: float
    g_q: float
    g_az: float

    def __post_init__(self) -> None:
        for name in ("g_p", "g_q", "g_az"):
            if not 0.0 < getattr(self, name) < math.inf:  # False on NaN too
                raise ValueError(f"{name} must be finite and strictly positive, got {getattr(self, name)}")


def gains_from_geometry(params: VehicleParams) -> EffectivenessGains:
    """Lump geometry and coefficients into the three effectiveness gains."""
    ix, iy, _ = params.inertia_diag
    return EffectivenessGains(
        g_p=params.thrust_coeff * params.arm_y / ix,
        g_q=params.thrust_coeff * params.arm_x / iy,
        g_az=params.thrust_coeff / params.mass,
    )


DEFAULT_GAINS = gains_from_geometry(VehicleParams())


def signed_gains(gains: EffectivenessGains) -> tuple[tuple[float, ...], ...]:
    """``SIGN_MATRIX * gains`` per row, as floats: the observation matrix before ``w^2``."""
    return tuple(
        tuple(sign * g for sign in row)
        for row, g in zip(SIGN_MATRIX.tolist(), (gains.g_p, gains.g_q, gains.g_az))
    )


def observation_rows(signed, w_sq) -> list[tuple[float, float, float, float]]:
    """H as three rows of floats, ``H[row][i] = signed[row][i] * w_sq[i]``.

    ``signed`` is ``signed_gains(gains)`` and ``w_sq`` the squared rotor speeds.
    """
    w0, w1, w2, w3 = w_sq
    return [(g0 * w0, g1 * w1, g2 * w2, g3 * w3) for g0, g1, g2, g3 in signed]


def observation_matrix(gains: EffectivenessGains, rotor_speeds: np.ndarray) -> np.ndarray:
    """3x4 matrix H with H[row, i] = (sign[row, i] * gain[row]) * w_i^2."""
    w = np.asarray(rotor_speeds, dtype=float)
    if np.any(w < 0):
        raise ValueError("rotor speeds must be non-negative")
    return np.array(observation_rows(signed_gains(gains), (w * w).tolist()))

