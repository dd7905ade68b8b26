"""Control-effectiveness model of an X-configuration quadrotor.

Maps squared rotor speeds and per-actuator effectiveness factors to roll and
pitch angular acceleration and vertical specific force. The model is linear in
the effectiveness factors, which is what makes them estimable online.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rows: roll, pitch, vertical specific force. Columns: actuators 1..4.
SIGN_MATRIX = np.array(
    [
        [1.0, -1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [-1.0, -1.0, -1.0, -1.0],
    ]
)
SIGN_MATRIX.setflags(write=False)


@dataclass(frozen=True)
class EffectivenessGains:
    """Lumped gains from squared rotor speed to acceleration.

    g_p, g_q in rad/s^2 per (rad/s)^2; g_az in m/s^2 per (rad/s)^2.
    """

    g_p: float = 100e-6
    g_q: float = 100e-6
    g_az: float = 5e-6

    def __post_init__(self) -> None:
        for name in ("g_p", "g_q", "g_az"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.g_p, self.g_q, self.g_az])


@dataclass(frozen=True)
class VehicleGeometry:
    """Physical quantities the lumped gains derive from."""

    arm_x: float  # h, m: actuator offset along body x
    arm_y: float  # b, m: actuator offset along body y
    thrust_coeff: float  # N s^2
    moment_coeff: float  # N m s^2, used by the simulator's yaw model only
    inertia_diag: tuple[float, float, float]  # kg m^2
    mass: float  # kg

    def __post_init__(self) -> None:
        if not (self.arm_x > 0 and self.arm_y > 0):
            raise ValueError("arm lengths must be positive")
        if not (self.thrust_coeff > 0 and self.moment_coeff > 0):
            raise ValueError("thrust and moment coefficients must be positive")
        if not all(i > 0 for i in self.inertia_diag):
            raise ValueError("inertia_diag entries must be positive")
        if not self.mass > 0:
            raise ValueError("mass must be positive")

    def actuator_positions(self) -> np.ndarray:
        """Body-frame actuator positions, one row per actuator."""
        h, b = self.arm_x, self.arm_y
        return np.array(
            [
                [h, -b, 0.0],
                [h, b, 0.0],
                [-h, b, 0.0],
                [-h, -b, 0.0],
            ]
        )


def gains_from_geometry(geom: VehicleGeometry) -> EffectivenessGains:
    """Lump geometry and coefficients into the three effectiveness gains."""
    ix, iy, _ = geom.inertia_diag
    return EffectivenessGains(
        g_p=geom.thrust_coeff * geom.arm_y / ix,
        g_q=geom.thrust_coeff * geom.arm_x / iy,
        g_az=geom.thrust_coeff / geom.mass,
    )


def observation_matrix_from_sq(gains: EffectivenessGains, rotor_speeds_sq: np.ndarray) -> np.ndarray:
    """3x4 observation matrix from already-squared rotor speeds."""
    return SIGN_MATRIX * gains.as_array()[:, None] * np.asarray(rotor_speeds_sq)[None, :]


def observation_matrix(gains: EffectivenessGains, rotor_speeds: np.ndarray) -> np.ndarray:
    """3x4 matrix H with H[row, i] = sign[row, i] * gain[row] * w_i^2."""
    w = np.asarray(rotor_speeds, dtype=float)
    if np.any(w < 0):
        raise ValueError("rotor speeds must be non-negative")
    return observation_matrix_from_sq(gains, np.square(w))


def predict_accelerations(
    gains: EffectivenessGains, rotor_speeds: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Predicted (p_dot, q_dot, a_z) for effectiveness factors ``k``."""
    return observation_matrix(gains, rotor_speeds) @ np.asarray(k, dtype=float)
