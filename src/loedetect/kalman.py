"""Recursive estimator of the four actuator effectiveness factors.

The state transition is a random walk (the prediction leaves the estimate
unchanged and inflates the covariance by Q), and the observation model is the
rotor-speed-parameterized linear effectiveness model. One update runs:

    P_pred = P + Q
    y      = z - H x
    S      = R + H P_pred H^T
    K      = P_pred H^T S^-1
    x'     = x + K y
    P'     = (I - K H) P_pred

followed by resymmetrization of P' and clamping of x' into [0, 1.5].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

K_MIN = 0.0
K_MAX = 1.5

_I4 = np.eye(4)


@dataclass(frozen=True)
class NoiseConfig:
    """Scalar process/measurement noise, applied as q*I4 and r*I3."""

    process_noise_q: float = 0.1
    measurement_noise_r: float = 1.0

    def __post_init__(self) -> None:
        if not self.process_noise_q > 0.0:
            raise ValueError("process_noise_q must be strictly positive")
        if not self.measurement_noise_r > 0.0:
            raise ValueError("measurement_noise_r must be strictly positive")


@dataclass
class EstimatorState:
    """Effectiveness estimate (4-vector) and its covariance (4x4)."""

    x: np.ndarray
    P: np.ndarray

    def copy(self) -> "EstimatorState":
        return EstimatorState(self.x.copy(), self.P.copy())


def init(initial_k: np.ndarray | None = None, initial_variance: float = 1.0) -> EstimatorState:
    """Fresh estimator state; defaults to nominal effectiveness with unit variance."""
    if initial_k is None:
        x = np.ones(4)
    else:
        x = np.array(initial_k, dtype=float)
        if x.shape != (4,):
            raise ValueError("initial_k must be a 4-vector")
        if np.any(x < K_MIN) or np.any(x > K_MAX):
            raise ValueError(f"initial_k entries must lie in [{K_MIN}, {K_MAX}]")
    if initial_variance < 0.0:
        raise ValueError("initial_variance must be non-negative")
    return EstimatorState(x=x, P=initial_variance * np.eye(4))


def clamp(x: np.ndarray) -> np.ndarray:
    """Componentwise clip of the effectiveness factors into [0, 1.5].

    ``np.clip`` calls this same method after a Python-level dispatch.
    """
    return np.asarray(x).clip(K_MIN, K_MAX)


def _inv3(m: np.ndarray) -> np.ndarray:
    """Explicit adjugate inverse of a 3x3 matrix; cheap and branch-free.

    The cofactors and the division run on Python floats, which round
    exactly like float64 scalars and arrays.
    """
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    ca = e * i - f * h
    cb = c * h - b * i
    cc = b * f - c * e
    cd = f * g - d * i
    ce = a * i - c * g
    cf = c * d - a * f
    cg = d * h - e * g
    ch = b * g - a * h
    ci = a * e - b * d
    det = a * ca + b * cd + c * cg
    if not det > 0.0:
        raise ArithmeticError(f"innovation covariance is numerically singular (det={det})")
    return np.array(
        [
            [ca / det, cb / det, cc / det],
            [cd / det, ce / det, cf / det],
            [cg / det, ch / det, ci / det],
        ]
    )


def step(
    state: EstimatorState,
    H: np.ndarray,
    z: np.ndarray,
    noise: NoiseConfig,
    clamp_state: bool = True,
) -> EstimatorState:
    """One predict/update cycle; returns a new state, input state untouched.

    ``clamp_state=False`` skips the [0, 1.5] bound (used when comparing
    trajectories against an unconstrained reference).
    """
    H = np.asarray(H, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.isnan(H).any() or np.isnan(z).any():
        raise ValueError("NaN in estimator input")

    p_pred = state.P + noise.process_noise_q * _I4
    y = z - H @ state.x
    pht = p_pred @ H.T
    s = H @ pht
    s[0, 0] += noise.measurement_noise_r
    s[1, 1] += noise.measurement_noise_r
    s[2, 2] += noise.measurement_noise_r
    gain = pht @ _inv3(s)
    x_new = state.x + gain @ y
    p_new = (_I4 - gain @ H) @ p_pred
    p_new = 0.5 * (p_new + p_new.T)
    if clamp_state:
        x_new = clamp(x_new)
    return EstimatorState(x=x_new, P=p_new)
