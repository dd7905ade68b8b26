"""Recursive estimator of the four actuator effectiveness factors.

The state transition is a random walk (P_pred = P + q*I, x unchanged), and
the observation model is the rotor-speed-parameterized linear effectiveness
model. R = r*I is diagonal, so the three-row update runs as three scalar
updates in turn (sequential measurement processing, Bierman 1977), written
out row by row as straight-line float code with no loop. With the innovation
``y_j = z_j - (h0*x0 + h1*x1 + h2*x2 + h3*x3)`` taken once per row, summed
left to right, each row ``h_j`` runs

    a = P h_j,  s = h_j.a + r,  g = (y_j - h_j.dx) / s,  dx += a g,  P -= a (a/s)^T

and then x' = x + dx, clamped into [0, 1.5]. The ``h_j.dx`` term removes what
the earlier rows already applied, and keeps x bit-unchanged when y is zero.
Row 0 runs at dx = 0 without it, as ``g = y_0 / s`` and ``dx = 0.0 + a g``.
Everything runs on Python floats. The state, ``EstimatorState``, is a
NamedTuple of two float tuples: the four estimates and the ten
upper-triangle entries of P. Only that triangle is computed and kept, so P
is exactly symmetric; ``step`` builds each new state from its floats, and
makes no array. No inverse is taken;
``s >= r > 0`` unless the arithmetic overflows, and a non-finite ``s``
raises ``ArithmeticError``. ``step_lanes`` runs the same update on many
independent estimators at once, one per numpy lane, for parameter sweeps.
The lanes are a ``LaneWorkspace``, which holds them and every buffer a tick
writes, so a tick allocates no array. It takes all three innovations in one
pass up front, as ``step`` does, and each 4-term sum as one numpy
reduction, left to right and started from -0.0, so every lane keeps
``step``'s bits, signed zeros included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

K_MIN = 0.0
K_MAX = 1.5


@dataclass(frozen=True)
class NoiseConfig:
    """Scalar process/measurement noise, applied as q*I4 and r*I3."""

    process_noise_q: float = 0.1
    measurement_noise_r: float = 1.0

    def __post_init__(self) -> None:
        for name in ("process_noise_q", "measurement_noise_r"):
            if not 0.0 < getattr(self, name) < math.inf:  # False on NaN too
                raise ValueError(f"{name} must be finite and strictly positive, got {getattr(self, name)}")


class EstimatorState(NamedTuple):
    """Effectiveness estimate (4-vector) and its covariance (4x4); immutable.

    Held as Python floats: ``k``, the four estimates, and ``p_upper``, the ten
    upper-triangle entries of P row by row (p00, p01, p02, p03, p11, p12,
    p13, p22, p23, p33). P is symmetric, so the triangle is all of it.
    """

    k: tuple[float, float, float, float]
    p_upper: tuple[float, float, float, float, float, float, float, float, float, float]

    def variances(self) -> tuple[float, float, float, float]:
        """The diagonal of P."""
        p = self.p_upper
        return p[0], p[4], p[7], p[9]


_INITIAL_STATE = EstimatorState((1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0))


def init() -> EstimatorState:
    """Fresh estimator state: nominal effectiveness with unit variance."""
    return _INITIAL_STATE


def step(state: EstimatorState, H, z, noise: NoiseConfig) -> EstimatorState:
    """One predict/update cycle; returns a new state, input state untouched.

    ``H`` is three rows of four floats and ``z`` three floats; nested lists,
    tuples and arrays all work, and give the same bits. The estimates are
    clamped into [``K_MIN``, ``K_MAX``] after the update.
    """
    # Unpacking rejects any shape but three rows of four and three z, and a
    # state without four estimates and ten covariance entries.
    (h00, h01, h02, h03), (h10, h11, h12, h13), (h20, h21, h22, h23) = H
    z0, z1, z2 = z
    x0, x1, x2, x3 = state.k
    y0 = z0 - (h00 * x0 + h01 * x1 + h02 * x2 + h03 * x3)
    y1 = z1 - (h10 * x0 + h11 * x1 + h12 * x2 + h13 * x3)
    y2 = z2 - (h20 * x0 + h21 * x1 + h22 * x2 + h23 * x3)
    if y0 != y0 or y1 != y1 or y2 != y2:  # a NaN anywhere in H or z reaches y
        raise ValueError("NaN in estimator input")
    q = noise.process_noise_q
    r = noise.measurement_noise_r
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = state.p_upper
    p00, p11, p22, p33 = p00 + q, p11 + q, p22 + q, p33 + q

    a0 = p00 * h00 + p01 * h01 + p02 * h02 + p03 * h03
    a1 = p01 * h00 + p11 * h01 + p12 * h02 + p13 * h03
    a2 = p02 * h00 + p12 * h01 + p22 * h02 + p23 * h03
    a3 = p03 * h00 + p13 * h01 + p23 * h02 + p33 * h03
    s = h00 * a0 + h01 * a1 + h02 * a2 + h03 * a3 + r
    if not 0.0 < s < math.inf:
        raise ArithmeticError(f"innovation variance s={s} is not finite and positive")
    # No ``h.dx`` term at dx = 0: on a finite h it is +-0.0, which can only
    # set the sign of a zero gain, and ``0.0 + a g`` erases that sign. A NaN
    # or inf in row 0 raises at the NaN or ``s`` check first.
    g = y0 / s
    d0, d1, d2, d3 = 0.0 + a0 * g, 0.0 + a1 * g, 0.0 + a2 * g, 0.0 + a3 * g
    b0, b1, b2, b3 = a0 / s, a1 / s, a2 / s, a3 / s
    p00, p01, p02, p03 = p00 - a0 * b0, p01 - a0 * b1, p02 - a0 * b2, p03 - a0 * b3
    p11, p12, p13 = p11 - a1 * b1, p12 - a1 * b2, p13 - a1 * b3
    p22, p23 = p22 - a2 * b2, p23 - a2 * b3
    p33 -= a3 * b3

    a0 = p00 * h10 + p01 * h11 + p02 * h12 + p03 * h13
    a1 = p01 * h10 + p11 * h11 + p12 * h12 + p13 * h13
    a2 = p02 * h10 + p12 * h11 + p22 * h12 + p23 * h13
    a3 = p03 * h10 + p13 * h11 + p23 * h12 + p33 * h13
    s = h10 * a0 + h11 * a1 + h12 * a2 + h13 * a3 + r
    if not 0.0 < s < math.inf:
        raise ArithmeticError(f"innovation variance s={s} is not finite and positive")
    g = (y1 - (h10 * d0 + h11 * d1 + h12 * d2 + h13 * d3)) / s
    d0, d1, d2, d3 = d0 + a0 * g, d1 + a1 * g, d2 + a2 * g, d3 + a3 * g
    b0, b1, b2, b3 = a0 / s, a1 / s, a2 / s, a3 / s
    p00, p01, p02, p03 = p00 - a0 * b0, p01 - a0 * b1, p02 - a0 * b2, p03 - a0 * b3
    p11, p12, p13 = p11 - a1 * b1, p12 - a1 * b2, p13 - a1 * b3
    p22, p23 = p22 - a2 * b2, p23 - a2 * b3
    p33 -= a3 * b3

    a0 = p00 * h20 + p01 * h21 + p02 * h22 + p03 * h23
    a1 = p01 * h20 + p11 * h21 + p12 * h22 + p13 * h23
    a2 = p02 * h20 + p12 * h21 + p22 * h22 + p23 * h23
    a3 = p03 * h20 + p13 * h21 + p23 * h22 + p33 * h23
    s = h20 * a0 + h21 * a1 + h22 * a2 + h23 * a3 + r
    if not 0.0 < s < math.inf:
        raise ArithmeticError(f"innovation variance s={s} is not finite and positive")
    g = (y2 - (h20 * d0 + h21 * d1 + h22 * d2 + h23 * d3)) / s
    d0, d1, d2, d3 = d0 + a0 * g, d1 + a1 * g, d2 + a2 * g, d3 + a3 * g
    b0, b1, b2, b3 = a0 / s, a1 / s, a2 / s, a3 / s
    p00, p01, p02, p03 = p00 - a0 * b0, p01 - a0 * b1, p02 - a0 * b2, p03 - a0 * b3
    p11, p12, p13 = p11 - a1 * b1, p12 - a1 * b2, p13 - a1 * b3
    p22, p23 = p22 - a2 * b2, p23 - a2 * b3
    p33 -= a3 * b3

    k0, k1, k2, k3 = x0 + d0, x1 + d1, x2 + d2, x3 + d3
    k0 = K_MIN if k0 < K_MIN else K_MAX if k0 > K_MAX else k0
    k1 = K_MIN if k1 < K_MIN else K_MAX if k1 > K_MAX else k1
    k2 = K_MIN if k2 < K_MIN else K_MAX if k2 > K_MAX else k2
    k3 = K_MIN if k3 < K_MIN else K_MAX if k3 > K_MAX else k3
    return EstimatorState((k0, k1, k2, k3), (p00, p01, p02, p03, p11, p12, p13, p22, p23, p33))


# ---------------------------------------------------------------------------
# Lanes: many independent estimators stepped together on float64 arrays, one
# estimator per lane (the last axis). ``step_lanes`` performs ``step``'s
# operations in ``step``'s order, and numpy rounds ``+ - * /`` exactly as
# Python floats do, so each lane is bit-identical to ``step``. It is a second
# source, not ``step`` run on arrays: ``step``'s NaN check, ``s`` check and
# clamp are Python branches, which arrays cannot take, and giving them a form
# both accept would put calls on the per-sample float path the streaming
# detector runs. ``tests/test_kalman.py`` checks the two against each other.

# Entry ``4 i + j`` of the row-major 4x4 P, read from the upper triangle:
# gathering by it overwrites each lower entry with its upper twin.
_MIRROR = np.array([4 * min(i, j) + max(i, j) for i in range(4) for j in range(4)])


class LaneWorkspace:
    """``width`` estimators, one per lane, and every buffer ``step_lanes`` writes on a tick.

    ``k`` (4, L) holds the estimates and ``P`` (16, L) the covariance, row
    major, with ``diagonal`` its variances (a view). They start as
    ``init()`` on every lane, or as a copy of the first ``width`` lanes of
    ``carry``, a workspace at least as wide, when the lanes narrow.
    ``step_lanes`` steps them in place, and leaves the tick's innovations in
    ``y`` and innovation variances in ``s`` (3, L). The rest hold one tick's
    intermediates, with their views made here, once.
    """

    __slots__ = ("width", "k", "P", "square", "diagonal", "hk", "y", "s", "row_out")
    __slots__ += ("d", "m", "flat", "a", "a_column", "t", "b", "g", "mask")

    def __init__(self, width: int, carry: LaneWorkspace | None = None) -> None:
        self.width = width
        if carry is None:
            self.k, self.P = np.ones((4, width)), np.zeros((16, width))
            self.P[::5] = 1.0
        elif width > carry.width:
            raise ValueError(f"a workspace of width {carry.width} cannot carry {width} lanes")
        else:
            self.k, self.P = carry.k[:, :width].copy(), carry.P[:, :width].copy()
        self.square, self.diagonal = self.P.reshape(4, 4, width), self.P[::5]
        self.hk = np.empty((3, 4, width))  # H * k
        self.y, self.s = np.empty((2, 3, width))
        self.row_out = tuple(zip(self.y, self.s))  # each row's y_j and s_j
        self.d = np.empty((4, width))
        self.m = np.empty((4, 4, width))
        self.flat = self.m.reshape(16, width)
        self.a, self.t, self.b = np.empty((3, 4, width))
        self.a_column = self.a[:, None]
        self.g = np.empty(width)
        self.mask = np.empty((4, width), dtype=bool)  # the clamp's


def step_lanes(work: LaneWorkspace, H: np.ndarray, z: np.ndarray, q, r) -> None:
    """``step`` on every lane of ``work`` at once, in place; ``work.y`` and ``work.s`` are left unchecked.

    ``H`` is (3, 4, L), ``z`` (3, L) and ``q``, ``r`` scalars or (L,), for
    ``L = work.width``; they are only read. ``work.y`` holds the
    innovations and ``work.s`` the innovation variances that ``step``
    checks. Nothing is raised, so a lane that ``step`` would reject carries
    on with whatever the arithmetic gives. Run it under ``np.errstate`` to
    keep that arithmetic from warning.

    A tick costs about 50 numpy calls whatever the width, and makes no
    array but the three row views of ``H``: one pass takes every row's
    innovation from the prior estimates, then each row 12 to 15 calls that
    write into ``work``'s buffers. Each 4-term sum (``h.x``, ``P h``,
    ``h.a``, ``h.d``) is one ``np.add.reduce`` over a length-4 axis, which
    adds in order, as ``step`` does. It starts from -0.0, not numpy's
    default +0.0: a sum of four -0.0 terms (every h negative at zero rotor
    speed) is -0.0 in ``step``, and +0.0 from a +0.0 start would flip the
    sign of a zero innovation where z is -0.0. Row 0 writes ``d = 0.0 + a
    g`` afresh, as ``step`` does, which is what resets ``d`` each tick.
    """
    k, P, square, d, m, a, t, b, g = work.k, work.P, work.square, work.d, work.m, work.a, work.t, work.b, work.g
    # Every 4-term sum is one reduction in order, started from -0.0, which
    # adds to any value without changing its bits (see the docstring).
    reduce, multiply, divide, add, subtract = np.add.reduce, np.multiply, np.divide, np.add, np.subtract
    add(work.diagonal, q, work.diagonal)
    subtract(z, reduce(multiply(H, k, work.hk), 1, None, work.y, False, -0.0), work.y)  # from the prior k
    a_column, take = work.a_column, work.flat.take  # the method: ``np.take`` is a Python wrapper
    for row, (h, (yj, sj)) in enumerate(zip(H, work.row_out)):  # positional ``out``: the cheapest ufunc call
        # m[i, c] = p_ic h_c: h broadcasts along the rows of P, with no column view.
        reduce(multiply(square, h, m), 1, None, a, False, -0.0)
        add(reduce(multiply(h, a, t), 0, None, sj, False, -0.0), r, sj)
        if row:
            reduce(multiply(h, d, t), 0, None, g, False, -0.0)  # h.d
            divide(subtract(yj, g, g), sj, g)
            add(d, multiply(a, g, t), d)
        else:  # d = 0.0 + a g, with no h.d term at d = 0, as in ``step``
            divide(yj, sj, g)
            add(0.0, multiply(a, g, d), d)
        divide(a, sj, b)
        subtract(square, multiply(a_column, b, m), m)
        take(_MIRROR, 0, P, "clip")  # "clip" writes into P unbuffered; no index is out of range
    add(k, d, k)
    mask = work.mask
    np.putmask(k, np.less(k, K_MIN, mask), K_MIN)
    np.putmask(k, np.greater(k, K_MAX, mask), K_MAX)
