"""Input signal conditioning.

Every input channel the detector reads (roll and pitch rates, vertical
accelerometer, rotor speeds) runs through the same discrete second-order
low-pass so the channels stay synchronized, and angular accelerations are
produced by backward-differencing the filtered roll and pitch rates. There is one bank, of the
``N_CHANNELS`` channels in ``CHANNELS``, and three ways to advance it.
``filter_step`` writes the recursion out as straight-line float code, one
sample at a time; the detector's ``Conditioner`` runs it and differences on
estimator ticks, which a per-sample countdown marks. ``filter_lanes`` runs
the same recursion on numpy lanes, one block of samples of many streams at
a time, for parameter sweeps. It is a second source, not ``filter_step`` run
on arrays: its feedforward part takes every sample of a block at once, which
a per-sample call cannot. ``filter_columns`` is its one-stream form, for
replaying a single log: the same numpy feedforward per block, then the
feedback as a plain float loop down each channel's column. It exists
because ``filter_lanes`` pays about four ufunc calls per time step whatever
the width, which for one stream costs more than the arithmetic. Both
perform ``filter_step``'s operations in ``filter_step``'s order, so every
lane and column is bit-identical to it (``tests/test_filters.py`` checks
them against each other).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Channel layout of the conditioning filter bank: the roll and pitch rates,
# the vertical accelerometer and the four rotor speeds. The yaw rate ``r`` is
# checked but not filtered, because no stage reads it.
CHANNELS = ("p", "q", "az", "w1", "w2", "w3", "w4")
N_CHANNELS = len(CHANNELS)

# Physical ceiling on a reported rotor speed, rad/s (about 955,000 RPM). Real
# motors stay two orders of magnitude below it; above it a value is a data
# error, and its square would overflow the estimator's arithmetic soon after.
MAX_ROTOR_SPEED_RAD_S = 1e5

# A timestamp step must lie strictly within (1 - STEP_TOLERANCE, 1 +
# STEP_TOLERANCE) x the nominal sample interval. The filter assumes a fixed
# step and the estimator ticks by sample count, so a dropped or inserted
# sample is a data error.
STEP_TOLERANCE = 0.5


@dataclass(frozen=True)
class FilterDesign:
    """Continuous-time prototype of the conditioning low-pass.

    The prototype is the unit-DC-gain second-order section
    ``wn^2 / (s^2 + 2*zeta*wn*s + wn^2)``; ``design_lowpass`` samples it at
    the stream's sample interval. Errors name the fields by their config
    file keys, ``filter_natural_frequency`` and ``filter_damping_ratio``.
    """

    natural_frequency: float = 50.0  # rad/s
    damping_ratio: float = 0.55

    def __post_init__(self) -> None:
        # Chained comparisons are False on NaN, so these also reject NaN.
        if not 0.0 < self.natural_frequency < math.inf:
            raise ValueError(f"filter_natural_frequency must be finite and positive, got {self.natural_frequency}")
        if not 0.0 < self.damping_ratio < 1.0:
            raise ValueError(f"filter_damping_ratio must be finite and in (0, 1), got {self.damping_ratio}")


@dataclass(frozen=True)
class FilterCoefficients:
    """Discrete biquad ``y[k] = b0*x[k] + b1*x[k-1] + b2*x[k-2] - a1*y[k-1] - a2*y[k-2]``."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float


def design_lowpass(design: FilterDesign, sample_interval: float) -> FilterCoefficients:
    """Discretize the second-order low-pass with the bilinear transform.

    The transform is prewarped at the natural frequency, so the discrete
    magnitude response at ``natural_frequency`` equals the continuous
    prototype's 1/(2*zeta) there. The numerator is rebuilt from the
    denominator sum so that unity DC gain holds exactly in floating point
    (``math.fsum`` of the b's equals ``math.fsum`` of (1, a1, a2)).
    """
    dt = sample_interval
    if not dt > 0.0:
        raise ValueError("sample_interval must be positive")
    wn = design.natural_frequency
    if wn >= math.pi / dt:
        raise ValueError(
            f"filter_natural_frequency must stay below the Nyquist rate pi/sample_interval = {math.pi / dt:.3f} rad/s"
        )
    zeta = design.damping_ratio

    k = wn / math.tan(wn * dt / 2.0)  # prewarped bilinear rate
    d0 = k * k + 2.0 * zeta * wn * k + wn * wn
    a1 = (2.0 * wn * wn - 2.0 * k * k) / d0
    a2 = (k * k - 2.0 * zeta * wn * k + wn * wn) / d0

    s = math.fsum((1.0, a1, a2))
    b0 = 0.25 * s
    b1 = 0.5 * s
    b2 = 0.25 * s

    # Jury criterion: both poles of z^2 + a1 z + a2 strictly inside the unit circle.
    if not (abs(a2) < 1.0 and abs(a1) < 1.0 + a2):
        raise ValueError("discretization produced unstable recursion poles")
    return FilterCoefficients(b0=b0, b1=b1, b2=b2, a1=a1, a2=a2)


class FilterState:
    """Recursion memory of the ``N_CHANNELS``-channel bank; every channel shares the same biquad.

    The memory is warm-started from the first sample, so a constant stream is
    a fixed point and there is no startup transient. ``filter_step`` advances
    the bank on Python floats, written out for each channel in the order
    ``b0*x + b1*x1 + b2*x2 - a1*y1 - a2*y2``; every operation is elementwise,
    so it rounds exactly like the same recursion on float64 arrays.
    """

    def __init__(self, coeffs: FilterCoefficients):
        self._c = (coeffs.b0, coeffs.b1, coeffs.b2, coeffs.a1, coeffs.a2)
        self._mem: tuple[list[float], list[float], list[float], list[float]] | None = None


@dataclass(slots=True)
class RawSample:
    """One tick of the sensor streams, as ``Detector.process_sample`` takes it.

    ``timestamp`` and ``proper_accel_z`` are real numbers: Python or numpy
    ints, floats or bools (``proper_accel_z`` is read with ``float``; a
    string is not parsed). ``angular_rate`` and ``rotor_speeds`` are numpy
    arrays of 3 and 4 real numbers. The detector rejects any other form
    with a ``ValueError`` naming the field.
    """

    timestamp: float  # s
    angular_rate: np.ndarray  # (3,) p, q, r in rad/s
    proper_accel_z: float  # m/s^2
    rotor_speeds: np.ndarray  # (4,) rad/s


def filter_step(state: FilterState, values: list[float]) -> list[float]:
    """Advance every channel of the bank by one sample; returns a new list.

    ``values`` holds one Python float for each of the ``N_CHANNELS``
    channels, in ``CHANNELS`` order. The filter keeps it as recursion
    memory, so the caller must not write to it afterwards.
    """
    try:
        u0, u1, u2, u3, u4, u5, u6 = values
    except ValueError:
        raise ValueError(f"expected {N_CHANNELS} channels, got {len(values)}") from None
    mem = state._mem
    if mem is None:
        x1 = x2 = y1 = y2 = values  # warm start; lists are never written in place
    else:
        x1, x2, y1, y2 = mem
    x1_0, x1_1, x1_2, x1_3, x1_4, x1_5, x1_6 = x1
    x2_0, x2_1, x2_2, x2_3, x2_4, x2_5, x2_6 = x2
    y1_0, y1_1, y1_2, y1_3, y1_4, y1_5, y1_6 = y1
    y2_0, y2_1, y2_2, y2_3, y2_4, y2_5, y2_6 = y2
    b0, b1, b2, a1, a2 = state._c
    y = [
        b0 * u0 + b1 * x1_0 + b2 * x2_0 - a1 * y1_0 - a2 * y2_0,
        b0 * u1 + b1 * x1_1 + b2 * x2_1 - a1 * y1_1 - a2 * y2_1,
        b0 * u2 + b1 * x1_2 + b2 * x2_2 - a1 * y1_2 - a2 * y2_2,
        b0 * u3 + b1 * x1_3 + b2 * x2_3 - a1 * y1_3 - a2 * y2_3,
        b0 * u4 + b1 * x1_4 + b2 * x2_4 - a1 * y1_4 - a2 * y2_4,
        b0 * u5 + b1 * x1_5 + b2 * x2_5 - a1 * y1_5 - a2 * y2_5,
        b0 * u6 + b1 * x1_6 + b2 * x2_6 - a1 * y1_6 - a2 * y2_6,
    ]
    state._mem = (values, x1, y, y1)
    return y


def differentiate(previous: tuple | None, current: tuple) -> tuple[float, float]:
    """Backward-difference angular acceleration of the filtered roll/pitch rates.

    ``previous`` and ``current`` are ``(t, p, q)``: a tick's timestamp and
    its filtered roll and pitch rates. The first tick of a stream has no
    predecessor and yields zero by definition.
    """
    if previous is None:
        return 0.0, 0.0
    t0, p0, q0 = previous
    t, p, q = current
    dt = t - t0
    if dt <= 0.0:
        raise ValueError(f"non-increasing timestamps: {t0} -> {t}")
    return (p - p0) / dt, (q - q0) / dt


def filter_lanes(coeffs: FilterCoefficients, x: np.ndarray, y: np.ndarray) -> None:
    """``filter_step`` over a block of samples, every lane at once; writes the outputs into ``y[2:]``.

    ``x`` and ``y`` are (N + 2, ...) float64 arrays with one lane per entry of
    the trailing axes. Rows 2 onward of ``x`` hold N samples of each lane.
    Rows 0 and 1 of ``x`` and ``y`` hold the bank's memory, oldest first: the
    two samples before the block and their outputs. At a stream's start all
    four rows are its first sample, ``filter_step``'s warm start; the next
    block takes this one's last two rows. Row ``2 + k`` of ``y`` is then
    what ``filter_step`` returns on sample ``k``. The feedforward part
    ``(b0*u + b1*x1) + b2*x2`` is taken for every row at once, and only the
    feedback ``(ff - a1*y1) - a2*y2`` steps through time, in place over it,
    so each output rounds exactly as ``filter_step``'s does. The call holds
    one more array the size of ``x``. Run it under ``np.errstate`` where a
    lane may overflow, as a float replay would, without a warning.
    """
    a1, a2 = coeffs.a1, coeffs.a2
    _feedforward(coeffs, x, y[2:])
    rows = list(y)  # one view per time step, made once
    product = np.empty_like(rows[0])
    multiply, subtract = np.multiply, np.subtract
    for y2, y1, y0 in zip(rows, rows[1:], rows[2:]):
        subtract(y0, multiply(y1, a1, product), y0)  # positional ``out``: the cheapest ufunc call
        subtract(y0, multiply(y2, a2, product), y0)


def filter_columns(coeffs: FilterCoefficients, x: np.ndarray, memory: np.ndarray):
    """``filter_lanes`` for one stream, the feedback on Python floats: yields each channel's outputs as a list.

    ``x`` is (N + 2, channels), as ``filter_lanes`` takes it for a single
    lane, and ``memory`` (2, channels) holds the two outputs before the
    block, ``filter_lanes``'s rows 0 and 1 of ``y`` (read before the first
    yield). Yields, channel by channel, a list of N + 2 floats: the column
    ``filter_lanes`` writes into ``y``, bit for bit. The feedforward is one
    numpy pass over the block; the feedback ``(ff - a1*y1) - a2*y2`` steps
    through time as a plain float loop over one channel at a time.
    ``filter_lanes`` pays about four ufunc calls per time step whatever the
    width, which on a single stream costs more than the arithmetic: this
    loop pays about 0.1 us per sample and channel.
    """
    a1, a2 = coeffs.a1, coeffs.a2
    ff = _feedforward(coeffs, x, np.empty_like(x[2:]))
    for channel, (y2, y1) in enumerate(memory.T.tolist()):
        column = [y2, y1]
        append = column.append
        for f in ff[:, channel].tolist():
            y0 = f - a1 * y1 - a2 * y2
            append(y0)
            y2 = y1
            y1 = y0
        yield column


def _feedforward(coeffs: FilterCoefficients, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(b0*u + b1*x1) + b2*x2`` for every sample row ``u`` of ``x`` (rows 2 onward) at once, into ``out``."""
    ff = np.multiply(x[2:], coeffs.b0, out=out)
    term = np.multiply(x[1:-1], coeffs.b1)
    ff += term
    ff += np.multiply(x[:-2], coeffs.b2, out=term)
    return ff
