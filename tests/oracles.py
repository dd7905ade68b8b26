"""Array-form oracles for the detector's per-sample path.

The package runs the conditioning stage and the estimator update on Python
floats, and builds the observation matrix from precomputed signed gains.
These are the same computations written on float64 arrays and scalars: the
conditioning stage as the array forms it replaced, operation for operation,
and the estimator as the sequential scalar update written with vector and
outer-product operations. Every operation involved is elementwise, so the
package must reproduce them bit for bit, and the tests assert
``array_equal``.

The serial replay oracles (``streamed_outputs``, ``serial_evaluation``,
``oracle_ticks_csv``) stream a log through ``Detector.process_sample`` and
format its outputs row by row: the references the block replay and the
sweep are held to. ``frequency_response`` is the filter design's
frequency response, which the filter tests and ACCEPTANCE 05 check.
"""

from __future__ import annotations

import numpy as np

from loedetect import kalman
from loedetect.decision import DetectionStatus, decide, failure_probability
from loedetect.detector import ARMING_WINDOW_S, Conditioner, Detector
from loedetect.effectiveness import SIGN_MATRIX
from loedetect.filters import MAX_ROTOR_SPEED_RAD_S, N_CHANNELS, design_lowpass, filter_step
from loedetect.kalman import EstimatorState
from loedetect.replay import _check_sample_rate, evaluate


def sample_values(raw):
    """A ``RawSample`` as ``Conditioner.push``'s nine floats."""
    return [raw.timestamp, *raw.angular_rate.tolist(), float(raw.proper_accel_z), *raw.rotor_speeds.tolist()]


def streamed_outputs(log, config):
    """A serial replay of ``log``: the sample-rate check, then ``Detector.process_sample`` on each sample."""
    _check_sample_rate(log, config)
    detector = Detector(config)
    return [detector.process_sample(raw) for raw in log.samples()]


def serial_evaluation(log, config):
    """What ``evaluate_log`` returns or raises, taken from ``streamed_outputs``."""
    return evaluate(streamed_outputs(log, config), log.ground_truth())


def pushed_ticks(log, config):
    """``Conditioner.push``'s armed tick rows on ``log`` (t, ``z``, ``w_sq``), as (ticks, 8) floats."""
    push = Conditioner(config).push
    rows = [tick for row in log.rows() if (tick := push(*row)) is not None]
    return np.array(rows, dtype=float).reshape(-1, 8)


def oracle_ticks_csv(outputs):
    """The ticks CSV of ``outputs`` formatted row by row, every field every row."""
    names = (
        ["t"]
        + [f"k{i}" for i in range(1, 5)]
        + [f"var{i}" for i in range(1, 5)]
        + [f"pfail{i}" for i in range(1, 5)]
        + ["armed"]
        + [f"failed{i}" for i in range(1, 5)]
    )
    lines = [",".join(names)]
    for out in outputs:
        row = (
            [repr(out.timestamp)]
            + [repr(float(v)) for v in out.k_hat]
            + [repr(float(v)) for v in out.variances]
            + [repr(float(v)) for v in out.p_fail]
            + [str(int(out.armed))]
            + [str(int(f)) for f in out.status.failed]
        )
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def narrow_bank_step(state, inputs):
    """``filter_step`` on the first ``len(inputs)`` channels of the bank, as an array.

    The other channels are fed zeros. Channels never mix, so the padding does
    not change the bits of the channels returned.
    """
    values = [float(v) for v in inputs]
    return np.array(filter_step(state, values + [0.0] * (N_CHANNELS - len(values)))[: len(values)])


def frequency_response(coeffs, omega, sample_interval):
    """The biquad's discrete-time frequency response at ``omega`` rad/s."""
    z1 = np.exp(-1j * omega * sample_interval)
    z2 = z1 * z1
    num = coeffs.b0 + coeffs.b1 * z1 + coeffs.b2 * z2
    den = 1.0 + coeffs.a1 * z1 + coeffs.a2 * z2
    return num / den


class OracleFilterState:
    """The biquad bank on float64 arrays, warm-started from the first sample."""

    def __init__(self, coeffs, n_channels=N_CHANNELS):
        self.coeffs = coeffs
        self.n_channels = n_channels
        self._primed = False

    def reset(self):
        self._primed = False

    def step(self, inputs):
        x = np.array(inputs, dtype=float)
        assert x.shape == (self.n_channels,)
        if not self._primed:
            self._x1 = x.copy()
            self._x2 = x.copy()
            self._y1 = x.copy()
            self._y2 = x.copy()
            self._primed = True
        c = self.coeffs
        y = c.b0 * x + c.b1 * self._x1
        y += c.b2 * self._x2
        y -= c.a1 * self._y1
        y -= c.a2 * self._y2
        self._x2 = self._x1
        self._x1 = x
        self._y2 = self._y1
        self._y1 = y
        return y


class OracleGate:
    """The takeoff gate with each sample's thrust proxy taken as a numpy dot.

    ``Conditioner`` sums the four squares on floats instead; the two can
    round a proxy differently, so the arming sample is compared per log.
    """

    def __init__(self, config):
        self.armed = False
        self._gate_level = config.takeoff_thrust_fraction * config.hover_thrust_reference
        self._gate_len = max(1, round(ARMING_WINDOW_S / config.sensor_interval))
        self._gate_buf = np.zeros(self._gate_len)
        self._gate_sum = 0.0
        self._gate_count = 0
        self._gate_pos = 0

    def push(self, rotor_speeds):
        """Advance one sample's speed array while disarmed; returns ``armed``."""
        if not self.armed:
            thrust_proxy = float(rotor_speeds @ rotor_speeds)
            self._gate_sum += thrust_proxy - self._gate_buf[self._gate_pos]
            self._gate_buf[self._gate_pos] = thrust_proxy
            self._gate_pos = (self._gate_pos + 1) % self._gate_len
            if self._gate_count < self._gate_len:
                self._gate_count += 1
            if self._gate_sum / self._gate_count > self._gate_level:
                self.armed = True
        return self.armed


def oracle_arming_index(log, config):
    """Index of the sample of ``log`` that arms ``OracleGate``, or ``None``."""
    gate = OracleGate(config)
    return next((i for i, speeds in enumerate(log.rotor_speeds) if gate.push(speeds)), None)


class OracleConditioner:
    """``Conditioner`` on arrays: filter bank, takeoff gate, differencing.

    Input checks are left out; the oracle is only fed valid samples.
    """

    def __init__(self, config):
        self._filter = OracleFilterState(design_lowpass(config.lowpass, config.sensor_interval))
        self._steps_per_estimate = config.steps_per_estimate()
        self._sample_index = 0
        self._prev = None  # (timestamp, filtered vector) at the last tick
        self._gate = OracleGate(config)
        self.armed = False

    def push(self, raw):
        assert np.all(np.abs(raw.rotor_speeds) <= MAX_ROTOR_SPEED_RAD_S)
        vec = np.empty(N_CHANNELS)
        vec[0:2] = raw.angular_rate[:2]  # the bank filters p and q, not r
        vec[2] = raw.proper_accel_z
        vec[3:7] = raw.rotor_speeds
        out = self._filter.step(vec)
        self.armed = self._gate.push(raw.rotor_speeds)

        self._sample_index += 1
        if self._sample_index % self._steps_per_estimate:
            return None
        if self._prev is None:
            accel = np.zeros(2)
        else:
            t_prev, prev = self._prev
            accel = (out[:2] - prev[:2]) / (raw.timestamp - t_prev)
        self._prev = (raw.timestamp, out)
        if not self.armed:
            return None
        return np.array([accel[0], accel[1], float(out[2])]), np.square(out[3:7])


def state_from_arrays(x, P):
    """An ``EstimatorState`` from a 4-vector ``x`` and an exactly symmetric 4x4 ``P``."""
    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    assert x.shape == (4,) and P.shape == (4, 4)
    assert np.array_equal(P, P.T), "P must be exactly symmetric"
    return EstimatorState(tuple(x.tolist()), tuple(P[np.triu_indices(4)].tolist()))


def state_arrays(state):
    """``(x, P)``: an ``EstimatorState``'s estimates and its exactly symmetric 4x4 ``P``, as fresh arrays."""
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = state.p_upper
    P = np.array([[p00, p01, p02, p03], [p01, p11, p12, p13], [p02, p12, p22, p23], [p03, p13, p23, p33]])
    return np.array(state.k), P


def _dot4(u, v):
    """``u . v`` summed left to right, never by a BLAS reduction."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def oracle_kalman_step(state, H, z, noise):
    """``kalman.step``: the rows of ``H`` as scalar updates, in order."""
    x, P = state_arrays(state)
    P = P + noise.process_noise_q * np.eye(4)
    y = [z_j - _dot4(h, x) for h, z_j in zip(H, z)]
    dx = np.zeros(4)
    for h, y_j in zip(H, y):
        a = P[:, 0] * h[0] + P[:, 1] * h[1] + P[:, 2] * h[2] + P[:, 3] * h[3]
        s = _dot4(h, a) + noise.measurement_noise_r
        dx = dx + a * ((y_j - _dot4(h, dx)) / s)
        P = P - np.outer(a, a / s)
        P = np.triu(P) + np.triu(P, 1).T  # the upper triangle, mirrored
    return state_from_arrays(np.clip(x + dx, kalman.K_MIN, kalman.K_MAX), P)


def oracle_failure_probabilities(k_hat, variances, k_threshold):
    return np.array(
        [failure_probability(float(k_hat[i]), float(variances[i]), k_threshold) for i in range(4)]
    )


class OracleDetector:
    """The whole per-sample pipeline on arrays; outputs are plain tuples."""

    def __init__(self, config):
        self.config = config
        self.conditioner = OracleConditioner(config)
        gains = config.gains
        self._gains_col = np.array([gains.g_p, gains.g_q, gains.g_az])[:, None]
        self._estimator = kalman.init()
        self._status = DetectionStatus()
        self._publish()

    def _publish(self):
        self._k, P = state_arrays(self._estimator)
        self._var = P.diagonal()
        self._pfail = oracle_failure_probabilities(self._k, self._var, self.config.decision.k_threshold)

    def process_sample(self, raw):
        tick = self.conditioner.push(raw)
        if tick is not None:
            z, w_sq = tick
            H = SIGN_MATRIX * self._gains_col * w_sq[None, :]
            self._estimator = oracle_kalman_step(self._estimator, H, z, self.config.noise)
            self._publish()
            self._status = decide(self._pfail, self._status, self.config.decision, raw.timestamp)
        return raw.timestamp, self._k, self._var, self._pfail, self._status, self.conditioner.armed


def sweep_probability_evaluations(logs, configs, every_tick=False):
    """The ``failure_probability`` evaluations a sweep of ``configs`` over ``logs`` makes.

    One per (log, distinct estimator key, distinct ``k_threshold``), armed
    tick and actuator whose estimate sits below that ``k_threshold``, up to
    and including the actuator's first probability above the largest
    ``probability_threshold`` of the configs sharing that pair (all of them
    have latched it by then); with ``every_tick``, on every such tick. The
    estimates come from ``Conditioner`` ticks through ``kalman.step`` with
    the array-form ``H``.
    """
    tops = {}
    for c in configs:
        pair = (c.estimator_key(), c.decision.k_threshold)
        tops[pair] = max(tops.get(pair, 0.0), c.decision.probability_threshold)
    runs = {(c.estimator_key(), c.decision.k_threshold): c for c in configs}
    total = 0
    for log in logs:
        for pair, config in runs.items():
            conditioner = Conditioner(config)
            gains = config.gains
            gains_col = np.array([gains.g_p, gains.g_q, gains.g_az])[:, None]
            k_threshold = config.decision.k_threshold
            latched = [False] * 4
            state = kalman.init()
            for row in log.rows():
                tick = conditioner.push(*row)
                if tick is not None:
                    H = SIGN_MATRIX * gains_col * np.array(tick[4:])[None, :]
                    state = kalman.step(state, H, tick[1:4], config.noise)
                    for i, (k, variance) in enumerate(zip(state.k, state.variances())):
                        if k < k_threshold and (every_tick or not latched[i]):
                            total += 1
                            latched[i] = failure_probability(k, variance, k_threshold) > tops[pair]
    return total
