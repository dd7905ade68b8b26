"""Streaming loss-of-effectiveness detector.

Wires the conditioning filters, backward differencing, observation building,
effectiveness estimator and hypothesis test into one per-sample pipeline of
three stages: conditioning, estimation and decision. The filters advance on
every sensor sample; the estimator and the decision logic advance on every
estimator tick once a takeoff thrust gate has armed the detector. Ground
contact would otherwise read as zero effectiveness and trigger false alarms,
so nothing can latch while disarmed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .decision import DecisionConfig, DetectionStatus, decide, failure_probabilities
from .effectiveness import DEFAULT_GAINS, SIGN_MATRIX, EffectivenessGains, VehicleParams
from .filters import (
    MAX_ROTOR_SPEED_RAD_S,
    STEP_TOLERANCE,
    FilterDesign,
    FilterState,
    FilteredSample,
    RawSample,
    design_lowpass,
    differentiate,
    filter_step,
)
from . import kalman
from .kalman import EstimatorState, NoiseConfig

# Sum of squared rotor speeds at hover for the default airframe.
DEFAULT_HOVER_THRUST_REFERENCE = VehicleParams().hover_thrust_reference()

# Length of the arming moving-average window, seconds.
ARMING_WINDOW_S = 1.0

_INF = math.inf


@dataclass(frozen=True)
class DetectorConfig:
    """Full parameterization of one detector instance."""

    gains: EffectivenessGains = DEFAULT_GAINS
    lowpass: FilterDesign = FilterDesign()
    noise: NoiseConfig = NoiseConfig()
    decision: DecisionConfig = DecisionConfig()
    estimator_interval: float = 0.02  # s, estimator/decision tick
    sensor_interval: float = 0.002  # s, filter tick
    takeoff_thrust_fraction: float = 0.5
    hover_thrust_reference: float = DEFAULT_HOVER_THRUST_REFERENCE  # sum w_i^2, (rad/s)^2

    def __post_init__(self) -> None:
        # Chained comparisons are False on NaN, so these also reject NaN.
        if not 0.0 < self.sensor_interval < _INF:
            raise ValueError(f"sensor_interval must be finite and positive, got {self.sensor_interval}")
        if not 0.0 < self.estimator_interval < _INF:
            raise ValueError(f"estimator_interval must be finite and positive, got {self.estimator_interval}")
        ratio = self.estimator_interval / self.sensor_interval
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or round(ratio) < 1:
            raise ValueError(
                f"estimator_interval ({self.estimator_interval} s) is not an integer "
                f"multiple of sensor_interval ({self.sensor_interval} s)"
            )
        if not 0.0 < self.takeoff_thrust_fraction < 1.0:
            raise ValueError("takeoff_thrust_fraction must be in (0, 1)")
        if not 0.0 < self.hover_thrust_reference < _INF:
            raise ValueError(
                f"hover_thrust_reference must be finite and positive, got {self.hover_thrust_reference}"
            )
        design_lowpass(self.lowpass, self.sensor_interval)  # rejects a filter above Nyquist

    def steps_per_estimate(self) -> int:
        return round(self.estimator_interval / self.sensor_interval)

    def conditioning_key(self) -> tuple:
        """The fields the conditioning stage reads; equal keys give equal ticks."""
        return (
            self.lowpass,
            self.sensor_interval,
            self.estimator_interval,
            self.takeoff_thrust_fraction,
            self.hover_thrust_reference,
        )

    def estimator_key(self) -> tuple:
        """The fields the conditioning and estimation stages read."""
        return (self.conditioning_key(), self.gains, self.noise)


def default_config() -> DetectorConfig:
    return DetectorConfig()


# ---------------------------------------------------------------------------
# Flat key-value schema, shared by the config file format and parameter sweeps.

CONFIG_KEYS = (
    "g_p",
    "g_q",
    "g_az",
    "filter_natural_frequency",
    "filter_damping_ratio",
    "process_noise_q",
    "measurement_noise_r",
    "k_threshold",
    "probability_threshold",
    "estimator_interval",
    "sensor_interval",
    "takeoff_thrust_fraction",
    "hover_thrust_reference",
)


def config_to_dict(config: DetectorConfig) -> dict[str, float]:
    return {
        "g_p": config.gains.g_p,
        "g_q": config.gains.g_q,
        "g_az": config.gains.g_az,
        "filter_natural_frequency": config.lowpass.natural_frequency,
        "filter_damping_ratio": config.lowpass.damping_ratio,
        "process_noise_q": config.noise.process_noise_q,
        "measurement_noise_r": config.noise.measurement_noise_r,
        "k_threshold": config.decision.k_threshold,
        "probability_threshold": config.decision.probability_threshold,
        "estimator_interval": config.estimator_interval,
        "sensor_interval": config.sensor_interval,
        "takeoff_thrust_fraction": config.takeoff_thrust_fraction,
        "hover_thrust_reference": config.hover_thrust_reference,
    }


def config_from_dict(values: dict[str, float]) -> DetectorConfig:
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    missing = set(CONFIG_KEYS) - set(values)
    if missing:
        raise ValueError(f"missing configuration keys: {sorted(missing)}")
    return DetectorConfig(
        gains=EffectivenessGains(values["g_p"], values["g_q"], values["g_az"]),
        lowpass=FilterDesign(
            natural_frequency=values["filter_natural_frequency"],
            damping_ratio=values["filter_damping_ratio"],
        ),
        noise=NoiseConfig(values["process_noise_q"], values["measurement_noise_r"]),
        decision=DecisionConfig(values["k_threshold"], values["probability_threshold"]),
        estimator_interval=values["estimator_interval"],
        sensor_interval=values["sensor_interval"],
        takeoff_thrust_fraction=values["takeoff_thrust_fraction"],
        hover_thrust_reference=values["hover_thrust_reference"],
    )


def config_with(config: DetectorConfig, key: str, value: float) -> DetectorConfig:
    """Copy of ``config`` with one flat key replaced; rejects unknown keys."""
    if key not in CONFIG_KEYS:
        raise KeyError(f"unknown configuration key: {key!r}")
    values = config_to_dict(config)
    values[key] = float(value)
    return config_from_dict(values)


def format_config(config: DetectorConfig) -> str:
    lines = ["# loedetect detector configuration"]
    for key, value in config_to_dict(config).items():
        lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def write_config(config: DetectorConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(config))


def parse_config(text: str) -> DetectorConfig:
    values: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(raw.strip())
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {raw.strip()!r}") from exc
    return config_from_dict(values)


def read_config(path) -> DetectorConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------


@dataclass(slots=True)
class DetectorOutput:
    """Detector state published for one input sample.

    Estimator-derived fields repeat between estimator ticks; the arrays are
    read-only snapshots, built once per tick from the estimator's floats and
    shared across outputs of the same tick.
    """

    timestamp: float
    k_hat: np.ndarray  # (4,)
    variances: np.ndarray  # (4,)
    p_fail: np.ndarray  # (4,)
    status: DetectionStatus
    armed: bool


def _snapshot(k_hat, variances, p_fail) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(k_hat, variances, p_fail)`` arrays of one tick's floats.

    The only place the estimator and decision stages meet numpy: the three
    are the rows of one fresh read-only 3x4 array.
    """
    rows = np.array((k_hat, variances, p_fail))
    rows.setflags(write=False)
    return rows[0], rows[1], rows[2]


# ---------------------------------------------------------------------------
# The three pipeline stages. ``Detector`` runs them in order on every sample;
# the sweep runs each once per distinct upstream key (see
# ``DetectorConfig.conditioning_key`` and ``estimator_key``).


class Conditioner:
    """Conditioning stage: input checks, filter bank, takeoff gate, differencing.

    Reads only the fields in ``config.conditioning_key()``.
    """

    def __init__(self, config: DetectorConfig):
        self._filter = FilterState(design_lowpass(config.lowpass, config.sensor_interval))
        self._steps_per_estimate = config.steps_per_estimate()
        self._sensor_interval = config.sensor_interval
        self._sample_index = 0
        self._last_timestamp: float | None = None
        self._prev_tick: FilteredSample | None = None
        # Takeoff gate: moving average of sum(w_i^2) over a 1 s window.
        self.armed = False
        self._gate_level = config.takeoff_thrust_fraction * config.hover_thrust_reference
        self._gate_len = max(1, round(ARMING_WINDOW_S / config.sensor_interval))
        self._gate_buf = [0.0] * self._gate_len
        self._gate_sum = 0.0
        self._gate_count = 0
        self._gate_pos = 0

    def push(self, raw: RawSample) -> tuple[tuple[float, float, float], list[float]] | None:
        """Advance one sample; on an armed estimator tick return ``(z, w_sq)``.

        ``z`` is (p_dot, q_dot, a_z) and ``w_sq`` the squared filtered rotor
        speeds. Timestamp steps outside (1 -/+ ``STEP_TOLERANCE``) x
        ``sensor_interval`` are rejected, as ``FlightLog.validate`` does.
        """
        t = raw.timestamp
        last = self._last_timestamp
        if last is not None and t <= last:
            raise ValueError(f"non-monotone timestamp: {t} after {last}")
        # The sample's one list of channel values, in ``CHANNELS`` order: the
        # checks read it and the filter bank keeps it as recursion memory.
        values = [*raw.angular_rate.tolist(), float(raw.proper_accel_z), *raw.rotor_speeds.tolist()]
        p, q, r, az, w1, w2, w3, w4 = values
        top = MAX_ROTOR_SPEED_RAD_S
        # Chained comparisons are False on NaN, so this also rejects NaN.
        if not (
            -_INF < t < _INF
            and -_INF < az < _INF
            and -_INF < p < _INF
            and -_INF < q < _INF
            and -_INF < r < _INF
            and 0.0 <= w1 <= top
            and 0.0 <= w2 <= top
            and 0.0 <= w3 <= top
            and 0.0 <= w4 <= top
        ):
            if not all(-_INF < v < _INF for v in (t, *values)):
                problem = "NaN or Inf"
            elif max(abs(w1), abs(w2), abs(w3), abs(w4)) > top:
                problem = f"rotor speed above {top:g} rad/s"
            else:
                problem = "negative rotor speed"
            raise ValueError(f"{problem} in sample at t={t}")
        if last is not None and abs((t - last) / self._sensor_interval - 1.0) >= STEP_TOLERANCE:
            raise ValueError(
                f"timestamp step {t - last:.6g} s at t={t} is outside "
                f"({1.0 - STEP_TOLERANCE:g}, {1.0 + STEP_TOLERANCE:g}) x sensor_interval "
                f"{self._sensor_interval:g} s"
            )
        self._last_timestamp = t

        out = filter_step(self._filter, values)
        if not self.armed:
            # numpy dot, not a scalar sum: BLAS rounds it differently.
            thrust_proxy = float(raw.rotor_speeds @ raw.rotor_speeds)
            self._gate_sum += thrust_proxy - self._gate_buf[self._gate_pos]
            self._gate_buf[self._gate_pos] = thrust_proxy
            self._gate_pos = (self._gate_pos + 1) % self._gate_len
            if self._gate_count < self._gate_len:
                self._gate_count += 1
            if self._gate_sum / self._gate_count > self._gate_level:
                self.armed = True  # one-way: landing detection is out of scope

        self._sample_index += 1
        if self._sample_index % self._steps_per_estimate:
            return None
        filtered = FilteredSample(timestamp=t, rates=out[0:3], accel_z=out[3], rotor_speeds=out[4:8])
        p_dot, q_dot = differentiate(self._prev_tick, filtered)
        self._prev_tick = filtered
        if not self.armed:
            return None
        return (p_dot, q_dot, filtered.accel_z), [w * w for w in filtered.rotor_speeds]


def signed_gains(gains: EffectivenessGains) -> tuple[tuple[float, ...], ...]:
    """``SIGN_MATRIX * gains`` per row, as floats: the observation matrix before ``w_sq``."""
    return tuple(
        tuple(sign * g for sign in row)
        for row, g in zip(SIGN_MATRIX.tolist(), (gains.g_p, gains.g_q, gains.g_az))
    )


def estimation_step(
    state: EstimatorState, gains, noise: NoiseConfig, z, w_sq: list[float]
) -> EstimatorState:
    """Estimation stage: one estimator update from an armed tick.

    ``gains`` is ``signed_gains(config.gains)``, so the rows of
    ``H = (sign*g)*w_sq`` hold the same products as ``observation_matrix``.
    """
    w0, w1, w2, w3 = w_sq
    H = [(g0 * w0, g1 * w1, g2 * w2, g3 * w3) for g0, g1, g2, g3 in gains]
    return kalman.step(state, H, z, noise)


def decision_step(
    k_hat, variances, status: DetectionStatus, config: DecisionConfig, now: float
) -> tuple[list[float], DetectionStatus]:
    """Decision stage: failure probabilities and the latched status after them."""
    p_fail = failure_probabilities(k_hat, variances, config.k_threshold)
    return p_fail, decide(p_fail, status, config, now=now)


class Detector:
    """One detection stream: feed samples in timestamp order, read outputs."""

    def __init__(self, config: DetectorConfig):
        self.config = config
        self._conditioner = Conditioner(config)
        self._gains = signed_gains(config.gains)
        self._estimator = state = kalman.init()
        self._status = DetectionStatus()
        variances = state.variances()
        p_fail = failure_probabilities(state.k, variances, config.decision.k_threshold)
        self._snap_k, self._snap_var, self._snap_pfail = _snapshot(state.k, variances, p_fail)

    @property
    def armed(self) -> bool:
        return self._conditioner.armed

    @property
    def status(self) -> DetectionStatus:
        return self._status

    @property
    def estimator_state(self) -> EstimatorState:
        return self._estimator

    def process_sample(self, raw: RawSample) -> DetectorOutput:
        tick = self._conditioner.push(raw)
        if tick is not None:
            config = self.config
            state = self._estimator = estimation_step(self._estimator, self._gains, config.noise, *tick)
            variances = state.variances()
            p_fail, self._status = decision_step(
                state.k, variances, self._status, config.decision, raw.timestamp
            )
            self._snap_k, self._snap_var, self._snap_pfail = _snapshot(state.k, variances, p_fail)

        return DetectorOutput(
            timestamp=raw.timestamp,
            k_hat=self._snap_k,
            variances=self._snap_var,
            p_fail=self._snap_pfail,
            status=self._status,
            armed=self._conditioner.armed,
        )

    def process_stream(self, samples) -> list[DetectorOutput]:
        return [self.process_sample(s) for s in samples]


# ---------------------------------------------------------------------------
# Runtime budget measurement.


@dataclass(frozen=True)
class RuntimeReport:
    """Per-sample wall-time statistics of one synthetic detector run."""

    n_samples: int
    mean_us: float
    p99_us: float
    pre_fault_mean_us: float
    post_fault_mean_us: float
    latched: bool

    def __str__(self) -> str:
        return (
            f"runtime over {self.n_samples} samples: mean {self.mean_us:.2f} us, "
            f"p99 {self.p99_us:.2f} us, pre-fault {self.pre_fault_mean_us:.2f} us, "
            f"post-fault {self.post_fault_mean_us:.2f} us, latched={self.latched}"
        )


def _budget_stream(config: DetectorConfig, n_samples: int, fault_index: int):
    """Synthetic stream: trimmed hover, then a sudden loss of actuator 3.

    Post-fault the rotor speeds jump to the pattern a controller fighting the
    loss settles into (opposite rotor near idle, failed rotor driven hard);
    that pattern makes the failed actuator sharply observable, so the
    estimator provably latches. The fed roll/pitch rates integrate the
    accelerations the model implies for the current speeds and effectiveness
    (rate integration saturates 2 s after the fault to keep values bounded);
    values only, per-sample cost is unaffected.
    """
    dt = config.sensor_interval
    w_hover = math.sqrt(config.hover_thrust_reference / 4.0)
    hover_speeds = np.full(4, w_hover)
    response_speeds = w_hover * np.array([0.35, 1.15, 1.75, 1.15])
    roll_signs = SIGN_MATRIX[0]
    pitch_signs = SIGN_MATRIX[1]
    g_p, g_q, g_az = config.gains.g_p, config.gains.g_q, config.gains.g_az
    p = q = 0.0
    for index in range(n_samples):
        speeds = hover_speeds if index < fault_index else response_speeds
        k_eff = np.square(speeds)
        if index >= fault_index:
            k_eff[2] = 0.0  # actuator 3 loses all thrust, its speed stays reported
        az = -g_az * float(k_eff.sum())
        if (index - fault_index) * dt < 2.0:
            p += g_p * float(roll_signs @ k_eff) * dt
            q += g_q * float(pitch_signs @ k_eff) * dt
        yield RawSample(
            timestamp=(index + 1) * dt,
            angular_rate=np.array([p, q, 0.0]),
            proper_accel_z=az,
            rotor_speeds=speeds,
        )


def step_runtime_budget(config: DetectorConfig, n_samples: int = 100_000) -> RuntimeReport:
    """Time ``process_sample`` over a synthetic stream on a fresh detector.

    The stream hovers for its first half, then carries a sudden-loss
    signature so the report can compare per-sample cost before and after a
    latched detection.
    """
    if n_samples < 100:
        raise ValueError("n_samples too small for a meaningful budget")
    detector = Detector(config)
    fault_index = n_samples // 2
    times = np.empty(n_samples)
    perf = time.perf_counter
    for i, raw in enumerate(_budget_stream(config, n_samples, fault_index)):
        t0 = perf()
        detector.process_sample(raw)
        times[i] = perf() - t0
    times *= 1e6
    return RuntimeReport(
        n_samples=n_samples,
        mean_us=float(times.mean()),
        p99_us=float(np.quantile(times, 0.99)),
        pre_fault_mean_us=float(times[:fault_index].mean()),
        post_fault_mean_us=float(times[fault_index:].mean()),
        latched=detector.status.any_failed(),
    )
