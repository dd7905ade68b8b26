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
from operator import attrgetter
from typing import get_type_hints

import numpy as np

from .decision import DecisionConfig, DetectionStatus, decide, failure_probabilities
from .effectiveness import (
    DEFAULT_GAINS,
    SIGN_MATRIX,
    EffectivenessGains,
    VehicleParams,
    observation_rows,
    signed_gains,
)
from .filters import (
    MAX_ROTOR_SPEED_RAD_S,
    STEP_TOLERANCE,
    FilterDesign,
    FilterState,
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

# Shortest accepted sensor interval, s (100 kHz). The takeoff gate holds one
# float per sample of its window, so this bounds it at 100,000 floats.
MIN_SENSOR_INTERVAL_S = 1e-5

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
        if self.sensor_interval < MIN_SENSOR_INTERVAL_S:
            raise ValueError(
                f"sensor_interval must be at least {MIN_SENSOR_INTERVAL_S:g} s, got {self.sensor_interval}"
            )
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
        return _read_conditioning_fields(self)

    def estimator_key(self) -> tuple:
        """The fields the conditioning and estimation stages read."""
        return _read_estimator_fields(self)


def default_config() -> DetectorConfig:
    return DetectorConfig()


# ---------------------------------------------------------------------------
# Flat key-value schema, shared by the config file format and parameter sweeps.

# The pipeline stages, in the order a sample passes them.
STAGES = ("conditioning", "estimation", "decision")

# One row per flat key, in file order: (key, owner, attribute, first stage
# that reads it). The owner is the ``DetectorConfig`` field holding the value
# ("" for ``DetectorConfig`` itself); a ``None`` attribute is the key itself.
CONFIG_SCHEMA = (
    ("g_p", "gains", None, "estimation"),
    ("g_q", "gains", None, "estimation"),
    ("g_az", "gains", None, "estimation"),
    ("filter_natural_frequency", "lowpass", "natural_frequency", "conditioning"),
    ("filter_damping_ratio", "lowpass", "damping_ratio", "conditioning"),
    ("process_noise_q", "noise", None, "estimation"),
    ("measurement_noise_r", "noise", None, "estimation"),
    ("k_threshold", "decision", None, "decision"),
    ("probability_threshold", "decision", None, "decision"),
    ("estimator_interval", "", None, "conditioning"),
    ("sensor_interval", "", None, "conditioning"),
    ("takeoff_thrust_fraction", "", None, "conditioning"),
    ("hover_thrust_reference", "", None, "conditioning"),
)

CONFIG_KEYS = tuple(key for key, *_ in CONFIG_SCHEMA)


def _fields_reader(stages) -> attrgetter:
    """Reader of the values of the flat keys first read in one of ``stages``, in schema order."""
    rows = [row for row in CONFIG_SCHEMA if row[3] in stages]
    return attrgetter(*(".".join(filter(None, (owner, attr or key))) for key, owner, attr, _ in rows))


_read_fields = _fields_reader(STAGES)
_read_conditioning_fields = _fields_reader(("conditioning",))
_read_estimator_fields = _fields_reader(("conditioning", "estimation"))
# The class of each owner field, from the ``DetectorConfig`` annotations.
_OWNER_TYPES = get_type_hints(DetectorConfig)


def config_to_dict(config: DetectorConfig) -> dict[str, float]:
    return dict(zip(CONFIG_KEYS, _read_fields(config)))


def config_from_dict(values: dict[str, float]) -> DetectorConfig:
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    missing = set(CONFIG_KEYS) - set(values)
    if missing:
        raise ValueError(f"missing configuration keys: {sorted(missing)}")
    fields: dict[str, dict[str, float]] = {}
    for key, owner, attr, _ in CONFIG_SCHEMA:
        fields.setdefault(owner, {})[attr or key] = values[key]
    top = fields.pop("")
    # Owners are built in schema order, so the first bad key in it is the one reported.
    nested = {owner: _OWNER_TYPES[owner](**attrs) for owner, attrs in fields.items()}
    return DetectorConfig(**nested, **top)


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

    Estimator-derived fields repeat between estimator ticks: each is one
    tuple of four floats per tick, shared across the outputs of that tick.
    """

    timestamp: float
    k_hat: tuple[float, float, float, float]
    variances: tuple[float, float, float, float]
    p_fail: tuple[float, float, float, float]
    status: DetectionStatus
    armed: bool


# ---------------------------------------------------------------------------
# The three pipeline stages: ``Conditioner``, ``estimation_step`` and the
# decision (``failure_probabilities``, then ``decide``). ``Detector`` runs
# them in order on every sample, the last two on armed ticks only. The sweep
# runs the first two once per distinct upstream key (see
# ``DetectorConfig.conditioning_key`` and ``estimator_key``) and latches each
# config by ``decision.first_exceedance``.


class Conditioner:
    """Conditioning stage: input checks, filter bank, takeoff gate, differencing.

    Reads only the fields in ``config.conditioning_key()``.
    """

    def __init__(self, config: DetectorConfig):
        self._filter = FilterState(design_lowpass(config.lowpass, config.sensor_interval))
        self._steps_per_estimate = self._countdown = config.steps_per_estimate()
        self._sensor_interval = config.sensor_interval
        self._last_timestamp: float | None = None
        self._prev_tick: tuple[float, float, float] | None = None  # (t, p, q), filtered
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
        ``sensor_interval`` are rejected, as ``FlightLog.validate`` does. A
        rejected sample changes no state. Estimator ticks come from a
        countdown of ``steps_per_estimate`` accepted samples.
        """
        t = raw.timestamp
        last = self._last_timestamp
        if last is not None and t <= last:
            raise ValueError(f"non-monotone timestamp: {t} after {last}")
        top = MAX_ROTOR_SPEED_RAD_S
        try:
            p, q, r = raw.angular_rate.tolist()
            az = float(raw.proper_accel_z)
            w1, w2, w3, w4 = raw.rotor_speeds.tolist()
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
                raise ValueError
        except (AttributeError, TypeError, ValueError):  # a bad value, or a field of the wrong type or shape
            raise _rejection(raw) from None
        if last is not None and abs((t - last) / self._sensor_interval - 1.0) >= STEP_TOLERANCE:
            raise ValueError(
                f"timestamp step {t - last:.6g} s at t={t} is outside "
                f"({1.0 - STEP_TOLERANCE:g}, {1.0 + STEP_TOLERANCE:g}) x sensor_interval "
                f"{self._sensor_interval:g} s"
            )
        self._last_timestamp = t

        # The sample's one list of channel values, in ``CHANNELS`` order; the
        # filter bank keeps it as recursion memory.
        out = filter_step(self._filter, [p, q, r, az, w1, w2, w3, w4])
        armed = self.armed
        if not armed:
            # numpy dot, not a scalar sum: BLAS rounds it differently.
            thrust_proxy = float(raw.rotor_speeds @ raw.rotor_speeds)
            pos = self._gate_pos
            self._gate_sum += thrust_proxy - self._gate_buf[pos]
            self._gate_buf[pos] = thrust_proxy
            self._gate_pos = (pos + 1) % self._gate_len
            if self._gate_count < self._gate_len:
                self._gate_count += 1
            if self._gate_sum / self._gate_count > self._gate_level:
                self.armed = armed = True  # one-way: landing detection is out of scope

        countdown = self._countdown - 1
        if countdown:
            self._countdown = countdown
            return None
        self._countdown = self._steps_per_estimate
        fp, fq, _, a_z, f1, f2, f3, f4 = out
        current = (t, fp, fq)
        p_dot, q_dot = differentiate(self._prev_tick, current)
        self._prev_tick = current
        if not armed:
            return None
        return (p_dot, q_dot, a_z), [f1 * f1, f2 * f2, f3 * f3, f4 * f4]


def _rejection(raw: RawSample) -> ValueError:
    """The error for a sample ``Conditioner.push`` does not accept: a malformed field, else a bad value."""
    t = raw.timestamp
    for name, size in (("angular_rate", 3), ("rotor_speeds", 4)):
        value = getattr(raw, name)
        if not (isinstance(value, np.ndarray) and value.shape == (size,) and value.dtype.kind in "biuf"):
            expected = f"expected a numpy array of {size} real numbers"
            return ValueError(f"malformed {name} in sample at t={t}: {expected}, got {value!r}")
    speeds = raw.rotor_speeds.tolist()
    values = (t, *raw.angular_rate.tolist(), float(raw.proper_accel_z), *speeds)
    if not all(-_INF < v < _INF for v in values):
        problem = "NaN or Inf"
    elif max(map(abs, speeds)) > MAX_ROTOR_SPEED_RAD_S:
        problem = f"rotor speed above {MAX_ROTOR_SPEED_RAD_S:g} rad/s"
    else:
        problem = "negative rotor speed"
    return ValueError(f"{problem} in sample at t={t}")


def estimation_step(
    state: EstimatorState, gains, noise: NoiseConfig, z, w_sq: list[float]
) -> EstimatorState:
    """Estimation stage: one estimator update from an armed tick.

    ``gains`` is ``signed_gains(config.gains)``.
    """
    return kalman.step(state, observation_rows(gains, w_sq), z, noise)


class Detector:
    """One detection stream: feed samples in timestamp order, read outputs."""

    def __init__(self, config: DetectorConfig):
        self.config = config
        self._conditioner = Conditioner(config)
        self._gains = signed_gains(config.gains)
        self._noise = config.noise
        self._decision = config.decision
        self._estimator = state = kalman.init()
        self._status = DetectionStatus()
        self._variances = state.variances()
        self._p_fail = failure_probabilities(state.k, self._variances, self._decision.k_threshold)

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
        conditioner = self._conditioner
        tick = conditioner.push(raw)
        if tick is not None:
            state = self._estimator = estimation_step(self._estimator, self._gains, self._noise, *tick)
            variances = self._variances = state.variances()
            decision = self._decision
            p_fail = self._p_fail = failure_probabilities(state.k, variances, decision.k_threshold)
            self._status = decide(p_fail, self._status, decision, now=raw.timestamp)

        return DetectorOutput(
            raw.timestamp, self._estimator.k, self._variances, self._p_fail, self._status, conditioner.armed
        )


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
