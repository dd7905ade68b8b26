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
from dataclasses import dataclass
from numbers import Real
from operator import attrgetter
from typing import get_type_hints

import numpy as np

from .decision import DecisionConfig, DetectionStatus, decide, failure_probabilities
from .effectiveness import (
    DEFAULT_GAINS,
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
_NEG_INF = -math.inf


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
        if not ratio <= 2.0**53:  # past 2**53 every float is an integer, so the check below cannot tell
            raise ValueError(
                f"estimator_interval ({self.estimator_interval} s) is more than 2**53 "
                f"sensor_intervals ({self.sensor_interval} s)"
            )
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
    with open(path, "r", encoding="utf-8-sig") as fh:  # a UTF-8 byte-order mark is skipped
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
# The three pipeline stages: ``Conditioner``, estimation (``kalman.step`` on
# ``observation_rows``) and the decision (``failure_probabilities``, then
# ``decide``). ``Detector`` runs them in order on every sample, the last two
# on armed ticks only (``Estimation._tick``). ``replay.replay_log`` conditions
# a whole log in blocks and runs an ``Estimation`` on its armed ticks. The
# sweep runs the first two once per distinct upstream key (see
# ``DetectorConfig.conditioning_key`` and ``estimator_key``) and latches
# each config by ``decision.first_exceedance``.


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

    def push(
        self, t: float, p: float, q: float, r: float, az: float, w1: float, w2: float, w3: float, w4: float
    ) -> tuple[float, float, float, float, float, float, float, float] | None:
        """Advance one sample of nine floats; on an armed estimator tick return its tick row.

        The floats are the timestamp, body rates, vertical accelerometer and
        rotor speeds, in ``flightlog.COLUMNS`` order. The tick row is the
        8-float ``(t, p_dot, q_dot, a_z, w1_sq, w2_sq, w3_sq, w4_sq)``: the
        measurement ``z`` (p_dot, q_dot, a_z) and the squared filtered rotor
        speeds, the row ``Estimation._tick`` takes. Checks run
        in a fixed order: timestamp order, then NaN or Inf, the rotor-speed
        ceiling and negative speeds, then timestamp steps outside (1 -/+
        ``STEP_TOLERANCE``) x ``sensor_interval``, as ``FlightLog.validate``
        rejects them. A rejected sample raises ``ValueError`` and changes no
        state. Estimator ticks come from a countdown of
        ``steps_per_estimate`` accepted samples.
        """
        last = self._last_timestamp
        if last is not None and t <= last:
            raise _out_of_order(t, last)
        # Local bounds: ``-_INF`` would negate, and allocate a float, per comparison.
        ninf, inf, top = _NEG_INF, _INF, MAX_ROTOR_SPEED_RAD_S
        # Chained comparisons are False on NaN, so this also rejects NaN.
        if not (
            ninf < t < inf
            and ninf < az < inf
            and ninf < p < inf
            and ninf < q < inf
            and ninf < r < inf
            and 0.0 <= w1 <= top
            and 0.0 <= w2 <= top
            and 0.0 <= w3 <= top
            and 0.0 <= w4 <= top
        ):
            raise _bad_value(t, (p, q, r, az), (w1, w2, w3, w4))
        if last is not None and abs((t - last) / self._sensor_interval - 1.0) >= STEP_TOLERANCE:
            raise ValueError(
                f"timestamp step {t - last:.6g} s at t={t} is outside "
                f"({1.0 - STEP_TOLERANCE:g}, {1.0 + STEP_TOLERANCE:g}) x sensor_interval "
                f"{self._sensor_interval:g} s"
            )
        self._last_timestamp = t

        # The sample's one list of channel values, in ``CHANNELS`` order; the
        # filter bank keeps it as recursion memory. ``r`` is checked above
        # but not filtered: no stage reads it.
        out = filter_step(self._filter, [p, q, az, w1, w2, w3, w4])
        armed = self.armed
        if not armed:
            thrust_proxy = w1 * w1 + w2 * w2 + w3 * w3 + w4 * w4
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
        fp, fq, a_z, f1, f2, f3, f4 = out
        current = (t, fp, fq)
        p_dot, q_dot = differentiate(self._prev_tick, current)
        self._prev_tick = current
        if not armed:
            return None
        return t, p_dot, q_dot, a_z, f1 * f1, f2 * f2, f3 * f3, f4 * f4


def _out_of_order(t: float, last: float) -> ValueError:
    """The error for a timestamp at or before the last accepted one."""
    return ValueError(f"non-monotone timestamp: {t} after {last}")


def _bad_value(t: float, values: tuple, speeds: tuple) -> ValueError:
    """The error for a sample of floats that fails ``Conditioner.push``'s value checks."""
    if not all(-_INF < v < _INF for v in (t, *values, *speeds)):
        problem = "NaN or Inf"
    elif max(map(abs, speeds)) > MAX_ROTOR_SPEED_RAD_S:
        problem = f"rotor speed above {MAX_ROTOR_SPEED_RAD_S:g} rad/s"
    else:
        problem = "negative rotor speed"
    return ValueError(f"{problem} in sample at t={t}")


def _real_float(value) -> float:
    """``float(value)`` for a real number; ``TypeError`` for anything else, strings included."""
    if not isinstance(value, Real):
        raise TypeError(f"expected a real number, got {value!r}")
    return float(value)


def _malformed_field(raw: RawSample, last: float | None) -> ValueError | None:
    """The error for a ``RawSample`` whose fields could not be read or checked.

    Faults are taken in ``Conditioner.push``'s order: a malformed timestamp,
    timestamp order, then a malformed rate, speed or accelerometer field.
    ``None`` when every field is well-formed, so the value error ``push``
    raised stands.
    """
    t = raw.timestamp
    if not isinstance(t, Real):
        where = "the first sample" if last is None else f"the sample after t={last}"
        return ValueError(f"malformed timestamp in {where}: expected a real number, got {t!r}")
    if last is not None and t <= last:
        return _out_of_order(t, last)
    for name, size in (("angular_rate", 3), ("rotor_speeds", 4)):
        value = getattr(raw, name)
        if not (isinstance(value, np.ndarray) and value.shape == (size,) and value.dtype.kind in "biuf"):
            expected = f"expected a numpy array of {size} real numbers"
            return ValueError(f"malformed {name} in sample at t={t}: {expected}, got {value!r}")
    if not isinstance(raw.proper_accel_z, Real):
        return ValueError(
            f"malformed proper_accel_z in sample at t={t}: expected a real number, got {raw.proper_accel_z!r}"
        )
    return None


class Estimation:
    """Estimation and decision stages: the state ``_tick`` advances on each armed estimator tick.

    ``Detector`` is one, with a ``Conditioner`` in front of it. A block
    replay (``replay.replay_log``) runs one alone on the armed ticks of a
    conditioned log, so no ``Detector`` holds a conditioner its estimator
    has run past.
    """

    def __init__(self, config: DetectorConfig):
        self._gains = signed_gains(config.gains)
        self._noise = config.noise
        self._decision = config.decision
        self._estimator = state = kalman.init()
        self._status = DetectionStatus()
        self._variances = state.variances()
        self._p_fail = failure_probabilities(state.k, self._variances, self._decision.k_threshold)

    @property
    def status(self) -> DetectionStatus:
        return self._status

    @property
    def estimator_state(self) -> EstimatorState:
        return self._estimator

    def _tick(self, row) -> None:
        """Estimation and decision on one armed tick row, ``(t, z, w_sq)`` as ``push`` returns it."""
        state = self._estimator = kalman.step(
            self._estimator, observation_rows(self._gains, row[4:]), row[1:4], self._noise
        )
        variances = self._variances = state.variances()
        decision = self._decision
        p_fail = self._p_fail = failure_probabilities(state.k, variances, decision.k_threshold)
        self._status = decide(p_fail, self._status, decision, now=row[0])


class Detector(Estimation):
    """One detection stream: feed samples in timestamp order, read outputs."""

    def __init__(self, config: DetectorConfig):
        self.config = config
        self._conditioner = Conditioner(config)
        super().__init__(config)

    @property
    def armed(self) -> bool:
        return self._conditioner.armed

    def process_sample(self, raw: RawSample) -> DetectorOutput:
        """Stream one ``RawSample``; its fields are read into floats for ``Conditioner.push``.

        A malformed field raises ``ValueError`` naming the field, and a bad
        value the error ``push`` raises; a rejected sample changes no state.
        """
        conditioner = self._conditioner
        t = raw.timestamp
        try:
            p, q, r = raw.angular_rate.tolist()
            w1, w2, w3, w4 = raw.rotor_speeds.tolist()
            az = raw.proper_accel_z
            if az.__class__ is not float:  # float() would also parse a string
                az = _real_float(az)
            tick = conditioner.push(t, p, q, r, az, w1, w2, w3, w4)
        except (AttributeError, TypeError, ValueError):
            # A field of the wrong type or shape fails a read or a comparison;
            # only then is the sample searched for the cause.
            error = _malformed_field(raw, conditioner._last_timestamp)
            if error is None:
                raise
            raise error from None
        if tick is not None:
            self._tick(tick)
        return DetectorOutput(t, self._estimator.k, self._variances, self._p_fail, self._status, conditioner.armed)
