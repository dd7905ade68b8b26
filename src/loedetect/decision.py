"""Per-actuator failure hypothesis test and latched decision.

Treats each effectiveness estimate as Gaussian with the estimator's variance
and computes the lower-tail probability that the true factor sits below the
failure threshold. A decision latches once that probability strictly exceeds
the probability threshold, and never unlatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DecisionConfig:
    k_threshold: float = 0.25
    probability_threshold: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.k_threshold < 1.0:
            raise ValueError("k_threshold must be in (0, 1)")
        if not 0.5 < self.probability_threshold < 1.0:
            raise ValueError("probability_threshold must be in (0.5, 1)")


@dataclass(frozen=True)
class DetectionStatus:
    """Per-actuator first detection times; an actuator with a time is latched."""

    first_detection_time: tuple[float | None, float | None, float | None, float | None] = (None, None, None, None)

    @property
    def failed(self) -> tuple[bool, bool, bool, bool]:
        """Per-actuator latch flags: an actuator is latched exactly when it has a time."""
        return tuple(t is not None for t in self.first_detection_time)

    def any_failed(self) -> bool:
        return any(self.failed)

    def failed_actuators(self) -> tuple[int, ...]:
        """1-based indices of latched actuators."""
        return tuple(i + 1 for i, f in enumerate(self.failed) if f)


def failure_probability(k_hat: float, variance: float, k_threshold: float) -> float:
    """P(k < k_threshold) for a Gaussian with mean ``k_hat`` and ``variance``.

    Zero variance degenerates to the indicator of ``k_hat < k_threshold``
    (0.5 at equality).
    """
    if variance < 0.0:
        raise ValueError("variance must be non-negative")
    if variance == 0.0:
        if k_hat < k_threshold:
            return 1.0
        if k_hat > k_threshold:
            return 0.0
        return 0.5
    return 0.5 * (1.0 + math.erf((k_threshold - k_hat) / math.sqrt(2.0 * variance)))


def failure_probabilities(
    k_hat, variances, k_threshold: float
) -> tuple[float, float, float, float]:
    """Vector form over the four actuators: four estimates and four variances in, four floats out.

    Unpacking rejects any length but four.
    """
    k0, k1, k2, k3 = k_hat
    v0, v1, v2, v3 = variances
    return (
        failure_probability(k0, v0, k_threshold),
        failure_probability(k1, v1, k_threshold),
        failure_probability(k2, v2, k_threshold),
        failure_probability(k3, v3, k_threshold),
    )


def decide(probs, status: DetectionStatus, config: DecisionConfig, now: float) -> DetectionStatus:
    """Latch actuators whose failure probability strictly exceeds the threshold.

    Already-latched actuators stay latched; if nothing changes the input
    status object is returned unchanged.
    """
    threshold = config.probability_threshold
    p0, p1, p2, p3 = probs
    t0, t1, t2, t3 = times = status.first_detection_time
    if not (
        (p0 > threshold and t0 is None)
        or (p1 > threshold and t1 is None)
        or (p2 > threshold and t2 is None)
        or (p3 > threshold and t3 is None)
    ):
        return status
    return DetectionStatus(tuple(now if t is None and p > threshold else t for t, p in zip(times, probs)))


def first_exceedance(records, config: DecisionConfig) -> DetectionStatus:
    """The status ``decide`` ends a run with, from the run's sub-threshold probabilities only.

    ``records`` holds one sequence per actuator of ``(t, p)`` pairs, in tick
    order: ``p = failure_probability(k_hat, variance, config.k_threshold)``
    on each tick whose ``k_hat < config.k_threshold``. Each actuator latches
    at its first ``p > config.probability_threshold``.

    This equals folding ``decide(failure_probabilities(...))`` over every
    tick of the run, from a fresh ``DetectionStatus``:

    - ``decide`` latches each actuator on its own, for good, at the first
      tick where its ``p > probability_threshold``.
    - ``DecisionConfig`` requires ``probability_threshold > 0.5``.
    - on a tick whose ``k_hat >= k_threshold``, ``failure_probability`` is
      at most 0.5: it is 0.5 (1 + erf(x)) with x <= 0, or 0 or 0.5 at zero
      variance. A NaN ``k_hat`` gives NaN or 0.5.
    - so the ticks ``records`` leaves out can never latch.
    """
    threshold = config.probability_threshold
    return DetectionStatus(tuple(next((t for t, p in pairs if p > threshold), None) for pairs in records))
