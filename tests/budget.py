"""Runtime budget of the streaming detector, for ACCEPTANCE 09 and the detector tests.

``step_runtime_budget`` times ``Detector.process_sample`` per sample over
``budget_stream``, a synthetic hover followed by a sudden loss of actuator 3.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from loedetect.detector import Detector, DetectorConfig
from loedetect.effectiveness import SIGN_MATRIX
from loedetect.filters import RawSample


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


def budget_stream(config: DetectorConfig, n_samples: int, fault_index: int):
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
    for i, raw in enumerate(budget_stream(config, n_samples, fault_index)):
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
