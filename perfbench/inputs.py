"""Seeded input recipes for the benchmark workloads.

The package receives only what these functions generate; the seed is a
benchmark argument and the same seed gives the same inputs.
"""

from __future__ import annotations

import math

import numpy as np

from loedetect.detector import DetectorConfig
from loedetect.effectiveness import SIGN_MATRIX
from loedetect.flightlog import FlightLog
from loedetect.simulator import FaultEvent, SensorNoiseModel

# Rotor speeds, relative to hover, that a controller fighting the loss of
# actuator 3 settles into: the same response pattern as the detector's
# runtime-budget stream. It makes actuator 3 sharply observable.
RESPONSE_PATTERN = np.array([0.35, 1.15, 1.75, 1.15])
FAILED_ACTUATOR = 3
# Roll/pitch rates integrate the post-fault accelerations for this long, then
# hold, so values stay bounded; per-sample cost does not depend on it.
RATE_INTEGRATION_S = 2.0
# Sensor noise on the streamed gyro and accelerometer channels, matching the
# simulator's default white-noise levels. Rotor speeds stay exact.
GYRO_NOISE_STD = 0.005  # rad/s
ACCEL_NOISE_STD = 0.08  # m/s^2


def loss_stream_log(config: DetectorConfig, n_samples: int, fault_index: int, seed: int) -> FlightLog:
    """Trimmed hover with sensor noise, then a sudden loss of actuator 3.

    Sample ``fault_index`` is the first one after the loss; the log is
    annotated with that ground truth.
    """
    rng = np.random.default_rng(seed)
    dt = config.sensor_interval
    w_hover = math.sqrt(config.hover_thrust_reference / 4.0)
    speeds = np.full((n_samples, 4), w_hover)
    speeds[fault_index:] = w_hover * RESPONSE_PATTERN
    k_eff = np.square(speeds)
    k_eff[fault_index:, FAILED_ACTUATOR - 1] = 0.0

    integrating = np.zeros(n_samples)
    n_integrate = min(n_samples - fault_index, round(RATE_INTEGRATION_S / dt))
    integrating[fault_index : fault_index + n_integrate] = dt
    gyro = np.zeros((n_samples, 3))
    gyro[:, 0] = np.cumsum(config.gains.g_p * (k_eff @ SIGN_MATRIX[0]) * integrating)
    gyro[:, 1] = np.cumsum(config.gains.g_q * (k_eff @ SIGN_MATRIX[1]) * integrating)
    gyro += rng.normal(0.0, GYRO_NOISE_STD, (n_samples, 3))
    accel_z = -config.gains.g_az * k_eff.sum(axis=1) + rng.normal(0.0, ACCEL_NOISE_STD, n_samples)

    return FlightLog(
        sample_rate_hz=1.0 / dt,
        t=np.arange(1, n_samples + 1) * dt,
        gyro=gyro,
        accel_z=accel_z,
        rotor_speeds=speeds,
        fault_actuator=FAILED_ACTUATOR,
        fault_time_s=fault_index * dt,
    )


# Ejection corpus: the tests' corpus recipe (hover, step and wind; actuators,
# fault times and noise scales varied), shortened to fewer logs so that one
# sweep takes seconds. Log durations depend only on the index, never on the
# seed, so every seed does the same amount of work.
SCENARIOS = ("hover", "step", "wind")
NOISE_SCALES = (0.6, 1.0, 1.4, 1.8)
POST_FAULT_WINDOW_S = 0.4


def corpus_plan(n_logs: int, seed: int) -> list[dict]:
    """Keyword arguments of ``fly_scenario`` for each corpus log."""
    plan = []
    for i in range(n_logs):
        fault_time = 0.9 + 0.083 * i
        plan.append(
            dict(
                scenario=SCENARIOS[i % 3],
                duration=fault_time + POST_FAULT_WINDOW_S,
                fault=FaultEvent(time=fault_time, actuator_index=(i + seed) % 4 + 1),
                noise=SensorNoiseModel(seed=seed * 1000 + i).scaled(NOISE_SCALES[(i + seed) % 4]),
            )
        )
    return plan


def flight_plan(n_flights: int, duration: float, seed: int) -> list[dict]:
    """Keyword arguments of ``fly_scenario`` for simulator corpus generation.

    Every flight has the same duration. Scenario and fault/no-fault cycle with
    the index; the seed draws actuators, fault times and noise.
    """
    rng = np.random.default_rng(seed)
    plan = []
    for j in range(n_flights):
        fault = None
        if j % 4 != 3:
            fault_time = duration - POST_FAULT_WINDOW_S - 0.2 * float(rng.random())
            fault = FaultEvent(time=fault_time, actuator_index=int(rng.integers(1, 5)))
        plan.append(
            dict(
                scenario=SCENARIOS[j % 3],
                duration=duration,
                fault=fault,
                noise=SensorNoiseModel(seed=seed * 10007 + j).scaled(float(rng.choice(NOISE_SCALES))),
            )
        )
    return plan
