import math
import time

import numpy as np
import pytest

from loedetect import FaultEvent, FlightLog, SensorNoiseModel, default_config, fly_scenario

# Fault scenarios end shortly after the ejection: without the (out-of-scope)
# post-detection controller reconfiguration, the vehicle departs controlled
# flight roughly half a second after losing a propeller, and the in-flight
# model assumption behind the detector stops holding. 0.4 s is twice the
# acceptance ceiling on detection delay.
POST_FAULT_WINDOW = 0.4


def make_fault_log(
    seed=0,
    scenario="hover",
    actuator=3,
    fault_time=1.56,
    noise_scale=1.0,
    post_window=POST_FAULT_WINDOW,
):
    fault = FaultEvent(time=fault_time, actuator_index=actuator)
    noise = SensorNoiseModel(seed=seed).scaled(noise_scale)
    return fly_scenario(
        scenario=scenario,
        duration=fault_time + post_window,
        fault=fault,
        noise=noise,
    )


def build_corpus(n=26):
    """Ejection scenarios varying scenario type, actuator, fault time and noise."""
    logs = []
    for i in range(n):
        logs.append(
            make_fault_log(
                seed=200 + i,
                scenario=("hover", "step", "wind")[i % 3],
                actuator=(i % 4) + 1,
                fault_time=0.9 + 0.083 * i,
                noise_scale=(0.6, 1.0, 1.4, 1.8)[i % 4],
            )
        )
    return logs


@pytest.fixture(scope="session")
def ejection_corpus():
    """26 annotated ejection logs plus the wall time spent generating them."""
    t0 = time.monotonic()
    logs = build_corpus(26)
    return logs, time.monotonic() - t0


@pytest.fixture(scope="session")
def ejection_log():
    """One short hover ejection log (actuator 3 at t=1.56 s)."""
    return make_fault_log()


def make_takeoff_log(seed, duration=6.0):
    """Synthetic takeoff: rotors idle at 30% of hover speed for 1 s, ramp to 105% by 4 s, then hold.

    Each rotor speed carries +/-3% uniform noise. The takeoff gate's 1 s
    average of sum(w_i^2) climbs through half the hover level about 3 s in,
    so the detector arms mid-log, unlike every simulated scenario (which
    arms on its first sample, or never on the ground).
    """
    config = default_config()
    rng = np.random.default_rng(seed)
    dt = config.sensor_interval
    n = round(duration / dt)
    t = np.arange(1, n + 1) * dt
    w_hover = math.sqrt(config.hover_thrust_reference / 4.0)
    speeds = w_hover * np.interp(t, (1.0, 4.0), (0.3, 1.05))[:, None] * rng.uniform(0.97, 1.03, (n, 4))
    accel_z = -config.gains.g_az * np.square(speeds).sum(axis=1) + rng.normal(0.0, 0.08, n)
    gyro = rng.normal(0.0, 0.01, (n, 3))
    return FlightLog(sample_rate_hz=1.0 / dt, t=t, gyro=gyro, accel_z=accel_z, rotor_speeds=speeds)


@pytest.fixture(scope="session")
def takeoff_logs():
    """Five idle-to-hover ramps (seeds 1-5) whose thrust crosses the takeoff gate mid-log."""
    return [make_takeoff_log(seed) for seed in range(1, 6)]


@pytest.fixture(scope="session")
def ground_idle_logs():
    """Three 5 s ground-idle logs (seeds 1-3); none arms the takeoff gate."""
    return [fly_scenario("ground_idle", duration=5.0, noise=SensorNoiseModel(seed=seed)) for seed in (1, 2, 3)]
