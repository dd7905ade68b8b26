"""Quadrotor actuator loss-of-effectiveness detection toolkit.

Estimates a per-actuator effectiveness factor from RPM, gyro and
accelerometer streams with a recursive linear estimator, turns the estimates
into per-actuator failure probabilities, and latches fault decisions. Ships
with a fault-injection flight simulator and an offline replay harness for
measuring detection delay, false alarms and parameter sensitivity.
"""

from .decision import DecisionConfig, DetectionStatus, decide, failure_probabilities, failure_probability
from .detector import (
    Detector,
    DetectorConfig,
    DetectorOutput,
    RuntimeReport,
    config_from_dict,
    config_to_dict,
    config_with,
    default_config,
    read_config,
    step_runtime_budget,
    write_config,
)
from .effectiveness import (
    SIGN_MATRIX,
    EffectivenessGains,
    VehicleParams,
    gains_from_geometry,
    observation_matrix,
)
from .filters import (
    FilterCoefficients,
    FilterDesign,
    FilterState,
    RawSample,
    design_lowpass,
    differentiate,
    filter_step,
)
from .flightlog import FlightLog, LogFormatError, load_log, save_log
from .kalman import EstimatorState, NoiseConfig
from .replay import (
    BoxStats,
    EvaluationResult,
    SweepResultRow,
    SweepSpec,
    box_stats,
    default_sweep_spec,
    evaluate,
    evaluate_log,
    render_report,
    run_detector,
    run_sweep,
    summarize_sweep,
)
from .simulator import (
    DivergenceError,
    FaultEvent,
    SensorNoiseModel,
    SimState,
    dynamics_step,
    fly_scenario,
    hover_state,
    inject_fault,
    synthesize_sensors,
)

__version__ = "0.1.0"
