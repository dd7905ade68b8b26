"""Span tracing from outside the package, for the per-layer metrics.

Wrappers go on the attribute each caller looks up (``loedetect.detector``
imports ``filter_step`` by name, so the wrapper goes there, while it calls
``kalman.step`` through the module). Spans are kept in memory as flat arrays
with parent links and written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

import loedetect
from loedetect import cli, detector, effectiveness, flightlog, kalman, replay, simulator
from loedetect.detector import CONFIG_KEYS, Detector, config_to_dict
from loedetect.flightlog import FlightLog

perf = time.perf_counter

# (owner, attribute, span name). One span name may sit on several attributes
# when callers look the same function up in different modules.
TARGETS = (
    (detector, "filter_step", "filters.filter_step"),
    (detector, "differentiate", "filters.differentiate"),
    (effectiveness, "observation_matrix", "effectiveness.observation_matrix"),
    (loedetect, "observation_matrix", "effectiveness.observation_matrix"),
    (kalman, "step", "kalman.step"),
    (detector, "failure_probabilities", "decision.failure_probabilities"),
    (detector, "decide", "decision.decide"),
    (Detector, "process_sample", "detector.process_sample"),
    (Detector, "__init__", "detector.Detector"),
    (replay, "run_detector", "replay.run_detector"),
    (cli, "run_detector", "replay.run_detector"),
    (replay, "evaluate", "replay.evaluate"),
    (cli, "evaluate", "replay.evaluate"),
    (cli, "run_sweep", "replay.run_sweep"),
    (cli, "summarize_sweep", "replay.summarize_sweep"),
    (cli, "write_results_csv", "replay.write_results_csv"),
    (flightlog, "load_log", "flightlog.load_log"),
    (flightlog, "save_log", "flightlog.save_log"),
    (FlightLog, "validate", "flightlog.FlightLog.validate"),
    (simulator, "fly_scenario", "simulator.fly_scenario"),
    (simulator, "dynamics_step", "simulator.dynamics_step"),
    (simulator, "synthesize_sensors", "simulator.synthesize_sensors"),
    (cli, "main", "cli.main"),
)

# Config keys that reach the estimator; the rest only move decision thresholds.
ESTIMATOR_KEYS = tuple(k for k in CONFIG_KEYS if k not in ("k_threshold", "probability_threshold"))


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counters = {
            "decision.latches": 0,
            "flightlog.bytes_read": 0,
            "flightlog.bytes_written": 0,
            "flightlog.load_log.rows": 0,
            "flightlog.save_log.rows": 0,
        }
        # Per run_sweep call: logs swept, Detector constructions, distinct
        # estimator configurations among them.
        self.sweeps: list[dict] = []

    def _wrap(self, fn, name: str, on_return=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    # Counters taken where the work happens.
    def _count_decide(self, args, kwargs, result):
        before = args[1]
        self.counters["decision.latches"] += sum(result.failed) - sum(before.failed)

    def _count_load(self, args, kwargs, result):
        self.counters["flightlog.bytes_read"] += os.path.getsize(args[0])
        self.counters["flightlog.load_log.rows"] += len(result)

    def _count_save(self, args, kwargs, result):
        self.counters["flightlog.bytes_written"] += os.path.getsize(args[1])
        self.counters["flightlog.save_log.rows"] += len(args[0])

    def _count_detector(self, args, kwargs, result):
        if self.sweeps and self.sweeps[-1]["open"]:
            values = config_to_dict(args[1])
            sweep = self.sweeps[-1]
            sweep["constructions"] += 1
            sweep["keys"].add(tuple(values[k] for k in ESTIMATOR_KEYS))

    def _sweep_wrapper(self, fn):
        traced = self._wrap(fn, "replay.run_sweep")

        @functools.wraps(fn)
        def wrapper(logs, *args, **kwargs):
            self.sweeps.append({"open": True, "logs": len(logs), "constructions": 0, "keys": set()})
            try:
                return traced(logs, *args, **kwargs)
            finally:
                self.sweeps[-1]["open"] = False

        return wrapper

    def install(self) -> None:
        hooks = {
            "decision.decide": self._count_decide,
            "flightlog.load_log": self._count_load,
            "flightlog.save_log": self._count_save,
            "detector.Detector": self._count_detector,
        }
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            if name == "replay.run_sweep":
                wrapped = self._sweep_wrapper(original)
            else:
                wrapped = self._wrap(original, name, hooks.get(name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back and check that nothing wrapped is left."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._saved if o.__dict__[a] is not orig]
        self._saved.clear()
        if leftover:
            raise RuntimeError(f"trace wrappers still installed on {leftover}")

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def root_seconds(self) -> float:
        """Wall time covered by spans that have no parent span."""
        a = self.arrays()
        roots = a["parent"] < 0
        return float((a["end"][roots] - a["start"][roots]).sum())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans, as name -> (value, unit)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child

        def pick(name):
            if name not in self._name_ids:
                return dur[:0], self_time[:0]
            mask = a["name_id"] == self._name_ids[name]
            return dur[mask], self_time[mask]

        def median_us(x):
            return float(np.median(x)) * 1e6 if len(x) else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in (
            "filters.filter_step",
            "filters.differentiate",
            "effectiveness.observation_matrix",
            "kalman.step",
            "decision.failure_probabilities",
            "decision.decide",
            "detector.process_sample",
            "detector.Detector",
            "replay.run_detector",
            "replay.evaluate",
            "flightlog.load_log",
            "flightlog.save_log",
            "flightlog.FlightLog.validate",
            "simulator.fly_scenario",
            "simulator.dynamics_step",
            "simulator.synthesize_sensors",
            "cli.main",
        ):
            out[f"{name}.calls"] = (len(pick(name)[0]), "count")
        for name in (
            "filters.filter_step",
            "filters.differentiate",
            "kalman.step",
            "decision.failure_probabilities",
            "decision.decide",
            "detector.Detector",
            "simulator.dynamics_step",
            "simulator.synthesize_sensors",
        ):
            out[f"{name}.us_p50"] = (median_us(pick(name)[0]), "us")
        for name in (
            "filters.filter_step",
            "kalman.step",
            "replay.run_detector",
            "replay.evaluate",
            "replay.run_sweep",
            "replay.summarize_sweep",
            "replay.write_results_csv",
            "flightlog.FlightLog.validate",
            "simulator.fly_scenario",
            "cli.main",
        ):
            out[f"{name}.self_s"] = (float(pick(name)[1].sum()), "s")

        sample_dur, sample_self = pick("detector.process_sample")
        out["detector.process_sample.self_us_p50"] = (median_us(sample_self), "us")
        out["detector.process_sample.us_p99"] = (
            float(np.quantile(sample_dur, 0.99)) * 1e6 if len(sample_dur) else 0.0,
            "us",
        )
        ticks = len(pick("filters.differentiate")[0])
        out["detector.armed_tick_ratio"] = (len(pick("kalman.step")[0]) / ticks if ticks else 0.0, "ratio")
        out["decision.latches"] = (self.counters["decision.latches"], "count")

        constructions = sum(s["constructions"] for s in self.sweeps)
        useful = sum(len(s["keys"]) * s["logs"] for s in self.sweeps)
        out["replay.sweep_useful_run_ratio"] = (useful / constructions if constructions else 0.0, "ratio")

        for name in ("load_log", "save_log"):
            rows = self.counters[f"flightlog.{name}.rows"]
            total = float(pick(f"flightlog.{name}")[0].sum())
            out[f"flightlog.{name}.us_per_row"] = (total / rows * 1e6 if rows else 0.0, "us/row")
        out["flightlog.bytes_read"] = (self.counters["flightlog.bytes_read"], "B")
        out["flightlog.bytes_written"] = (self.counters["flightlog.bytes_written"], "B")
        return out
