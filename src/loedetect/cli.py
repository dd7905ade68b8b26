"""Command-line entry point: simulate, detect, sweep, report.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from collections import deque

from .detector import (
    Detector,
    DetectorConfig,
    default_config,
    format_config,
    read_config,
)
from . import flightlog
from .replay import (
    SampleRateMismatchError,
    SweepSpec,
    _check_sample_rate,
    default_sweep_spec,
    evaluate,  # unused: perfbench/spans.py wraps cli.evaluate and cli.run_detector by name
    evaluate_status,
    render_report,
    read_results_csv,
    run_detector,
    run_sweep,
    summarize_sweep,
    write_results_csv,
    write_summary_csv,
)
from .simulator import FaultEvent, SCENARIOS, SensorNoiseModel, fly_scenario

USAGE_ERROR = 2
RUNTIME_ERROR = 1


class CommandError(Exception):
    def __init__(self, message: str, code: int = RUNTIME_ERROR):
        super().__init__(message)
        self.code = code


def _parse_fault(text: str) -> FaultEvent:
    actuator, _, when = text.partition(":")
    try:
        event = FaultEvent(time=float(when), actuator_index=int(actuator))
    except (ValueError, TypeError) as exc:
        raise CommandError(
            f"invalid --fault {text!r}: expected ACTUATOR:TIME with actuator 1..4 ({exc})",
            USAGE_ERROR,
        ) from exc
    return event


def _load_config(path: str | None) -> DetectorConfig:
    if path is None:
        return default_config()
    if not os.path.exists(path):
        raise CommandError(f"config file not found: {path}", USAGE_ERROR)
    try:
        return read_config(path)
    except ValueError as exc:
        raise CommandError(f"bad config file {path}: {exc}", USAGE_ERROR) from exc


def _load_sweep_spec(path: str | None, base: DetectorConfig) -> SweepSpec:
    """The spec at ``path`` (the default sweep if ``None``), its parameter sets built.

    Building the sets checks every parameter name and value, so every fault in a spec exits 2 here.
    """
    if path is not None and not os.path.exists(path):
        raise CommandError(f"sweep spec file not found: {path}", USAGE_ERROR)
    try:
        if path is None:
            spec = default_sweep_spec(base)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            parameters = payload.get("parameters") if isinstance(payload, dict) else None
            if not isinstance(parameters, dict) or not all(isinstance(v, list) for v in parameters.values()):
                raise ValueError('expected {"parameters": {"<config key>": [<value>, ...], ...}}')
            variations = tuple(
                (name, tuple(float(v) for v in values)) for name, values in parameters.items()
            )
            spec = SweepSpec(base=base, variations=variations)
        spec.parameter_sets()
        return spec
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        reason = exc.args[0] if isinstance(exc, KeyError) else exc
        raise CommandError(f"bad sweep spec {path or '(default)'}: {reason}", USAGE_ERROR) from exc


def cmd_simulate(args) -> int:
    fault = _parse_fault(args.fault) if args.fault else None
    try:
        noise = SensorNoiseModel(seed=args.seed).scaled(args.noise_scale)
        log = fly_scenario(
            scenario=args.scenario,
            duration=args.duration,
            fault=fault,
            noise=noise,
        )
    except ValueError as exc:
        raise CommandError(str(exc), USAGE_ERROR) from exc
    flightlog.save_log(log, args.out)
    print(f"wrote {args.out}: {len(log)} samples at {log.sample_rate_hz:g} Hz")
    if fault is not None:
        print(f"ground truth: actuator {fault.actuator_index} fails at t={fault.time:g} s")
    else:
        print("ground truth: no fault")
    return 0


TICKS_HEADER = ",".join(
    ["t"]
    + [f"k{i}" for i in range(1, 5)]
    + [f"var{i}" for i in range(1, 5)]
    + [f"pfail{i}" for i in range(1, 5)]
    + ["armed"]
    + [f"failed{i}" for i in range(1, 5)]
)

# Rows the ticks writer joins into one ``write``.
TICKS_BLOCK_ROWS = 256


def _write_outputs_csv(outputs, path) -> int:
    """Write one ticks-CSV row per output as it arrives; return the row count."""
    n_rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TICKS_HEADER + "\n")
        # Every field after the timestamp changes only with the estimate
        # tuples, which the detector replaces together with the status on
        # armed estimator ticks, or with ``armed``: format that text once per change.
        k_hat = armed = None
        block: list[str] = []
        for out in outputs:
            if out.k_hat is not k_hat or out.armed is not armed:
                k_hat, armed = out.k_hat, out.armed
                estimates = k_hat + out.variances + out.p_fail
                flags = ["0" if t is None else "1" for t in out.status.first_detection_time]
                rest = f",{','.join(map(repr, estimates))},{int(armed)},{','.join(flags)}\n"
            block.append(repr(out.timestamp) + rest)
            if len(block) == TICKS_BLOCK_ROWS:
                fh.write("".join(block))
                n_rows += len(block)
                block.clear()
        fh.write("".join(block))
    return n_rows + len(block)


def cmd_detect(args) -> int:
    if not os.path.exists(args.log):
        raise CommandError(f"log file not found: {args.log}", USAGE_ERROR)
    config = _load_config(args.config)
    try:
        log = flightlog.load_log(args.log)
    except flightlog.LogFormatError as exc:
        raise CommandError(f"bad log {args.log}: {exc}", USAGE_ERROR) from exc
    _check_sample_rate(log, config)
    detector = Detector(config)
    outputs = map(detector.process_sample, log.samples())
    if args.out:
        n_rows = _write_outputs_csv(outputs, args.out)
        print(f"wrote {args.out}: {n_rows} detector outputs")
    else:
        deque(outputs, maxlen=0)

    result = evaluate_status(detector.status, float(log.t[0]), float(log.t[-1]), log.ground_truth())
    for i, t in enumerate(detector.status.first_detection_time):
        if t is not None:
            print(f"actuator {i + 1} latched at t={t:g} s")
    if log.ground_truth() is not None:
        delay = "none" if result.detection_delay is None else f"{result.detection_delay:.4f}"
        print(
            f"delay_s={delay} false_alarms={result.false_alarm_count} "
            f"missed={str(result.missed_detection).lower()}"
        )
    else:
        print(f"false_alarms={result.false_alarm_count}")
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise CommandError(f"--jobs must be >= 1, got {args.jobs}", USAGE_ERROR)
    paths = sorted(glob.glob(args.logs))
    if not paths:
        raise CommandError(f"no logs match {args.logs!r}", USAGE_ERROR)
    base = _load_config(args.config)
    spec = _load_sweep_spec(args.spec, base)

    logs = []
    log_ids = []
    for path in paths:
        try:
            logs.append(flightlog.load_log(path))
        except flightlog.LogFormatError as exc:
            raise CommandError(f"bad log {path}: {exc}", USAGE_ERROR) from exc
        log_ids.append(os.path.splitext(os.path.basename(path))[0])

    rows = run_sweep(logs, spec, log_ids=log_ids, jobs=args.jobs)
    os.makedirs(args.out_dir, exist_ok=True)
    results_path = os.path.join(args.out_dir, "results.csv")
    summary_path = os.path.join(args.out_dir, "summary.csv")
    write_results_csv(rows, results_path)
    write_summary_csv(summarize_sweep(rows, spec), summary_path)
    print(
        f"swept {len(spec.parameter_sets())} parameter sets x {len(logs)} logs = {len(rows)} runs"
    )
    print(f"wrote {results_path} and {summary_path}")
    return 0


def cmd_report(args) -> int:
    if not os.path.exists(args.results):
        raise CommandError(f"results file not found: {args.results}", USAGE_ERROR)
    try:
        rows = read_results_csv(args.results)
    except ValueError as exc:
        raise CommandError(f"bad results file {args.results}: {exc}", USAGE_ERROR) from exc
    base = _load_config(args.config)
    spec = _load_sweep_spec(args.spec, base)
    known = {p.set_id for p in spec.parameter_sets()}
    missing = {r.param_set_id for r in rows} - known
    if missing:
        raise CommandError(
            f"results reference parameter sets absent from the spec: {sorted(missing)}",
            USAGE_ERROR,
        )
    text = render_report(rows, spec)
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loedetect",
        description="Quadrotor actuator loss-of-effectiveness detection toolkit",
    )
    parser.add_argument(
        "--print-default-config",
        action="store_true",
        help="print the default detector configuration and exit",
    )
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="generate a flight log with an optional failure")
    sim.add_argument("--scenario", choices=SCENARIOS, default="hover")
    sim.add_argument("--duration", type=float, default=10.0, help="flight length, s")
    sim.add_argument("--fault", help="ACTUATOR:TIME, e.g. 3:1.56")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--noise-scale", type=float, default=1.0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    det = sub.add_parser("detect", help="replay a log through the detector")
    det.add_argument("--log", required=True)
    det.add_argument("--config", help="detector config file (defaults otherwise)")
    det.add_argument("--out", help="detector output CSV, one row per input sample")
    det.set_defaults(func=cmd_detect)

    swp = sub.add_parser("sweep", help="one-at-a-time parameter sweep over logs")
    swp.add_argument("--logs", required=True, help="glob of flight log CSVs")
    swp.add_argument("--spec", help="JSON sweep spec (default: the 19-set sweep)")
    swp.add_argument("--config", help="base detector config file")
    swp.add_argument("--out-dir", required=True)
    swp.add_argument("--jobs", type=int, default=1, help="worker processes, >= 1; at most one per log")
    swp.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("report", help="render box-plot tables from sweep results")
    rep.add_argument("--results", required=True)
    rep.add_argument("--spec", help="JSON sweep spec the results were produced with")
    rep.add_argument("--config", help="base detector config file")
    rep.add_argument("--out", help="also write the rendered report here")
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_default_config:
        print(format_config(default_config()), end="")
        return 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SampleRateMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
