"""Golden digests: every output's bytes, pinned.

The other tests compare the detector's paths with each other, and the
ACCEPTANCE lines check windows, so a bit change in a kernel every path
shares passes them all. Each entry of ``GOLDEN`` is the first 16 hex digits
of the sha256 of one output. A change that moves bits on purpose pastes the
fresh table the failure prints, and names each moved digest and the reason
in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import platform
from pathlib import Path

import numpy as np

from loedetect.detector import Detector, default_config
from loedetect.replay import (
    default_sweep_spec,
    replay_log,
    run_sweep,
    summarize_sweep,
    write_results_csv,
    write_summary_csv,
)

GOLDEN = {
    "stream": "5ae6acb8364d8400",  # process_sample's outputs, streamed over the short ejection log
    "ticks_csv": "5cb27147ab1ff0ea",  # replay_log's ticks CSV of the short ejection log
    "sweep_results": "f4e6e278f8f60202",  # results.csv of the default sweep over the ACCEPTANCE corpus
    "sweep_summary": "3791898264cdf365",  # summary.csv of the default sweep over the ACCEPTANCE corpus
    "simulator": "8694237180583e5a",  # the simulator's arrays and annotations of the ACCEPTANCE corpus
}


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _stream_digest(log) -> str:
    detector = Detector(default_config())
    rows = []
    for out in map(detector.process_sample, log.samples()):
        latched = [np.nan if t is None else t for t in out.status.first_detection_time]
        rows.append([out.timestamp, *out.k_hat, *out.variances, *out.p_fail, out.armed, *latched])
    return _digest(_floats(rows))


def _simulator_digest(logs) -> str:
    chunks = []
    for log in logs:
        header = (log.sample_rate_hz, log.vehicle, log.fault_actuator, log.fault_time_s)
        chunks += [repr(header).encode(), *map(_floats, (log.t, log.gyro, log.accel_z, log.rotor_speeds))]
    return _digest(*chunks)


def _fresh_table(digests: dict) -> str:
    """``GOLDEN`` as this file writes it, each digest replaced by the fresh one."""
    lines = ["GOLDEN = {"]
    for line in Path(__file__).read_text(encoding="utf-8").splitlines():
        for name, digest in digests.items():
            if line.startswith(f'    "{name}": '):
                lines.append(line.replace(GOLDEN[name], digest))
    return "\n".join(lines + ["}"])


def test_every_output_matches_its_golden_digest(tmp_path, ejection_log, ejection_corpus):
    logs, _ = ejection_corpus
    config = default_config()
    replay_log(ejection_log, config, tmp_path / "ticks.csv")
    spec = default_sweep_spec()
    rows = run_sweep(logs, spec, log_ids=[f"log_{i:02d}" for i in range(len(logs))])
    write_results_csv(rows, tmp_path / "results.csv")
    write_summary_csv(summarize_sweep(rows, spec), tmp_path / "summary.csv")
    digests = {
        "stream": _stream_digest(ejection_log),
        "ticks_csv": _digest((tmp_path / "ticks.csv").read_bytes()),
        "sweep_results": _digest((tmp_path / "results.csv").read_bytes()),
        "sweep_summary": _digest((tmp_path / "summary.csv").read_bytes()),
        "simulator": _simulator_digest(logs),
    }
    moved = [name for name in GOLDEN if digests[name] != GOLDEN[name]]
    assert not moved, (
        f"golden digests moved: {', '.join(moved)}\n"
        f"Python {platform.python_version()}, numpy {np.__version__}: a different toolchain may round "
        "differently; on the same toolchain, a code change moved these bits.\n"
        f"If the change is meant, paste this table into tests/test_golden.py:\n{_fresh_table(digests)}"
    )
