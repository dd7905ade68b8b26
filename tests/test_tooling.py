"""The benchmark's span tracer wraps package attributes by name; a rename must fail here."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for owner, attr, name in spans.TARGETS if not callable(getattr(owner, attr, None))]
    assert missing == []
