"""The benchmark's per-layer trace wraps library functions by name; each must exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    # loaded from its file, so sys.path stays as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_names_a_library_function():
    spans = _load_tracing().SPANS
    assert spans
    missing = [
        span
        for span, home, attr in spans
        if not callable(getattr(importlib.import_module(f"graphent.{home}"), attr, None))
    ]
    assert missing == []
