"""The benchmark's tracer patches package functions at their callers' module
attributes; a renamed or moved function must fail here, not only in a traced
benchmark run."""
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_every_patched_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
    missing = [
        (module, attr) for module, attr, _ in tracing.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.PATCHES and missing == []
