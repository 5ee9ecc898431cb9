"""The benchmark's timed spans for `poly`, `pencil` and `picard` name real
functions.

perfbench's tracer wraps module-level functions of `ldp` by name, and a span
whose function was renamed or deleted reads 0 calls and 0 s without error.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_poly_and_pencil_spans_resolve_to_module_level_functions(monkeypatch):
    _load("tracer", monkeypatch)  # metrics imports LAYERS from it
    spans = _load("metrics", monkeypatch).TIMED_SPANS
    checked = [s for s in spans if s.split(".")[0] in ("poly", "pencil")]
    assert len(checked) == 6
    for span in checked:
        layer, name = span.split(".")
        module = importlib.import_module(f"ldp.{layer}")
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), span
        assert fn.__module__ == module.__name__, span


def test_picard_spans_resolve_to_module_level_functions(monkeypatch):
    _load("tracer", monkeypatch)
    spans = _load("metrics", monkeypatch).TIMED_SPANS
    checked = [s for s in spans if s.split(".")[0] == "picard"]
    assert sorted(checked) == ["picard.ceil_pullback", "picard.pullback_weil", "picard.round_up"]
    for span in checked:
        fn = getattr(importlib.import_module("ldp.picard"), span.split(".")[1], None)
        assert inspect.isfunction(fn), span
        assert fn.__module__ == "ldp.picard", span
