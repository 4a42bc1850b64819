"""The benchmark's span tracer wraps momentext functions by name.

``perfbench/spans.py`` replaces each (module, attribute) in ``TARGETS`` and
each (module, class, method) in ``METHODS`` at run time; a rename in the
package would break traced benchmark runs without this check.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS and spans.METHODS
    for module_name, attribute in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attribute, None)), \
            f"{module_name}.{attribute}"
    for module_name, class_name, method in spans.METHODS:
        cls = getattr(importlib.import_module(module_name), class_name, None)
        assert callable(getattr(cls, method, None)), f"{module_name}.{class_name}.{method}"
