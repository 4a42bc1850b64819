"""The benchmark's span tracer and output checks lean on momentext.

``perfbench/spans.py`` replaces each (module, attribute) in ``TARGETS`` and
each (module, class, method) in ``METHODS`` at run time; a rename in the
package would break traced benchmark runs without this check.
``perfbench/jobs.py`` checks every ``extend`` report against its own moment
table, so the two computations must agree on the benchmark's windows.
"""

from __future__ import annotations

import importlib
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from momentext.extalg import Mode, truncated_basis
from momentext.functionals.core import DiscreteMeasure, moments_of_measure

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(monkeypatch):
    spans = load_perfbench(monkeypatch, "spans")
    assert spans.TARGETS and spans.METHODS
    for module_name, attribute in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attribute, None)), \
            f"{module_name}.{attribute}"
    for module_name, class_name, method in spans.METHODS:
        cls = getattr(importlib.import_module(module_name), class_name, None)
        assert callable(getattr(cls, method, None)), f"{module_name}.{class_name}.{method}"


def test_bench_moment_table_matches_moments_of_measure(monkeypatch):
    jobs = load_perfbench(monkeypatch, "jobs")
    rng = random.Random(5)
    for w in jobs.EXACT["dense"] + jobs.EXACT["wide"]:
        atoms = jobs.rand_atoms(rng, w.dim, w.atoms, w.max_den)
        origin = Fraction(0) if w.laurent else Fraction(1, 3)
        mode = Mode.LAURENT if w.laurent else Mode.APLUS
        L = moments_of_measure(DiscreteMeasure(w.dim, tuple(atoms), origin),
                               truncated_basis(w.pole, w.degree, w.dim, mode))
        assert L.values == jobs.moment_table(atoms, origin, w), w
