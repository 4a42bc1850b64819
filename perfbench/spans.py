"""Spans recorded from outside the program, around calls into each layer.

``Tracer.install`` replaces each target function at every name a momentext
module binds it under (``momentext.cli.gram_matrix``,
``momentext.semigroups.psd_check_exact``, ...) and the two certificate
methods on their classes.  Per-element methods (``Poly.__mul__``,
``a_mul``, ``Fraction`` operations) are left alone: a span per call would
cost more than the work it times, so their time stays in the caller's
span.  Spans live in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    job: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _psd_attrs(span: Span, args, verdict) -> None:
    """PSD: rank and pivot denominator size.  NotPSD: renamed to the
    witness path, with the witness support (the pivots taken before the
    witness, plus its one or two Schur-complement coordinates)."""
    if verdict.is_psd:
        span.attrs["rank"] = sum(1 for d in verdict.diagonal if d)
        span.attrs["max_den_bits"] = max((d.denominator.bit_length()
                                          for d in verdict.diagonal), default=0)
    else:
        span.name = "psd.notpsd"
        span.attrs["pivots"] = sum(1 for w in verdict.witness if w)


def _gram_attrs(span: Span, args, result) -> None:
    span.attrs["gram_entries"] = len(result) * (len(result) + 1) // 2


def _load_attrs(span: Span, args, result) -> None:
    span.attrs["bytes_in"] = Path(args[0]).stat().st_size


def _feasibility_attrs(span: Span, args, result) -> None:
    span.attrs["iterations"] = result.iterations
    span.attrs["feasible"] = result.feasible


def _partition_attrs(span: Span, args, result) -> None:
    span.attrs["samples"] = len(args[2])
    span.attrs["audit_pairs"] = sum(len(m) for m in result.buckets.values()) \
        * (len(result.buckets) - 1)


# (module, attribute) -> (span name, hook reading counts off the result)
TARGETS = {
    ("momentext.serialize", "load_json"): ("serialize.load", _load_attrs),
    ("momentext.serialize", "functional_from_dict"): ("serialize.decode", None),
    ("momentext.serialize", "measure_from_dict"): ("serialize.decode", None),
    ("momentext.serialize", "sequence_from_dict"): ("serialize.decode", None),
    ("momentext.serialize", "preorder_from_dict"): ("serialize.decode", None),
    ("momentext.serialize", "fibre_spec_from_dict"): ("serialize.decode", None),
    ("momentext.serialize", "samples_from_dict"): ("serialize.decode", None),
    ("momentext.serialize", "functional_to_dict"): ("serialize.encode", None),
    ("momentext.serialize", "measure_to_dict"): ("serialize.encode", None),
    ("momentext.extalg", "truncated_basis"):
        ("extalg.truncated_basis", lambda s, a, r: s.attrs.update(basis_size=len(r))),
    ("momentext.functionals.core", "moments_of_measure"):
        ("core.moments_of_measure", lambda s, a, r: s.attrs.update(keys=len(r.values))),
    ("momentext.functionals.core", "extend_from_measure"): ("core.extend_from_measure", None),
    ("momentext.functionals.core", "gram_matrix"): ("core.gram_matrix", _gram_attrs),
    ("momentext.functionals.psd", "psd_check_exact"): ("psd.psd_check_exact", _psd_attrs),
    ("momentext.functionals.feasibility", "extension_feasibility"):
        ("feasibility.extension_feasibility", _feasibility_attrs),
    ("momentext.functionals.recovery", "recover_atoms"):
        ("recovery.recover_atoms", lambda s, a, r: s.attrs.update(rank=len(r.atoms))),
    ("momentext.functionals.recovery", "polynomial_moment_residual"):
        ("recovery.polynomial_moment_residual", None),
    ("momentext.semigroups", "nplus_extension_check"):
        ("semigroups.nplus_extension_check", None),
    ("momentext.semigroups", "bisgaard_check"): ("semigroups.bisgaard_check", None),
    ("momentext.semigroups", "laurent_relations_check"):
        ("semigroups.laurent_relations_check", None),
    ("momentext.semigroups", "sequence_from_measure"):
        ("semigroups.sequence_from_measure", None),
    ("momentext.semigroups", "sg_to_functions"): ("semigroups.sg_to_functions", None),
    ("momentext.fibres", "fibre_partition_check"):
        ("fibres.fibre_partition_check", _partition_attrs),
}

METHODS = {
    ("momentext.functionals.core", "LinearFunctional", "validate"): "core.validate",
    ("momentext.functionals.psd", "PsdVerdict", "verify"): "psd.verify",
}


class Tracer:
    """Span recorder; spans are kept only while a job is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- job roots -------------------------------------------------------------

    def begin(self, name: str, job_id: str) -> None:
        self._job = job_id
        self._open(name)

    def end(self) -> None:
        self._close()
        self._job = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span.attrs["raised"] = type(err).__name__
                raise
            finally:
                self._close()
            if hook is not None:
                hook(span, args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every binding of every target in the loaded momentext modules."""
        wrappers = {}
        for (module, attr), (name, hook) in TARGETS.items():
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name, hook))
        for modname, module in list(sys.modules.items()):
            if modname != "momentext" and not modname.startswith("momentext."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        for (module, cls, attr), name in METHODS.items():
            owner = getattr(sys.modules[module], cls)
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, None))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """job id -> span name -> summed self time (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            per_job = out.setdefault(span.job, {})
            per_job[span.name] = per_job.get(span.name, 0.0) \
                + (span.end - span.start) - child_time[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": span.name, "job": span.job,
                                         "parent": span.parent, "start": span.start,
                                         "end": span.end, **span.attrs}) + "\n")
