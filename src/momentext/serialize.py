"""JSON file forms for the toolkit's data types.

Rationals travel as "p/q" strings so files stay exact; floats (from the
approximate paths) are written as JSON numbers and read back as floats.
Dump functions emit deterministically ordered structures, so identical
inputs serialize byte-identically.  Load functions check the shape of what
they read and raise ValueError on anything malformed (a list where an
object belongs, a string where a list belongs, a non-integer exponent), so
bad input is reported as an input error instead of turning into data.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .extalg import AElement, Mode, a_normalize
from .fibres import FibreSpec, Preorder
from .functionals.core import (DiscreteMeasure, LinearFunctional,
                               SCALAR_EXACT, SCALAR_FLOAT)
from .polyalg import Poly, grlex_key
from .scalars import GaussianRational, as_fraction, format_fraction
from .semigroups import HermitianSequence, SgDomain


def scalar_to_json(value):
    if isinstance(value, (int, Fraction)):
        return format_fraction(Fraction(value))
    return float(value)


def scalar_from_json(value):
    if isinstance(value, float):
        return value
    return _rational(value)


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    return data


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, not {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _exponent(value) -> tuple[int, ...]:
    return tuple(_integer(e, "exponent entry") for e in _array(value, "exponent"))


def _rational(value) -> Fraction:
    if not isinstance(value, (int, str)) or isinstance(value, bool):
        raise ValueError(f"{value!r} is not an exact rational")
    try:
        return as_fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


# -- polynomials -------------------------------------------------------------


def poly_to_dict(p: Poly) -> dict:
    return {"nvars": p.nvars,
            "terms": [{"coeff": format_fraction(c), "exp": list(e)}
                      for e, c in p.sorted_terms()]}


def poly_from_dict(data: dict) -> Poly:
    data = _object(data, "polynomial")
    terms = {}
    for item in _array(data["terms"], "polynomial terms"):
        item = _object(item, "polynomial term")
        terms[_exponent(item["exp"])] = _rational(item["coeff"])
    return Poly(_integer(data["nvars"], "nvars"), terms)


# -- algebra elements --------------------------------------------------------


def aelement_to_dict(a: AElement) -> dict:
    return {"numerator": poly_to_dict(a.numerator),
            "pole_order": a.pole_order,
            "mode": a.mode.value}


def aelement_from_dict(data: dict) -> AElement:
    data = _object(data, "element")
    return a_normalize(poly_from_dict(data["numerator"]),
                       _integer(data["pole_order"], "pole_order"), Mode(data["mode"]))


# -- measures ----------------------------------------------------------------


def measure_to_dict(measure: DiscreteMeasure) -> dict:
    return {
        "dim": measure.dim,
        "atoms": [{"weight": scalar_to_json(w), "point": [scalar_to_json(c) for c in p]}
                  for w, p in measure.atoms],
        "origin_mass": scalar_to_json(measure.origin_mass),
        "sphere_atoms": [{"weight": scalar_to_json(w),
                          "point": [scalar_to_json(c) for c in p]}
                         for w, p in measure.sphere_atoms],
    }


def _weighted_points(items, what: str) -> tuple:
    out = []
    for item in _array(items, what):
        item = _object(item, what)
        out.append((scalar_from_json(item["weight"]),
                    tuple(scalar_from_json(c) for c in _array(item["point"], "point"))))
    return tuple(out)


def measure_from_dict(data: dict) -> DiscreteMeasure:
    data = _object(data, "measure")
    atoms = _weighted_points(data.get("atoms", []), "atoms")
    sphere = _weighted_points(data.get("sphere_atoms", []), "sphere_atoms")
    return DiscreteMeasure(_integer(data["dim"], "dim"), atoms,
                           scalar_from_json(data.get("origin_mass", 0)), sphere)


# -- functionals -------------------------------------------------------------


def functional_to_dict(L: LinearFunctional) -> dict:
    entries = []
    for (gamma, m), value in sorted(L.values.items(),
                                    key=lambda kv: (kv[0][1], grlex_key(kv[0][0]))):
        entries.append({"exp": list(gamma), "pole_order": m,
                        "value": scalar_to_json(value)})
    return {"nvars": L.nvars, "mode": L.mode.value, "scalar_kind": L.scalar_kind,
            "pole_max": L.pole_max, "degree_max": L.degree_max, "entries": entries}


def functional_from_dict(data: dict) -> LinearFunctional:
    data = _object(data, "functional")
    kind = data["scalar_kind"]
    if kind not in (SCALAR_EXACT, SCALAR_FLOAT):
        raise ValueError(f"unknown scalar kind {kind!r}")
    values = {}
    for item in _array(data["entries"], "entries"):
        item = _object(item, "entry")
        value = scalar_from_json(item["value"])
        if kind == SCALAR_FLOAT:
            value = float(value)
        elif isinstance(value, float):
            raise ValueError("exact functional file contains a float value")
        values[(_exponent(item["exp"]), _integer(item["pole_order"], "pole_order"))] = value
    return LinearFunctional(_integer(data["nvars"], "nvars"), Mode(data["mode"]), kind,
                            values,
                            pole_max=_integer(data.get("pole_max", 0), "pole_max"),
                            degree_max=_integer(data.get("degree_max", 0), "degree_max"))


def moments_from_dict(data: dict) -> list:
    """The moment list of a univariate input {"moments": [...]}."""
    data = _object(data, "univariate moment file")
    return [scalar_from_json(v) for v in _array(data["moments"], "moments")]


# -- fibre inputs ------------------------------------------------------------


def preorder_to_dict(preorder: Preorder) -> dict:
    return {"dim": preorder.dim,
            "generators": [poly_to_dict(g) for g in preorder.generators]}


def preorder_from_dict(data: dict) -> Preorder:
    data = _object(data, "preorder")
    return Preorder(_integer(data["dim"], "dim"),
                    tuple(poly_from_dict(g) for g in _array(data["generators"], "generators")))


def fibre_spec_to_dict(spec: FibreSpec) -> dict:
    return {"bounded": [poly_to_dict(h) for h in spec.bounded],
            "value": [format_fraction(v) for v in spec.value]}


def fibre_spec_from_dict(data: dict) -> FibreSpec:
    data = _object(data, "fibre spec")
    return FibreSpec(tuple(poly_from_dict(h) for h in _array(data["bounded"], "bounded")),
                     tuple(_rational(v) for v in _array(data["value"], "value")))


def samples_to_dict(dim: int, points: list) -> dict:
    return {"dim": dim,
            "points": [[scalar_to_json(as_fraction(c)) for c in p] for p in points]}


def samples_from_dict(data: dict) -> list[list[Fraction]]:
    data = _object(data, "samples")
    dim = _integer(data["dim"], "dim")
    points = []
    for p in _array(data["points"], "points"):
        if len(_array(p, "sample")) != dim:
            raise ValueError(f"sample {p} does not have dimension {dim}")
        points.append([_rational(c) for c in p])
    return points


# -- semigroup sequences -----------------------------------------------------


def sequence_to_dict(seq: HermitianSequence) -> dict:
    entries = []
    for (m, n) in sorted(seq.entries):
        value = seq.entries[(m, n)]
        if isinstance(value, GaussianRational):
            entries.append({"m": m, "n": n,
                            "re": format_fraction(value.re),
                            "im": format_fraction(value.im)})
        else:
            value = complex(value)
            entries.append({"m": m, "n": n, "re": value.real, "im": value.imag})
    return {"domain": seq.domain.value, "entries": entries}


def sequence_from_dict(data: dict) -> HermitianSequence:
    data = _object(data, "sequence")
    domain = SgDomain(data["domain"])
    entries: dict[tuple[int, int], Any] = {}
    for item in _array(data["entries"], "entries"):
        item = _object(item, "entry")
        re = scalar_from_json(item["re"])
        im = scalar_from_json(item.get("im", 0))
        if isinstance(re, float) or isinstance(im, float):
            value: Any = complex(float(re), float(im))
        else:
            value = GaussianRational(re, im)
        entries[(_integer(item["m"], "m"), _integer(item["n"], "n"))] = value
    return HermitianSequence(domain, entries)


# -- files -------------------------------------------------------------------


def dump_json(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
