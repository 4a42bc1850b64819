"""JSON forms for the toolkit's data types, CLI reports and PSD certificates.

Rationals travel as "p/q" strings so files stay exact; floats (from the
approximate paths) are written as JSON numbers and read back as finite
floats.  Sequence and univariate moment files hold rationals only.
Dump functions (``verdict_to_dict`` for certificates) emit deterministically
ordered structures, and every file and report is written as ``json_text``,
so identical inputs serialize byte-identically.

``json_text(x)`` is ``json.dumps(x, indent=2, sort_keys=True) + "\n"``.
Plain values, which are all the reports hold (dicts with str keys, lists,
tuples, and values of type str, int, float, bool or None), are written
directly: on Python 3.10 and 3.11 json's C encoder runs only without
``indent``.  Everything else, a cycle included, goes to ``json.dumps``.  A
list of records on one key set is written a column at a time: a column of
one leaf type, or of nonempty lists of one leaf type, is formatted with
one ``map`` and ``str.join``, any other column value by value.

Load functions read every exact rational with one parser, ``_rational``,
check the shape of what they read and raise ValueError on anything
malformed (a list where an object belongs, a string where a list belongs,
a non-integer exponent, a key listed twice), so bad input is reported as
an input error instead of turning into data.  An exact functional's
entries are read a column at a time when every field has its canonical
JSON type; otherwise, and to name a fault, entry by entry and field by
field.  The error text and the order in which faults are found are the
same either way.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import neg
from pathlib import Path
from typing import TYPE_CHECKING

from .extalg import AElement, Mode, a_normalize
from .functionals.core import (DiscreteMeasure, LinearFunctional,
                               SCALAR_EXACT, SCALAR_FLOAT)
from .polyalg import Poly
from .scalars import GaussianRational, as_fraction, format_fraction, is_exact_scalar

if TYPE_CHECKING:  # the fibre, semigroup and PSD layers load where they are used
    from .fibres import FibreSpec, Preorder
    from .functionals.psd import FloatPsdVerdict, PsdVerdict
    from .semigroups import HermitianSequence


def scalar_to_json(value):
    if type(value) is Fraction or is_exact_scalar(value):  # the common type without a call
        return format_fraction(value)
    return float(value)


def scalar_from_json(value):
    if isinstance(value, float):
        return _finite(value)
    return _rational(value)


def _finite(value) -> float:
    """``value`` as a float; NaN, infinities and overflow are input errors."""
    try:
        number = float(value)
    except OverflowError:
        raise ValueError("value is too large for a float") from None
    if not abs(number) < float("inf"):  # false for NaN as well
        raise ValueError(f"{number} is not a finite number")
    return number


class _Record(dict):
    """A JSON object whose missing fields are input errors naming the field."""

    __slots__ = ("what",)

    def __missing__(self, key):
        raise ValueError(f"{self.what} has no {key!r} field")


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    record = _Record(data)
    record.what = what
    return record


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


def _refuse_repeats(items: list, count: int, key, what: str) -> None:
    """Raise ValueError at the first repeated ``key(item)`` when the ``items``
    gave only ``count`` distinct keys.  Loaders call it after every other
    check, so an input with another fault keeps that fault's error."""
    if count != len(items):
        seen = set()
        for k in map(key, items):
            if k in seen:
                raise ValueError(f"{what} {k} more than once")
            seen.add(k)


def _rational(value) -> Fraction:
    """The exact rational of a JSON int or string, the one parser of them all.

    A "p" or "p/q" string in ASCII digits (p optionally "-", q nonzero) is
    Fraction(int(p), int(q)); every other value goes through ``as_fraction``,
    which decides what else is accepted and words the errors.
    """
    if type(value) is str and value.isascii():
        p, slash, q = value.partition("/")
        if (p[1:] if p[:1] == "-" else p).isdigit() and (q.isdigit() or not slash):
            try:  # int() refuses more digits than sys.get_int_max_str_digits()
                den = int(q) if slash else 1
                if den:
                    return Fraction(int(p), den)
            except ValueError:
                pass
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
    poly = Poly(_integer(data["nvars"], "nvars"), terms)
    _refuse_repeats(data["terms"], len(terms), lambda item: str(item["exp"]),
                    "polynomial lists the exponent")
    return poly


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
    # by pole order, then grlex_key(gamma), written out: this sort is half
    # the function's time on a wide functional
    for (gamma, m), value in sorted(L.values.items(), key=lambda kv: (
            kv[0][1], sum(kv[0][0]), tuple(map(neg, kv[0][0])))):
        entries.append({"exp": list(gamma), "pole_order": m,
                        "value": scalar_to_json(value)})
    return {"nvars": L.nvars, "mode": L.mode.value, "scalar_kind": L.scalar_kind,
            "pole_max": L.pole_max, "degree_max": L.degree_max, "entries": entries}


def _entry(item, kind: str) -> tuple:
    """(key, value) of one functional entry, every field checked in turn."""
    item = _object(item, "entry")
    value = scalar_from_json(item["value"])
    if kind == SCALAR_FLOAT:
        value = _finite(value)
    elif isinstance(value, float):
        raise ValueError("exact functional file contains a float value")
    return (_exponent(item["exp"]), _integer(item["pole_order"], "pole_order")), value


def _exact_columns(entries: list) -> dict | None:
    """The key -> value table of exact entries, read a column at a time.

    When every entry is an object with a string value, a list of int
    exponents and an int pole order (JSON types checked over whole
    columns), only a value text can be at fault: ``_rational`` parses them
    in order and raises ``_entry``'s error at the first bad one.  Any other
    table gives None, and ``_entry`` reads it field by field.
    """
    if not set(map(type, entries)) <= {dict}:
        return None
    texts, exps, poles = (list(map(dict.get, entries, repeat(field)))
                          for field in ("value", "exp", "pole_order"))
    if not (set(map(type, texts)) <= {str} and set(map(type, exps)) <= {list}
            and set(map(type, poles)) <= {int} and set(map(type, chain.from_iterable(exps))) <= {int}):
        return None
    return dict(zip(zip(map(tuple, exps), poles), map(_rational, texts)))


def functional_from_dict(data: dict) -> LinearFunctional:
    data = _object(data, "functional")
    kind = data["scalar_kind"]
    if kind not in (SCALAR_EXACT, SCALAR_FLOAT):
        raise ValueError(f"unknown scalar kind {kind!r}")
    entries = _array(data["entries"], "entries")
    values = _exact_columns(entries) if kind == SCALAR_EXACT else None
    if values is None:
        values = dict(_entry(item, kind) for item in entries)
    L = LinearFunctional(_integer(data["nvars"], "nvars"), Mode(data["mode"]), kind, values,
                         pole_max=_integer(data.get("pole_max", 0), "pole_max"),
                         degree_max=_integer(data.get("degree_max", 0), "degree_max"))
    _refuse_repeats(entries, len(values), lambda item: f"(exp {item['exp']}, "
                    f"pole_order {item['pole_order']})", "functional lists the key")
    return L


def moments_from_dict(data: dict) -> list:
    """The moment list of a univariate input {"moments": [...]}."""
    data = _object(data, "univariate moment file")
    return [_rational(v) for v in _array(data["moments"], "moments")]


# -- fibre inputs ------------------------------------------------------------


def preorder_to_dict(preorder: Preorder) -> dict:
    return {"dim": preorder.dim,
            "generators": [poly_to_dict(g) for g in preorder.generators]}


def preorder_from_dict(data: dict) -> Preorder:
    from .fibres import Preorder

    data = _object(data, "preorder")
    return Preorder(_integer(data["dim"], "dim"),
                    tuple(poly_from_dict(g) for g in _array(data["generators"], "generators")))


def fibre_spec_to_dict(spec: FibreSpec) -> dict:
    return {"bounded": [poly_to_dict(h) for h in spec.bounded],
            "value": [format_fraction(v) for v in spec.value]}


def fibre_spec_from_dict(data: dict) -> FibreSpec:
    from .fibres import FibreSpec

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
    return {"domain": seq.domain.value,
            "entries": [{"m": m, "n": n, "re": format_fraction(z.re), "im": format_fraction(z.im)}
                        for (m, n), z in sorted(seq.entries.items())]}


def sequence_from_dict(data: dict) -> HermitianSequence:
    from .semigroups import HermitianSequence, SgDomain

    data = _object(data, "sequence")
    domain = SgDomain(data["domain"])
    entries = {}
    for item in _array(data["entries"], "entries"):
        item = _object(item, "entry")
        entries[(_integer(item["m"], "m"), _integer(item["n"], "n"))] = \
            GaussianRational(_rational(item["re"]), _rational(item.get("im", 0)))
    seq = HermitianSequence(domain, entries)
    _refuse_repeats(data["entries"], len(entries),
                    lambda item: f"({item['m']},{item['n']})", "sequence lists the entry")
    return seq


# -- PSD verdicts ------------------------------------------------------------


def verdict_to_dict(verdict: PsdVerdict | FloatPsdVerdict) -> dict:
    """The report form of a verdict: an exact certificate or a float bound."""
    from .functionals.psd import _ONE, _ZERO, FloatPsdVerdict

    if isinstance(verdict, FloatPsdVerdict):
        return {"outcome": verdict.outcome, "kind": "float",
                "min_eigenvalue": verdict.min_eigenvalue, "tol": verdict.tol}
    if verdict.is_psd:
        # most of L is the shared _ZERO and _ONE: format those two once
        zero, one = scalar_to_json(_ZERO), scalar_to_json(_ONE)
        return {"outcome": "PSD", "kind": "exact",
                "permutation": verdict.permutation,
                "diagonal": [scalar_to_json(d) for d in verdict.diagonal],
                "unit_lower": [[zero if x is _ZERO else one if x is _ONE else scalar_to_json(x)
                                for x in row] for row in verdict.unit_lower]}
    return {"outcome": "NotPSD", "kind": "exact",
            "witness": [scalar_to_json(w) for w in verdict.witness],
            "witness_value": scalar_to_json(verdict.witness_value)}


# -- files -------------------------------------------------------------------


_INFINITY = float("inf")


def _float_text(value: float) -> str:
    """json's text for a float: NaN and the infinities by name, else repr."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# json's text for each plain leaf type, looked up by exact type
_LEAF_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
              bool: {True: "true", False: "false"}.__getitem__,
              type(None): lambda _: "null"}


def _write(head: str, value, pad: str, out: list) -> None:
    """Append ``head`` and the text of ``value`` to ``out``; ``pad`` is a
    newline and its indent.  A value that is not plain raises TypeError."""
    text = _LEAF_TEXT.get(type(value))
    if text is not None:
        out.append(head + text(value))
        return
    is_list = isinstance(value, (list, tuple))
    if not is_list and not isinstance(value, dict):
        raise TypeError(f"{type(value).__name__} is not a plain JSON value")
    if not value:
        out.append(head + ("[]" if is_list else "{}"))
        return
    inner = pad + "  "
    head, sep = head + ("[" if is_list else "{") + inner, "," + inner
    if is_list:
        first = value[0]
        kind = type(first)
        text = _LEAF_TEXT.get(kind)
        if text is not None and all(type(item) is kind for item in value):
            out.append(head + sep.join(map(text, value)))
        elif kind is dict and first and all(type(key) is str for key in first) \
                and all(type(item) is dict and item.keys() == first.keys() for item in value):
            _write_records(head, sep, value, inner, out)
        else:
            for item in value:
                _write(head, item, inner, out)
                head = sep
        out.append(pad + "]")
    else:
        for key, item in sorted(value.items()):
            # encode_basestring_ascii raises TypeError on a non-str key
            _write(head + encode_basestring_ascii(key) + ": ", item, inner, out)
            head = sep
        out.append(pad + "}")


def _write_records(head: str, sep: str, records: list, pad: str, out: list) -> None:
    """List items that are dicts on one set of str keys (functional entries,
    polynomial terms, atoms), written a column at a time: the keys are sorted
    and quoted once for all, and each column's texts come from
    ``_column_texts``.  The texts are lazy and joined record by record, so a
    value that cannot be written fails where the record-by-record walk fails."""
    inner = pad + "  "
    parts, opening = [], "{"
    for key in sorted(records[0]):
        lead, texts, close = _column_texts([record[key] for record in records], inner)
        parts += [repeat(opening + inner + encode_basestring_ascii(key) + ": " + lead), texts]
        opening = close + ","
    parts.append(repeat(close + pad + "}"))
    out.append(head + sep.join(map("".join, zip(*parts))))


def _column_texts(column: list, pad: str) -> tuple:
    """(lead, texts, close): the text of each value of a record column is
    lead + text + close.  A column of one leaf type, or of nonempty lists
    of one leaf type, is formatted with one map per column; any other
    column goes through ``_write`` value by value."""
    kinds = set(map(type, column))
    if len(kinds) == 1:
        text = _LEAF_TEXT.get(*kinds)
        if text is not None:
            return "", map(text, column), ""
    if kinds <= {list, tuple} and all(column):
        items = set(map(type, chain.from_iterable(column)))
        text = _LEAF_TEXT.get(*items) if len(items) == 1 else None
        if text is not None:
            inner = pad + "  "
            return "[" + inner, map(("," + inner).join, map(map, repeat(text), column)), pad + "]"
    return "", map(_value_text, column, repeat(pad)), ""


def _value_text(value, pad: str) -> str:
    out: list[str] = []
    _write("", value, pad, out)
    return "".join(out)


def json_text(data) -> str:
    """``json.dumps(data, indent=2, sort_keys=True)`` plus a final newline."""
    out: list[str] = []
    try:
        _write("", data, "\n", out)
    except (TypeError, RecursionError):  # not plain, or a cycle: json decides
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    out.append("\n")
    return "".join(out)


def dump_json(data: dict, path) -> None:
    Path(path).write_text(json_text(data), encoding="utf-8")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
