from __future__ import annotations

import enum
import functools
import json
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentext import serialize
from momentext.extalg import Mode, a_normalize
from momentext.fibres import FibreSpec, Preorder
from momentext.functionals.core import (DiscreteMeasure, LinearFunctional,
                                        SCALAR_EXACT, SCALAR_FLOAT,
                                        extend_from_measure)
from momentext.polyalg import DimensionMismatchError, Poly
from momentext.scalars import GaussianRational, as_fraction
from momentext.semigroups import (HermitianSequence, SgDomain, box_window,
                                  sequence_from_measure)
from momentext.serialize import (aelement_from_dict, aelement_to_dict,
                                 dump_json, fibre_spec_from_dict,
                                 fibre_spec_to_dict, functional_from_dict,
                                 functional_to_dict, json_text, load_json,
                                 measure_from_dict, measure_to_dict,
                                 poly_from_dict, poly_to_dict,
                                 preorder_from_dict, preorder_to_dict,
                                 samples_from_dict, samples_to_dict,
                                 scalar_from_json, scalar_to_json,
                                 sequence_from_dict, sequence_to_dict)


def test_scalar_json_forms():
    assert scalar_to_json(Fraction(3, 4)) == "3/4"
    assert scalar_to_json(5) == "5"
    assert scalar_to_json(0.25) == 0.25
    assert scalar_from_json("3/4") == Fraction(3, 4)
    assert scalar_from_json(7) == Fraction(7)
    assert scalar_from_json(0.25) == 0.25
    with pytest.raises(ValueError):
        scalar_from_json(True)


def test_poly_roundtrip():
    p = Poly(2, {(2, 0): Fraction(1, 3), (0, 1): Fraction(-2), (0, 0): Fraction(5)})
    data = poly_to_dict(p)
    assert data["nvars"] == 2
    assert all(isinstance(t["coeff"], str) for t in data["terms"])
    assert poly_from_dict(data) == p


def test_aelement_roundtrip_renormalizes():
    a = a_normalize(Poly(2, {(3, 1): Fraction(2)}), 1, Mode.APLUS)
    assert aelement_from_dict(aelement_to_dict(a)) == a
    # an unreduced file form comes back reduced
    raw = {"numerator": poly_to_dict(Poly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})),
           "pole_order": 1, "mode": Mode.APLUS.value}
    restored = aelement_from_dict(raw)
    assert restored.pole_order == 0
    assert restored.numerator == Poly.constant(2, 1)


def test_measure_roundtrip_exact_and_float():
    mu = DiscreteMeasure(2,
                         atoms=((Fraction(1, 2), (Fraction(1), Fraction(-2))),),
                         origin_mass=Fraction(1, 3),
                         sphere_atoms=((Fraction(2), (Fraction(3, 5), Fraction(4, 5))),))
    back = measure_from_dict(measure_to_dict(mu))
    assert back == mu
    assert back.is_exact()

    approx = DiscreteMeasure(2, atoms=((0.5, (1.0, -2.0)),), origin_mass=0.25)
    data = measure_to_dict(approx)
    assert data["atoms"][0]["weight"] == 0.5
    restored = measure_from_dict(data)
    assert not restored.is_exact()
    assert restored.atoms[0][1] == (1.0, -2.0)


def test_bool_scalars_take_the_float_path():
    # a bool is not an exact scalar, so it is written as a float, not "1"/"0"
    assert scalar_to_json(True) == 1.0 and type(scalar_to_json(True)) is float
    assert scalar_to_json(False) == 0.0 and type(scalar_to_json(False)) is float
    mu = DiscreteMeasure(2, atoms=((True, (Fraction(1), Fraction(2))),))
    assert not mu.is_exact()
    data = measure_to_dict(mu)
    assert data["atoms"][0]["weight"] == 1.0
    assert not measure_from_dict(data).is_exact()


def test_functional_roundtrip_and_entry_order():
    mu = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(2))),))
    L = extend_from_measure(mu, 1, 2)
    data = functional_to_dict(L)
    back = functional_from_dict(data)
    assert back.values == L.values
    assert back.mode is L.mode and back.scalar_kind == L.scalar_kind
    assert back.pole_max == L.pole_max and back.degree_max == L.degree_max
    # entries are ordered by pole order, then graded lex on the exponent
    poles = [item["pole_order"] for item in data["entries"]]
    assert poles == sorted(poles)


def test_functional_exact_kind_rejects_floats():
    data = {"nvars": 1, "mode": Mode.APLUS.value, "scalar_kind": SCALAR_EXACT,
            "pole_max": 0, "degree_max": 0,
            "entries": [{"exp": [0], "pole_order": 0, "value": 0.5}]}
    with pytest.raises(ValueError):
        functional_from_dict(data)
    data["scalar_kind"] = "decimal"
    with pytest.raises(ValueError):
        functional_from_dict(data)
    data["scalar_kind"] = SCALAR_FLOAT
    L = functional_from_dict(data)
    assert L.values[((0,), 0)] == 0.5


def test_preorder_fibre_samples_roundtrip():
    x1 = Poly.variable(2, 0)
    strip = Preorder(2, (x1, Poly.constant(2, 1) - x1))
    assert preorder_from_dict(preorder_to_dict(strip)) == strip

    spec = FibreSpec((x1,), (Fraction(1, 2),))
    back = fibre_spec_from_dict(fibre_spec_to_dict(spec))
    assert back.bounded == spec.bounded and back.value == spec.value

    pts = [[Fraction(0), Fraction(1)], [Fraction(1, 2), Fraction(-1)]]
    assert samples_from_dict(samples_to_dict(2, pts)) == pts
    with pytest.raises(ValueError):
        samples_from_dict({"dim": 2, "points": [["1/2"]]})


def test_sequence_roundtrip_exact_and_float():
    seq = sequence_from_measure(DiscreteMeasure(2, ((Fraction(1), (2, 1)),)),
                                box_window(2, SgDomain.Z2))
    back = sequence_from_dict(sequence_to_dict(seq))
    assert back.domain is seq.domain and back.entries == seq.entries

    # Sequences are exact only: a float entry in a file, or a complex value
    # handed to the constructor, is refused.
    with pytest.raises(ValueError, match="not an exact rational"):
        sequence_from_dict({"domain": "N02",
                            "entries": [{"m": 0, "n": 0, "re": "3/2", "im": 0.25}]})
    with pytest.raises(ValueError, match="not a GaussianRational"):
        HermitianSequence(SgDomain.N02, {(0, 0): complex(1.5, 0.0)})


def test_dump_json_is_deterministic(tmp_path):
    mu = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(2))),))
    data = functional_to_dict(extend_from_measure(mu, 1, 2))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(data, first)
    dump_json(data, second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")
    assert load_json(first) == load_json(second)


@pytest.mark.parametrize("decode,data", [
    (measure_from_dict, [1, 2]),
    (measure_from_dict, {"dim": 2, "atoms": [{"weight": "1", "point": "12"}]}),
    (measure_from_dict, {"dim": "2", "atoms": []}),
    (functional_from_dict, {"nvars": 1, "mode": "Aplus", "scalar_kind": SCALAR_EXACT,
                            "entries": [{"exp": 5, "pole_order": 0, "value": "1"}]}),
    (functional_from_dict, {"nvars": 1, "mode": "Aplus", "scalar_kind": SCALAR_EXACT,
                            "entries": [{"exp": ["1"], "pole_order": 0, "value": "1"}]}),
    (functional_from_dict, {"nvars": 1, "mode": "Aplus", "scalar_kind": SCALAR_EXACT,
                            "entries": {"exp": [0]}}),
    (poly_from_dict, {"nvars": 1, "terms": [{"exp": [1], "coeff": 0.5}]}),
    (samples_from_dict, {"dim": 2, "points": ["12"]}),
    (fibre_spec_from_dict, {"bounded": [{"nvars": 1, "terms": []}], "value": "1"}),
    (sequence_from_dict, {"domain": "N02", "entries": [[0, 0, "1"]]}),
])
def test_malformed_inputs_raise_value_error(decode, data):
    with pytest.raises(ValueError):
        decode(data)


def test_scalar_from_json_rejects_containers():
    for value in (None, [1], {"p": 1}, "1/0"):
        with pytest.raises(ValueError):
            scalar_from_json(value)


# -- round trips: every to_dict/from_dict pair reaches an equal object and the
# same file bytes -------------------------------------------------------------

RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
POSITIVE = st.fractions(min_value=Fraction(1, 6), max_value=9, max_denominator=6)
FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def polys(draw, d: int) -> Poly:
    exponents = st.tuples(*[st.integers(0, 3)] * d)
    return Poly(d, draw(st.dictionaries(exponents, RATIONALS, max_size=4)))


@st.composite
def aelements(draw):
    d, mode = draw(st.integers(1, 3)), draw(st.sampled_from(Mode))
    numerator = draw(polys(d))
    low = numerator.degree_range()[0] if not numerator.is_zero() else 0
    return a_normalize(numerator, draw(st.integers(0, low // 2 if mode is Mode.APLUS else 3)),
                       mode)


def rational_unit_vector(u: list[Fraction]) -> tuple[Fraction, ...]:
    """Inverse stereographic image of u: a rational point on the unit sphere."""
    n = sum(c * c for c in u)
    return tuple(2 * c / (1 + n) for c in u) + ((1 - n) / (1 + n),)


@st.composite
def measures(draw):
    d, exact = draw(st.integers(1, 3)), draw(st.booleans())
    weight = POSITIVE if exact else st.floats(min_value=1e-3, max_value=1e3)
    coord = RATIONALS if exact else FLOATS
    points = st.tuples(*[coord] * d).filter(lambda p: any(c != 0 for c in p))
    atoms = draw(st.lists(st.tuples(weight, points), max_size=3))
    sphere = [(draw(weight), rational_unit_vector(draw(st.lists(RATIONALS, min_size=d - 1,
                                                              max_size=d - 1))))
              for _ in range(draw(st.integers(0, 2)))]
    if not exact:
        sphere = [(w, tuple(float(c) for c in t)) for w, t in sphere]
    origin = draw(POSITIVE if exact else weight) if draw(st.booleans()) else \
        (Fraction(0) if exact else 0.0)
    return DiscreteMeasure(d, tuple(atoms), origin, tuple(sphere))


@st.composite
def functionals(draw):
    d, mode = draw(st.integers(1, 3)), draw(st.sampled_from(Mode))
    kind = draw(st.sampled_from((SCALAR_EXACT, SCALAR_FLOAT)))
    values = {}
    for gamma in draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), max_size=6)):
        top = sum(gamma) // 2 if mode is Mode.APLUS else 3
        values[(gamma, draw(st.integers(0, top)))] = draw(RATIONALS if kind == SCALAR_EXACT
                                                          else FLOATS)
    return LinearFunctional(d, mode, kind, values, pole_max=draw(st.integers(0, 3)),
                            degree_max=draw(st.integers(0, 5)))


@st.composite
def preorders(draw):
    d = draw(st.integers(1, 3))
    return Preorder(d, tuple(draw(st.lists(polys(d), min_size=1, max_size=3))))


@st.composite
def fibre_specs(draw):
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return FibreSpec(tuple(draw(polys(d)) for _ in range(n)),
                     tuple(draw(RATIONALS) for _ in range(n)))


@st.composite
def samples(draw):
    d = draw(st.integers(1, 3))
    return d, draw(st.lists(st.lists(RATIONALS, min_size=d, max_size=d), max_size=4))


@st.composite
def sequences(draw):
    domain = draw(st.sampled_from(SgDomain))
    low = {SgDomain.N02: lambda m: 0, SgDomain.NPLUS: lambda m: max(-3, -m),
           SgDomain.Z2: lambda m: -3}[domain]
    entries = {}
    for _ in range(draw(st.integers(0, 5))):
        m = draw(st.integers(0 if domain is SgDomain.N02 else -3, 3))
        n = draw(st.integers(low(m), 3))
        entries[(m, n)] = GaussianRational(draw(RATIONALS), draw(RATIONALS))
    return HermitianSequence(domain, entries)


def file_bytes(data: dict, path) -> bytes:
    dump_json(data, path)
    return path.read_bytes()


def assert_round_trip(value, to_dict, from_dict, path) -> None:
    written = file_bytes(to_dict(value), path)
    back = from_dict(load_json(path))
    assert back == value
    assert file_bytes(to_dict(back), path) == written


ROUND_TRIPS = {
    "poly": (st.integers(1, 3).flatmap(polys), poly_to_dict, poly_from_dict),
    "aelement": (aelements(), aelement_to_dict, aelement_from_dict),
    "measure": (measures(), measure_to_dict, measure_from_dict),
    "functional": (functionals(), functional_to_dict, functional_from_dict),
    "preorder": (preorders(), preorder_to_dict, preorder_from_dict),
    "fibre_spec": (fibre_specs(), fibre_spec_to_dict, fibre_spec_from_dict),
    "samples": (samples(), lambda case: samples_to_dict(*case),
                lambda data: (data["dim"], samples_from_dict(data))),
    "sequence": (sequences(), sequence_to_dict, sequence_from_dict),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_round_trip_reaches_equal_object_and_bytes(name, tmp_path):
    strategy, to_dict, from_dict = ROUND_TRIPS[name]

    @settings(max_examples=40, deadline=None)
    @given(value=strategy)
    def check(value):
        assert_round_trip(value, to_dict, from_dict, tmp_path / "value.json")
    check()


# -- the one-pass functional loader against the field-by-field one -------------


def oracle_functional_from_dict(data) -> tuple[dict, int, int]:
    """(values, pole_max, degree_max) as the loader read them before its fast path.

    Each entry went through ``serialize``'s checked field readers, and the
    keys then through the checks ``LinearFunctional``'s constructor made.
    """
    data = serialize._object(data, "functional")
    kind = data["scalar_kind"]
    if kind not in (SCALAR_EXACT, SCALAR_FLOAT):
        raise ValueError(f"unknown scalar kind {kind!r}")
    values = {}
    for item in serialize._array(data["entries"], "entries"):
        item = serialize._object(item, "entry")
        value = scalar_from_json(item["value"])
        if kind == SCALAR_FLOAT:
            value = serialize._finite(value)
        elif isinstance(value, float):
            raise ValueError("exact functional file contains a float value")
        values[(serialize._exponent(item["exp"]),
                serialize._integer(item["pole_order"], "pole_order"))] = value
    nvars = serialize._integer(data["nvars"], "nvars")
    mode = Mode(data["mode"])
    pole_max = serialize._integer(data.get("pole_max", 0), "pole_max")
    degree_max = serialize._integer(data.get("degree_max", 0), "degree_max")
    clean = {}
    for (gamma, m), value in values.items():
        gamma = tuple(gamma)
        if len(gamma) != nvars:
            raise DimensionMismatchError(f"key exponent {gamma} has wrong length")
        if m < 0:
            raise ValueError("pole order in key must be >= 0")
        if any(e < 0 for e in gamma):
            raise ValueError(f"key exponent {gamma} has a negative entry")
        if mode is Mode.APLUS and sum(gamma) < 2 * m:
            raise ValueError(f"key {(gamma, m)} lies outside the bounded-generator algebra")
        clean[(gamma, m)] = as_fraction(value) if kind == SCALAR_EXACT else float(value)
    return (clean, max([m for (_, m) in clean] + [pole_max]),
            max([sum(g) for (g, _) in clean] + [degree_max]))


BIG = "9" * 200 + "1" * 200
VALUE_TEXTS = [
    "3", "-3", "0", "-0", "2/4", "-6/8", "007/010", "12/1", "+3", " 3/4 ", "3/4 ", "3 /4",
    "1_000", "1/1_0", "1.5", "-.5", "1e3", "1E-3", "--3", "-", "", "/", "3/", "/4", "3/0",
    "3/00", "-0/5", "3//4", "3/-4", "٣", "٣/٤", "３/４", "²", "3\n", "0x10", "nan", "inf",
    BIG, "-" + BIG, BIG + "/" + BIG[::-1], "1/" + BIG, "7" * 5000, "1/" + "3" * 5000,
]


def _drop(item: dict, field: str) -> dict:
    return {k: v for k, v in item.items() if k != field}


ENTRY_FAULTS = ["exp", "pole_order", "value", "object", "length", "negative", "pole",
                "exp type", "pole type"]


def plant_fault(draw, item: dict, fault: str | None):
    """A copy of the well-formed entry ``item`` with one of ENTRY_FAULTS
    planted, or ``item`` itself when ``fault`` is None."""
    exp, d = item["exp"], len(item["exp"])
    if fault in ("exp", "pole_order", "value"):
        return _drop(item, fault)
    if fault == "object":
        return [exp]
    item = dict(item)
    if fault == "length":
        item["exp"] = exp + [0]
    elif fault == "negative":
        item["exp"] = [-1] + exp[1:]
    elif fault == "pole":
        item["pole_order"] = draw(st.sampled_from([-1, sum(exp) // 2 + 1]))
    elif fault == "exp type":
        item["exp"] = draw(st.sampled_from([[1.0] * d, [True] * d, "1", ["1"] * d]))
    elif fault == "pole type":
        item["pole_order"] = draw(st.sampled_from(["1", 1.0, False, None]))
    return item


@st.composite
def functional_documents(draw):
    """Functional files, mostly well formed, some with one or more faults."""
    d = draw(st.integers(1, 4))
    faulty = draw(st.booleans())  # well-formed documents are half the draws
    mode = draw(st.sampled_from([m.value for m in Mode] + ["Hyperbolic"] * faulty))
    kind = draw(st.sampled_from([SCALAR_EXACT] * 4 + [SCALAR_FLOAT]))
    odd_values = st.one_of(st.sampled_from(VALUE_TEXTS),
                           st.sampled_from([5, -2, 0.5, True, None, [1], {"p": 1}]))
    faults = [None] * 12 + faulty * ENTRY_FAULTS
    entries = []
    for _ in range(draw(st.integers(0, 8))):
        exp = draw(st.lists(st.integers(0, 4), min_size=d, max_size=d))
        odd = faulty and draw(st.integers(0, 3)) == 0
        item = {"exp": exp, "pole_order": draw(st.integers(0, sum(exp) // 2)),
                "value": draw(odd_values if odd else RATIONALS.map(scalar_to_json))}
        entries.append(plant_fault(draw, item, draw(st.sampled_from(faults))))
    data = {"nvars": d, "mode": mode, "scalar_kind": kind, "entries": entries,
            "pole_max": draw(st.integers(-1, 4)), "degree_max": draw(st.integers(-1, 9))}
    fields = ["nvars", "mode", "scalar_kind", "entries", "pole_max", "degree_max"]
    for field in draw(st.lists(st.sampled_from(fields), max_size=faulty)):
        if draw(st.booleans()):
            del data[field]
        else:
            data[field] = draw(st.sampled_from(["2", 2.5, None, [], -1]))
    return data


def outcome(load, data) -> tuple:
    """("ok", result) or ("error", type, text): the error text is part of the contract."""
    try:
        return "ok", load(data)
    except Exception as err:
        return "error", type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(data=functional_documents())
def test_one_pass_loader_matches_field_by_field_loader(data):
    want = outcome(oracle_functional_from_dict, data)
    got = outcome(functional_from_dict, data)
    if want[0] == "error":
        assert got == want
        return
    declared = [data.get(field, 0) for field in ("pole_max", "degree_max")]
    if min(declared) < 0:  # accepted before, refused now
        assert got[:2] == ("error", ValueError) and "is negative" in got[2]
        return
    keys = [(tuple(item["exp"]), item["pole_order"]) for item in data["entries"]]
    repeated = next((key for i, key in enumerate(keys) if key in keys[:i]), None)
    if repeated is not None:  # the oracle kept the last value; a repeat is refused now
        assert got == ("error", ValueError, f"functional lists the key (exp "
                       f"{list(repeated[0])}, pole_order {repeated[1]}) more than once")
        return
    values, pole_max, degree_max = want[1]
    L = got[1]
    assert list(L.values.items()) == list(values.items())
    assert [type(v) for v in L.values.values()] == [type(v) for v in values.values()]
    assert (L.pole_max, L.degree_max) == (pole_max, degree_max)


@pytest.mark.parametrize("text", VALUE_TEXTS)
def test_each_value_text_loads_as_before(text):
    data = {"nvars": 1, "mode": "Aplus", "scalar_kind": SCALAR_EXACT,
            "entries": [{"exp": [2], "pole_order": 1, "value": text}]}
    want = outcome(oracle_functional_from_dict, data)
    got = outcome(functional_from_dict, data)
    if want[0] == "ok":
        assert got[0] == "ok" and list(got[1].values.items()) == list(want[1][0].items())
    else:
        assert got == want


@functools.cache
def wide_document(kind: str) -> dict:
    """The benchmark's wide window (d = 3, pole 2, degree 5) of a four-atom
    measure, as ``extend`` writes it: 1230 entries, float values on the
    float kind."""
    mu = DiscreteMeasure(3, atoms=tuple(
        (Fraction(w), tuple(Fraction(c, 3) for c in point))
        for w, point in ((1, (1, -2, 4)), (2, (-3, 1, 1)), (5, (2, 0, -1)), (3, (0, 5, 2)))))
    data = json.loads(json_text(functional_to_dict(extend_from_measure(mu, 2, 5))))
    assert len(data["entries"]) == 1230
    if kind == SCALAR_FLOAT:
        data["entries"] = [{**item, "value": float(Fraction(item["value"]))}
                           for item in data["entries"]]
    return {**data, "scalar_kind": kind}


# a value text or JSON value planted in one entry; "repeat" copies another entry's key
WIDE_FAULTS = ENTRY_FAULTS + ["1/0", "\u0663", " 1", "+1", "1_0", 0.5, True, "repeat"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_planted_faults_in_a_wide_table_load_as_the_field_by_field_loader(data):
    document = wide_document(data.draw(st.sampled_from([SCALAR_EXACT] * 3 + [SCALAR_FLOAT])))
    base = document["entries"]
    entries = list(base)
    for fault in data.draw(st.lists(st.sampled_from(WIDE_FAULTS), max_size=2)):
        at = data.draw(st.integers(0, len(base) - 1))
        if fault == "repeat":
            twin = base[data.draw(st.integers(0, len(base) - 1).filter(lambda i: i != at))]
            entries[at] = {**base[at], "exp": twin["exp"], "pole_order": twin["pole_order"]}
        elif fault in ENTRY_FAULTS:
            entries[at] = plant_fault(data.draw, base[at], fault)
        else:
            entries[at] = {**base[at], "value": fault}
    document = {**document, "entries": entries}
    want = outcome(oracle_functional_from_dict, document)
    got = outcome(functional_from_dict, document)
    if want[0] == "error":
        assert got == want
        return
    keys = [(tuple(item["exp"]), item["pole_order"]) for item in entries]
    if len(set(keys)) < len(keys):
        first = next(key for i, key in enumerate(keys) if key in keys[:i])
        assert got == ("error", ValueError, f"functional lists the key (exp {list(first[0])}, "
                       f"pole_order {first[1]}) more than once")
        return
    values, pole_max, degree_max = want[1]
    L = got[1]
    assert list(L.values.items()) == list(values.items())
    assert [type(v) for v in L.values.values()] == [type(v) for v in values.values()]
    assert (L.pole_max, L.degree_max) == (pole_max, degree_max)


@pytest.mark.parametrize("field, declared", [("pole_max", 1.5), ("degree_max", True),
                                             ("pole_max", 2.0), ("degree_max", "3")])
def test_declared_maxima_that_cannot_be_read_back_are_refused(field, declared):
    values = {((0,), 0): Fraction(1)}
    data = json.loads(json_text(functional_to_dict(
        LinearFunctional(1, Mode.APLUS, SCALAR_EXACT, values, pole_max=2, degree_max=3))))
    assert functional_from_dict(data).values == values
    data[field] = declared
    with pytest.raises(ValueError) as loaded:
        functional_from_dict(data)
    with pytest.raises(ValueError) as built:
        LinearFunctional(1, Mode.APLUS, SCALAR_EXACT, values, **{field: declared})
    assert str(built.value) == str(loaded.value) == f"{field} must be an integer, not {declared!r}"


def test_negative_declared_bounds_are_refused():
    data = {"nvars": 2, "mode": "Aplus", "scalar_kind": SCALAR_EXACT,
            "entries": [{"exp": [0, 0], "pole_order": 0, "value": "1"}]}
    for field in ("pole_max", "degree_max"):
        with pytest.raises(ValueError, match=f"declared {field} -7 is negative"):
            functional_from_dict({**data, field: -7})
    with pytest.raises(ValueError, match="negative"):
        LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, {}, pole_max=-1)


# -- the report writer against json.dumps -------------------------------------


def dumps_text(value) -> str:
    """The writer's oracle: the stdlib's own indent-2, sorted-key text."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def written(write, value) -> tuple:
    """("ok", text) or ("error", exception type)."""
    try:
        return "ok", write(value)
    except Exception as err:
        return "error", type(err)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = -(2 ** 70)


class Text(str):
    pass


JSON_TEXTS = st.text(st.one_of(st.characters(),
                          st.sampled_from("\x00\x07\x1f\x7f\"\\/\u2028\U0001f600")),
                max_size=6)
JSON_INTS = st.one_of(st.integers(-10, 10), st.integers(),
                 st.sampled_from([2 ** 63, -(2 ** 64) - 1, 10 ** 40, -(10 ** 300)]))
JSON_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
     float("nan"), float("inf"), -float("inf")]))
JSON_LEAVES = st.one_of(st.none(), st.booleans(), JSON_INTS, JSON_FLOATS, JSON_TEXTS,
                   JSON_FLOATS.map(numpy.float64), st.sampled_from(list(Level)),
                   JSON_TEXTS.map(Text))
# one kind of key per dict: str, numbers and bools (which sort together), or None
KEY_KINDS = st.sampled_from([JSON_TEXTS, st.one_of(JSON_INTS, JSON_FLOATS, st.booleans()), st.none()])


@st.composite
def keyed(draw, values):
    return draw(st.dictionaries(draw(KEY_KINDS), values, max_size=4))


@st.composite
def records(draw, values):
    """A list of dicts on one key set, sometimes with an odd one out."""
    keys = draw(st.lists(JSON_TEXTS, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({key: values for key in keys}),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(keyed(values)))
    return rows


JSON_VALUES = st.recursive(JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.lists(JSON_LEAVES, max_size=5), keyed(children), records(children),
    keyed(children).map(lambda d: serialize._object(d, "record"))), max_leaves=24)


@settings(max_examples=600, deadline=None)
@given(value=JSON_VALUES)
def test_json_text_matches_json_dumps(value):
    assert written(json_text, value) == written(dumps_text, value)


REFUSED_LEAVES = st.sampled_from([Fraction(1, 2), numpy.int64(1), frozenset(), b"x"])
MIXED_KEYS = st.one_of(JSON_TEXTS, JSON_INTS, st.none(), st.just((1,)))


@settings(max_examples=300, deadline=None)
@given(value=st.recursive(
    st.one_of(JSON_LEAVES, REFUSED_LEAVES), lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(MIXED_KEYS, children, max_size=3),
        records(children)), max_leaves=12))
def test_json_text_refuses_as_json_dumps_does_at_any_depth(value):
    assert written(json_text, value) == written(dumps_text, value)


# one type per column, as in functional entries, polynomial terms and atoms
COLUMN_KINDS = st.sampled_from([
    st.none(), st.booleans(), JSON_INTS, JSON_FLOATS, JSON_TEXTS, JSON_FLOATS.map(numpy.float64),
    st.sampled_from(list(Level)), JSON_TEXTS.map(Text), st.lists(JSON_INTS, min_size=1, max_size=4),
    st.lists(JSON_TEXTS, min_size=1, max_size=3), st.lists(st.booleans(), min_size=1, max_size=3),
    st.lists(JSON_FLOATS, min_size=1, max_size=3).map(tuple)])
ODD_COLUMN_VALUES = st.one_of(
    st.just([]), st.just(()), st.lists(st.one_of(JSON_INTS, st.booleans()), min_size=1, max_size=3),
    st.lists(JSON_INTS, min_size=1, max_size=3).map(tuple), st.lists(JSON_LEAVES, max_size=2),
    JSON_LEAVES, keyed(JSON_LEAVES))


@st.composite
def column_records(draw):
    """1-40 dicts on one key set whose fields each hold one type, with at
    most one odd value per column."""
    count = draw(st.integers(1, 40))
    rows: list[dict] = [{} for _ in range(count)]
    for key in draw(st.lists(JSON_TEXTS, min_size=1, max_size=4, unique=True)):
        column = draw(st.lists(draw(COLUMN_KINDS), min_size=count, max_size=count))
        if draw(st.booleans()):
            column[draw(st.integers(0, count - 1))] = draw(ODD_COLUMN_VALUES)
        for row, value in zip(rows, column):
            row[key] = value
    return rows


@settings(max_examples=150, deadline=None)
@given(rows=column_records(), nested=st.booleans())
def test_json_text_writes_record_columns_as_json_dumps_does(rows, nested):
    value = {"rows": [rows, 1]} if nested else rows
    assert written(json_text, value) == written(dumps_text, value)


def _circular_list():
    items: list = [1]
    items.append(items)
    return items


def _circular_record():
    rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
    rows[1]["b"] = rows
    return {"rows": rows}


def _self_listing_record():
    record: dict = {"a": 1}
    record["a"] = [record]
    return record


REFUSED = {
    "fraction": Fraction(1, 2), "set": {1, 2}, "numpy-int64": numpy.int64(3),
    "numpy-bool": numpy.bool_(True), "object": object(), "complex": 1j,
    "fraction-in-leaf-list": [1, 2, Fraction(1, 3)],
    "numpy-int64-in-list": {"a": [numpy.int64(1)]},
    "str-and-int-keys": {"a": 1, 2: 3}, "none-and-int-keys": {None: 1, 0: 2},
    "tuple-key": {(1, 2): 3}, "fraction-key": {Fraction(1, 2): 1},
    "set-in-record": [{"a": 1}, {"a": {1, 2}}], "int-past-str-digits": 10 ** 5000,
    # json meets the Fraction first, record by record, though its column comes second
    "fraction-before-long-int-in-records": [{"a": 1, "b": Fraction(1, 2)}, {"a": 10 ** 5000, "b": 2}],
    "circular-list": _circular_list(), "circular-record": _circular_record(),
    "self-listing-record": _self_listing_record(),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_json_text_refuses_what_json_dumps_refuses(name):
    value = REFUSED[name]
    got, want = written(json_text, value), written(dumps_text, value)
    assert want[0] == "error"
    assert got == want


def test_json_text_writes_reports_as_json_dumps_does():
    mu = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(2))),
                                   (Fraction(1, 3), (Fraction(-1, 2), Fraction(0)))))
    for data in (functional_to_dict(extend_from_measure(mu, 2, 4)), measure_to_dict(mu),
                 {"values": [numpy.float64(0.1), numpy.float64(float("nan"))], "n": 1},
                 [], {}, [[]], "t\u00e9xt", 3, None):
        assert json_text(data) == dumps_text(data)
