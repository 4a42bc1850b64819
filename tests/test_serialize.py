from __future__ import annotations

from fractions import Fraction

import pytest

from momentext.extalg import Mode, a_normalize
from momentext.fibres import FibreSpec, Preorder
from momentext.functionals.core import (DiscreteMeasure, LinearFunctional,
                                        SCALAR_EXACT, SCALAR_FLOAT,
                                        extend_from_measure)
from momentext.polyalg import Poly
from momentext.scalars import GaussianRational
from momentext.semigroups import (HermitianSequence, SgDomain, box_window,
                                  sequence_from_measure)
from momentext.serialize import (aelement_from_dict, aelement_to_dict,
                                 dump_json, fibre_spec_from_dict,
                                 fibre_spec_to_dict, functional_from_dict,
                                 functional_to_dict, load_json,
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
    seq = sequence_from_measure([(Fraction(1), GaussianRational.of(2, 1))],
                                box_window(2, SgDomain.Z2))
    back = sequence_from_dict(sequence_to_dict(seq))
    assert back.domain is seq.domain and back.entries == seq.entries
    assert back.is_exact()

    approx = HermitianSequence(SgDomain.N02, {(0, 0): complex(1.5, 0.0),
                                              (1, 0): complex(0.5, -0.25),
                                              (0, 1): complex(0.5, 0.25)})
    restored = sequence_from_dict(sequence_to_dict(approx))
    assert not restored.is_exact()
    assert restored.entries[(1, 0)] == complex(0.5, -0.25)


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
