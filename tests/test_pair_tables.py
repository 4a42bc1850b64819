"""Exact tables as reduced integer pairs, checked against the Fraction path.

An exact ``LinearFunctional`` stores one reduced pair (numerator,
denominator > 0) per key, and loading, auditing, lifting, window reads and
writing work on the pairs.  ``FractionTable`` below is the path they
replace, a table of Fractions read and audited with Fraction sums; it is
the oracle of every test here, over random tables in one to three
variables and both modes.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from momentext import cli, serialize
from momentext.extalg import Mode, truncated_basis
from momentext.functionals import psd
from momentext.functionals.core import (SCALAR_EXACT, SCALAR_FLOAT, DiscreteMeasure,
                                        DomainOverflowError, InconsistentFunctionalError,
                                        LinearFunctional, MomentWindow, gram_matrix,
                                        moments_of_measure)
from momentext.polyalg import exponents_of_degree, norm_squared_power
from momentext.scalars import format_fraction


def outcome(call):
    """call()'s result, or the type and text of what it raised."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)


def bits(result):
    """A float result by its bits (so -0.0 differs from 0.0), anything else as it is."""
    return result.hex() if type(result) is float else result


class FractionTable:
    """The exact functional on Fraction values: lifts and the relation audit
    as Fraction sums, one Fraction per stored value."""

    def __init__(self, nvars: int, values: dict):
        self.nvars = nvars
        self.values = dict(values)
        self.top_pole = max((m for _, m in values), default=-1)
        self.top_degree = max((sum(gamma) for gamma, _ in values), default=-1)

    def lifted_sum(self, gamma, m: int, lift: int):
        total = Fraction(0)
        for exp, coeff in norm_squared_power(self.nvars, lift).terms.items():
            key = (tuple(map(add, gamma, exp)), m + lift)
            if key not in self.values:
                return None
            total += coeff * self.values[key]
        return total

    def key_value(self, gamma, m: int) -> Fraction:
        if (gamma, m) in self.values:
            return self.values[(gamma, m)]
        for lift in range(1, self.top_pole - m + 1):
            total = self.lifted_sum(gamma, m, lift)
            if total is not None:
                return total
        raise DomainOverflowError((gamma, m))

    def audit(self) -> list:
        return [key for key, value in self.values.items()
                if self.lifted_sum(*key, 1) not in (None, value)]

    def validate(self) -> None:
        bad = self.audit()
        if bad:
            raise InconsistentFunctionalError(
                f"reduction relation violated at keys {sorted(bad)[:5]}"
                + ("..." if len(bad) > 5 else ""))
        one = ((0,) * self.nvars, 0)
        if one in self.values and self.values[one] < 0:
            raise InconsistentFunctionalError(f"L(1) = {self.values[one]} is negative")


def rectangle(dim: int, mode: Mode, pole: int, degree: int) -> list:
    """The keys m <= pole, |gamma| <= degree of the algebra, pole by pole."""
    return [(gamma, m) for m in range(pole + 1)
            for t in range(2 * m if mode is Mode.APLUS else 0, degree + 1)
            for gamma in exponents_of_degree(dim, t)]


def random_value(rng: random.Random) -> Fraction:
    """Small values mostly, now and then a zero, a wide one, one that rounds
    to -0.0 and one past float range."""
    roll = rng.randrange(20)
    if roll == 0:
        return Fraction(0)
    if roll == 1:
        return Fraction(rng.randint(-2 ** 200, 2 ** 200), rng.randint(1, 2 ** 150))
    if roll == 2:
        return Fraction(-1, 10 ** 400)
    if roll == 3:
        return Fraction(rng.choice((-1, 1)) * 10 ** 400, 3)
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


@st.composite
def tables(draw):
    """(dim, mode, basis, values): a Gram window and a table on the keys up
    to two pole orders and four degrees past it, in shuffled stored order.
    The values are a measure's moments (the relations hold) with a few
    bumped, or unrelated random values; one pole order is thinned, or two
    in a row, so reads lift once or twice, and now and then a key goes with
    its lifts."""
    dim, laurent = draw(st.integers(1, 3), label="dim"), draw(st.booleans(), label="laurent")
    mode = Mode.LAURENT if laurent else Mode.APLUS
    pole = draw(st.integers(0, 1 if dim == 3 else 2), label="pole")
    degree = draw(st.integers(2 * pole if mode is Mode.APLUS else 0, 2 * pole + 2), label="degree")
    if dim == 3:
        degree = min(degree, 3)
    rng = random.Random(draw(st.integers(0, 2 ** 32), label="seed"))
    keys = rectangle(dim, mode, 2 * pole + 2, 2 * degree + 4)
    if draw(st.booleans(), label="moments"):
        atoms = tuple((Fraction(rng.randint(1, 5), rng.randint(1, 4)),
                       tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 5))
                             for _ in range(dim))) for _ in range(rng.randint(1, 3)))
        L = moments_of_measure(DiscreteMeasure(dim, atoms),
                               truncated_basis(pole + 1, max(degree + 2, 2 * pole + 2), dim, mode))
        values = {key: L.values[key] for key in keys if key in L.values}
        for key in rng.sample(sorted(values), min(len(values), rng.randint(0, 3))):
            values[key] += random_value(rng)
    else:
        values = {key: random_value(rng) for key in keys}
    level = rng.randint(0, 2 * pole)
    levels = (level, level + 1) if draw(st.booleans(), label="two") else (level,)
    for key in [key for key in values if key[1] in levels and rng.random() < 0.7]:
        del values[key]
    for gamma, m in rng.sample(keys, min(len(keys), draw(st.integers(0, 2), label="holes"))):
        values.pop((gamma, m), None)
        for k in range(dim):
            values.pop((gamma[:k] + (gamma[k] + 2,) + gamma[k + 1:], m + 1), None)
    order = list(values)
    rng.shuffle(order)
    return dim, mode, truncated_basis(pole, degree, dim, mode), {key: values[key] for key in order}


def document(dim: int, mode: Mode, values: dict, rng: random.Random) -> dict:
    """The functional file of ``values``, each value written p/q over a
    random common factor, so the loader has to reduce it."""
    entries = []
    for (gamma, m), value in values.items():
        k = rng.choice((1, 1, 2, 6, 35))
        text = f"{value.numerator * k}/{value.denominator * k}" if k > 1 or rng.random() < 0.5 \
            else format_fraction(value)
        entries.append({"exp": list(gamma), "pole_order": m, "value": text})
    return {"nvars": dim, "mode": mode.value, "scalar_kind": SCALAR_EXACT, "entries": entries}


def fraction_repr(dim: int, mode: Mode, values: dict, pole_max: int, degree_max: int) -> str:
    return (f"LinearFunctional(nvars={dim}, mode={mode!r}, scalar_kind={SCALAR_EXACT!r}, "
            f"values={values!r}, pole_max={pole_max}, degree_max={degree_max})")


@settings(max_examples=150, deadline=None)
@given(tables(), st.integers(0, 2 ** 16))
def test_pair_table_reads_and_audits_as_the_fraction_table(table, seed):
    """The constructor's and the loader's pair tables read, audit, clear and
    convert to floats as the Fraction table does, and show the same values."""
    dim, mode, basis, values = table
    oracle = FractionTable(dim, values)
    built = LinearFunctional(dim, mode, SCALAR_EXACT, values)
    loaded = serialize.functional_from_dict(
        json.loads(json.dumps(document(dim, mode, values, random.Random(seed)))))
    for L in (built, loaded):
        assert (L.top_pole, L.top_degree) == (oracle.top_pole, oracle.top_degree)
        assert all(type(n) is int and type(d) is int and d > 0 and Fraction(n, d) == values[key]
                   and Fraction(n, d).denominator == d for key, (n, d) in L._stored.items())
        assert L.check_reduction_relations() == oracle.audit()
        assert outcome(L.validate) == outcome(oracle.validate)
        window = MomentWindow.of_basis(basis)
        reads = {key: outcome(lambda: oracle.key_value(*key)) for key in window.classes}
        assert {key: outcome(lambda: L._key_value(*key)) for key in window.classes} == reads
        assert outcome(lambda: window.cleared(lambda key: L._stored_value(*key))) == \
            outcome(lambda: psd._int_rows(window.matrix(lambda key: oracle.key_value(*key))))
        # the float psd-check read: an exact value rounding to -0.0 stays -0.0
        zero = L.zero_scalar()
        got = outcome(lambda: [list(map(bits, row)) for row in window.matrix(
            lambda key: float(zero + L._key_value(*key)))])
        want = outcome(lambda: [list(map(bits, row)) for row in window.matrix(
            lambda key: float(Fraction(0) + oracle.key_value(*key)))])
        assert got == want
        got = outcome(lambda: gram_matrix(L, basis))
        assert got == outcome(lambda: window.matrix(lambda key: oracle.key_value(*key)))
        if type(got) is list:
            assert all(type(x) is Fraction for row in got for x in row)
        # recovery's float read: float(Fraction) bits, overflow text and missing key
        for key in [*values, ((0,) * dim, oracle.top_pole + 1)]:
            want = outcome(lambda: float(values[key])) if key in values else \
                (DomainOverflowError, str(DomainOverflowError(key)))
            assert bits(outcome(lambda: L.float_value(*key))) == bits(want)
        assert list(L.values.items()) == list(values.items())
        assert all(type(v) is Fraction for v in L.values.values())
        assert repr(L) == fraction_repr(dim, mode, values, L.pole_max, L.degree_max)
    assert built == loaded and loaded == LinearFunctional(dim, mode, SCALAR_EXACT, values)


@settings(max_examples=100, deadline=None)
@given(tables())
def test_float_tables_keep_their_bits(table):
    """A float table is stored as given: -0.0 stays -0.0, and the Gram
    matrix reads it as 0.0, as the Fraction path's sum from 0.0 did."""
    dim, mode, basis, values = table
    rng = random.Random(len(values))
    floats = {key: rng.choice((-0.0, 0.0)) if rng.random() < 0.2 or abs(v) > 10 ** 300
              else float(v) for key, v in values.items()}
    L = LinearFunctional(dim, mode, SCALAR_FLOAT, floats)
    assert [x.hex() for x in L.values.values()] == [x.hex() for x in floats.values()]
    assert L._stored is L.values
    window = MomentWindow.of_basis(basis)

    def oracle(key):
        gamma, m = key
        if key in floats:
            return floats[key]
        for lift in range(1, max((m for _, m in floats), default=-1) - m + 1):
            total, terms = 0.0, norm_squared_power(dim, lift).terms.items()
            lifted = [(tuple(map(add, gamma, exp)), m + lift) for exp, _ in terms]
            if all(k in floats for k in lifted):
                for k, (_, coeff) in zip(lifted, terms):
                    total += coeff * floats[k]
                return total
        raise DomainOverflowError(key)
    got = outcome(lambda: [[x.hex() for x in row] for row in gram_matrix(L, basis)])
    assert got == outcome(lambda: [[(0.0 + x).hex() for x in row]
                                   for row in window.matrix(oracle)])


@st.composite
def measures(draw):
    dim, laurent = draw(st.integers(1, 3)), draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    atoms = tuple((Fraction(rng.randint(1, 9), rng.randint(1, 7)),
                   tuple(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)) for _ in range(dim)))
                  for _ in range(rng.randint(1, 4)))
    origin = Fraction(0) if laurent else Fraction(rng.randint(0, 3), rng.randint(1, 5))
    mode = Mode.LAURENT if laurent else Mode.APLUS
    pole = draw(st.integers(0, 1))
    degree = draw(st.integers(2 * pole if not laurent else 0, 2 * pole + (2 if dim < 3 else 1)))
    return DiscreteMeasure(dim, atoms, origin), mode, pole, degree


@settings(max_examples=60, deadline=None)
@given(measures())
def test_extend_writes_the_fraction_texts(case):
    """``extend`` writes each stored pair's text; the Fraction path wrote
    format_fraction of each value, sorted by pole order then grlex."""
    measure, mode, pole, degree = case
    L = moments_of_measure(measure, truncated_basis(pole, degree, measure.dim, mode))
    fractions = L.values
    entries = [{"exp": list(gamma), "pole_order": m, "value": format_fraction(fractions[(gamma, m)])}
               for gamma, m in sorted(fractions, key=lambda key: (
                   key[1], sum(key[0]), tuple(-e for e in key[0])))]
    want = {"nvars": L.nvars, "mode": mode.value, "scalar_kind": SCALAR_EXACT,
            "pole_max": L.pole_max, "degree_max": L.degree_max, "entries": entries}
    assert serialize.json_text(serialize.functional_to_dict(L)) == serialize.json_text(want)
    assert serialize.json_text(serialize.functional_to_dict(
        LinearFunctional(L.nvars, mode, SCALAR_EXACT, fractions,
                         L.pole_max, L.degree_max))) == serialize.json_text(want)


def test_extend_report_and_summary(tmp_path, capsys):
    measure = DiscreteMeasure(2, ((Fraction(1, 2), (Fraction(1), Fraction(-2, 3))),
                                  (Fraction(3), (Fraction(1, 4), Fraction(5)))), Fraction(1, 3))
    path = tmp_path / "measure.json"
    serialize.dump_json(serialize.measure_to_dict(measure), path)
    assert cli.main(["extend", str(path), "-M", "1", "-D", "3"]) == 0
    out, err = capsys.readouterr()
    L = moments_of_measure(measure, truncated_basis(1, 3, 2, Mode.APLUS))
    assert json.loads(out)["entries"] == [
        {"exp": list(gamma), "pole_order": m, "value": format_fraction(v)}
        for (gamma, m), v in sorted(L.values.items(), key=lambda kv: (
            kv[0][1], sum(kv[0][0]), tuple(-e for e in kv[0][0])))]
    assert err == f"extended to {len(L.values)} stored keys (pole <= 2, degree <= 6)\n"


# int() refuses longer digit strings (3.10 before 3.10.7 has no limit)
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
GRAMMAR = ["4/6", "-0/7", "3/0", "+1", " 1/2", "1.5", "1e3", "٣", "٣/٤",
           "３/4", "3/-4", "1/", "/2", "--1", "1-2", "-", "", "1/2/3", "1_0",
           "1" * (LIMIT + 1), "-" + "7" * (LIMIT + 1), "1/" + "3" * (LIMIT + 1),
           "9" * LIMIT + "/" + "8" * LIMIT]


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 3), laurent=st.booleans(),
       texts=st.lists(st.one_of(st.sampled_from(GRAMMAR),
                                st.builds(lambda p, q, k: f"{p * k}/{q * k}" if q > 1 else str(p),
                                          st.integers(-50, 50), st.integers(1, 9),
                                          st.integers(1, 4)),
                                st.integers(-9, 9)),  # a JSON int: the entry-by-entry path
                      min_size=1, max_size=6),
       bad_key=st.integers(-1, 5))
def test_value_texts_load_and_fault_as_the_fraction_loader(dim, laurent, texts, bad_key):
    """Every value of a column, a text or an int, loads to the Fraction that
    _rational gives it, and the first faulty text, or else a faulty key, is
    named with the Fraction loader's error."""
    mode = Mode.LAURENT if laurent else Mode.APLUS
    keys = rectangle(dim, mode, 1, 4)[:len(texts)]
    entries = [{"exp": list(gamma), "pole_order": m, "value": text}
               for (gamma, m), text in zip(keys, texts)]
    if bad_key < len(entries):
        entries[bad_key]["exp"] = [-1] + entries[bad_key]["exp"][1:]
    data = {"nvars": dim, "mode": mode.value, "scalar_kind": SCALAR_EXACT, "entries": entries}

    def fraction_loader():
        values = {(tuple(e["exp"]), e["pole_order"]): serialize._rational(e["value"])
                  for e in entries}
        return LinearFunctional(dim, mode, SCALAR_EXACT, values)
    got = outcome(lambda: serialize.functional_from_dict(data))
    want = outcome(fraction_loader)
    assert type(got) is type(want)
    if type(want) is tuple:
        assert got == want
    else:
        assert list(got.values.items()) == list(want.values.items()) and got == want
