from __future__ import annotations

import random
from fractions import Fraction
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentext import scenarios
from momentext.extalg import Mode, a_normalize, embed_poly, generator_f, truncated_basis
from momentext.functionals import psd
from momentext.functionals.core import (DiscreteMeasure, DomainOverflowError,
                                        InconsistentFunctionalError,
                                        LinearFunctional, MomentWindow,
                                        SCALAR_EXACT, SCALAR_FLOAT, _moment_table,
                                        cs_chain_check, extend_from_measure,
                                        gram_matrix, moments_of_measure,
                                        polynomial_moments)
from momentext.scalars import as_fraction
from momentext.polyalg import (DimensionMismatchError, Poly, exponents_of_degree,
                               exponents_up_to_degree, grlex_key,
                               norm_squared, norm_squared_power)


def two_atom_measure() -> DiscreteMeasure:
    return DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1), Fraction(2))),
        (Fraction(1, 2), (Fraction(-1), Fraction(1, 3)))))


def random_measure(rng: random.Random, dim: int, max_atoms: int = 4,
                   min_atoms: int = 1) -> DiscreteMeasure:
    atoms = []
    seen = set()
    while len(atoms) < rng.randint(min_atoms, max_atoms):
        p = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
        if all(c == 0 for c in p) or p in seen:
            continue
        seen.add(p)
        atoms.append((Fraction(rng.randint(1, 4), rng.randint(1, 3)), p))
    return DiscreteMeasure(dim, atoms=tuple(atoms))


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(2, atoms=((Fraction(-1), (Fraction(1), Fraction(0))),))
    with pytest.raises(ValueError):
        DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(0), Fraction(0))),))
    with pytest.raises(ValueError):
        DiscreteMeasure(2, sphere_atoms=((Fraction(1), (Fraction(1), Fraction(1))),))
    with pytest.raises(ValueError):
        DiscreteMeasure(2, origin_mass=Fraction(-1))
    ok = DiscreteMeasure(2, sphere_atoms=((Fraction(2), (Fraction(3, 5), Fraction(4, 5))),))
    assert ok.total_mass() == 2


def test_moment_values_single_atom():
    mu = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(2))),))
    L = extend_from_measure(mu, 1, 2)
    assert L.value((0, 0)) == 1
    assert L.value((1, 1), 1) == Fraction(2, 5)           # f12 at (1,2)
    assert L.value((2, 0), 1) == Fraction(1, 5)
    assert L.apply(generator_f(1, 2, 2)) == Fraction(2, 5)
    assert L.apply_poly(Poly.variable(2, 1) ** 2) == 4


def test_direction_and_origin_contributions():
    mu = DiscreteMeasure(
        2, origin_mass=Fraction(1, 2),
        sphere_atoms=((Fraction(1), (Fraction(3, 5), Fraction(4, 5))),))
    L = extend_from_measure(mu, 1, 2)
    # polynomial keys above degree 0 see nothing; L(1) sees all the mass
    assert L.value((0, 0)) == Fraction(3, 2)
    assert L.value((1, 0)) == 0
    assert L.value((2, 0)) == 0
    # degree-matching keys read t^gamma, plus e1-pinned origin mass
    assert L.value((1, 1), 1) == Fraction(12, 25)
    assert L.value((2, 0), 1) == Fraction(9, 25) + Fraction(1, 2)


def test_moments_match_characters():
    # integration against a one-atom measure is evaluation at the atom
    rng = random.Random(3)
    from momentext.extalg import Character
    for _ in range(25):
        pt = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        if all(c == 0 for c in pt):
            continue
        mu = DiscreteMeasure(2, atoms=((Fraction(1), pt),))
        L = extend_from_measure(mu, 2, 4)
        chi = Character.at_point(pt)
        for a in truncated_basis(2, 4, 2):
            assert L.apply(a) == chi(a)


def test_rectangle_covers_gram_products():
    mu = two_atom_measure()
    basis = truncated_basis(2, 6, 2)
    L = moments_of_measure(mu, basis)
    G = gram_matrix(L, basis)  # must not overflow the stored keys
    assert len(G) == len(basis)
    assert all(G[i][j] == G[j][i] for i in range(len(G)) for j in range(len(G)))
    b0 = basis[0]
    assert G[0][0] == L.apply(b0 * b0)


def test_reduction_relations_hold_and_break():
    mu = two_atom_measure()
    L = extend_from_measure(mu, 2, 4)
    assert L.check_reduction_relations() == []
    L.validate()
    tampered = dict(L.values)
    tampered[((0, 0), 0)] = tampered[((0, 0), 0)] + 1
    bad = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, tampered)
    assert bad.check_reduction_relations() != []
    with pytest.raises(InconsistentFunctionalError):
        bad.validate()


def test_exact_functionals_ignore_the_tolerance():
    # a violation far below any float tolerance still counts on the exact path
    L = extend_from_measure(two_atom_measure(), 1, 2)
    nudged = dict(L.values)
    nudged[((0, 0), 0)] += Fraction(1, 10 ** 30)
    exact = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, nudged)
    assert exact.check_reduction_relations(1.0) == [((0, 0), 0)]
    with pytest.raises(InconsistentFunctionalError):
        exact.validate(1.0)
    approx = LinearFunctional(2, Mode.APLUS, SCALAR_FLOAT, nudged)
    assert approx.check_reduction_relations(1e-9) == []
    approx.validate(1e-9)
    tiny = {((0, 0), 0): Fraction(-1, 10 ** 30)}
    with pytest.raises(InconsistentFunctionalError):
        LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, tiny).validate(1.0)
    LinearFunctional(2, Mode.APLUS, SCALAR_FLOAT, tiny).validate(1e-9)


def test_negative_mass_rejected_by_validate():
    L = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, {((0, 0), 0): Fraction(-1)})
    with pytest.raises(InconsistentFunctionalError):
        L.validate()


def test_apply_lifts_missing_keys():
    # only pole-1 degree-2 keys stored; L(1) is recovered through the lift
    vals = {((2, 0), 1): Fraction(1, 3), ((1, 1), 1): Fraction(0),
            ((0, 2), 1): Fraction(2, 3)}
    L = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, vals)
    one = embed_poly(Poly.constant(2, 1))
    assert L.apply(one) == 1
    with pytest.raises(DomainOverflowError):
        L.apply(embed_poly(Poly.variable(2, 0)))


def fraction_apply(L, a):
    """The per-term loop ``apply`` ran before its exact path summed in integers."""
    total = L.zero_scalar()
    for gamma, coeff in a.numerator.terms.items():
        total += coeff * L._key_value(gamma, a.pole_order)
    return total


def test_exact_apply_matches_fraction_loop_on_edge_cases():
    L = extend_from_measure(two_atom_measure(), 1, 2)
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    thinned = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT,
                               {k: v for k, v in L.values.items()
                                if k not in (((0, 0), 0), ((1, 0), 0))})
    # 1/2 + (3/7) x1: both keys are missing and served by _lifted_sum
    a = embed_poly(Poly(2, {(0, 0): Fraction(1, 2), (1, 0): Fraction(3, 7)}))
    assert all((gamma, 0) not in thinned.values for gamma in a.numerator.terms)
    assert all(thinned._lifted_sum(gamma, 0, 1) == L.values[(gamma, 0)]
               for gamma in a.numerator.terms)
    zero = embed_poly(Poly.zero(2))
    fractional = a_normalize(Poly(2, {(2, 0): Fraction(-5, 3), (1, 1): Fraction(2, 9),
                                      (0, 2): Fraction(1, 4)}), 1)
    for functional in (L, thinned):
        for element in (a, zero, fractional, embed_poly(x1 * x2 - x2 * x2)):
            got, want = functional.apply(element), fraction_apply(functional, element)
            assert type(got) is Fraction and got == want
            floats = as_float_functional(functional)
            got, want = floats.apply(element), fraction_apply(floats, element)
            assert type(got) is float and got.hex() == want.hex()
    assert thinned.apply(a) == L.apply(a) == Fraction(1, 2) * L.value((0, 0)) \
        + Fraction(3, 7) * L.value((1, 0))
    assert L.apply(zero) == 0 and type(L.apply(zero)) is Fraction
    assert as_float_functional(L).apply(zero).hex() == (0.0).hex()


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), laurent=st.booleans(), pole=st.integers(0, 2),
       degree=st.integers(0, 3), seed=st.integers(0, 10 ** 6))
def test_exact_apply_matches_fraction_loop(dim, laurent, pole, degree, seed):
    """Same value and type (same float bits on a float functional), or the
    same error, on products of basis elements with fractional coefficients,
    over a full table and one with keys below its top pole removed."""
    mode = Mode.LAURENT if laurent else Mode.APLUS
    if mode is Mode.APLUS:
        degree = max(degree, 2 * pole)
    rng = random.Random(seed)
    mu = scenarios.random_measure(rng, dim, allow_origin=not laurent,
                                  allow_sphere=not laurent)
    basis = truncated_basis(pole, degree, dim, mode)
    L = moments_of_measure(mu, basis)
    values = dict(L.values)
    for key in rng.sample(sorted(values), len(values) // 3):
        if key[1] < L.top_pole:
            del values[key]
    thinned = LinearFunctional(dim, mode, SCALAR_EXACT, values, L.pole_max, L.degree_max)
    elements = [embed_poly(Poly.zero(dim), mode)]
    for _ in range(6):
        element = elements[0]
        for _ in range(rng.randint(1, 3)):
            b = rng.choice(basis) * rng.choice(basis)
            scale = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            element = element + b * embed_poly(Poly.constant(dim, scale), mode)
        elements.append(element)
    for functional in (L, thinned, as_float_functional(L), as_float_functional(thinned)):
        for a in elements:
            got = outcome(lambda: functional.apply(a))
            want = outcome(lambda: fraction_apply(functional, a))
            assert type(got) is type(want)
            assert got.hex() == want.hex() if type(got) is float else got == want


def test_domain_overflow_names_the_key():
    mu = two_atom_measure()
    L = extend_from_measure(mu, 0, 2)
    with pytest.raises(DomainOverflowError) as err:
        L.apply_poly(Poly.variable(2, 0) ** 5)
    assert "(5, 0)" in str(err.value)


def test_aplus_keys_validated():
    with pytest.raises(ValueError):
        LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, {((1, 0), 1): Fraction(1)})


def test_negative_key_exponents_rejected():
    with pytest.raises(ValueError, match="negative"):
        LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, {((-1, 1), 0): Fraction(5)})
    with pytest.raises(ValueError, match="negative"):
        LinearFunctional(1, Mode.LAURENT, SCALAR_FLOAT, {((-2,), 1): 1.0})


@pytest.mark.parametrize("key", [((1.0, 0), 0), ((True, 0), 0), ((1, 0), 1.0), ((1, 0), True),
                                 ((Fraction(1), 0), 0)])
def test_key_exponents_and_pole_orders_must_be_ints(key):
    # such keys would be written as "exp": [1.0, 0] or "pole_order": true,
    # which the loader refuses
    for kind, value in ((SCALAR_EXACT, Fraction(1)), (SCALAR_FLOAT, 1.0)):
        with pytest.raises(ValueError, match="must hold ints"):
            LinearFunctional(2, Mode.LAURENT, kind, {key: value})


def test_stored_extents_ignore_the_declared_maxima():
    values = {((0, 0), 0): Fraction(1), ((2, 1), 1): Fraction(1, 2),
              ((0, 4), 0): Fraction(3)}
    L = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, values, pole_max=7, degree_max=200)
    assert (L.pole_max, L.degree_max) == (7, 200)
    assert (L.top_pole, L.top_degree) == (1, 4)
    # declared maxima below the stored keys are raised to them
    L = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, values)
    assert (L.pole_max, L.degree_max, L.top_pole, L.top_degree) == (1, 4, 1, 4)
    empty = LinearFunctional(1, Mode.LAURENT, SCALAR_FLOAT, {}, degree_max=3)
    assert (empty.pole_max, empty.degree_max, empty.top_pole, empty.top_degree) == (0, 3, -1, -1)


def oracle_construction(nvars, mode, kind, values, pole_max, degree_max) -> tuple:
    """(values, top_pole, top_degree, pole_max, degree_max) as the
    constructor built them key by key, before it checked clean tables a
    column at a time."""
    top_pole = top_degree = -1
    clean = {}
    for (gamma, m), value in values.items():
        gamma = tuple(gamma)
        if len(gamma) != nvars:
            raise DimensionMismatchError(f"key exponent {gamma} has wrong length")
        if type(m) is not int or any(type(e) is not int for e in gamma):
            raise ValueError(f"key {(gamma, m)} must hold ints, not floats or bools")
        if m < 0:
            raise ValueError("pole order in key must be >= 0")
        if any(e < 0 for e in gamma):
            raise ValueError(f"key exponent {gamma} has a negative entry")
        if mode is Mode.APLUS and sum(gamma) < 2 * m:
            raise ValueError(f"key {(gamma, m)} lies outside the bounded-generator algebra")
        clean[(gamma, m)] = as_fraction(value) if kind == SCALAR_EXACT else float(value)
        top_pole, top_degree = max(top_pole, m), max(top_degree, sum(gamma))
    for name, declared in (("pole_max", pole_max), ("degree_max", degree_max)):
        if isinstance(declared, bool) or not isinstance(declared, int):
            raise ValueError(f"{name} must be an integer, not {declared!r}")
        if declared < 0:
            raise ValueError(f"declared {name} {declared} is negative")
    return clean, top_pole, top_degree, max(pole_max, top_pole), max(degree_max, top_degree)


class Exponents(tuple):
    """An exponent sequence or key that is not exactly a tuple (a list cannot
    be a dict key)."""


class Rational(Fraction):
    pass


KEY_FAULTS = ["entry", "length", "exponents", "key", "pole", "value"]


@st.composite
def key_tables(draw):
    """Constructor arguments: a clean table of 0-8 keys, and in half the
    draws one or two of its keys with one fault each (an odd exponent
    entry, length, exponent or key type, pole order or value), with odd
    declared maxima too."""
    nvars = draw(st.integers(0, 3))
    mode = draw(st.sampled_from([Mode.APLUS, Mode.LAURENT]))
    kind = draw(st.sampled_from([SCALAR_EXACT, SCALAR_FLOAT]))
    odd = draw(st.booleans())
    values = (st.fractions(max_denominator=9) if kind == SCALAR_EXACT
              else st.floats(allow_nan=False))
    odd_values = st.sampled_from([3, -1, True, 0.5, "1/2", " 3 ", "x", Fraction(2, 3),
                                  Rational(1, 3), 2.0])
    count = draw(st.integers(0, 8))
    faults = dict.fromkeys(range(count))
    if odd and count:
        for at in draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=2)):
            faults[at] = draw(st.sampled_from(KEY_FAULTS))
    table = {}
    for fault in faults.values():
        gamma = draw(st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars))
        if fault == "entry" and gamma:
            gamma[draw(st.integers(0, nvars - 1))] = draw(st.sampled_from([-1, -2, True, False,
                                                                           1.0, 2.5]))
        elif fault == "length":
            gamma = gamma[1:] if gamma and draw(st.booleans()) else gamma + [0]
        gamma = Exponents(gamma) if fault == "exponents" else tuple(gamma)
        top = int(sum(gamma)) // 2 if mode is Mode.APLUS else 3
        m = draw(st.integers(0, max(top, 0)))
        if fault == "pole":  # past the top: outside the bounded-generator algebra on Aplus
            m = draw(st.sampled_from([-1, top + 1, top + 2, True, 1.0]))
        key = Exponents((gamma, m)) if fault == "key" else (gamma, m)
        table[key] = draw(odd_values if fault == "value" else values)
    maxima = st.integers(0, 6)
    if odd:
        maxima = st.one_of(maxima, maxima, maxima, st.sampled_from([-1, -3, 1.5, 2.0, True, "2"]))
    return nvars, mode, kind, table, draw(maxima), draw(maxima)


def constructed(*args) -> tuple:
    L = LinearFunctional(*args)
    return L.values, L.top_pole, L.top_degree, L.pole_max, L.degree_max


@settings(max_examples=500, deadline=None)
@given(args=key_tables())
def test_constructor_column_check_matches_key_by_key_loop(args):
    want = outcome(lambda: oracle_construction(*args))
    got = outcome(lambda: constructed(*args))
    assert got == want
    if isinstance(want[0], dict):  # built: the same items in the same order, of the same types
        assert list(got[0].items()) == list(want[0].items())
        assert list(map(type, got[0])) == list(map(type, want[0]))
        assert list(map(type, got[0].values())) == list(map(type, want[0].values()))


# float.hex of the Gram entries below, captured before ||x||^(2t) had one
# source: a lift must keep summing its terms in the same order.
FLOAT_LIFT_GRAM_HEX = [
    ['0x1.e5207914d4864p+11', '0x1.04d4316b670e4p+13', '0x1.796359ace092ep+13',
     '-0x1.cc4f8e984439cp+11', '0x1.53275591c33ddp+10', '-0x1.dc1fb9ade6cfcp+9'],
    ['0x1.04d4316b670e4p+13', '-0x1.cc4f8e984439cp+11', '0x1.53275591c33ddp+10',
     '0x1.3568840935198p+13', '-0x1.beba972a5ffffp+10', '0x1.3d80b105a2bdfp+14'],
    ['0x1.796359ace092ep+13', '0x1.53275591c33ddp+10', '-0x1.dc1fb9ade6cfcp+9',
     '-0x1.beba972a5ffffp+10', '0x1.3d80b105a2bdfp+14', '-0x1.09590598e803bp+13'],
    ['-0x1.cc4f8e984439cp+11', '0x1.3568840935198p+13', '-0x1.beba972a5ffffp+10',
     '-0x1.890011d58e380p+11', '0x1.06e6ee7a25208p+17', '-0x1.3a319febbada2p+11'],
    ['0x1.53275591c33ddp+10', '-0x1.beba972a5ffffp+10', '0x1.3d80b105a2bdfp+14',
     '0x1.06e6ee7a25208p+17', '-0x1.3a319febbada2p+11', '-0x1.769f56613958bp+12'],
    ['-0x1.dc1fb9ade6cfcp+9', '0x1.3d80b105a2bdfp+14', '-0x1.09590598e803bp+13',
     '-0x1.3a319febbada2p+11', '-0x1.769f56613958bp+12', '-0x1.b719c6f9d9740p+7'],
]


def test_float_lift_from_top_pole_is_bit_stable():
    # stored only at pole 2, read at pole 0: every entry lifts by ||x||^4
    rng = random.Random(5)
    values = {(g, 2): float(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997)))
              for t in range(4, 9) for g in exponents_of_degree(2, t)}
    L = LinearFunctional(2, Mode.APLUS, SCALAR_FLOAT, values)
    G = gram_matrix(L, truncated_basis(0, 2, 2))
    assert [[v.hex() for v in row] for row in G] == FLOAT_LIFT_GRAM_HEX


def test_polynomial_restriction_matches_direct_moments():
    rng = random.Random(11)
    for _ in range(10):
        mu = random_measure(rng, 2)
        L = extend_from_measure(mu, 2, 6)
        direct = polynomial_moments(mu, 12)
        restriction = L.polynomial_restriction()
        for gamma in exponents_up_to_degree(2, 12):
            assert restriction[gamma] == direct.value(gamma)


def test_restrict_to_degree():
    mu = two_atom_measure()
    L = extend_from_measure(mu, 1, 3)
    low = L.restrict_to_degree(2)
    assert set(low.values) == {(g, 0) for g in exponents_up_to_degree(2, 2)}
    assert low.value((1, 1)) == L.value((1, 1))


def test_cs_chain_single_atom_degenerates():
    mu = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(2))),))
    L = extend_from_measure(mu, 2, 8)
    a = generator_f(1, 2, 2)
    report = cs_chain_check(L, a, 2)
    assert report.holds
    # probability one-atom measure: every chain term equals chi(a)^(2^k)
    assert len(set(report.chain_terms)) == 1
    assert report.chain_terms[0] == Fraction(2, 5) ** 4


def test_cs_chain_two_atoms_strict():
    mu = two_atom_measure()
    # k = 3 reads a^8 = x1^16/||x||^16, so the window needs pole order 8
    L = extend_from_measure(mu, 4, 8)
    a = generator_f(1, 1, 2)
    report = cs_chain_check(L, a, 3)
    assert report.holds
    assert report.chain_terms[0] <= report.chain_terms[-1]
    assert not report.top_power_vanishes


def test_cs_chain_vanishing_forces_zero():
    # atoms on the axis x1 = 0 kill every power of f11
    mu = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(0), Fraction(1))),
        (Fraction(2), (Fraction(0), Fraction(-3))),
    ))
    L = extend_from_measure(mu, 3, 12)
    a = generator_f(1, 1, 2)
    report = cs_chain_check(L, a, 2)
    assert report.holds
    assert report.top_power_vanishes
    assert report.vanishing_forces_zero


def test_cs_chain_k_zero_trivial():
    mu = two_atom_measure()
    L = extend_from_measure(mu, 1, 4)
    report = cs_chain_check(L, generator_f(1, 2, 2), 0)
    assert report.holds


def test_laurent_moments_reject_origin_support():
    mu = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(0))),),
                         origin_mass=Fraction(1))
    basis = truncated_basis(1, 2, 2, Mode.LAURENT)
    with pytest.raises(ValueError):
        moments_of_measure(mu, basis)


def test_laurent_moments_of_point_measure():
    mu = DiscreteMeasure(2, atoms=((Fraction(2), (Fraction(1), Fraction(2))),))
    basis = truncated_basis(1, 2, 2, Mode.LAURENT)
    L = moments_of_measure(mu, basis)
    inv = a_normalize(Poly.constant(2, 1), 1, Mode.LAURENT)
    assert L.apply(inv) == Fraction(2, 5)  # 2 * 1/||(1,2)||^2


# -- matrix assembly: MomentWindow against the entry-by-entry oracles ----------


def oracle_gram(L, basis):
    """The AElement-product Gram builder: G[i][j] = L(b_i * b_j) entry by entry."""
    n = len(basis)
    G = [[L.zero_scalar()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = L.apply(basis[i] * basis[j])
            G[i][j] = value
            G[j][i] = value
    return G


def oracle_localizing(L, g, monos):
    """M_g[i][j] = L(g * x^(a_i + a_j)) with one shifted Poly per entry."""
    size = len(monos)
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            shift = tuple(a + b for a, b in zip(monos[i], monos[j]))
            value = L.apply_poly(Poly(g.nvars, {tuple(x + y for x, y in zip(e, shift)): c
                                                for e, c in g.terms.items()}))
            out[i][j] = value
            out[j][i] = value
    return out


def oracle_moment_matrix(L, monos):
    size = len(monos)
    M = np.empty((size, size))
    for i, a in enumerate(monos):
        for j in range(i, size):
            value = float(L.value(tuple(x + y for x, y in zip(a, monos[j]))))
            M[i, j] = value
            M[j, i] = value
    return M


def as_float_functional(L):
    return LinearFunctional(L.nvars, L.mode, SCALAR_FLOAT,
                            {k: float(v) for k, v in L.values.items()},
                            pole_max=L.pole_max, degree_max=L.degree_max)


def same_entries(G, H):
    """Equal values of equal types, so float bits and Fraction values agree."""
    return (len(G) == len(H)
            and all(len(r) == len(s) and all(type(a) is type(b) and a == b
                                             for a, b in zip(r, s))
                    for r, s in zip(G, H)))


@pytest.mark.parametrize("dim,pole,degree", [(1, 1, 3), (1, 2, 4), (2, 1, 3),
                                              (2, 2, 4), (3, 1, 2)])
@pytest.mark.parametrize("mode", [Mode.APLUS, Mode.LAURENT])
def test_window_gram_matches_product_oracle(dim, pole, degree, mode):
    rng = random.Random(f"{dim}/{pole}/{degree}/{mode.value}")
    mu = random_measure(rng, dim, max_atoms=3)
    basis = truncated_basis(pole, degree, dim, mode)
    L = moments_of_measure(mu, basis)
    for functional in (L, as_float_functional(L)):
        assert same_entries(gram_matrix(functional, basis), oracle_gram(functional, basis))


def oracle_window(keys, star=lambda key: key):
    """MomentWindow's class table built on tuple keys: each upper entry
    star(k_i) + k_j is a tuple (reduced in one variable) and the entry below
    the diagonal its star.  Returns keys, classes, class_index, class_of,
    the row-major first-occurrence scan order and the table of keys."""
    keys = [(tuple(gamma), m) for gamma, m in keys]
    reduce = MomentWindow.reduce if any(len(g) == 1 for g, _ in keys) else None
    n = len(keys)
    table = [[None] * n for _ in range(n)]
    for i, (gi, mi) in enumerate(map(star, keys)):
        row = [(tuple(map(add, gi, gj)), mi + mj) for gj, mj in keys[i:]]
        for j, key in enumerate(map(reduce, row) if reduce else row, start=i):
            table[i][j] = key
            table[j][i] = star(key)
    scan_order = list(dict.fromkeys(key for row in table for key in row))
    classes = sorted(scan_order, key=lambda k: (k[1], grlex_key(k[0])))
    class_index = {key: c for c, key in enumerate(classes)}
    class_of = [[class_index[key] for key in row] for row in table]
    return keys, classes, class_index, class_of, scan_order, table


def hermitian_star(key):
    return key[0][::-1], key[1]


def embedded_star(key):
    (m, n, p), pole = key
    return (n, m, -p), pole


@st.composite
def window_inputs(draw):
    """Keys of d = 1..4 with poles, Hermitian Z^2 indices with negative
    entries, or those indices with a block p in {0, 1} as the semigroup
    pipelines embed them; zero, one or many keys, some of them repeated."""
    kind = draw(st.sampled_from(["poles", "hermitian", "embedded"]))
    if kind == "hermitian":
        key = st.tuples(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), st.just(0))
        star = hermitian_star
    elif kind == "embedded":
        key = st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 1)),
                        st.just(0))
        star = embedded_star
    else:
        key = st.tuples(st.tuples(*[st.integers(0, 5)] * draw(st.integers(1, 4))),
                        st.integers(0, 3))
        star = lambda key: key  # noqa: E731
    keys = draw(st.lists(key, max_size=9))
    if keys:
        keys += draw(st.lists(st.sampled_from(keys), max_size=3))
        keys = draw(st.permutations(keys))
    return keys, star


@settings(max_examples=300, deadline=None)
@given(window_inputs())
def test_packed_window_matches_tuple_oracle(inputs):
    keys, star = inputs
    window = MomentWindow(keys, star)
    assert (window.keys, window.classes, window.class_index, window.class_of,
            window._scan_order) == oracle_window(keys, star)[:5]


@settings(max_examples=150, deadline=None)
@given(inputs=window_inputs(), data=st.data())
def test_packed_window_fails_at_the_oracles_missing_class(inputs, data):
    keys, star = inputs
    window = MomentWindow(keys, star)
    if not window.classes:
        assert window.matrix(lambda key: 1 / 0) == []
        return
    missing = data.draw(st.sets(st.sampled_from(window.classes), min_size=1))

    def read(key):
        if key in missing:
            raise DomainOverflowError(key)
        return key

    table = oracle_window(keys, star)[5]
    first = next(key for row in table for key in row if key in missing)
    with pytest.raises(DomainOverflowError) as got:
        window.matrix(read)
    assert got.value.key == first
    assert window.matrix(lambda key: key) == table


def outcome(call):
    """call()'s result, or the type and text of what it raised."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)


@settings(max_examples=200, deadline=None)
@given(inputs=window_inputs(), seed=st.integers(0, 2 ** 16),
       fault=st.sampled_from(["none", "asymmetric", "float", "missing", "float and missing"]))
def test_cleared_window_matches_int_rows_of_its_matrix(inputs, seed, fault):
    """One coercion per class gives _int_rows(matrix) and its errors, floats
    and missing classes (every read fails before any coercion does, as in
    the matrix); on a read that breaks the star's symmetry both kernels
    raise the same error."""
    keys, star = inputs
    window = MomentWindow(keys, star)
    rng = random.Random(seed)
    values = {key: Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for key in window.classes}
    if fault != "asymmetric":  # a star pair reads one value
        values = {key: values[min(key, star(key))] for key in window.classes}
    if fault not in ("none", "asymmetric"):
        for i, key in enumerate(rng.sample(window.classes, min(4, len(window.classes)))):
            missing = fault == "missing" or (fault == "float and missing" and i % 2)
            values[key] = None if missing else float(values[key])

    def read(key):
        if values[key] is None:
            raise DomainOverflowError(key)
        return values[key]

    want = outcome(lambda: psd._int_rows(window.matrix(read)))
    assert outcome(lambda: window.cleared(read)) == want
    if fault in ("none", "asymmetric"):
        N, delta = want
        before = [row[:] for row in N]
        assert outcome(lambda: psd.psd_check_cleared(N, delta)) == \
            outcome(lambda: psd.psd_check_exact(window.matrix(read)))
        assert N == before


def test_window_edge_cases():
    assert MomentWindow([((1, 2), 0)]).class_of == [[0]]
    assert MomentWindow([((1, 2), 0)]).classes == [((2, 4), 0)]
    empty = MomentWindow([])
    assert (empty.keys, empty.classes, empty.class_index, empty.class_of,
            empty.matrix(lambda key: 1 / 0)) == ([], [], {}, [], [])
    with pytest.raises(DimensionMismatchError):
        MomentWindow([((1, 2), 0), ((1,), 0)])


def test_window_reduces_univariate_laurent_products():
    # x/|x|^2 * x/|x|^2 = x^2/|x|^4 reduces to 1/|x|^2: pole 1, not pole 2
    y = a_normalize(Poly.monomial(1, (1,)), 1, Mode.LAURENT)
    assert (y * y).pole_order == 1 and (y * y).numerator == Poly.constant(1, 1)
    window = MomentWindow.of_basis([y])
    assert window.classes == [((0,), 1)]
    for g in range(7):
        for m in range(4):
            reduced = a_normalize(Poly.monomial(1, (g,)), m, Mode.LAURENT)
            assert MomentWindow.reduce(((g,), m)) == \
                (next(iter(reduced.numerator.terms)), reduced.pole_order)
    assert MomentWindow.reduce(((2, 0), 1)) == ((2, 0), 1)
    L = LinearFunctional(1, Mode.LAURENT, SCALAR_EXACT, {((0,), 1): Fraction(1, 4)})
    assert gram_matrix(L, [y]) == [[Fraction(1, 4)]] == oracle_gram(L, [y])


@pytest.mark.parametrize("dim,pole,degree,mode", [(1, 1, 3, Mode.LAURENT),
                                                   (2, 1, 3, Mode.APLUS),
                                                   (3, 1, 2, Mode.LAURENT)])
def test_window_and_oracle_name_the_same_missing_key(dim, pole, degree, mode):
    rng = random.Random(dim)
    basis = truncated_basis(pole, degree, dim, mode)
    L = moments_of_measure(random_measure(rng, dim, max_atoms=2), basis)
    keys = sorted(L.values, key=lambda k: (k[1], k[0]))
    raised = 0
    for trial in range(12):
        dropped = set(rng.sample(keys, rng.randint(1, 4)))
        values = {k: v for k, v in L.values.items() if k not in dropped}
        partial = LinearFunctional(dim, mode, SCALAR_EXACT, values,
                                   pole_max=L.pole_max, degree_max=L.degree_max)
        try:
            expected = oracle_gram(partial, basis)
        except DomainOverflowError as err:
            with pytest.raises(DomainOverflowError) as got:
                gram_matrix(partial, basis)
            assert got.value.key == err.key
            raised += 1
        else:
            assert same_entries(gram_matrix(partial, basis), expected)
    assert raised > 0


def test_gram_refuses_non_monomial_basis():
    L = extend_from_measure(two_atom_measure(), 1, 2)
    with pytest.raises(ValueError, match="monomial"):
        gram_matrix(L, [generator_f(1, 1, 2) + generator_f(1, 2, 2)])
    with pytest.raises(ValueError, match="monomial"):
        gram_matrix(L, [embed_poly(Poly.monomial(2, (1, 0), 2))])
    assert gram_matrix(L, []) == []


def test_window_localizing_matrix_matches_loop(monkeypatch):
    from momentext import fibres
    x1, one = Poly.variable(2, 0), Poly.constant(2, 1)
    strip = fibres.Preorder(2, (x1, one - x1))
    # the generator products in the order t_positivity_check visits its patterns
    strip_localizers = [one, x1, one - x1, x1 * (one - x1)]
    inside = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1, 2), Fraction(1))),
        (Fraction(2, 3), (Fraction(1, 4), Fraction(-1)))))
    outside = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(2), Fraction(0))),))
    monos = exponents_up_to_degree(2, 2)
    cleared = []
    monkeypatch.setattr(fibres, "psd_check_cleared",
                        lambda N, delta: cleared.append((N, delta)) or psd.psd_check_cleared(N, delta))
    for mu in (inside, outside):
        L = polynomial_moments(mu, 6)
        cleared.clear()
        fibres.t_positivity_check(L, strip, 2)
        assert cleared == [psd._int_rows(oracle_localizing(L, g, monos)) for g in strip_localizers]
    short = polynomial_moments(inside, 4)
    with pytest.raises(DomainOverflowError) as got:
        fibres.t_positivity_check(short, strip, 2)
    with pytest.raises(DomainOverflowError) as err:
        oracle_localizing(short, x1, monos)
    assert got.value.key == err.value.key


def test_window_recovery_matrix_matches_loop():
    from momentext.functionals.recovery import _moment_matrix
    rng = random.Random(8)
    fixtures = [(two_atom_measure(), 3)] + [
        (random_measure(rng, dim, max_atoms=5, min_atoms=2), 2) for dim in (1, 2, 3)]
    for mu, degree in fixtures:
        monos = exponents_up_to_degree(mu.dim, degree)
        for L in (polynomial_moments(mu, 2 * degree),
                  as_float_functional(polynomial_moments(mu, 2 * degree))):
            M = _moment_matrix(L, monos)
            assert M.dtype == np.float64
            assert np.array_equal(M, oracle_moment_matrix(L, monos))
    short = polynomial_moments(two_atom_measure(), 4)
    monos = exponents_up_to_degree(2, 3)
    with pytest.raises(DomainOverflowError) as got:
        _moment_matrix(short, monos)
    with pytest.raises(DomainOverflowError) as err:
        oracle_moment_matrix(short, monos)
    assert got.value.key == err.value.key


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 3), pole=st.integers(0, 2), extra=st.integers(0, 2),
       laurent=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_window_gram_property(dim, pole, extra, laurent, seed):
    mode = Mode.LAURENT if laurent else Mode.APLUS
    degree = 2 * pole + extra if mode is Mode.APLUS or dim > 1 else pole + extra
    basis = truncated_basis(pole, degree, dim, mode)
    if len(basis) > 15:
        basis = basis[:15]
    mu = random_measure(random.Random(seed), dim, max_atoms=3)
    L = moments_of_measure(mu, basis)
    assert same_entries(gram_matrix(L, basis), oracle_gram(L, basis))


# Integer, negative and mixed-denominator coordinates.
COORDINATES = st.one_of(st.integers(-6, 6).map(Fraction),
                        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


def _key_value_of_measure(measure: DiscreteMeasure, gamma, m: int):
    """Integral of x^gamma / ||x||^(2m) against a measure, one key at a time:
    the oracle of ``_moment_table``.

    Generic in the scalar: an exact measure gives a Fraction, a float one a
    float.  Each point atom multiplies its weight by each coordinate power
    in turn, then divides by ||p||^(2m) when m > 0.
    Directions (and the origin mass, which is a direction pinned to e1) see
    only the |gamma| == 2m keys, where the fraction is homogeneous of degree
    zero with radial limit t^gamma.  An empty sum is the int 0.
    """
    total = 0
    for weight, point in measure.atoms:
        value = weight
        for base, power in zip(point, gamma):
            if power:
                value *= base ** power
        if m:
            value /= Fraction(sum(c * c for c in point)) ** m
        total += value
    degree_matches = sum(gamma) == 2 * m
    if degree_matches:
        if measure.origin_mass and all(g == 0 for g in gamma[1:]):
            total += measure.origin_mass
        for weight, direction in measure.sphere_atoms:
            value = Fraction(1)
            for base, power in zip(direction, gamma):
                if power:
                    value *= base ** power
            total += weight * value
    return total


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), laurent=st.booleans(), pole=st.integers(0, 3),
       degree=st.integers(0, 6), seed=st.integers(0, 10 ** 6),
       origin=st.booleans(), direction=st.booleans(),
       extra=st.lists(st.tuples(st.integers(1, 5), st.lists(COORDINATES, min_size=3,
                                                            max_size=3)), max_size=3))
def test_moment_table_matches_key_oracle(dim, laurent, pole, degree, seed, origin,
                                         direction, extra):
    rng = random.Random(seed)
    base = scenarios.random_measure(rng, dim, allow_origin=not laurent,
                                    allow_sphere=not laurent)
    atoms = base.atoms + tuple((Fraction(w), tuple(p[:dim])) for w, p in extra if any(p[:dim]))
    origin_mass, sphere = base.origin_mass, base.sphere_atoms
    if not laurent and origin:
        origin_mass += Fraction(2, 3)
    if not laurent and direction:
        sphere += ((Fraction(3, 2), scenarios.rational_direction(rng, dim)),)
    mu = DiscreteMeasure(dim, atoms, origin_mass, sphere)
    mode = Mode.LAURENT if laurent else Mode.APLUS
    table = _moment_table(mu, pole, degree, mode)
    assert list(table) == [(g, m) for m in range(pole + 1)
                           for t in range(0 if laurent else 2 * m, degree + 1)
                           for g in exponents_of_degree(dim, t)]
    for (gamma, m), value in table.items():
        assert type(value) is Fraction
        assert value == _key_value_of_measure(mu, gamma, m), (gamma, m)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), laurent=st.booleans(), pole=st.integers(0, 2),
       degree=st.integers(0, 5), seed=st.integers(0, 10 ** 6))
def test_measure_functionals_match_validated_construction(dim, laurent, pole, degree, seed):
    mode = Mode.LAURENT if laurent else Mode.APLUS
    mu = scenarios.random_measure(random.Random(seed), dim, allow_origin=not laurent,
                                  allow_sphere=not laurent)
    if mode is Mode.APLUS:
        degree = max(degree, 2 * pole)
    basis = truncated_basis(pole, degree, dim, mode)
    pole_max = 2 * max(b.pole_order for b in basis)
    degree_max = 2 * max(max(b.numerator.max_degree(), 0) for b in basis)
    cases = [(moments_of_measure(mu, basis),
              LinearFunctional(dim, mode, SCALAR_EXACT,
                               _moment_table(mu, pole_max, degree_max, mode),
                               pole_max=pole_max, degree_max=degree_max)),
             (polynomial_moments(mu, degree, mode),
              LinearFunctional(dim, mode, SCALAR_EXACT, _moment_table(mu, 0, degree, mode)))]
    for got, want in cases:
        assert got == want
        assert (got.pole_max, got.degree_max) == (want.pole_max, want.degree_max)
        # lifts stop at the largest stored pole, and windows are refused past the
        # largest stored degree; _trusted takes them to be pole_max and degree_max
        assert got.top_pole == want.top_pole == max(m for _, m in want.values)
        assert got.top_degree == want.top_degree == max(sum(g) for g, _ in want.values)
        assert list(got.values.items()) == list(want.values.items())


def oracle_reduction_failures(L: LinearFunctional) -> list:
    """The Fraction sums the exact relation check used to compare, key by key."""
    bad = []
    for (gamma, m), value in L.values.items():
        total = Fraction(0)
        for exp, coeff in norm_squared_power(L.nvars, 1).terms.items():
            lifted = (tuple(map(add, gamma, exp)), m + 1)
            if lifted not in L.values:
                break
            total += coeff * L.values[lifted]
        else:
            if total != value:
                bad.append((gamma, m))
    return bad


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 4), laurent=st.booleans(), pole=st.integers(0, 2),
       degree=st.integers(0, 4), seed=st.integers(0, 10 ** 6), data=st.data())
def test_integer_relation_check_matches_fraction_oracle(dim, laurent, pole, degree, seed,
                                                        data):
    mode = Mode.LAURENT if laurent else Mode.APLUS
    if mode is Mode.APLUS:
        degree = max(degree, 2 * pole)
    if dim == 4:
        pole, degree = min(pole, 1), min(degree, 3)
    mu = scenarios.random_measure(random.Random(seed), dim, allow_origin=not laurent,
                                  allow_sphere=not laurent)
    L = moments_of_measure(mu, truncated_basis(pole, degree, dim, mode))
    assert L.check_reduction_relations() == oracle_reduction_failures(L) == []
    keys = list(L.values)
    key = keys[data.draw(st.integers(0, len(keys) - 1), label="bumped key")]
    q = data.draw(st.integers(1, 10 ** 9), label="q")
    bumped = LinearFunctional(dim, mode, SCALAR_EXACT,
                              {**L.values, key: L.values[key] + Fraction(1, q)},
                              L.pole_max, L.degree_max)
    bad = bumped.check_reduction_relations()
    assert bad == oracle_reduction_failures(bumped)
    # the bumped key breaks its own relation whenever its lift is stored
    lifts = [(gamma, key[1] + 1) for gamma in
             (tuple(map(add, key[0], e)) for e in norm_squared_power(dim, 1).terms)]
    if all(lift in L.values for lift in lifts):
        assert key in bad


def oracle_tuple_audit(L: LinearFunctional) -> list:
    """The exact relation check on tuple keys: each of the d lifts of a key
    is built as a tuple and looked up, with the same integer comparison."""
    values = L.values
    bad = []
    for key, value in values.items():
        gamma, m = key
        num, den = 0, 1
        for k in range(L.nvars):
            lifted = values.get((gamma[:k] + (gamma[k] + 2,) + gamma[k + 1:], m + 1))
            if lifted is None:
                break
            q = lifted.denominator
            num, den = num * q + lifted.numerator * den, den * q
        else:
            if num * value.denominator != value.numerator * den:
                bad.append(key)
    return bad


@st.composite
def audit_tables(draw):
    """Exact functionals for the relation audit: a measure's moments on the
    keys m <= pole, |gamma| <= degree (every relation holds, and x_k^degree
    puts an exponent at the top degree), in a shuffled stored order, with
    some keys dropped (partial lifts) and some values bumped (planted
    violations); now and then the empty table."""
    dim, laurent = draw(st.integers(1, 4), label="dim"), draw(st.booleans(), label="laurent")
    mode = Mode.LAURENT if laurent else Mode.APLUS
    pole = draw(st.integers(0, 2), label="pole")
    degree = draw(st.integers(0, 6 if dim < 4 else 3), label="degree")
    if mode is Mode.APLUS:
        degree = max(degree, 2 * pole)
    rng = random.Random(draw(st.integers(0, 2 ** 32), label="seed"))
    mu = scenarios.random_measure(rng, dim, allow_origin=not laurent, allow_sphere=not laurent)
    values = _moment_table(mu, pole, degree, mode)
    keys = list(values)
    rng.shuffle(keys)
    dropped = set(keys[:draw(st.integers(0, len(keys) // 3), label="dropped")])
    bumped = set(draw(st.lists(st.sampled_from(keys), max_size=8), label="bumped"))
    table = {key: values[key] + (Fraction(1, rng.randint(1, 10 ** 9)) if key in bumped else 0)
             for key in keys if key not in dropped}
    if draw(st.integers(0, 19), label="empty") == 0:
        table = {}
    return LinearFunctional(dim, mode, SCALAR_EXACT, table)


@settings(max_examples=300, deadline=None)
@given(audit_tables())
def test_packed_relation_audit_matches_tuple_loop(L):
    bad = L.check_reduction_relations()
    assert bad == oracle_tuple_audit(L)
    if not bad:
        return
    with pytest.raises(InconsistentFunctionalError) as err:
        L.validate()
    assert str(err.value) == (f"reduction relation violated at keys {sorted(bad)[:5]}"
                              + ("..." if len(bad) > 5 else ""))


def test_packed_relation_audit_at_the_digit_edge():
    """A lift can put top_degree + 2 in a digit: at top degree 6 that is 8,
    which needs 4 bits where 6 needs 3.  In 3-bit digits the lift (8, 1) of
    x^6 would carry onto the stored key (0, 2); it is not stored, so the
    relation of x^6 is not compared."""
    L = LinearFunctional(1, Mode.LAURENT, SCALAR_EXACT,
                         {((6,), 0): Fraction(1), ((0,), 2): Fraction(2)})
    assert L.check_reduction_relations() == oracle_tuple_audit(L) == []


@st.composite
def gram_windows(draw):
    """A window and an exact functional of unrelated random values on the keys
    up to one pole order and two degrees past its Gram matrix's; keys of one
    pole order below the top are dropped, so reading them takes a lift, and
    now and then a key is dropped together with its lift, or at the top."""
    dim, laurent = draw(st.integers(1, 3), label="dim"), draw(st.booleans(), label="laurent")
    mode = Mode.LAURENT if laurent else Mode.APLUS
    pole = draw(st.integers(0, 2), label="pole")
    degree = draw(st.integers(2 * pole if mode is Mode.APLUS else 0, 2 * pole + 2), label="degree")
    if dim == 3:
        pole, degree = min(pole, 1), min(degree, 3)
    basis = truncated_basis(pole, degree, dim, mode)
    rng = random.Random(draw(st.integers(0, 2 ** 32), label="seed"))
    atom = DiscreteMeasure(dim, ((Fraction(1), (Fraction(1),) * dim),))
    keys = list(_moment_table(atom, 2 * pole + 1, 2 * degree + 2, mode))
    values = {key: Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for key in keys}
    level = draw(st.integers(0, 2 * pole), label="lifted level")
    lifted = [key for key in keys if key[1] == level]
    for key in rng.sample(lifted, draw(st.integers(0, len(lifted)), label="lifted")):
        del values[key]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2), label="missing"):
        values.pop(key, None)
        for k in range(dim):
            values.pop((key[0][:k] + (key[0][k] + 2,) + key[0][k + 1:], key[1] + 1), None)
    return LinearFunctional(dim, mode, SCALAR_EXACT, values), basis


@settings(max_examples=200, deadline=None)
@given(gram_windows())
def test_window_read_matches_int_rows_of_the_gram_matrix(inputs):
    """psd-check's exact read, one coerced value per class, is the cleared
    Gram matrix, and a key missing from both fails at the same key."""
    L, basis = inputs
    got = outcome(lambda: MomentWindow.of_basis(basis).cleared(lambda key: L._key_value(*key)))
    assert got == outcome(lambda: psd._int_rows(gram_matrix(L, basis)))
    assert got[0] is DomainOverflowError or isinstance(got[1], int)


def test_window_read_lifts_and_fails_as_the_gram_matrix():
    """Every class of the Laurent (1, 3) window in two variables sits at
    pole 2; with pole 2 dropped each is read by its lift, and a missing lift
    fails at the same key on both paths."""
    basis = truncated_basis(1, 3, 2, Mode.LAURENT)
    window = MomentWindow.of_basis(basis)
    full = _moment_table(two_atom_measure(), 3, 8, Mode.LAURENT)
    lifted = {key: v for key, v in full.items() if key[1] != 2}
    assert not set(window.classes) & set(lifted)
    L = LinearFunctional(2, Mode.LAURENT, SCALAR_EXACT, lifted)
    assert window.cleared(lambda key: L._key_value(*key)) == \
        psd._int_rows(gram_matrix(L, basis)) == psd._int_rows(window.matrix(full.__getitem__))
    del lifted[((6, 0), 3)]
    broken = LinearFunctional(2, Mode.LAURENT, SCALAR_EXACT, lifted)
    with pytest.raises(DomainOverflowError) as got:
        window.cleared(lambda key: broken._key_value(*key))
    with pytest.raises(DomainOverflowError) as want:
        gram_matrix(broken, basis)
    assert got.value.key == want.value.key == ((4, 0), 2)
