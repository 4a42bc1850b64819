from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentext.extalg import Mode, a_normalize, embed_poly, generator_f, truncated_basis
from momentext.functionals.core import (DiscreteMeasure, DomainOverflowError,
                                        InconsistentFunctionalError,
                                        LinearFunctional, MomentWindow,
                                        SCALAR_EXACT, SCALAR_FLOAT,
                                        cs_chain_check, extend_from_measure,
                                        gram_matrix, moments_of_measure,
                                        polynomial_moments)
from momentext.polyalg import Poly, exponents_up_to_degree, norm_squared


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


def test_domain_overflow_names_the_key():
    mu = two_atom_measure()
    L = extend_from_measure(mu, 0, 2)
    with pytest.raises(DomainOverflowError) as err:
        L.apply_poly(Poly.variable(2, 0) ** 5)
    assert "(5, 0)" in str(err.value)


def test_aplus_keys_validated():
    with pytest.raises(ValueError):
        LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, {((1, 0), 1): Fraction(1)})


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


def test_window_localizing_matrix_matches_loop():
    from momentext.fibres import _localizing_matrix
    x1, one = Poly.variable(2, 0), Poly.constant(2, 1)
    strip_localizers = [one, x1, one - x1, x1 * (one - x1)]
    inside = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1, 2), Fraction(1))),
        (Fraction(2, 3), (Fraction(1, 4), Fraction(-1)))))
    outside = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(2), Fraction(0))),))
    monos = exponents_up_to_degree(2, 2)
    for mu in (inside, outside):
        L = polynomial_moments(mu, 6)
        for g in strip_localizers:
            assert same_entries(_localizing_matrix(L, g, monos),
                                oracle_localizing(L, g, monos))
    short = polynomial_moments(inside, 4)
    with pytest.raises(DomainOverflowError) as got:
        _localizing_matrix(short, x1, monos)
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
