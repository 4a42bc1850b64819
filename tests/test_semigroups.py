from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentext.extalg import Character, Mode, a_normalize, embed_poly, norm_inverse_generator
from momentext.polyalg import Poly, exponents_up_to_degree, norm_squared
from momentext.scalars import GaussianRational
from momentext.semigroups import (HermitianSequence, MissingMomentError,
                                  SgDomain, SgElement, _binomial_expansion,
                                  _polynomial_moments_from_sequence,
                                  bisgaard_check,
                                  box_window, complex_atoms_to_measure,
                                  hermitian_embedding, inversion_automorphism,
                                  laurent_relations_check,
                                  nplus_extension_check, sequence_from_measure,
                                  sequence_residual_float, sg_moment_matrix,
                                  sg_product, sg_psd_check_exact,
                                  sg_to_functions)

G = GaussianRational.of


def test_domain_membership():
    SgElement(3, 0, SgDomain.N02)
    SgElement(3, -2, SgDomain.NPLUS)
    SgElement(-3, -5, SgDomain.Z2)
    with pytest.raises(ValueError):
        SgElement(1, -1, SgDomain.N02)
    with pytest.raises(ValueError):
        SgElement(-2, 1, SgDomain.NPLUS)


def test_product_and_involution():
    u = SgElement(1, 2, SgDomain.N02)
    v = SgElement(2, 0, SgDomain.N02)
    assert u * v == SgElement(3, 2, SgDomain.N02)
    assert u.star == SgElement(2, 1, SgDomain.N02)
    assert u.star.star == u
    with pytest.raises(ValueError):
        sg_product(u, SgElement(2, 0, SgDomain.NPLUS))


def test_box_window_counts_and_order():
    assert len(box_window(3, SgDomain.N02)) == 16
    assert len(box_window(3, SgDomain.NPLUS)) == 28
    assert len(box_window(2, SgDomain.Z2)) == 25
    nplus = box_window(3, SgDomain.NPLUS)
    assert nplus[0] == SgElement(-3, 3, SgDomain.NPLUS)
    assert all(u.m + u.n >= 0 for u in nplus)


def test_index_functions_oracles():
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)

    re, im = sg_to_functions(SgElement(1, 1, SgDomain.N02))
    assert re == embed_poly(norm_squared(2), Mode.APLUS) and im.is_zero()

    re, im = sg_to_functions(SgElement(2, 0, SgDomain.N02))
    assert re == embed_poly(x1 * x1 - x2 * x2, Mode.APLUS)
    assert im == embed_poly(Poly.monomial(2, (1, 1), 2), Mode.APLUS)

    re, im = sg_to_functions(SgElement(0, 0, SgDomain.NPLUS))
    assert re == embed_poly(Poly.constant(2, 1), Mode.APLUS) and im.is_zero()

    re, im = sg_to_functions(SgElement(1, -1, SgDomain.NPLUS))
    assert re == a_normalize(x1 * x1 - x2 * x2, 1, Mode.APLUS)
    assert im == a_normalize(Poly.monomial(2, (1, 1), 2), 1, Mode.APLUS)

    re, im = sg_to_functions(SgElement(-1, 0, SgDomain.Z2))
    assert re == a_normalize(x1, 1, Mode.LAURENT)
    assert im == a_normalize(-x2, 1, Mode.LAURENT)

    re, im = sg_to_functions(SgElement(-1, -1, SgDomain.Z2))
    assert re == a_normalize(Poly.constant(2, 1), 1, Mode.LAURENT) and im.is_zero()


def test_index_functions_multiply_like_the_semigroup():
    rng = random.Random(7)
    for _ in range(30):
        while True:
            m1, n1 = rng.randint(-2, 3), rng.randint(-2, 3)
            m2, n2 = rng.randint(-2, 3), rng.randint(-2, 3)
            if m1 + n1 >= 0 and m2 + n2 >= 0:
                break
        u = SgElement(m1, n1, SgDomain.NPLUS)
        v = SgElement(m2, n2, SgDomain.NPLUS)
        ru, iu = sg_to_functions(u)
        rv, iv = sg_to_functions(v)
        rw, iw = sg_to_functions(u * v)
        assert ru * rv - iu * iv == rw
        assert ru * iv + iu * rv == iw


def test_index_functions_match_point_values():
    z = G(2, 1)
    chi = Character.at_point((Fraction(2), Fraction(1)))
    for u in box_window(2, SgDomain.NPLUS):
        re, im = sg_to_functions(u)
        value = (z ** u.m) * (z.conjugate() ** u.n)
        assert chi(re) == value.re
        assert chi(im) == value.im


def test_sequence_from_measure_oracle():
    seq = sequence_from_measure([(Fraction(1), G(2, 1))],
                                box_window(2, SgDomain.N02))
    assert seq.value(0, 0) == G(1)
    assert seq.value(1, 0) == G(2, 1)
    assert seq.value(2, 1) == G(10, 5)
    assert seq.value(1, 1) == G(5)
    assert not seq.hermitian_violations()
    assert seq.window_symmetric()
    with pytest.raises(MissingMomentError):
        seq.value(3, 3)

    two = sequence_from_measure([(Fraction(1), G(2, 1)), (Fraction(2), G(0, 1))],
                                box_window(1, SgDomain.N02))
    assert two.value(1, 0) == G(2, 1) + G(0, 2)

    at_zero = sequence_from_measure([(Fraction(3), G(0)), (Fraction(1), G(1))],
                                    box_window(1, SgDomain.N02))
    assert at_zero.value(0, 0) == G(4)
    assert at_zero.value(1, 1) == G(1)
    with pytest.raises(ValueError):
        sequence_from_measure([(Fraction(3), G(0))], box_window(1, SgDomain.Z2))
    with pytest.raises(ValueError):
        sequence_from_measure([(Fraction(-1), G(1))], box_window(1, SgDomain.N02))


def test_sequence_validation():
    with pytest.raises(ValueError):
        HermitianSequence(SgDomain.N02, {(-1, 0): G(1)})
    seq = HermitianSequence(SgDomain.N02, {(1, 0): G(2, 1), (0, 1): G(2, 5)})
    assert seq.hermitian_violations() == [(1, 0), (0, 1)]
    assert seq.window_symmetric()
    lopsided = HermitianSequence(SgDomain.N02, {(1, 0): G(2, 1)})
    assert not lopsided.window_symmetric()
    assert not lopsided.hermitian_violations()  # partner missing: nothing to audit


def test_hermitian_embedding_blocks():
    matrix = [[G(2), G(1, -1)], [G(1, 1), G(3)]]
    emb = hermitian_embedding(matrix)
    assert emb == [[2, 1, 0, 1], [1, 3, -1, 0], [0, -1, 2, 1], [1, 0, 1, 3]]
    assert sg_psd_check_exact(matrix).is_psd

    with pytest.raises(ValueError):
        hermitian_embedding([[G(0), G(0, 1)], [G(0, 1), G(0)]])  # not Hermitian

    spin = [[G(0), G(0, 1)], [G(0, -1), G(0)]]
    verdict = sg_psd_check_exact(spin)
    assert not verdict.is_psd and verdict.witness_value < 0


def test_moment_matrix_indices():
    seq = sequence_from_measure([(Fraction(1), G(1, 1))],
                                box_window(2, SgDomain.N02))
    window = box_window(1, SgDomain.N02)
    M = sg_moment_matrix(seq, window)
    i = window.index(SgElement(1, 0, SgDomain.N02))
    j = window.index(SgElement(0, 1, SgDomain.N02))
    # entry (i, j): s((1,0)* (0,1)) = s(0,2) = conj(z)^2 = (1-i)^2 = -2i
    assert M[i][j] == G(0, -2)
    assert M[i][i] == G(2)  # s(1,1) = |z|^2
    with pytest.raises(MissingMomentError):
        sg_moment_matrix(seq, box_window(2, SgDomain.N02))  # products reach (4,4)


def test_nplus_extension_pipeline_passes():
    atoms = [(Fraction(1), G(1, 1)), (Fraction(1, 2), G(2, -1))]
    seq = sequence_from_measure(atoms, box_window(2, SgDomain.N02))
    report = nplus_extension_check(seq, atoms)
    assert report.passed
    assert report.restriction_ok and not report.restriction_mismatches
    assert report.psd.is_psd and report.psd.diagonal is not None
    assert report.cross_path_ok and not report.cross_path_mismatches


def test_nplus_extension_flags_foreign_sequence():
    atoms = [(Fraction(1), G(1, 1))]
    seq = sequence_from_measure(atoms, box_window(2, SgDomain.N02))
    tampered = dict(seq.entries)
    tampered[(1, 0)] = tampered[(1, 0)] + G(1)
    tampered[(0, 1)] = tampered[(0, 1)] + G(1)
    report = nplus_extension_check(HermitianSequence(SgDomain.N02, tampered), atoms)
    assert not report.restriction_ok
    assert (1, 0) in report.restriction_mismatches
    assert not report.passed


def test_nplus_extension_rejects_bad_inputs():
    atoms = [(Fraction(1), G(1, 1))]
    z2_seq = sequence_from_measure(atoms, box_window(1, SgDomain.Z2))
    with pytest.raises(ValueError):
        nplus_extension_check(z2_seq, atoms)
    seq = sequence_from_measure(atoms, box_window(2, SgDomain.N02))
    with pytest.raises(ValueError):
        nplus_extension_check(seq, atoms + [(Fraction(1), G(0))])


def test_complex_atoms_to_measure():
    mu = complex_atoms_to_measure([(Fraction(1), G(1, 1)),
                                   (Fraction(2), G(0))])
    assert mu.origin_mass == 2
    assert mu.atoms == ((Fraction(1), (Fraction(1), Fraction(1))),)
    with pytest.raises(ValueError):
        complex_atoms_to_measure([(Fraction(1), complex(1, 1))])


def test_bisgaard_roundtrip_two_atoms():
    atoms = [(Fraction(1), G(2, 1)), (Fraction(1, 2), G(-1, 1))]
    seq = sequence_from_measure(atoms, box_window(4, SgDomain.Z2))
    report = bisgaard_check(seq)
    assert report.hermitian_ok
    assert report.matrix_box == 2
    assert report.psd.is_psd
    assert report.recovery_error is None
    assert report.passed
    assert report.recovery_residual < 1e-8
    recovered = sorted(report.recovered_atoms, key=lambda wz: wz[1].real)
    truth = [(0.5, complex(-1, 1)), (1.0, complex(2, 1))]
    for (w, z), (tw, tz) in zip(recovered, truth):
        assert abs(w - tw) < 1e-6 and abs(z - tz) < 1e-6


def test_bisgaard_rejects_tampering_before_any_matrix():
    atoms = [(Fraction(1), G(2, 1))]
    seq = sequence_from_measure(atoms, box_window(2, SgDomain.Z2))
    tampered = dict(seq.entries)
    tampered[(1, 0)] = tampered[(1, 0)] + G(0, 1)
    report = bisgaard_check(HermitianSequence(SgDomain.Z2, tampered))
    assert not report.hermitian_ok
    assert (1, 0) in report.hermitian_violations
    assert report.psd is None and report.matrix_box is None
    assert not report.passed


def test_bisgaard_window_must_be_closed_under_involution():
    entries = {(1, 0): G(1)}
    with pytest.raises(ValueError):
        bisgaard_check(HermitianSequence(SgDomain.Z2, entries))


def test_bisgaard_reports_nonpsd():
    atoms = [(Fraction(1), G(2, 1))]
    seq = sequence_from_measure(atoms, box_window(2, SgDomain.Z2))
    broken = dict(seq.entries)
    broken[(0, 0)] = G(-1)
    report = bisgaard_check(HermitianSequence(SgDomain.Z2, broken), matrix_box=1)
    assert report.hermitian_ok
    assert not report.psd.is_psd
    assert report.recovered_atoms is None
    assert not report.passed


def test_inversion_automorphism_generators():
    x1 = embed_poly(Poly.variable(2, 0), Mode.LAURENT)
    y1 = norm_inverse_generator(1)
    inv_norm = a_normalize(Poly.constant(2, 1), 1, Mode.LAURENT)
    assert inversion_automorphism(x1) == y1
    assert inversion_automorphism(y1) == x1
    assert inversion_automorphism(inv_norm) == embed_poly(norm_squared(2), Mode.LAURENT)
    assert inversion_automorphism(inversion_automorphism(inv_norm)) == inv_norm
    combo = x1 + inv_norm * 3
    assert inversion_automorphism(inversion_automorphism(combo)) == combo
    with pytest.raises(ValueError):
        inversion_automorphism(embed_poly(Poly.variable(2, 0), Mode.APLUS))


def test_laurent_relations_report():
    report = laurent_relations_check(seed=5, pairs=20)
    assert report.passed
    assert report.multiplicative_pairs == 20
    assert report.multiplicative_failures == 0
    assert report.identities["x1*y1 + x2*y2 == 1"]
    assert report.identities["inversion is involutive"]
    assert len(report.identities) == 9


def test_sequence_residual_float():
    atoms = [(Fraction(1), G(2, 1))]
    seq = sequence_from_measure(atoms, box_window(2, SgDomain.Z2))
    assert sequence_residual_float([(1.0, complex(2, 1))], 0.0, seq) < 1e-12
    off = sequence_residual_float([(1.25, complex(2, 1))], 0.0, seq)
    assert off > 0.25  # scales with |z|^(m+n) over the window


# -- the binomial expansion against the retired Poly-pair and zdict arithmetics --


def oracle_complex_poly_mul(a, b):
    """Complex polynomials as (real Poly, imaginary Poly) pairs."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def oracle_complex_poly_pow(base, exponent):
    result = (Poly.constant(2, 1), Poly.zero(2))
    while exponent:
        if exponent & 1:
            result = oracle_complex_poly_mul(result, base)
        base = oracle_complex_poly_mul(base, base)
        exponent >>= 1
    return result


def oracle_sg_to_functions(u):
    """z^m * conj(z)^n through products of (x1 + i*x2) and (x1 - i*x2) pairs."""
    c = max(0, -u.m, -u.n)
    mode = Mode.LAURENT if u.domain is SgDomain.Z2 else Mode.APLUS
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    num = oracle_complex_poly_mul(oracle_complex_poly_pow((x1, x2), u.m + c),
                                  oracle_complex_poly_pow((x1, -x2), u.n + c))
    return a_normalize(num[0], c, mode), a_normalize(num[1], c, mode)


def oracle_zdict_mul(a, b):
    """Polynomials in (z, conj z) as dicts (m, n) -> GaussianRational."""
    out = {}
    for (m1, n1), c1 in a.items():
        for (m2, n2), c2 in b.items():
            key = (m1 + m2, n1 + n2)
            out[key] = out.get(key, GaussianRational.zero()) + c1 * c2
    return out


def oracle_zdict_pow(base, exponent):
    result = {(0, 0): GaussianRational.one()}
    while exponent:
        if exponent & 1:
            result = oracle_zdict_mul(result, base)
        base = oracle_zdict_mul(base, base)
        exponent >>= 1
    return result


def oracle_monomial_in_z(gamma):
    """x1^a * x2^b in (z, conj z) via x1 = (z + conj z)/2, x2 = -i*(z - conj z)/2."""
    x1 = {(1, 0): G(Fraction(1, 2)), (0, 1): G(Fraction(1, 2))}
    x2 = {(1, 0): G(0, Fraction(-1, 2)), (0, 1): G(0, Fraction(1, 2))}
    return oracle_zdict_mul(oracle_zdict_pow(x1, gamma[0]), oracle_zdict_pow(x2, gamma[1]))


def monomial_in_z(gamma):
    a, b = gamma
    scale = G(Fraction(1, 2 ** (a + b))) * G(0, -1) ** b
    return {key: coeff * scale for key, coeff in _binomial_expansion(a, b, 0, 2).items()}


def test_index_functions_match_poly_pair_oracle():
    for u in box_window(4, SgDomain.NPLUS) + box_window(6, SgDomain.Z2):
        assert sg_to_functions(u) == oracle_sg_to_functions(u), (u.m, u.n)


def test_z_expansion_matches_zdict_oracle():
    for gamma in exponents_up_to_degree(2, 12):
        assert monomial_in_z(gamma) == oracle_monomial_in_z(gamma), gamma


@settings(max_examples=40, deadline=None)
@given(m=st.integers(-7, 7), n=st.integers(-7, 7), a=st.integers(0, 7), b=st.integers(0, 7))
def test_binomial_expansion_property(m, n, a, b):
    u = SgElement(m, n, SgDomain.Z2)
    assert sg_to_functions(u) == oracle_sg_to_functions(u)
    if m + n >= 0:
        u = SgElement(m, n, SgDomain.NPLUS)
        assert sg_to_functions(u) == oracle_sg_to_functions(u)
    assert monomial_in_z((a, b)) == oracle_monomial_in_z((a, b))


def test_polynomial_moments_from_sequence_match_zdict_oracle():
    atoms = [(Fraction(2), G(1)), (Fraction(1), G(0, -2)), (Fraction(1, 3), G(-1, 2))]
    seq = sequence_from_measure(atoms, box_window(6, SgDomain.Z2))
    L = _polynomial_moments_from_sequence(seq, 6)
    for gamma in exponents_up_to_degree(2, 6):
        total = GaussianRational.zero()
        for (m, n), coeff in oracle_monomial_in_z(gamma).items():
            total = total + coeff * seq.value(m, n)
        assert total.im == 0 and L.value(gamma) == total.re


# -- the complex-atom evaluator against the retired per-path loops ---------------


def oracle_sequence_entries(atoms, window):
    """The exact loop with its own branch for an atom at 0."""
    entries = {}
    for u in window:
        total = GaussianRational.zero()
        for weight, z in atoms:
            if z.is_zero():
                if u.m == 0 and u.n == 0:
                    total = total + weight
                continue
            total = total + weight * (z ** u.m) * (z.conjugate() ** u.n)
        entries[(u.m, u.n)] = total
    return entries


def oracle_sequence_residual_float(atoms, origin_mass, seq):
    worst = 0.0
    for (m, n), value in seq.entries.items():
        total = 0.0 + 0.0j
        for weight, z in atoms:
            total += weight * (z ** m) * (z.conjugate() ** n)
        if m == 0 and n == 0:
            total += origin_mass
        worst = max(worst, abs(total - complex(value)))
    return worst


def test_sequence_from_measure_matches_loop_oracle():
    rng = random.Random(11)
    for _ in range(6):
        atoms = [(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                  G(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
                 for _ in range(3)]
        atoms = [(w, z) for w, z in atoms if not z.is_zero()]
        window = box_window(3, SgDomain.Z2)
        assert sequence_from_measure(atoms, window).entries == \
            oracle_sequence_entries(atoms, window)
        with_zero = atoms + [(Fraction(1, 2), G(0))]
        window = box_window(3, SgDomain.N02)
        assert sequence_from_measure(with_zero, window).entries == \
            oracle_sequence_entries(with_zero, window)


def test_sequence_residual_float_is_bit_identical_to_oracle():
    rng = random.Random(12)
    for trial in range(8):
        exact = [(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                  G(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(1, 4), rng.randint(1, 3))))
                 for _ in range(2)]
        seq = sequence_from_measure(exact, box_window(6, SgDomain.Z2))
        report = bisgaard_check(seq, seed=trial)
        assert report.recovered_atoms, report.recovery_error
        for origin in (0.0, 0.25):
            got = sequence_residual_float(report.recovered_atoms, origin, seq)
            want = oracle_sequence_residual_float(report.recovered_atoms, origin, seq)
            assert type(got) is float and got == want
