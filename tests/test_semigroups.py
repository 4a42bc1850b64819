from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentext import extalg, semigroups
from momentext.extalg import (AElement, Character, Mode, a_normalize, embed_poly,
                              norm_inverse_generator)
from momentext.functionals.core import (SCALAR_EXACT, DiscreteMeasure, LinearFunctional,
                                       extend_from_measure)
from momentext.functionals.psd import psd_check_cleared, psd_check_exact
from momentext.polyalg import Poly, exponents_up_to_degree, norm_squared, norm_squared_power
from momentext.scalars import GaussianRational, as_pair, power_by_squaring
from momentext.semigroups import (HermitianSequence, MissingMomentError,
                                  NplusExtensionReport, SgDomain, SgElement,
                                  _binomial_expansion, _embedded_value,
                                  _embedded_window,
                                  _polynomial_moments_from_sequence,
                                  bisgaard_check,
                                  box_window,
                                  hermitian_embedding, inversion_automorphism,
                                  laurent_relations_check,
                                  nplus_extension_check, sequence_from_measure,
                                  sequence_residual_float, sg_involution,
                                  sg_product, sg_to_functions)
from test_polyalg import assert_same_element, divide_out_by_rescan, validated_product


@dataclass(frozen=True, eq=False)
class G(GaussianRational):
    """The oracles' exact complex arithmetic over the package's plain value:
    +, -, *, ** (negative powers through the inverse), conjugate and abs2.

    Equality reads (re, im), so a G equals the GaussianRational of the same
    number (the dataclass equality is False across classes).
    """

    im: Fraction = Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return (self.re, self.im) == (other.re, other.im)

    __hash__ = GaussianRational.__hash__

    @staticmethod
    def of(x) -> "G":
        """x as a G: a GaussianRational keeps its parts, an exact scalar is real."""
        return G(x.re, x.im) if isinstance(x, GaussianRational) else G(x)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other) -> "G":
        o = G.of(other)
        return G(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "G":
        return G(-self.re, -self.im)

    def __sub__(self, other) -> "G":
        return self + -G.of(other)

    def __mul__(self, other) -> "G":
        o = G.of(other)
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conjugate(self) -> "G":
        return G(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "G":
        a2 = self.abs2()
        if a2 == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return G(self.re / a2, -self.im / a2)

    def __pow__(self, exponent: int) -> "G":
        if exponent < 0:
            return power_by_squaring(self.inverse(), -exponent, G(1))
        return power_by_squaring(self, exponent, G(1))


def plane_measure(atoms) -> DiscreteMeasure:
    """The plane measure of (weight, GaussianRational) atoms; atoms at 0 add to the origin mass."""
    origin = sum((w for w, z in atoms if z.is_zero()), Fraction(0))
    return DiscreteMeasure(2, tuple((w, (z.re, z.im)) for w, z in atoms if not z.is_zero()),
                           origin)


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
    seq = sequence_from_measure(DiscreteMeasure(2, ((Fraction(1), (2, 1)),)),
                                box_window(2, SgDomain.N02))
    assert seq.value(0, 0) == G(1)
    assert seq.value(1, 0) == G(2, 1)
    assert seq.value(2, 1) == G(10, 5)
    assert seq.value(1, 1) == G(5)
    assert not seq.hermitian_violations()
    assert seq.window_symmetric()
    with pytest.raises(MissingMomentError):
        seq.value(3, 3)

    two = sequence_from_measure(DiscreteMeasure(2, ((Fraction(1), (2, 1)), (Fraction(2), (0, 1)))),
                                box_window(1, SgDomain.N02))
    assert two.value(1, 0) == G(2, 1) + G(0, 2)

    # the origin mass is an atom at 0, counted by 0^0 = 1 at (0, 0) only
    at_zero = sequence_from_measure(DiscreteMeasure(2, ((Fraction(1), (1, 0)),), Fraction(3)),
                                    box_window(1, SgDomain.N02))
    assert at_zero.value(0, 0) == G(4)
    assert at_zero.value(1, 1) == G(1)
    with pytest.raises(ValueError, match="an atom at 0 has no moments at negative powers"):
        sequence_from_measure(DiscreteMeasure(2, (), Fraction(3)), box_window(1, SgDomain.Z2))
    with pytest.raises(ValueError, match="atom weight -1 must be positive"):
        DiscreteMeasure(2, ((Fraction(-1), (1, 0)),))


def test_sequence_from_measure_checks_the_measure_before_the_window():
    plane = DiscreteMeasure(2, ((Fraction(1), (1, 1)),))
    flat = DiscreteMeasure(3, ((Fraction(1), (1, 1, 0)),))
    directed = DiscreteMeasure(2, (), Fraction(0),
                               ((Fraction(1), (Fraction(3, 5), Fraction(4, 5))),))
    floats = DiscreteMeasure(2, ((1.0, (1.0, 1.0)),))
    for measure, text in ((flat, "plain dim-2"), (directed, "plain dim-2"),
                          (floats, "exact rational")):
        for window in (box_window(1, SgDomain.N02), []):  # an empty window is refused after
            with pytest.raises(ValueError, match=text):
                sequence_from_measure(measure, window)
    with pytest.raises(ValueError, match="window must be nonempty"):
        sequence_from_measure(plane, [])
    with pytest.raises(ValueError, match="window mixes semigroup domains"):
        sequence_from_measure(plane, [SgElement(0, 0, SgDomain.N02), SgElement(0, 0, SgDomain.Z2)])


def test_sequence_validation():
    with pytest.raises(ValueError):
        HermitianSequence(SgDomain.N02, {(-1, 0): G(1)})
    seq = HermitianSequence(SgDomain.N02, {(1, 0): G(2, 1), (0, 1): G(2, 5)})
    assert seq.hermitian_violations() == [(1, 0), (0, 1)]
    assert seq.window_symmetric()
    lopsided = HermitianSequence(SgDomain.N02, {(1, 0): G(2, 1)})
    assert not lopsided.window_symmetric()
    assert not lopsided.hermitian_violations()  # partner missing: nothing to audit


# On the window [(0,0), (1,0)] the moment matrix is
# [[s(0,0), s(1,0)], [s(0,1), s(1,1)]].
PAIR_WINDOW = [SgElement(0, 0, SgDomain.N02), SgElement(1, 0, SgDomain.N02)]


def pair_sequence(s00, s10, s01, s11):
    return HermitianSequence(SgDomain.N02, {(0, 0): s00, (1, 0): s10, (0, 1): s01, (1, 1): s11})


def test_hermitian_embedding_blocks():
    seq = pair_sequence(G(2), G(1, -1), G(1, 1), G(3))
    emb = hermitian_embedding(seq, PAIR_WINDOW)
    assert emb == [[2, 1, 0, 1], [1, 3, -1, 0], [0, -1, 2, 1], [1, 0, 1, 3]]
    verdict = psd_check_exact(emb)
    assert verdict.is_psd and verdict.verify(emb)

    spin = hermitian_embedding(pair_sequence(G(0), G(0, 1), G(0, -1), G(0)), PAIR_WINDOW)
    verdict = psd_check_exact(spin)
    assert not verdict.is_psd and verdict.witness_value < 0 and verdict.verify(spin)

    with pytest.raises(ValueError):
        hermitian_embedding(seq, box_window(1, SgDomain.Z2))  # foreign domain

    for broken in (pair_sequence(G(0), G(0, 1), G(0, 1), G(0)),  # s(0,1) != conj s(1,0)
                   pair_sequence(G(2), G(1), G(2), G(3)),  # real parts differ
                   pair_sequence(G(1), G(0), G(0), G(1, 1))):  # non-real diagonal
        with pytest.raises(ValueError, match="not symmetric"):
            psd_check_exact(hermitian_embedding(broken, PAIR_WINDOW))


def test_moment_matrix_indices():
    seq = sequence_from_measure(DiscreteMeasure(2, ((Fraction(1), (1, 1)),)),
                                box_window(2, SgDomain.N02))
    window = box_window(1, SgDomain.N02)
    emb, n = hermitian_embedding(seq, window), len(window)
    i = window.index(SgElement(1, 0, SgDomain.N02))
    j = window.index(SgElement(0, 1, SgDomain.N02))
    # entry (i, j): s((1,0)* (0,1)) = s(0,2) = conj(z)^2 = (1-i)^2 = -2i
    assert (emb[i][j], emb[i][j + n], emb[i + n][j], emb[i + n][j + n]) == (0, 2, -2, 0)
    assert (emb[i][i], emb[i][i + n]) == (2, 0)  # s(1,1) = |z|^2
    with pytest.raises(MissingMomentError) as err:
        hermitian_embedding(seq, box_window(2, SgDomain.N02))
    assert err.value.index == (3, 0)  # row (0,1) meets (1,0) + (2,0) first


def test_nplus_extension_pipeline_passes():
    mu = DiscreteMeasure(2, ((Fraction(1), (1, 1)), (Fraction(1, 2), (2, -1))))
    seq = sequence_from_measure(mu, box_window(2, SgDomain.N02))
    report = nplus_extension_check(seq, mu)
    assert report.passed
    assert report.restriction_ok and not report.restriction_mismatches
    assert report.psd.is_psd and report.psd.diagonal is not None
    assert report.cross_path_ok and not report.cross_path_mismatches


def test_nplus_extension_flags_foreign_sequence():
    mu = DiscreteMeasure(2, ((Fraction(1), (1, 1)),))
    seq = sequence_from_measure(mu, box_window(2, SgDomain.N02))
    tampered = dict(seq.entries)
    tampered[(1, 0)] = tampered[(1, 0)] + G(1)
    tampered[(0, 1)] = tampered[(0, 1)] + G(1)
    report = nplus_extension_check(HermitianSequence(SgDomain.N02, tampered), mu)
    assert not report.restriction_ok
    assert (1, 0) in report.restriction_mismatches
    assert not report.passed


def test_nplus_extension_rejects_bad_inputs():
    mu = DiscreteMeasure(2, ((Fraction(1), (1, 1)),))
    z2_seq = sequence_from_measure(mu, box_window(1, SgDomain.Z2))
    with pytest.raises(ValueError, match="quarter-plane"):
        nplus_extension_check(z2_seq, mu)
    seq = sequence_from_measure(mu, box_window(2, SgDomain.N02))
    with_origin = DiscreteMeasure(2, mu.atoms, Fraction(1))
    # one refusal on every window, with or without negative powers
    with pytest.raises(ValueError, match="atoms at 0 cannot feed the punctured-plane"):
        nplus_extension_check(seq, with_origin)
    with pytest.raises(ValueError, match="atoms at 0 cannot feed the punctured-plane"):
        nplus_extension_check(sequence_from_measure(with_origin, box_window(0, SgDomain.N02)),
                              with_origin, box_window(0, SgDomain.NPLUS))
    with pytest.raises(ValueError, match="window domain"):
        nplus_extension_check(seq, mu, box_window(1, SgDomain.N02))
    with pytest.raises(ValueError, match="plain dim-2"):
        nplus_extension_check(seq, DiscreteMeasure(1, ((Fraction(1), (1,)),)))


def test_bisgaard_roundtrip_two_atoms():
    atoms = [(Fraction(1), G(2, 1)), (Fraction(1, 2), G(-1, 1))]
    seq = sequence_from_measure(plane_measure(atoms), box_window(4, SgDomain.Z2))
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
    seq = sequence_from_measure(plane_measure(atoms), box_window(2, SgDomain.Z2))
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
    seq = sequence_from_measure(plane_measure(atoms), box_window(2, SgDomain.Z2))
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


def test_laurent_relations_invert_four_times_per_pair(monkeypatch):
    # a * b, a, b and the image of a again; the image of a is computed once
    calls = []

    def counting(a):
        calls.append(a)
        return inversion_automorphism(a)

    monkeypatch.setattr(semigroups, "inversion_automorphism", counting)
    laurent_relations_check(seed=3, pairs=0)
    fixed = len(calls)
    report = laurent_relations_check(seed=3, pairs=7)
    assert report.passed
    assert len(calls) - 2 * fixed == 4 * 7


def test_sequence_residual_float():
    atoms = [(Fraction(1), G(2, 1))]
    seq = sequence_from_measure(plane_measure(atoms), box_window(2, SgDomain.Z2))
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
            out[key] = out.get(key, G(0)) + c1 * c2
    return out


def oracle_zdict_pow(base, exponent):
    result = {(0, 0): G(1)}
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
    return {key: G(*coeff) * scale for key, coeff in _binomial_expansion(a, b, 0, 2).items()}


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
    seq = sequence_from_measure(plane_measure(atoms), box_window(6, SgDomain.Z2))
    L = _polynomial_moments_from_sequence(seq, 6)
    for gamma in exponents_up_to_degree(2, 6):
        total = G(0)
        for (m, n), coeff in oracle_monomial_in_z(gamma).items():
            total = total + coeff * seq.value(m, n)
        assert total.im == 0 and L.value(gamma) == total.re


def oracle_polynomial_moments_from_sequence(s, max_degree):
    """One GaussianRational sum per moment, scaled by 2^-(a+b) * (-i)^b."""
    values = {}
    for gamma in exponents_up_to_degree(2, max_degree):
        a, b = gamma
        total = G(0)
        for (m, n), coeff in _binomial_expansion(a, b, 0, 2).items():
            total = total + G(*coeff) * s.value(m, n)
        total = total * Fraction(1, 2 ** (a + b)) * G(0, -1) ** b
        if total.im != 0:
            raise ValueError(f"moment of x^{gamma} came out non-real: {total}")
        values[(gamma, 0)] = total.re
    return LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, values)


def outcome(call):
    """call()'s result, or the type and text of what it raised."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), degree=st.integers(0, 6),
       fault=st.sampled_from(["none", "non-hermitian", "missing"]))
def test_integer_polynomial_moments_match_fraction_oracle(seed, degree, fault):
    rng = random.Random(seed)
    atoms = [(Fraction(rng.randint(1, 5), rng.randint(1, 4)),
              G(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
             for _ in range(rng.randint(1, 3))]
    entries = dict(sequence_from_measure(plane_measure(atoms),
                                         box_window(degree, SgDomain.N02)).entries)
    key = rng.choice(sorted(entries))
    if fault == "non-hermitian":
        entries[key] = entries[key] + G(rng.randint(-2, 2), rng.choice((-1, 1)))
    elif fault == "missing":
        del entries[key]
    seq = HermitianSequence(SgDomain.N02, entries)
    got = outcome(lambda: _polynomial_moments_from_sequence(seq, degree))
    want = outcome(lambda: oracle_polynomial_moments_from_sequence(seq, degree))
    assert got == want
    if isinstance(want, LinearFunctional):
        assert list(got.values.items()) == list(want.values.items())


def test_pipeline_verdicts_are_the_embedding_verdicts():
    """The cleared kernel path of both pipelines decides as psd_check_exact
    on the public matrix hermitian_embedding, and refuses non-Hermitian
    data at the same entry."""
    atoms = [(Fraction(1), G(2, 1)), (Fraction(1, 2), G(-1, 1)), (Fraction(1, 3), G(1, -2))]
    seq = sequence_from_measure(plane_measure(atoms), box_window(4, SgDomain.Z2))
    notpsd = {**seq.entries, (0, 0): G(Fraction(1, 100))}
    for entries, is_psd in ((seq.entries, True), (notpsd, False)):
        s = HermitianSequence(SgDomain.Z2, entries)
        report = bisgaard_check(s, try_recovery=False)
        assert report.psd.is_psd is is_psd
        assert report.psd == psd_check_exact(hermitian_embedding(s, box_window(2, SgDomain.Z2)))

    tampered = HermitianSequence(SgDomain.Z2, {**seq.entries, (1, 0): seq.value(1, 0) + G(0, 1)})
    report = bisgaard_check(tampered)
    assert (report.hermitian_ok, report.psd) == (False, None)
    window = box_window(1, SgDomain.Z2)
    cleared = outcome(lambda: psd_check_cleared(
        *_embedded_window(window).cleared(lambda key: as_pair(_embedded_value(tampered, key)))))
    assert cleared == outcome(lambda: psd_check_exact(hermitian_embedding(tampered, window)))
    assert cleared[0] is ValueError and cleared[1].startswith("matrix not symmetric at")

    for radius in (1, 2):
        window = box_window(radius, SgDomain.NPLUS)
        report = nplus_extension_check(
            sequence_from_measure(plane_measure(atoms), box_window(1, SgDomain.N02)),
            plane_measure(atoms), window)
        extended = sequence_from_measure(plane_measure(atoms),
                                         box_window(2 * radius, SgDomain.NPLUS))
        assert report.psd == psd_check_exact(hermitian_embedding(extended, window))


# -- the complex-atom evaluator against the retired per-path loops ---------------


def oracle_sequence_entries(atoms, window):
    """The exact loop with its own branch for an atom at 0."""
    entries = {}
    for u in window:
        total = G(0)
        for weight, z in atoms:
            if z.is_zero():
                if u.m == 0 and u.n == 0:
                    total = total + weight
                continue
            total = total + weight * (z ** u.m) * (z.conjugate() ** u.n)
        entries[(u.m, u.n)] = total
    return entries


def oracle_atom_moment(atoms, m, n):
    """Sum of w * z^m * conj(z)^n over exact (w, z) atoms; an atom at 0
    contributes only at (0, 0), by 0^0 = 1."""
    total = G(0)
    for weight, z in atoms:
        total = total + weight * (z ** m) * (z.conjugate() ** n)
    return total


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
        assert sequence_from_measure(plane_measure(atoms), window).entries == \
            oracle_sequence_entries(atoms, window)
        with_zero = atoms + [(Fraction(1, 2), G(0))]
        window = box_window(3, SgDomain.N02)
        assert sequence_from_measure(plane_measure(with_zero), window).entries == \
            oracle_sequence_entries(with_zero, window)


def test_sequence_residual_float_is_bit_identical_to_oracle():
    rng = random.Random(12)
    for trial in range(8):
        exact = [(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                  G(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(1, 4), rng.randint(1, 3))))
                 for _ in range(2)]
        seq = sequence_from_measure(plane_measure(exact), box_window(6, SgDomain.Z2))
        report = bisgaard_check(seq, seed=trial)
        assert report.recovered_atoms, report.recovery_error
        for origin in (0.0, 0.25):
            got = sequence_residual_float(report.recovered_atoms, origin, seq)
            want = oracle_sequence_residual_float(report.recovered_atoms, origin, seq)
            assert type(got) is float and got == want


# -- MomentWindow, single-normalization inversion and the half cross window -----
# -- against the loops they replaced ----------------------------------------------


def oracle_sg_moment_matrix(seq, window):
    """Entry by entry, row-major: M[i][j] = s(u_i* u_j)."""
    size = len(window)
    out = [[None] * size for _ in range(size)]
    for i, u in enumerate(window):
        for j, v in enumerate(window):
            w = sg_product(sg_involution(u), v)
            out[i][j] = seq.value(w.m, w.n)
    return out


def oracle_hermitian_embedding(matrix):
    """[[Re, -Im], [Im, Re]], checking every (i, j) against the conjugate of (j, i)."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for entry in row:
            if not isinstance(entry, GaussianRational):
                raise ValueError("exact embedding needs GaussianRational entries")
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            z = matrix[i][j]
            if matrix[j][i] != G.of(z).conjugate():
                raise ValueError(f"matrix is not Hermitian at ({i},{j})")
            out[i][j] = out[i + n][j + n] = z.re
            out[i][j + n] = -z.im
            out[i + n][j] = z.im
    return out


def oracle_closure_keys(window):
    """The window's own keys and every u* v."""
    keys = {(u.m, u.n) for u in window}
    for u in window:
        for v in window:
            w = sg_product(sg_involution(u), v)
            keys.add((w.m, w.n))
    return keys


def oracle_inversion_automorphism(a):
    """Images x^gamma / ||x||^(2t), t = |gamma| - m, of the numerator monomials,
    summed over the common pole max(0, max t) as polynomials and normalized
    once; no AElement arithmetic, so no ``a_add`` or ``a_mul`` shortcut."""
    targets = {gamma: sum(gamma) - a.pole_order for gamma in a.numerator.terms}
    pole = max([0, *targets.values()])
    numerator = Poly.zero(a.nvars)
    for gamma, coeff in a.numerator.terms.items():
        numerator = numerator + (Poly.monomial(a.nvars, gamma, coeff)
                                 * norm_squared(a.nvars) ** (pole - targets[gamma]))
    return a_normalize(numerator, pole, Mode.LAURENT)


def fraction_inversion_automorphism(a):
    """The per-component inversion on Fraction terms, through the validated
    product and the rescan division: the term order the integer kernels of
    ``inversion_automorphism`` keep, components in ascending lift."""
    d, m = a.nvars, a.pole_order
    components: dict = {}
    for gamma, coeff in a.numerator.terms.items():
        components.setdefault(sum(gamma), {})[gamma] = coeff
    if not components:
        return a
    pole = reduction = max(0, max(components) - m)
    parts = []
    for k in sorted(components, reverse=True):
        part, lift = Poly(d, components[k]), pole - k + m
        if lift < reduction:
            part, left = divide_out_by_rescan(part, reduction - lift)
            lift = reduction = reduction - left
        parts.append((part, lift))
    terms: dict = {}
    for part, lift in parts:
        terms.update(validated_product(part, norm_squared_power(d, lift - reduction)).terms)
    return AElement(Poly(d, terms), pole - reduction, Mode.LAURENT)


def assert_inversion_matches_oracles(a):
    image = inversion_automorphism(a)
    want = oracle_inversion_automorphism(a)
    assert image == want, a
    assert image.numerator.sorted_terms() == want.numerator.sorted_terms(), a
    assert_same_element(image, fraction_inversion_automorphism(a))
    return image


# Memoized on their (hashable) inputs: many oracle runs share a matrix or a
# moment rectangle.
@functools.lru_cache(maxsize=None)
def oracle_psd(rows):
    return psd_check_exact(oracle_hermitian_embedding([list(row) for row in rows]))


@functools.lru_cache(maxsize=None)
def oracle_extension(measure, pole, degree):
    return extend_from_measure(measure, pole, degree)


def oracle_nplus_extension_check(s, measure, window):
    """The pipeline with the loop closure, the loop matrix and the cross path
    on the full (P, max(2P, T)) window."""
    closure_keys = oracle_closure_keys(window)
    target_keys = sorted(closure_keys | set(s.entries.keys()))
    extended = sequence_from_measure(
        measure, [SgElement(m, n, SgDomain.NPLUS) for (m, n) in target_keys])
    mismatches = [key for key, value in s.entries.items()
                  if extended.entries[key] != value]
    psd = oracle_psd(tuple(map(tuple, oracle_sg_moment_matrix(extended, window))))
    pole = max(max(0, -m, -n) for (m, n) in target_keys)
    top_degree = max(m + n + 2 * max(0, -m, -n) for (m, n) in target_keys)
    L = oracle_extension(measure, pole, max(2 * pole, top_degree))
    cross_bad = []
    for (m, n) in target_keys:
        re_part, im_part = sg_to_functions(SgElement(m, n, SgDomain.NPLUS))
        value = extended.entries[(m, n)]
        if L.apply(re_part) != value.re or L.apply(im_part) != value.im:
            cross_bad.append((m, n))
    return NplusExtensionReport(not mismatches, sorted(mismatches), psd,
                                not cross_bad, cross_bad)


SG_ATOMS = [(Fraction(1), G(1, 1)), (Fraction(1, 2), G(2, -1)),
            (Fraction(2, 3), G(Fraction(-1, 2), Fraction(1, 3)))]


def missing_index(build, seq, window):
    try:
        build(seq, window)
    except MissingMomentError as err:
        return err.index
    return None


def oracle_embedding(seq, window):
    return oracle_hermitian_embedding(oracle_sg_moment_matrix(seq, window))


def test_moment_matrix_matches_loop_oracle():
    rng = random.Random(20)
    for domain in SgDomain:
        seq = sequence_from_measure(plane_measure(SG_ATOMS), box_window(6, domain))
        for box in range(4):
            window = box_window(box, domain)
            for order in (window, rng.sample(window, len(window))):
                got = hermitian_embedding(seq, order)
                assert got == oracle_embedding(seq, order), (domain, box)
                assert got == [list(col) for col in zip(*got)]


def value_error(call):
    try:
        call()
    except ValueError as err:
        return str(err)
    return None


def test_non_hermitian_refusal_matches_loop_oracle():
    """Perturbing one stored entry breaks the symmetry of the embedding exactly
    when the oracle finds the moment matrix not Hermitian."""
    rng = random.Random(24)
    refused = 0
    for domain in SgDomain:
        full = sequence_from_measure(plane_measure(SG_ATOMS), box_window(4, domain))
        for box in range(3):
            window = box_window(box, domain)
            for key in rng.sample(sorted(full.entries), 8):
                entries = dict(full.entries)
                entries[key] = entries[key] + (G(0, 1) if key[0] == key[1] else G(1, 1))
                seq = HermitianSequence(domain, entries)
                want = value_error(lambda: oracle_embedding(seq, window))
                got = value_error(lambda: psd_check_exact(hermitian_embedding(seq, window)))
                assert (got is None) == (want is None), (domain, box, key)
                if want is not None:
                    assert "not Hermitian" in want and "not symmetric" in got
                    refused += 1
    assert refused > 10, refused


def test_missing_moment_index_matches_loop_oracle():
    rng = random.Random(21)
    for domain in SgDomain:
        for data_box in range(4):
            full = sequence_from_measure(plane_measure(SG_ATOMS), box_window(data_box, domain))
            thinned = dict(full.entries)
            for key in rng.sample(sorted(thinned), len(thinned) // 3):
                del thinned[key]
            for seq in (full, HermitianSequence(domain, thinned)):
                for box in range(4):
                    window = box_window(box, domain)
                    # a shuffled window moves the first missing entry
                    for order in (window, rng.sample(window, len(window))):
                        want = missing_index(oracle_sg_moment_matrix, seq, order)
                        assert missing_index(hermitian_embedding, seq, order) == want
                        if want is None:
                            assert hermitian_embedding(seq, order) == \
                                oracle_embedding(seq, order)


def test_closure_keys_match_loop_oracle():
    rng = random.Random(22)
    for box in range(5):
        window = box_window(box, SgDomain.NPLUS)
        for sub in (window, rng.sample(window, max(1, len(window) // 2))):
            classes = _embedded_window(sub).classes
            assert {(u.m, u.n) for u in sub} | {g[:2] for g, _ in classes} == \
                oracle_closure_keys(sub)


def random_inversion_input(rng):
    """Zero, pure polynomials, pure poles and mixed elements in 1-3 variables."""
    nvars = rng.choice((1, 2, 2, 3))
    kind = rng.choice(("zero", "polynomial", "pole", "mixed", "mixed"))
    if kind == "zero":
        return AElement(Poly.zero(nvars), 0, Mode.LAURENT)
    if kind == "pole":
        return a_normalize(Poly.constant(nvars, Fraction(rng.randint(1, 9), rng.randint(1, 4))),
                           rng.randint(1, 4), Mode.LAURENT)
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exp = tuple(rng.randint(0, 4) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    numerator = Poly(nvars, terms)
    # mixed poles reach above the lowest numerator degrees: negative targets
    pole = 0 if kind == "polynomial" else rng.randint(1, 5)
    return a_normalize(numerator, pole, Mode.LAURENT)


def test_inversion_matches_per_term_oracle():
    rng = random.Random(23)
    kinds = {"negative target": 0, "nonnegative target": 0}
    for _ in range(400):
        a = random_inversion_input(rng)
        for gamma in a.numerator.terms:
            kinds["negative target" if sum(gamma) < a.pole_order
                  else "nonnegative target"] += 1
        image = assert_inversion_matches_oracles(a)
        assert inversion_automorphism(image) == a
    assert min(kinds.values()) > 100
    zero = AElement(Poly.zero(2), 0, Mode.LAURENT)
    assert inversion_automorphism(zero) == zero


@st.composite
def inversion_inputs_with_norm_factors(draw):
    """Laurent elements whose degree components carry ||x||^2 factors, d = 1..4."""
    d = draw(st.integers(1, 4))
    numerator = Poly.zero(d)
    for _ in range(draw(st.integers(1, 3))):
        exp = draw(st.tuples(*[st.integers(0, 3)] * d))
        coeff = draw(st.fractions(min_value=-6, max_value=6, max_denominator=4))
        numerator = numerator + Poly.monomial(d, exp, coeff) * norm_squared(d) ** draw(st.integers(0, 2))
    return a_normalize(numerator, draw(st.integers(0, 4)), Mode.LAURENT)


@settings(max_examples=150, deadline=None)
@given(a=inversion_inputs_with_norm_factors())
def test_inversion_reduces_per_component_like_the_oracle(a):
    image = assert_inversion_matches_oracles(a)
    AElement(image.numerator, image.pole_order, Mode.LAURENT)  # re-checks reducedness
    assert inversion_automorphism(image) == a


def test_inversion_reduction_below_the_common_pole():
    # (s*x1 + 1)/s: the lifted components x1^3 + x1*x2^2 and s^3 share one
    # factor s, so the image (x1 + s^2)/s sits one below the common pole 2
    s = norm_squared(2)
    x1 = Poly.variable(2, 0)
    a = a_normalize(s * x1 + 1, 1, Mode.LAURENT)
    assert inversion_automorphism(a) == a_normalize(x1 + s * s, 1, Mode.LAURENT)
    # d = 1: x1^3/x1^2 = x1 maps to x1/x1^2
    u = a_normalize(Poly.variable(1, 0) ** 3, 1, Mode.LAURENT)
    assert inversion_automorphism(u) == a_normalize(Poly.variable(1, 0), 1, Mode.LAURENT)


def test_inversion_never_normalizes_and_adds_no_elements(monkeypatch):
    rng = random.Random(24)
    cases = [(a, oracle_inversion_automorphism(a))
             for a in (random_inversion_input(rng) for _ in range(30))]

    def no_normalize(*args):
        raise AssertionError("the inversion called a_normalize")

    def no_add(self, other):
        raise AssertionError("the inversion added AElements")
    monkeypatch.setattr(semigroups, "a_normalize", no_normalize)
    monkeypatch.setattr(extalg, "a_normalize", no_normalize)
    monkeypatch.setattr(AElement, "__add__", no_add)
    for a, want in cases:
        assert inversion_automorphism(a) == want


def test_nplus_reports_match_full_window_oracle():
    measure = plane_measure(SG_ATOMS[:2])
    for data_box in range(5):
        seq = sequence_from_measure(measure, box_window(data_box, SgDomain.N02))
        for box in range(5):
            window = box_window(box, SgDomain.NPLUS)
            report = nplus_extension_check(seq, measure, window)
            assert report == oracle_nplus_extension_check(seq, measure, window)
            assert report.passed, (data_box, box)
    # Box windows and box data give even P and T; odd ones make the halved
    # cross window round up.
    rng = random.Random(25)
    windows = [[SgElement(0, 0, SgDomain.NPLUS), SgElement(2, -1, SgDomain.NPLUS)]]
    windows += [rng.sample(box_window(3, SgDomain.NPLUS), rng.randint(1, 4))
                for _ in range(5)]
    data = [box_window(b, SgDomain.N02) for b in range(3)]
    data += [[u for u in box_window(t, SgDomain.N02) if u.m + u.n <= t] for t in (3, 5)]
    for window in windows + [box_window(b, SgDomain.NPLUS) for b in range(3)]:
        for data_window in data:
            seq = sequence_from_measure(measure, data_window)
            report = nplus_extension_check(seq, measure, window)
            assert report == oracle_nplus_extension_check(seq, measure, window)
            assert report.passed
    seq = sequence_from_measure(measure, box_window(4, SgDomain.N02))
    tampered = dict(seq.entries)
    tampered[(2, 1)] = tampered[(2, 1)] + G(0, 1)
    tampered[(1, 2)] = tampered[(1, 2)] + G(0, -1)
    seq = HermitianSequence(SgDomain.N02, tampered)
    for box in range(4):
        window = box_window(box, SgDomain.NPLUS)
        report = nplus_extension_check(seq, measure, window)
        assert report == oracle_nplus_extension_check(seq, measure, window)
        assert report.restriction_mismatches == [(1, 2), (2, 1)]


def test_sequence_tables_match_atom_moment_oracle():
    rng = random.Random(21)
    for trial in range(4):
        atoms = [(Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                  G(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(1, 4), rng.randint(1, 3))))
                 for _ in range(3)]
        for domain in SgDomain:
            for box in (0, 1, 3):
                window = box_window(box, domain)
                # an atom at 0 only on windows without negative indices
                used = atoms + [(Fraction(1, 2), G(0))] if domain is SgDomain.N02 else atoms
                entries = sequence_from_measure(plane_measure(used), window).entries
                assert list(entries) == [(u.m, u.n) for u in window]
                for (m, n), value in entries.items():
                    assert value == oracle_atom_moment(used, m, n), \
                        (domain, m, n)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32), domain=st.sampled_from(list(SgDomain)),
       box=st.integers(0, 4), shared=st.booleans(), partial=st.booleans())
def test_integer_sequence_tables_match_atom_moment_oracle(seed, domain, box, shared, partial):
    """The Gaussian integer tables against ``oracle_atom_moment`` on random rational
    atoms, with one denominator shared by every coordinate or one each, on
    shuffled windows, whole or partial; N02 windows may carry an atom at 0."""
    rng = random.Random(seed)
    den = rng.randint(1, 7)

    def coordinate():
        return Fraction(rng.randint(-6, 6), den if shared else rng.randint(1, 7))

    atoms = []
    for _ in range(rng.randint(0, 4)):
        z = G(coordinate(), coordinate())
        if not z.is_zero():
            atoms.append((Fraction(rng.randint(1, 7), rng.randint(1, 5)), z))
    if domain is SgDomain.N02 and rng.random() < 0.5:
        atoms.append((Fraction(rng.randint(1, 5), rng.randint(1, 3)), G(0)))
    window = box_window(box, domain)
    window = rng.sample(window, rng.randint(1, len(window)) if partial else len(window))
    entries = sequence_from_measure(plane_measure(atoms), window).entries
    assert list(entries) == [(u.m, u.n) for u in window]
    for (m, n), value in entries.items():
        assert type(value.re) is Fraction and type(value.im) is Fraction
        assert value == oracle_atom_moment(atoms, m, n), (m, n)
