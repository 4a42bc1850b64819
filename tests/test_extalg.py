from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentext.extalg import (AElement, Character, Mode, NotInAlgebraError,
                              a_add, a_mul, a_normalize, char_eval, embed_poly,
                              generator_f, norm_inverse_generator,
                              origin_character, truncated_basis)
from momentext.polyalg import (Poly, exponents_up_to_degree, grlex_key, norm_squared,
                               norm_squared_power)


def rational_direction(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    # rational points on the unit sphere via the stereographic parametrization
    if dim == 1:
        return (Fraction(rng.choice([-1, 1])),)
    u = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim - 1)]
    s = sum(c * c for c in u)
    coords = [2 * c / (1 + s) for c in u] + [(1 - s) / (1 + s)]
    rng.shuffle(coords)
    return tuple(coords)


def test_normalization_strips_norm_factors():
    d = 2
    numerator = Poly.variable(d, 0) ** 2 * norm_squared(d)
    a = a_normalize(numerator, 2)
    assert a.pole_order == 1
    assert a.numerator == Poly.variable(d, 0) ** 2


def test_normalization_of_zero():
    a = a_normalize(Poly.zero(3), 4)
    assert a.pole_order == 0 and a.numerator.is_zero()


def test_degree_condition_enforced():
    x1 = Poly.variable(2, 0)
    with pytest.raises(NotInAlgebraError):
        a_normalize(x1, 1)  # x1 / ||x||^2 is unbounded near 0
    ok = a_normalize(x1 ** 2, 1)
    assert ok.pole_order == 1
    lau = a_normalize(x1, 1, Mode.LAURENT)  # fine in the Laurent algebra
    assert lau.pole_order == 1


def test_unreduced_element_rejected():
    with pytest.raises(ValueError):
        AElement(norm_squared(2), 1, Mode.APLUS)


def test_trace_identity_exact():
    for d in (1, 2, 3, 4):
        total = generator_f(1, 1, d)
        for k in range(2, d + 1):
            total = total + generator_f(k, k, d)
        assert total == embed_poly(Poly.constant(d, 1))


def test_square_sum_identity_exact():
    for d in (1, 2, 3, 4):
        total = None
        for k in range(1, d + 1):
            for l in range(1, d + 1):
                sq = generator_f(k, l, d) * generator_f(k, l, d)
                total = sq if total is None else total + sq
        assert total == embed_poly(Poly.constant(d, 1))


def test_univariate_generator_collapses():
    assert generator_f(1, 1, 1) == embed_poly(Poly.constant(1, 1))


def test_point_character_values():
    chi = Character.at_point((Fraction(1), Fraction(2)))
    assert chi(generator_f(1, 2, 2)) == Fraction(2, 5)
    assert chi(generator_f(1, 1, 2)) == Fraction(1, 5)
    assert chi(embed_poly(Poly.variable(2, 1))) == Fraction(2)


def test_character_multiplicativity_point():
    rng = random.Random(0)
    for _ in range(100):
        d = rng.choice([2, 3])
        pt = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
        if all(c == 0 for c in pt):
            continue
        chi = Character.at_point(pt)
        a = random_element(rng, d)
        b = random_element(rng, d)
        assert chi(a * b) == chi(a) * chi(b)
        assert chi(a + b) == chi(a) + chi(b)


def test_character_multiplicativity_directional():
    rng = random.Random(1)
    for _ in range(100):
        d = rng.choice([2, 3])
        t = rational_direction(rng, d)
        chi = Character.along(t)
        a = random_element(rng, d)
        b = random_element(rng, d)
        assert chi(a * b) == chi(a) * chi(b)
        assert chi(a + b) == chi(a) + chi(b)


def random_element(rng: random.Random, d: int) -> AElement:
    m = rng.randint(0, 2)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        extra = rng.randint(0, 2)
        base = [0] * d
        for _ in range(2 * m + extra):
            base[rng.randrange(d)] += 1
        terms[tuple(base)] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    numerator = Poly(d, terms)
    if numerator.is_zero():
        numerator = Poly.constant(d, 1) if m == 0 else norm_squared(d) ** m
    return a_normalize(numerator, m)


def test_directional_character_on_generators():
    t = (Fraction(3, 5), Fraction(4, 5))
    chi = Character.along(t)
    assert chi(generator_f(1, 1, 2)) == Fraction(9, 25)
    assert chi(generator_f(1, 2, 2)) == Fraction(12, 25)
    # the polynomial part dies in the limit; only the constant survives
    p = Poly.variable(2, 0) + Poly.constant(2, 7)
    assert chi(embed_poly(p)) == Fraction(7)


def test_directional_character_needs_unit_vector():
    with pytest.raises(ValueError):
        Character.along((Fraction(1, 2), Fraction(1, 2)))


def test_origin_character_is_first_axis():
    chi = origin_character(3)
    assert chi(generator_f(1, 1, 3)) == 1
    assert chi(generator_f(2, 2, 3)) == 0


def test_laurent_rejects_directional_characters():
    chi = Character.along((Fraction(3, 5), Fraction(4, 5)))
    y1 = norm_inverse_generator(1)
    with pytest.raises(ValueError):
        char_eval(chi, y1)


def test_point_character_on_laurent_generator():
    chi = Character.at_point((Fraction(1), Fraction(2)))
    assert chi(norm_inverse_generator(1)) == Fraction(1, 5)
    assert chi(norm_inverse_generator(2)) == Fraction(2, 5)


def test_truncated_basis_sizes_and_reducedness():
    b = truncated_basis(1, 2, 2)
    assert [str(a) for a in b] == [
        "(x1^2) / ||x||^2", "(x1*x2) / ||x||^2", "(x2^2) / ||x||^2"]
    assert len(truncated_basis(2, 6, 2)) == 18  # degrees 4..6: 5 + 6 + 7
    assert len(truncated_basis(0, 3, 2)) == 10
    lau = truncated_basis(1, 1, 2, Mode.LAURENT)
    # Laurent mode admits numerators below the pole degree: 1, x1, x2 over ||x||^2
    assert len(lau) == 3
    assert str(lau[0]) == "(1) / ||x||^2"
    # every listed element must already be in reduced form
    for a in truncated_basis(2, 5, 3):
        assert AElement(a.numerator, a.pole_order, a.mode) == a


def test_truncated_basis_lists_monomials_in_grlex_order():
    # each degree in turn, in its canonical order, is the grlex_key order
    for d, top in [(1, 8), (2, 8), (3, 8), (4, 6)]:
        for laurent in (False, True):
            mode = Mode.LAURENT if laurent else Mode.APLUS
            for pole in range(top // 2 + 1):
                exps = sorted((e for e in exponents_up_to_degree(d, top)
                               if laurent or sum(e) >= 2 * pole), key=grlex_key)
                assert truncated_basis(pole, top, d, mode) == \
                    [a_normalize(Poly.monomial(d, e), pole, mode) for e in exps]


def test_truncated_basis_univariate_collapse():
    # in one variable x^2/||x||^2 = 1, so entries reduce to plain powers
    b = truncated_basis(1, 3, 1)
    assert [(str(a.numerator), a.pole_order) for a in b] == [("1", 0), ("x1", 0)]


def test_power_operator():
    f = generator_f(1, 2, 3)
    assert f ** 0 == embed_poly(Poly.constant(3, 1))
    assert f ** 3 == f * f * f


def test_power_refuses_bool_exponents():
    f = generator_f(1, 2, 3)
    for exponent in (True, False):
        with pytest.raises(TypeError, match="bool"):
            f ** exponent


def test_mode_mixing_rejected():
    a = generator_f(1, 1, 2)
    y = norm_inverse_generator(1)
    with pytest.raises(ValueError):
        a + y  # bounded-mode element plus Laurent element


# -- valuation shortcuts against a_normalize --------------------------------------

COEFFICIENTS = st.fractions(min_value=-8, max_value=8, max_denominator=5)


@st.composite
def polys(draw, d: int, max_degree: int = 3) -> Poly:
    exponents = st.tuples(*[st.integers(0, max_degree)] * d)
    return Poly(d, draw(st.dictionaries(exponents, COEFFICIENTS, max_size=5)))


def lowest_degree(p: Poly) -> int:
    return 0 if p.is_zero() else p.degree_range()[0]


@st.composite
def elements(draw, d: int, mode: Mode) -> AElement:
    """Reduced elements, zero included; pole-free ones may carry ||x||^2 factors."""
    numerator = draw(polys(d)) * norm_squared_power(d, draw(st.integers(0, 2)))
    if mode is Mode.APLUS:
        # x1^(2j) makes room for poles under the degree condition
        numerator = numerator * Poly.monomial(d, (2 * draw(st.integers(0, 2)),) + (0,) * (d - 1))
        pole = draw(st.integers(0, lowest_degree(numerator) // 2))
    else:
        pole = draw(st.integers(0, 3))
    return a_normalize(numerator, pole, mode)


@st.composite
def element_pairs(draw) -> tuple[AElement, AElement]:
    """Pairs that reach every shortcut and every case the shortcuts exclude."""
    d, mode = draw(st.integers(1, 4)), draw(st.sampled_from(Mode))
    shape = draw(st.sampled_from(("independent", "equal poles cancel",
                                  "pole-free factor with s", "one variable")))
    if shape == "independent":
        return draw(elements(d, mode)), draw(elements(d, mode))
    if shape == "pole-free factor with s":
        s_factor = norm_squared_power(d, draw(st.integers(1, 2)))
        return embed_poly(draw(polys(d)) * s_factor, mode), draw(elements(d, mode))
    if shape == "one variable":
        # x1*p / x1^(2m) is reduced when p(0) != 0, and a product of two
        # such numerators is divisible by x1^2
        x1 = Poly.variable(1, 0)
        return tuple(a_normalize(x1 * draw(polys(1)), draw(st.integers(1, 3)), Mode.LAURENT)
                     for _ in range(2))
    pole = draw(st.integers(1, 3))
    shift = Poly.monomial(d, (2 * pole,) + (0,) * (d - 1))
    p, q = draw(polys(d)) * shift, draw(polys(d)) * shift
    return a_normalize(p, pole, mode), a_normalize(q * norm_squared(d) - p, pole, mode)


def assert_reduced(a: AElement) -> None:
    """The public constructor re-checks reducedness and the degree condition."""
    AElement(a.numerator, a.pole_order, a.mode)
    assert a.pole_order == 0 or not a.is_zero()


@settings(max_examples=150, deadline=None)
@given(pair=element_pairs())
def test_product_matches_normalized_product(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        got = a_mul(x, y)
        assert got == a_normalize(x.numerator * y.numerator,
                                  x.pole_order + y.pole_order, x.mode)
        assert_reduced(got)


@settings(max_examples=150, deadline=None)
@given(pair=element_pairs())
def test_sum_matches_normalized_sum(pair):
    a, b = pair
    m = max(a.pole_order, b.pole_order)
    want = a_normalize(a.numerator * norm_squared_power(a.nvars, m - a.pole_order)
                       + b.numerator * norm_squared_power(a.nvars, m - b.pole_order), m, a.mode)
    for x, y in ((a, b), (b, a)):
        got = a_add(x, y)
        assert got == want
        assert_reduced(got)
        if x.pole_order != y.pole_order:
            # an unequal-pole sum is reduced as it stands
            lifted = (x.numerator * norm_squared_power(a.nvars, m - x.pole_order)
                      + y.numerator * norm_squared_power(a.nvars, m - y.pole_order))
            assert (got.pole_order, list(got.numerator.terms.items())) == \
                (m, list(lifted.terms.items()))


def test_shortcut_cases_by_hand():
    s = norm_squared(2)
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    y1 = norm_inverse_generator(1)
    # a pole-free factor carrying s cancels the other factor's pole
    assert a_mul(embed_poly(s * x1, Mode.LAURENT), y1) == embed_poly(x1 * x1, Mode.LAURENT)
    # equal poles cancel: x1^2/s + x2^2/s = 1
    assert a_add(a_normalize(x1 * x1, 1), a_normalize(x2 * x2, 1)) == embed_poly(Poly.constant(2, 1))
    # d = 1: s = x1^2 is not prime, (x1/x1^2)^2 = 1/x1^2
    u = a_normalize(Poly.variable(1, 0), 1, Mode.LAURENT)
    assert a_mul(u, u) == a_normalize(Poly.constant(1, 1), 1, Mode.LAURENT)


# -- canonical form ------------------------------------------------------------------


@st.composite
def numerators_with_poles(draw) -> tuple[Poly, int, Mode]:
    d, mode = draw(st.integers(1, 4)), draw(st.sampled_from(Mode))
    numerator = draw(polys(d))
    if mode is Mode.APLUS:
        return numerator, draw(st.integers(0, lowest_degree(numerator) // 2)), mode
    return numerator, draw(st.integers(0, 3)), mode


@settings(max_examples=100, deadline=None)
@given(case=numerators_with_poles(), j=st.integers(0, 3))
def test_normal_form_ignores_norm_square_factors(case, j):
    numerator, pole, mode = case
    assert a_normalize(numerator * norm_squared_power(numerator.nvars, j), pole + j, mode) \
        == a_normalize(numerator, pole, mode)


@settings(max_examples=100, deadline=None)
@given(first=numerators_with_poles(), other=st.data(), j=st.integers(0, 2))
def test_elements_are_equal_exactly_when_cross_products_agree(first, other, j):
    numerator, pole, mode = first
    d = numerator.nvars
    a = a_normalize(numerator, pole, mode)
    if other.draw(st.booleans()):
        b = a_normalize(numerator * norm_squared_power(d, j), pole + j, mode)
    else:
        b = other.draw(elements(d, mode))
    cross = (a.numerator * norm_squared_power(d, b.pole_order)
             == b.numerator * norm_squared_power(d, a.pole_order))
    assert (a == b) == cross
