from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentext
from momentext.extalg import (AElement, Mode, NotInAlgebraError, a_normalize,
                              embed_poly, truncated_basis)
from momentext.functionals.core import (DiscreteMeasure, LinearFunctional,
                                        SCALAR_EXACT, extend_from_measure,
                                        gram_matrix, polynomial_moments)
from momentext.functionals.feasibility import extension_feasibility
from momentext.polyalg import (ClearedPoint, ClearedPoly, DimensionMismatchError,
                               Poly, divide_by_norm_squared, divide_out_norm_squared,
                               exponents_of_degree, exponents_up_to_degree,
                               grlex_key, norm_squared, norm_squared_power)
from momentext.semigroups import inversion_automorphism
from momentext.serialize import (aelement_from_dict, aelement_to_dict, poly_from_dict,
                                 poly_to_dict)


def random_poly(rng: random.Random, nvars: int, max_degree: int = 3) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    return Poly(nvars, terms)


def random_point(rng: random.Random, nvars: int) -> list[Fraction]:
    return [Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(nvars)]


def fraction_eval(p: Poly, point) -> Fraction:
    """p at a rational point by a Fraction power loop: the oracle of the
    integer evaluation behind ``Poly.eval`` and ``ClearedPoly``."""
    total = Fraction(0)
    for exp, coeff in p.terms.items():
        value = coeff
        for base, power in zip(point, exp):
            if power:
                value *= Fraction(base) ** power
        total += value
    return total


def test_monomial_listing_order():
    # canonical listing: by total degree, then first coordinate heaviest
    assert exponents_up_to_degree(2, 2) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert exponents_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert exponents_of_degree(1, 4) == [(4,)]
    assert exponents_of_degree(2, 0) == [(0, 0)]


def test_degree_counts():
    # d-variate monomials of degree t: C(t + d - 1, d - 1)
    assert len(exponents_of_degree(2, 5)) == 6
    assert len(exponents_of_degree(3, 4)) == 15
    assert len(exponents_up_to_degree(3, 2)) == 10


def test_grlex_key_sorts_degree_first():
    exps = [(0, 2), (1, 0), (2, 0), (0, 0), (1, 1)]
    assert sorted(exps, key=grlex_key) == [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2)]


def test_square_of_binomial():
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    p = (x1 + x2) ** 2
    assert p.terms == {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}


def test_exact_evaluation():
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    p = x1 ** 2 + 2 * x1 * x2
    # (1/2)^2 + 2*(1/2)*(1/3) = 1/4 + 1/3
    assert p([Fraction(1, 2), Fraction(1, 3)]) == Fraction(7, 12)


def test_zero_and_constant_bookkeeping():
    z = Poly.zero(2)
    assert z.is_zero()
    assert z.degree_range() is None
    assert z.max_degree() == -1
    c = Poly.constant(2, Fraction(3, 4))
    assert c.degree_range() == (0, 0)
    assert (c - c).is_zero()
    # cancelling terms are dropped from storage entirely
    x1 = Poly.variable(2, 0)
    assert (x1 - x1).terms == {}


def test_homogeneous_component():
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    p = x1 ** 3 + x1 * x2 + Poly.constant(2, 5)
    assert p.homogeneous_component(2).terms == {(1, 1): Fraction(1)}
    assert p.homogeneous_component(0).terms == {(0, 0): Fraction(5)}
    assert p.homogeneous_component(1).is_zero()


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        Poly.variable(2, 0) + Poly.variable(3, 0)


def test_norm_squared_shapes():
    assert norm_squared(1).terms == {(2,): Fraction(1)}
    assert norm_squared(3).terms == {
        (2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}


def norm_power_by_product_loop(d: int, t: int) -> list:
    """(x1^2 + ... + xd^2)^t as t explicit products, its terms in order."""
    ns = Poly(d, {tuple(2 if j == i else 0 for j in range(d)): 1 for i in range(d)})
    result = Poly.constant(d, 1)
    for _ in range(t):
        result = result * ns
    return list(result.terms.items())


def test_norm_squared_power_matches_product_loop():
    # the term order is part of the contract: float lifts sum in this order
    for d in range(1, 5):
        for t in range(7):
            expected = norm_power_by_product_loop(d, t)
            assert list(norm_squared_power(d, t).terms.items()) == expected
            assert list((norm_squared(d) ** t).terms.items()) == expected
            assert norm_squared_power(d, t) is norm_squared_power(d, t)
        assert norm_squared(d) is norm_squared_power(d, 1)
    with pytest.raises(ValueError):
        norm_squared_power(2, -1)


def test_callers_leave_the_shared_norm_powers_intact():
    # every lift and reduction reads the memoized polynomials; none may edit them
    x1 = embed_poly(Poly.variable(2, 0), Mode.LAURENT)
    y1 = a_normalize(Poly.variable(2, 0), 1, Mode.LAURENT)
    inv_norm_cube = a_normalize(Poly.constant(2, 1), 3, Mode.LAURENT)
    assert (x1 + y1) + inv_norm_cube == x1 + (y1 + inv_norm_cube)
    mixed = x1 * inv_norm_cube + y1
    assert inversion_automorphism(inversion_automorphism(mixed)) == mixed
    mu = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(2))),
                                   (Fraction(1, 2), (Fraction(-1), Fraction(1, 3)))))
    L = extend_from_measure(mu, 2, 4)
    top = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT,
                           {k: v for k, v in L.values.items() if k[1] == 2})
    basis = truncated_basis(0, 2, 2)
    assert gram_matrix(top, basis) == gram_matrix(L, basis)
    assert extension_feasibility(polynomial_moments(mu, 2), 1, 4).feasible
    for d in range(1, 5):
        for t in range(7):
            assert list(norm_squared_power(d, t).terms.items()) == \
                norm_power_by_product_loop(d, t)


def test_divide_by_norm_squared_roundtrip():
    rng = random.Random(42)
    for _ in range(60):
        d = rng.randint(1, 4)
        p = random_poly(rng, d)
        prod = p * norm_squared(d)
        quotient = divide_by_norm_squared(prod)
        assert quotient == p


def test_divide_by_norm_squared_refuses_nonmultiples():
    x1 = Poly.variable(2, 0)
    assert divide_by_norm_squared(x1) is None
    assert divide_by_norm_squared(x1 ** 2) is None
    assert divide_by_norm_squared(norm_squared(2) + Poly.constant(2, 1)) is None
    # ||x||^2 * x1 + 1 is congruent to 1 mod ||x||^2, not divisible
    assert divide_by_norm_squared(norm_squared(2) * x1 + 1) is None


def test_divide_univariate():
    # in one variable ||x||^2 = x^2, so division is a plain degree shift
    p = Poly(1, {(3,): Fraction(2), (2,): Fraction(-1)})
    q = divide_by_norm_squared(p)
    assert q == Poly(1, {(1,): Fraction(2), (0,): Fraction(-1)})


def test_arithmetic_matches_evaluation():
    rng = random.Random(7)
    for _ in range(80):
        d = rng.randint(1, 3)
        p = random_poly(rng, d)
        q = random_poly(rng, d)
        pt = random_point(rng, d)
        assert (p + q)(pt) == p(pt) + q(pt)
        assert (p - q)(pt) == p(pt) - q(pt)
        assert (p * q)(pt) == p(pt) * q(pt)
        k = rng.randint(0, 3)
        assert (p ** k)(pt) == p(pt) ** k


def test_power_refuses_bool_exponents():
    x1 = Poly.variable(2, 0)
    for exponent in (True, False):
        with pytest.raises(TypeError, match="bool"):
            x1 ** exponent


def test_scalar_coercion():
    x1 = Poly.variable(2, 0)
    assert (2 * x1)([Fraction(3), Fraction(0)]) == 6
    assert (x1 + Fraction(1, 2))([Fraction(0), Fraction(0)]) == Fraction(1, 2)
    assert (x1 * Fraction(1, 3)).terms == {(1, 0): Fraction(1, 3)}


def test_string_rendering():
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    assert str(x1 ** 2 - x2) in ("x1^2 - x2", "-x2 + x1^2")
    assert str(Poly.zero(2)) == "0"


# -- trusted internal construction against the validated path ---------------


def divide_by_norm_squared_by_rescan(p: Poly) -> Poly | None:
    """The division as first written: rescan the remainder for its lead after
    every cancellation.  The oracle of the one-pass division."""
    remainder = dict(p.terms)
    quotient: dict = {}
    q_items = norm_squared(p.nvars).terms.items()
    while remainder:
        lead = max(remainder, key=lambda e: (sum(e), e))
        if lead[0] < 2:
            return None
        shift = (lead[0] - 2,) + lead[1:]
        coeff = remainder[lead]
        quotient[shift] = coeff
        for qe, qc in q_items:
            exp = tuple(a + b for a, b in zip(shift, qe))
            new = remainder.get(exp, Fraction(0)) - coeff * qc
            if new == 0:
                remainder.pop(exp, None)
            else:
                remainder[exp] = new
    return Poly(p.nvars, quotient)


COEFFICIENTS = st.fractions(min_value=-8, max_value=8, max_denominator=5)


@st.composite
def polys(draw, nvars: int, max_degree: int = 3) -> Poly:
    exponents = st.tuples(*[st.integers(0, max_degree)] * nvars)
    return Poly(nvars, draw(st.dictionaries(exponents, COEFFICIENTS, max_size=6)))


@st.composite
def poly_pairs(draw) -> tuple[Poly, Poly]:
    d = draw(st.integers(1, 4))
    return draw(polys(d)), draw(polys(d))


@st.composite
def dividends(draw) -> Poly:
    """Random polynomials, some multiplied by ||x||^(2t), some then disturbed."""
    d = draw(st.integers(1, 4))
    p = draw(polys(d)) * norm_squared_power(d, draw(st.integers(0, 2)))
    if draw(st.booleans()):
        p = p + draw(polys(d, max_degree=5))
    return p


def assert_same_poly(got: Poly, want: Poly) -> None:
    assert got.nvars == want.nvars
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


@settings(max_examples=300, deadline=None)
@given(p=dividends())
def test_one_pass_division_matches_rescan_oracle(p):
    got, want = divide_by_norm_squared(p), divide_by_norm_squared_by_rescan(p)
    assert (got is None) == (want is None)
    if got is not None:
        assert_same_poly(got, want)


def validated_sum(p: Poly, q: Poly) -> Poly:
    terms = dict(p.terms)
    for exp, coeff in q.terms.items():
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return Poly(p.nvars, terms)


def validated_product(p: Poly, q: Poly) -> Poly:
    terms: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            terms[exp] = terms.get(exp, Fraction(0)) + c1 * c2
    return Poly(p.nvars, terms)


def validated_normalize(numerator: Poly, pole: int, mode: Mode) -> AElement:
    while pole > 0 and (quotient := divide_by_norm_squared_by_rescan(numerator)) is not None:
        numerator, pole = quotient, pole - 1
    return AElement(numerator, 0 if numerator.is_zero() else pole, mode)


def assert_same_element(got: AElement, want: AElement) -> None:
    assert got == want
    assert_same_poly(got.numerator, want.numerator)


@settings(max_examples=200, deadline=None)
@given(pair=poly_pairs(), scalar=COEFFICIENTS, t=st.integers(0, 2), extra=st.integers(0, 2))
def test_trusted_arithmetic_matches_validated_construction(pair, scalar, t, extra):
    p, q = pair
    d = p.nvars
    assert_same_poly(p + q, validated_sum(p, q))
    assert_same_poly(p - q, validated_sum(p, Poly(d, {e: -c for e, c in q.terms.items()})))
    assert_same_poly(-p, Poly(d, {e: -c for e, c in p.terms.items()}))
    assert_same_poly(p * q, validated_product(p, q))
    assert_same_poly(p * scalar, Poly(d, {e: c * scalar for e, c in p.terms.items()}))
    # numerators with ||x||^2 factors to strip, in both modes
    numerator = validated_product(p, norm_squared_power(d, t))
    low = numerator.degree_range()[0] if not numerator.is_zero() else 0
    for mode, pole in ((Mode.LAURENT, t + extra), (Mode.APLUS, low // 2)):
        a = a_normalize(numerator, pole, mode)
        assert_same_element(a, validated_normalize(numerator, pole, mode))
        assert_same_element(-a, AElement(-a.numerator, a.pole_order, mode))
        if scalar:
            assert_same_element(a * scalar, AElement(a.numerator * scalar, a.pole_order, mode))


def filtered(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def summed_terms(p: Poly, q: Poly) -> dict:
    terms = dict(p.terms)
    for exp, coeff in q.terms.items():
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return filtered(terms)


def product_terms(p: Poly, q: Poly) -> dict:
    terms: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            terms[exp] = terms.get(exp, Fraction(0)) + c1 * c2
    return filtered(terms)


def power_terms(p: Poly, k: int) -> dict:
    """Square-and-multiply over ``product_terms``, the order ``**`` multiplies in."""
    result, base = Poly.constant(p.nvars, 1), p
    while k:
        if k & 1:
            result = Poly(p.nvars, product_terms(result, base))
        k >>= 1
        if k:
            base = Poly(p.nvars, product_terms(base, base))
    return dict(result.terms)


@st.composite
def cancelling_pairs(draw) -> tuple[Poly, Poly]:
    """(p, q) where q repeats some of p's terms negated and some with a
    flipped sign, so sums cancel keys and products cancel cross terms."""
    d = draw(st.integers(1, 3))
    p = draw(polys(d, max_degree=2))
    q = dict(draw(polys(d, max_degree=2)).terms)
    for exp, coeff in p.terms.items():
        q[exp] = draw(st.sampled_from([-coeff, coeff, q.get(exp, coeff)]))
    return p, Poly(d, q)


@settings(max_examples=300, deadline=None)
@given(pair=cancelling_pairs(), scalar=st.one_of(st.just(0), COEFFICIENTS),
       k=st.integers(0, 4), t=st.integers(0, 2))
def test_arithmetic_stores_no_zero_and_matches_filtered_terms(pair, scalar, k, t):
    p, q = pair
    d = p.nvars
    negated = {e: -c for e, c in q.terms.items()}
    lift = norm_squared_power(d, t)
    cases = [(p + q, summed_terms(p, q)), (p - q, summed_terms(p, Poly(d, negated))),
             (p + -p, {}), (-q, negated), (p * q, product_terms(p, q)),
             (p * lift, product_terms(p, lift)),
             (p * scalar, filtered({e: c * scalar for e, c in p.terms.items()})),
             (p ** k, power_terms(p, k))]
    if t:  # a multiple of ||x||^2, so both divisions return a quotient
        cases.append((divide_by_norm_squared(p * lift),
                      divide_by_norm_squared_by_rescan(p * lift).terms))
    for got, want in cases:
        assert all(c != 0 and type(c) is Fraction for c in got.terms.values())
        assert list(got.terms.items()) == list(want.items())


@st.composite
def product_operands(draw) -> tuple[Poly, Poly]:
    """Factors: a single term on either side (no sums), general pairs, and
    (u + v, u - v), whose cross terms cancel after clearing to integers."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["single left", "single right", "general", "cancelling"]))
    if kind.startswith("single"):
        single = Poly.monomial(d, draw(st.tuples(*[st.integers(0, 3)] * d)),
                               draw(COEFFICIENTS.filter(bool)))
        other = draw(polys(d))
        return (single, other) if kind == "single left" else (other, single)
    u, v = draw(polys(d)), draw(polys(d))
    return (u, v) if kind == "general" else (u + v, u - v)


@settings(max_examples=150, deadline=None)
@given(pair=product_operands())
def test_integer_content_product_matches_fraction_product(pair):
    p, q = pair
    assert_same_poly(p * q, validated_product(p, q))
    assert_same_poly(q * p, validated_product(q, p))
    if len(p.terms) < 2 or len(q.terms) < 2:
        assert_same_poly(p * q, single_term_product(p, q))
        assert_same_poly(q * p, single_term_product(q, p))


def single_term_product(p: Poly, q: Poly) -> Poly:
    """A product by a single term in Fractions: it makes no sums, so no zeros."""
    return Poly._trusted(p.nvars, {tuple(a + b for a, b in zip(e1, e2)): c1 * c2
                                   for e1, c1 in p.terms.items()
                                   for e2, c2 in q.terms.items()})


def divide_out_by_rescan(p: Poly, limit: int) -> tuple[Poly, int]:
    while limit and (quotient := divide_by_norm_squared_by_rescan(p)) is not None:
        p, limit = quotient, limit - 1
    return p, limit


@settings(max_examples=150, deadline=None)
@given(p=st.one_of(dividends(), st.integers(1, 4).map(Poly.zero)),
       extra=st.booleans(), limit=st.integers(0, 3))
def test_divide_out_matches_repeated_rescan_division(p, extra, limit):
    if extra:  # a third factor of ||x||^2 for limit 3
        p = p * norm_squared(p.nvars)
    got, left = divide_out_norm_squared(p, limit)
    want, want_left = divide_out_by_rescan(p, limit)
    assert left == want_left
    assert_same_poly(got, want)
    if p.is_zero():
        assert left == 0


def test_bools_are_refused_as_exponents_and_pole_orders():
    with pytest.raises(ValueError, match="not bools"):
        Poly(2, {(True, 0): 1})
    x1 = Poly.variable(2, 0)
    for build in (lambda: a_normalize(x1, True, Mode.LAURENT),
                  lambda: AElement(x1, True, Mode.LAURENT),
                  lambda: AElement(x1 * x1, False, Mode.APLUS)):
        with pytest.raises(TypeError, match="bool"):
            build()
    # what the constructors accept, serialization writes and loads back
    p = Poly(2, {(1, 0): Fraction(1, 2), (0, 3): -2})
    assert_same_poly(poly_from_dict(json.loads(json.dumps(poly_to_dict(p)))), p)
    for a in (a_normalize(x1 * 3, 1, Mode.LAURENT), a_normalize(x1 * x1, 1, Mode.APLUS)):
        assert_same_element(aelement_from_dict(json.loads(json.dumps(aelement_to_dict(a)))), a)


def test_public_constructors_keep_their_checks():
    with pytest.raises(ValueError):
        Poly(2, {(1, -1): 1})
    with pytest.raises(DimensionMismatchError):
        Poly(2, {(1,): 1})
    with pytest.raises(DimensionMismatchError):
        Poly(2, {(1, 0, 0): 1})
    x1 = Poly.variable(2, 0)
    with pytest.raises(ValueError, match="not reduced"):
        AElement(norm_squared(2) * x1, 1, Mode.LAURENT)
    with pytest.raises(NotInAlgebraError):
        AElement(x1, 1, Mode.APLUS)
    bad_keys = [{((1,), 0): 1},                  # wrong length
                {((1, -1), 0): 1},               # negative exponent
                {((2, 0), -1): 1},               # negative pole order
                {((1, 0), 1): 1}]                # outside the bounded-generator algebra
    for values in bad_keys:
        with pytest.raises(ValueError):
            LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, values)


def test_trusted_constructors_stay_internal():
    src = Path(momentext.__file__).parent
    callers = {str(path.relative_to(src)) for path in src.rglob("*.py")
               if "_trusted(" in path.read_text()}
    assert callers <= {"polyalg.py", "extalg.py", "semigroups.py", "functionals/core.py"}
    assert not [name for name in dir(momentext) if "trusted" in name]


COORDINATES = st.one_of(st.just(Fraction(0)), st.integers(-30, 30).map(Fraction),
                        st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6))


@st.composite
def polys_at_points(draw):
    """A polynomial in 1-3 variables of degree <= 6 and a rational point.

    Besides general polynomials there are zero polynomials, constants and
    polynomials with a factor (x_k - point_k), which vanish at the point.
    """
    nvars = draw(st.integers(1, 3))
    point = draw(st.lists(COORDINATES, min_size=nvars, max_size=nvars))
    coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)
    kind = draw(st.sampled_from(["zero", "constant", "general", "root"]))
    if kind == "zero":
        return Poly.zero(nvars), point
    if kind == "constant":
        return Poly.constant(nvars, draw(coeffs)), point
    degree = draw(st.integers(0, 6 if kind == "general" else 5))
    monomials = st.sampled_from(exponents_up_to_degree(nvars, degree))
    p = Poly(nvars, draw(st.dictionaries(monomials, coeffs, max_size=8)))
    if kind == "root":
        k = draw(st.integers(0, nvars - 1))
        p = p * (Poly.variable(nvars, k) - point[k])
    return p, point


@settings(max_examples=400, deadline=None)
@given(case=polys_at_points(), extra=st.integers(0, 2))
def test_integer_evaluation_matches_fraction_eval(case, extra):
    p, point = case
    expected = fraction_eval(p, point)
    assert type(p.eval(point)) is Fraction and p.eval(point) == expected
    # the point's power tables may reach past the polynomial's degree
    cleared = ClearedPoint(point, max(p.max_degree(), 0) + extra)
    form = ClearedPoly(p)
    value = form.value_at(cleared)
    assert type(value) is Fraction and value == expected
    numerator = form.numerator_at(cleared)
    assert type(numerator) is int
    assert (numerator > 0) - (numerator < 0) == (expected > 0) - (expected < 0)
    assert form.den > 0 and cleared.q_powers[0] == 1 and cleared.q_powers[-1] > 0
