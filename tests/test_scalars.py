from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentext.functionals.core import DiscreteMeasure
from momentext.scalars import (GaussianRational, as_fraction, clear_denominators,
                               format_fraction, is_exact_scalar)
from test_semigroups import G


def test_as_fraction_accepts_exact_inputs():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 6)) == Fraction(1, 3)
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("-5") == Fraction(-5)


def test_as_fraction_refuses_inexact_inputs():
    with pytest.raises((TypeError, ValueError)):
        as_fraction(0.5)
    with pytest.raises((TypeError, ValueError)):
        as_fraction(True)


def test_exact_scalars_are_ints_and_fractions_but_not_bools():
    for value in (0, -3, 2 ** 70, Fraction(1, 3)):
        assert is_exact_scalar(value)
    for value in (True, False, 0.5, "1", None, 1j):
        assert not is_exact_scalar(value)
    one = Fraction(1)
    assert DiscreteMeasure(1, atoms=((one, (Fraction(2),)),)).is_exact()
    assert not DiscreteMeasure(1, atoms=((True, (Fraction(2),)),)).is_exact()
    assert not DiscreteMeasure(1, atoms=((one, (True,)),)).is_exact()


def test_as_fraction_returns_a_fraction_itself_and_copies_subclasses():
    class Tagged(Fraction):
        pass

    q = Fraction(3, 4)
    assert as_fraction(q) is q
    tagged = as_fraction(Tagged(3, 4))
    assert type(tagged) is Fraction and tagged == q
    with pytest.raises(TypeError):
        as_fraction(True)
    assert format_fraction(q) == "3/4" and format_fraction(Tagged(6, 3)) == "2"


def clear_denominators_oracle(values):
    """The lcm of all denominators, and each value times it, in Fractions."""
    den = lcm(*[Fraction(x).denominator for x in values])
    return [int(Fraction(x) * den) for x in values], den


# few distinct denominators, so most lists repeat some; ints have denominator 1
RATIONALS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.sampled_from([1, 2, 3, 4, 6, 35])),
    st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 4))


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(st.lists(RATIONALS, max_size=30),
                        st.lists(st.integers(-50, 50), max_size=5)))
def test_clear_denominators_matches_fraction_oracle(values):
    numerators, den = clear_denominators(values)
    assert (numerators, den) == clear_denominators_oracle(values)
    assert den > 0 and all(type(a) is int for a in numerators)
    assert [Fraction(a, den) for a in numerators] == values


def test_clear_denominators_edge_cases():
    assert clear_denominators([]) == ([], 1)
    assert clear_denominators([3, -4, 0]) == ([3, -4, 0], 1)
    assert clear_denominators([Fraction(-1, 6), Fraction(5, 6), Fraction(1, 4), 2]) == \
        ([-2, 10, 3, 24], 12)


def test_format_fraction():
    assert format_fraction(Fraction(3)) == "3"
    assert format_fraction(Fraction(-1, 2)) == "-1/2"


def test_gaussian_product():
    a = G(1, 2)
    b = G(3, -1)
    assert a * b == G(5, 5)


def test_gaussian_conjugate_and_abs2():
    z = G(1, 2)
    assert z.conjugate() == G(1, -2)
    assert z.abs2() == Fraction(5)
    assert z * z.conjugate() == G(5, 0)


def test_gaussian_inverse():
    z = G(1, 1)
    assert z.inverse() == G(Fraction(1, 2), Fraction(-1, 2))
    assert z * z.inverse() == G(1)
    with pytest.raises(ZeroDivisionError):
        G(0).inverse()


def test_gaussian_negative_powers():
    z = G(1, 1)
    # (1+i)^2 = 2i, so (1+i)^-2 = 1/(2i) = -i/2
    assert z ** -2 == G(0, Fraction(-1, 2))
    assert z ** 0 == G(1)
    assert z ** 3 == G(-2, 2)


def test_gaussian_power_refuses_bool_exponents():
    z = G(1, 1)
    for exponent in (True, False):
        with pytest.raises(TypeError, match="bool"):
            z ** exponent


def test_gaussian_mixed_scalar_arithmetic():
    z = G(2, -1)
    assert z + 1 == G(3, -1)
    assert 2 * z == G(4, -2)
    assert z - Fraction(1, 2) == G(Fraction(3, 2), -1)
    assert -z == G(-2, 1)


def test_gaussian_complex_coercion():
    assert complex(GaussianRational(Fraction(1, 2), -3)) == complex(0.5, -3.0)


def test_gaussian_exactness_guard():
    with pytest.raises((TypeError, ValueError)):
        GaussianRational(0.5, Fraction(0))


def test_gaussian_rational_is_a_plain_exact_value():
    z = GaussianRational("1/2", -3)
    assert (z.re, z.im) == (Fraction(1, 2), Fraction(-3))
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert GaussianRational(Fraction(4, 6), 0) == GaussianRational("2/3", Fraction(0))
    for re, im in ((0.5, 0), (0, 0.5), (True, 0), (0, False)):
        with pytest.raises(TypeError):
            GaussianRational(re, im)
    assert complex(z) == complex(0.5, -3.0)
    assert (str(z), str(GaussianRational(2, Fraction(1, 3)))) == ("1/2-3i", "2+1/3i")
    for operation in (lambda: z + z, lambda: z + 1, lambda: 2 * z, lambda: z * z,
                      lambda: z ** 2, lambda: -z):
        with pytest.raises(TypeError):
            operation()
