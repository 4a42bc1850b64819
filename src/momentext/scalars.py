"""Exact scalar helpers: rational string parsing and Gaussian rationals.

All exact paths in this package run over ``fractions.Fraction``.  Complex
moment data is stored as ``GaussianRational`` values a + b*i with exact
rational parts; the code that computes complex moments works on those
parts directly, so the type has no arithmetic.  Floats are deliberately
refused by the coercion helpers: anything float-valued must go through the
explicitly approximate code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


def as_fraction(value: int | Fraction | str) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to Fraction.  Floats refused.

    A Fraction comes back as itself: it is immutable, so no copy is needed.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def is_exact_scalar(value) -> bool:
    """True for an int or a Fraction; a bool is not an exact scalar."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def clear_denominators(values) -> tuple[list[int], int]:
    """Rationals as integers over one positive denominator, their lcm, which is
    taken over the distinct denominators only."""
    den = lcm(*{x.denominator for x in values})
    return [x.numerator * (den // x.denominator) for x in values], den


def power_by_squaring(base, exponent: int, one):
    """base ** exponent for an int exponent >= 0, by square-and-multiply.

    ``one`` is the multiplicative identity of base's type; callers check
    the exponent (and invert for negative powers) before delegating here.
    A bool exponent is refused here for every caller, as ``as_fraction``
    refuses a bool scalar.
    """
    if isinstance(exponent, bool):
        raise TypeError("bool is not an exponent")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" (the JSON on-disk form)."""
    if type(value) is not Fraction:
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts; a plain value."""

    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", as_fraction(self.re))
        object.__setattr__(self, "im", as_fraction(self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return f"{format_fraction(self.re)}{'+' if self.im >= 0 else '-'}{format_fraction(abs(self.im))}i"
