"""Arithmetic in algebras of rational functions on punctured space.

The elements handled here are fractions h / ||x||^(2m) with polynomial
numerator h and ||x||^2 = x1^2 + ... + xd^2.  Two modes share that
representation:

* ``Mode.APLUS``: the algebra generated by all polynomials together with
  the bounded angular generators f_kl(x) = x_k*x_l / ||x||^2.  Membership
  is exactly the degree condition "every monomial of h has total degree
  >= 2m", which is validated on construction.

* ``Mode.LAURENT``: no degree restriction.  For d = 2 this is the algebra
  generated by x1, x2 and y_j = x_j / ||x||^2 (equivalently the Laurent
  algebra in z = x1 + i*x2 and its conjugate, taken over the reals).

Every element carries a unique reduced representative: ``a_normalize``
strips all common ||x||^2 factors from the numerator, so equality of
elements is equality of (numerator, pole_order) pairs.

Arithmetic decides most of that reduction from the ||x||^2-adic valuation
of reduced operands instead of trial division.  Write s = ||x||^2.  A
reduced numerator with a pole is not divisible by s.  For d >= 2, s is
irreducible over Q: a factorization of the quadratic form s would be into
two linear forms, whose product vanishes on a hyperplane, and for d >= 2
that hyperplane has nonzero real points while s is positive off the
origin.  So s is prime in the factorial ring Q[x] and divides a product
only through a factor: a product of two elements with poles is reduced as
it stands, and a pole-free factor is divided by s no more often than the
other factor's pole.  For d = 1, s = x1^2 is not prime and products are
normalized, as sums are in every d.  And since s is homogeneous, s
divides a polynomial exactly when it divides each of its homogeneous
components (``semigroups.inversion_automorphism`` reduces component by
component).  ``a_normalize`` remains the public reducer and
the reference the shortcuts are tested against.  It divides through
``divide_out_norm_squared``, which clears the numerator once and divides
in integers; ``divide_by_norm_squared`` is one step of that division.

Characters (multiplicative evaluations) come in two kinds: evaluation at a
nonzero point, and the limit along a direction t into the origin, which
kills every polynomial of positive degree but sees the angular generators
at t.  The directional kind only exists in APLUS mode, where all generators
have a radial limit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .polyalg import (DimensionMismatchError, Poly, divide_by_norm_squared,
                      divide_out_norm_squared, exponents_of_degree, norm_squared_power)
from .scalars import as_fraction, is_exact_scalar, power_by_squaring


class Mode(enum.Enum):
    APLUS = "Aplus"
    LAURENT = "Laurent"


class NotInAlgebraError(ValueError):
    """Numerator violates the APLUS degree condition."""


@dataclass(frozen=True)
class AElement:
    """Reduced fraction numerator / ||x||^(2*pole_order).

    The public constructor is the input boundary: it validates the
    invariants (numerator not divisible by ||x||^2 unless pole_order is 0,
    APLUS degree condition).  ``a_normalize``, negation and nonzero scalar
    multiples establish them and build through ``AElement._trusted``, which
    checks nothing.  Build elements through those and ``embed_poly``
    rather than by fixing up raw parts.
    """

    numerator: Poly
    pole_order: int
    mode: Mode = Mode.APLUS

    def __post_init__(self) -> None:
        _check_pole_order(self.pole_order)
        if self.pole_order > 0 and divide_by_norm_squared(self.numerator) is not None:
            raise ValueError("AElement not reduced: numerator divisible by ||x||^2")
        if self.mode is Mode.APLUS:
            _check_degree_condition(self.numerator, self.pole_order)

    @classmethod
    def _trusted(cls, numerator: Poly, pole_order: int, mode: Mode) -> "AElement":
        """An element whose invariants the caller has just established."""
        a = object.__new__(cls)
        a.__dict__.update(numerator=numerator, pole_order=pole_order, mode=mode)
        return a

    @property
    def nvars(self) -> int:
        return self.numerator.nvars

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce_element(other, self)
        if other is None:
            return NotImplemented
        return a_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_element(other, self)
        if other is None:
            return NotImplemented
        return a_add(self, -other)

    def __rsub__(self, other):
        other = _coerce_element(other, self)
        if other is None:
            return NotImplemented
        return a_add(other, -self)

    def __neg__(self) -> "AElement":
        return AElement._trusted(-self.numerator, self.pole_order, self.mode)

    def __mul__(self, other):
        if isinstance(other, AElement):
            return a_mul(self, other)
        if not is_exact_scalar(other):
            return NotImplemented
        if other == 0:
            return AElement(Poly.zero(self.nvars), 0, self.mode)
        return AElement._trusted(self.numerator * other, self.pole_order, self.mode)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "AElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("AElement powers must be nonnegative ints")
        one = embed_poly(Poly.constant(self.nvars, 1), self.mode)
        return power_by_squaring(self, exponent, one)

    def __str__(self) -> str:
        if self.pole_order == 0:
            return str(self.numerator)
        return f"({self.numerator}) / ||x||^{2 * self.pole_order}"


def _check_pole_order(pole_order: int) -> None:
    # a bool would be stored as given and written as JSON true/false
    if isinstance(pole_order, bool):
        raise TypeError("bool is not a pole order")
    if pole_order < 0:
        raise ValueError("pole_order must be >= 0")


def _check_degree_condition(numerator: Poly, pole_order: int) -> None:
    bound = 2 * pole_order
    for exp in numerator.terms:
        if sum(exp) < bound:
            raise NotInAlgebraError(
                f"monomial x^{exp} has degree {sum(exp)} < {bound}; "
                f"numerator / ||x||^{bound} leaves the bounded-generator algebra")


def _coerce_element(value, like: AElement) -> AElement | None:
    if isinstance(value, AElement):
        return value
    if isinstance(value, Poly):
        return embed_poly(value, like.mode)
    if is_exact_scalar(value):
        return embed_poly(Poly.constant(like.nvars, value), like.mode)
    return None


def a_normalize(numerator: Poly, pole_order: int, mode: Mode = Mode.APLUS) -> AElement:
    """Reduced element equal to numerator / ||x||^(2*pole_order).

    Raises NotInAlgebraError in APLUS mode when some numerator monomial has
    total degree below 2*pole_order (the offending monomial is named).
    Dividing by ||x||^2 lowers the least degree by exactly 2, so the checked
    degree condition holds for the reduced pair as well.
    """
    _check_pole_order(pole_order)
    if mode is Mode.APLUS:
        _check_degree_condition(numerator, pole_order)
    numerator, pole_order = divide_out_norm_squared(numerator, pole_order)
    if numerator.is_zero():
        pole_order = 0
    return AElement._trusted(numerator, pole_order, mode)


def embed_poly(p: Poly, mode: Mode = Mode.APLUS) -> AElement:
    """A polynomial viewed as an element with no pole."""
    return AElement(p, 0, mode)


def a_add(a: AElement, b: AElement) -> AElement:
    """Reduced a + b: the operand below the top pole is lifted to it and
    the sum goes through ``a_normalize``."""
    _check_compatible(a, b)
    m = max(a.pole_order, b.pole_order)
    na, nb = a.numerator, b.numerator
    if a.pole_order < m:
        na = na * norm_squared_power(a.nvars, m - a.pole_order)
    if b.pole_order < m:
        nb = nb * norm_squared_power(a.nvars, m - b.pole_order)
    return a_normalize(na + nb, m, a.mode)


def a_mul(a: AElement, b: AElement) -> AElement:
    """Reduced a * b, from the valuation rule of the module docstring.

    For d >= 2 the prime s = ||x||^2 divides neither reduced numerator with
    a pole: with both poles positive N_a * N_b is reduced, and a pole-free
    factor is divided by s at most the other's pole times.  Zero factors
    and d = 1 (s = x1^2 is not prime) go through ``a_normalize``.  The
    APLUS degree condition of the factors carries over to the product.
    """
    _check_compatible(a, b)
    pole = a.pole_order + b.pole_order
    if a.nvars == 1 or a.is_zero() or b.is_zero():
        return a_normalize(a.numerator * b.numerator, pole, a.mode)
    na, nb = a.numerator, b.numerator
    if not a.pole_order:
        na, pole = divide_out_norm_squared(na, pole)
    elif not b.pole_order:
        nb, pole = divide_out_norm_squared(nb, pole)
    return AElement._trusted(na * nb, pole, a.mode)


def _check_compatible(a: AElement, b: AElement) -> None:
    if a.nvars != b.nvars:
        raise DimensionMismatchError(
            f"elements over {a.nvars} and {b.nvars} variables cannot be combined")
    if a.mode is not b.mode:
        raise ValueError(f"cannot mix {a.mode.value} and {b.mode.value} elements")


def generator_f(k: int, l: int, d: int) -> AElement:
    """The bounded generator f_kl = x_k*x_l / ||x||^2 in d variables.

    k and l are the usual 1-based coordinate labels.  For d = 1 the single
    generator collapses to the constant 1.
    """
    if d < 1:
        raise ValueError("need at least one variable")
    if not (1 <= k <= d and 1 <= l <= d):
        raise IndexError(f"generator indices ({k},{l}) out of range for d={d}")
    numerator = Poly.variable(d, k - 1) * Poly.variable(d, l - 1)
    return a_normalize(numerator, 1, Mode.APLUS)


def norm_inverse_generator(j: int, d: int = 2) -> AElement:
    """The Laurent generator y_j = x_j / ||x||^2 (1-based j)."""
    if not 1 <= j <= d:
        raise IndexError(f"generator index {j} out of range for d={d}")
    return a_normalize(Poly.variable(d, j - 1), 1, Mode.LAURENT)


# -- characters -------------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """A multiplicative evaluation of the algebra.

    ``at_point``: evaluation at a nonzero rational point.  ``along``: the
    limit into the origin along a unit direction t; polynomials of positive
    degree evaluate to 0 there while x^gamma / ||x||^(2m) with |gamma| = 2m
    evaluates to t^gamma.  Directions must be exactly unit length so the
    evaluation stays multiplicative over the rationals.
    """

    point: tuple[Fraction, ...]
    origin_limit: bool = False

    def __post_init__(self) -> None:
        point = tuple(as_fraction(c) for c in self.point)
        object.__setattr__(self, "point", point)
        if not point:
            raise ValueError("character needs at least one coordinate")
        if self.origin_limit:
            norm = sum(c * c for c in point)
            if norm != 1:
                raise ValueError(f"direction {point} has ||t||^2 = {norm}, expected exactly 1")
        else:
            if all(c == 0 for c in point):
                raise ValueError("point evaluation must avoid the origin")

    @staticmethod
    def at_point(point) -> "Character":
        return Character(tuple(as_fraction(c) for c in point), False)

    @staticmethod
    def along(direction) -> "Character":
        return Character(tuple(as_fraction(c) for c in direction), True)

    @property
    def nvars(self) -> int:
        return len(self.point)

    def __call__(self, a: AElement) -> Fraction:
        return char_eval(self, a)


def char_eval(chi: Character, a: AElement) -> Fraction:
    """Exact value of the character on a reduced element."""
    if chi.nvars != a.nvars:
        raise DimensionMismatchError(
            f"character in {chi.nvars} variables applied to element in {a.nvars}")
    if not chi.origin_limit:
        denom = sum(c * c for c in chi.point) ** a.pole_order
        return a.numerator.eval(chi.point) / denom
    if a.mode is Mode.LAURENT:
        raise ValueError("origin-limit characters do not exist in Laurent mode: "
                         "x_j / ||x||^2 has no limit at the origin")
    # Write a = h / ||x||^(2m) and substitute x = r*t: the terms of h of
    # degree 2m survive as r -> 0, higher degrees vanish.
    return a.numerator.homogeneous_component(2 * a.pole_order).eval(chi.point)


def origin_character(d: int) -> Character:
    """The canonical origin evaluation used for origin mass: limit along e1."""
    return Character.along(tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(d)))


# -- truncated bases --------------------------------------------------------


def truncated_basis(pole_order: int, degree: int, d: int, mode: Mode = Mode.APLUS) -> list[AElement]:
    """Monomial basis x^gamma / ||x||^(2*pole_order), canonically ordered.

    APLUS: 2*pole_order <= |gamma| <= degree (requires degree >= 2*pole_order).
    LAURENT: 0 <= |gamma| <= degree.
    """
    if d < 1:
        raise ValueError("need at least one variable")
    if pole_order < 0 or degree < 0:
        raise ValueError("pole_order and degree must be >= 0")
    low = 2 * pole_order if mode is Mode.APLUS else 0
    if mode is Mode.APLUS and degree < 2 * pole_order:
        raise ValueError(f"degree {degree} < 2*pole_order {2 * pole_order}: empty window")
    # degree by degree, each in canonical order: already sorted by grlex_key
    exps = [e for t in range(low, degree + 1) for e in exponents_of_degree(d, t)]
    return [a_normalize(Poly.monomial(d, e), pole_order, mode) for e in exps]
