"""Exact sparse multivariate polynomials over the rationals.

A polynomial in d variables is a map from exponent vectors (length-d tuples
of nonnegative ints) to nonzero ``Fraction`` coefficients; the zero
polynomial is the empty map.  All arithmetic is exact and nothing in this
module touches floats.

Where a canonical order matters (printing, serialization, leading-term
division) terms are compared graded-lexicographically: total degree first,
ties broken lexicographically with x1 highest.  Degrees ascend in listings
and within a degree the grlex-largest monomial comes first, so a basis in
two variables reads 1, x1, x2, x1^2, x1*x2, x2^2, ...

Products and divisions by ||x||^2 run on integer content: a polynomial is
cleared once to integer terms over one denominator (``integer_terms``),
the kernel multiplies, adds and divides ints, and a Fraction is built
once per result term.  The integer kernels (``integer_product``,
``integer_divide_out``) also serve callers that hold several pieces of
one polynomial over its denominator, such as the inversion automorphism.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul

from .scalars import (as_fraction, clear_denominators, format_fraction,
                      is_exact_scalar, power_by_squaring)

Exponent = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Raised when operands live over different numbers of variables."""


def _check_same_nvars(p: "Poly", q: "Poly") -> None:
    if p.nvars != q.nvars:
        raise DimensionMismatchError(
            f"polynomials over {p.nvars} and {q.nvars} variables cannot be combined")


def check_point_dimension(point: list, nvars: int) -> None:
    if len(point) != nvars:
        raise DimensionMismatchError(
            f"point of dimension {len(point)} fed to polynomial in {nvars} variables")


def grlex_key(exp: Exponent) -> tuple:
    """Sort key for the canonical listing: degree ascending, then grlex descending."""
    return (sum(exp), tuple(-e for e in exp))


def exponents_of_degree(nvars: int, degree: int) -> list[Exponent]:
    """All exponent vectors of the given total degree, canonically ordered."""
    if nvars <= 0:
        raise ValueError("need at least one variable")
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in exponents_of_degree(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def exponents_up_to_degree(nvars: int, degree: int) -> list[Exponent]:
    """All exponent vectors with total degree <= degree, canonically ordered."""
    return [e for t in range(degree + 1) for e in exponents_of_degree(nvars, t)]


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial with exact rational coefficients.

    The public constructor is the input boundary: it checks every exponent
    vector, coerces coefficients to Fraction and drops zeros.  Arithmetic
    results come from ``Poly._trusted``, which stores the caller's dict as
    given: valid tuple exponents and nonzero Fraction coefficients, each
    arithmetic operation dropping the zeros it can make.  Both keep the
    given term order.  Treat the stored dict as immutable.

    A product lists its terms in first-occurrence order, self outer and
    other inner, zeros dropped after, so float sums over its terms are
    reproducible.  Both factors are cleared to integers over one
    denominator and the product is formed in ints, with one Fraction per
    result term.
    """

    nvars: int
    terms: dict[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nvars < 1:
            raise ValueError("a polynomial needs at least one variable")
        clean: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            exp = tuple(exp)
            if len(exp) != self.nvars:
                raise DimensionMismatchError(
                    f"exponent {exp} has length {len(exp)}, expected {self.nvars}")
            if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exp):
                raise ValueError(f"exponent {exp} must consist of nonnegative ints, not bools")
            coeff = as_fraction(coeff)
            if coeff != 0:
                clean[exp] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, Fraction]) -> "Poly":
        """Canonical terms the caller has just built, stored as given; no checks."""
        p = object.__new__(cls)
        p.__dict__.update(nvars=nvars, terms=terms)
        return p

    @classmethod
    def _over(cls, nvars: int, terms: dict[Exponent, int], den: int) -> "Poly":
        """The polynomial terms / den from nonzero integer terms and den > 0,
        one Fraction per term, in the given order."""
        if den == 1:
            return cls._trusted(nvars, {e: Fraction(c) for e, c in terms.items()})
        return cls._trusted(nvars, {e: Fraction(c, den) for e, c in terms.items()})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        return Poly(nvars, {(0,) * nvars: as_fraction(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        """x_(index+1); index is 0-based."""
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exp = tuple(1 if i == index else 0 for i in range(nvars))
        return Poly(nvars, {exp: Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exp: Exponent, coeff=1) -> "Poly":
        return Poly(nvars, {tuple(exp): as_fraction(coeff)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_range(self) -> tuple[int, int] | None:
        """(min, max) total degree over the support; None for the zero polynomial."""
        if not self.terms:
            return None
        degrees = [sum(e) for e in self.terms]
        return (min(degrees), max(degrees))

    def max_degree(self) -> int:
        rng = self.degree_range()
        return -1 if rng is None else rng[1]

    def homogeneous_component(self, degree: int) -> "Poly":
        return Poly(self.nvars,
                    {e: c for e, c in self.terms.items() if sum(e) == degree})

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    # -- evaluation --------------------------------------------------------

    def eval(self, point) -> Fraction:
        """Exact evaluation at a rational point of matching dimension, in integers."""
        pt = [as_fraction(c) for c in point]
        check_point_dimension(pt, self.nvars)
        form = ClearedPoly(self)
        return form.value_at(ClearedPoint(pt, form.degree))

    __call__ = eval

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce_poly(other, self.nvars)
        if other is None:
            return NotImplemented
        _check_same_nvars(self, other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            if exp not in terms:
                terms[exp] = coeff
            elif total := terms[exp] + coeff:
                terms[exp] = total
            else:
                del terms[exp]
        return Poly._trusted(self.nvars, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = _coerce_poly(other, self.nvars)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce_poly(other, self.nvars)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not is_exact_scalar(other):
                return NotImplemented
            scalar = Fraction(other)
            if not scalar:
                return Poly._trusted(self.nvars, {})
            return Poly._trusted(self.nvars, {e: c * scalar for e, c in self.terms.items()})
        _check_same_nvars(self, other)
        a, da = integer_terms(self)
        b, db = integer_terms(other)
        return Poly._over(self.nvars, integer_product(a, b), da * db)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative ints")
        return power_by_squaring(self, exponent, Poly.constant(self.nvars, 1))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp, coeff in self.sorted_terms():
            factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(exp) if e]
            body = "*".join(factors)
            if not body:
                chunks.append(format_fraction(coeff))
            elif coeff == 1:
                chunks.append(body)
            elif coeff == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{format_fraction(coeff)}*{body}")
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")


# -- integer evaluation at rational points -------------------------------------


class ClearedPoint:
    """A rational point written as a/q: a an integer vector, q > 0.

    q is the lcm of the coordinates' denominators.  ``powers[k][j]`` is
    a_k^j and ``q_powers[j]`` is q^j, for j up to ``degree``, the largest
    degree of the polynomials to be evaluated here.
    """

    __slots__ = ("powers", "q_powers")

    def __init__(self, point, degree: int) -> None:
        a, q = clear_denominators([as_fraction(c) for c in point])
        self.powers = [[c ** j for j in range(degree + 1)] for c in a]
        self.q_powers = [q ** j for j in range(degree + 1)]


class ClearedPoly:
    """A polynomial as integer coefficients c_e over one denominator den > 0.

    At a point a/q (a ``ClearedPoint``) the value is S / (den * q^degree)
    with the integer S = sum_e c_e * a^e * q^(degree - |e|), so its sign and
    its zeros are those of S, and only the value itself needs a Fraction.
    ``Poly.eval`` clears for one evaluation; callers with many keep the
    cleared forms and clear once per polynomial and once per point.
    """

    __slots__ = ("terms", "den", "degree")

    def __init__(self, p: Poly) -> None:
        coeffs, self.den = clear_denominators(list(p.terms.values()))
        self.degree = max(p.max_degree(), 0)
        # per term: (c_e, degree - |e|, the (variable, exponent) pairs with exponent > 0)
        self.terms = [(c, self.degree - sum(exp), [(k, e) for k, e in enumerate(exp) if e])
                      for c, exp in zip(coeffs, p.terms)]

    def numerator_at(self, point: ClearedPoint) -> int:
        """S, whose sign and zeros are those of the value at the point."""
        powers, q_powers = point.powers, point.q_powers
        total = 0
        for c, lift, factors in self.terms:
            c *= q_powers[lift]
            for k, e in factors:
                c *= powers[k][e]
            total += c
        return total

    def value_at(self, point: ClearedPoint) -> Fraction:
        """The exact value S / (den * q^degree)."""
        return Fraction(self.numerator_at(point), self.den * point.q_powers[self.degree])


def _coerce_poly(value, nvars: int) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if is_exact_scalar(value):
        return Poly.constant(nvars, value)
    return None


@functools.lru_cache(maxsize=None)
def norm_squared_power(nvars: int, t: int) -> Poly:
    """(x1^2 + ... + xd^2)^t, memoized: the one source of every ||x||^(2t).

    Powers are built from t = 1 by ``power_by_squaring``, so the terms come
    in one fixed order, and float sums over them keep their bits.  The
    polynomial is shared between callers: never mutate its terms.
    """
    if t < 0:
        raise ValueError("norm-square powers must be nonnegative")
    if t != 1:
        return power_by_squaring(norm_squared(nvars), t, Poly.constant(nvars, 1))
    return Poly(nvars, {tuple(2 if j == i else 0 for j in range(nvars)): Fraction(1)
                        for i in range(nvars)})


def norm_squared(nvars: int) -> Poly:
    """x1^2 + ... + xd^2."""
    return norm_squared_power(nvars, 1)


@functools.lru_cache(maxsize=None)
def integer_norm_squared_power(nvars: int, t: int) -> dict[Exponent, int]:
    """The terms of ``norm_squared_power(nvars, t)`` as ints, in its order,
    memoized and shared: never mutate them."""
    return {e: c.numerator for e, c in norm_squared_power(nvars, t).terms.items()}


# -- integer-content kernels ---------------------------------------------------


def integer_terms(p: Poly) -> tuple[dict[Exponent, int], int]:
    """(N, den): p = N / den with integer terms N in p's order and den > 0,
    the lcm of p's denominators."""
    coeffs, den = clear_denominators(p.terms.values())
    return dict(zip(p.terms, coeffs)), den


def integer_product(a: dict[Exponent, int], b: dict[Exponent, int]) -> dict[Exponent, int]:
    """The product of two integer term maps, the order of ``Poly.__mul__``:
    first occurrence, a outer and b inner, zeros dropped after."""
    b_items = list(b.items())
    terms: dict[Exponent, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b_items:
            exp = tuple(map(add, e1, e2))
            terms[exp] = terms[exp] + c1 * c2 if exp in terms else c1 * c2
    return {e: c for e, c in terms.items() if c}


def _quotient_by_norm_squared(codes: dict[int, int], top: int, first: int,
                              steps: list[int]) -> dict[int, int] | None:
    """The exact quotient of packed integer terms by s = x1^2+...+xd^2, or
    None when s does not divide them.

    Leading-term division, leads ordered by (total degree, exponent): if
    p = q * s exactly then the leading term of p is the product of the
    leading terms of q and s, so cancelling leading terms either exhausts
    the remainder or hits a lead not divisible by x1^2, which certifies
    non-divisibility.  Cancelling x^e only adds terms x^(e - 2*e1 + 2*e_k)
    below it, so one pass over a heap of pending exponents meets the leads
    in descending order, the order of the quotient's terms.  Every
    coefficient of s is 1, so integer terms have an integer quotient.

    An exponent e of degree t is packed as the integer t*top + sum_i
    e_i*place_i (``integer_divide_out``), whose order is the lead order;
    ``first`` is place_1, and x^e -> x^(e - 2*e1 + 2*e_k) adds steps[k].
    """
    remainder = dict(codes)
    quotient: dict[int, int] = {}
    pending = [-code for code in remainder]
    heapq.heapify(pending)
    to_quotient = 2 * top + 2 * first
    while pending:
        lead = -heapq.heappop(pending)
        coeff = remainder.pop(lead, None)
        if coeff is None:  # cancelled after it was pushed
            continue
        if lead % top < 2 * first:  # x1^2 does not divide the lead
            return None
        quotient[lead - to_quotient] = coeff
        for step in steps:
            code = lead + step
            if code not in remainder:
                remainder[code] = -coeff
                heapq.heappush(pending, -code)
            elif new := remainder[code] - coeff:
                remainder[code] = new
            else:
                del remainder[code]
    return quotient


def integer_divide_out(nvars: int, terms: dict[Exponent, int],
                       limit: int) -> tuple[dict[Exponent, int], int]:
    """(terms / s^j, limit - j) for the largest j <= limit with s^j dividing
    terms, s = ||x||^2; the terms come back as given when j = 0.

    A single term is divisible by s only for d = 1 (for d >= 2 any nonzero
    multiple of s has distinct leading and trailing terms), so it is divided
    without the heap pass; that path works for Fraction terms as well.
    Otherwise the exponents are packed into integers in base D + 1, D the
    largest degree, which no exponent entry reaches; division keeps or
    lowers every degree, so the packing holds for all j passes and is
    undone once.
    """
    if len(terms) == 1:
        ((exp, coeff),) = terms.items()
        j = 0 if nvars > 1 else min(limit, exp[0] // 2)
        return ({(exp[0] - 2 * j,): coeff} if j else terms), limit - j
    if not limit:
        return terms, limit
    base = max(map(sum, terms), default=0) + 1
    place = [base ** (nvars - 1 - i) for i in range(nvars)]
    top = base ** nvars
    steps = [2 * w - 2 * place[0] for w in place[1:]]
    codes = {sum(e) * top + sum(map(mul, e, place)): c for e, c in terms.items()}
    j = 0
    while j < limit:
        quotient = _quotient_by_norm_squared(codes, top, place[0], steps)
        if quotient is None:
            break
        codes, j = quotient, j + 1
    if not j:
        return terms, limit
    return {tuple(code // w % base for w in place): c for code, c in codes.items()}, limit - j


def divide_out_norm_squared(p: Poly, limit: int) -> tuple[Poly, int]:
    """(p / ||x||^(2j), limit - j) for the largest j <= limit dividing p.

    p is cleared once, divided in integers and rebuilt with one Fraction
    per quotient term; a monomial is divided as it stands.  p itself comes
    back when s does not divide it, and the zero polynomial gives (0, 0).
    """
    if not limit or len(p.terms) == 1:
        terms, left = integer_divide_out(p.nvars, p.terms, limit)
        return (Poly._trusted(p.nvars, terms) if left < limit else p), left
    terms, den = integer_terms(p)
    terms, left = integer_divide_out(p.nvars, terms, limit)
    return (Poly._over(p.nvars, terms, den) if left < limit else p), left


def divide_by_norm_squared(p: Poly) -> Poly | None:
    """The exact quotient p / (x1^2+...+xd^2), or None when it does not
    divide; the quotient's terms come in descending (degree, exponent)
    order.  ``p`` is trusted to be canonical."""
    quotient, left = divide_out_norm_squared(p, 1)
    return None if left else quotient
