"""Linear functionals on the truncated algebras, and the measures behind them.

A functional is stored as explicit values on keys (gamma, m), one key per
basis fraction x^gamma / ||x||^(2m), an exact value as one reduced integer
pair (numerator, denominator > 0).  Keys are redundant on purpose: the
same function admits many representatives, and the reduction relation

    sum_k values[(gamma + 2*e_k, m + 1)] == values[(gamma, m)]

ties them together.  ``apply`` evaluates an element against the stored
keys.  When the element's own pole order is not stored, it lifts the key
by ||x||^(2t) for t = 1, 2, ... and takes the first lift whose keys are
all stored.  ``check_reduction_relations`` audits consistency with the
t = 1 lift, in integers on packed keys on an exact functional.  ``apply``
and the float audit read ||x||^(2t) from ``polyalg.norm_squared_power``,
in its fixed term order, so float sums are reproducible.

Measures here are finite atomic ones: weighted nonzero points, optional
mass at the origin, and optional weighted unit directions (limits into the
origin).  The origin-mass evaluation is pinned to the direction (1,0,...,0)
so that results are reproducible; any unit direction gives the same values
on polynomial keys.  Exact moment rectangles are built in one pass over
integer power tables (``_moment_table``), as reduced pairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, getitem, gt, mul, neg

from ..extalg import AElement, Mode, truncated_basis
from ..polyalg import (DimensionMismatchError, Exponent, Poly,
                       exponents_of_degree, norm_squared_power)
from ..scalars import as_pair, clear_denominators, is_exact_scalar

Key = tuple[Exponent, int]

SCALAR_EXACT = "exact_rational"
SCALAR_FLOAT = "float"


class DomainOverflowError(KeyError):
    """An evaluation needed a key the functional does not store."""

    def __init__(self, key: Key):
        self.key = key
        gamma, m = key
        super().__init__(f"functional has no value for x^{tuple(gamma)} / ||x||^{2 * m}")


class InconsistentFunctionalError(ValueError):
    """Stored values contradict the reduction relation or basic positivity."""


def _clean_extents(values: dict, nvars: int, aplus: bool, scalar: type) -> tuple[int, int] | None:
    """(top pole, top degree) of a table whose keys all pass the
    constructor's checks and whose values are all exactly ``scalar``, found
    a column at a time; None for any other table.  (-1, -1) when empty."""
    if type(values) is not dict:
        return None
    if not values:
        return -1, -1
    keys = values.keys()
    if set(map(type, keys)) != {tuple} or set(map(len, keys)) != {2}:
        return None
    gammas, poles = zip(*keys)
    if set(map(type, gammas)) != {tuple} or set(map(len, gammas)) != {nvars} \
            or set(map(type, poles)) != {int} or set(map(type, values.values())) != {scalar}:
        return None
    entries = list(chain.from_iterable(gammas))
    if not set(map(type, entries)) <= {int} or min(entries, default=0) < 0 or min(poles) < 0:
        return None
    degrees = list(map(sum, gammas))
    if aplus and any(map(gt, map(add, poles, poles), degrees)):  # |gamma| < 2m
        return None
    return max(poles), max(degrees)


@dataclass
class LinearFunctional:
    """Explicit values of a linear functional on monomial fraction keys.

    The public constructor checks every key (int exponents and pole orders,
    bools refused), coerces every value and refuses a declared ``pole_max``
    or ``degree_max`` that is not an int or is negative.  A clean table
    (tuple keys of plain ints that fit ``nvars`` and ``mode``, every value
    exactly a Fraction, or a float on the float kind) is checked a column
    at a time (``_clean_extents``); any other table goes key by key, which
    names the first faulty key and coerces the values.  An exact value is
    stored as one reduced pair (numerator, denominator > 0), which reads,
    lifts and the audit use; ``values`` is a Fraction copy built on its
    first read, ``value`` and ``_key_value`` build one Fraction a read, and
    ``float_value`` none.  ``_of_stored`` runs the constructor on a table of
    reduced pairs, and ``_trusted`` takes one the caller has just built,
    with tuple keys that fit ``nvars`` and ``mode``, and ``pole_max`` and
    ``degree_max`` the largest stored pole and degree.  Either way the
    largest stored pole and degree (-1 for none), which the declared maxima
    may exceed, are kept as ``top_pole`` and ``top_degree``: ``_key_value``
    stops its lifts at ``top_pole``, as no key past it is stored.
    """

    nvars: int
    mode: Mode
    scalar_kind: str
    values: dict[Key, Fraction | float]
    pole_max: int = 0
    degree_max: int = 0

    def __getattr__(self, name: str):
        if name != "values" or "_stored" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.values = {key: Fraction(*pair) for key, pair in self._stored.items()}
        return self.values

    def __post_init__(self, scalar: type = Fraction) -> None:
        """Check and store ``values``, whose clean exact values are ``scalar``s."""
        table = self.__dict__.pop("values")
        if self.scalar_kind not in (SCALAR_EXACT, SCALAR_FLOAT):
            raise ValueError(f"unknown scalar kind {self.scalar_kind!r}")
        exact = self.scalar_kind == SCALAR_EXACT
        scalar = scalar if exact else float
        coerce = as_pair if scalar is Fraction else scalar  # a pair or a float is kept as it is
        extents = _clean_extents(table, self.nvars, self.mode is Mode.APLUS, scalar)
        if extents is not None:
            stored, (top_pole, top_degree) = dict(zip(table, map(coerce, table.values()))), extents
        else:
            stored, top_pole, top_degree = self._checked_keys(table, coerce)
        for name in ("pole_max", "degree_max"):
            declared = getattr(self, name)
            if isinstance(declared, bool) or not isinstance(declared, int):
                raise ValueError(f"{name} must be an integer, not {declared!r}")
            if declared < 0:
                raise ValueError(f"declared {name} {declared} is negative")
        self._stored = stored
        if not exact:
            self.values = stored
        self.pole_max = max(self.pole_max, top_pole)
        self.degree_max = max(self.degree_max, top_degree)
        self.top_pole, self.top_degree = top_pole, top_degree

    def _checked_keys(self, table: dict, coerce) -> tuple[dict, int, int]:
        """(values, top pole, top degree), every key checked and every value
        coerced in turn; raises at the first faulty key."""
        top_pole = top_degree = -1
        clean = {}
        ints = (int,) * self.nvars
        for (gamma, m), value in table.items():
            gamma = tuple(gamma)
            if len(gamma) != self.nvars:
                raise DimensionMismatchError(f"key exponent {gamma} has wrong length")
            if type(m) is not int or tuple(map(type, gamma)) != ints:
                raise ValueError(f"key {(gamma, m)} must hold ints, not floats or bools")
            if m < 0:
                raise ValueError("pole order in key must be >= 0")
            if min(gamma, default=0) < 0:
                raise ValueError(f"key exponent {gamma} has a negative entry")
            degree = sum(gamma)
            if self.mode is Mode.APLUS and degree < 2 * m:
                raise ValueError(f"key {(gamma, m)} lies outside the bounded-generator algebra")
            clean[(gamma, m)] = coerce(value)
            if m > top_pole:
                top_pole = m
            if degree > top_degree:
                top_degree = degree
        return clean, top_pole, top_degree

    @classmethod
    def _of_stored(cls, nvars: int, mode: Mode, scalar_kind: str, values: dict,
                   pole_max: int = 0, degree_max: int = 0) -> "LinearFunctional":
        """The constructor on values in the stored form: reduced pairs on the exact kind."""
        f = object.__new__(cls)
        f.__dict__.update(nvars=nvars, mode=mode, scalar_kind=scalar_kind, values=values,
                          pole_max=pole_max, degree_max=degree_max)
        f.__post_init__(tuple)
        return f

    @classmethod
    def _trusted(cls, nvars: int, mode: Mode, pairs: dict[Key, tuple[int, int]],
                 pole_max: int, degree_max: int) -> "LinearFunctional":
        """An exact functional on a canonical table of reduced pairs; nothing is checked."""
        f = object.__new__(cls)
        f.__dict__.update(nvars=nvars, mode=mode, scalar_kind=SCALAR_EXACT, _stored=pairs,
                          pole_max=pole_max, degree_max=degree_max,
                          top_pole=pole_max, top_degree=degree_max)
        return f

    def zero_scalar(self):
        return Fraction(0) if self.scalar_kind == SCALAR_EXACT else 0.0

    def value(self, gamma: Exponent, m: int = 0):
        key = (tuple(gamma), m)
        if key not in self._stored:
            raise DomainOverflowError(key)
        value = self._stored[key]
        return Fraction(*value) if self.scalar_kind == SCALAR_EXACT else value

    def float_value(self, gamma: Exponent, m: int = 0) -> float:
        """``float(value(gamma, m))``: an exact pair is divided in ints, as
        ``float`` divides a Fraction, with no Fraction built."""
        key = (tuple(gamma), m)
        if key not in self._stored:
            raise DomainOverflowError(key)
        value = self._stored[key]
        return value[0] / value[1] if self.scalar_kind == SCALAR_EXACT else value

    def _key_value(self, gamma: Exponent, m: int):
        """Value for x^gamma / ||x||^(2m), lifting by ||x||^2 powers if needed."""
        value = self._stored_value(gamma, m)
        return Fraction(*value) if self.scalar_kind == SCALAR_EXACT else value

    def _stored_value(self, gamma: Exponent, m: int):
        """``_key_value`` in the stored form: a reduced pair on an exact functional."""
        value = self._stored.get((gamma, m))
        if value is not None:
            return value
        for lift in range(1, self.top_pole - m + 1):
            value = self._lifted_sum(gamma, m, lift)
            if value is not None:
                return value
        raise DomainOverflowError((gamma, m))

    def _lifted_sum(self, gamma: Exponent, m: int, lift: int):
        """L(x^gamma ||x||^(2 lift) / ||x||^(2(m + lift))) from the stored keys,
        a reduced pair on an exact functional.

        None when some lifted key is not stored.
        """
        exact = self.scalar_kind == SCALAR_EXACT
        total, num, den = 0.0, 0, 1
        for exp, coeff in norm_squared_power(self.nvars, lift).terms.items():
            value = self._stored.get((tuple(map(add, gamma, exp)), m + lift))
            if value is None:
                return None
            if exact:  # coeff is an integer, a multinomial coefficient
                num, den = num * value[1] + coeff.numerator * value[0] * den, den * value[1]
            else:
                total += coeff * value
        g = gcd(num, den)
        return (num // g, den // g) if exact else total

    def apply(self, a: AElement):
        """L(a) for a reduced element, exact on the exact path.

        An exact functional sums the products coeff * value as one running
        num/den in integers over the stored pairs and builds one Fraction at
        the end; a float one adds them term by term, in the numerator's order.
        """
        if a.nvars != self.nvars:
            raise DimensionMismatchError("element dimension does not match functional")
        if a.mode is not self.mode:
            raise ValueError(f"cannot apply {self.mode.value} functional to {a.mode.value} element")
        if self.scalar_kind != SCALAR_EXACT:
            total = 0.0
            for gamma, coeff in a.numerator.terms.items():
                total += coeff * self._key_value(gamma, a.pole_order)
            return total
        num, den = 0, 1
        for gamma, coeff in a.numerator.terms.items():
            n, d = self._stored_value(gamma, a.pole_order)
            q = coeff.denominator * d
            num, den = num * q + coeff.numerator * n * den, den * q
        return Fraction(num, den)

    __call__ = apply

    def apply_poly(self, p: Poly):
        """L restricted to a plain polynomial."""
        if p.nvars != self.nvars:
            raise DimensionMismatchError("polynomial dimension does not match functional")
        total = self.zero_scalar()
        for gamma, coeff in p.terms.items():
            total += coeff * self.value(gamma)
        return total

    def polynomial_restriction(self) -> dict[Exponent, Fraction | float]:
        """All stored pole-free keys, as a moment table gamma -> L(x^gamma)."""
        return {gamma: v for (gamma, m), v in self.values.items() if m == 0}

    def restrict_to_degree(self, max_degree: int) -> "LinearFunctional":
        """Polynomial sub-functional on keys of total degree <= max_degree."""
        vals = {(g, 0): v for (g, m), v in self.values.items()
                if m == 0 and sum(g) <= max_degree}
        return LinearFunctional(self.nvars, self.mode, self.scalar_kind, vals)

    def check_reduction_relations(self, tol: float = 0.0) -> list[Key]:
        """Keys whose stored value disagrees with the lift one pole order up.

        The lift of (gamma, m) is the sum of the d values at (gamma + 2 e_k,
        m + 1); only fully stored lifts are compared, and keys come back in
        stored order.  An exact functional ignores ``tol`` and compares its
        pairs in integers: a running num/den over the lifted pairs, tested as
        num * value_den == value_num * den, with no Fraction built and no gcd
        taken; keys are packed into ints p, as in ``MomentWindow``, with
        digits m, gamma_1, ..., gamma_d wide enough for top_degree + 2, so the
        lifts are p + step_k and never carry.  A float one compares
        ``_lifted_sum`` within ``tol``.
        """
        if self.scalar_kind != SCALAR_EXACT:
            bad = []
            for (gamma, m), value in self._stored.items():
                total = self._lifted_sum(gamma, m, 1)
                if total is not None and abs(total - value) > tol:
                    bad.append((gamma, m))
            return bad
        stored, d = self._stored, self.nvars
        width = (self.top_degree + 2).bit_length()
        packed = []
        for gamma, p in stored:  # the pole order is the top digit
            for g in gamma:
                p = (p << width) + g
            packed.append(p)
        steps = [(1 << width * d) + (2 << width * (d - 1 - k)) for k in range(d)]
        lookup = dict(zip(packed, stored.values()))
        bad = []
        for key, p, (value_num, value_den) in zip(stored, packed, stored.values()):
            num, den = 0, 1
            for step in steps:
                lifted = lookup.get(p + step)
                if lifted is None:
                    break
                n, q = lifted
                num, den = num * q + n * den, den * q
            else:
                if num * value_den != value_num * den:
                    bad.append(key)
        return bad

    def validate(self, tol: float = 0.0) -> None:
        """Raise InconsistentFunctionalError on relation violations or L(1) < 0.

        The relations are those of ``check_reduction_relations``: compared
        by cross-multiplied integers on an exact functional, within ``tol``
        on a float one.  The first five violating keys, sorted, are named.
        """
        exact = self.scalar_kind == SCALAR_EXACT
        tol = 0 if exact else tol
        bad = self.check_reduction_relations(tol)
        if bad:
            raise InconsistentFunctionalError(
                f"reduction relation violated at keys {sorted(bad)[:5]}"
                + ("..." if len(bad) > 5 else ""))
        one = self._stored.get(((0,) * self.nvars, 0))
        if one is not None and (one[0] if exact else one) < -tol:
            raise InconsistentFunctionalError(
                f"L(1) = {Fraction(*one) if exact else one} is negative")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure: nonzero atoms, origin mass, unit directions.

    Exact measures carry Fraction data throughout; recovered measures may
    carry floats.  Directions must be exactly unit length on the exact path
    (use a rational parametrization of the sphere to produce them).
    """

    dim: int
    atoms: tuple[tuple[Fraction | float, tuple[Fraction | float, ...]], ...] = ()
    origin_mass: Fraction | float = Fraction(0)
    sphere_atoms: tuple[tuple[Fraction | float, tuple[Fraction | float, ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("measure needs dimension >= 1")
        atoms = []
        for weight, point in self.atoms:
            point = tuple(point)
            if len(point) != self.dim:
                raise DimensionMismatchError(f"atom {point} has wrong dimension")
            if not (weight > 0):
                raise ValueError(f"atom weight {weight} must be positive")
            if all(c == 0 for c in point):
                raise ValueError("atoms must avoid the origin; use origin_mass")
            atoms.append((weight, point))
        object.__setattr__(self, "atoms", tuple(atoms))
        if self.origin_mass < 0:
            raise ValueError("origin mass must be >= 0")
        sphere = []
        for weight, direction in self.sphere_atoms:
            direction = tuple(direction)
            if len(direction) != self.dim:
                raise DimensionMismatchError(f"direction {direction} has wrong dimension")
            if not (weight > 0):
                raise ValueError(f"direction weight {weight} must be positive")
            norm = sum(c * c for c in direction)
            if isinstance(norm, Fraction):
                if norm != 1:
                    raise ValueError(f"direction {direction} is not exactly unit length")
            elif abs(norm - 1.0) > 1e-9:
                raise ValueError(f"direction {direction} is not unit length")
            sphere.append((weight, direction))
        object.__setattr__(self, "sphere_atoms", tuple(sphere))

    def is_exact(self) -> bool:
        scalars = [self.origin_mass]
        for weight, point in self.atoms + self.sphere_atoms:
            scalars.append(weight)
            scalars.extend(point)
        return all(map(is_exact_scalar, scalars))

    def total_mass(self):
        return (sum(w for w, _ in self.atoms) + self.origin_mass
                + sum(w for w, _ in self.sphere_atoms))


def moments_of_measure(measure: DiscreteMeasure, basis: list[AElement]) -> LinearFunctional:
    """The moment functional of an exact measure, stored on a key rectangle.

    The rectangle is inferred from the basis: pole orders up to twice the
    largest basis pole order and degrees up to twice the largest basis
    degree, so that every pairwise product of basis elements (hence every
    Gram entry) evaluates without leaving the stored keys.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    if not measure.is_exact():
        raise ValueError("moments_of_measure needs an exact measure")
    mode = basis[0].mode
    if any(b.mode is not mode or b.nvars != measure.dim for b in basis):
        raise ValueError("basis elements must share the measure's dimension and one mode")
    if mode is Mode.LAURENT and (measure.origin_mass != 0 or measure.sphere_atoms):
        raise ValueError("Laurent-mode moments require a measure supported away from the origin")
    pole_max = 2 * max(b.pole_order for b in basis)
    degree_max = 2 * max(max(b.numerator.max_degree(), 0) for b in basis)
    return LinearFunctional._trusted(measure.dim, mode,
                                     _moment_table(measure, pole_max, degree_max, mode),
                                     pole_max, degree_max)


def polynomial_moments(measure: DiscreteMeasure, max_degree: int,
                       mode: Mode = Mode.APLUS) -> LinearFunctional:
    """Plain moment functional on the pole-free keys up to max_degree."""
    if not measure.is_exact():
        raise ValueError("polynomial_moments needs an exact measure")
    return LinearFunctional._trusted(measure.dim, mode,
                                     _moment_table(measure, 0, max_degree, mode),
                                     0, max(max_degree, 0))


def _moment_table(measure: DiscreteMeasure, pole_max: int, degree_max: int,
                  mode: Mode) -> dict[Key, tuple[int, int]]:
    """Exact values, as reduced pairs, on the keys m <= pole_max, |gamma| <= degree_max.

    A point p = a/q (a integer, q the lcm of p's denominators) adds
    w * q^(2m-t) / |a|^(2m) * a^gamma at t = |gamma|.  Per (m, t) the atoms'
    scales share one denominator, so a key is one integer dot product with
    the monomials a^gamma from integer power tables, reduced by one gcd.
    Directions and the origin mass (the unit point e1) come after the points
    and are scaled only at t == 2m.
    """
    e1 = (1,) + (0,) * (measure.dim - 1)
    origin = ((measure.origin_mass, e1),) if measure.origin_mass else ()
    rows = []
    for weight, point in measure.atoms + measure.sphere_atoms + origin:
        a, q = clear_denominators(point)
        rows.append((weight, q, sum(c * c for c in a), a))
    powers = [[[a[k] ** e for *_, a in rows] for e in range(degree_max + 1)]
              for k in range(measure.dim)]  # powers[k][e][i] = a_ik ** e
    exponents = [exponents_of_degree(measure.dim, t) for t in range(degree_max + 1)]
    values, monomials = {}, {}
    for m in range(pole_max + 1):
        for t in range(2 * m if mode is Mode.APLUS else 0, degree_max + 1):
            scales = [w * Fraction(q) ** (2 * m - t) / n ** m
                      for w, q, n, _ in (rows if t == 2 * m else rows[:len(measure.atoms)])]
            numerators, den = clear_denominators(scales)
            for gamma in exponents[t]:
                if gamma not in monomials:
                    monomials[gamma] = functools.reduce(lambda x, y: list(map(mul, x, y)),
                                                        map(getitem, powers, gamma))
                # map stops at the shorter list, so directions without scales drop out
                num = sum(map(mul, numerators, monomials[gamma]))
                g = gcd(num, den)
                values[(gamma, m)] = (num // g, den // g)
    return values


def extend_from_measure(measure: DiscreteMeasure, pole_order: int, degree: int) -> LinearFunctional:
    """Moment functional covering the truncated window (pole_order, degree).

    This is the constructive direction of the extension principle: an atomic
    measure (origin mass and directions allowed) integrates every bounded
    fraction exactly, and the result restricts back to the polynomial
    moments of the measure.
    """
    basis = truncated_basis(pole_order, degree, measure.dim, Mode.APLUS)
    return moments_of_measure(measure, basis)


class MomentWindow:
    """Class structure of a moment matrix on a monomial fraction basis.

    On the basis keys k_i = (gamma_i, m_i) entry (i, j) of a Gram, moment
    or localizing matrix depends only on the product key star(k_i) + k_j,
    its class, and entry (j, i) reads the star of that key.  ``star`` is the
    identity for real symmetric matrices; a Hermitian s(u_i* u_j) passes the
    involution (m, n) -> (n, m) of its index semigroup.  The star must be
    additive and involutive, star(a + b) = star(a) + star(b) and
    star(star(a)) = a, so entry (j, i) is star(k_j) + k_i; the keys must
    share one number of variables.  The window stores the ``keys`` in
    the given order, the distinct ``classes`` (sorted by pole order, then
    grlex), ``class_index`` and the n x n table ``class_of``; a matrix is
    built by reading one value per class.  ``cleared`` hands the exact PSD
    kernel the same matrix as integers over one denominator, coercing and
    clearing each class value once instead of each of the n^2 entries.  A
    localizer g enters through the reader, which evaluates L(g * class)
    once per class.

    In one variable ||x||^2 = x^2 divides a monomial, so product keys are
    reduced the way ``a_normalize`` reduces x^g / |x|^(2m) and can land at
    a lower pole; in more variables a monomial is never divisible by
    ||x||^2.  Keys therefore name the same fraction ``L.apply`` would see.
    """

    def __init__(self, keys: list[Key], star=lambda key: key):
        self.keys = [(tuple(gamma), m) for gamma, m in keys]
        # A key packs into one int whose digits, most significant first, are
        # m, |gamma|, -gamma_1, ..., -gamma_d, so int order is class order
        # (pole order, then ``grlex_key``).  Each digit has ``width`` bits
        # and is offset by ``low``, so negative entries fit and two digits
        # sum below 2**width: adding packed keys adds the keys, and a sum of
        # two keys carries the offset 2 * low.
        rows = [(m, sum(gamma), *map(neg, gamma)) for gamma, m in self.keys]
        starred = [(m, sum(gamma), *map(neg, gamma)) for gamma, m in map(star, self.keys)]
        size = len(rows[0]) if rows else 0
        if any(len(row) != size for row in rows):
            raise DimensionMismatchError("window keys live over different numbers of variables")
        entries = [0, *chain.from_iterable(rows + starred)]
        low = min(entries)
        width = (2 * (max(entries) - low)).bit_length()
        shifts, mask = [width * i for i in reversed(range(size))], (1 << width) - 1

        def pack(row, offset: int) -> int:
            total = 0
            for v in row:
                total = (total << width) + v - offset
            return total

        def unpack(totals: list[int]) -> list[Key]:
            """The keys of packed sums of two keys."""
            m = [((t >> shifts[0]) & mask) + 2 * low for t in totals]
            gamma = [[-((t >> shift) & mask) - 2 * low for t in totals] for shift in shifts[2:]]
            return list(zip(zip(*gamma), m))

        packed = [pack(row, low) for row in rows]
        table = [[s + k for k in packed] for s in (pack(row, low) for row in starred)]
        sums = list(dict.fromkeys(chain.from_iterable(table)))
        found = sums
        if size == 3:
            # one variable: reduce each distinct sum; a reduced entry lies
            # between 0 and the sum's own, so it packs with the same offset
            found = [pack((m, g, -g), 2 * low) for (g,), m in map(self.reduce, unpack(sums))]
        order = sorted(set(found))
        index = {s: c for c, s in enumerate(order)}
        column = dict(zip(sums, map(index.__getitem__, found)))
        self.class_of = [list(map(column.__getitem__, row)) for row in table]
        self.classes = unpack(order)
        self.class_index = dict(zip(self.classes, range(len(order))))
        # Reading classes in the order a row-major scan of the table meets
        # them makes a missing value fail at the entry an entry-by-entry
        # build would have failed at first.
        self._scan_order = [self.classes[c] for c in dict.fromkeys(map(index.__getitem__, found))]

    @staticmethod
    def reduce(key: Key) -> Key:
        """Reduced form of the monomial fraction x^gamma / ||x||^(2m)."""
        gamma, m = key
        if len(gamma) != 1 or m == 0 or gamma[0] < 2:
            return key
        k = min(m, gamma[0] // 2)
        return ((gamma[0] - 2 * k,), m - k)

    @classmethod
    def of_basis(cls, basis: list[AElement]) -> "MomentWindow":
        """Window of a basis of coefficient-1 monomial fractions of one algebra."""
        keys = []
        for b in basis:
            terms = b.numerator.terms
            if len(terms) != 1 or next(iter(terms.values())) != 1:
                raise ValueError(f"basis element {b} is not a coefficient-1 monomial fraction")
            if b.nvars != basis[0].nvars:
                raise DimensionMismatchError("basis elements live over different numbers of variables")
            if b.mode is not basis[0].mode:
                raise ValueError("basis elements mix algebra modes")
            keys.append((next(iter(terms)), b.pole_order))
        return cls(keys)

    def matrix(self, read) -> list[list]:
        """The matrix with entry (i, j) = read(class key of (i, j)), one read per class."""
        values = [None] * len(self.classes)
        for key in self._scan_order:
            values[self.class_index[key]] = read(key)
        return [[values[c] for c in row] for row in self.class_of]

    def cleared(self, read) -> tuple[list[list[int]], int]:
        """``psd._int_rows`` of the matrix, cleared once per class from a
        ``read`` that gives each class value as a reduced pair (numerator,
        denominator > 0), such as ``as_pair(x)`` of a Fraction x.

        Classes are read in scan order, so a missing value raises as it
        would in the matrix; delta is the lcm of the reduced denominators.
        """
        keys = self._scan_order
        pairs = [read(key) for key in keys]
        delta = lcm(*{den for _, den in pairs})
        by_class = [0] * len(pairs)
        for key, (num, den) in zip(keys, pairs):
            by_class[self.class_index[key]] = num * (delta // den)
        return [list(map(by_class.__getitem__, row)) for row in self.class_of], delta


def gram_matrix(L: LinearFunctional, basis: list[AElement]) -> list[list]:
    """G[i][j] = L(b_i * b_j) on a monomial basis.  Missing keys raise DomainOverflowError.

    Basis elements must be coefficient-1 monomial fractions (as
    ``truncated_basis`` returns); anything else raises ValueError.
    ``psd-check`` reads the same window through ``MomentWindow`` itself.
    An exact entry is one Fraction per class, built from the stored pairs.
    """
    window = MomentWindow.of_basis(basis)
    if basis and basis[0].nvars != L.nvars:
        raise DimensionMismatchError("element dimension does not match functional")
    if basis and basis[0].mode is not L.mode:
        raise ValueError(f"cannot apply {L.mode.value} functional to "
                         f"{basis[0].mode.value} element")
    if L.scalar_kind == SCALAR_EXACT:
        return window.matrix(lambda key: L._key_value(*key))
    # 0.0 + value sums as L.apply does, so a stored float -0.0 reads as 0.0.
    return window.matrix(lambda key: 0.0 + L._key_value(*key))


@dataclass
class CsChainReport:
    """Exact audit of the iterated Cauchy-Schwarz chain.

    ``power_values[j]`` is L(a^(2^j)) for j = 0..k.  ``chain_terms[0]`` is
    |L(a)|^(2^k) and ``chain_terms[j]`` is L(a^(2^j))^(2^(k-j)) * L(1)^(2^k
    - 2^(k-j)); the chain holds when the terms are nondecreasing.  When
    L(a^(2^k)) = 0 the chain collapses, forcing L(a) = 0; that implication
    is reported separately.
    """

    power_values: list[Fraction]
    chain_terms: list[Fraction]
    holds: bool
    top_power_vanishes: bool
    vanishing_forces_zero: bool | None


def cs_chain_check(L: LinearFunctional, a: AElement, k: int) -> CsChainReport:
    """Evaluate the squeezing chain |L(a)|^(2^k) <= ... <= L(a^(2^k)) L(1)^(2^k-1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if L.scalar_kind != SCALAR_EXACT:
        raise ValueError("the chain audit runs on the exact path only")
    L1 = L.value((0,) * L.nvars)
    powers = []
    current = a
    for j in range(k + 1):
        powers.append(L.apply(current))
        if j < k:
            current = current * current
    top = 1 << k
    terms = [abs(powers[0]) ** top]
    for j in range(1, k + 1):
        e = 1 << (k - j)
        terms.append(powers[j] ** e * L1 ** (top - e))
    holds = all(terms[j] <= terms[j + 1] for j in range(len(terms) - 1))
    vanishes = powers[k] == 0
    forces = (powers[0] == 0) if vanishes else None
    return CsChainReport(powers, terms, holds, vanishes, forces)
