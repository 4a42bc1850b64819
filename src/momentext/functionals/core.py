"""Linear functionals on the truncated algebras, and the measures behind them.

A functional is stored as explicit values on keys (gamma, m), one key per
basis fraction x^gamma / ||x||^(2m).  Keys are redundant on purpose: the
same function admits many representatives, and the reduction relation

    sum_k values[(gamma + 2*e_k, m + 1)] == values[(gamma, m)]

ties them together.  ``check_reduction_relations`` audits that consistency;
``apply`` evaluates an element against the stored keys, lifting by powers
of ||x||^2 when the element's own pole order is not stored directly.

Measures here are finite atomic ones: weighted nonzero points, optional
mass at the origin, and optional weighted unit directions (limits into the
origin).  The origin-mass evaluation is pinned to the direction (1,0,...,0)
so that results are reproducible; any unit direction gives the same values
on polynomial keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from ..extalg import AElement, Mode, truncated_basis
from ..polyalg import (DimensionMismatchError, Exponent, Poly,
                       exponents_of_degree, exponents_up_to_degree, grlex_key,
                       norm_squared)
from ..scalars import as_fraction

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


@dataclass
class LinearFunctional:
    """Explicit values of a linear functional on monomial fraction keys."""

    nvars: int
    mode: Mode
    scalar_kind: str
    values: dict[Key, Fraction | float]
    pole_max: int = 0
    degree_max: int = 0

    def __post_init__(self) -> None:
        if self.scalar_kind not in (SCALAR_EXACT, SCALAR_FLOAT):
            raise ValueError(f"unknown scalar kind {self.scalar_kind!r}")
        clean: dict[Key, Fraction | float] = {}
        for (gamma, m), value in self.values.items():
            gamma = tuple(gamma)
            if len(gamma) != self.nvars:
                raise DimensionMismatchError(f"key exponent {gamma} has wrong length")
            if m < 0:
                raise ValueError("pole order in key must be >= 0")
            if self.mode is Mode.APLUS and sum(gamma) < 2 * m:
                raise ValueError(f"key {(gamma, m)} lies outside the bounded-generator algebra")
            if self.scalar_kind == SCALAR_EXACT:
                value = as_fraction(value)
            else:
                value = float(value)
            clean[(gamma, m)] = value
        self.values = clean
        self.pole_max = max([m for (_, m) in clean] + [self.pole_max])
        self.degree_max = max([sum(g) for (g, _) in clean] + [self.degree_max])

    def zero_scalar(self):
        return Fraction(0) if self.scalar_kind == SCALAR_EXACT else 0.0

    def value(self, gamma: Exponent, m: int = 0):
        key = (tuple(gamma), m)
        if key not in self.values:
            raise DomainOverflowError(key)
        return self.values[key]

    def _key_value(self, gamma: Exponent, m: int, _norm_cache: dict):
        """Value for x^gamma / ||x||^(2m), lifting by ||x||^2 powers if needed."""
        key = (gamma, m)
        if key in self.values:
            return self.values[key]
        for lift in range(1, self.pole_max - m + 1):
            power = _norm_cache.get(lift)
            if power is None:
                power = norm_squared(self.nvars) ** lift
                _norm_cache[lift] = power
            total = self.zero_scalar()
            ok = True
            for exp, coeff in power.terms.items():
                lifted = (tuple(a + b for a, b in zip(gamma, exp)), m + lift)
                if lifted not in self.values:
                    ok = False
                    break
                total += coeff * self.values[lifted]
            if ok:
                return total
        raise DomainOverflowError(key)

    def apply(self, a: AElement):
        """L(a) for a reduced element, exact on the exact path."""
        if a.nvars != self.nvars:
            raise DimensionMismatchError("element dimension does not match functional")
        if a.mode is not self.mode:
            raise ValueError(f"cannot apply {self.mode.value} functional to {a.mode.value} element")
        cache: dict = {}
        total = self.zero_scalar()
        for gamma, coeff in a.numerator.terms.items():
            v = self._key_value(gamma, a.pole_order, cache)
            total += coeff * v
        return total

    __call__ = apply

    def apply_poly(self, p: Poly):
        """L restricted to a plain polynomial."""
        if p.nvars != self.nvars:
            raise DimensionMismatchError("polynomial dimension does not match functional")
        total = self.zero_scalar()
        for gamma, coeff in p.terms.items():
            key = (gamma, 0)
            if key not in self.values:
                raise DomainOverflowError(key)
            v = self.values[key]
            total += coeff * v
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

        Only fully stored lifts are compared.  On the exact path pass tol=0.
        """
        bad = []
        ns = norm_squared(self.nvars).terms
        for (gamma, m), value in self.values.items():
            total = self.zero_scalar()
            complete = True
            for exp, coeff in ns.items():
                lifted = (tuple(a + b for a, b in zip(gamma, exp)), m + 1)
                if lifted not in self.values:
                    complete = False
                    break
                total += coeff * self.values[lifted]
            if complete and abs(total - value) > tol:
                bad.append((gamma, m))
        return bad

    def validate(self, tol: float = 0.0) -> None:
        """Raise InconsistentFunctionalError on relation violations or L(1) < 0."""
        bad = self.check_reduction_relations(tol)
        if bad:
            raise InconsistentFunctionalError(
                f"reduction relation violated at keys {sorted(bad)[:5]}"
                + ("..." if len(bad) > 5 else ""))
        one = ((0,) * self.nvars, 0)
        if one in self.values and self.values[one] < -tol:
            raise InconsistentFunctionalError(f"L(1) = {self.values[one]} is negative")


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
        return all(isinstance(s, (int, Fraction)) for s in scalars)

    def total_mass(self):
        return (sum(w for w, _ in self.atoms) + self.origin_mass
                + sum(w for w, _ in self.sphere_atoms))


def _key_value_of_measure(measure: DiscreteMeasure, gamma: Exponent, m: int) -> Fraction:
    """Integral of x^gamma / ||x||^(2m) against an exact measure.

    Point atoms evaluate directly.  Directions (and the origin mass, which
    is a direction pinned to e1) see only the |gamma| == 2m keys, where the
    fraction is homogeneous of degree zero with radial limit t^gamma.
    """
    total = Fraction(0)
    for weight, point in measure.atoms:
        num = Fraction(1)
        for base, power in zip(point, gamma):
            if power:
                num *= base ** power
        denom = sum(c * c for c in point) ** m
        total += weight * num / denom
    degree_matches = sum(gamma) == 2 * m
    if degree_matches:
        if measure.origin_mass and all(g == 0 for g in gamma[1:]):
            total += measure.origin_mass
        for weight, direction in measure.sphere_atoms:
            value = Fraction(1)
            for base, power in zip(direction, gamma):
                if power:
                    value *= base ** power
            total += weight * value
    return total


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
    values: dict[Key, Fraction] = {}
    for m in range(pole_max + 1):
        low = 2 * m if mode is Mode.APLUS else 0
        for t in range(low, degree_max + 1):
            for gamma in _exponents_of_degree_cached(measure.dim, t):
                values[(gamma, m)] = _key_value_of_measure(measure, gamma, m)
    return LinearFunctional(measure.dim, mode, SCALAR_EXACT, values,
                            pole_max=pole_max, degree_max=degree_max)


_EXP_CACHE: dict[tuple[int, int], list[Exponent]] = {}


def _exponents_of_degree_cached(nvars: int, degree: int) -> list[Exponent]:
    key = (nvars, degree)
    if key not in _EXP_CACHE:
        _EXP_CACHE[key] = exponents_of_degree(nvars, degree)
    return _EXP_CACHE[key]


def polynomial_moments(measure: DiscreteMeasure, max_degree: int,
                       mode: Mode = Mode.APLUS) -> LinearFunctional:
    """Plain moment functional on the pole-free keys up to max_degree."""
    if not measure.is_exact():
        raise ValueError("polynomial_moments needs an exact measure")
    values = {(gamma, 0): _key_value_of_measure(measure, gamma, 0)
              for gamma in exponents_up_to_degree(measure.dim, max_degree)}
    return LinearFunctional(measure.dim, mode, SCALAR_EXACT, values)


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

    On the basis x^gamma_i / ||x||^(2 m_i) entry (i, j) of a Gram, moment
    or localizing matrix depends only on the product key (gamma_i + gamma_j,
    m_i + m_j), its class.  The window stores the basis ``keys`` in the
    given order, the distinct ``classes`` (sorted by pole order, then
    grlex), ``class_index`` and the n x n table ``class_of``; a matrix is
    then built by reading one value per class.  A localizer g enters
    through the reader, which evaluates L(g * class) once per class.

    In one variable ||x||^2 = x^2 divides a monomial, so product keys are
    reduced the way ``a_normalize`` reduces x^g / |x|^(2m) and can land at
    a lower pole; in more variables a monomial is never divisible by
    ||x||^2.  Keys therefore name the same fraction ``L.apply`` would see.
    """

    def __init__(self, keys: list[Key]):
        self.keys = [(tuple(gamma), m) for gamma, m in keys]
        reduce = self.reduce if any(len(g) == 1 for g, _ in self.keys) else None
        upper = []
        for i, (gi, mi) in enumerate(self.keys):
            row = [(tuple(map(add, gi, gj)), mi + mj) for gj, mj in self.keys[i:]]
            upper.append(list(map(reduce, row)) if reduce else row)
        # Reading classes in the order a row-major scan of the upper triangle
        # meets them makes a missing value fail at the entry an entry-by-entry
        # build would have failed at first.
        self._scan_order = list(dict.fromkeys(key for row in upper for key in row))
        self.classes = sorted(self._scan_order, key=lambda k: (k[1], grlex_key(k[0])))
        self.class_index = {key: c for c, key in enumerate(self.classes)}
        n = len(self.keys)
        self.class_of = [[0] * n for _ in range(n)]
        for i, row in enumerate(upper):
            for j, key in enumerate(row, start=i):
                self.class_of[i][j] = self.class_of[j][i] = self.class_index[key]

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


def gram_matrix(L: LinearFunctional, basis: list[AElement]) -> list[list]:
    """G[i][j] = L(b_i * b_j) on a monomial basis.  Missing keys raise DomainOverflowError.

    Basis elements must be coefficient-1 monomial fractions (as
    ``truncated_basis`` returns); anything else raises ValueError.
    """
    window = MomentWindow.of_basis(basis)
    if basis and basis[0].nvars != L.nvars:
        raise DimensionMismatchError("element dimension does not match functional")
    if basis and basis[0].mode is not L.mode:
        raise ValueError(f"cannot apply {L.mode.value} functional to "
                         f"{basis[0].mode.value} element")
    # zero + value sums exactly as L.apply does, so a stored float -0.0 reads as 0.0.
    zero = L.zero_scalar()
    cache: dict = {}
    return window.matrix(lambda key: zero + L._key_value(key[0], key[1], cache))


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
    one = ((0,) * L.nvars, 0)
    L1 = L.values.get(one)
    if L1 is None:
        raise DomainOverflowError(one)
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
