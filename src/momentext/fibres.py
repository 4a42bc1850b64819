"""Fibre decomposition of semialgebraic sets along bounded polynomials.

A preorder is described by its finite generator list; the associated set
K(T) collects the points where every generator is nonnegative.  Given
polynomials h_1..h_n that are bounded on K(T), each value vector lambda
cuts out the fibre K(T) intersected with {h_j = lambda_j}; adding the pairs
h_j - lambda_j and lambda_j - h_j to the generators presents the fibre as a
semialgebraic set again, and the differences h_j - lambda_j generate the
ideal a positive functional on the fibre must annihilate.

``t_positivity_check`` audits the positivity a functional must satisfy
relative to a preorder: for every squarefree product of generators, the
localizing matrix M_g[alpha][beta] = L(g * x^(alpha+beta)) has to be PSD.
One ``MomentWindow`` serves every g; ``cleared`` reads L(g * class) once
per class for the exact kernel, whose verdicts carry exact certificates.

``fibre_partition_check`` buckets sample points by their exact values of
h and audits that the fibres are disjoint.  It evaluates in integers:
each polynomial is cleared once to integer coefficients over one
denominator and each sample once to a/q with an integer vector a, so
K(T) membership and the audit are sign and zero tests of integer sums and
only the bucket values are built as Fractions.

``sphere_fibre_reduction`` handles the fibres of the angular generators
f_kl: a value matrix with trace 1 forces the linear relations
x_l = (lambda_kl / lambda_kk) * x_k against the first coordinate with
lambda_kk != 0, collapsing the fibre to a line through the origin (a
univariate problem); any other trace marks a fibre that contains no
direction-type evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .functionals.core import LinearFunctional, MomentWindow, SCALAR_EXACT
from .functionals.psd import PsdVerdict, psd_check_cleared
from .polyalg import (ClearedPoint, ClearedPoly, DimensionMismatchError, Poly,
                      check_point_dimension, exponents_up_to_degree)
from .scalars import as_fraction, as_pair


@dataclass(frozen=True)
class Preorder:
    """Finite generator list g_1..g_k cutting out K = {all g_i >= 0}."""

    dim: int
    generators: tuple[Poly, ...]

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("a preorder needs at least one generator; use the "
                             "constant 1 for the full space")
        for g in gens:
            if g.nvars != self.dim:
                raise DimensionMismatchError(
                    f"generator in {g.nvars} variables in a dim-{self.dim} preorder")
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class FibreSpec:
    """Bounded polynomials h_1..h_n together with a target value vector."""

    bounded: tuple[Poly, ...]
    value: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        bounded = tuple(self.bounded)
        value = tuple(as_fraction(v) for v in self.value)
        if not bounded:
            raise ValueError("fibre spec needs at least one bounded polynomial")
        if len(bounded) != len(value):
            raise ValueError(f"{len(bounded)} polynomials but {len(value)} values")
        dims = {h.nvars for h in bounded}
        if len(dims) != 1:
            raise DimensionMismatchError("bounded polynomials disagree on dimension")
        object.__setattr__(self, "bounded", bounded)
        object.__setattr__(self, "value", value)

    @property
    def dim(self) -> int:
        return self.bounded[0].nvars


def kT_membership(preorder: Preorder, point, tol: Fraction | float = 0) -> bool:
    """Whether the point satisfies every generator inequality (within tol)."""
    pt = [as_fraction(c) for c in point]
    return all(g.eval(pt) >= -tol for g in preorder.generators)


def fibre_generators(preorder: Preorder, spec: FibreSpec) -> Preorder:
    """Generators of the fibre: T plus the pairs +-(h_j - lambda_j)."""
    if spec.dim != preorder.dim:
        raise DimensionMismatchError("fibre spec dimension does not match preorder")
    extra = tuple(g for diff in fibre_ideal_generators(spec) for g in (diff, -diff))
    return Preorder(preorder.dim, preorder.generators + extra)


def fibre_ideal_generators(spec: FibreSpec) -> list[Poly]:
    """The differences h_j - lambda_j generating the fibre ideal."""
    return [h - Poly.constant(spec.dim, lam) for h, lam in zip(spec.bounded, spec.value)]


@dataclass
class PartitionReport:
    """Outcome of bucketing sample points by their bounded-polynomial values."""

    buckets: dict[tuple[Fraction, ...], list[int]]
    outside: list[int]
    value_ranges: list[tuple[Fraction, Fraction]] | None
    disjoint: bool

    @property
    def fibre_count(self) -> int:
        return len(self.buckets)


def _fibre_value(generators: list[ClearedPoly], bounded: list[ClearedPoly],
                 point: ClearedPoint) -> tuple[Fraction, ...] | None:
    """The values of h at a point of K(T), or None for a point outside it."""
    if any(g.numerator_at(point) < 0 for g in generators):
        return None
    return tuple(h.value_at(point) for h in bounded)


def _fibres_overlap(buckets: dict, ideals: dict, cleared: list[ClearedPoint]) -> bool:
    """Whether some bucketed sample lies in another bucket's fibre."""
    for value, members in buckets.items():
        for other_value, ideal in ideals.items():
            if other_value == value:
                continue
            for i in members:
                for g in ideal:
                    if g.numerator_at(cleared[i]):
                        break
                else:
                    return True
    return False


def fibre_partition_check(preorder: Preorder, bounded: list[Poly],
                          samples: list) -> PartitionReport:
    """Bucket samples by exact fibre values and audit disjointness.

    Samples outside K(T) are listed separately, untouched by the buckets.
    Disjointness is re-derived apart from the bucket keys: a bucketed sample
    is in K(T), so it lies in another bucket's fibre exactly when that
    fibre's ideal generators h_j - lambda'_j all vanish there, which must
    fail.  The value ranges are the min/max of the bucket values, a cheap
    boundedness heuristic (not a proof).

    Polynomials and samples are cleared of denominators once
    (``ClearedPoly``, ``ClearedPoint``), so membership and the audit are
    integer tests.
    """
    for h in bounded:
        if h.nvars != preorder.dim:
            raise DimensionMismatchError("bounded polynomial dimension mismatch")
    points = [[as_fraction(c) for c in p] for p in samples]
    for pt in points:
        check_point_dimension(pt, preorder.dim)
    degree = max(0, *(p.max_degree() for p in preorder.generators + tuple(bounded)))
    cleared = [ClearedPoint(pt, degree) for pt in points]
    generators = [ClearedPoly(g) for g in preorder.generators]
    bounded_forms = [ClearedPoly(h) for h in bounded]
    buckets: dict[tuple[Fraction, ...], list[int]] = {}
    outside: list[int] = []
    for idx, point in enumerate(cleared):
        value = _fibre_value(generators, bounded_forms, point)
        if value is None:
            outside.append(idx)
        else:
            buckets.setdefault(value, []).append(idx)

    ideals = {value: [ClearedPoly(g) for g in
                      fibre_ideal_generators(FibreSpec(tuple(bounded), value))]
              for value in buckets}
    disjoint = not _fibres_overlap(buckets, ideals, cleared)

    ranges = None
    if buckets:
        ranges = [(min(column), max(column)) for column in zip(*buckets)]
    return PartitionReport(buckets, outside, ranges, disjoint)


@dataclass
class TPositivityReport:
    """Localizing-matrix verdicts keyed by generator selection pattern."""

    verdicts: dict[tuple[int, ...], PsdVerdict]
    degree: int

    @property
    def positive(self) -> bool:
        return all(v.is_psd for v in self.verdicts.values())

    def verdict_for(self, pattern: tuple[int, ...]) -> PsdVerdict:
        return self.verdicts[pattern]


def t_positivity_check(L: LinearFunctional, preorder: Preorder,
                       degree: int) -> TPositivityReport:
    """PSD audit of every localizing matrix M_g, g over squarefree products.

    Patterns are 0/1 tuples selecting which generators enter the product;
    the empty pattern gives the plain moment matrix.  Exact functionals get
    exact verdicts; L must store polynomial moments up to 2*degree plus the
    top product degree.
    """
    if L.scalar_kind != SCALAR_EXACT:
        raise ValueError("t_positivity_check runs on the exact path")
    if L.nvars != preorder.dim:
        raise DimensionMismatchError("functional dimension does not match preorder")
    window = MomentWindow([(a, 0) for a in exponents_up_to_degree(preorder.dim, degree)])
    verdicts: dict[tuple[int, ...], PsdVerdict] = {}
    k = len(preorder.generators)
    for mask in range(1 << k):
        pattern = tuple((mask >> i) & 1 for i in range(k))
        product = Poly.constant(preorder.dim, 1)
        for flag, g in zip(pattern, preorder.generators):
            if flag:
                product = product * g
        verdicts[pattern] = psd_check_cleared(*window.cleared(
            lambda key: as_pair(L.apply_poly(product * Poly.monomial(preorder.dim, key[0])))))
    return TPositivityReport(verdicts, degree)


def functional_annihilates_ideal(L: LinearFunctional, ideal_gens: list[Poly],
                                 degree: int, tol: Fraction | float = 0) -> bool:
    """Whether L(g * x^alpha) vanishes for all generators and |alpha| <= degree."""
    for g in ideal_gens:
        for alpha in exponents_up_to_degree(L.nvars, degree):
            if abs(L.apply_poly(g * Poly.monomial(g.nvars, alpha))) > tol:
                return False
    return True


@dataclass(frozen=True)
class SphereFibreReduction:
    """Outcome of reducing a fibre of the angular generators.

    ``point_type`` marks value matrices with trace != 1, which no
    direction-type evaluation produces.  Otherwise ``pivot`` is the 0-based
    coordinate k with lambda_kk != 0 and ``coefficients[l]`` is the ratio
    lambda_kl / lambda_kk in the forced relation x_l = c_l * x_k.
    """

    dim: int
    point_type: bool
    pivot: int | None = None
    coefficients: tuple[Fraction, ...] | None = None

    def substitute(self, p: Poly) -> Poly:
        """Rewrite p under x_l -> c_l * x_k; the result involves x_k only."""
        if self.point_type:
            raise ValueError("point-type fibres admit no linear substitution")
        if p.nvars != self.dim:
            raise DimensionMismatchError("polynomial dimension mismatch")
        out = Poly.zero(self.dim)
        for exp, coeff in p.terms.items():
            factor = coeff
            for l, e in enumerate(exp):
                if e:
                    factor *= self.coefficients[l] ** e
            mono = tuple(sum(exp) if i == self.pivot else 0 for i in range(self.dim))
            out = out + Poly.monomial(self.dim, mono, factor)
        return out

    def univariate_coefficients(self, p: Poly) -> list[Fraction]:
        """Coefficient list (ascending degree) of the substituted polynomial."""
        reduced = self.substitute(p)
        top = reduced.max_degree()
        return [reduced.coefficient(tuple((t if i == self.pivot else 0)
                                          for i in range(self.dim)))
                for t in range(top + 1)] if top >= 0 else [Fraction(0)]


def sphere_fibre_reduction(value_matrix, d: int) -> SphereFibreReduction:
    """Reduce the fibre of the d x d angular generator values lambda_kl.

    Direction-type evaluations force trace(lambda) = 1 and rank-one
    structure; under trace 1 the first index k with lambda_kk != 0 yields
    exact linear relations x_l = (lambda_kl / lambda_kk) * x_k on the fibre.
    """
    lam = [[as_fraction(v) for v in row] for row in value_matrix]
    if len(lam) != d or any(len(row) != d for row in lam):
        raise ValueError(f"value matrix must be {d} x {d}")
    for k in range(d):
        for l in range(k + 1, d):
            if lam[k][l] != lam[l][k]:
                raise ValueError(f"value matrix not symmetric at ({k},{l})")
    trace = sum(lam[k][k] for k in range(d))
    if trace != 1:
        return SphereFibreReduction(d, point_type=True)
    pivot = next(k for k in range(d) if lam[k][k] != 0)
    coeffs = tuple(lam[pivot][l] / lam[pivot][pivot] for l in range(d))
    return SphereFibreReduction(d, False, pivot, coeffs)
