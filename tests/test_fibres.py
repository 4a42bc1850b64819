from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentext import fibres
from momentext.fibres import (FibreSpec, PartitionReport, Preorder, fibre_generators,
                              fibre_ideal_generators, fibre_partition_check,
                              functional_annihilates_ideal, kT_membership,
                              sphere_fibre_reduction, t_positivity_check)
from momentext.functionals.core import DiscreteMeasure, MomentWindow, polynomial_moments
from momentext.functionals.psd import psd_check_exact
from momentext.polyalg import DimensionMismatchError, Poly, exponents_up_to_degree
from test_polyalg import fraction_eval


def strip_preorder() -> Preorder:
    x1 = Poly.variable(2, 0)
    one = Poly.constant(2, 1)
    return Preorder(2, (x1, one - x1))


def test_preorder_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        Preorder(2, ())
    with pytest.raises(DimensionMismatchError):
        Preorder(2, (Poly.variable(3, 0),))


def test_membership_on_strip():
    strip = strip_preorder()
    assert kT_membership(strip, (Fraction(1, 2), Fraction(-7)))
    assert kT_membership(strip, (0, 100))
    assert kT_membership(strip, (1, 0))
    assert not kT_membership(strip, (Fraction(3, 2), 0))
    assert not kT_membership(strip, (Fraction(-1, 10), 0))
    assert kT_membership(strip, (Fraction(-1, 10), 0), tol=Fraction(1, 10))


def test_fibre_generators_extend_the_preorder():
    strip = strip_preorder()
    spec = FibreSpec((Poly.variable(2, 0),), (Fraction(1, 2),))
    fibre = fibre_generators(strip, spec)
    assert len(fibre.generators) == 4
    # on the fibre both difference generators vanish
    assert all(g.eval((Fraction(1, 2), Fraction(9))) >= 0 for g in fibre.generators)
    assert not kT_membership(fibre, (Fraction(1, 4), 0))
    assert kT_membership(fibre, (Fraction(1, 2), Fraction(-3)))
    diff = fibre.generators[2]
    assert diff.eval((Fraction(1, 2), 0)) == 0
    assert diff.eval((1, 0)) == Fraction(1, 2)


def test_fibre_spec_validation():
    with pytest.raises(ValueError):
        FibreSpec((), ())
    with pytest.raises(ValueError):
        FibreSpec((Poly.variable(2, 0),), (Fraction(1), Fraction(2)))
    with pytest.raises(DimensionMismatchError):
        FibreSpec((Poly.variable(2, 0), Poly.variable(3, 0)),
                  (Fraction(0), Fraction(0)))
    with pytest.raises(DimensionMismatchError):
        fibre_generators(strip_preorder(),
                         FibreSpec((Poly.variable(3, 0),), (Fraction(0),)))


def test_ideal_generators_vanish_on_fibre():
    spec = FibreSpec((Poly.variable(2, 0),), (Fraction(1, 3),))
    gens = fibre_ideal_generators(spec)
    assert len(gens) == 1
    assert gens[0].eval((Fraction(1, 3), Fraction(5))) == 0
    assert gens[0].eval((Fraction(2, 3), Fraction(5))) == Fraction(1, 3)


def grid(xs, ys):
    return [(x, y) for x in xs for y in ys]


def test_partition_buckets_by_exact_value():
    strip = strip_preorder()
    xs = [Fraction(i, 4) for i in range(5)]
    ys = [Fraction(j) for j in range(-2, 3)]
    samples = grid(xs, ys) + [(Fraction(2), Fraction(0)), (Fraction(-1), Fraction(1))]
    report = fibre_partition_check(strip, [Poly.variable(2, 0)], samples)
    assert report.fibre_count == 5
    assert sorted(report.buckets) == [(x,) for x in xs]
    assert all(len(members) == 5 for members in report.buckets.values())
    assert report.outside == [25, 26]
    assert report.disjoint
    assert report.value_ranges == [(Fraction(0), Fraction(1))]


def test_partition_sees_overlapping_fibres():
    # two copies of the same polynomial shifted by zero: every "other" fibre
    # set contains the bucket's own points when the bounded list is constant
    strip = strip_preorder()
    const = Poly.constant(2, 1)
    samples = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0))]
    report = fibre_partition_check(strip, [const], samples)
    # a constant has a single value: one bucket, disjointness trivially holds
    assert report.fibre_count == 1
    assert report.disjoint

    # distinct values of x1*(1-x1) can share a fibre set only through
    # genuinely different points, so the audit stays disjoint
    h = Poly.variable(2, 0) * (Poly.constant(2, 1) - Poly.variable(2, 0))
    report = fibre_partition_check(strip, [h],
                                   [(Fraction(1, 4), 0), (Fraction(3, 4), 0),
                                    (Fraction(1, 2), 0)])
    assert report.fibre_count == 2
    assert report.disjoint
    assert sorted(report.buckets) == [(Fraction(3, 16),), (Fraction(1, 4),)]
    assert sorted(report.buckets[(Fraction(3, 16),)]) == [0, 1]


def test_partition_audit_catches_a_misfiled_sample(monkeypatch):
    strip = strip_preorder()
    xs = [Fraction(i, 4) for i in range(5)]
    samples = grid(xs, [Fraction(j) for j in range(-1, 2)])
    misfiled = (Fraction(1, 4), Fraction(0))
    bucketing = fibres._fibre_value

    def neighbour_column(generators, bounded, point):
        # the cleared point a/q, read back as Fractions
        coords = tuple(Fraction(a[1], point.q_powers[1]) for a in point.powers)
        value = bucketing(generators, bounded, point)
        return (Fraction(1, 2),) if coords == misfiled else value
    monkeypatch.setattr(fibres, "_fibre_value", neighbour_column)
    report = fibre_partition_check(strip, [Poly.variable(2, 0)], samples)
    assert samples.index(misfiled) in report.buckets[(Fraction(1, 2),)]
    assert not report.disjoint
    assert report.value_ranges == [(Fraction(0), Fraction(1))]


def _fraction_partition_oracle(preorder, bounded, samples) -> PartitionReport:
    """The partition check evaluated by the Fraction power loop throughout."""
    points = [[Fraction(c) for c in p] for p in samples]
    buckets, outside = {}, []
    for idx, pt in enumerate(points):
        if all(fraction_eval(g, pt) >= 0 for g in preorder.generators):
            buckets.setdefault(tuple(fraction_eval(h, pt) for h in bounded), []).append(idx)
        else:
            outside.append(idx)
    ideals = {value: fibre_ideal_generators(FibreSpec(tuple(bounded), value))
              for value in buckets}
    overlap = any(all(fraction_eval(g, points[i]) == 0 for g in ideals[other])
                  for value, members in buckets.items()
                  for other in ideals if other != value for i in members)
    ranges = [(min(c), max(c)) for c in zip(*buckets)] if buckets else None
    return PartitionReport(buckets, outside, ranges, not overlap)


def disc_preorder() -> Preorder:
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    return Preorder(2, (Poly.constant(2, 1) - x1 * x1 - x2 * x2,))


def partition_cases():
    """(preorder, bounded polynomials) pairs: strip, unit disc, two bounded."""
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    return {"strip": (strip_preorder(), [x1]),
            "disc": (disc_preorder(), [x1 * x1 + x2 * x2]),
            "two-bounded": (disc_preorder(), [x1 - Fraction(1, 3), x1 * x2 * Fraction(2, 7)])}


def assert_same_report(report, expected):
    assert report == expected
    assert list(report.buckets) == list(expected.buckets)  # first-seen order too


GRID = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=12),
                min_size=1, max_size=6, unique=True)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(partition_cases())), xs=GRID, ys=GRID)
def test_partition_matches_fraction_oracle(case, xs, ys):
    # grids over [-2, 2]^2 put points outside the strip and the disc
    preorder, bounded = partition_cases()[case]
    samples = grid(xs, ys)
    assert_same_report(fibre_partition_check(preorder, bounded, samples),
                       _fraction_partition_oracle(preorder, bounded, samples))


@pytest.mark.parametrize("case", sorted(partition_cases()))
def test_parallel_partition_matches_fraction_oracle(case):
    preorder, bounded = partition_cases()[case]
    steps = [Fraction(i, 4) for i in range(-5, 6)]
    samples = grid(steps, steps) + [(Fraction(3, 5), Fraction(4, 5)), (0, Fraction(-1))]
    expected = _fraction_partition_oracle(preorder, bounded, samples)
    assert expected.outside and len(expected.buckets) > 1
    assert_same_report(fibre_partition_check(preorder, bounded, samples), expected)


def test_partition_with_constant_and_zero_polynomials():
    samples = grid([Fraction(-1), Fraction(0), Fraction(5, 3)], [Fraction(1, 7), Fraction(2)])
    zero, third = Poly.zero(2), Poly.constant(2, Fraction(1, 3))
    for preorder, bounded in [(Preorder(2, (zero,)), [zero]),
                              (Preorder(2, (zero, third)), [third, zero]),
                              (Preorder(2, (-third,)), [zero])]:
        assert_same_report(fibre_partition_check(preorder, bounded, samples),
                           _fraction_partition_oracle(preorder, bounded, samples))


def test_partition_refuses_points_of_the_wrong_dimension():
    # the partition check and Poly.eval share one point check and its text
    x1 = Poly.variable(2, 0)
    for call in (lambda: x1.eval((0, 0, 0)),
                 lambda: fibre_partition_check(strip_preorder(), [x1], [(0, 0), (0, 0, 0)])):
        with pytest.raises(DimensionMismatchError) as err:
            call()
        assert str(err.value) == "point of dimension 3 fed to polynomial in 2 variables"


def test_t_positivity_passes_on_strip_measure():
    strip = strip_preorder()
    mu = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1, 2), Fraction(1))),
        (Fraction(2, 3), (Fraction(1, 4), Fraction(-1)))))
    L = polynomial_moments(mu, 6)
    report = t_positivity_check(L, strip, degree=2)
    assert report.positive
    assert set(report.verdicts) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    # every verdict carries a replayable exact factorization certificate
    assert all(v.permutation is not None and v.diagonal is not None
               for v in report.verdicts.values())


def test_t_positivity_rejects_point_outside_strip():
    strip = strip_preorder()
    delta = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(2), Fraction(0))),))
    L = polynomial_moments(delta, 6)
    report = t_positivity_check(L, strip, degree=2)
    assert not report.positive
    bad = report.verdict_for((0, 1))  # the (1 - x1) localizer
    assert not bad.is_psd
    assert bad.witness is not None
    assert bad.witness_value < 0
    # the witness certifies against the actual localizing matrix: replaying
    # the quadratic form through verify() must reproduce the failure
    assert bad.witness_value == sum(
        bad.witness[i] * bad.witness[j] * _strip_localizer(L, strip, 2)[i][j]
        for i in range(len(bad.witness)) for j in range(len(bad.witness)))


def _localizing_matrix(L, g, monos):
    """M_g[i][j] = L(g * x^(alpha_i + alpha_j)) as a Fraction matrix, one
    evaluation per class: the oracle of ``t_positivity_check``'s cleared read."""
    def localized(key):
        return L.apply_poly(g * Poly.monomial(g.nvars, key[0]))
    return MomentWindow([(a, 0) for a in monos]).matrix(localized)


def _strip_localizer(L, preorder, degree):
    monos = exponents_up_to_degree(2, degree)
    return _localizing_matrix(L, preorder.generators[1], monos)


STRIP_MEASURES = {
    "inside": DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1, 2), Fraction(1))),
        (Fraction(2, 3), (Fraction(1, 4), Fraction(-1))))),
    "off-strip point": DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(2), Fraction(0))),)),
}


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(STRIP_MEASURES))
def test_t_positivity_verdicts_match_the_fraction_matrix_route(name, degree):
    strip = strip_preorder()
    x1, one = strip.generators[0], Poly.constant(2, 1)
    products = {(0, 0): one, (1, 0): x1, (0, 1): strip.generators[1],
                (1, 1): x1 * strip.generators[1]}
    L = polynomial_moments(STRIP_MEASURES[name], 2 * degree + 2)
    report = t_positivity_check(L, strip, degree)
    assert list(report.verdicts) == list(products)
    monos = exponents_up_to_degree(2, degree)
    for pattern, verdict in report.verdicts.items():
        matrix = _localizing_matrix(L, products[pattern], monos)
        assert verdict == psd_check_exact(matrix)
        assert verdict.verify(matrix)
    assert report.positive == (name == "inside")


def test_annihilation_detects_fibre_support():
    spec = FibreSpec((Poly.variable(2, 0),), (Fraction(1, 2),))
    gens = fibre_ideal_generators(spec)
    on_fibre = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1, 2), Fraction(1))),
        (Fraction(3), (Fraction(1, 2), Fraction(-2)))))
    off_fibre = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1, 2), Fraction(1))),
        (Fraction(1), (Fraction(1, 4), Fraction(1)))))
    assert functional_annihilates_ideal(polynomial_moments(on_fibre, 5), gens, 4)
    assert not functional_annihilates_ideal(polynomial_moments(off_fibre, 5), gens, 4)


def test_sphere_reduction_from_direction():
    # direction (3/5, 4/5): lambda_kl = t_k t_l
    t = (Fraction(3, 5), Fraction(4, 5))
    lam = [[t[i] * t[j] for j in range(2)] for i in range(2)]
    red = sphere_fibre_reduction(lam, 2)
    assert not red.point_type
    assert red.pivot == 0
    assert red.coefficients == (Fraction(1), Fraction(4, 3))
    x2sq = Poly.monomial(2, (0, 2))
    reduced = red.substitute(x2sq)
    assert reduced.coefficient((2, 0)) == Fraction(16, 9)
    assert red.univariate_coefficients(x2sq) == [0, 0, Fraction(16, 9)]


def test_sphere_reduction_diagonal_fibre():
    lam = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    red = sphere_fibre_reduction(lam, 2)
    assert red.pivot == 0 and red.coefficients == (1, 1)
    x2 = Poly.variable(2, 1)
    assert red.substitute(x2).terms == Poly.variable(2, 0).terms


def test_sphere_reduction_pivot_skips_zero_diagonal():
    lam = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]
    red = sphere_fibre_reduction(lam, 2)
    assert red.pivot == 1
    assert red.coefficients == (0, 1)
    # x1 collapses to zero on this fibre
    assert red.substitute(Poly.variable(2, 0)).terms == {}


def test_sphere_reduction_point_type_and_validation():
    red = sphere_fibre_reduction([[Fraction(2), 0], [0, 0]], 2)
    assert red.point_type
    with pytest.raises(ValueError):
        red.substitute(Poly.variable(2, 0))
    with pytest.raises(ValueError):
        sphere_fibre_reduction([[1, 0]], 2)
    with pytest.raises(ValueError):
        sphere_fibre_reduction([[Fraction(1, 2), 1], [0, Fraction(1, 2)]], 2)
