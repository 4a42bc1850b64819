"""Acceptance suite: one test per shipped guarantee, with frozen tolerances.

Each test prints a single summary line on success and enforces its runtime
ceiling, so `pytest tests/test_acceptance.py -v` reads as a pass/fail
scorecard for the package's headline properties.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from momentext.extalg import (AElement, Character, Mode, a_normalize, embed_poly,
                              generator_f, truncated_basis)
from momentext.fibres import (FibreSpec, Preorder, fibre_generators,
                              fibre_ideal_generators, fibre_partition_check,
                              functional_annihilates_ideal,
                              sphere_fibre_reduction, t_positivity_check)
from momentext.functionals.core import (DiscreteMeasure, cs_chain_check,
                                        extend_from_measure, gram_matrix,
                                        polynomial_moments)
from momentext.functionals.feasibility import extension_feasibility
from momentext.functionals.psd import hamburger_check, psd_check_exact
from momentext.functionals.recovery import (IndeterminateRankError,
                                            recover_atoms)
from momentext.polyalg import Poly, exponents_of_degree
from momentext.scalars import GaussianRational
from momentext.scenarios import (random_fraction, random_measure, random_point,
                                 rational_direction)
from momentext.semigroups import (HermitianSequence, SgDomain, SgElement,
                                  bisgaard_check, box_window,
                                  laurent_relations_check,
                                  nplus_extension_check, sequence_from_measure,
                                  sg_to_functions)


def random_aelement(rng: random.Random, dim: int, max_extra_degree: int = 2,
                    max_pole: int = 1, mode: Mode = Mode.APLUS) -> AElement:
    pole = rng.randint(0, max_pole)
    low = 2 * pole if mode is Mode.APLUS else 0
    terms = {}
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(low, low + max_extra_degree)
        exp = rng.choice(exponents_of_degree(dim, degree))
        terms[exp] = random_fraction(rng, -6, 6, 4, nonzero=True)
    return a_normalize(Poly(dim, terms), pole, mode)


def random_complex_atoms(rng: random.Random, max_atoms: int = 3,
                         min_atoms: int = 1) -> DiscreteMeasure:
    """A plane measure of distinct nonzero atoms z = x1 + i*x2, without origin mass."""
    count = rng.randint(min_atoms, max_atoms)
    atoms, seen = [], {(0, 0)}
    while len(atoms) < count:
        z = (random_fraction(rng, -4, 4, 3), random_fraction(rng, -4, 4, 3))
        if z not in seen:
            seen.add(z)
            atoms.append((random_fraction(rng, 1, 6, 3), z))
    return DiscreteMeasure(2, tuple(atoms))


def _pass(criterion: int, detail: str, elapsed: float, limit: float) -> None:
    assert elapsed < limit, (f"criterion {criterion} blew its runtime budget: "
                             f"{elapsed:.1f}s >= {limit:.0f}s")
    print(f"criterion {criterion}: PASS ({detail}; {elapsed:.1f}s < {limit:.0f}s)")


def strip_preorder() -> Preorder:
    x1 = Poly.variable(2, 0)
    return Preorder(2, (x1, Poly.constant(2, 1) - x1))


def criterion2_measures() -> list[DiscreteMeasure]:
    """The shared seeded plane measures: <= 4 atoms, optional origin mass."""
    return [random_measure(random.Random(5000 + i), 2, max_atoms=4, min_atoms=3,
                           allow_origin=True) for i in range(10)]


def test_criterion_1_exact_identities_and_characters():
    start = time.perf_counter()
    for d in (1, 2, 3, 4):
        one = embed_poly(Poly.constant(d, 1), Mode.APLUS)
        trace = sum((generator_f(k, k, d) for k in range(1, d + 1)),
                    start=embed_poly(Poly.zero(d), Mode.APLUS))
        assert trace == one, f"sum of f_kk != 1 for d={d}"
        square_sum = embed_poly(Poly.zero(d), Mode.APLUS)
        for k in range(1, d + 1):
            for l in range(1, d + 1):
                square_sum = square_sum + generator_f(k, l, d) ** 2
        assert square_sum == one, f"sum of f_kl^2 != 1 for d={d}"

    checked = 0
    for d in (2, 3):
        rng = random.Random(101 * d)
        for _ in range(200):
            chi = Character.at_point(random_point(rng, d))
            a = random_aelement(rng, d)
            b = random_aelement(rng, d)
            assert chi(a * b) == chi(a) * chi(b)
            checked += 1
        for _ in range(200):
            chi = Character.along(rational_direction(rng, d))
            a = random_aelement(rng, d)
            b = random_aelement(rng, d)
            assert chi(a * b) == chi(a) * chi(b)
            checked += 1
    _pass(1, f"identities d=1..4, {checked} multiplicative pairs",
          time.perf_counter() - start, 5.0)


def test_criterion_2_measure_extensions_are_psd_and_restrict():
    start = time.perf_counter()
    basis = truncated_basis(2, 6, 2, Mode.APLUS)
    assert len(basis) == 18
    for idx, mu in enumerate(criterion2_measures()):
        L = extend_from_measure(mu, 2, 6)
        verdict = psd_check_exact(gram_matrix(L, basis))
        assert verdict.is_psd, f"measure {idx}: Gram matrix not PSD"
        direct = polynomial_moments(mu, L.degree_max)
        assert L.polynomial_restriction() == {g: v for (g, _), v
                                              in direct.values.items()}, \
            f"measure {idx}: polynomial restriction mismatch"
    _pass(2, "10 extensions exactly PSD with exact restrictions",
          time.perf_counter() - start, 60.0)


def test_criterion_3_feasibility_recovers_degree_two_restrictions():
    start = time.perf_counter()
    feasible = 0
    outcomes = []
    for mu in criterion2_measures():
        restriction = polynomial_moments(mu, 2)
        result = extension_feasibility(restriction, 1, 4,
                                       max_iters=5000, tol=1e-7)
        outcomes.append(result.status)
        if result.feasible:
            assert result.gap < 1e-7
            assert result.fixed_key_residual < 1e-7
            assert result.iterations <= 5000
            feasible += 1
        else:
            # an unconverged search must say so; it is never a negative verdict
            assert result.status == "unresolved"
            assert result.functional is None and result.certificate is None
    assert feasible >= 9, f"only {feasible}/10 feasible: {outcomes}"
    _pass(3, f"{feasible}/10 feasible, residuals < 1e-7",
          time.perf_counter() - start, 300.0)


def test_criterion_4_strip_fibres_and_sphere_reduction():
    start = time.perf_counter()
    strip = strip_preorder()
    x1 = Poly.variable(2, 0)
    grid = [(Fraction(i, 20), Fraction(j, 2) - 5)
            for i in range(21) for j in range(21)]
    report = fibre_partition_check(strip, [x1], grid)
    assert report.outside == []
    assert report.fibre_count == 21
    assert report.disjoint
    assert sorted(report.buckets) == [(Fraction(i, 20),) for i in range(21)]

    for lam in (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(4, 5),
                Fraction(1)):
        mu = DiscreteMeasure(2, atoms=((Fraction(1), (lam, Fraction(1))),
                                       (Fraction(1, 2), (lam, Fraction(-2)))))
        L = polynomial_moments(mu, 6)
        spec = FibreSpec((x1,), (lam,))
        fibre = fibre_generators(strip, spec)
        assert t_positivity_check(L, fibre, 1).positive, \
            f"fibre x1={lam}: localizing matrices not all PSD"
        assert functional_annihilates_ideal(L, fibre_ideal_generators(spec), 5), \
            f"fibre x1={lam}: ideal not annihilated"

    half = Fraction(1, 2)
    red = sphere_fibre_reduction([[half, half], [half, half]], 2)
    assert not red.point_type and red.pivot == 0
    assert red.substitute(Poly.variable(2, 1)) == Poly.variable(2, 0)
    _pass(4, "21 disjoint fibres, 5 fibre measures positive, x2 -> x1",
          time.perf_counter() - start, 30.0)


def test_criterion_5_cauchy_schwarz_chain():
    start = time.perf_counter()
    rng = random.Random(42)
    vanishing_seen = 0
    for trial in range(50):
        k = rng.randint(0, 3)
        if trial % 5 == 0:
            # measure on the x1 = 0 axis and an element with an x1^2 factor:
            # the top power of the chain vanishes exactly
            mu = DiscreteMeasure(2, atoms=(
                (Fraction(rng.randint(1, 4)), (Fraction(0), Fraction(rng.randint(1, 5)))),
                (Fraction(1, 2), (Fraction(0), Fraction(-rng.randint(1, 3))))))
            extra = Poly.constant(2, 1) + Poly.variable(2, 1) * rng.randint(0, 2)
            a = a_normalize(Poly.monomial(2, (2, 0)) * extra, 1, Mode.APLUS)
        else:
            mu = random_measure(rng, 2, max_atoms=4, min_atoms=1)
            if rng.random() < 0.5:
                a = random_aelement(rng, 2, max_extra_degree=2, max_pole=0)
            else:
                a = random_aelement(rng, 2, max_extra_degree=1, max_pole=1)
        pole_needed = a.pole_order * (1 << k)
        degree_needed = a.numerator.max_degree() * (1 << k)
        pole = -(-pole_needed // 2)
        L = extend_from_measure(mu, pole, max(-(-degree_needed // 2), 2 * pole))
        report = cs_chain_check(L, a, k)
        assert report.holds, f"trial {trial}: chain violated"
        if report.top_power_vanishes:
            vanishing_seen += 1
            assert report.vanishing_forces_zero, \
                f"trial {trial}: L(a^(2^k)) = 0 but L(a) != 0"
    assert vanishing_seen >= 5
    _pass(5, f"50 chains exact, {vanishing_seen} vanishing-top cases forced zero",
          time.perf_counter() - start, 30.0)


def test_criterion_6_halfplane_extension_pipeline():
    start = time.perf_counter()
    for i in range(5):
        measure = random_complex_atoms(random.Random(600 + i))
        seq = sequence_from_measure(measure, box_window(3, SgDomain.N02))
        report = nplus_extension_check(seq, measure)
        assert report.restriction_ok, f"measure {i}: restriction mismatch"
        assert report.psd.is_psd, f"measure {i}: moment matrix not PSD"
        assert report.cross_path_ok, f"measure {i}: function-algebra route disagrees"
        assert report.passed

    one = embed_poly(Poly.constant(2, 1), Mode.APLUS)
    re_v, im_v = sg_to_functions(SgElement(1, -1, SgDomain.NPLUS))
    f11, f12, f22 = generator_f(1, 1, 2), generator_f(1, 2, 2), generator_f(2, 2, 2)
    assert (one + re_v) * Fraction(1, 2) == f11
    assert im_v * Fraction(1, 2) == f12
    assert (one - re_v) * Fraction(1, 2) == f22
    assert im_v * Fraction(-1, 2) == -f12
    _pass(6, "5 extensions pass all three audits, generator identities exact",
          time.perf_counter() - start, 60.0)


def test_criterion_7_laurent_pipeline_and_recovery():
    start = time.perf_counter()
    relations = laurent_relations_check()
    assert relations.passed
    assert all(relations.identities.values())
    assert relations.multiplicative_failures == 0

    worst_coord = 0.0
    worst_residual = 0.0
    for i in range(5):
        measure = random_complex_atoms(random.Random(700 + i), max_atoms=3)
        seq = sequence_from_measure(measure, box_window(4, SgDomain.Z2))
        report = bisgaard_check(seq, seed=0)
        assert report.hermitian_ok and report.psd.is_psd
        assert report.recovery_error is None, f"measure {i}: {report.recovery_error}"
        assert report.passed
        assert len(report.recovered_atoms) == len(measure.atoms)
        for weight, (x, y) in measure.atoms:
            err, w_err = min(
                (abs(zr - complex(float(x), float(y))), abs(wr - float(weight)))
                for wr, zr in report.recovered_atoms)
            assert err < 1e-6 and w_err < 1e-6, f"measure {i}: atom {x} + {y}i missed"
            worst_coord = max(worst_coord, err)
        worst_residual = max(worst_residual, report.recovery_residual)
    assert worst_residual < 1e-8
    _pass(7, f"relations pass; 5 recoveries, coord err <= {worst_coord:.1e}, "
             f"residual <= {worst_residual:.1e}",
          time.perf_counter() - start, 60.0)


def test_criterion_8_recovery_roundtrip_and_rank_honesty():
    start = time.perf_counter()
    rng = random.Random(88)
    for trial in range(20):
        dim = 1 + trial % 3
        n_atoms = rng.randint(1, 4 if dim == 1 else 5)
        atoms = []
        seen = set()
        while len(atoms) < n_atoms:
            point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                          for _ in range(dim))
            if all(c == 0 for c in point) or point in seen:
                continue
            seen.add(point)
            atoms.append((Fraction(rng.randint(1, 4), rng.randint(1, 3)), point))
        mu = DiscreteMeasure(dim, tuple(atoms))
        degree = n_atoms + 1 if dim == 1 else (3 if n_atoms >= 4 else 2)
        L = extend_from_measure(mu, 0, degree)
        recovered = recover_atoms(L, dim, degree)
        assert len(recovered.atoms) == n_atoms, f"trial {trial}: atom count"
        assert float(recovered.origin_mass) < 1e-8
        for w, p in atoms:
            err = min(max(abs(rw - float(w)),
                          max(abs(rc - float(c)) for rc, c in zip(rp, p)))
                      for rw, rp in recovered.atoms)
            assert err < 1e-8, f"trial {trial}: atom {p} off by {err:.2e}"

    # duplicated atoms at separation 1e-12: the rank call is refused loudly
    eps = Fraction(1, 10 ** 12)
    twin = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(7, 10), Fraction(3, 10))),
        (Fraction(1), (Fraction(7, 10) + eps, Fraction(3, 10)))))
    with pytest.raises(IndeterminateRankError):
        recover_atoms(extend_from_measure(twin, 0, 3), 2, 3, rank_tol=1e-15)
    _pass(8, "20 roundtrips exact to 1e-8; duplicate atoms refused explicitly",
          time.perf_counter() - start, 60.0)


def test_criterion_9_negative_controls():
    start = time.perf_counter()
    strip = strip_preorder()
    delta = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(2), Fraction(0))),))
    report = t_positivity_check(polynomial_moments(delta, 6), strip, 2)
    bad = report.verdict_for((0, 1))  # the (1 - x1) localizing matrix
    assert not bad.is_psd
    assert bad.witness is not None and bad.witness_value < 0
    # the witness is an exact rational certificate, not a float artefact
    assert all(isinstance(w, Fraction) for w in bad.witness)

    hankel = hamburger_check([Fraction(1), Fraction(0), Fraction(-1)])
    assert not hankel.is_psd and hankel.witness_value < 0

    seq = sequence_from_measure(DiscreteMeasure(2, ((Fraction(1), (2, 1)),)),
                                box_window(2, SgDomain.Z2))
    tampered = dict(seq.entries)
    z = tampered[(1, 0)]
    tampered[(1, 0)] = GaussianRational(z.re + z.re, z.im + z.im)
    broken = bisgaard_check(HermitianSequence(SgDomain.Z2, tampered))
    assert not broken.hermitian_ok
    assert broken.psd is None and broken.matrix_box is None  # no matrix was built
    _pass(9, "localizer witness, Hankel witness, tampered sequence rejected",
          time.perf_counter() - start, 60.0)
