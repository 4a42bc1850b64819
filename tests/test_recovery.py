from __future__ import annotations

import random
from fractions import Fraction

import pytest

from momentext.functionals.core import (DiscreteMeasure, LinearFunctional,
                                        SCALAR_EXACT, SCALAR_FLOAT, polynomial_moments)
from momentext.extalg import Mode
from momentext.functionals.recovery import (IndeterminateRankError,
                                            RecoveryFailedError,
                                            polynomial_moment_residual,
                                            recover_atoms)
from momentext.polyalg import exponents_up_to_degree


def random_measure(rng: random.Random, dim: int, n_atoms: int,
                   spread: int = 4) -> DiscreteMeasure:
    atoms = []
    seen = set()
    while len(atoms) < n_atoms:
        p = tuple(Fraction(rng.randint(-spread, spread), rng.randint(1, 3))
                  for _ in range(dim))
        if all(c == 0 for c in p) or p in seen:
            continue
        seen.add(p)
        atoms.append((Fraction(rng.randint(1, 4), rng.randint(1, 3)), p))
    return DiscreteMeasure(dim, atoms=tuple(atoms))


def match_atoms(recovered: DiscreteMeasure, truth: DiscreteMeasure,
                tol: float = 1e-8) -> float:
    assert len(recovered.atoms) == len(truth.atoms)
    worst = 0.0
    used = set()
    for w, p in recovered.atoms:
        best = None
        for idx, (tw, tp) in enumerate(truth.atoms):
            if idx in used:
                continue
            err = max(abs(float(a) - float(b)) for a, b in zip(p, tp))
            err = max(err, abs(float(w) - float(tw)))
            if best is None or err < best[0]:
                best = (err, idx)
        assert best is not None and best[0] < tol, f"unmatched atom {p}"
        used.add(best[1])
        worst = max(worst, best[0])
    return worst


def test_two_atom_roundtrip():
    mu = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1), Fraction(2))),
        (Fraction(1, 2), (Fraction(-1), Fraction(1, 3)))))
    rec = recover_atoms(polynomial_moments(mu, 6), 2, 3)
    match_atoms(rec, mu)
    assert polynomial_moment_residual(rec, polynomial_moments(mu, 6), 6) < 1e-8


def test_roundtrip_across_dimensions():
    rng = random.Random(23)
    for dim in (1, 2, 3):
        for _ in range(5):
            n = rng.randint(1, 3)
            mu = random_measure(rng, dim, n)
            degree = n + 1
            rec = recover_atoms(polynomial_moments(mu, 2 * degree), dim, degree)
            match_atoms(rec, mu)


def test_origin_mass_separated():
    mu = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(0))),
                                   (Fraction(1), (Fraction(0), Fraction(1)))),
                         origin_mass=Fraction(1, 2))
    rec = recover_atoms(polynomial_moments(mu, 6), 2, 3)
    assert abs(float(rec.origin_mass) - 0.5) < 1e-8
    match_atoms(rec, DiscreteMeasure(2, atoms=mu.atoms))


def test_empty_functional_gives_empty_measure():
    zero = LinearFunctional(
        2, Mode.APLUS, SCALAR_FLOAT,
        {(g, 0): 0.0 for g in exponents_up_to_degree(2, 4)})
    rec = recover_atoms(zero, 2, 2)
    assert not rec.atoms and float(rec.origin_mass) == 0.0


def test_duplicated_atoms_are_indeterminate():
    # two copies of the same atom, 1e-12 apart: the tiny singular value is
    # far below what float moments can resolve, and the checker must say so
    # rather than guessing a rank
    base = 0.7
    eps = 1e-12
    vals = {}
    for gamma in exponents_up_to_degree(2, 6):
        vals[(gamma, 0)] = ((base ** gamma[0]) * (0.3 ** gamma[1])
                            + ((base + eps) ** gamma[0]) * (0.3 ** gamma[1]))
    L = LinearFunctional(2, Mode.APLUS, SCALAR_FLOAT, vals)
    with pytest.raises(IndeterminateRankError) as err:
        recover_atoms(L, 2, 3, rank_tol=1e-15)
    assert err.value.band[0] < err.value.band[1]
    assert err.value.singular_values


def test_indeterminate_band_boundary():
    # a singular value planted inside the declared ambiguity band
    mu = DiscreteMeasure(2, atoms=((Fraction(1), (Fraction(1), Fraction(1))),))
    vals = {k: float(v) for k, v in polynomial_moments(mu, 6).values.items()}
    bump = 1e-8  # perturbation singular values land inside [tol/10, tol*10]*sigma_1
    for gamma in exponents_up_to_degree(2, 6):
        if sum(gamma) % 2 == 0 and gamma[0] % 2 == 0 and gamma[1] % 2 == 0:
            vals[(gamma, 0)] += bump
    L = LinearFunctional(2, Mode.APLUS, SCALAR_FLOAT, vals)
    with pytest.raises(IndeterminateRankError):
        recover_atoms(L, 2, 3, rank_tol=1e-8)


def test_non_atomic_data_fails_flatness():
    # Lebesgue measure on [0,1]: full-rank Hankel, no flat truncation
    vals = {(g, 0): 1.0 / (g[0] + 1) for g in exponents_up_to_degree(1, 6)}
    L = LinearFunctional(1, Mode.APLUS, SCALAR_FLOAT, vals)
    with pytest.raises(RecoveryFailedError):
        recover_atoms(L, 1, 3)


def test_seeded_runs_are_reproducible():
    rng = random.Random(4)
    mu = random_measure(rng, 2, 3)
    L = polynomial_moments(mu, 6)
    first = recover_atoms(L, 2, 3, seed=11)
    second = recover_atoms(L, 2, 3, seed=11)
    assert first.atoms == second.atoms
    assert float(first.origin_mass) == float(second.origin_mass)


def test_float_input_path():
    mu = DiscreteMeasure(2, atoms=((Fraction(2), (Fraction(1, 2), Fraction(-1))),))
    vals = {k: float(v) for k, v in polynomial_moments(mu, 4).values.items()}
    L = LinearFunctional(2, Mode.APLUS, SCALAR_FLOAT, vals)
    rec = recover_atoms(L, 2, 2)
    assert len(rec.atoms) == 1
    w, p = rec.atoms[0]
    assert abs(w - 2.0) < 1e-8 and abs(p[0] - 0.5) < 1e-8 and abs(p[1] + 1.0) < 1e-8


def oracle_measure_moment_float(measure: DiscreteMeasure, gamma) -> float:
    """The retired float evaluator: weight first, then each coordinate power."""
    total = 0.0
    for weight, point in measure.atoms:
        value = float(weight)
        for base, power in zip(point, gamma):
            if power:
                value *= float(base) ** power
        total += value
    if all(g == 0 for g in gamma):
        total += float(measure.origin_mass)
    return total


def oracle_moment_residual(measure, L, max_degree) -> float:
    worst = 0.0
    for gamma in exponents_up_to_degree(L.nvars, max_degree):
        worst = max(worst, abs(oracle_measure_moment_float(measure, gamma)
                               - float(L.value(gamma))))
    return worst


def test_moment_residual_is_bit_identical_to_float_oracle():
    rng = random.Random(31)
    for dim in (1, 2, 3):
        for n in (1, 2, 3):
            mu = random_measure(rng, dim, n)
            origin = Fraction(rng.randint(0, 2), 3)
            mu = DiscreteMeasure(dim, atoms=mu.atoms, origin_mass=origin)
            degree = n + 1
            exact = polynomial_moments(mu, 2 * degree)
            floats = LinearFunctional(dim, Mode.APLUS, SCALAR_FLOAT,
                                      {k: float(v) for k, v in exact.values.items()})
            for L in (exact, floats):
                rec = recover_atoms(L, dim, degree)
                got = polynomial_moment_residual(rec, L, 2 * degree)
                assert type(got) is float
                assert got == oracle_moment_residual(rec, L, 2 * degree)


def test_moment_residual_counts_origin_and_direction_mass_at_gamma_zero():
    mu = DiscreteMeasure(2, atoms=((Fraction(1, 3), (Fraction(1), Fraction(-2))),
                                   (Fraction(2), (Fraction(1, 2), Fraction(3, 4)))),
                         origin_mass=Fraction(5, 7),
                         sphere_atoms=((Fraction(3, 2), (Fraction(3, 5), Fraction(4, 5))),))
    got = polynomial_moment_residual(mu, polynomial_moments(mu, 4), 4)
    assert type(got) is float and got == 0.0


def line_moments(atoms, top):
    """Exact moments s_0..s_top of (weight, point) atoms on the line, signed weights allowed."""
    return LinearFunctional(1, Mode.APLUS, SCALAR_EXACT,
                            {((k,), 0): sum(w * x ** k for w, x in atoms) for k in range(top + 1)})


def test_recovery_refuses_negative_weights_and_missed_moments():
    # delta_1 - delta_2 / 2 has a flat rank-2 moment matrix, but one weight is negative
    with pytest.raises(RecoveryFailedError, match="recovered weight .* is negative") as err:
        recover_atoms(line_moments([(Fraction(1), 1), (Fraction(-1, 2), 2)], 4), 1, 2)
    assert err.value.residual == pytest.approx(0.5)
    # a coarse rank_tol calls the 1e-6 atom noise: one atom misses the data
    with pytest.raises(RecoveryFailedError, match="misses the input moments") as err:
        recover_atoms(line_moments([(Fraction(1), 1), (Fraction(1, 10 ** 6), 2)], 4), 1, 2,
                      rank_tol=1e-3)
    assert err.value.residual > 1e-8
