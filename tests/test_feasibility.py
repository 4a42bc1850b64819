from __future__ import annotations

import random
from fractions import Fraction

import pytest

from momentext.extalg import Mode
from momentext.functionals.core import (DiscreteMeasure,
                                        InconsistentFunctionalError,
                                        LinearFunctional, SCALAR_EXACT,
                                        SCALAR_FLOAT, polynomial_moments)
from momentext.functionals.feasibility import extension_feasibility


def test_two_point_oracle_is_feasible():
    # delta_(1,0) + delta_(0,1): degree-2 data admits a pole-order-1 extension
    mu = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1), Fraction(0))),
        (Fraction(1), (Fraction(0), Fraction(1)))))
    L = polynomial_moments(mu, 2)
    result = extension_feasibility(L, 1, 4)
    assert result.feasible
    assert result.status == "feasible"
    assert result.gap < 1e-7
    assert result.iterations <= 5000
    assert result.certificate.is_psd
    # the completed functional reproduces every fixed value
    assert result.fixed_key_residual < 1e-9
    for key, value in L.values.items():
        assert abs(result.functional.values[key] - float(value)) < 1e-7


def test_zero_functional_is_trivially_feasible():
    L = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, {((0, 0), 0): Fraction(0)})
    result = extension_feasibility(L, 1, 4)
    assert result.feasible
    assert result.gap == 0.0
    assert all(v == 0 for v in result.functional.values.values())


def test_measure_data_is_always_feasible():
    rng = random.Random(19)
    for _ in range(5):
        atoms = []
        seen = set()
        while len(atoms) < rng.randint(3, 4):
            p = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                 Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            if all(c == 0 for c in p) or p in seen:
                continue
            seen.add(p)
            atoms.append((Fraction(rng.randint(1, 4), rng.randint(1, 3)), p))
        mu = DiscreteMeasure(2, atoms=tuple(atoms))
        result = extension_feasibility(polynomial_moments(mu, 2), 1, 4)
        assert result.feasible
        assert result.gap < 1e-7
        assert result.fixed_key_residual < 1e-7


def test_completed_functional_satisfies_reduction_relations():
    mu = DiscreteMeasure(2, atoms=((Fraction(2), (Fraction(1), Fraction(1))),
                                   (Fraction(1), (Fraction(-1), Fraction(2))),
                                   (Fraction(1), (Fraction(2), Fraction(-1)))))
    result = extension_feasibility(polynomial_moments(mu, 2), 1, 4)
    assert result.feasible
    scale = max(abs(v) for v in result.functional.values.values())
    assert result.functional.check_reduction_relations(1e-8 * max(1.0, scale)) == []


def test_iteration_cap_reports_unresolved():
    mu = DiscreteMeasure(2, atoms=(
        (Fraction(1), (Fraction(1), Fraction(0))),
        (Fraction(1), (Fraction(0), Fraction(1)))))
    L = polynomial_moments(mu, 2)
    result = extension_feasibility(L, 1, 4, max_iters=3)
    assert not result.feasible
    assert result.status == "unresolved"
    assert result.gap > 0
    assert result.functional is None
    assert result.certificate is None


def test_negative_mass_rejected():
    L = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, {((0, 0), 0): Fraction(-1)})
    with pytest.raises(InconsistentFunctionalError):
        extension_feasibility(L, 1, 4)


def test_contradictory_keys_rejected():
    # in one variable, x^2/||x||^2 is the constant 1, so these keys clash
    L = LinearFunctional(1, Mode.APLUS, SCALAR_EXACT,
                         {((0,), 0): Fraction(1), ((2,), 1): Fraction(2)})
    with pytest.raises(InconsistentFunctionalError):
        extension_feasibility(L, 1, 2)


def test_keys_pinning_one_moment_share_a_constraint_row():
    # in one variable x^2/||x||^2 = 1, so (0, 0) and (2, 1) pin the same moment
    data = {((0,), 0): Fraction(1), ((2,), 0): Fraction(2)}
    alone = extension_feasibility(LinearFunctional(1, Mode.APLUS, SCALAR_EXACT, data), 1, 4)
    both = extension_feasibility(LinearFunctional(1, Mode.APLUS, SCALAR_EXACT,
                                                  {**data, ((2,), 1): Fraction(1)}), 1, 4)
    assert both.feasible and (both.gap, both.iterations) == (alone.gap, alone.iterations)
    # the relation check compares raw values within 1e-9; the rows compare in
    # units of L(1) = 1e-3, where the same 5e-10 gap is 5e-7
    near = LinearFunctional(1, Mode.APLUS, SCALAR_FLOAT,
                            {((0,), 0): 1e-3, ((2,), 1): 1e-3 + 5e-10})
    with pytest.raises(InconsistentFunctionalError, match="pin the same moment"):
        extension_feasibility(near, 1, 4)


def test_out_of_window_key_rejected():
    L = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT,
                         {((0, 0), 0): Fraction(1), ((5, 0), 0): Fraction(1)})
    with pytest.raises(ValueError):
        extension_feasibility(L, 1, 4)


def test_laurent_mode_rejected():
    L = LinearFunctional(2, Mode.LAURENT, SCALAR_EXACT, {((0, 0), 0): Fraction(1)})
    with pytest.raises(ValueError):
        extension_feasibility(L, 1, 4)


def test_inconsistent_lstsq_detected():
    # L(1) = 1 contradicts the vanishing pole-2 keys through a two-step
    # ||x||^2 lift; the single-step relation check cannot see it because the
    # intermediate pole-1 keys are not stored, but the embedded constraint
    # rows are linearly dependent, which the least-squares precheck catches.
    vals = {((0, 0), 0): Fraction(1), ((4, 0), 2): Fraction(0),
            ((2, 2), 2): Fraction(0), ((0, 4), 2): Fraction(0)}
    L = LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, vals)
    with pytest.raises(InconsistentFunctionalError):
        extension_feasibility(L, 2, 4)


def test_univariate_window_classes_lift_to_the_top_pole():
    # In one variable the window names product classes by reduced keys; the
    # search variables must still be the values at pole order 2M.
    mu = DiscreteMeasure(1, atoms=((Fraction(1), (Fraction(2),)),
                                   (Fraction(1, 3), (Fraction(-1, 2),))))
    result = extension_feasibility(polynomial_moments(mu, 2), 1, 4)
    assert result.feasible
    assert result.fixed_key_residual < 1e-9
    top = sorted(k for k in result.functional.values if k[1] == 2)
    assert [g for (g,), _ in top] == list(range(4, 9))
