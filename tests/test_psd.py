from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from momentext.functionals.psd import (PsdVerdict, hamburger_check,
                                       psd_check_exact, psd_check_float)


def rational_matrix(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)]


def gram_of(B: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(B)
    return [[sum(B[i][k] * B[j][k] for k in range(len(B[0]))) for j in range(n)]
            for i in range(n)]


def quadratic_form(G, v):
    n = len(G)
    return sum(v[i] * G[i][j] * v[j] for i in range(n) for j in range(n))


def test_identity_is_psd():
    G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    verdict = psd_check_exact(G)
    assert verdict.is_psd
    assert verdict.verify(G)


def test_rank_deficient_psd():
    G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
    verdict = psd_check_exact(G)
    assert verdict.is_psd
    assert verdict.verify(G)


def test_negative_diagonal_witness():
    G = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-3)]]
    verdict = psd_check_exact(G)
    assert not verdict.is_psd
    assert verdict.witness_value == Fraction(-3)
    assert verdict.verify(G)


def test_zero_diagonal_offdiagonal_witness():
    # [[0, 1], [1, 0]] has eigenvalues +-1; the witness (1, -1) gives -2
    G = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    verdict = psd_check_exact(G)
    assert not verdict.is_psd
    assert quadratic_form(G, verdict.witness) == verdict.witness_value
    assert verdict.witness_value < 0
    assert verdict.verify(G)


def test_indefinite_after_elimination():
    G = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
    verdict = psd_check_exact(G)
    assert not verdict.is_psd
    assert quadratic_form(G, verdict.witness) == verdict.witness_value < 0


def test_hilbert_matrix_is_psd():
    n = 5
    H = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    verdict = psd_check_exact(H)
    assert verdict.is_psd
    assert verdict.verify(H)
    neg = [[-H[i][j] for j in range(n)] for i in range(n)]
    bad = psd_check_exact(neg)
    assert not bad.is_psd
    assert bad.verify(neg)


def test_asymmetric_and_float_inputs_rejected():
    with pytest.raises(ValueError):
        psd_check_exact([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]])
    with pytest.raises((TypeError, ValueError)):
        psd_check_exact([[0.5]])


def test_random_gram_matrices_are_psd():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        B = rational_matrix(rng, n, rng.randint(1, 6))
        G = gram_of(B)
        verdict = psd_check_exact(G)
        assert verdict.is_psd
        assert verdict.verify(G)


def test_random_indefinite_witnesses_reproduce():
    rng = random.Random(6)
    found = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        A = rational_matrix(rng, n, n)
        G = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
        verdict = psd_check_exact(G)
        if verdict.is_psd:
            assert verdict.verify(G)
            continue
        found += 1
        assert quadratic_form(G, verdict.witness) == verdict.witness_value
        assert verdict.witness_value < 0
        assert verdict.verify(G)
    assert found > 20  # random symmetric matrices are mostly indefinite


def test_witness_survives_permutation_pivoting():
    # forces pivoting through a zero leading diagonal
    G = [[Fraction(0), Fraction(2), Fraction(1)],
         [Fraction(2), Fraction(0), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(1)]]
    verdict = psd_check_exact(G)
    assert not verdict.is_psd
    assert quadratic_form(G, verdict.witness) == verdict.witness_value < 0


def test_float_check_tolerance():
    good = psd_check_float([[1.0, 0.0], [0.0, -1e-12]], tol=1e-9)
    assert good.is_psd
    bad = psd_check_float([[1.0, 0.0], [0.0, -1e-3]], tol=1e-9)
    assert not bad.is_psd
    assert bad.min_eigenvalue < -1e-4


def test_hamburger_positive_case():
    # moments of delta_1 + delta_{-2}: 2, -1, 5, -7, 17
    verdict = hamburger_check([Fraction(2), Fraction(-1), Fraction(5),
                               Fraction(-7), Fraction(17)])
    assert verdict.is_psd


def test_hamburger_negative_case():
    verdict = hamburger_check([Fraction(1), Fraction(0), Fraction(-1)])
    assert not verdict.is_psd
    H = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    assert verdict.verify(H)
    assert quadratic_form(H, verdict.witness) == verdict.witness_value < 0


def test_hamburger_needs_odd_length():
    with pytest.raises(ValueError):
        hamburger_check([Fraction(1), Fraction(0)])


# -- certificate replay: tampering and the full n x n oracle --------------------


def oracle_verify_psd(verdict, G) -> bool:
    """The full replay: every entry of P*G*P^T against L*D*L^T."""
    n = len(G)
    perm, L, D = verdict.permutation, verdict.unit_lower, verdict.diagonal
    if sorted(perm) != list(range(n)) or any(d < 0 for d in D):
        return False
    for i in range(n):
        if L[i][i] != 1 or any(L[i][j] != 0 for j in range(i + 1, n)):
            return False
    return all(G[perm[i]][perm[j]]
               == sum(L[i][k] * D[k] * L[j][k] for k in range(min(i, j) + 1))
               for i in range(n) for j in range(n))


def tampered(verdict: PsdVerdict, change) -> PsdVerdict:
    copied = copy.deepcopy(verdict)
    change(copied)
    return copied


def test_tampered_psd_certificate_fails():
    # G = B * B^T with B = [[1, 0], [2, 1], [1, 3]]: rank 2, pivots 10 then 5 - 5/2
    G = [[Fraction(v) for v in row] for row in ([1, 2, 1], [2, 5, 5], [1, 5, 10])]
    verdict = psd_check_exact(G)
    assert verdict.is_psd and verdict.verify(G)
    assert verdict.permutation != [0, 1, 2]
    assert verdict.diagonal[0] > 0 and verdict.diagonal[2] == 0

    def swap_perm(v):
        v.permutation[0], v.permutation[1] = v.permutation[1], v.permutation[0]

    def bump_diagonal(v):
        v.diagonal[1] += 1

    def bump_lower(v):
        v.unit_lower[2][0] += Fraction(1, 7)

    for change in (swap_perm, bump_diagonal, bump_lower):
        bad = tampered(verdict, change)
        assert not bad.verify(G)
        assert not oracle_verify_psd(bad, G)


def test_tampered_notpsd_witness_fails():
    G = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
    verdict = psd_check_exact(G)
    assert not verdict.is_psd and verdict.verify(G)
    for index in range(2):
        def bump(v, index=index):
            v.witness[index] += 1
        assert not tampered(verdict, bump).verify(G)


def test_verify_agrees_with_full_replay_oracle():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 5)
        G = gram_of(rational_matrix(rng, n, rng.randint(1, n)))
        verdict = psd_check_exact(G)
        assert verdict.verify(G) and oracle_verify_psd(verdict, G)
        i, j = rng.randrange(n), rng.randrange(n)
        i, j = max(i, j), min(i, j)
        for change in (lambda v: v.diagonal.__setitem__(j, v.diagonal[j] + 1),
                       lambda v: v.unit_lower[i].__setitem__(j, v.unit_lower[i][j] - 1),
                       lambda v: v.permutation.reverse()):
            bad = tampered(verdict, change)
            assert bad.verify(G) == oracle_verify_psd(bad, G)
