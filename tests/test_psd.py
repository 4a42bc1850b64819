from __future__ import annotations

import copy
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentext.functionals import psd
from momentext.functionals.psd import (PsdVerdict, hamburger_check,
                                       psd_check_exact, psd_check_float)
from momentext.scalars import as_fraction


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


# -- the integer-row kernel against the Fraction LDL^T it replaced --------------


def _oracle_exact_matrix(matrix) -> list[list[Fraction]]:
    rows = [[as_fraction(entry) for entry in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
    return rows


def _fraction_ldlt_oracle(matrix) -> PsdVerdict:
    """The LDL^T entirely over Fraction, with the same pivot rule and witnesses."""
    A = _oracle_exact_matrix(matrix)
    n = len(A)
    perm = list(range(n))
    L = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    D = [Fraction(0)] * n
    k = 0
    while k < n:
        p = max(range(k, n), key=lambda i: A[i][i])
        if A[p][p] > 0:
            if k != p:
                perm[k], perm[p] = perm[p], perm[k]
                A[k], A[p] = A[p], A[k]
                for row in A:
                    row[k], row[p] = row[p], row[k]
                for j in range(k):
                    L[k][j], L[p][j] = L[p][j], L[k][j]
            pivot = A[k][k]
            D[k] = pivot
            for i in range(k + 1, n):
                L[i][k] = A[i][k] / pivot
            for i in range(k + 1, n):
                if A[i][k] == 0:
                    continue
                for j in range(k + 1, i + 1):
                    A[i][j] -= L[i][k] * A[j][k]
                    A[j][i] = A[i][j]
            k += 1
            continue
        for j in range(k, n):
            if A[j][j] < 0:
                return _oracle_not_psd(matrix, L, perm, k, {j: Fraction(1)})
        for i in range(k, n):
            for j in range(i + 1, n):
                if A[i][j] != 0:
                    sign = Fraction(1) if A[i][j] > 0 else Fraction(-1)
                    return _oracle_not_psd(matrix, L, perm, k, {i: Fraction(1), j: -sign})
        break
    return PsdVerdict(True, permutation=perm, unit_lower=[row[:] for row in L], diagonal=D)


def _oracle_not_psd(matrix, L, perm, k, schur_coeffs) -> PsdVerdict:
    n = len(perm)
    t = [sum(L[j][i] * c for j, c in schur_coeffs.items()) for i in range(k)]
    top = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        top[i] = -t[i] - sum(L[j][i] * top[j] for j in range(i + 1, k))
    w = top + [Fraction(0)] * (n - k)
    for j, c in schur_coeffs.items():
        w[j] = c
    witness = [Fraction(0)] * n
    for pos, orig in enumerate(perm):
        witness[orig] = w[pos]
    G = _oracle_exact_matrix(matrix)
    value = sum(witness[i] * G[i][j] * witness[j] for i in range(n) for j in range(n))
    return PsdVerdict(False, witness=witness, witness_value=value)


def _fraction_replay_oracle(verdict: PsdVerdict, matrix) -> bool:
    """Certificate replay over Fraction on the lower triangle."""
    G = _oracle_exact_matrix(matrix)
    n = len(G)
    if verdict.is_psd:
        perm, L, D = verdict.permutation, verdict.unit_lower, verdict.diagonal
        if sorted(perm) != list(range(n)) or any(d < 0 for d in D):
            return False
        for i in range(n):
            if L[i][i] != 1 or any(L[i][j] != 0 for j in range(i + 1, n)):
                return False
        support = [k for k in range(n) if D[k] != 0]
        for i in range(n):
            row = [(k, L[i][k] * D[k]) for k in support if k <= i]
            for j in range(i + 1):
                if G[perm[i]][perm[j]] != sum(ld * L[j][k] for k, ld in row if k <= j):
                    return False
        return True
    v = verdict.witness
    if len(v) != n:
        return False
    value = sum(v[i] * G[i][j] * v[j] for i in range(n) for j in range(n))
    return value == verdict.witness_value and value < 0


SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _encode(rng: random.Random, value: Fraction):
    """The same rational as an int (when integral), a Fraction or a "p/q" string."""
    form = rng.randrange(3)
    if form == 0 and value.denominator == 1:
        return int(value)
    if form == 1:
        return f"{value.numerator}/{value.denominator}"
    return value


@st.composite
def symmetric_matrices(draw):
    """Rational symmetric matrices of the shapes that steer the elimination:
    indefinite, rank-deficient Grams with zero rows, tied diagonals, a
    negative diagonal, and a Schur complement with only off-diagonal entries."""
    n = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["symmetric", "gram", "ties", "negative", "offdiagonal"]))
    rng = draw(st.randoms(use_true_random=False))
    if n == 0:
        return []

    def small():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.7 \
            else Fraction(0)

    if kind == "symmetric":
        A = [[small() for _ in range(n)] for _ in range(n)]
        G = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
    elif kind in ("gram", "negative"):
        width = rng.randint(1, n)
        B = [[small() for _ in range(width)] if rng.random() < 0.8 else [Fraction(0)] * width
             for _ in range(n)]
        G = gram_of(B)
        if kind == "negative" and n:
            i = rng.randrange(n)
            G[i][i] = -draw(SMALL.filter(lambda q: q > 0))
    elif kind == "ties":
        # rows of B are signed shuffles of one vector: every diagonal entry ties
        base = [small() for _ in range(rng.randint(1, 4))]
        B = []
        for _ in range(n):
            row = [x * rng.choice((1, -1)) for x in base]
            rng.shuffle(row)
            B.append(row)
        G = gram_of(B)
    else:
        # [[A, C], [C^T, C^T A^{-1} C + Z]] with A diagonal and dominant and Z
        # zero on its diagonal: after A's pivots the Schur complement is Z
        r = rng.randint(0, n)
        a = [Fraction(rng.randint(40, 60), rng.randint(1, 2)) for _ in range(r)]
        C = [[small() for _ in range(n - r)] for _ in range(r)]
        Z = [[Fraction(0)] * (n - r) for _ in range(n - r)]
        for i in range(n - r):
            for j in range(i):
                Z[i][j] = Z[j][i] = small()
        G = [[Fraction(0)] * n for _ in range(n)]
        for i in range(r):
            G[i][i] = a[i]
            for j in range(n - r):
                G[i][r + j] = G[r + j][i] = C[i][j]
        for i in range(n - r):
            for j in range(n - r):
                G[r + i][r + j] = Z[i][j] + sum(C[k][i] * C[k][j] / a[k] for k in range(r))
    return [[_encode(rng, x) for x in row] for row in G]


def _terms_are_fractions(verdict: PsdVerdict) -> bool:
    if verdict.is_psd:
        terms = verdict.diagonal + [x for row in verdict.unit_lower for x in row]
    else:
        terms = verdict.witness + [verdict.witness_value]
    return all(type(x) is Fraction for x in terms)


@settings(max_examples=300, deadline=None)
@given(G=symmetric_matrices())
def test_integer_rows_match_the_fraction_ldlt(G):
    verdict = psd_check_exact(G)
    assert verdict == _fraction_ldlt_oracle(G)
    assert _terms_are_fractions(verdict)
    assert verdict.verify(G) and _fraction_replay_oracle(verdict, G)


@settings(max_examples=150, deadline=None)
@given(G=symmetric_matrices(), data=st.data())
def test_integer_replay_matches_the_fraction_replay(G, data):
    verdict = psd_check_exact(G)
    n = len(G)
    if n == 0:
        return
    bad = copy.deepcopy(verdict)
    bump = data.draw(SMALL.filter(bool))
    if verdict.is_psd:
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, i))
        part = data.draw(st.sampled_from(["diagonal", "lower", "permutation"]))
        if part == "diagonal":
            bad.diagonal[j] += bump
        elif part == "lower":
            bad.unit_lower[i][j] += bump
        else:
            bad.permutation[i], bad.permutation[j] = bad.permutation[j], bad.permutation[i]
    else:
        bad.witness[data.draw(st.integers(0, n - 1))] += bump
    assert bad.verify(G) == _fraction_replay_oracle(bad, G)


def _error_of(call, matrix):
    try:
        call(matrix)
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    return None


@settings(max_examples=100, deadline=None)
@given(G=symmetric_matrices(), data=st.data())
def test_malformed_matrices_raise_the_oracle_errors(G, data):
    n = len(G)
    bad = [list(row) for row in G]
    how = data.draw(st.sampled_from(["asymmetric", "ragged", "float", "bool"]))
    if how == "asymmetric" and n >= 2:
        for _ in range(data.draw(st.integers(1, 3))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            bad[i][j] = as_fraction(bad[i][j]) + data.draw(SMALL.filter(bool))
    elif how == "ragged":
        bad.append([0] * n)
    elif n and how in ("float", "bool"):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        bad[i][j] = 0.5 if how == "float" else True
        if data.draw(st.booleans()):
            bad.append([0] * n)  # coercion runs before the shape check
    expected = _error_of(_fraction_ldlt_oracle, bad)
    assert _error_of(psd_check_exact, bad) == expected
    assert _error_of(PsdVerdict(True).verify, bad) == expected


def test_tied_diagonal_takes_the_first_largest():
    diagonal = (1, 2, 2, 1)
    G = [[Fraction(diagonal[i] if i == j else 0) for j in range(4)] for i in range(4)]
    assert psd_check_exact(G).permutation == [1, 2, 0, 3]


def test_schur_rows_stay_in_lowest_terms(monkeypatch):
    eliminate = psd._eliminate
    steps = []

    def checked(N, d, k):
        eliminate(N, d, k)
        steps.append(k)
        for i in range(k + 1, len(N)):
            assert d[i] > 0 and math.gcd(d[i], *N[i][k + 1:]) == 1

    monkeypatch.setattr(psd, "_eliminate", checked)
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 7)
        G = gram_of(rational_matrix(rng, n, rng.randint(1, n)))
        assert psd_check_exact(G) == _fraction_ldlt_oracle(G)
    assert steps


def test_rows_with_a_zero_pivot_column_are_left_alone(monkeypatch):
    # block diagonal: each 2x2 block updates its partner row once, nothing else
    blocks = 4
    G = [[Fraction(0)] * (2 * blocks) for _ in range(2 * blocks)]
    for b in range(blocks):
        G[2 * b][2 * b] = G[2 * b + 1][2 * b + 1] = Fraction(b + 2)
        G[2 * b][2 * b + 1] = G[2 * b + 1][2 * b] = Fraction(1, b + 1)
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(psd, "gcd", counting_gcd)
    verdict = psd_check_exact(G)
    assert verdict == _fraction_ldlt_oracle(G)
    assert len(calls) == blocks
    # L's zeros are one shared constant, not a fresh Fraction per entry
    assert all(x is psd._ZERO for row in verdict.unit_lower for x in row if x == 0)


@settings(max_examples=300, deadline=None)
@given(G=symmetric_matrices(), shift=st.fractions(min_value=-3, max_value=3,
                                                  max_denominator=8))
def test_exact_verdicts_agree_with_eigvalsh_away_from_zero(G, shift):
    """Where the float spectrum decides clearly, the exact verdict agrees.

    The diagonal shift moves the rank-deficient Grams off the boundary in
    both directions; a smallest eigenvalue within 1e-6 of the spectral
    scale is the boundary's to decide and is skipped.
    """
    G = [[as_fraction(x) + (shift if i == j else 0) for j, x in enumerate(row)]
         for i, row in enumerate(G)]
    if not G:
        return
    eigenvalues = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in G]))
    smallest, scale = eigenvalues[0], max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
    if abs(smallest) <= 1e-6 * scale:
        return
    verdict = psd_check_exact(G)
    assert verdict.is_psd == (smallest > 0)
    assert verdict.verify(G)
