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


def test_the_kernel_and_verify_refuse_asymmetric_input():
    # the elimination reads only the upper triangle, so it checks the whole matrix first
    N = [[1, 0, 0], [0, 1, 5], [0, 0, 1]]
    with pytest.raises(ValueError, match=r"^matrix not symmetric at \(1,2\)$"):
        psd.psd_check_cleared(N, 1)
    verdict = psd_check_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match=r"^matrix not symmetric at \(1,2\)$"):
        verdict.verify(N)
    with pytest.raises(ValueError, match="^matrix must be square$"):
        verdict.verify([[1, 0], [0]])


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


def test_hamburger_window_matches_the_listed_hankel_matrix():
    rng = random.Random(5)
    for length in (1, 3, 5, 7, 9):
        for _ in range(4):
            s = [Fraction(rng.randint(-3, 9), rng.randint(1, 4)) for _ in range(length)]
            size = (length + 1) // 2
            hankel = [[s[i + j] for j in range(size)] for i in range(size)]
            assert hamburger_check(s) == psd_check_exact(hankel)
    assert hamburger_check([1, "1/2", "1/3"]) == psd_check_exact([[1, "1/2"], ["1/2", "1/3"]])
    refused = "cannot interpret 0.5 as an exact rational"
    for moments, error, text in (([1, 0.5, 1], TypeError, refused),
                                 ([1, 0.5], TypeError, refused),
                                 ([], ValueError, "need an odd number of moments s_0..s_2N, got 0")):
        with pytest.raises(error) as got:
            hamburger_check(moments)
        assert str(got.value) == text


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


def test_misshapen_or_bool_certificates_fail_without_raising():
    G = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    verdict = psd_check_exact(G)
    assert verdict.is_psd and verdict.verify(G)

    def set_lower(i, j, value):
        return lambda v: v.unit_lower[i].__setitem__(j, value)

    for change in (lambda v: v.unit_lower.pop(),  # an L with one row
                   lambda v: v.unit_lower[1].pop(),  # a short L row
                   lambda v: v.diagonal.pop(),  # a D of length 1
                   lambda v: v.diagonal.append(Fraction(5)),  # a D longer than n
                   lambda v: v.unit_lower[0].append(Fraction(0)),  # a long L row
                   set_lower(0, 0, True), set_lower(1, 1, True), set_lower(0, 1, False),
                   lambda v: v.diagonal.__setitem__(0, True),
                   lambda v: v.permutation.__setitem__(0, Fraction(v.permutation[0])),
                   lambda v: v.permutation.__setitem__(0, "0")):
        assert tampered(verdict, change).verify(G) is False

    H = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
    witness = PsdVerdict(False, witness=[1, -1], witness_value=Fraction(-2))
    assert witness.verify(H)
    for index, flag in ((0, True), (1, True), (0, False)):
        bad = tampered(witness, lambda v: v.witness.__setitem__(index, flag))
        assert bad.verify(H) is False
    assert PsdVerdict(False, witness=[True, 0], witness_value=Fraction(1)).verify(H) is False


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


def test_schur_complement_stays_in_lowest_terms(monkeypatch):
    step = psd._schur_step
    steps = []

    def checked(N, delta, k):
        delta = step(N, delta, k)
        steps.append(k)
        n = len(N)
        assert delta > 0
        assert math.gcd(delta, *[N[i][j] for i in range(k + 1, n) for j in range(i, n)]) == 1
        return delta

    monkeypatch.setattr(psd, "_schur_step", checked)
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 7)
        G = gram_of(rational_matrix(rng, n, rng.randint(1, n)))
        verdict = psd_check_exact(G)
        assert verdict == _fraction_ldlt_oracle(G)
        assert verdict.verify(G)  # the replay runs the same step
    assert steps


def test_schur_step_shrinks_a_gcd_the_first_row_overstates():
    # over delta = 3 the new diagonal and the first live row are multiples of
    # 3 and N[2][3] is not, so the gcd read off them must shrink on row 2
    N = [[1, 0, 0, 0], [0, 3, 3, 6], [0, 3, 3, 1], [0, 6, 1, 6]]
    assert psd._schur_step(N, 3, 0) == 3
    assert [row[i:] for i, row in enumerate(N)][1:] == [[3, 3, 6], [3, 1], [6]]
    rng = random.Random(12)
    for _ in range(300):
        n, delta = rng.randint(2, 6), rng.choice((4, 6, 12, 30, 36))
        f = rng.choice([d for d in range(2, delta + 1) if delta % d == 0])
        N = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = rng.randint(-6, 6)
                N[i][j] = N[j][i] = x * f if i == j or i == 1 else x
        N[0][0] = rng.randint(1, 9)
        if rng.random() < 0.5:
            N[0][1:] = [0] * (n - 1)
        A = [[Fraction(x, delta) for x in row] for row in N]
        new_delta = psd._schur_step(N, delta, 0)
        live = [N[i][j] for i in range(1, n) for j in range(i, n)]
        assert new_delta > 0 and math.gcd(new_delta, *live) == 1
        assert all(Fraction(N[i][j], new_delta) == A[i][j] - A[0][i] * A[0][j] / A[0][0]
                   for i in range(1, n) for j in range(i, n))


class _Counted(int):
    """A pivot-row entry that counts its products with other pivot-row entries."""

    products = 0

    def __mul__(self, other):
        if type(other) is _Counted:
            _Counted.products += 1
        return int(self) * int(other)


def test_rows_with_a_zero_pivot_column_skip_the_cross_multiplication(monkeypatch):
    # block diagonal: each 2x2 block updates its partner row once, nothing else
    blocks = 4
    G = [[Fraction(0)] * (2 * blocks) for _ in range(2 * blocks)]
    for b in range(blocks):
        G[2 * b][2 * b] = G[2 * b + 1][2 * b + 1] = Fraction(b + 2)
        G[2 * b][2 * b + 1] = G[2 * b + 1][2 * b] = Fraction(1, b + 1)
    step = psd._schur_step
    crossed, expected = [], []

    def counting(N, delta, k):
        # N[k][i] * N[k][j] is the only product of two pivot-row entries
        top, n = N[k], len(N)
        rows = [i for i in range(k + 1, n) if top[i]]
        crossed.extend(rows)
        expected.append(sum(n - i for i in rows))
        N[k] = [_Counted(x) for x in top]
        try:
            return step(N, delta, k)
        finally:
            N[k] = top

    monkeypatch.setattr(psd, "_schur_step", counting)
    monkeypatch.setattr(_Counted, "products", 0)
    verdict = psd_check_exact(G)
    assert verdict == _fraction_ldlt_oracle(G)
    assert len(crossed) == blocks
    assert _Counted.products == sum(expected) > 0
    # L's zeros are one shared constant, not a fresh Fraction per entry
    assert all(x is psd._ZERO for row in verdict.unit_lower for x in row if x == 0)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def common_denominator_matrices(draw):
    """Symmetric matrices whose one common denominator is as large as it gets
    against the row denominators: pairwise-coprime row denominators (integer
    off-diagonal entries, the diagonal over distinct primes), block-diagonal
    matrices with a distinct prime denominator per block, and either of them
    with zero rows and columns."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["coprime rows", "prime blocks"]))
    rng = draw(st.randoms(use_true_random=False))
    primes = rng.sample(PRIMES, n)
    G = [[Fraction(0)] * n for _ in range(n)]
    if kind == "coprime rows":
        for i in range(n):
            for j in range(i):
                G[i][j] = G[j][i] = Fraction(rng.randint(-3, 3))
            # a large enough diagonal makes the matrix PSD, a small one need not
            p = primes[i]
            G[i][i] = Fraction(rng.randint(-2, 6 * n) * p + rng.randint(1, p - 1), p)
    else:
        start = 0
        while start < n:
            size = rng.randint(1, min(4, n - start))
            q = primes[start]
            width = rng.randint(1, size)
            B = [[Fraction(rng.randint(-4, 4), q) for _ in range(width)] for _ in range(size)]
            block = gram_of(B)
            if rng.random() < 0.3:
                i = rng.randrange(size)
                block[i][i] -= Fraction(rng.randint(1, 4), q)
            for i in range(size):
                for j in range(size):
                    G[start + i][start + j] = block[i][j]
            start += size
    for i in range(n):
        if draw(st.integers(0, 4)) == 0:
            for j in range(n):
                G[i][j] = G[j][i] = Fraction(0)
    order = draw(st.permutations(range(n)))
    return [[_encode(rng, G[p][q]) for q in order] for p in order]


@settings(max_examples=200, deadline=None)
@given(G=common_denominator_matrices(), data=st.data())
def test_common_denominator_worst_cases_match_the_fraction_oracles(G, data):
    verdict = psd_check_exact(G)
    assert verdict == _fraction_ldlt_oracle(G)
    assert _terms_are_fractions(verdict)
    assert verdict.verify(G) and _fraction_replay_oracle(verdict, G)
    n = len(G)
    bad = copy.deepcopy(verdict)
    bump = data.draw(SMALL.filter(bool))
    i = data.draw(st.integers(0, n - 1))
    if verdict.is_psd:
        j = data.draw(st.integers(0, i))
        if data.draw(st.booleans()):
            bad.diagonal[j] += bump
        else:
            bad.unit_lower[i][j] += bump
    else:
        bad.witness[i] += bump
    assert bad.verify(G) == _fraction_replay_oracle(bad, G)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 9), rng=st.randoms(use_true_random=False))
def test_integer_witness_lift_matches_the_fraction_lift(n, rng):
    """The integer back-substitution of ``_not_psd`` against the Fraction one,
    on unit lower factors whose columns have unrelated denominators."""
    k = rng.randint(0, n - 1)
    perm = list(range(n))
    rng.shuffle(perm)
    L = [[Fraction(1) if i == j else Fraction(rng.randint(-5, 5), rng.randint(1, 30))
          if j < min(i, k) else Fraction(0) for j in range(n)] for i in range(n)]
    i = rng.randint(k, n - 1)
    coeffs = {i: 1}
    if i + 1 < n and rng.random() < 0.5:
        coeffs[rng.randint(i + 1, n - 1)] = rng.choice((1, -1))
    A = rational_matrix(rng, n, n)
    G = [[A[r][c] + A[c][r] for c in range(n)] for r in range(n)]
    N, delta = psd._int_rows(G)
    verdict = psd._not_psd(N, delta, L, perm, k, coeffs)
    assert verdict == _oracle_not_psd(G, L, perm, k, coeffs)
    assert _terms_are_fractions(verdict)


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
