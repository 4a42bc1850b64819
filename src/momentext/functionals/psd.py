"""Positive-semidefiniteness checks with reproducible certificates.

The exact route factors a symmetric rational matrix as P*G*P^T = L*D*L^T
with symmetric largest-diagonal pivoting, entirely over Fraction.  A PSD
verdict carries (permutation, unit lower factor, nonnegative diagonal); a
NotPSD verdict carries a rational vector v with v^T*G*v < 0.  Either
certificate is checked back against G by ``PsdVerdict.verify``.

The float route is a plain eigenvalue bound and certifies nothing; it backs
the approximate feasibility search where exactness is out of reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..scalars import as_fraction


@dataclass
class PsdVerdict:
    """Outcome of an exact PSD check, with enough data to replay it."""

    is_psd: bool
    permutation: list[int] | None = None
    unit_lower: list[list[Fraction]] | None = None
    diagonal: list[Fraction] | None = None
    witness: list[Fraction] | None = None
    witness_value: Fraction | None = None

    @property
    def outcome(self) -> str:
        return "PSD" if self.is_psd else "NotPSD"

    def verify(self, matrix) -> bool:
        """Replay the certificate against the original matrix."""
        G = _as_exact_matrix(matrix)
        n = len(G)
        if self.is_psd:
            perm, L, D = self.permutation, self.unit_lower, self.diagonal
            if perm is None or L is None or D is None or sorted(perm) != list(range(n)):
                return False
            if any(d < 0 for d in D):
                return False
            for i in range(n):
                if L[i][i] != 1 or any(L[i][j] != 0 for j in range(i + 1, n)):
                    return False
            # G is checked symmetric and L*D*L^T is symmetric by construction,
            # so the lower triangle decides; zero pivots add nothing.
            support = [k for k in range(n) if D[k] != 0]
            for i in range(n):
                row = [(k, L[i][k] * D[k]) for k in support if k <= i]
                G_row = G[perm[i]]
                for j in range(i + 1):
                    L_j = L[j]
                    if G_row[perm[j]] != sum(ld * L_j[k] for k, ld in row if k <= j):
                        return False
            return True
        v = self.witness
        if v is None or len(v) != n:
            return False
        value = sum(v[i] * G[i][j] * v[j] for i in range(n) for j in range(n))
        return value == self.witness_value and value < 0


def _as_exact_matrix(matrix) -> list[list[Fraction]]:
    rows = [[as_fraction(entry) for entry in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
    return rows


def psd_check_exact(matrix) -> PsdVerdict:
    """Exact PSD decision for a symmetric rational matrix.

    Entries may be ints, Fractions or "p/q" strings; floats are refused so
    the exact path cannot silently degrade.
    """
    A = _as_exact_matrix(matrix)
    n = len(A)
    perm = list(range(n))
    L = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    D = [Fraction(0)] * n
    k = 0
    while k < n:
        p = max(range(k, n), key=lambda i: A[i][i])
        if A[p][p] > 0:
            _swap(A, L, perm, k, p)
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
        # No positive diagonal left in the Schur complement.
        for j in range(k, n):
            if A[j][j] < 0:
                return _not_psd(matrix, L, perm, k, {j: Fraction(1)})
        for i in range(k, n):
            for j in range(i + 1, n):
                if A[i][j] != 0:
                    sign = Fraction(1) if A[i][j] > 0 else Fraction(-1)
                    return _not_psd(matrix, L, perm, k, {i: Fraction(1), j: -sign})
        break  # Schur complement is identically zero: remaining D entries stay 0.
    return PsdVerdict(True, permutation=perm,
                      unit_lower=[row[:] for row in L], diagonal=D)


def _swap(A, L, perm, k, p) -> None:
    if k == p:
        return
    perm[k], perm[p] = perm[p], perm[k]
    A[k], A[p] = A[p], A[k]
    for row in A:
        row[k], row[p] = row[p], row[k]
    for j in range(k):
        L[k][j], L[p][j] = L[p][j], L[k][j]


def _not_psd(matrix, L, perm, k, schur_coeffs: dict[int, Fraction]) -> PsdVerdict:
    """Lift a witness for the Schur complement back to original coordinates.

    With M = P*G*P^T split after k processed pivots, a vector u on the
    trailing block extends to w = (-L11^{-T} L21^T u, u), and w^T M w equals
    u^T S u.  Back substitution against the stored unit multipliers does it.
    """
    n = len(perm)
    t = [Fraction(0)] * k
    for i in range(k):
        t[i] = sum(L[j][i] * c for j, c in schur_coeffs.items())
    top = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        top[i] = -t[i] - sum(L[j][i] * top[j] for j in range(i + 1, k))
    w = top + [Fraction(0)] * (n - k)
    for j, c in schur_coeffs.items():
        w[j] = c
    witness = [Fraction(0)] * n
    for pos, orig in enumerate(perm):
        witness[orig] = w[pos]
    G = _as_exact_matrix(matrix)
    value = sum(witness[i] * G[i][j] * witness[j] for i in range(n) for j in range(n))
    return PsdVerdict(False, witness=witness, witness_value=value)


@dataclass
class FloatPsdVerdict:
    """Outcome of the approximate eigenvalue bound (no certificate)."""

    is_psd: bool
    min_eigenvalue: float
    tol: float

    @property
    def outcome(self) -> str:
        return "PSD" if self.is_psd else "NotPSD"


def psd_check_float(matrix, tol: float = 1e-9) -> FloatPsdVerdict:
    """Approximate PSD test: smallest eigenvalue of the symmetrized matrix >= -tol."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if M.size == 0:
        return FloatPsdVerdict(True, 0.0, tol)
    sym = 0.5 * (M + M.T)
    smallest = float(np.linalg.eigvalsh(sym)[0])
    return FloatPsdVerdict(smallest >= -tol, smallest, tol)


def hamburger_check(moments) -> PsdVerdict:
    """Hankel test for a univariate moment list s_0..s_{2N} (odd length).

    The list is PSD as a Hankel matrix exactly when it is a truncated
    moment sequence on the line, which is the positivity criterion the
    one-dimensional fibres reduce to.
    """
    s = [as_fraction(v) for v in moments]
    if len(s) % 2 != 1:
        raise ValueError(f"need an odd number of moments s_0..s_2N, got {len(s)}")
    size = (len(s) + 1) // 2
    hankel = [[s[i + j] for j in range(size)] for i in range(size)]
    return psd_check_exact(hankel)
