"""Positive-semidefiniteness checks with reproducible certificates.

The exact route factors a symmetric rational matrix as P*G*P^T = L*D*L^T
with symmetric largest-diagonal pivoting.  The elimination runs on integer
rows: row i of each Schur complement is held as integers over one positive
denominator d[i], a pivot step updates it with one integer
cross-multiplication per entry and divides out the row's gcd, and
Fractions are built only for the certificate's L and D.  A PSD verdict
carries (permutation, unit lower factor, nonnegative diagonal); a NotPSD
verdict carries a rational vector v with v^T*G*v < 0.  Either certificate
is checked back against G by ``PsdVerdict.verify``, which replays it on
integer rows as well.

The float route is a plain eigenvalue bound and certifies nothing; it backs
the approximate feasibility search where exactness is out of reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ..scalars import as_fraction, clear_denominators

# L's zeros and ones, shared rather than built n^2 times.
_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        G, dG = _int_rows(matrix)
        n = len(G)
        if self.is_psd:
            perm, L, D = self.permutation, self.unit_lower, self.diagonal
            if perm is None or L is None or D is None or sorted(perm) != list(range(n)):
                return False
            if not _rational(D) or any(d < 0 for d in D):
                return False
            for i in range(n):
                if not _rational(L[i]) or L[i][i] != 1 \
                        or any(L[i][j] != 0 for j in range(i + 1, n)):
                    return False
            # Replay the elimination in the certificate's order on integer
            # rows of P*G*P^T.  Before step k, rows < k of what is left are
            # zero and row k must read D[k] times column k of L; step k then
            # subtracts D[k] * l_k * l_k^T.  Zero pivots add nothing.
            R = [[G[p][q] for q in perm] for p in perm]
            dR = [dG[p] for p in perm]
            for k in range(n):
                row, num, den = R[k], D[k].numerator * dR[k], D[k].denominator
                for j in range(k, n):
                    entry = L[j][k]
                    if row[j] * den * entry.denominator != num * entry.numerator:
                        return False
                if num:
                    _eliminate(R, dR, k)
            return True
        v = self.witness
        if v is None or len(v) != n or not _rational(v):
            return False
        value = _quadratic_form(G, dG, v)
        return value == self.witness_value and value < 0


def _rational(values) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in values)


def _int_rows(matrix) -> tuple[list[list[int]], list[int]]:
    """A square symmetric rational matrix as integer rows: G[i][j] = N[i][j] / d[i].

    Entries are coerced with ``as_fraction`` (floats refused); d[i] > 0 is
    the lcm of row i's denominators.
    """
    rows = [[as_fraction(entry) for entry in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    N, d = [], []
    for row in rows:
        ints, den = clear_denominators(row)
        N.append(ints)
        d.append(den)
    for i in range(n):
        N_i, d_i = N[i], d[i]
        for j in range(i + 1, n):
            if N_i[j] * d[j] != N[j][i] * d_i:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
    return N, d


def psd_check_exact(matrix) -> PsdVerdict:
    """Exact PSD decision for a symmetric rational matrix.

    Entries may be ints, Fractions or "p/q" strings; floats are refused so
    the exact path cannot silently degrade.
    """
    G, dG = _int_rows(matrix)
    n = len(G)
    N, d = [row[:] for row in G], dG[:]  # G stays for the witness value
    perm = list(range(n))
    L = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    D = [_ZERO] * n
    for k in range(n):
        # First argmax of the Schur diagonal N[i][i] / d[i], with every d[i] > 0.
        p = k
        for i in range(k + 1, n):
            if N[i][i] * d[p] > N[p][p] * d[i]:
                p = i
        if N[p][p] <= 0:
            # No positive diagonal left in the Schur complement.  Every d[i]
            # is positive, so the integers carry the entries' signs.
            for j in range(k, n):
                if N[j][j] < 0:
                    return _not_psd(G, dG, L, perm, k, {j: _ONE})
            for i in range(k, n):
                for j in range(i + 1, n):
                    if N[i][j] != 0:
                        sign = _ONE if N[i][j] > 0 else -_ONE
                        return _not_psd(G, dG, L, perm, k, {i: _ONE, j: -sign})
            break  # Schur complement is identically zero: remaining D entries stay 0.
        _swap(N, d, L, perm, k, p)
        pivot, d_k = N[k][k], d[k]
        D[k] = Fraction(pivot, d_k)
        for i in range(k + 1, n):
            if N[i][k]:
                L[i][k] = Fraction(N[i][k] * d_k, d[i] * pivot)
        _eliminate(N, d, k)
    return PsdVerdict(True, permutation=perm, unit_lower=L, diagonal=D)


def _eliminate(N: list[list[int]], d: list[int], k: int) -> None:
    """One Schur step on integer rows (row i holds N[i][j] / d[i]), in place.

    Every row i > k with N[i][k] != 0 loses N[i][k] / N[k][k] times row k
    on the columns after k; the two denominators d[k] cancel, so column j
    becomes pivot*N[i][j] - N[i][k]*N[k][j] over d[i]*pivot, and the row's
    gcd with that denominator is divided out.  Rows with a zero in column k
    are left as they are, as are the dead columns <= k.
    """
    pivot, tail = N[k][k], N[k][k + 1:]
    for i in range(k + 1, len(N)):
        row = N[i]
        a = row[k]
        if a == 0:
            continue
        live = [pivot * x - a * y for x, y in zip(row[k + 1:], tail)]
        den = d[i] * pivot
        g = gcd(den, *live)
        if g != 1:
            live = [x // g for x in live]
            den //= g
        row[k + 1:] = live
        d[i] = den


def _swap(N, d, L, perm, k, p) -> None:
    if k == p:
        return
    perm[k], perm[p] = perm[p], perm[k]
    N[k], N[p] = N[p], N[k]
    d[k], d[p] = d[p], d[k]
    for row in N[k:]:  # rows before k are finished pivot rows
        row[k], row[p] = row[p], row[k]
    for j in range(k):
        L[k][j], L[p][j] = L[p][j], L[k][j]


def _quadratic_form(G: list[list[int]], dG: list[int], v) -> Fraction:
    """v^T * G * v for G in integer rows, with one Fraction at the end."""
    a, q = clear_denominators(v)
    support = [i for i in range(len(a)) if a[i]]
    m = lcm(*[dG[i] for i in support])
    total = 0
    for i in support:
        G_row = G[i]
        total += a[i] * (m // dG[i]) * sum(G_row[j] * a[j] for j in support)
    return Fraction(total, m * q * q)


def _not_psd(G, dG, L, perm, k, schur_coeffs: dict[int, Fraction]) -> PsdVerdict:
    """Lift a witness for the Schur complement back to original coordinates.

    With M = P*G*P^T split after k processed pivots, a vector u on the
    trailing block extends to w = (-L11^{-T} L21^T u, u), and w^T M w equals
    u^T S u.  Back substitution against the stored unit multipliers does it.
    """
    n = len(perm)
    t = [sum(L[j][i] * c for j, c in schur_coeffs.items()) for i in range(k)]
    top = [_ZERO] * k
    for i in range(k - 1, -1, -1):
        top[i] = -t[i] - sum(L[j][i] * top[j] for j in range(i + 1, k))
    w = top + [_ZERO] * (n - k)
    for j, c in schur_coeffs.items():
        w[j] = c
    witness = [_ZERO] * n
    for pos, orig in enumerate(perm):
        witness[orig] = w[pos]
    return PsdVerdict(False, witness=witness, witness_value=_quadratic_form(G, dG, witness))


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
    import numpy as np

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
