"""Positive-semidefiniteness checks with reproducible certificates.

The exact route factors a symmetric rational matrix as P*G*P^T = L*D*L^T
with symmetric largest-diagonal pivoting.  One elimination has two entry
points: ``psd_check_exact`` takes the matrix and clears it entry by entry
(``_int_rows``); ``psd_check_cleared`` takes it already cleared, as
(N, delta) with G = N / delta, which ``MomentWindow.cleared`` builds from
one reduced pair per moment class; every exact moment matrix of the program,
the ``psd-check`` Gram matrix included, takes that entry.  Both refuse an
asymmetric N, as ``verify`` refuses an asymmetric matrix.  The elimination
holds each Schur
complement as one symmetric integer matrix N over one common denominator
delta > 0 and touches only its upper triangle: a pivot step sets N[i][j]
to pivot*N[i][j] - N[k][i]*N[k][j] and delta to delta*pivot, then divides
all of them by their gcd, so every Schur complement is in lowest terms.
Fractions are built only for the certificate's L and D.  A PSD verdict
carries (permutation, unit lower factor, nonnegative diagonal); a NotPSD
verdict carries a rational vector v with v^T*G*v < 0, lifted from the
Schur complement by integer back-substitution.  Either certificate is
checked back against G by ``PsdVerdict.verify``, which replays it on the
same kernel.

The float route is a plain eigenvalue bound and certifies nothing; it backs
the approximate feasibility search where exactness is out of reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ..scalars import as_fraction, as_pair, clear_denominators, is_exact_scalar

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
        G, delta = _int_rows(matrix)
        check_symmetric(G)
        n = len(G)
        if self.is_psd:
            perm, L, D = self.permutation, self.unit_lower, self.diagonal
            if perm is None or L is None or D is None or len(D) != n or len(L) != n \
                    or any(type(p) is not int for p in perm) or sorted(perm) != list(range(n)):
                return False
            if not all(map(is_exact_scalar, D)) or any(d < 0 for d in D):
                return False
            for i in range(n):
                if len(L[i]) != n or not all(map(is_exact_scalar, L[i])) or L[i][i] != 1 \
                        or any(L[i][j] != 0 for j in range(i + 1, n)):
                    return False
            # Replay the elimination in the certificate's order on P*G*P^T.
            # Before step k, row k of what is left must read D[k] times
            # column k of L; step k then subtracts D[k] * l_k * l_k^T.  Zero
            # pivots add nothing.
            R = [[G[p][q] for q in perm] for p in perm]
            for k in range(n):
                row, num, den = R[k], D[k].numerator * delta, D[k].denominator
                for j in range(k, n):
                    entry = L[j][k]
                    if row[j] * den * entry.denominator != num * entry.numerator:
                        return False
                if num:
                    delta = _schur_step(R, delta, k)
            return True
        v = self.witness
        if v is None or len(v) != n or not all(map(is_exact_scalar, v)):
            return False
        value = _quadratic_form(G, delta, *clear_denominators(v))
        return value == self.witness_value and value < 0


def _int_rows(matrix) -> tuple[list[list[int]], int]:
    """A square rational matrix as integers N over one denominator.

    Entries are coerced with ``as_fraction`` (floats refused) and cleared
    by ``clear_denominators``: delta > 0 is the least common multiple of
    their denominators, so G = N / delta with N in lowest terms.
    """
    rows = [[as_fraction(entry) for entry in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    flat, delta = clear_denominators([x for row in rows for x in row])
    return [flat[i * n:(i + 1) * n] for i in range(n)], delta


def check_symmetric(N: list[list[int]]) -> None:
    """Raise ValueError at the first (i, j), i < j, row by row, where N is not symmetric."""
    if N == [list(column) for column in zip(*N)]:
        return
    for i, N_i in enumerate(N):
        for j in range(i + 1, len(N)):
            if N_i[j] != N[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")


def psd_check_exact(matrix) -> PsdVerdict:
    """Exact PSD decision for a symmetric rational matrix.

    Entries may be ints, Fractions or "p/q" strings; floats are refused so
    the exact path cannot silently degrade.
    """
    return psd_check_cleared(*_int_rows(matrix))


def psd_check_cleared(G: list[list[int]], dG: int) -> PsdVerdict:
    """Exact PSD decision for G / dG: G a square integer matrix and dG > 0,
    as ``_int_rows`` and ``MomentWindow.cleared`` return them.  An
    asymmetric G raises ValueError; G is left as it is."""
    check_symmetric(G)
    n = len(G)
    N, delta = [row[:] for row in G], dG  # G / dG stays for the witness value
    perm = list(range(n))
    L = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    D = [_ZERO] * n
    for k in range(n):
        # First argmax of the Schur diagonal, all of it over delta > 0.
        p = k
        for i in range(k + 1, n):
            if N[i][i] > N[p][p]:
                p = i
        if N[p][p] <= 0:
            # No positive diagonal left; delta > 0, so the integers carry the signs.
            for j in range(k, n):
                if N[j][j] < 0:
                    return _not_psd(G, dG, L, perm, k, {j: 1})
            for i in range(k, n):
                for j in range(i + 1, n):
                    if N[i][j] != 0:
                        return _not_psd(G, dG, L, perm, k,
                                        {i: 1, j: -1 if N[i][j] > 0 else 1})
            break  # Schur complement is identically zero: remaining D entries stay 0.
        _exchange(N, L, perm, k, p)
        top, pivot = N[k], N[k][k]
        D[k] = Fraction(pivot, delta)
        for i in range(k + 1, n):
            if top[i]:
                L[i][k] = Fraction(top[i], pivot)
        delta = _schur_step(N, delta, k)
    return PsdVerdict(True, permutation=perm, unit_lower=L, diagonal=D)


def _schur_step(N: list[list[int]], delta: int, k: int) -> int:
    """One pivot step on the upper triangle of N / delta, in place; returns the new delta.

    Each entry k < i <= j becomes pivot*N[i][j] - N[k][i]*N[k][j] over
    delta*pivot; a row whose pivot-column entry N[k][i] is zero is only
    scaled by the pivot.  All of them and the new denominator are then
    divided by their gcd.  Rows <= k and the lower triangle are left as
    they are.
    """
    top, rows = N[k], range(k + 1, len(N))
    pivot = top[k]
    delta *= pivot
    for i in rows:
        row, a = N[i], top[i]
        if a:
            row[i:] = [pivot * x - a * y for x, y in zip(row[i:], top[i:])]
        else:
            row[i:] = [pivot * x for x in row[i:]]
    # The gcd with the new diagonal and first live row has been that of every
    # entry on the benchmark's matrices; one divmod per entry confirms or shrinks it.
    g = gcd(delta, *[N[i][i] for i in rows], *N[k + 1][k + 2:]) if rows else delta
    for i in rows:
        if g == 1:
            break
        part = [divmod(x, g) for x in N[i][i:]]
        h = gcd(g, *[r for _, r in part if r])
        if h != g:  # rows before i hold x // g exactly, and x // h = (x // g) * (g // h)
            for j in range(k + 1, i):
                N[j][j:] = [q * (g // h) for q in N[j][j:]]
            part, g = [divmod(x, h) for x in N[i][i:]], h
        N[i][i:] = [q for q, _ in part]
    return delta // g


def _exchange(N, L, perm, k, p) -> None:
    """Symmetric exchange of indices k < p on the upper triangle of N."""
    if k == p:
        return
    perm[k], perm[p] = perm[p], perm[k]
    N_k, N_p = N[k], N[p]
    N_k[k], N_p[p] = N_p[p], N_k[k]
    N_k[p + 1:], N_p[p + 1:] = N_p[p + 1:], N_k[p + 1:]
    for j in range(k + 1, p):
        N_j = N[j]
        N_k[j], N_j[p] = N_j[p], N_k[j]
    L[k][:k], L[p][:k] = L[p][:k], L[k][:k]


def _quadratic_form(G: list[list[int]], delta: int, a: list[int], q: int) -> Fraction:
    """v^T * (G / delta) * v for v = a / q, with one Fraction at the end."""
    support = [i for i in range(len(a)) if a[i]]
    total = sum(a[i] * sum(G[i][j] * a[j] for j in support) for i in support)
    return Fraction(total, delta * q * q)


def _not_psd(G, delta, L, perm, k, schur_coeffs: dict[int, int]) -> PsdVerdict:
    """Lift a witness for the Schur complement back to original coordinates.

    With M = P*G*P^T split after k processed pivots, a vector u on the
    trailing block extends to w with w_i = -sum_{j>i} L[j][i]*w_j for i < k,
    and w^T M w equals u^T S u.  The back substitution runs on integers w/q
    kept in lowest terms: if step i needs the common denominator m of its
    multipliers, the entries so far are scaled by m over gcd(m, new entry).
    """
    n = len(perm)
    w, q = [schur_coeffs.get(j, 0) for j in range(n)], 1
    for i in range(k - 1, -1, -1):
        support = [j for j in range(i + 1, n) if w[j] and L[j][i]]
        multipliers, m = clear_denominators([L[j][i] for j in support])
        s = -sum(x * w[j] for x, j in zip(multipliers, support))
        g = gcd(m, s)
        if m != g:
            w = [c * (m // g) for c in w]
            q *= m // g
        w[i] = s // g
    a = [0] * n
    for pos, orig in enumerate(perm):
        a[orig] = w[pos]
    witness = [Fraction(x, q) if x else _ZERO for x in a]
    return PsdVerdict(False, witness=witness, witness_value=_quadratic_form(G, delta, a, q))


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
    from .core import MomentWindow  # the algebra layers load only for the Hankel test

    s = [as_pair(v) for v in moments]
    if len(s) % 2 != 1:
        raise ValueError(f"need an odd number of moments s_0..s_2N, got {len(s)}")
    window = MomentWindow([((i,), 0) for i in range((len(s) + 1) // 2)])
    return psd_check_cleared(*window.cleared(lambda key: s[key[0][0]]))
