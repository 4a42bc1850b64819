"""Recover an atomic measure from a truncated polynomial moment functional.

Pipeline: assemble the moment matrix on monomials of degree <= N, decide
its numerical rank from the singular values, build per-variable shift
operators on a pivot-monomial basis of the column space, diagonalize a
seeded random combination of the shifts, read atom coordinates off the
diagonalized shifts, solve a Vandermonde system for the weights, and
finally replay the recovered moments against the input.

Rank decisions refuse to guess: a singular value inside the ambiguity band
around rank_tol, or a threshold finer than what float SVD can resolve,
raises IndeterminateRankError instead of picking a side.  Any later
breakdown (missing flatness, negative weights, moment mismatch) raises
RecoveryFailedError with the offending residual; no silently wrong measure
is returned.
"""

from __future__ import annotations

import numpy as np

from ..polyalg import Exponent, exponents_up_to_degree
from .core import DiscreteMeasure, LinearFunctional, MomentWindow


class IndeterminateRankError(RuntimeError):
    """The singular spectrum does not support a clean rank decision."""

    def __init__(self, message: str, singular_values, band: tuple[float, float]):
        super().__init__(message)
        self.singular_values = list(map(float, singular_values))
        self.band = band


class RecoveryFailedError(RuntimeError):
    """Recovery ran but could not produce a moment-matching measure."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def recover_atoms(L: LinearFunctional, dim: int, degree: int,
                  rank_tol: float = 1e-8, seed: int = 0,
                  residual_tol: float = 1e-8) -> DiscreteMeasure:
    """Atomic measure (float data) whose moments up to 2*degree match L."""
    if dim != L.nvars:
        raise ValueError(f"functional has {L.nvars} variables, expected {dim}")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    monos = exponents_up_to_degree(dim, degree)
    index = {m: i for i, m in enumerate(monos)}
    size = len(monos)
    M = _moment_matrix(L, monos)

    U, sigma, _ = np.linalg.svd(M)
    scale = float(sigma[0]) if size else 0.0
    if scale == 0.0:
        return DiscreteMeasure(dim, (), 0.0, ())
    lo, hi = rank_tol * scale / 10.0, rank_tol * scale * 10.0
    resolution = 8.0 * size * np.finfo(float).eps * scale
    in_band = [float(s) for s in sigma if lo <= s <= hi]
    if in_band:
        raise IndeterminateRankError(
            f"singular values {in_band} fall in the ambiguity band [{lo:.3e}, {hi:.3e}]",
            sigma, (lo, hi))
    if lo < resolution and any(s <= hi for s in sigma):
        raise IndeterminateRankError(
            f"rank threshold {rank_tol:.3e} is below the float resolution "
            f"{resolution / scale:.3e} relative to the leading singular value; "
            "trailing singular values cannot be classified", sigma, (lo, hi))
    rank = int(sum(1 for s in sigma if s > hi))

    W = U[:, :rank]
    pivots = _greedy_pivots(W, rank)
    if pivots is None:
        raise RecoveryFailedError("column space admits no pivot-monomial basis")
    if any(sum(monos[p]) > degree - 1 for p in pivots):
        raise RecoveryFailedError(
            "moment matrix is not flat: a pivot monomial sits at the top degree, "
            "so the shift operators leave the window")
    What = W @ np.linalg.inv(W[pivots, :])

    shifts = []
    for var in range(dim):
        rows = []
        for p in pivots:
            shifted = tuple(e + (1 if i == var else 0) for i, e in enumerate(monos[p]))
            rows.append(What[index[shifted], :])
        shifts.append(np.vstack(rows))

    rng = np.random.default_rng(seed)
    combo = rng.standard_normal(dim)
    combo /= np.linalg.norm(combo)
    _, S = np.linalg.eig(sum(c * Ni for c, Ni in zip(combo, shifts)))
    coords = np.empty((rank, dim))
    for var in range(dim):
        diag = np.diag(np.linalg.solve(S, shifts[var] @ S))
        coords[:, var] = diag.real

    vander = np.empty((size, rank))
    for i, a in enumerate(monos):
        vander[i, :] = np.prod(coords ** np.asarray(a, dtype=float), axis=1)
    target = np.array([float(L.value(m)) for m in monos])
    weights, *_ = np.linalg.lstsq(vander, target, rcond=None)

    coord_scale = max(1.0, float(np.max(np.abs(coords))) if rank else 1.0)
    atoms = []
    origin = 0.0
    weight_floor = residual_tol * max(1.0, float(np.max(np.abs(target))))
    for t in range(rank):
        w = float(weights[t])
        point = tuple(float(c) for c in coords[t])
        if abs(w) <= weight_floor:
            continue
        if w < 0:
            raise RecoveryFailedError(f"recovered weight {w} is negative", residual=abs(w))
        if float(np.linalg.norm(point)) <= 1e-9 * coord_scale:
            origin += w
            continue
        atoms.append((w, point))
    measure = DiscreteMeasure(dim, tuple(atoms), max(origin, 0.0), ())

    residual = polynomial_moment_residual(measure, L, 2 * degree)
    moment_scale = max(1.0, float(np.max(np.abs(target))))
    if residual > residual_tol * moment_scale:
        raise RecoveryFailedError(
            f"recovered measure misses the input moments by {residual:.3e}",
            residual=residual)
    return measure


def _moment_matrix(L: LinearFunctional, monos: list[Exponent]) -> np.ndarray:
    """M[i][j] = L(x^(a_i + a_j)) as floats, read from the stored keys only."""
    window = MomentWindow([(a, 0) for a in monos])
    return np.array(window.matrix(lambda key: float(L.value(*key))))


def _greedy_pivots(W: np.ndarray, rank: int) -> list[int] | None:
    """First rows of W, in order, spanning its row space (None if short)."""
    pivots: list[int] = []
    basis: list[np.ndarray] = []
    for idx in range(W.shape[0]):
        v = W[idx].astype(float).copy()
        for b in basis:
            v -= (b @ W[idx]) * b
        norm = float(np.linalg.norm(v))
        if norm > 1e-9:
            pivots.append(idx)
            basis.append(v / norm)
            if len(pivots) == rank:
                return pivots
    return None


def measure_moment_float(measure: DiscreteMeasure, gamma: Exponent) -> float:
    """Float integral of x^gamma against point atoms plus origin mass."""
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


def polynomial_moment_residual(measure: DiscreteMeasure, L: LinearFunctional,
                               max_degree: int) -> float:
    """Largest absolute gap between measure moments and L, degree <= max_degree."""
    worst = 0.0
    for gamma in exponents_up_to_degree(L.nvars, max_degree):
        gap = abs(measure_moment_float(measure, gamma) - float(L.value(gamma)))
        worst = max(worst, gap)
    return worst
