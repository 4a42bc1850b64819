"""Search for a positive extension of a partial functional by projections.

The unknown is a moment vector y over keys (epsilon, 2M) with 4M <=
|epsilon| <= 2D; the Gram matrix of the truncated fraction basis is linear
in y (entry (i, j) reads the class gamma_i + gamma_j), and the
well-definedness (reduction-relation) constraints hold by construction of
the class variables.  Each stored value of the input functional (typically
a polynomial moment of degree <= 2N) becomes an affine constraint on y by
cross-multiplying to the top pole order: (gamma, m) pins the expansion of
x^gamma * ||x||^(2(2M - m)).

The iteration alternates between the PSD cone (eigen-projection) and the
affine constraint set (least-squares projection in the Frobenius geometry,
which weights each moment class by its multiplicity in the matrix).  The
alternation runs in averaged-reflection form (Douglas-Rachford), composed
of exactly those two projections; the plain alternation stalls sublinearly
whenever every feasible Gram matrix is singular, which already happens for
moment data of measures with fewer atoms than basis elements.

The problem is preconditioned by a unit-mass, unit-mean-square-radius
rescaling (x -> x/s with s^2 = sum_k L(x_k^2) / L(1), values divided by
L(1)).  The rescaling acts on the Gram matrix as a positive diagonal
congruence, so positivity verdicts transfer exactly; the reported gap is
the cone-to-affine Frobenius distance in these normalized units.

A gap below tol certifies feasibility only in the float sense: the
returned functional satisfies the constraints to linear-algebra accuracy
and its Gram matrix is PSD up to tol.  Hitting the iteration cap is *not*
evidence of infeasibility; the result is reported as unresolved and
callers must treat it that way.  Genuinely inconsistent inputs
(contradictory stored values, L(1) < 0, keys outside the window) are
rejected before iterating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..extalg import Mode
from ..polyalg import Exponent, exponents_of_degree, norm_squared
from .core import (InconsistentFunctionalError, Key, LinearFunctional,
                   MomentWindow, SCALAR_EXACT, SCALAR_FLOAT)
from .psd import FloatPsdVerdict, psd_check_float


@dataclass
class FeasibilityResult:
    feasible: bool
    functional: LinearFunctional | None
    gap: float
    iterations: int
    certificate: FloatPsdVerdict | None
    fixed_key_residual: float | None

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "unresolved"


def extension_feasibility(L: LinearFunctional, pole_order: int, degree: int,
                          max_iters: int = 5000, tol: float = 1e-7) -> FeasibilityResult:
    """Try to complete L to a PSD functional on the (pole_order, degree) window."""
    if L.mode is not Mode.APLUS:
        raise ValueError("feasibility search runs in the bounded-generator mode")
    M, D = pole_order, degree
    if M < 0 or D < 2 * M:
        raise ValueError("need degree >= 2*pole_order >= 0")
    d = L.nvars
    exact = L.scalar_kind == SCALAR_EXACT
    L.validate(0.0 if exact else 1e-9)

    for (gamma, m) in L.values:
        if m > M or sum(gamma) - 2 * m > D - 2 * M:
            raise ValueError(
                f"fixed key (x^{gamma}, pole {m}) lies outside the span of the "
                f"(pole_order={M}, degree={D}) window")

    basis_exps = [e for t in range(2 * M, D + 1) for e in exponents_of_degree(d, t)]
    window = MomentWindow([(e, M) for e in basis_exps])
    classes = [_exponent_at_pole(key, 2 * M) for key in window.classes]
    class_of = np.array(window.class_of)
    counts = np.bincount(class_of.ravel(), minlength=len(classes)).astype(float)

    mass, radius = _normalization(L, d)
    if mass == 0.0:
        functional = _functional_from_top(d, classes, np.zeros(len(classes)), M, D)
        certificate = psd_check_float(np.zeros((len(basis_exps), len(basis_exps))), tol)
        return FeasibilityResult(True, functional, 0.0, 0,
                                 certificate, _fixed_key_residual(functional, L))

    # The constraint coefficients are scale-free: the embedded key (gamma, m)
    # only touches classes with |eps| = |gamma| + 2(2M - m), for which the
    # variable rescaling s^(|eps| - 4M) equals the value rescaling
    # s^(|gamma| - 2m) exactly, so only b needs dividing.
    norm_powers = {t: (norm_squared(d) ** t).terms for t in range(2 * M + 1)}
    rows: dict[tuple, tuple[np.ndarray, float, Key]] = {}
    for (gamma, m), value in L.values.items():
        expansion = norm_powers[2 * M - m]
        row = np.zeros(len(classes))
        signature = []
        for exp, coeff in expansion.items():
            eps = tuple(a + b for a, b in zip(gamma, exp))
            row[window.class_index[MomentWindow.reduce((eps, 2 * M))]] += float(coeff)
            signature.append((eps, coeff))
        sig = tuple(sorted(signature))
        fval = float(value) / (mass * radius ** (sum(gamma) - 2 * m))
        if sig in rows:
            prev_value = rows[sig][1]
            if abs(prev_value - fval) > (0.0 if exact else 1e-9) * max(1.0, abs(fval)):
                raise InconsistentFunctionalError(
                    f"keys {rows[sig][2]} and {(gamma, m)} pin the same moment "
                    f"to {prev_value} and {fval} (normalized units)")
            continue
        rows[sig] = (row, fval, (gamma, m))

    A = np.vstack([r for r, _, _ in rows.values()]) if rows else np.zeros((0, len(classes)))
    b = np.array([v for _, v, _ in rows.values()])

    if len(b):
        y_start, _, *_ = np.linalg.lstsq(A, b, rcond=None)
        misfit = float(np.linalg.norm(A @ y_start - b))
        if misfit > 1e-9 * max(1.0, float(np.linalg.norm(b))):
            raise InconsistentFunctionalError(
                f"stored values admit no common moment vector (misfit {misfit:.3e})")
    else:
        y_start = np.zeros(len(classes))

    w_inv = 1.0 / counts
    if len(b):
        K_pinv = np.linalg.pinv((A * w_inv) @ A.T)
        AT_winv = (A * w_inv).T

        def project_affine(y_vec: np.ndarray) -> np.ndarray:
            return y_vec - AT_winv @ (K_pinv @ (A @ y_vec - b))
    else:
        def project_affine(y_vec: np.ndarray) -> np.ndarray:
            return y_vec

    def affine_matrix(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        means = np.bincount(class_of.ravel(), weights=G.ravel(),
                            minlength=len(classes)) / counts
        y_vec = project_affine(means)
        return y_vec, y_vec[class_of]

    def psd_matrix(G: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(0.5 * (G + G.T))
        return (vecs * np.clip(vals, 0.0, None)) @ vecs.T

    Z = y_start[class_of]
    gap = float("inf")
    iterations = 0
    for iterations in range(1, max_iters + 1):
        y_aff, G_aff = affine_matrix(Z)
        G_psd = psd_matrix(2.0 * G_aff - Z)
        gap = float(np.linalg.norm(G_aff - G_psd))
        if gap <= tol:
            unscale = np.array([mass * radius ** (sum(e) - 4 * M) for e in classes])
            functional = _functional_from_top(d, classes, y_aff * unscale, M, D)
            residual = _fixed_key_residual(functional, L)
            return FeasibilityResult(True, functional, gap, iterations,
                                     psd_check_float(G_aff, tol), residual)
        Z = Z + G_psd - G_aff
    return FeasibilityResult(False, None, gap, max_iters, None, None)


def _exponent_at_pole(key: Key, pole: int) -> Exponent:
    """Exponent of the representative of a window class at the given pole order.

    The window reduces keys only in one variable, where ||x||^2 = x^2, so
    lifting back multiplies by x^2 once per pole order.
    """
    gamma, m = key
    return (gamma[0] + 2 * (pole - m),) + gamma[1:]


def _normalization(L: LinearFunctional, d: int) -> tuple[float, float]:
    """Total mass and root-mean-square radius read from the stored keys.

    Falls back to the largest stored magnitude (mass) and 1.0 (radius) when
    the defining keys are absent; any positive pair keeps the rescaled
    problem equivalent, so the fallbacks only affect conditioning.
    """
    origin: Key = (tuple([0] * d), 0)
    if origin in L.values:
        mass = float(L.values[origin])
    else:
        mass = max((abs(float(v)) for v in L.values.values()), default=0.0)
    if mass == 0.0:
        if any(float(v) != 0.0 for v in L.values.values()):
            raise InconsistentFunctionalError("zero total mass with nonzero moments")
        return 0.0, 1.0
    r2 = 0.0
    seen_all = True
    for k in range(d):
        key = (tuple(2 if i == k else 0 for i in range(d)), 0)
        if key in L.values:
            r2 += float(L.values[key])
        else:
            seen_all = False
    radius = float(np.sqrt(r2 / mass)) if seen_all and r2 > 0 else 1.0
    return mass, radius


def _functional_from_top(d: int, classes: list[Exponent], y: np.ndarray,
                         M: int, D: int) -> LinearFunctional:
    """Fill the shrinking key windows below pole order 2M by downward summation."""
    values: dict[Key, float] = {}
    for eps, value in zip(classes, y):
        values[(eps, 2 * M)] = float(value)
    for m in range(2 * M - 1, -1, -1):
        for t in range(2 * m, 2 * (D - 2 * M) + 2 * m + 1):
            for gamma in exponents_of_degree(d, t):
                total = 0.0
                for k in range(d):
                    lifted = tuple(e + (2 if i == k else 0) for i, e in enumerate(gamma))
                    total += values[(lifted, m + 1)]
                values[(gamma, m)] = total
    return LinearFunctional(d, Mode.APLUS, SCALAR_FLOAT, values,
                            pole_max=2 * M, degree_max=2 * D)


def _fixed_key_residual(result: LinearFunctional, L: LinearFunctional) -> float:
    worst = 0.0
    for key, value in L.values.items():
        scale = max(1.0, abs(float(value)))
        worst = max(worst, abs(result.values[key] - float(value)) / scale)
    return worst
