"""Complex moment sequences on semigroups of monomials z^m * conj(z)^n.

Three index semigroups share the product (m,n)+(m',n') and the involution
(m,n) -> (n,m):

* ``N02``:   m, n >= 0, the classical complex moment problem;
* ``NPLUS``: m + n >= 0, where z^m * conj(z)^n is still defined on all of
  the complex plane punctured at 0 and bounded near 0 after clearing;
* ``Z2``:    all integer pairs, the Laurent case.

``sg_to_functions`` translates an index pair into the real picture: with
z = x1 + i*x2 and ||x||^2 = z * conj(z), the function z^m * conj(z)^n
equals (x1+i*x2)^(m+c) * (x1-i*x2)^(n+c) / ||x||^(2c) with c = max(0,-m,-n),
and splits into real and imaginary elements of the fraction algebras.  The
NPLUS image lands in the bounded-generator algebra; Z2 lands in the Laurent
algebra, where the inversion x -> x/||x||^2 acts as a *-automorphism
exchanging x_j with y_j = x_j/||x||^2.

Both directions between (x1, x2) and (z, conj z) go through one closed-form
helper, ``_binomial_expansion`` of (X + i^s*Y)^p * (X + i^t*Y)^q, whose
Gaussian integer coefficients come as (re, im) int pairs: s=1, t=3 on
(x1, x2) for ``sg_to_functions``, s=0, t=2 on (z, conj z) for the
polynomial moments that atom recovery reads.  GaussianRational is a plain
exact value, read as its (re, im) parts: no exact path here does complex
arithmetic on it.  The exact plane ``DiscreteMeasure`` on C = R^2 is the
only exact form of complex atomic data.  Its moments s(m, n) come from
``sequence_from_measure``, the integer-table twin of ``core._moment_table``:
each atom is cleared once to (a + ib)/q, and each entry is one integer
Gaussian dot product over the atoms' powers of a + ib and two Fractions.

Positivity of a sequence is positivity of its Hermitian moment matrices
s(u* v).  The exact check reads the real symmetric block matrix
[[Re, -Im], [Im, Re]] directly as a ``MomentWindow``: the key ((m, n, p), 0)
encodes row u = (m, n) in block p, so each entry is one class read.  The
pipelines hand the exact kernel ``MomentWindow.cleared``, each class value
cleared once; the rational LDL^T certificates replay against the matrix
``hermitian_embedding``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .extalg import AElement, Mode, a_normalize, embed_poly, norm_inverse_generator
from .functionals.core import (DiscreteMeasure, LinearFunctional, MomentWindow,
                               SCALAR_EXACT, extend_from_measure)
from .functionals.psd import PsdVerdict, psd_check_cleared
from .functionals.recovery import (IndeterminateRankError, RecoveryFailedError,
                                   recover_atoms)
from .polyalg import (Poly, exponents_of_degree, integer_divide_out,
                      integer_norm_squared_power, integer_product, integer_terms)
from .scalars import GaussianRational, clear_denominators


class SgDomain(enum.Enum):
    N02 = "N02"
    NPLUS = "Nplus"
    Z2 = "Z2"


def _domain_allows(domain: SgDomain, m: int, n: int) -> bool:
    if domain is SgDomain.N02:
        return m >= 0 and n >= 0
    if domain is SgDomain.NPLUS:
        return m + n >= 0
    return True


@dataclass(frozen=True)
class SgElement:
    """An index pair in one of the three semigroups."""

    m: int
    n: int
    domain: SgDomain

    def __post_init__(self) -> None:
        if not _domain_allows(self.domain, self.m, self.n):
            raise ValueError(f"({self.m},{self.n}) lies outside {self.domain.value}")

    def __mul__(self, other: "SgElement") -> "SgElement":
        return sg_product(self, other)

    @property
    def star(self) -> "SgElement":
        return sg_involution(self)


def sg_product(u: SgElement, v: SgElement) -> SgElement:
    if u.domain is not v.domain:
        raise ValueError("cannot multiply elements of different semigroups")
    return SgElement(u.m + v.m, u.n + v.n, u.domain)


def sg_involution(u: SgElement) -> SgElement:
    return SgElement(u.n, u.m, u.domain)


def box_window(radius: int, domain: SgDomain) -> list[SgElement]:
    """All domain elements with |m|, |n| <= radius, ordered by (m, n)."""
    out = []
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            if _domain_allows(domain, m, n):
                out.append(SgElement(m, n, domain))
    return out


class MissingMomentError(KeyError):
    def __init__(self, m: int, n: int):
        self.index = (m, n)
        super().__init__(f"sequence has no entry at ({m},{n})")


@dataclass
class HermitianSequence:
    """Exact moment data s(m,n) on a window of semigroup indices.

    Every entry is a GaussianRational; any other value is refused.
    ``hermitian_violations`` audits the Hermitian symmetry
    s(n,m) = conj(s(m,n)) wherever both indices are stored.
    """

    domain: SgDomain
    entries: dict[tuple[int, int], GaussianRational]

    def __post_init__(self) -> None:
        for (m, n), value in self.entries.items():
            if not _domain_allows(self.domain, m, n):
                raise ValueError(f"entry ({m},{n}) lies outside {self.domain.value}")
            if not isinstance(value, GaussianRational):
                raise ValueError(f"entry ({m},{n}) = {value!r} is not a GaussianRational")

    def value(self, m: int, n: int) -> GaussianRational:
        try:
            return self.entries[(m, n)]
        except KeyError:
            raise MissingMomentError(m, n) from None

    def hermitian_violations(self) -> list[tuple[int, int]]:
        bad = []
        for (m, n), value in self.entries.items():
            partner = self.entries.get((n, m))
            if partner is not None and (partner.re != value.re or partner.im != -value.im):
                bad.append((m, n))
        return bad

    def window_symmetric(self) -> bool:
        return all((n, m) in self.entries for (m, n) in self.entries)


def _embedded_window(window: list[SgElement]) -> MomentWindow:
    """Classes of the real embedding [[Re, -Im], [Im, Re]] of s(u_i* u_j).

    Row and column (u, p) get the key ((m, n, p), 0), all p = 0 (the real
    block) before all p = 1 (the imaginary one).  Under the additive,
    involutive star ((m, n, p), 0) -> ((n, m, -p), 0), entry ((u, p), (v, q))
    has the class ((m', n', q - p), 0) with (m', n') the index of u* v.
    """
    return MomentWindow([((u.m, u.n, p), 0) for p in (0, 1) for u in window],
                        star=lambda key: ((key[0][1], key[0][0], -key[0][2]), 0))


def _embedded_value(seq: HermitianSequence, key) -> Fraction:
    """Re(i^d * s(m, n)) for the class ((m, n, d), 0): re, -im or im for d = 0, 1, -1."""
    (m, n, d), _ = key
    z = seq.value(m, n)
    return (z.re, -z.im, z.im)[d]


def hermitian_embedding(seq: HermitianSequence, window: list[SgElement]) -> list[list[Fraction]]:
    """Real symmetric [[Re, -Im], [Im, Re]] of M[i][j] = s(u_i* u_j), one read
    per class.  It is symmetric exactly when M is Hermitian; a missing entry
    raises MissingMomentError at the first index a row-major build of M meets."""
    for u in window:
        if u.domain is not seq.domain:
            raise ValueError("window domain does not match the sequence")
    return _embedded_window(window).matrix(lambda key: _embedded_value(seq, key))


# -- translation to the function algebras -----------------------------------


def _binomial_expansion(p: int, q: int, s: int, t: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Coefficients of (X + i^s*Y)^p * (X + i^t*Y)^q, keyed by (deg X, deg Y).

    Choosing Y from j of the first p factors and k of the last q gives the
    integer C(p,j)*C(q,k) in quarter-turn class (s*j + t*k) mod 4 of the
    monomial X^(p+q-j-k) Y^(j+k); the four classes c of a monomial make the
    Gaussian integer coefficient (c0 - c2) + (c1 - c3)*i, given as the int
    pair (re, im).  Every monomial of total degree p+q is keyed, including
    those whose coefficient cancels to zero.
    """
    classes = [[0, 0, 0, 0] for _ in range(p + q + 1)]
    for j in range(p + 1):
        cj = comb(p, j)
        for k in range(q + 1):
            classes[j + k][(s * j + t * k) % 4] += cj * comb(q, k)
    return {(p + q - d, d): (c[0] - c[2], c[1] - c[3]) for d, c in enumerate(classes)}


def sg_to_functions(u: SgElement) -> tuple[AElement, AElement]:
    """Real and imaginary parts of z^m * conj(z)^n as fraction elements.

    Poles are cleared through z * conj(z) = ||x||^2: with c = max(0,-m,-n)
    the function equals (x1+ix2)^(m+c) (x1-ix2)^(n+c) / ||x||^(2c).  N02 and
    NPLUS indices land in the bounded-generator algebra, Z2 indices in the
    Laurent algebra.
    """
    c = max(0, -u.m, -u.n)
    mode = Mode.LAURENT if u.domain is SgDomain.Z2 else Mode.APLUS
    expansion = _binomial_expansion(u.m + c, u.n + c, 1, 3)
    re_part = Poly._over(2, {exp: re for exp, (re, _) in expansion.items() if re}, 1)
    im_part = Poly._over(2, {exp: im for exp, (_, im) in expansion.items() if im}, 1)
    return a_normalize(re_part, c, mode), a_normalize(im_part, c, mode)


def sequence_from_measure(measure: DiscreteMeasure,
                          window: list[SgElement]) -> HermitianSequence:
    """Exact s(m,n) = integral of z^m * conj(z)^n, z = x1 + i*x2, over the window.

    The measure is exact, on R^2 = C, without directions.  Its origin mass is
    an atom at 0, refused on windows with negative powers (0^0 = 1 at (0,0)).

    The integer-table twin of ``core._moment_table``: an atom z = (a + ib)/q
    (q the lcm of its coordinates' denominators, N = a^2 + b^2) adds
    w * g^(m+c) * conj(g^(n+c)) / (q^(m+n) * N^c) with g = a + ib and
    c = max(0, -m, -n), from one table of Gaussian integer powers g^e per
    atom.  Per (m + n, c) the atoms' scales share one denominator, so an
    entry is one integer Gaussian dot product and two Fractions.  An atom
    at 0 is g = 0 with q = 1 and N = 0; it meets only c = 0, where
    0^0 = 1 keeps the value at (0,0).
    """
    if measure.dim != 2 or measure.sphere_atoms:
        raise ValueError("semigroup pipelines need a plain dim-2 measure")
    if not measure.is_exact():
        raise ValueError("semigroup pipelines need exact rational measures")
    if not window:
        raise ValueError("window must be nonempty")
    domain = window[0].domain
    if any(u.domain is not domain for u in window):
        raise ValueError("window mixes semigroup domains")
    rows = []
    for weight, point in measure.atoms:
        (a, b), q = clear_denominators(point)
        rows.append((weight, q, a * a + b * b, a, b))
    if measure.origin_mass:
        if min(0, *(min(u.m, u.n) for u in window)) < 0:
            raise ValueError("an atom at 0 has no moments at negative powers")
        rows.append((measure.origin_mass, 1, 0, 0, 0))
    top = max(max(u.m, u.n) + max(0, -u.m, -u.n) for u in window)
    tables = []  # tables[i][e] = (Re, Im) of (a_i + i*b_i)^e
    for *_, a, b in rows:
        table = [(1, 0)]
        for _ in range(top):
            re, im = table[-1]
            table.append((re * a - im * b, re * b + im * a))
        tables.append(table)
    groups: dict[tuple[int, int], tuple[list[int], int]] = {}
    entries = {}
    for u in window:
        m, n = u.m, u.n
        c = max(0, -m, -n)
        group = groups.get((m + n, c))
        if group is None:
            group = groups[(m + n, c)] = clear_denominators(
                [w * Fraction(q) ** -(m + n) / norm ** c for w, q, norm, _, _ in rows])
        scales, den = group
        re = im = 0
        for k, table in zip(scales, tables):
            xr, xi = table[m + c]
            yr, yi = table[n + c]
            re += k * (xr * yr + xi * yi)
            im += k * (xi * yr - xr * yi)
        entries[(m, n)] = GaussianRational(Fraction(re, den), Fraction(im, den))
    return HermitianSequence(domain, entries)


def sequence_residual_float(atoms, origin_mass: float,
                            seq: HermitianSequence) -> float:
    """Largest |s_hat - s| over the stored window, for float (w, z) atom lists."""
    worst = 0.0
    for (m, n), value in seq.entries.items():
        total = 0.0 + 0.0j
        for weight, z in atoms:
            total = total + weight * (z ** m) * (z.conjugate() ** n)
        if m == 0 and n == 0:
            total += origin_mass
        worst = max(worst, abs(total - complex(value)))
    return worst


# -- pipeline: positive extension to the half-plane semigroup ----------------


@dataclass
class NplusExtensionReport:
    """Three-way audit of extending N02 moment data to the NPLUS window."""

    restriction_ok: bool
    restriction_mismatches: list[tuple[int, int]]
    psd: PsdVerdict
    cross_path_ok: bool
    cross_path_mismatches: list[tuple[int, int]]

    @property
    def passed(self) -> bool:
        return self.restriction_ok and self.psd.is_psd and self.cross_path_ok


def nplus_extension_check(s: HermitianSequence, measure: DiscreteMeasure,
                          window: list[SgElement] | None = None) -> NplusExtensionReport:
    """Extend the moment sequence of the plane measure to NPLUS and audit it.

    Checks, in order: the extension restricts back to s on s's own window;
    the extended moment matrix over the window is PSD (exact certificate);
    and independently of the semigroup route, each extended entry agrees
    with the positive functional extend_from_measure produces on the real
    side, applied to the translated index functions.  An empty window is
    refused before any of them, as ``sequence_from_measure`` refuses it, and
    so is mass at the origin, whatever the window.
    """
    if window is None:
        window = box_window(3, SgDomain.NPLUS)
    if not window:
        raise ValueError("window must be nonempty")
    if s.domain is not SgDomain.N02:
        raise ValueError("the input sequence must live on the quarter-plane indices")
    if any(u.domain is not SgDomain.NPLUS for u in window):
        raise ValueError("window domain does not match the sequence")
    if measure.origin_mass != 0:
        raise ValueError("atoms at 0 cannot feed the punctured-plane extension")
    moment_window = _embedded_window(window)
    closure_keys = {(u.m, u.n) for u in window} | {g[:2] for g, _ in moment_window.classes}
    target_keys = sorted(closure_keys | set(s.entries.keys()))
    target = [SgElement(m, n, SgDomain.NPLUS) for (m, n) in target_keys]
    extended = sequence_from_measure(measure, target)

    mismatches = [key for key, value in s.entries.items()
                  if extended.entries[key] != value]
    restriction_ok = not mismatches

    psd = psd_check_cleared(*moment_window.cleared(lambda key: _embedded_value(extended, key)))

    # The translated targets read keys up to pole P and degree T; the
    # window (p, D) stores every key up to pole 2p >= P and degree 2D >= T.
    pole = max(max(0, -m, -n) for (m, n) in target_keys)
    top_degree = max(m + n + 2 * max(0, -m, -n) for (m, n) in target_keys)
    half_pole = (pole + 1) // 2
    L = extend_from_measure(measure, half_pole, max(2 * half_pole, (top_degree + 1) // 2))
    cross_bad = []
    for (m, n) in target_keys:
        re_part, im_part = sg_to_functions(SgElement(m, n, SgDomain.NPLUS))
        value = extended.entries[(m, n)]
        if L.apply(re_part) != value.re or L.apply(im_part) != value.im:
            cross_bad.append((m, n))
    return NplusExtensionReport(restriction_ok, sorted(mismatches), psd,
                                not cross_bad, cross_bad)


# -- pipeline: Laurent sequences on the punctured plane ----------------------


@dataclass
class BisgaardReport:
    """Audit of a Laurent moment sequence: symmetry, positivity, recovery."""

    hermitian_ok: bool
    hermitian_violations: list[tuple[int, int]]
    matrix_box: int | None = None
    psd: PsdVerdict | None = None
    recovered_atoms: list[tuple[float, complex]] | None = None
    recovered_origin: float | None = None
    recovery_residual: float | None = None
    recovery_error: str | None = None
    # the recovery could not decide (window too small, indeterminate rank),
    # as opposed to a recovery that misses the data
    recovery_unresolved: bool = False

    @property
    def passed(self) -> bool:
        return (self.hermitian_ok and self.psd is not None and self.psd.is_psd
                and self.recovery_error is None)


BISGAARD_RANK_TOL = 1e-8
BISGAARD_RESIDUAL_TOL = 1e-8


def bisgaard_check(s: HermitianSequence, try_recovery: bool = True,
                   matrix_box: int | None = None, seed: int = 0) -> BisgaardReport:
    """Audit a Z2 sequence: Hermitian symmetry, exact PSD, optional recovery.

    A sequence that fails the Hermitian symmetry is rejected before any
    moment matrix is assembled.  Recovery reads the polynomial part of the
    data (the quarter-plane entries), runs the atom recovery there, and
    replays the recovered atoms against the *whole* stored window including
    negative powers.
    """
    if s.domain is not SgDomain.Z2:
        raise ValueError("bisgaard_check expects Laurent (Z2) moment data")
    if not s.window_symmetric():
        raise ValueError("the stored window must be closed under (m,n) -> (n,m)")
    violations = s.hermitian_violations()
    if violations:
        return BisgaardReport(False, sorted(violations))

    if matrix_box is None:
        matrix_box = 0
        while all((m, n) in s.entries
                  for m in range(-2 * (matrix_box + 1), 2 * (matrix_box + 1) + 1)
                  for n in range(-2 * (matrix_box + 1), 2 * (matrix_box + 1) + 1)):
            matrix_box += 1
    window = box_window(matrix_box, SgDomain.Z2)
    psd = psd_check_cleared(*_embedded_window(window).cleared(lambda key: _embedded_value(s, key)))
    report = BisgaardReport(True, [], matrix_box, psd)
    if not try_recovery or not psd.is_psd:
        return report

    band = 0
    while all((m, band + 1 - m) in s.entries for m in range(band + 2)):
        band += 1
    degree = band // 2
    if degree < 1:
        report.recovery_error = "window too small for recovery"
        report.recovery_unresolved = True
        return report
    poly_moments = _polynomial_moments_from_sequence(s, 2 * degree)
    try:
        measure = recover_atoms(poly_moments, 2, degree, rank_tol=BISGAARD_RANK_TOL,
                                seed=seed, residual_tol=BISGAARD_RESIDUAL_TOL)
    except (IndeterminateRankError, RecoveryFailedError) as err:
        report.recovery_error = str(err)
        report.recovery_unresolved = isinstance(err, IndeterminateRankError)
        return report
    if measure.origin_mass > BISGAARD_RESIDUAL_TOL:
        report.recovery_error = ("recovered mass at the origin is incompatible "
                                 "with negative powers")
        return report
    atoms = [(float(w), complex(float(p[0]), float(p[1]))) for w, p in measure.atoms]
    residual = sequence_residual_float(atoms, 0.0, s)
    report.recovered_atoms = atoms
    report.recovered_origin = float(measure.origin_mass)
    report.recovery_residual = residual
    scale = max(1.0, max(abs(complex(v)) for v in s.entries.values()))
    if residual > BISGAARD_RESIDUAL_TOL * scale:
        report.recovery_error = f"recovered atoms miss the window by {residual:.3e}"
    return report


def _polynomial_moments_from_sequence(s: HermitianSequence, max_degree: int) -> LinearFunctional:
    """L(x^gamma) from the quarter-plane entries.

    With x1 = (z + conj z)/2 and x2 = -i*(z - conj z)/2, the monomial
    x1^a * x2^b is 2^-(a+b) * (-i)^b * (z + conj z)^a * (z - conj z)^b.
    The entries s(m, n) of one degree m + n are read in the order that
    expansion meets them and cleared to integers over one denominator
    delta, so the integer coefficients of (z + conj z)^a * (z - conj z)^b
    sum in ints and each moment is one Fraction over delta * 2^(a+b).
    """
    values = {}
    for degree in range(max_degree + 1):
        row = [s.value(degree - n, n) for n in range(degree + 1)]
        parts, delta = clear_denominators([x for z in row for x in (z.re, z.im)])
        den = delta << degree
        for gamma in exponents_of_degree(2, degree):
            a, b = gamma
            re = im = 0
            for (_, n), coeff in _binomial_expansion(a, b, 0, 2).items():
                c = coeff[0]
                re += c * parts[2 * n]
                im += c * parts[2 * n + 1]
            re, im = ((re, im), (im, -re), (-re, -im), (-im, re))[b % 4]  # times (-i)^b
            if im:
                total = GaussianRational(Fraction(re, den), Fraction(im, den))
                raise ValueError(f"moment of x^{gamma} came out non-real: {total}")
            values[(gamma, 0)] = Fraction(re, den)
    return LinearFunctional(2, Mode.APLUS, SCALAR_EXACT, values)


# -- Laurent generator relations and the inversion automorphism --------------


def inversion_automorphism(a: AElement) -> AElement:
    """The *-automorphism induced by x -> x / ||x||^2 on Laurent elements.

    A monomial fraction x^gamma / ||x||^(2m) maps to x^gamma / ||x||^(2t)
    with t = |gamma| - m.  All terms are written into one numerator at the
    smallest common pole P = max(0, max t): the degree-k component of the
    numerator is lifted by s^(P - k + m), s = ||x||^2.  The lifted
    components have distinct degrees and s is homogeneous, so s divides
    their sum exactly when it divides every lifted component; the common
    reduction r is found by dividing only components whose lift is below
    the r found so far, and the components are merged at pole P - r with
    no key shared.  Applying the map twice is the identity, and it
    exchanges x_j with x_j / ||x||^2.
    """
    if a.mode is not Mode.LAURENT:
        raise ValueError("the inversion automorphism lives on the Laurent algebra")
    d, m = a.nvars, a.pole_order
    if a.numerator.is_zero():
        return a
    # one denominator for the whole element: the lifts and divisions by s
    # keep integer coefficients, and each image term is built once
    terms, den = integer_terms(a.numerator)
    components: dict[int, dict] = {}
    for gamma, coeff in terms.items():
        components.setdefault(sum(gamma), {})[gamma] = coeff
    pole = reduction = max(0, max(components) - m)
    parts = []
    for k in sorted(components, reverse=True):  # ascending lift
        part, lift = components[k], pole - k + m
        if lift < reduction:
            part, left = integer_divide_out(d, part, reduction - lift)
            lift = reduction = reduction - left
        parts.append((part, lift))
    numerator: dict = {}
    for part, lift in parts:
        numerator.update(integer_product(part, integer_norm_squared_power(d, lift - reduction))
                         if lift > reduction else part)
    return AElement._trusted(Poly._over(d, numerator, den), pole - reduction, Mode.LAURENT)


@dataclass
class LaurentRelationsReport:
    """Exact audit of the Laurent generator relations and the inversion map."""

    identities: dict[str, bool]
    multiplicative_pairs: int
    multiplicative_failures: int

    @property
    def passed(self) -> bool:
        return all(self.identities.values()) and self.multiplicative_failures == 0


def laurent_relations_check(seed: int = 0, pairs: int = 100) -> LaurentRelationsReport:
    """Verify the defining relations of the four Laurent generators exactly.

    x1, x2 and y_j = x_j/||x||^2 satisfy x1*y1 + x2*y2 = 1 and
    (x1^2+x2^2)(y1^2+y2^2) = 1, and (y1 + i*y2)(x1 - i*x2) = 1 splits into
    real and imaginary identities.  The inversion automorphism must swap
    the generator pairs, square to the identity, preserve the relations,
    and stay multiplicative; multiplicativity is sampled on seeded random
    element pairs.
    """
    one = embed_poly(Poly.constant(2, 1), Mode.LAURENT)
    x1 = embed_poly(Poly.variable(2, 0), Mode.LAURENT)
    x2 = embed_poly(Poly.variable(2, 1), Mode.LAURENT)
    y1 = norm_inverse_generator(1)
    y2 = norm_inverse_generator(2)

    identities = {
        "x1*y1 + x2*y2 == 1": x1 * y1 + x2 * y2 == one,
        "(x1^2+x2^2)*(y1^2+y2^2) == 1": (x1 * x1 + x2 * x2) * (y1 * y1 + y2 * y2) == one,
        "(y1+i*y2)*(x1-i*x2) == 1, real part": y1 * x1 + y2 * x2 == one,
        "(y1+i*y2)*(x1-i*x2) == 1, imaginary part":
            (y2 * x1 - y1 * x2).is_zero(),
        "inversion swaps x1,y1": inversion_automorphism(x1) == y1
            and inversion_automorphism(y1) == x1,
        "inversion swaps x2,y2": inversion_automorphism(x2) == y2
            and inversion_automorphism(y2) == x2,
        "inversion preserves relation 1":
            inversion_automorphism(x1) * inversion_automorphism(y1)
            + inversion_automorphism(x2) * inversion_automorphism(y2) == one,
        "inversion preserves relation 2":
            (inversion_automorphism(x1) ** 2 + inversion_automorphism(x2) ** 2)
            * (inversion_automorphism(y1) ** 2 + inversion_automorphism(y2) ** 2) == one,
    }

    rng = random.Random(seed)
    involutive_ok = True
    failures = 0
    for _ in range(pairs):
        a = _random_laurent_element(rng)
        b = _random_laurent_element(rng)
        image = inversion_automorphism(a)
        if inversion_automorphism(a * b) != image * inversion_automorphism(b):
            failures += 1
        if inversion_automorphism(image) != a:
            involutive_ok = False
    identities["inversion is involutive"] = involutive_ok
    return LaurentRelationsReport(identities, pairs, failures)


def _random_laurent_element(rng: random.Random) -> AElement:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = (rng.randint(0, 3), rng.randint(0, 3))
        terms[exp] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    numerator = Poly(2, terms)
    if numerator.is_zero():
        numerator = Poly.constant(2, 1)
    return a_normalize(numerator, rng.randint(0, 2), Mode.LAURENT)
