"""Spectra, spectral radius limits, exponentials and functional calculus.

Spectra are always the ambient-matrix eigenvalues, clustered: points linked
by a chain of gaps, each within r = CLUSTER_SCALE * (1 + radius), are one
spectral point, their mean, or the point itself when they are equal.  For
elements of non-unital algebras this matches the convention of passing to
the unitization.  The real field mode filters to (numerically) real
eigenvalues and may yield the empty set.

Positivity has one gate (_positivity_each), relative to ||a|| with no floor:
sqrt_positive, classify, the norming states and every functional's density
are judged by it, so s a and a get one verdict for every s > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import Algebra, Element, _components, left_regular_matrix
from .errors import (
    BudgetExceeded,
    NotContractive,
    NotNormal,
    NotPositive,
    NotUnital,
    Overflow,
    SingularResolvent,
)
from .linalg import _unit_scaled_each
from .tolerances import CLASSIFY_TOL, CLUSTER_SCALE, ELEMENT_TOL, JOINT_EIG_TOL, NEUMANN_TOL

NEUMANN_MAX_TERMS = 10_000


@dataclass(frozen=True)
class SpectrumReport:
    points: tuple[complex, ...]
    radius: float
    field_mode: str


@dataclass(frozen=True)
class RadiusTrace:
    """Pairs (n, ||a^n||^(1/n)) along n = 1, 2, 4, ... plus the final estimate."""

    powers: tuple[int, ...]
    values: tuple[float, ...]
    estimate: float
    eigen_radius: float

    @property
    def gap(self) -> float:
        return abs(self.estimate - self.eigen_radius)


@dataclass(frozen=True)
class ElementFlags:
    hermitian: bool
    unitary: bool
    normal: bool
    positive: bool


@dataclass(frozen=True)
class CommutatorReport:
    trace_value: complex
    lambda_candidate: complex
    scalar_residual: float
    scalar_commutator: bool


def clustering_radius(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values))) if len(values) else 0.0
    return CLUSTER_SCALE * (1.0 + peak)


def _dedupe(values: np.ndarray) -> tuple[list, float] | tuple[list[list], list[float]]:
    """Cluster eigenvalues; returns representatives (cluster means) and the radius.

    values is an array: one row of n points, or a (k, n) stack of rows; a
    stack gives the list of each row's representatives and of the rows' radii.
    In each row, a cluster is the points linked by a chain of gaps, each
    within r, the row's radius: a connected component of the graph
    |z_i - z_j| <= r, found for every row with such a pair by one
    algebra._components call.  np.hypot is Python's complex abs.  Each mean
    is summed over its points in (re, im) order and listed at its first
    point, and numpy divides an array of sums by their counts as it divides
    one complex scalar by an int, so each row of a stack gives what it gives
    alone.  A cluster whose points are all equal is listed at that point
    (with +0.0 for a zero part, as the sum from 0 gives): fl(fl(2c) + c) / 3
    can miss c by one ulp, as 0.7 I_3 showed.

    A row whose largest real or imaginary part is 1 or more is clustered and
    averaged in the units of the power of two 2^e that brings that part into
    [1/2, 1): exact for every point that stays normal, and no gap or sum
    leaves the float range.  The means are scaled back by 2^e, as floats for
    a real row.  Smaller rows keep their units, in which r cannot overflow.
    """
    rows = np.atleast_2d(values)
    k, n = rows.shape
    radii = CLUSTER_SCALE * (1.0 + np.abs(rows).max(axis=1, initial=0.0))
    peak = np.fmax(np.abs(rows.real), np.abs(rows.imag)).max(axis=1, initial=0.0)
    e = np.fmax(np.frexp(peak)[1], 0)
    scale = linalg.ldexp if np.iscomplexobj(rows) else np.ldexp
    order = np.lexsort((rows.imag, rows.real), axis=-1)
    sorted_rows = np.take_along_axis(rows, order, axis=1)
    zs = scale(sorted_rows, -e[:, None])
    d = zs[:, :, None] - zs[:, None, :]
    joined = np.hypot(d.real, d.imag) <= np.ldexp(radii, -e)[:, None, None]
    joined[:, np.arange(n), np.arange(n)] = False
    first = np.tile(np.arange(n), (k, 1))
    linked = joined.any(axis=(1, 2))
    if linked.any():
        first[linked] = _components(joined[linked])
    at = (first + n * np.arange(k)[:, None]).ravel()
    sums = np.zeros(k * n, dtype=zs.dtype)
    np.add.at(sums, at, zs.ravel())  # in (re, im) order from 0, as sum(cl): -0.0 becomes 0.0
    counts = np.bincount(at, minlength=k * n).reshape(k, n)
    means = sums.reshape(k, n) / np.maximum(counts, 1)  # as each numpy scalar divides by an int
    means = scale(means, e[:, None])
    unequal = np.bincount(at, (sorted_rows.ravel() != sorted_rows.ravel()[at]), minlength=k * n)
    means = np.where(unequal.reshape(k, n) == 0, sorted_rows + 0.0, means)
    points = [list(mrow[crow > 0]) for mrow, crow in zip(means, counts)]
    radii = radii.tolist()
    return (points, radii) if values.ndim == 2 else (points[0], radii[0])


def _matrix_of(a) -> np.ndarray:
    return a.matrix if isinstance(a, Element) else linalg.as_matrix(a)


def _unital_algebra(a) -> Algebra | None:
    """The algebra of a's unit and of results built from a and that unit:
    a's own algebra when it is unital, else None (ambient M_n)."""
    alg = a.algebra if isinstance(a, Element) else None
    return alg if alg is not None and alg.unital else None


def _identity_of(a: Element) -> np.ndarray:
    """The unit the element sees: algebra identity, or ambient I_n."""
    alg = _unital_algebra(a)
    return np.eye(_matrix_of(a).shape[0], dtype=complex) if alg is None else alg.identity_matrix


def spectrum(a, field_mode: str = "complex") -> SpectrumReport:
    """Eigenvalue spectrum of the element, deduplicated.

    Real mode keeps only eigenvalues with |Im| below the clustering radius
    and may return an empty report (radius 0).
    """
    if field_mode not in ("real", "complex"):
        raise ValueError(f"field_mode must be 'real' or 'complex', got {field_mode!r}")
    return _spectrum_report(linalg.eig_general(_matrix_of(a)), field_mode)


def _spectrum_report(eigs: np.ndarray, field_mode: str) -> SpectrumReport | list[SpectrumReport]:
    """The spectrum() report of a matrix whose eigenvalues with multiplicity are
    eigs; a (k, n) stack of eigenvalue rows gives the list of its rows'
    reports, from one stacked _dedupe."""
    points, radius = _dedupe(eigs)
    if np.ndim(eigs) == 2:
        return [_report(p, r, field_mode) for p, r in zip(points, radius)]
    return _report(points, radius, field_mode)


def _joint_spectra(mats: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eig_general of a (k, n, n) stack, read off the diagonals of U* a_s U for
    every sample that _framed_diagonals certifies in the frame u, as the
    samples of a commutative *-algebra are in its Algebra.frame; and which
    samples were so certified.  Every other sample (not normal, off the
    frame, or mixed by a near-tie in it) takes eig_general unchanged."""
    eigs, held = _framed_diagonals(mats, u)
    if not held.all():
        eigs[~held] = linalg.eig_general(mats[~held])
    return eigs, held


def _framed_diagonals(mats: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of D_s = U* a_s U, shape (k, n), and which of them are
    certified as the eigenvalues of a_s.

    Sample s is certified when the rest E_s of D_s has ||E_s||_F <= JOINT_EIG_TOL
    ||a_s||_F, both of a_s scaled by a power of two (_unit_scaled_each).  Then
    every eigenvalue of a_s lies within ||E_s||_2 of the diagonal and, a_s being
    normal, the diagonal within ||E_s||_2 of the eigenvalues (Bauer-Fike).
    """
    a, e = _unit_scaled_each(mats)
    d = u.conj().T @ a @ u
    diag = np.arange(d.shape[-1])
    eigs = linalg.ldexp(d[:, diag, diag], e)
    d[:, diag, diag] = 0.0
    held = np.linalg.norm(d, axis=(1, 2)) <= JOINT_EIG_TOL * np.linalg.norm(a, axis=(1, 2))
    return eigs, held


def _report(points: list, radius: float, field_mode: str) -> SpectrumReport:
    if field_mode == "real":
        points = [complex(z.real, 0.0) for z in points if abs(z.imag) <= radius]
    rad = max((abs(z) for z in points), default=0.0)
    return SpectrumReport(tuple(points), rad, field_mode)


def resolvent(a: Element, z: complex) -> Element:
    """(a - z 1)^{-1}, solved inside the owning algebra when one is attached."""
    m = a.matrix
    eigs = linalg.eig_general(m)
    if len(eigs) and np.min(np.abs(eigs - z)) <= clustering_radius(eigs):
        raise SingularResolvent(f"{z} is within the clustering radius of the spectrum")
    alg = a.algebra
    if alg is not None and alg.unital:
        shifted = m - z * alg.identity_matrix
        lmat = left_regular_matrix(alg, shifted)
        try:
            x = np.linalg.solve(lmat, alg.identity_coords)
        except np.linalg.LinAlgError as exc:
            raise SingularResolvent(str(exc)) from exc
        return Element(alg, alg.from_coords(x))
    inv = linalg.invert(m - z * np.eye(m.shape[0]))
    return Element(None, inv)


def spectral_radius_limit(a, n_max: int = 1024) -> RadiusTrace:
    """Trace of ||a^n||^(1/n) by repeated squaring, evaluated in the log domain.

    a^n is kept as 2^k w, w scaled before each squaring by the power of two
    that brings its norm into [1/2, 1): exact, with no reciprocal of a
    subnormal norm to overflow, so the trace always completes.  The values
    are monotone non-increasing along the doubling sequence.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    m = _matrix_of(a)
    eigen_radius = float(np.max(np.abs(linalg.eig_general(m)))) if m.size else 0.0
    powers, values = [1], [linalg.op_norm(m)]
    w, wn, k, n = m, values[0], 0, 1
    while wn and 2 * n <= n_max:
        e = int(np.frexp(wn)[1])
        w = linalg.ldexp(w, -e)
        w, k, n = w @ w, 2 * (k + e), 2 * n
        wn = linalg.op_norm(w)
        powers.append(n)
        values.append(math.exp((k * math.log(2.0) + math.log(wn)) / n) if wn else 0.0)
    return RadiusTrace(tuple(powers), tuple(values), values[-1], eigen_radius)


def power_norm_root(a, n: int) -> float:
    """||a^n||^(1/n) at a single exponent n."""
    m = _matrix_of(a)
    return linalg.op_norm(np.linalg.matrix_power(m, n)) ** (1.0 / n)


def neumann_inverse(a: Element, tol: float = NEUMANN_TOL) -> Element:
    """(1 - a)^{-1} by partial geometric sums; requires ||a|| < 1.

    Terms accumulate until the term norm drops below tol * (1 - ||a||),
    bounding the series tail by tol.  Since ||a^k|| <= ||a||^k, that takes
    at most ceil(log(cutoff) / log ||a||) terms; BudgetExceeded is raised
    when a^NEUMANN_MAX_TERMS is still above the cutoff.
    """
    m = a.matrix
    nrm = linalg.op_norm(m)
    if nrm >= 1.0:
        raise NotContractive(f"operator norm {nrm:.6f} is not below 1")
    e = _identity_of(a)
    term = e.copy()
    total = e.copy()
    cutoff = tol * (1.0 - nrm)
    # ||t|| >= ||t||_F / sqrt(n) decides most stopping tests without an op norm.
    frob_cutoff = cutoff * math.sqrt(m.shape[0]) * (1.0 + 1e-12)
    k = 0
    while np.linalg.norm(term) > frob_cutoff or linalg.op_norm(term) > cutoff:
        if k == NEUMANN_MAX_TERMS:
            raise BudgetExceeded(
                f"Neumann series needs more than {NEUMANN_MAX_TERMS} terms at norm {nrm!r}"
            )
        term = term @ m
        total += term
        k += 1
    return Element(_unital_algebra(a), total)


def exp_element(a) -> Element:
    """Power-series exponential, computed by scaling and squaring.

    The input is scaled by 2^{-s} so its norm is at most 0.5, summed with
    20 series terms, then squared s times.  Overflow is raised when 2^s is
    beyond the float range or the squared result is not finite.
    """
    return Element(_unital_algebra(a), _exp_and_norm(a)[0])


def _exp_and_norm(a) -> tuple[np.ndarray, float]:
    """The matrix of exp_element(a), and the operator norm ||a|| it scaled by."""
    m = _matrix_of(a)
    nrm = linalg.op_norm(m)
    return _exp_at_norm(m, nrm), nrm


def _exp_at_norm(m: np.ndarray, nrm: float) -> np.ndarray:
    """e^m by scaling and squaring, given the operator norm nrm = ||m||."""
    if not nrm <= 2.0**1022:
        raise Overflow(f"operator norm {nrm:.3g} is too large to scale below 0.5")
    s = max(0, math.ceil(math.log2(nrm / 0.5))) if nrm > 0.5 else 0
    x = m / (2**s)
    n = m.shape[0]
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 21):
        term = term @ x / k
        acc = acc + term
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            acc = acc @ acc
    if not np.isfinite(acc).all():
        raise Overflow(f"exp overflows the float range at operator norm {nrm:.3g}")
    return acc


def poly_apply(a, coeffs) -> Element:
    """Evaluate a polynomial (coefficients in ascending order) by Horner's rule."""
    m = _matrix_of(a)
    e = _identity_of(a)
    cs = [complex(c) for c in coeffs]
    if not cs:
        cs = [0.0 + 0.0j]
    acc = cs[-1] * e
    for c in reversed(cs[:-1]):
        acc = acc @ m + c * e
    return Element(_unital_algebra(a), acc)


def classify(a) -> ElementFlags:
    """Hermitian / unitary / normal / positive flags within CLASSIFY_TOL: the positivity
    gate's (_positivity_each) and _normal_and_norms's, which hold for s a as for a; and
    ||a a* - 1||, ||a* a - 1|| <= CLASSIFY_TOL max(1, ||a||^2), as unitarity is not
    homogeneous, formed only at ||a|| <= 2: past it they cannot hold, and may overflow."""
    m = _matrix_of(a)
    (positive,), _, (defect,), _, _, (norm,) = _positivity_each(m[None])
    has_unit = not (isinstance(a, Element) and a.algebra is not None and not a.algebra.unital)
    u, adj, unit_test = _identity_of(a), m.conj().T, has_unit and norm <= 2.0
    normal, unit_norms = _normal_and_norms(m, [m @ adj - u, adj @ m - u] if unit_test else [])
    unitary = unit_test and max(unit_norms) <= CLASSIFY_TOL * max(1.0, norm**2)
    return ElementFlags(bool(defect <= CLASSIFY_TOL), bool(unitary), normal, bool(positive))


def _normal_and_norms(m: np.ndarray, extra=()) -> tuple[bool, np.ndarray]:
    """Whether m is normal: ||s s* - s* s|| <= CLASSIFY_TOL ||s||^2 on m's power-of-two
    scaling s (linalg.unit_scaled), so s m is normal as m is; and the norms of the
    matrices of extra, from the same _op_norm_each stack."""
    s = linalg.unit_scaled(m)
    adj = s.conj().T
    norms = linalg._op_norm_each(np.stack([s, s @ adj - adj @ s, *extra]))
    return bool(norms[1] <= CLASSIFY_TOL * norms[0] ** 2), norms[2:]


def _positivity_each(mats: np.ndarray, tol: float = CLASSIFY_TOL) -> tuple[np.ndarray, ...]:
    """The positivity gate, for each matrix a of a (k, n, n) stack: its Hermitian
    defect ||a - a*|| / ||a||, its norm ||a|| and its Hermitian part (a + a*) / 2
    (linalg._hermitian_residual_each), the eigenpairs (w, v) of one eigh of that
    part, and the verdict: a is positive when the defect is at most tol and no
    eigenvalue is below -tol ||a||.  Both tests are relative to ||a||, with no
    floor, so s a gets a's verdict for every s > 0, up to the rounding of s a; each
    fails when it reads NaN.  Returns (positive, least eigenvalue, defect, w, v, norm).
    """
    defect, norm, hermitian_part = linalg._hermitian_residual_each(mats)
    w, v = np.linalg.eigh(hermitian_part)
    least = w[:, 0] if w.shape[1] else np.zeros(len(mats))
    return (defect <= tol) & (least >= -tol * norm), least, defect, w, v, norm


def sqrt_positive(a, tol: float = CLASSIFY_TOL) -> Element:
    """Hermitian square root of a positive element via its eigendecomposition."""
    return Element(a.algebra if isinstance(a, Element) else None, _sqrt_and_norm(a, tol)[0])


def _sqrt_and_norm(a, tol: float) -> tuple[np.ndarray, float]:
    """The matrix of sqrt_positive(a, tol), and the norm ||a|| of its positivity test."""
    (positive,), _, _, (w,), (v,), (norm,) = _positivity_each(_matrix_of(a)[None], tol)
    if not positive:
        raise NotPositive("element is not positive (Hermitian with spectrum >= 0)")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T, float(norm)


def func_calc(a, f) -> Element:
    """Apply a scalar function to a normal element through its Schur form.

    The Schur route to f(m) (Higham, Functions of Matrices, 2008, ch. 4) on
    numpy alone: LAPACK's xGEEV reduces m = Q T Q* and returns eigenvectors
    V = Q X, X upper triangular, so the QR factor of V is Q up to phases.  A
    normal m has T diagonal, so f(m) = Q diag(f(w)) Q*; xGEEV's balancing
    only permutes it, and on real input the QR columns of X's 2 x 2 blocks
    are still eigenvectors.  The Hermitian part's eigenvectors would err by
    eps ||m|| over the gap between real parts.
    """
    m = _matrix_of(a)
    if not _normal_and_norms(m)[0]:
        raise NotNormal("functional calculus requires a normal element")
    w, v = linalg._lapack(np.linalg.eig, m)
    q, _ = np.linalg.qr(v)
    fm = (q * np.array([complex(f(z)) for z in w])) @ q.conj().T
    alg = a.algebra if isinstance(a, Element) else None
    if alg is not None and not alg.contains(fm, ELEMENT_TOL):
        alg = None
    return Element(alg, fm)


def commutator_scalar_test(a: Element, b: Element) -> CommutatorReport:
    """Test whether ab - ba is a scalar multiple of the identity.

    The trace of any commutator vanishes, so a scalar commutator forces
    the scalar to zero: there is no finite-dimensional pair with
    ab - ba = lambda 1 for nonzero lambda.
    """
    if isinstance(a, Element) and a.algebra is not None and not a.algebra.unital:
        raise NotUnital("commutator test requires a unital algebra")
    ma, mb = _matrix_of(a), _matrix_of(b)
    c = ma @ mb - mb @ ma
    n = c.shape[0]
    trace = complex(np.trace(c))
    lam = trace / n
    residual, na, nb = linalg._op_norm_each(np.stack([c - lam * np.eye(n), ma, mb])).tolist()
    return CommutatorReport(trace, lam, residual, residual <= CLASSIFY_TOL * na * nb)


def _hausdorff(p: list[complex], q: list[complex]) -> float:
    if not p and not q:
        return 0.0
    if not p or not q:
        return math.inf
    d1 = max(min(abs(x - y) for y in q) for x in p)
    d2 = max(min(abs(x - y) for y in p) for x in q)
    return max(d1, d2)


def spec_symmetry_check(a, b) -> float:
    """Hausdorff distance between the nonzero parts of spec(ab) and spec(ba)."""
    ma, mb = _matrix_of(a), _matrix_of(b)
    eab = linalg.eig_general(ma @ mb)
    eba = linalg.eig_general(mb @ ma)
    radius = clustering_radius(np.concatenate([eab, eba]))
    pab = [z for z in eab if abs(z) > radius]
    pba = [z for z in eba if abs(z) > radius]
    return _hausdorff(pab, pba)
