"""Spectra, spectral radius limits, exponentials and functional calculus.

Spectra are always the ambient-matrix eigenvalues, deduplicated with a
clustering radius of CLUSTER_SCALE * (1 + radius); for elements of non-unital
algebras this matches the convention of passing to the unitization.  The
real field mode filters to (numerically) real eigenvalues and may yield
the empty set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import Algebra, Element, left_regular_matrix
from .errors import (
    BudgetExceeded,
    NotContractive,
    NotNormal,
    NotPositive,
    NotUnital,
    Overflow,
    SingularResolvent,
)
from .tolerances import CLASSIFY_TOL, CLUSTER_SCALE, ELEMENT_TOL, NEUMANN_TOL

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


def _dedupe(values: np.ndarray) -> tuple[list[complex], float]:
    """Cluster eigenvalues; returns representatives (cluster means) and the radius.

    Points are taken in (re, im) order, each joining the first cluster whose
    mean lies within the radius.  When every pairwise gap exceeds the radius
    by a margin that numpy's and Python's complex abs cannot straddle, every
    cluster is a single point and the greedy loop is skipped.
    """
    radius = clustering_radius(values)
    z = np.asarray(values)
    if np.isfinite(z).all():
        gaps = np.abs(z[:, None] - z)
        np.fill_diagonal(gaps, np.inf)
        if (gaps > radius * (1.0 + 1e-9)).all():
            # 0 + z and / 1 as in sum(cl) / len(cl): a -0.0 part becomes 0.0
            return [(0 + values[i]) / 1 for i in np.lexsort((z.imag, z.real))], radius
    order = sorted(values, key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in order:
        for cl in clusters:
            if abs(z - sum(cl) / len(cl)) <= radius:
                cl.append(z)
                break
        else:
            clusters.append([z])
    return [sum(cl) / len(cl) for cl in clusters], radius


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


def _spectrum_report(eigs: np.ndarray, field_mode: str) -> SpectrumReport:
    """The spectrum() report of a matrix whose eigenvalues with multiplicity are eigs."""
    points, radius = _dedupe(eigs)
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
    # ||t|| >= ||t||_F / sqrt(n) decides most stopping tests without an SVD.
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
    """Hermitian / unitary / normal / positive flags by residual tests within CLASSIFY_TOL."""
    m = _matrix_of(a)
    scale = linalg.op_norm(m)
    herm = linalg.hermitian_residual(m) <= CLASSIFY_TOL
    adj = linalg.adjoint(m)
    norm_res = linalg.op_norm(m @ adj - adj @ m)
    normal = norm_res <= CLASSIFY_TOL * max(1.0, scale**2)
    unitary = False
    has_unit = not (isinstance(a, Element) and a.algebra is not None and not a.algebra.unital)
    if has_unit:
        e = _identity_of(a)
        unitary = (
            linalg.op_norm(m @ adj - e) <= CLASSIFY_TOL * max(1.0, scale**2)
            and linalg.op_norm(adj @ m - e) <= CLASSIFY_TOL * max(1.0, scale**2)
        )
    positive = herm
    if herm:
        try:
            _positive_eig(m, CLASSIFY_TOL)
        except NotPositive:
            positive = False
    return ElementFlags(herm, unitary, normal, positive)


def _positive_eig(a, tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """eigh of a positive element, and max(1, ||a||); NotPositive for any other.

    Positive is classify()'s test: Hermitian within tol, and no eigenvalue
    below -tol * max(1, ||a||).  Each test fails when it reads NaN.  The
    Hermitian test runs once, so eigh is called directly, not herm_eig.
    """
    m = linalg.require_square(_matrix_of(a))
    message = "element is not positive (Hermitian with spectrum >= 0)"
    if not linalg.hermitian_residual(m) <= tol:
        raise NotPositive(message)
    w, v = np.linalg.eigh(m)
    scale = max(1.0, linalg.op_norm(m))
    if w.size and not float(np.min(w)) >= -tol * scale:
        raise NotPositive(message)
    return w, v, scale


def sqrt_positive(a, tol: float = CLASSIFY_TOL) -> Element:
    """Hermitian square root of a positive element via its eigendecomposition."""
    root, _ = _sqrt_and_scale(a, tol)
    return Element(a.algebra if isinstance(a, Element) else None, root)


def _sqrt_and_scale(a, tol: float) -> tuple[np.ndarray, float]:
    """The matrix of sqrt_positive(a, tol), and the max(1, ||a||) of its positivity test."""
    w, v, scale = _positive_eig(a, tol)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T, scale


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
    if not classify(a).normal:
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
    residual = linalg.op_norm(c - lam * np.eye(n))
    scale = max(1.0, linalg.op_norm(ma) * linalg.op_norm(mb))
    return CommutatorReport(trace, lam, residual, residual <= CLASSIFY_TOL * scale)


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
