"""Dense complex matrix kernels used by every other module.

Matrices are plain numpy arrays of complex128, row-major, validated by
:func:`as_matrix`.  Decompositions are delegated to LAPACK through
``numpy.linalg``; the functions here pin down the tolerance conventions
(relative to the operator norm) and the error types.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NotHermitian, Overflow, Singular
from .tolerances import LINALG_TOL


def as_matrix(m) -> np.ndarray:
    """Coerce input to a finite 2-d complex array.

    Raises ValueError for non-2d input or non-finite entries.
    """
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size and not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m, dtype=complex)).T.copy()


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value.

    Equals sqrt of the largest eigenvalue of m* m, which is the unique
    norm making the matrix *-algebra a C*-algebra, and is computed so
    (_op_norm_each).
    """
    return float(_op_norm_each(np.asarray(m, dtype=complex)[None])[0])


def _op_norm_each(mats: np.ndarray) -> np.ndarray:
    """op_norm of each matrix of a (k, p, q) stack, from one stacked eigvalsh.

    A matrix with no nonzero entry reads 0.0 without LAPACK (a subnormal or
    NaN entry is nonzero).  Each other a is scaled by the power of two 2^-e
    that brings its largest real or imaginary part into [1/2, 1), exactly,
    and ||a|| = 2^e sqrt(lambda_max) of its Gram matrix, a* a or a a*,
    whichever is smaller.  lambda_max is found within O(eps ||a||^2), so
    ||a|| keeps a relative error of O(n eps), as the SVD's.  Each norm has
    the bits the matrix gets alone.  NoConvergence for an entry that is not
    finite; Overflow when a finite matrix's norm leaves the float range.  One
    pass over the parts finds each matrix's peak, which scales it, tests it for
    finiteness and tells the zero matrices.
    """
    a, peaks, e = _unit_scaling(mats)
    _require_finite(peaks)
    if peaks.all():
        return _scaled_back(_unit_norms(a), e)
    live, out = peaks != 0.0, np.zeros(len(mats))
    if live.any():
        out[live] = _scaled_back(_unit_norms(a[live]), e[live])
    return out


def _require_finite(peaks: np.ndarray) -> None:
    """NoConvergence when a peak of _unit_scaling, and so an entry, is not finite."""
    if not np.isfinite(peaks).all():
        raise NoConvergence("op_norm: a matrix entry is not finite")


def _unit_norms(a: np.ndarray) -> np.ndarray:
    """The norm sqrt(lambda_max) of the smaller Gram matrix of each matrix of a finite
    unit-scaled (k, p, q) stack.  Its parts are below 1 in modulus, so each
    eigenvalue is at most 2pq and eigvalsh needs no scan of its output."""
    if not a.size:
        return np.zeros(len(a))
    adj = a.conj().swapaxes(1, 2)
    gram = a @ adj if a.shape[1] < a.shape[2] else adj @ a
    try:
        return np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigvalsh: {exc}") from exc


def _scaled_back(norms: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The norms of the matrices 2^e a_s, given those of their unit scalings a_s;
    Overflow when one is above the largest float.  ||a_s|| < sqrt(2pq) < 2^32 for
    any array numpy can hold, so only an exponent above 1024 - 32 can reach the
    end of the float range."""
    if e.max(initial=0) > 1024 - 32 and (np.frexp(norms)[1] + e > 1024).any():
        raise Overflow("op_norm leaves the float range")
    return np.ldexp(norms, e)


def ldexp(m, e: int) -> np.ndarray:
    """The complex array m times 2^e, part by part: exact for every entry that
    stays normal, also where 2.0**e overflows (e = 1024, or -e at subnormal peaks)."""
    return np.ldexp(np.ascontiguousarray(m, dtype=complex).view(float), e).view(complex)


def unit_scaled(m) -> np.ndarray:
    """The complex array m times the power of two 2^-e that brings its largest
    real or imaginary part into [1/2, 1), so m - m* cannot overflow.  The
    scaling is exact for every entry that stays normal, so m and 2^k m give
    the same bits."""
    parts = np.ascontiguousarray(m, dtype=complex).view(float)
    _, e = np.frexp(np.max(np.abs(parts), initial=0.0))
    return ldexp(m, -e)


def _unit_scaled_each(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each a_s of a (k, p, q) stack scaled by the power of two 2^-e_s that brings
    its largest real or imaginary part into [1/2, 1), exactly, so no norm below
    overflows or underflows; and the exponents e, shape (k, 1)."""
    a, _, e = _unit_scaling(mats)
    return a, e[:, None]


def _unit_scaling(mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """_unit_scaled_each of a (k, p, q) stack with shape (k,) exponents, from one
    pass over its parts, and each matrix's peak, the largest part in modulus: NaN
    or inf for a matrix with an entry that is not finite.  The stack itself,
    without ldexp, when every exponent is 0."""
    mats = np.ascontiguousarray(mats, dtype=complex)
    peaks = np.abs(mats.view(float)).max(axis=(1, 2), initial=0.0)
    e = np.frexp(peaks)[1]
    return (ldexp(mats, -e[:, None, None]) if e.any() else mats), peaks, e


def hermitian_residual(m: np.ndarray) -> float:
    """Relative defect ||m - m*|| / ||m||, computed on unit_scaled(m): 0.0 with no
    norm when m is exactly Hermitian."""
    if np.array_equal(m, np.conj(m).T):
        return 0.0
    return float(_hermitian_residual_each(np.asarray(m)[None])[0][0])


def _hermitian_residual_each(mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """hermitian_residual of each matrix a of a (k, n, n) stack, ||a||, and the
    Hermitian part (a + a*) / 2, all on a's power-of-two scaling: the norms have
    the bits of _op_norm_each of a and of its skew part, from one stacked
    eigvalsh, and (a + a*) / 2 cannot overflow.  The input is scaled and tested
    for finiteness once; only the skew part is scaled again, to its own peak.
    NoConvergence for an entry that is not finite; Overflow when ||a|| leaves the
    float range."""
    k = len(mats)
    scaled, peaks, e = _unit_scaling(mats)
    _require_finite(peaks)
    adj = scaled.conj().swapaxes(1, 2)
    skew, _, f = _unit_scaling(scaled - adj)
    norms = _unit_norms(np.concatenate([scaled, skew]))
    norms, skew_norms = norms[:k], np.ldexp(norms[k:], f)
    defects = np.divide(skew_norms, norms, out=np.zeros(k), where=norms > 0)
    return defects, _scaled_back(norms, e), ldexp(scaled + adj, e[:, None, None] - 1)


def herm_eig(m, tol: float = LINALG_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending and real, vectors) with the vectors
    unitary and m @ V == V @ diag(w) up to tol * ||m||.

    Raises NotHermitian when ||m - m*|| > tol * ||m||.
    """
    a = require_square(as_matrix(m))
    resid = hermitian_residual(a)
    if resid > tol:
        raise NotHermitian(f"hermitian residual {resid:.3e} exceeds {tol:.1e}")
    return np.linalg.eigh(a)


def invert(m) -> np.ndarray:
    """Matrix inverse, rejecting near-singular input.

    Raises Singular when the smallest singular value is <= LINALG_TOL * ||m||.
    """
    a = require_square(as_matrix(m))
    if a.shape[0] == 0:
        return a.copy()
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= LINALG_TOL * svals[0] or svals[0] == 0.0:
        raise Singular(f"smallest singular value {svals[-1]:.3e} below {LINALG_TOL:.1e} * norm")
    return np.linalg.inv(a)


def is_triangular(a: np.ndarray):
    """Whether a square matrix, or each matrix of a (k, n, n) stack, is triangular."""
    n = a.shape[-1]
    lower = a[(..., *np.tril_indices(n, k=-1))]
    upper = a[(..., *np.triu_indices(n, k=1))]
    return ~lower.any(axis=-1) | ~upper.any(axis=-1)


def eig_general(m) -> np.ndarray:
    """All eigenvalues with multiplicity of a square matrix, or of each matrix of a (k, n, n) stack.

    A triangular matrix short-circuits to its diagonal.  Raises NoConvergence
    if the underlying QR iteration gives up.
    """
    a = require_square(as_matrix(m)) if np.ndim(m) == 2 else np.asarray(m, dtype=complex)
    return _diagonal_unless_general(a, lambda general: _lapack(np.linalg.eigvals, general))


def eig_with_vectors(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """eig_general(m), and the eigenvalues and eigenvector columns of one eig of m."""
    a = require_square(as_matrix(m))
    w, v = _lapack(np.linalg.eig, a)
    return _diagonal_unless_general(a, lambda general: w[None]), w, v


def _diagonal_unless_general(a: np.ndarray, eigvals) -> np.ndarray:
    """The diagonal of each triangular matrix of a; eigvals(stack) for the others."""
    eigs = np.diagonal(a, axis1=-2, axis2=-1).astype(complex)
    general = ~is_triangular(a)
    if general.any():
        eigs[general] = eigvals(a[general])
    return eigs


def _lapack(routine, a: np.ndarray, **kwargs):
    """routine(a, **kwargs) of numpy.linalg: NoConvergence for LinAlgError, and
    Overflow when finite input gives a result that is not finite."""
    try:
        out = routine(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"{routine.__name__}: {exc}") from exc
    parts = out if isinstance(out, tuple) else (out,)
    if not all(np.isfinite(p).all() for p in parts) and np.isfinite(a).all():
        raise Overflow(f"{routine.__name__} leaves the float range")
    return out
