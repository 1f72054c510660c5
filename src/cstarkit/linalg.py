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
    finite; Overflow when a finite matrix's norm leaves the float range.
    """
    if not mats.size:
        return np.zeros(len(mats))
    live = np.any(mats, axis=(1, 2))
    if live.all():
        return _gram_norms(mats)
    out = np.zeros(len(mats))
    if live.any():
        out[live] = _gram_norms(mats[live])
    return out


def _gram_norms(mats: np.ndarray) -> np.ndarray:
    """_op_norm_each of a (k, p, q) stack whose matrices are all nonzero."""
    if not np.isfinite(mats).all():
        raise NoConvergence("op_norm: a matrix entry is not finite")
    a, e = _unit_scaled_each(mats)
    adj = a.conj().swapaxes(1, 2)
    gram = a @ adj if a.shape[1] < a.shape[2] else adj @ a
    root = np.sqrt(_lapack(np.linalg.eigvalsh, gram)[:, -1])
    if (np.frexp(root)[1] + e[:, 0] > 1024).any():  # 2^e sqrt(lambda) is above the largest float
        raise Overflow("op_norm leaves the float range")
    return np.ldexp(root, e[:, 0])


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
    parts = np.abs(np.ascontiguousarray(mats, dtype=complex).view(float))
    e = np.frexp(parts.max(axis=(1, 2), initial=0.0))[1][:, None]
    return ldexp(mats, -e[:, :, None]), e


def hermitian_residual(m: np.ndarray) -> float:
    """Relative defect ||m - m*|| / ||m||, computed on unit_scaled(m)."""
    return float(_hermitian_residual_each(np.asarray(m)[None])[0])


def _hermitian_residual_each(mats: np.ndarray) -> np.ndarray:
    """hermitian_residual of each matrix of a (k, n, n) stack, each on its own
    power-of-two scaling.  Exactly Hermitian matrices, the zero matrix
    included, read 0.0 without computing a norm."""
    scaled = _unit_scaled_each(mats)[0]
    skew = scaled - scaled.conj().swapaxes(1, 2)
    live = np.any(skew, axis=(1, 2))
    if live.all():
        return _op_norm_each(skew) / _op_norm_each(scaled)
    out = np.zeros(len(mats))
    if live.any():
        out[live] = _op_norm_each(skew[live]) / _op_norm_each(scaled[live])
    return out


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
