"""Dense complex matrix kernels used by every other module.

Matrices are plain numpy arrays of complex128, row-major, validated by
:func:`as_matrix`.  Decompositions are delegated to LAPACK through
``numpy.linalg``; the functions here pin down the tolerance conventions
(relative to the operator norm) and the error types.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian, Singular, NoConvergence

DEFAULT_TOL = 1e-9


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
    norm making the matrix *-algebra a C*-algebra.
    """
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0.0
    try:
        return float(np.linalg.norm(a, 2))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"operator norm: {exc}") from exc


def hermitian_residual(m: np.ndarray) -> float:
    """Relative defect ||m - m*|| / ||m||.

    Exactly Hermitian input, the zero matrix included, returns 0.0 without
    computing a norm.
    """
    skew = m - adjoint(m)
    if not skew.any():
        return 0.0
    return op_norm(skew) / op_norm(m)


def herm_eig(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending and real, vectors) with the vectors
    unitary and m @ V == V @ diag(w) up to tol * ||m||.

    Raises NotHermitian when ||m - m*|| > tol * ||m||.
    """
    a = require_square(as_matrix(m))
    if hermitian_residual(a) > tol:
        raise NotHermitian(f"hermitian residual {hermitian_residual(a):.3e} exceeds {tol:.1e}")
    w, v = np.linalg.eigh(a)
    return w, v


def invert(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse, rejecting near-singular input.

    Raises Singular when the smallest singular value is <= tol * ||m||.
    """
    a = require_square(as_matrix(m))
    if a.shape[0] == 0:
        return a.copy()
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= tol * svals[0] or svals[0] == 0.0:
        raise Singular(f"smallest singular value {svals[-1]:.3e} below {tol:.1e} * norm")
    return np.linalg.inv(a)


def is_triangular(a: np.ndarray):
    """Whether a square matrix, or each matrix of a (k, n, n) stack, is triangular."""
    n = a.shape[-1]
    lower = a[(..., *np.tril_indices(n, k=-1))]
    upper = a[(..., *np.triu_indices(n, k=1))]
    return ~lower.any(axis=-1) | ~upper.any(axis=-1)


def eig_general(m) -> np.ndarray:
    """All eigenvalues with multiplicity, as a complex array.

    Triangular input short-circuits to its diagonal.  Raises NoConvergence
    if the underlying QR iteration gives up.
    """
    a = require_square(as_matrix(m))
    if is_triangular(a):
        return np.diag(a).astype(complex)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(str(exc)) from exc


def null_basis(g, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the (numerical) null space of a Hermitian PSD matrix.

    Eigenvectors whose eigenvalue is within tol * ||g|| of zero are kept;
    the count is dim - rank.  Raises NotHermitian for non-Hermitian input.
    """
    w, v = herm_eig(g, tol=tol)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    keep = np.abs(w) <= tol * scale
    return [v[:, i].copy() for i in range(len(w)) if keep[i]]
