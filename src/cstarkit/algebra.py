"""Finite-dimensional subalgebras of complex matrices.

An Algebra is stored as one stacked orthonormal basis, a (d, n, n) array
under the trace pairing <x, y> = trace(y* x) (the Frobenius inner
product), plus its structure constants C[i, j, l] = <b_i b_j, b_l>.
Coordinates, products, left-regular matrices, Gram matrices of
functionals and the structure flags (unitality via the identity
coordinates, commutativity, closure under the adjoint) are all matmuls
or contractions of these two arrays.  The scalar field (real or complex
coefficients) is a flag.

Orthonormal bases are grown by one routine, classical Gram-Schmidt run
twice per candidate.  Quotients keep a coset basis orthogonal to the
ideal plus the structure constants of coset multiplication, so quotient
arithmetic never touches representatives again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import linalg
from .errors import (
    AlgebraMismatch,
    BudgetExceeded,
    DimensionMismatch,
    NotInAlgebra,
    NotProper,
    NotRealAlgebra,
    NotSubspace,
    NotTwoSided,
)

MEMBERSHIP_TOL = 1e-9


def _pairing(m, rows: np.ndarray) -> np.ndarray:
    """<m, r_k> = trace(r_k* m) for each r_k of a (k, n, n) stack; m may be a stack."""
    m = np.asarray(m, dtype=complex)
    k, n = rows.shape[0], rows.shape[-1]
    flat = m.reshape(*m.shape[:-2], n * n)
    return (flat.conj() @ rows.reshape(k, n * n).T).conj()


def _product_coords(left: np.ndarray, right: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """P[i, j, l] = <left_i right_j, rows_l>, one stacked product per row of left."""
    out = np.zeros((len(left), len(right), len(rows)), dtype=complex)
    for i, a in enumerate(left):
        out[i] = _pairing(a @ right, rows)
    return out


def _project_out(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x minus its projection on the span of orthonormal rows, in two passes."""
    for _ in range(2):
        x = x - (x @ rows.conj().T) @ rows
    return x


def _extend_rows(rows: np.ndarray, cands, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Append each candidate, in order, whose residual exceeds tol * its norm.

    rows is a (k, N) array of orthonormal rows and cands a stack of m
    candidates of N entries each.  Every candidate is orthogonalized by
    classical Gram-Schmidt run twice against the rows accepted before it,
    which is as orthogonal as modified Gram-Schmidt.  A candidate already
    inside span(rows) stays inside the larger span, so those are dropped
    in one block before the sequential pass.
    """
    cands = np.asarray(cands, dtype=complex).reshape(len(cands), rows.shape[1])
    scale = np.linalg.norm(cands, axis=1)
    resid = _project_out(rows, cands)
    live = np.linalg.norm(resid, axis=1) > tol * scale
    out = np.concatenate([rows, resid[live]])
    k = len(rows)
    for v, s in zip(resid[live], scale[live]):
        v = _project_out(out[:k], v)
        rem = float(np.linalg.norm(v))
        if rem > tol * s:
            out[k] = v / rem
            k += 1
    return out[:k]


@dataclass(frozen=True)
class Algebra:
    """A subalgebra of M_n: a (d, n, n) orthonormal basis and its structure constants."""

    basis: np.ndarray
    structure: np.ndarray  # [i, j, l] = <b_i b_j, b_l>
    identity_coords: np.ndarray | None
    abelian: bool
    star_closed: bool
    real_field: bool = False

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def unital(self) -> bool:
        return self.identity_coords is not None

    def coords(self, m) -> np.ndarray:
        """Coordinates of m, or of each matrix of a stack (valid for members)."""
        return _pairing(m, self.basis)

    def from_coords(self, c) -> np.ndarray:
        return np.tensordot(np.asarray(c, dtype=complex), self.basis, axes=1)

    def project(self, m: np.ndarray) -> np.ndarray:
        return self.from_coords(self.coords(m))

    def membership_residual(self, m: np.ndarray) -> float:
        scale = float(np.linalg.norm(m))
        if scale == 0.0:
            return 0.0
        return float(np.linalg.norm(m - self.project(m))) / scale

    def contains(self, m: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.membership_residual(m) <= tol

    @property
    def identity_matrix(self) -> np.ndarray | None:
        if self.identity_coords is None:
            return None
        return self.from_coords(self.identity_coords)


def _build_algebra(candidates, real_field: bool, tol: float = MEMBERSHIP_TOL) -> Algebra:
    """Orthonormalize an already multiplication-closed (m, n, n) spanning stack.

    The structure constants give the flags: abelian when C[i, j] = C[j, i],
    and the identity coordinates x solve sum_k x_k C[k, j, :] = e_j =
    sum_k x_k C[j, k, :] for every j in the least-squares sense.
    """
    cands = np.asarray(candidates, dtype=complex)
    n = cands.shape[-1]
    flat = _extend_rows(np.zeros((0, n * n), dtype=complex), cands, tol)
    d = len(flat)
    basis = flat.reshape(d, n, n)
    c = _product_coords(basis, basis, basis)
    abelian = not np.any(np.linalg.norm(c - c.swapaxes(0, 1), axis=2) > tol)
    adjoints = basis.conj().swapaxes(1, 2).reshape(d, n * n)
    star_closed = not np.any(np.linalg.norm(_project_out(flat, adjoints), axis=1) > tol)
    ident = None
    if d:
        system = np.concatenate(
            [c.transpose(1, 2, 0).reshape(d * d, d), c.transpose(0, 2, 1).reshape(d * d, d)]
        )
        units = np.tile(np.eye(d).ravel(), 2)
        x, *_ = np.linalg.lstsq(system, units, rcond=None)
        if float(np.linalg.norm(system @ x - units)) <= tol * np.sqrt(2 * d):
            ident = x
    return Algebra(
        basis=basis,
        structure=c,
        identity_coords=ident,
        abelian=abelian,
        star_closed=star_closed,
        real_field=real_field,
    )


def algebra_from_generators(
    gens,
    include_identity: bool = True,
    include_adjoints: bool = True,
    real_field: bool = False,
    tol: float = MEMBERSHIP_TOL,
) -> Algebra:
    """Smallest subalgebra of M_n containing the generators.

    With include_adjoints the closure is taken under the * operation as
    well, and with include_identity the ambient identity is adjoined.
    Closure alternates adjoint and product passes, extending the
    orthonormal basis by Gram-Schmidt, until the dimension stabilizes.
    """
    mats = [linalg.require_square(linalg.as_matrix(g)) for g in gens]
    if not mats:
        raise ValueError("need at least one generator")
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise DimensionMismatch("generators must all be n x n of equal size")
    if real_field and any(np.max(np.abs(m.imag)) > 0 for m in mats):
        raise NotRealAlgebra("real-field algebra requires real generators")

    n2 = n * n
    start = [np.eye(n, dtype=complex)] if include_identity else []
    rows = _extend_rows(np.zeros((0, n2), dtype=complex), [*start, *mats], tol)

    max_rounds = n * n + 1
    for _ in range(max_rounds):
        size = len(rows)
        if include_adjoints:
            rows = _extend_rows(rows, rows.reshape(-1, n, n).conj().swapaxes(1, 2), tol)
        current = rows.reshape(-1, n, n)
        for b in current:
            rows = _extend_rows(rows, b @ current, tol)
        if len(rows) == size:
            break
    return _build_algebra(rows.reshape(-1, n, n), real_field, tol)


def full_matrix_algebra(n: int) -> Algebra:
    """All of M_n, with the matrix units as orthonormal basis."""
    return _build_algebra(np.eye(n * n).reshape(n * n, n, n), real_field=False)


@dataclass(frozen=True)
class Element:
    """A matrix tagged with its owning algebra (None means ambient M_n)."""

    algebra: Algebra | None
    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.require_square(linalg.as_matrix(self.matrix))
        object.__setattr__(self, "matrix", m)
        if self.algebra is not None:
            if m.shape[0] != self.algebra.ambient_dim:
                raise DimensionMismatch(
                    f"matrix is {m.shape[0]} x {m.shape[0]}, algebra ambient is "
                    f"{self.algebra.ambient_dim}"
                )
            resid = self.algebra.membership_residual(m)
            if resid > 1e-8:
                raise NotInAlgebra(f"projection residual {resid:.3e} outside the span")

    @property
    def coords(self) -> np.ndarray:
        if self.algebra is None:
            raise NotInAlgebra("ambient elements carry no basis coordinates")
        return self.algebra.coords(self.matrix)

    def adjoint(self) -> "Element":
        return Element(self.algebra, linalg.adjoint(self.matrix))

    def norm(self) -> float:
        return linalg.op_norm(self.matrix)

    def _wrap(self, m: np.ndarray) -> "Element":
        return Element(self.algebra, m)

    def __add__(self, other: "Element") -> "Element":
        return self._wrap(self.matrix + other.matrix)

    def __sub__(self, other: "Element") -> "Element":
        return self._wrap(self.matrix - other.matrix)

    def __neg__(self) -> "Element":
        return self._wrap(-self.matrix)

    def __matmul__(self, other: "Element") -> "Element":
        return self._wrap(self.matrix @ other.matrix)

    def __mul__(self, scalar) -> "Element":
        return self._wrap(self.matrix * complex(scalar))

    __rmul__ = __mul__


def element(alg: Algebra | None, m) -> Element:
    return Element(alg, linalg.as_matrix(m))


def ambient_element(m) -> Element:
    return Element(None, linalg.as_matrix(m))


def find_identity(alg: Algebra) -> Element | None:
    """The algebra's two-sided identity, or None when there is none."""
    if alg.identity_coords is None:
        return None
    return Element(alg, alg.from_coords(alg.identity_coords))


def is_abelian(alg: Algebra) -> bool:
    return alg.abelian


def random_element(alg: Algebra, rng: np.random.Generator, scale: float = 1.0) -> Element:
    """Element with seeded Gaussian coordinates (real when the field is real)."""
    c = rng.standard_normal(alg.dim)
    if not alg.real_field:
        c = c + 1j * rng.standard_normal(alg.dim)
    return Element(alg, alg.from_coords(scale * c))


@dataclass(frozen=True)
class SubspaceBasis:
    """A linearly independent subset of an algebra, kept with an orthonormal copy."""

    algebra: Algebra
    matrices: tuple[np.ndarray, ...]
    onb: np.ndarray = field(default=None, compare=False)  # (k, n, n)

    def __post_init__(self):
        mats = [linalg.as_matrix(m) for m in self.matrices]
        if not all(self.algebra.contains(m, 1e-8) for m in mats):
            raise NotSubspace("matrix outside the algebra span")
        n = self.algebra.ambient_dim
        onb = _extend_rows(np.zeros((0, n * n), dtype=complex), mats)
        if len(onb) < len(mats):
            raise NotSubspace("matrices are linearly dependent")
        object.__setattr__(self, "onb", onb.reshape(-1, n, n))

    @property
    def dim(self) -> int:
        return len(self.onb)

    def residual(self, m: np.ndarray) -> float:
        rows = self.onb.reshape(self.dim, m.size)
        return float(np.linalg.norm(_project_out(rows, m.ravel())))


def subspace(alg: Algebra, mats) -> SubspaceBasis:
    return SubspaceBasis(alg, tuple(linalg.as_matrix(m) for m in mats))


def ideal_check(alg: Algebra, s: SubspaceBasis, tol: float = MEMBERSHIP_TOL) -> str:
    """Classify s as 'two_sided', 'left_only', 'right_only' or 'not_ideal'."""
    if s.algebra is not alg:
        raise NotSubspace("subspace was built over a different algebra")
    n2 = alg.ambient_dim ** 2
    onb = s.onb.reshape(s.dim, n2)

    def closed(prods: np.ndarray) -> bool:
        prods = prods.reshape(-1, n2)
        resid = np.linalg.norm(_project_out(onb, prods), axis=1)
        return bool(np.all(resid <= tol * (1.0 + np.linalg.norm(prods, axis=1))))

    left = closed(alg.basis[:, None] @ s.onb[None])
    right = closed(s.onb[None] @ alg.basis[:, None])
    if left and right:
        return "two_sided"
    if left:
        return "left_only"
    if right:
        return "right_only"
    return "not_ideal"


@dataclass(frozen=True)
class QuotientAlgebra:
    """Cosets of a two-sided ideal, with multiplication as structure constants."""

    parent: Algebra
    ideal: SubspaceBasis
    coset_basis: np.ndarray  # (k, n, n), orthogonal to the ideal
    mult_table: np.ndarray  # [i, j, l] = <c_i c_j, c_l>
    identity_coset: np.ndarray | None

    @property
    def dim(self) -> int:
        return len(self.coset_basis)

    def coset_coords(self, m: np.ndarray) -> np.ndarray:
        return _pairing(m, self.coset_basis)

    def coset_multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijl->l", x, y, self.mult_table)


def quotient(alg: Algebra, ideal: SubspaceBasis, tol: float = MEMBERSHIP_TOL) -> QuotientAlgebra:
    """Quotient by a proper two-sided ideal; cosets multiply as [a][b] = [ab]."""
    kind = ideal_check(alg, ideal, tol)
    if kind != "two_sided":
        raise NotTwoSided(f"ideal_check returned {kind!r}")
    if ideal.dim >= alg.dim:
        raise NotProper("ideal must have dimension below the algebra's")
    n = alg.ambient_dim
    rows = _extend_rows(ideal.onb.reshape(ideal.dim, n * n), alg.basis, tol)
    coset_basis = rows[ideal.dim :].reshape(-1, n, n)
    table = _product_coords(coset_basis, coset_basis, coset_basis)
    ident = None
    if alg.unital:
        ident = _pairing(alg.identity_matrix, coset_basis)
    return QuotientAlgebra(alg, ideal, coset_basis, table, ident)


def quotient_norm(
    q: QuotientAlgebra,
    a: Element,
    budget: int = 20000,
    seed: int = 0,
    tol: float = 1e-9,
) -> float:
    """Numerical inf over the ideal of ||a + b||, the quotient (coset) norm.

    Nelder-Mead over the real/imaginary ideal coordinates, warm-started at
    zero and at the Frobenius-optimal offset, with 8 seeded random restarts.
    The objective (largest singular value over an affine subspace) is convex.
    """
    if a.algebra is not q.parent:
        raise AlgebraMismatch("element does not belong to the quotient's parent algebra")
    k = q.ideal.dim
    base = a.matrix
    if k == 0:
        return linalg.op_norm(base)
    onb = q.ideal.onb

    def objective(t: np.ndarray) -> float:
        return linalg.op_norm(base + np.tensordot(t[:k] + 1j * t[k:], onb, axes=1))

    frob = -_pairing(base, onb)
    starts = [np.zeros(2 * k), np.concatenate([frob.real, frob.imag])]
    rng = np.random.default_rng(seed)
    scale = linalg.op_norm(base) + 1.0
    for _ in range(8):
        starts.append(rng.standard_normal(2 * k) * scale)

    per_run = max(200, budget // len(starts))
    best = np.inf
    converged = False
    for x0 in starts:
        res = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxfev": per_run, "xatol": 1e-8, "fatol": 1e-10},
        )
        best = min(best, float(res.fun))
        converged |= bool(res.success)
    best = min(best, objective(starts[0]), objective(starts[1]))
    if not converged and best > tol:
        raise BudgetExceeded(f"minimizer did not stabilize within {budget} evaluations")
    return best


def unitize(alg: Algebra) -> Algebra:
    """Adjoin an identity to a non-unital algebra.

    Pairs (a, x) are realized in M_{n+1} as blockdiag(a + x I_n, x), so the
    pair product (a, x)(b, y) = (ab + xb + ya, xy) is plain matrix
    multiplication and the embedding a -> (a, 0) is isometric for the
    ambient operator norm.  Already-unital input is returned unchanged with
    a warning.
    """
    if alg.unital:
        warnings.warn("algebra is already unital; returning it unchanged", stacklevel=2)
        return alg
    n = alg.ambient_dim
    cands = [unitize_embed(b, 0.0, n) for b in alg.basis]
    cands.append(np.eye(n + 1, dtype=complex))
    return _build_algebra(cands, alg.real_field)


def unitize_embed(a, x, n: int | None = None) -> np.ndarray:
    """Realize the pair (a, x) as blockdiag(a + x I_n, x) in M_{n+1}."""
    a = linalg.as_matrix(a)
    n = a.shape[0] if n is None else n
    out = np.zeros((n + 1, n + 1), dtype=complex)
    out[:n, :n] = a + complex(x) * np.eye(n)
    out[n, n] = complex(x)
    return out


def unitization_one_norm(m) -> float:
    """Companion norm ||(a, x)||_1 = ||a|| + |x| on unitization matrices."""
    m = linalg.as_matrix(m)
    n = m.shape[0] - 1
    x = m[n, n]
    a = m[:n, :n] - x * np.eye(n)
    return linalg.op_norm(a) + abs(x)


def complexify(alg: Algebra) -> Algebra:
    """Extend a real algebra to complex scalars; pairs (a, b) become a + i b."""
    if not alg.real_field:
        raise NotRealAlgebra("complexify expects an algebra flagged real")
    return _build_algebra(alg.basis, real_field=False)


def pair_element(calg: Algebra, a, b) -> Element:
    """The element (a, b) = a + i b of a complexified algebra."""
    return Element(calg, linalg.as_matrix(a) + 1j * linalg.as_matrix(b))


def left_regular_matrix(alg: Algebra, m: np.ndarray) -> np.ndarray:
    """Coordinate matrix of left multiplication by m on the algebra."""
    return alg.coords(m @ alg.basis).T


def pair_regular_norm(calg: Algebra, a, b) -> float:
    """Left-regular-representation norm ||S_a + i S_b|| of the pair (a, b).

    A secondary report value: it can differ from the ambient operator norm
    of a + i b on algebras that are not C*-subalgebras.
    """
    m = linalg.as_matrix(a) + 1j * linalg.as_matrix(b)
    return linalg.op_norm(left_regular_matrix(calg, m))


def direct_sum_algebras(a: Algebra, b: Algebra) -> Algebra:
    """Block-diagonal sum; the block norm is the max of the block norms."""
    na, nb = a.ambient_dim, b.ambient_dim
    cands = np.zeros((a.dim + b.dim, na + nb, na + nb), dtype=complex)
    cands[: a.dim, :na, :na] = a.basis
    cands[a.dim :, na:, na:] = b.basis
    return _build_algebra(cands, a.real_field and b.real_field)
