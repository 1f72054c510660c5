"""Finite-dimensional subalgebras of complex matrices.

An Algebra is its basis: one stacked orthonormal, multiplication-closed
(d, n, n) array under the trace pairing <x, y> = trace(y* x) (the
Frobenius inner product), plus a flag for the scalar field (real or
complex coefficients).  The unit and the commutativity and *-closure
flags are cached.  A constructor that proves them seeds them: M_n, the
circulants, direct sums and C*(S) are *-closed and hold I_n by their
definition.  Every other algebra derives them from the basis on first
use.  The unit is read off as I_n when I_n lies in the span, which
holds for every algebra generated with the identity; only an algebra
without I_n (a corner, a unitization, a non-unital algebra) solves a
least-squares system for it.  The flags and the ideal test each take
one product or projection of fixed generic elements, O(d n^2 + n^3) in
place of one per basis element or pair: A is commutative when two
generic elements commute, *-closed when a generic z has z* in A, and a
subspace is a left (right) ideal when a x (x a) lies in it for generic a
in A and x in it.  Coordinates, products and left-regular matrices are
matmuls or contractions of the basis.  Whether m lies in a span is read by one
stacked kernel, ||m - P m||_F / ||m||_F on m scaled by its own exact power of
two, so 2^j m reads as m.  The words closure and ideal_check keep an absolute
scale: a product that rounds to near zero must not be judged by its own norm.

Orthonormal bases are grown by one routine, block classical Gram-Schmidt
run twice with one rank decision per block.  The C*-algebra generated by a
set S, with the identity and the adjoints, is its double commutant S'': the
eigenvectors of one generic Hermitian element split it into full matrix
blocks, and only eigenvalues too close to tell apart are closed by words.
Without the identity or the adjoints, or over the reals, the algebra is the
span of the words in S, grown by left-multiplying each newly added basis row
by every generator until no row is added.  A quotient is its parent and its
ideal: its coset basis and unit coset are derived on first use, and
cosets multiply through representatives.  The quotient norm is exact on
*-closed parents and certified by central-cut ellipsoid steps elsewhere.

Each algebra has one frame, a unitary that diagonalises every element when
A is *-closed and commutative (the Gelfand representation C(Delta) in
finite dimension).  C*(S) is seeded with the eigenvectors its closure
took; every other algebra derives its frame on first use from one eigh of
a generic Hermitian combination of its basis.  Nothing here certifies the
frame: gelfand reads characters and samples in it only where it passes
spectral._framed_diagonals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import linalg
from .errors import (
    AlgebraMismatch,
    BudgetExceeded,
    DimensionMismatch,
    NoConvergence,
    NotInAlgebra,
    NotProper,
    NotRealAlgebra,
    NotSubspace,
    NotTwoSided,
)
from .tolerances import ELEMENT_TOL, MEMBERSHIP_TOL, QUOTIENT_NORM_GAP, SIMPLE_SPECTRUM_GAP

# SVD steps that quotient_norm's ellipsoid loop may take.
QUOTIENT_NORM_BUDGET = 20000


def _pairing(m, rows: np.ndarray) -> np.ndarray:
    """<m, r_k> = trace(r_k* m) for each r_k of a (k, n, n) stack; m may be a stack."""
    m = np.asarray(m, dtype=complex)
    k, n = rows.shape[0], rows.shape[-1]
    flat = m.reshape(*m.shape[:-2], n * n)
    return (flat.conj() @ rows.reshape(k, n * n).T).conj()


def _membership_residuals(basis: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """||m - P m||_F / ||m||_F for each m of a (k, n, n) stack, P the projection on
    the span of the orthonormal (d, n, n) basis, with m first scaled by its own
    exact power of two (linalg._unit_scaled_each): no square leaves the float
    range, 2^j m reads as m, and the divisor's floor of 1/2 touches only the zero
    matrix, as any other has a part of modulus at least 1/2.  One product per
    matrix and np.linalg.norm's re.re + im.im give a row the bits of its lone call."""
    k, n = len(mats), mats.shape[-1]
    rows = basis.reshape(len(basis), n * n)
    flat = linalg._unit_scaled_each(mats)[0].reshape(k, 1, n * n)
    both = np.concatenate([flat - (flat.conj() @ rows.T).conj() @ rows, flat])  # rests, then mats
    re, im = both.real, both.imag
    norms = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]
    return norms[:k] / np.maximum(norms[k:], 0.5)


def _extend_rows(rows: np.ndarray, cands, scale=None) -> np.ndarray:
    """rows, a (k, N) array of orthonormal rows, followed by an orthonormal
    basis of what a stack of m candidates of N entries each adds to their span.

    Block classical Gram-Schmidt run twice, one BLAS-3 pass each.  The first
    divides each candidate by its scale, by default its norm, projects the
    block off rows, drops each candidate whose residual is at most
    MEMBERSHIP_TOL, and keeps the right singular vectors of one SVD of the
    rest above that level: the accepted span is that singular subspace.  Every
    candidate lies within the level of it, and a direction of singular value s
    has a candidate whose component along it is at least s / sqrt(m), so the
    span can differ from the one-candidate-at-a-time verdict only for a
    candidate within a factor sqrt(m) of the level.  After one pass a direction
    whose residual is 1e-9 still carries about eps / 1e-9 ~ 2e-7 of the old
    rows, so the second pass (twice is enough: Giraud, Langou, Rozloznik & van
    den Eshof, Numer. Math. 101, 2005) projects the kept rows V off rows again,
    to B = V - D with B B* = I - D D*, and orthonormalises B again by one
    Newton-Schulz step B + (B - B B* B) / 2, which squares that defect.
    """
    cands = np.asarray(cands, dtype=complex).reshape(len(cands), rows.shape[1])
    scale = np.linalg.norm(cands, axis=1) if scale is None else scale
    block = cands[scale > 0] / scale[scale > 0, None]
    block = block - (block @ rows.conj().T) @ rows
    block = block[np.linalg.norm(block, axis=1) > MEMBERSHIP_TOL]
    _, s, vh = linalg._lapack(np.linalg.svd, block, full_matrices=False)
    block = vh[s > MEMBERSHIP_TOL]
    block = block - (block @ rows.conj().T) @ rows
    return np.concatenate([rows, block + (block - (block @ block.conj().T) @ block) / 2.0])


@cache
def _generic_coords(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed coefficients c_k = cos k + i sqrt(2) sin k and w_k = cos((d + 1) k), k = 1..d,
    computed once per d, as read-only arrays.

    Each flag and ideal test below asks whether one vector v is zero, where
    v is conjugate-linear in c, or bilinear in c and w, with vector
    coefficients r built from the basis.  Put a variable t for the angle 1:
    c_k = p e^{ikt} + q e^{-ikt} with p, q = (1 +- sqrt 2) / 2, and
    w_k = cos((d + 1) k t).  Then v(t) is a finite sum of e^{ift} v_f over
    integer frequencies f, and it vanishes for every t only when every r is
    zero:
      - in sum_k conj(c_k) r_k, the frequency -k comes from the term k alone,
        with coefficient p r_k;
      - in sum_{i,j} c_i w_j r_ij (1 <= i <= d), the term (i, j) reaches its
        top frequency i + (d + 1) j with coefficient p r_ij / 2, and these tops
        are distinct.  Every frequency of a term is at most its top in
        modulus, so the nonzero term with the largest top is the only one
        that holds it.  In a commutator, c_i w_j - c_j w_i (i < j) tops at
        i + (d + 1) j as well.
    A cos k, sin k pair would not do: c_i w_j - c_j w_i = sin(j - i) depends
    only on j - i, and a basis can cancel it.  Floating-point entries are
    rational, so v(t) is a Laurent polynomial in e^{it} with algebraic
    coefficients, and e^i is transcendental (Lindemann-Weierstrass): v(1) = 0
    only when v vanishes for every t.  This is the Schwartz-Zippel argument
    with a fixed point in place of a random one.  In rounding, a residual
    within about sqrt(d) of its tolerance may get another verdict than one
    test per basis element would give it.
    """
    k = np.arange(1, d + 1)
    c, w = np.cos(k) + 1j * np.sqrt(2.0) * np.sin(k), np.cos((d + 1) * k)
    c.flags.writeable = w.flags.writeable = False
    return c, w


@dataclass(frozen=True, eq=False)
class Algebra:
    """A subalgebra of M_n: an orthonormal, multiplication-closed (d, n, n) basis.

    The flags, the unit and the frame below are derived on first use, unless
    the constructor wrote them into the cache (_seed_flags).
    """

    basis: np.ndarray
    real_field: bool = False

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def abelian(self) -> bool:
        """Whether z = sum_k c_k b_k and y = sum_k w_k b_k commute (_generic_coords).

        zy - yz = sum_{i<j} (c_i w_j - c_j w_i) [b_i, b_j] vanishes only when
        every pair of basis elements commutes.  Its norm is compared with
        MEMBERSHIP_TOL ||c|| ||w||: one product of two n x n matrices.
        """
        c, w = _generic_coords(self.dim)
        z, y = self.from_coords(c), self.from_coords(w)
        scale = MEMBERSHIP_TOL * np.linalg.norm(c) * np.linalg.norm(w)
        return bool(np.linalg.norm(z @ y - y @ z) <= scale)

    @cached_property
    def star_closed(self) -> bool:
        """Whether z* lies in A for z = sum_k c_k b_k (_generic_coords).

        z* minus its projection on A is sum_k conj(c_k) (b_k* minus its
        projection), zero only when every b_k* lies in A.  One projection of
        one matrix, whose residual is compared with MEMBERSHIP_TOL ||z|| and
        ||z|| = ||c|| in an orthonormal basis.
        """
        z = self.from_coords(_generic_coords(self.dim)[0])
        return self.contains(z.conj().T)

    @cached_property
    def frame(self) -> np.ndarray:
        """The eigenvectors U of h = (z + z*) / 2, z = sum_k c_k b_k over the basis
        scaled by powers of two (_generic_coords), unless the constructor seeded them.

        On a *-closed commutative A the b_k are commuting normal matrices, and
        h takes Re(sum_k c_k chi(b_k)) on the joint eigenvector of the character
        chi, which tells distinct characters apart, so U diagonalises every
        element.  Unchecked: spectral._framed_diagonals certifies it where it
        is read.
        """
        a = linalg._unit_scaled_each(self.basis)[0]
        z = np.tensordot(_generic_coords(self.dim)[0], a, axes=1)
        return linalg._lapack(np.linalg.eigh, (z + z.conj().T) / 2.0)[1]

    @cached_property
    def _eye_coords(self) -> np.ndarray | None:
        """coords(I_n) when I_n lies in A (within MEMBERSHIP_TOL), else None (also for d = 0)."""
        if not self.dim:
            return None
        eye = np.eye(self.ambient_dim, dtype=complex)
        c = self.coords(eye)
        if np.linalg.norm(eye - self.from_coords(c)) / np.linalg.norm(eye) <= MEMBERSHIP_TOL:
            return c
        return None

    @cached_property
    def identity_coords(self) -> np.ndarray | None:
        """Coordinates of the two-sided unit, or None (also for d = 0).

        When I_n lies in A (within MEMBERSHIP_TOL) it is the unit, since
        I_n a = a I_n = a for every a and a unit is unique, so its
        coordinates are read off in O(d n^2) by one projection (_eye_coords).
        Otherwise, with G = sum_k b_k b_k* and H = sum_k b_k* b_k, x in A is
        the unit exactly when x G = G and H x = H:
          - x G = G says x is the identity on range(G), the sum of the
            ranges of the b_k, so x a = a for every a in A;
          - H x = H says x* is the identity on range(H), the sum of the
            ranges of the b_k*, so a x = a for every a in A;
          - the unit satisfies both, and a unit is unique.
        The coordinates of x solve these 2 n^2 equations by least squares.
        """
        d, b = self.dim, self.basis
        if self._eye_coords is not None or not d:
            return self._eye_coords
        adj = b.conj().swapaxes(1, 2)
        g, h = np.sum(b @ adj, axis=0), np.sum(adj @ b, axis=0)
        system = np.concatenate([(b @ g).reshape(d, -1), (h @ b).reshape(d, -1)], axis=1).T
        rhs = np.concatenate([g.ravel(), h.ravel()])
        x, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        if np.linalg.norm(system @ x - rhs) > MEMBERSHIP_TOL * np.linalg.norm(rhs):
            return None
        return x

    @property
    def unital(self) -> bool:
        return self.identity_coords is not None

    def coords(self, m) -> np.ndarray:
        """Coordinates of m, or of each matrix of a stack (valid for members)."""
        return _pairing(m, self.basis)

    def from_coords(self, c) -> np.ndarray:
        return _combine_each(np.asarray(c, dtype=complex)[None], self.basis)[0]

    def membership_residual(self, m: np.ndarray) -> float:
        return float(_membership_residuals(self.basis, _require_ambient(self, np.asarray(m))[None])[0])

    def contains(self, m: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.membership_residual(m) <= tol

    @property
    def identity_matrix(self) -> np.ndarray | None:
        if self.identity_coords is None:
            return None
        return self.from_coords(self.identity_coords)


def _seed_flags(alg: Algebra, star_closed=None, abelian=None, unital=False, frame=None) -> Algebra:
    """alg, with the flags and the frame its constructor proved written into the
    cache that the lazy properties read: a value left None, and the unit
    without unital, stay derived on first use.  unital says that I_n lies in A,
    so the unit is coords(I_n), the bits the lazy path returns once I_n passes
    its test."""
    seeds = {"star_closed": star_closed, "abelian": abelian, "frame": frame}
    vars(alg).update({k: v for k, v in seeds.items() if v is not None})
    if unital:
        c = alg.coords(np.eye(alg.ambient_dim, dtype=complex))
        vars(alg).update(_eye_coords=c, identity_coords=c)
    return alg


def _require_ambient(alg: Algebra, m: np.ndarray) -> np.ndarray:
    """m, after checking that it is an n x n matrix for alg's M_n."""
    n = alg.ambient_dim
    if m.shape[-2:] != (n, n):
        raise DimensionMismatch(
            f"matrix shape {m.shape[-2:]} does not match the algebra's ambient {n} x {n}"
        )
    return m


def _require_members(alg: Algebra, mats: np.ndarray) -> None:
    """Element(alg, m)'s checks on each matrix of a (k, n, n) stack, in one pass:
    DimensionMismatch off alg's M_n, ValueError for an entry that is not finite,
    NotInAlgebra for a membership residual above ELEMENT_TOL."""
    if not np.isfinite(_require_ambient(alg, mats)).all():
        raise ValueError("matrix entries must be finite")
    for r in _membership_residuals(alg.basis, mats).tolist():
        if not r <= ELEMENT_TOL:
            raise NotInAlgebra(f"projection residual {r:.3e} outside the span")


def _words_closure(gens: np.ndarray, include_identity: bool) -> np.ndarray:
    """The (d, n, n) orthonormal basis of the span of the words in the stack gens.

    Each pass left-multiplies the rows added by the previous pass by every g
    in gens, until a pass adds none.  A word of length k + 1 is g times a
    word of length k, so a span that contains gens and is closed under left
    multiplication by them contains every word, and a product of two words
    is a word.  include_identity starts the span with I_n.

    A word g b, b a row of norm 1, is kept when its residual exceeds
    MEMBERSHIP_TOL ||g||_F, the scale of its rounding.  Against its own norm,
    a word that vanishes exactly, as a b* times a row in the kernel of b*,
    would be all rounding and pass.  Each g is first scaled by the exact
    power of two of linalg.unit_scaled, which keeps the span and keeps
    ||g||_F and the words in range at any scale of the input.
    """
    gens = linalg._unit_scaled_each(gens)[0]
    n = gens.shape[-1]
    start = [np.eye(n, dtype=complex)] if include_identity else []
    rows = _extend_rows(np.zeros((0, n * n), dtype=complex), [*start, *gens])
    done = 0  # rows already multiplied by every g
    norms = np.linalg.norm(gens, axis=(1, 2))
    while done < len(rows):
        words = gens[:, None] @ rows[done:].reshape(1, -1, n, n)
        scale = np.repeat(norms, len(rows) - done)
        done, rows = len(rows), _extend_rows(rows, words.reshape(-1, n * n), scale)
    return rows.reshape(-1, n, n)


def _components(joined: np.ndarray) -> np.ndarray:
    """The first index of each index's connected component, for a symmetric
    boolean adjacency matrix or each of a stack of them: a component is the
    indices linked by a chain of edges.  Squaring the reach matrix, the
    adjacency with a true diagonal, t times covers the chains of up to 2^t
    edges."""
    reach = (joined | np.eye(joined.shape[-1], dtype=bool)).astype(float)
    while True:
        grown = (reach @ reach > 0).astype(float)
        if np.array_equal(grown, reach):
            return np.argmax(reach, axis=-1)
        reach = grown


def _clustered_closure(sub: np.ndarray, lead: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """The (d, m, m) basis of the unital algebra generated by the stack sub of
    m x m matrices, block diagonal over components given by lead, the first
    index of each index's component: on a component where every matrix is a
    scalar within thr, its normalised unit alone; on the others together,
    the words basis."""
    m = len(lead)
    same = lead[:, None] == lead
    dev = sub * same - sub[:, lead, lead][:, :, None] * np.eye(m)
    mixed = np.bincount(lead, (np.abs(dev) > thr).any(axis=(0, 2)), minlength=m) > 0
    units = same[np.flatnonzero((lead == np.arange(m)) & ~mixed)]
    blocks = [units[:, :, None] * np.eye(m) / np.sqrt(units.sum(axis=1))[:, None, None]]
    if mixed.any():
        keep = np.flatnonzero(mixed[lead])
        words = _words_closure(sub[:, keep][:, :, keep], True)
        blocks.append(np.zeros((len(words), m, m), dtype=complex))
        blocks[-1][np.ix_(range(len(words)), keep, keep)] = words
    return np.concatenate(blocks)


def _commutant_closure(gens: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool | None] | None:
    """The (d, n, n) orthonormal basis of the unital *-algebra generated by
    gens, k matrices followed by their k adjoints, from the eigenvectors q_i
    of its generic Hermitian h (see algebra_from_generators), the unitary Q
    of those q_i, and whether the algebra is commutative, None when a
    cluster leaves that to the lazy test; None when the basis fails its
    certificate.  Without a cluster it is commutative exactly when every
    component is a single index, as M_k is for k = 1 alone.

    Each g is first scaled exactly by the power of two that brings its
    largest part into [1/2, 1).  The basis lists the components without a
    cluster in the order of their first eigenvalue, each as q_i q_j* in
    row-major order of (i, j), then the clustered components.  Those are
    closed in the coordinates of their q_i, with every entry of the
    compressed generators within the coupling threshold set to 0.
    """
    k, n = len(gens) // 2, gens.shape[-1]
    scaled = linalg._unit_scaled_each(gens)[0]  # g and g* by one power of two
    z = _combine_each(_generic_coords(len(gens))[0][None], scaled)[0]
    w, q = linalg._lapack(np.linalg.eigh, (z + z.conj().T) / 2.0)
    close = np.diff(w) <= SIMPLE_SPECTRUM_GAP * max(-w[0], w[-1])  # neighbours in one cluster
    unit = scaled[:k]
    scale = MEMBERSHIP_TOL * np.linalg.norm(unit, axis=(1, 2))[:, None, None]
    coupling = q.conj().T @ unit @ q  # that of g* is its adjoint
    joined = (np.abs(coupling) > scale).any(axis=0)
    joined[np.arange(n - 1), np.arange(1, n)] |= close
    comp = _components(joined | joined.T)
    clustered = np.zeros(n, dtype=bool)
    clustered[comp[:-1][close]] = True
    clustered = clustered[comp]
    order = np.argsort(comp, kind="stable")
    order = order[~clustered[order]]
    i, j = np.nonzero(comp[order][:, None] == comp[order])
    basis = q.T[order[i], :, None] * q.T.conj()[order[j], None, :]
    abelian = None if clustered.any() else bool(np.array_equal(comp, np.arange(n)))
    if clustered.any():
        c = np.flatnonzero(clustered)
        sub = coupling[:, c[:, None], c]
        sub[np.abs(sub) <= scale] = 0.0
        sub = np.concatenate([sub, sub.conj().swapaxes(1, 2)])
        lead = np.searchsorted(c, comp[c])
        sub = _clustered_closure(sub, lead, np.concatenate([scale, scale]))
        basis = np.concatenate([basis, q[:, c] @ sub @ q[:, c].conj().T])
    certified = np.all(_membership_residuals(basis, unit) <= MEMBERSHIP_TOL)
    return (basis, q, abelian) if certified else None


def algebra_from_generators(
    gens,
    include_identity: bool = True,
    include_adjoints: bool = True,
    real_field: bool = False,
) -> Algebra:
    """Smallest subalgebra of M_n containing the generators.

    S is the generators, plus their adjoints with include_adjoints, and
    include_identity adjoins the identity.

    With both flags and the complex field, A is the C*-algebra C*(S), and
    C*(S) = S'' by von Neumann's double commutant theorem.  One eigh gives
    the generic Hermitian h = (z + z*) / 2 = Q diag(w) Q* of A, z = sum_k c_k s_k
    over S with the coefficients of _generic_coords.  Where w is simple,
    every x in A' commutes with h, so it is diagonal in Q, and it commutes
    with each g in S exactly when x_ii = x_jj wherever (Q* g Q)_ij is not 0.
    A' is then the diagonals constant on the connected components C_r of
    that coupling graph, and A = A'' is the sum of the full matrix algebras
    M_{C_r} in the basis Q, with the orthonormal basis q_i q_j*, i and j in
    one C_r.  This is the simple-spectrum case of the block decomposition of
    Murota, Kanno, Kojima and Kojima (JJIAM 27, 2010).

    An eigenvalue counts as simple when both its gaps exceed
    SIMPLE_SPECTRUM_GAP ||h||.  Rounding turns an eigenvector by about
    eps ||h|| / gap (Davis-Kahan), and the turn shows in Q* g Q as couplings
    of that relative size.  The margin keeps them far below the
    MEMBERSHIP_TOL threshold of the graph; near it they would merge two
    blocks into an algebra too large for any containment check to notice.
    Eigenvalues closer than the margin form a cluster, and a cluster is one
    vertex of the graph.  The projection onto a component is a spectral
    projection of h, so it lies in A; it commutes with S, so it is central,
    and A is the sum of its compressions to the components.  A component
    without a cluster is a full matrix block as above.  On a clustered
    component where every generator is a scalar, A holds the multiples of
    its projection; the other clustered components, as for a (x) I_2 with a
    generic, are closed together by words on the compressed generators.
    One call of _membership_residuals certifies the basis: every generator
    must lie in its span within MEMBERSHIP_TOL.  C*(S) is *-closed and holds
    I_n, and off the clusters its basis is exactly *-closed, so these flags
    and the unit are seeded; commutativity too, where no cluster leaves it
    open.  Q is seeded as the frame (Algebra.frame): where h is simple it
    diagonalises a commutative A, and where h ties two characters the frame
    fails gelfand's certificate.

    The whole closure is grown from words without the identity or the
    adjoints, over the real field, or when the certificate fails; its flags,
    unit and frame are derived on first use.
    """
    mats = [linalg.require_square(linalg.as_matrix(g)) for g in gens]
    if not mats:
        raise ValueError("need at least one generator")
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise DimensionMismatch("generators must all be n x n of equal size")
    if real_field and any(np.max(np.abs(m.imag)) > 0 for m in mats):
        raise NotRealAlgebra("real-field algebra requires real generators")

    if include_adjoints:
        mats += [m.conj().T for m in mats]
    gens = np.stack(mats)
    if n and include_identity and include_adjoints and not real_field:
        closure = _commutant_closure(gens)
        if closure is not None:
            basis, q, abelian = closure
            return _seed_flags(Algebra(basis), True, abelian, unital=True, frame=q)
    return Algebra(_words_closure(gens, include_identity), real_field)


def full_matrix_algebra(n: int) -> Algebra:
    """All of M_n, with the matrix units as orthonormal basis: *-closed, with
    the unit I_n when n >= 1, and commutative for n <= 1 alone."""
    alg = Algebra(np.eye(n * n, dtype=complex).reshape(n * n, n, n))
    return _seed_flags(alg, True, n <= 1, unital=n >= 1)


@dataclass(frozen=True, eq=False)
class Element:
    """A matrix tagged with its owning algebra (None means ambient M_n)."""

    algebra: Algebra | None
    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.require_square(linalg.as_matrix(self.matrix))
        object.__setattr__(self, "matrix", m)
        if self.algebra is not None:
            _require_members(self.algebra, m[None])

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
    m = alg.identity_matrix
    return None if m is None else Element(alg, m)


def random_element(alg: Algebra, rng: np.random.Generator) -> Element:
    """The projection on A of a seeded Gaussian matrix (real when the field is real)."""
    return Element(alg, _random_matrices(alg, rng, 1)[0])


# Stacked sample kernels; a single call is the stack of one.  A stack is
# processed as one product per matrix (vector-matrix or vector-vector), so
# each matrix of a stack has the bits it has alone; one matrix-matrix
# product over the stack would round differently.


def _random_matrices(alg: Algebra, rng: np.random.Generator, k: int) -> np.ndarray:
    """The projections P_A(G) on A of k seeded Gaussian matrices G, as (k, n, n).

    The orthogonal projection is the same whatever orthonormal basis
    computes it, so the samples depend on the algebra and the seed alone.
    One draw of (k, 2, n, n) normals takes, for each G in turn, the real
    parts and then the imaginary parts; a real field draws a real G,
    (k, n, n).  On the matrix units of M_n, P_A(G) is G bit for bit.
    """
    n = alg.ambient_dim
    if alg.real_field:
        g = rng.standard_normal((k, n, n)).astype(complex)
    else:
        re_im = rng.standard_normal((k, 2, n, n))
        g = re_im[:, 0] + 1j * re_im[:, 1]
    return _combine_each(_pairing_each(g, alg.basis), alg.basis)


def _combine_each(c: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """tensordot(c_i, mats, axes=1) for each row c_i of a (k, d) array."""
    d, p, q = mats.shape
    return (c[:, None, :] @ mats.reshape(d, p * q)).reshape(len(c), p, q)


def _pairing_each(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """_pairing(m_i, rows) for each matrix m_i of a (k, n, n) stack."""
    k, n2 = len(m), m.shape[-1] ** 2
    return (m.reshape(k, 1, n2).conj() @ rows.reshape(len(rows), n2).T).conj()[:, 0]


def _dot_each(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.dot(x_i, y_i) over the broadcast leading axes of two vector stacks."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """A linearly independent subset of an algebra, kept with an orthonormal copy."""

    algebra: Algebra
    matrices: tuple[np.ndarray, ...]
    onb: np.ndarray = field(init=False)  # (k, n, n), set from matrices

    def __post_init__(self):
        alg, n = self.algebra, self.algebra.ambient_dim
        mats = tuple(_require_ambient(alg, linalg.as_matrix(m)) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        scaled = linalg._unit_scaled_each(np.array(mats, dtype=complex).reshape(-1, n, n))[0]
        if not np.all(_membership_residuals(alg.basis, scaled) <= ELEMENT_TOL):
            raise NotSubspace("matrix outside the algebra span")
        onb = _extend_rows(np.zeros((0, n * n), dtype=complex), scaled)
        if len(onb) < len(mats):
            raise NotSubspace("matrices are linearly dependent")
        object.__setattr__(self, "onb", onb.reshape(-1, n, n))

    @property
    def dim(self) -> int:
        return len(self.onb)


def subspace(alg: Algebra, mats) -> SubspaceBasis:
    return SubspaceBasis(alg, tuple(mats))


def ideal_check(alg: Algebra, s: SubspaceBasis) -> str:
    """Classify s as 'two_sided', 'left_only', 'right_only' or 'not_ideal'.

    s is a left ideal when a x lies in s and a right ideal when x a does, for
    a = sum_i c_i b_i in A and x = sum_j w_j e_j in s (e_j its orthonormal
    basis, coefficients from _generic_coords).  The residual of a x off s is
    sum_{i,j} c_i w_j (b_i e_j minus its projection), zero only when every
    b_i e_j lies in s.  Each residual is compared with MEMBERSHIP_TOL ||c|| ||w||:
    two products of n x n matrices, not one per pair of basis elements.
    """
    if s.algebra is not alg:
        raise NotSubspace("subspace was built over a different algebra")
    c, w = _generic_coords(alg.dim)
    w = w[: s.dim]
    a, x = alg.from_coords(c), _combine_each(w[None], s.onb)[0]
    prods = np.stack([a @ x, x @ a])
    resid = np.linalg.norm(prods - _combine_each(_pairing(prods, s.onb), s.onb), axis=(1, 2))
    left, right = resid <= MEMBERSHIP_TOL * np.linalg.norm(c) * np.linalg.norm(w)
    if left and right:
        return "two_sided"
    if left:
        return "left_only"
    if right:
        return "right_only"
    return "not_ideal"


@dataclass(frozen=True, eq=False)
class QuotientAlgebra:
    """The cosets of a two-sided ideal, held as the parent and the ideal."""

    parent: Algebra
    ideal: SubspaceBasis

    @cached_property
    def coset_basis(self) -> np.ndarray:
        """(k, n, n) orthonormal rows that complete the ideal's basis to the parent's span."""
        n, dim = self.parent.ambient_dim, self.ideal.dim
        rows = _extend_rows(self.ideal.onb.reshape(dim, n * n), self.parent.basis)
        return rows[dim:].reshape(-1, n, n)

    @property
    def dim(self) -> int:
        return len(self.coset_basis)

    @cached_property
    def identity_coset(self) -> np.ndarray | None:
        """Coset coordinates of the parent's unit, or None when it has none."""
        if not self.parent.unital:
            return None
        return _pairing(self.parent.identity_matrix, self.coset_basis)

    def coset_coords(self, m) -> np.ndarray:
        return _pairing(_require_ambient(self.parent, np.asarray(m)), self.coset_basis)

    def coset_multiply(self, x, y) -> np.ndarray:
        """Coset coordinates of (sum_i x_i c_i)(sum_j y_j c_j), a product of representatives."""
        x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise DimensionMismatch(f"coset coordinates {x.shape}, {y.shape}, not ({self.dim},)")
        c = self.coset_basis
        return self.coset_coords(np.tensordot(x, c, axes=1) @ np.tensordot(y, c, axes=1))


def quotient(alg: Algebra, ideal: SubspaceBasis) -> QuotientAlgebra:
    """Quotient by a proper two-sided ideal; cosets multiply as [a][b] = [ab]."""
    kind = ideal_check(alg, ideal)
    if kind != "two_sided":
        raise NotTwoSided(f"ideal_check returned {kind!r}")
    if ideal.dim >= alg.dim:
        raise NotProper("ideal must have dimension below the algebra's")
    return QuotientAlgebra(alg, ideal)


def quotient_norm(q: QuotientAlgebra, a: Element) -> float:
    """The quotient (coset) norm ||a + I|| = inf over b in I of ||a + b||.

    When the parent is *-closed it is a finite-dimensional C*-algebra, so
    every closed two-sided ideal is I = A p for a central projection p, and
    the trace-pairing projection of a onto I is P_I a = a p.  The value is
    then exact, ||a + I|| = ||a - P_I a|| = ||a (1 - p)||:
      - for b in I, (a + b)(1 - p) = a (1 - p), since b = b p;
      - ||1 - p|| <= 1, so ||a + b|| >= ||(a + b)(1 - p)|| = ||a (1 - p)||;
      - equality holds at b = -a p, which lies in I.

    Otherwise central-cut ellipsoid steps minimise the convex
    f(t) = ||a + sum_k t_k e_k|| over x = (Re t, Im t), e_k the ideal's
    orthonormal basis, on a scaled exactly by the power of two that brings
    ||a|| into [1/2, 1), so 2^j a gets 2^j times the value of a.  They start
    from the ball of radius sqrt(n) f(t_F) around t_F = -P_I a, which holds
    every minimiser t*: ||t* - t_F|| = ||P_I (a + b*)||_F <= ||a + b*||_F
    <= sqrt(n) f(t*) <= sqrt(n) f(t_F), as b* = sum_k t*_k e_k lies in I.
    Each step's SVD at the centre c gives the subgradient
    g = (Re u* e_k v, -Im u* e_k v) from the top singular pair (u, v).  The
    least f seen bounds the minimum above and f(c) - sqrt(g' P g) below, as
    f >= f(c) + g.(x - c) on the ellipsoid (x - c)' P^-1 (x - c) <= 1 that
    holds every minimiser.  The upper bound is returned once the bracket is
    at most QUOTIENT_NORM_GAP wide in scaled units; BudgetExceeded names the
    bracket after QUOTIENT_NORM_BUDGET steps, and NoConvergence names it
    when g' P g <= 0 for a nonzero g, as only rounding leaves P indefinite.
    """
    if a.algebra is not q.parent:
        raise AlgebraMismatch("element does not belong to the quotient's parent algebra")
    k = q.ideal.dim
    base = a.matrix
    if k == 0:
        return linalg.op_norm(base)
    onb = q.ideal.onb
    frob = -_pairing(base, onb)
    if q.parent.star_closed:
        return linalg.op_norm(base + np.tensordot(frob, onb, axes=1))
    e = np.frexp(np.abs(base.view(float)).max())[1]
    e += np.frexp(linalg.op_norm(linalg.ldexp(base, -e)))[1]
    n, m, rows, scaled = base.shape[0], 2 * k, onb.reshape(k, -1), linalg.ldexp(base, -e)

    def value_and_subgradient(x: np.ndarray) -> tuple[float, np.ndarray]:
        t = x[:k] + 1j * x[k:]
        u, s, vh = linalg._lapack(np.linalg.svd, scaled + (t @ rows).reshape(n, n))
        z = rows @ np.outer(u[:, 0], vh[0]).ravel().conj()  # u* e_k v, as vh[0] = v*
        return float(s[0]), np.concatenate([z.real, -z.imag])

    c = np.ldexp(np.concatenate([frob.real, frob.imag]), -e)
    f, g = value_and_subgradient(c)
    p = np.eye(m) * (n * f * f)
    upper, lower = f, 0.0
    for _ in range(QUOTIENT_NORM_BUDGET):
        pg = p @ g
        gpg = float(g @ pg)
        if gpg > 0.0 or not g.any():  # a zero g proves f(c) minimal
            lower = max(lower, f - math.sqrt(gpg))
        if upper - lower <= QUOTIENT_NORM_GAP:
            return math.ldexp(upper, int(e))  # OverflowError beyond the float range
        if not gpg > 0.0:  # rounding has left p indefinite, so no bound is certified
            lo, hi = np.ldexp([lower, upper], e)
            raise NoConvergence(f"quotient norm ellipsoid indefinite at bracket [{lo:.17g}, {hi:.17g}]")
        pg /= math.sqrt(gpg)
        c = c - pg / (m + 1)
        # elementwise on a symmetric p and an outer product, so p stays exactly symmetric
        p = m * m / (m * m - 1.0) * (p - 2.0 / (m + 1) * np.outer(pg, pg))
        f, g = value_and_subgradient(c)
        upper = min(upper, f)
    bracket = f"[{np.ldexp(lower, e):.17g}, {np.ldexp(upper, e):.17g}]"
    raise BudgetExceeded(f"quotient norm bracket {bracket} open after {QUOTIENT_NORM_BUDGET} steps")


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
    rows = np.zeros((alg.dim, n + 1, n + 1), dtype=complex)
    rows[:, :n, :n] = alg.basis  # unitize_embed(b, 0), still orthonormal
    rows = _extend_rows(rows.reshape(alg.dim, -1), np.eye(n + 1, dtype=complex)[None])
    return Algebra(rows.reshape(-1, n + 1, n + 1), alg.real_field)


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
    return Algebra(alg.basis)


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
    """Block-diagonal sum; the block norm is the max of the block norms.

    A (+) B is *-closed (commutative) exactly when A and B both are, read off
    the summands' flags.  I_n lies in it exactly when each summand holds its
    own identity, which seeds the unit.  A summand whose unit is not its
    identity (a corner, or {0}, which has none) leaves the unit to the lazy
    path: A (+) {0} has the unit (1_A, 0), which is not I_n.
    """
    na, nb = a.ambient_dim, b.ambient_dim
    cands = np.zeros((a.dim + b.dim, na + nb, na + nb), dtype=complex)
    cands[: a.dim, :na, :na] = a.basis
    cands[a.dim :, na:, na:] = b.basis
    alg = Algebra(cands, a.real_field and b.real_field)
    unital = a._eye_coords is not None and b._eye_coords is not None
    return _seed_flags(alg, a.star_closed and b.star_closed, a.abelian and b.abelian, unital)
