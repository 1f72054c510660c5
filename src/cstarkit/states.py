"""Positive linear functionals, states, and the GNS construction.

A functional is stored by its values on the algebra's orthonormal basis,
so functionals on proper subalgebras are intrinsic; on the algebra A it is
f(a) = tr(D a) for the density D = sum_l f(b_l) b_l*, which lies in A when
A is *-closed.  So f is positive exactly when D >= 0 (a negative eigenspace's
projection p is a polynomial in D, with f(p) < 0), which spectral's positivity
gate decides on the stack of densities; and with W = V diag(sqrt(w))
over D's kept eigenpairs, f(b* a) = <a W, b W>: [a] -> a W maps the GNS space
onto H = A W in C^n (x) C^r, r = rank D, and the GNS representation is
a -> a (x) I_r on H.  A representation is its blocks with their
multiplicities; a direct sum keeps both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import Algebra, Element, _combine_each, _dot_each, _generic_coords, _pairing_each
from .algebra import _require_members
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    NotPositive,
    NotStarClosed,
    NotUnital,
    NotUnitVector,
)
from .linalg import _unit_scaled_each
from .spectral import _matrix_of, _positivity_each
from .tolerances import (
    CLASSIFY_TOL,
    DENSITY_FACTOR_TOL,
    GRAM_NULL_TOL,
    INJECTIVITY_TOL,
    UNIT_VALUE_TOL,
    UNIT_VECTOR_TOL,
)


@dataclass(frozen=True, eq=False)
class Functional:
    """A linear functional given by its values, a read-only complex (d,) array,
    on the algebra basis; its positivity test, and with it the eigendecomposition
    of its density's Hermitian part (_density_eigh), are cached."""

    algebra: Algebra
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.shape != (self.algebra.dim,):
            raise DimensionMismatch(
                f"functional needs {self.algebra.dim} values, got shape {v.shape}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __call__(self, a) -> complex:
        return complex(np.dot(self.values, self.algebra.coords(_matrix_of(a))))

    def multiplicativity_residual(self) -> float:
        """max |f(b_i b_j) - f(b_i) f(b_j)| over basis pairs, or a certified upper
        bound on it within DENSITY_FACTOR_TOL, from its density factored to its own
        rank (_multiplicativity_bounds): 0 for characters, to rounding."""
        return float(_multiplicativity_bounds(self.algebra, self.values[None])[0])

    @cached_property
    def _positivity(self) -> PositivityReport:
        return _positivities(self.algebra, [self])[0]


@dataclass(frozen=True, eq=False)
class State(Functional):
    """A positive functional of norm 1 (= f(1) on unital algebras)."""

    @property
    def norm(self) -> float:
        return float(self(self.algebra.identity_matrix).real)


@dataclass(frozen=True)
class PositivityReport:
    positive: bool
    min_gram_eigenvalue: float
    hermitian_defect: float


def functional(alg: Algebra, values) -> Functional:
    return Functional(alg, values)


def _trace_values(alg: Algebra, rho) -> np.ndarray:
    """tr(rho b_l) over the basis: the values of the functional a -> tr(rho a)."""
    n = alg.ambient_dim
    return alg.basis.reshape(alg.dim, n * n) @ np.asarray(rho, dtype=complex).T.ravel()


def _multiplicativity_bounds(alg: Algebra, values: np.ndarray) -> np.ndarray:
    """For each row f_c of values, max |f_c(b_i b_j) - f_c(b_i) f_c(b_j)| over basis
    pairs, or an upper bound on it by at most DENSITY_FACTOR_TOL.

    Each density is factored to its own rank by complete pivoting (_pivot_step),
    D_c = sum_t u_t w_t^T + E with ||E||_F <= DENSITY_FACTOR_TOL or n steps, so
    f_c(b_i b_j) = sum_t (w_t^T b_i)(b_j u_t) (_factor_products, c d n^2 work a
    step) within |tr(E b_i b_j)| <= ||E||_F ||b_i||_2 ||b_j||_F = ||E||_F, which
    is added.  Each step is one stack of one product per row, so a row gets the
    same bits alone as in any stack.
    """
    (k, d), n = values.shape, alg.ambient_dim
    if d == 0:
        return np.zeros(k)
    u, w, rest, remainder = _pivot_step(_combine_each(values, alg.basis.conj().swapaxes(1, 2)))
    prods, live = _factor_products(alg.basis, u, w), np.arange(k)
    for _ in range(n - 1):
        more = remainder[live] > DENSITY_FACTOR_TOL
        if not more.any():
            break
        live, rest = live[more], rest[more]
        u, w, rest, remainder[live] = _pivot_step(rest)
        prods[live] += _factor_products(alg.basis, u, w)
    return _multiplicativity_residuals(values, prods) + remainder


def _pivot_step(rest: np.ndarray) -> tuple[np.ndarray, ...]:
    """One step of complete pivoting on each matrix R of a (k, n, n) stack: its column
    u at its largest entry, its row w there over that entry (zero for R = 0), the
    rest R - u w^T and its Frobenius norm."""
    k, n, _ = rest.shape
    rows = np.arange(k)
    p, q = np.divmod(np.abs(rest.reshape(k, n * n)).argmax(axis=1), n)
    pivot = rest[rows, p, q]
    u, w = rest[rows, :, q], rest[rows, p, :] / np.where(pivot == 0, 1.0, pivot)[:, None]
    rest = rest - u[:, :, None] * w[:, None, :]
    return u, w, rest, np.linalg.norm(rest.reshape(k, n * n), axis=1)


def _factor_products(basis: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """prods[c, i, j] = (w_c^T b_i)(b_j u_c) = tr(u_c w_c^T b_i b_j) for the rows u_c and
    w_c of two (c, n) stacks: row stacks w_c^T [b_1 ... b_d] against columns b_j u_c."""
    (d, n, _), m = basis.shape, len(u)
    left = (w[:, None, :] @ basis.swapaxes(0, 1).reshape(n, d * n)).reshape(m, d, n)
    right = (basis.reshape(d * n, n) @ u[:, :, None]).reshape(m, d, n)
    return left @ right.swapaxes(1, 2)


def _multiplicativity_residuals(values: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """max |f_c(b_i b_j) - f_c(b_i) f_c(b_j)| over basis pairs, for each row f_c of
    values and its products prods[c, i, j] = f_c(b_i b_j)."""
    dev = values[:, :, None] * values[:, None, :]
    return np.abs(np.subtract(prods, dev, out=dev)).max(axis=(1, 2), initial=0.0)


def _same_algebra(alg: Algebra, f: Functional) -> None:
    if f.algebra is not alg:
        raise AlgebraMismatch("the functional was built on a different algebra")


def gram_matrix(alg: Algebra, f: Functional) -> np.ndarray:
    """G[i, j] = f(e_i* e_j) = tr(D e_i* e_j), from the products (D e_i*)^T paired with
    each e_j; Hermitian PSD exactly when f is positive on the span."""
    _same_algebra(alg, f)
    if not alg.star_closed:
        raise NotStarClosed("positivity needs a *-closed algebra (e_i* e_j must stay inside)")
    d, n, _ = alg.basis.shape
    prods = alg.basis.conj().reshape(d * n, n) @ _combine_each(f.values[None].conj(), alg.basis).conj()
    return (prods.reshape(1, d, n * n) @ alg.basis.reshape(d, n * n).T)[0]


def is_positive_functional(alg: Algebra, f: Functional) -> PositivityReport:
    """Positivity (f(a*a) >= 0 on the span) via the density's eigenvalues."""
    _same_algebra(alg, f)
    return f._positivity


def _positivities(alg: Algebra, fs: list[Functional]) -> list[PositivityReport]:
    """The positivity report of each functional of fs: the positivity gate
    (spectral._positivity_each) on one stack of their densities D, whose Hermitian
    defect ||D - D*|| / ||D||, least eigenvalue and verdict make the report; each f
    caches its report and its eigenpairs (_density_eigh)."""
    _require_star_closed(alg)
    values = np.array([f.values for f in fs]).reshape(len(fs), alg.dim)
    dens = _combine_each(values, alg.basis.conj().swapaxes(1, 2))
    positive, least, defect, w, v, _ = _positivity_each(dens)
    reports = [PositivityReport(*r) for r in zip(positive.tolist(), least.tolist(), defect.tolist())]
    for f, wf, vf, report in zip(fs, w, v, reports):
        vars(f).update(_density_eigh=(wf, vf), _positivity=report)
    return reports


def _require_star_closed(alg: Algebra) -> None:
    if not alg.star_closed:
        raise NotStarClosed("positivity needs a *-closed algebra (the density must lie in it)")


def _require_positive(report: PositivityReport) -> None:
    """NotPositive naming the failed test, unless the report is positive."""
    if not report.positive:
        if not report.hermitian_defect <= CLASSIFY_TOL:
            test = f"density Hermitian defect {report.hermitian_defect:.3e} exceeds"
        else:
            test = f"min density eigenvalue {report.min_gram_eigenvalue:.3e} is below -||D|| *"
        raise NotPositive(f"{test} {CLASSIFY_TOL:.1e}")


def _positive_density(alg: Algebra, f: Functional) -> tuple[np.ndarray, np.ndarray]:
    """The density's eigenpairs w > GRAM_NULL_TOL * max w once f passes the
    positivity test; NotPositive naming the failed test."""
    _require_positive(is_positive_functional(alg, f))
    w, v = f._density_eigh
    keep = w > GRAM_NULL_TOL * max(float(w[-1]) if w.size else 0.0, 0.0)
    return w[keep], v[:, keep]


def make_state(alg: Algebra, values) -> State:
    """Validate positivity and normalization, then build a State."""
    return _make_states(alg, np.asarray(values, dtype=complex)[None])[0]


def _make_states(alg: Algebra, values: np.ndarray) -> list[State]:
    """make_state of each row of a complex (k, d) stack: each test over every row
    before the next (one density eigh and one f(1) pairing), in make_state's
    order, and the first row that fails a test raises.  A NaN value is
    NoConvergence at the positivity gate, and f(1) = NaN fails its test; an
    empty stack has nothing to test."""
    fs = [State(alg, v) for v in values]
    if not fs:
        return fs
    for report in _positivities(alg, fs):
        _require_positive(report)
    if not alg.unital:
        raise NotUnital("states are normalized against the algebra identity")
    for nrm in _dot_each(values, alg.coords(alg.identity_matrix)).tolist():
        if not abs(nrm - 1.0) <= UNIT_VALUE_TOL:
            raise ValueError(f"functional has f(1) = {nrm}, expected 1")
    return fs


def vector_state(alg: Algebra, x) -> State:
    """The state f(a) = <a x, x> induced by a unit vector x."""
    return _vector_states(alg, np.asarray(x, dtype=complex).ravel()[None])[0]


def _vector_states(alg: Algebra, xs: np.ndarray) -> list[State]:
    """vector_state of each row x of a (k, m) stack."""
    return _make_states(alg, _vector_values(alg, xs))


def _vector_values(alg: Algebra, xs: np.ndarray) -> np.ndarray:
    """The values f(b_l) = <b_l x, x> of the vector state of each row x of a (k, m)
    stack, taken n vectors at a time so that each product stack has the basis's size.

    ||x|| is read on x's power-of-two scaling, so a 1e200 entry gives its norm
    without overflow and a NaN entry gives NaN; either is NotUnitVector.
    """
    n, xs = alg.ambient_dim, np.ascontiguousarray(xs, dtype=complex)
    if xs.shape[1] != n:
        raise DimensionMismatch(f"vector has length {xs.shape[1]}, ambient space is {n}")
    scaled, e = _unit_scaled_each(xs[:, None, :])
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        norms = np.ldexp(np.linalg.norm(scaled[:, 0], axis=1), e[:, 0])
    for nrm in norms.tolist():
        if not abs(nrm - 1.0) <= UNIT_VECTOR_TOL:
            raise NotUnitVector(f"vector norm {nrm:.12f} is not 1")
    values = np.empty((len(xs), alg.dim), dtype=complex)
    for s in range(0, len(xs), n):
        x = xs[s : s + n]
        values[s : s + n] = ((alg.basis @ x[:, None, :, None])[..., 0] @ x.conj()[:, :, None])[..., 0]
    return values


def functional_norm(alg: Algebra, f: Functional) -> float:
    """||f|| = f(1) for positive functionals on unital algebras."""
    if not alg.unital:
        raise NotUnital("the norm formula needs an identity")
    _positive_density(alg, f)
    return float(f(alg.identity_matrix).real)


def cauchy_schwarz_residual(f: Functional, a: Element, b: Element) -> float:
    """f(a*a) f(b*b) - |f(b*a)|^2, non-negative for positive functionals."""
    _positive_density(f.algebra, f)
    ma, mb = a.matrix, b.matrix
    faa = f(linalg.adjoint(ma) @ ma).real
    fbb = f(linalg.adjoint(mb) @ mb).real
    fba = f(linalg.adjoint(mb) @ ma)
    return float(faa * fbb - abs(fba) ** 2)


def norming_state(a: Element) -> State:
    """A state with f(a) = ||a||, from a top eigenvector of the positive element a."""
    if a.algebra is None:
        raise ValueError("norming_state needs an element with an explicit algebra")
    return _norming_states(a.algebra, a.matrix[None])[0]


def _norming_states(alg: Algebra, mats: np.ndarray) -> list[State]:
    """norming_state of each positive member of alg in a (k, n, n) stack."""
    return _make_states(alg, _norming_values(alg, mats))


def _norming_values(alg: Algebra, mats: np.ndarray) -> np.ndarray:
    """The values of _norming_states(alg, mats): the vector states of the members'
    top eigenvectors, from one positivity gate."""
    positive, *_, v, _ = _positivity_each(mats)
    if not positive.all():
        raise NotPositive("a norming element is not positive (Hermitian with spectrum >= 0)")
    return _vector_values(alg, v[:, :, -1])


@dataclass(frozen=True, eq=False)
class Representation:
    """A *-homomorphism into block-diagonal matrices, held as its blocks with
    their multiplicities: block r is a (d, k_r, k_r) array of the images of the
    d basis elements, and pi(a) = (+)_r a_r (x) I_{m_r} on (+)_r C^{k_r} (x) C^{m_r}.
    The multiplicities m_r default to all 1; summands may share one block array."""

    algebra: Algebra
    blocks: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.multiplicities:
            object.__setattr__(self, "multiplicities", (1,) * len(self.blocks))
        if len(self.multiplicities) != len(self.blocks):
            raise ValueError("need one multiplicity per block")

    @property
    def hilbert_dim(self) -> int:
        return sum(b.shape[1] * m for b, m in zip(self.blocks, self.multiplicities))

    def apply(self, a) -> np.ndarray:
        return self._apply_each(_matrix_of(a)[None])[0]

    def _apply_each(self, mats: np.ndarray) -> np.ndarray:
        """The image of each matrix of a (k, n, n) stack, each a_r (x) I_{m_r} in
        place; apply is the stack of one."""
        coords = _pairing_each(mats, self.algebra.basis)
        out = np.zeros((len(mats), self.hilbert_dim, self.hilbert_dim), dtype=complex)
        start = 0
        for b, m in zip(self.blocks, self.multiplicities):
            s, k = len(mats), b.shape[1]
            end = start + k * m
            kron = _combine_each(coords, b)[:, :, None, :, None] * np.eye(m)[:, None, :]
            out[:, start:end, start:end] = kron.reshape(s, k * m, k * m)
            start = end
        return out

    def _distinct_images(self, coords: np.ndarray) -> list[np.ndarray]:
        """The images, without multiplicities, of the elements whose coordinates are the rows
        of an (s, d) array: an (s, m, k, k) stack of the m distinct block arrays of each size k."""
        groups = {}
        for b in {id(b): b for b in self.blocks}.values():
            groups.setdefault(b.shape[1], []).append(b)
        # np.tensordot(coords, blocks, axes=1), without its axis bookkeeping
        s = len(coords)
        return [
            np.dot(coords, np.stack(g, axis=1).reshape(len(g[0]), -1)).reshape(s, len(g), k, k)
            for k, g in groups.items()
        ]

    def _norm_each(self, mats: np.ndarray) -> np.ndarray:
        """The norm of the image of each matrix of a stack: its largest block norm (a
        multiplicity repeats a block's singular values), those of one size in one stack."""
        norms = np.zeros(len(mats))
        for images in self._distinct_images(_pairing_each(mats, self.algebra.basis)):
            s, m, k, _ = images.shape
            block_norms = linalg._op_norm_each(images.reshape(s * m, k, k)).reshape(s, m)
            norms = np.maximum(norms, block_norms.max(axis=1))
        return norms


@dataclass(frozen=True, eq=False)
class GnsRepresentation(Representation):
    """GNS data: coset map to Hilbert coordinates, plus the inducing state."""

    coset_map: np.ndarray = None
    state: Functional = None
    cyclic_vector: np.ndarray | None = None


def gns(alg: Algebra, state: Functional) -> GnsRepresentation:
    """GNS representation of a positive functional: a (x) I_r on H = A W (see the
    module docstring), from one eigendecomposition of its density; the block form
    of Murota, Kanno, Kojima & Kojima, JJIAM 27 (2010), without computing it.

    [b] maps to (b W).ravel().  On all of M_n (alg.dim == n^2, any orthonormal
    basis, either field) H is all of C^n (x) C^r: the one block is the basis
    with multiplicity r, and the cyclic vector is W.ravel().  Otherwise H is
    spanned by the left singular vectors U of the coset matrix whose squared
    singular values, the Gram matrix's eigenvalues, exceed GRAM_NULL_TOL times
    the largest: the block is U* (b (x) I_r) U, the cosets and the cyclic
    vector are compressed by U*.
    """
    wk, vk = _positive_density(alg, state)
    (d, n, _), r = alg.basis.shape, len(wk)
    root = vk * np.sqrt(wk)  # W, n x r
    cosets = (alg.basis @ root).reshape(d, n * r).T
    if d == n * n:
        cyclic = root.ravel() if alg.unital else None
        return GnsRepresentation(alg, (alg.basis,), (r,), cosets, state, cyclic)
    u, s, _ = np.linalg.svd(cosets, full_matrices=False)
    u = u[:, s * s > GRAM_NULL_TOL * np.max(s, initial=0.0) ** 2]
    uh, k = u.conj().T, u.shape[1]
    block = uh @ (alg.basis @ u.reshape(n, r * k)).reshape(d, n * r, k)
    cyclic = uh @ root.ravel() if alg.unital else None
    return GnsRepresentation(alg, (block,), (1,), uh @ cosets, state, cyclic)


def direct_sum_reps(reps) -> Representation:
    """Direct sum of representations of the same algebra: their blocks and
    multiplicities, in order."""
    reps = list(reps)
    if not reps:
        raise ValueError("need at least one representation")
    alg = reps[0].algebra
    if any(r.algebra is not alg for r in reps):
        raise AlgebraMismatch("representations must share one algebra")
    blocks = tuple(b for r in reps for b in r.blocks)
    return Representation(alg, blocks, tuple(m for r in reps for m in r.multiplicities))


def trace_state(alg: Algebra) -> State:
    """The normalized trace f(a) = tr(a) / tr(1)."""
    return make_state(alg, _normalized_trace(alg))


def _normalized_trace(alg: Algebra) -> np.ndarray:
    """The values of trace_state(alg)."""
    if not alg.unital:
        raise NotUnital("the normalized trace needs an identity")
    denom = complex(np.trace(alg.identity_matrix)).real
    return _trace_values(alg, np.eye(alg.ambient_dim)) / denom


def _generic_pair_certificate(rep: Representation) -> tuple[float, float]:
    """rep's *-homomorphism defect at the generic pair z = sum_k c_k b_k, y = sum_k w_k b_k
    (algebra._generic_coords), and the gap ||pi(z)|| / ||z|| - 1 (0 with no norm when every
    block is the basis).  The defect is the largest of ||pi(zy) - pi(z) pi(y)|| / (||pi(zy)|| +
    ||pi(z)|| ||pi(y)||) and ||pi(z*) - pi(z)*|| / (||pi(z*)|| + ||pi(z)||) over the distinct
    blocks: bilinear in (c, w) and conjugate-linear in c, zero only when every pi(b_i b_j) =
    pi(b_i) pi(b_j) and pi(b_i*) = pi(b_i)*."""
    alg = rep.algebra
    c, w = _generic_coords(alg.dim)
    z, y = _combine_each(np.stack([c, w]), alg.basis)
    coords = np.stack([c, w, *_pairing_each(np.stack([z @ y, z.conj().T]), alg.basis)])
    defect, norm = 0.0, linalg._op_norm_each
    for pz, py, pzy, pzs in rep._distinct_images(coords):
        num = norm(np.concatenate([pzy - pz @ py, pzs - pz.conj().swapaxes(1, 2)]))
        if num.any():  # an exactly zero defect takes no norm
            nzy, nzs, nz, ny = norm(np.concatenate([pzy, pzs, pz, py])).reshape(4, -1)
            den = np.concatenate([nzy + nz * ny, nzs + nz])
            defect = max(defect, float(np.max(num[num > 0] / den[num > 0])))
    if all(b is alg.basis for b in rep.blocks):
        return defect, 0.0
    return defect, float(rep._norm_each(z[None])[0] / norm(z[None])[0] - 1.0)


def _gns_residuals(rep: GnsRepresentation) -> tuple[float, float, float]:
    """rep's *-homomorphism defect and max(0, gap) (_generic_pair_certificate), and
    max_l |<pi(b_l) x, x> - f(b_l)| over the basis, complete as f is linear, 0 without a
    cyclic vector x: with x as a k x m matrix X, <pi(b_l) x, x> = tr(b_l X X*)."""
    defect, gap = _generic_pair_certificate(rep)
    if rep.cyclic_vector is None:
        return defect, max(0.0, gap), 0.0
    (block,) = rep.blocks
    x = rep.cyclic_vector.reshape(block.shape[1], -1)
    values = block.reshape(len(block), -1) @ (x @ x.conj().T).T.ravel()
    return defect, max(0.0, gap), float(np.max(np.abs(values - rep.state.values), initial=0.0))


@dataclass(frozen=True)
class UniversalReport:
    representation: Representation
    state_count: int
    star_homomorphism_residual: float
    max_isometry_residual: float
    injective: bool


def _isometry_certificate(rep: Representation) -> tuple[float, float, bool]:
    """rep's *-homomorphism defect, isometry residual and injectivity: whether its distinct
    blocks' (d, sum_r k_r^2) basis images have rank d by INJECTIVITY_TOL.  The residual is
    |gap| at z (_generic_pair_certificate), or 1, the gap at every kernel element, if not."""
    d, distinct = rep.algebra.dim, {id(b): b for b in rep.blocks}.values()
    images = np.concatenate([b.reshape(d, -1) for b in distinct], axis=1)
    s = linalg._lapack(np.linalg.svd, images, compute_uv=False)
    injective = len(s) == d and bool(s[-1] > INJECTIVITY_TOL * s[0])
    defect, gap = _generic_pair_certificate(rep)
    return defect, abs(gap) if injective else 1.0, injective


def universal_rep(alg: Algebra, extra_states=()) -> UniversalReport:
    """Direct sum of GNS representations over a norming family of states.

    The family is the normalized trace, the supplied extra states, and a
    norming state of (b b*)^2 for each basis element b; it is large enough
    to make the sum isometric at finite dimension.  The d norming vectors are
    found as one stack (_require_members, algebra's one membership kernel on each
    square's own power-of-two scaling, then _norming_values), and the trace state
    and the d norming states pass one state test (_make_states), with the checks
    and bits of trace_state(alg) and norming_state(Element(alg, (b b*)^2)) taken
    one at a time.  The report carries the sum's certificates (_isometry_certificate).
    """
    bbs = alg.basis @ alg.basis.conj().swapaxes(1, 2)
    squares = bbs @ bbs
    trace = [_normalized_trace(alg)] if alg.unital else []  # the family's first state
    if trace:
        _require_star_closed(alg)  # trace_state's first test
    _require_members(alg, squares)
    fs = _make_states(alg, np.vstack([*trace, _norming_values(alg, squares)]))
    family = [*fs[: len(trace)], *extra_states, *fs[len(trace) :]]
    total = direct_sum_reps(gns(alg, f) for f in family)
    return UniversalReport(total, len(family), *_isometry_certificate(total))
