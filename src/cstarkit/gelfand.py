"""Characters of abelian algebras, the Gelfand transform, and the GKZ search.

Characters are found from joint eigenvectors of the algebra acting on the
ambient space: each eigenvector v yields a candidate functional
a -> (v* a v) / (v* v), and candidates failing multiplicativity are
dropped.  Both paths use the fixed generic z = sum_k c_k b_k of
``algebra._generic_coords``.  On a *-closed algebra, a C*-algebra, the
characters are the joint eigenspaces, read off one eigendecomposition of
h = (z + z*) / 2: every b_k commutes with h and keeps its eigenspaces, one
stacked product checks that it acts on each as a scalar, and one that
fails is split by the Hermitian spanning set.  Otherwise the candidates
are the eigenvectors of one eig of z.  All are checked for
multiplicativity and deduplicated as one stack, as ``states.Functional``s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (
    Algebra,
    Element,
    SubspaceBasis,
    _dot_each,
    _generic_coords,
    _pairing_each,
    _random_matrices,
    subspace,
)
from .errors import (
    AlgebraMismatch,
    ComplexFieldRequired,
    NonAbelian,
    NotUnital,
    WitnessNotFound,
)
from .spectral import _spectrum_report
from .states import Functional, _basis_products, _multiplicativity_residuals
from .tolerances import (
    DEDUPE_RADIUS,
    EIGENSPACE_TOL,
    INVERTIBLE_TOL,
    MULTIPLICATIVE_TOL,
    UNIT_VALUE_TOL,
    ZERO_NORM,
)

# Random kernel elements gkz_witness draws before it gives up.
GKZ_ATTEMPTS = 200


@dataclass(frozen=True, eq=False)
class Character(Functional):
    """A functional that characters() found multiplicative.

    Adds no behaviour; the name stays because the per-layer benchmark
    traces the span gelfand.Character.multiplicativity_residual.
    """

    def multiplicativity_residual(self) -> float:
        return super().multiplicativity_residual()


@dataclass(frozen=True)
class GelfandSpectrumData:
    algebra: Algebra
    characters: tuple[Character, ...]

    def __len__(self) -> int:
        return len(self.characters)

    def __iter__(self):
        return iter(self.characters)


def _hermitian_spanning_set(alg: Algebra) -> list[np.ndarray]:
    b, adj = alg.basis, alg.basis.conj().swapaxes(1, 2)
    parts = np.stack([(b + adj) / 2.0, (b - adj) / 2.0j], axis=1).reshape(-1, *b.shape[1:])
    return [h for h in parts if np.linalg.norm(h) > ZERO_NORM]


def _generic_hermitian(alg: Algebra) -> np.ndarray:
    """h = (z + z*) / 2 for z = sum_k (cos k + i sqrt(2) sin k) b_k."""
    z = alg.from_coords(_generic_coords(alg.dim)[0])
    return (z + z.conj().T) / 2.0


def _clusters(w: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges [s, e) of ascending eigenvalues split at gaps above
    EIGENSPACE_TOL * (1 + max|w|)."""
    if not len(w):
        return []
    radius = EIGENSPACE_TOL * (1.0 + float(np.max(np.abs(w))))
    cuts = [0, *(np.flatnonzero(np.diff(w) > radius) + 1).tolist(), len(w)]
    return list(zip(cuts[:-1], cuts[1:]))


def _split(blocks: list[np.ndarray], hermitians) -> list[np.ndarray]:
    """Refine each block by the eigenspaces of every Hermitian compressed to it, in turn."""
    for h in hermitians:
        refined = []
        for blk in blocks:
            if blk.shape[1] == 1:
                refined.append(blk)
                continue
            hb = blk.conj().T @ h @ blk
            w, u = np.linalg.eigh((hb + hb.conj().T) / 2.0)
            refined.extend(blk @ u[:, s:e] for s, e in _clusters(w))
        blocks = refined
    return blocks


def _joint_eigenvectors(alg: Algebra) -> np.ndarray:
    """One unit vector from each joint eigenspace of a *-closed commutative algebra, as columns.

    Every b_k commutes with the generic Hermitian element h, so it keeps each
    eigenspace of h, and a one-column eigenspace is a joint eigenvector.  A
    wider one is kept when every b_k compresses to a scalar on it, checked
    for all of them in one stacked product Q* B Q; the rest are split by the
    Hermitian spanning set.
    """
    w, q = np.linalg.eigh(_generic_hermitian(alg))
    spans = _clusters(w)
    if len(spans) == len(w):
        return q
    widths = np.array([e - s for s, e in spans])
    label = np.repeat(np.arange(len(spans)), widths)
    comp = q.conj().T @ alg.basis @ q
    scalar = np.add.reduceat(np.diagonal(comp, axis1=1, axis2=2), [s for s, _ in spans], axis=1)
    scalar = (scalar / widths)[:, label]
    dev = np.abs(comp - scalar[:, :, None] * np.eye(len(w))) * (label[:, None] == label)
    fails = ~(dev <= EIGENSPACE_TOL * (1.0 + np.abs(scalar))[:, :, None]).all(axis=(0, 2))
    vecs = []
    for s, e in spans:
        blocks = _split([q[:, s:e]], _hermitian_spanning_set(alg)) if fails[s] else [q[:, s:e]]
        vecs.extend(blk[:, 0] for blk in blocks)
    return np.stack(vecs, axis=1)


def _candidate_values(alg: Algebra, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row j holds (v* b_k v) / (v* v) over the basis, for column v = vecs[:, j], and
    its products f(b_i b_k) = (b_i* v)* (b_k v) / (v* v): O(c d (n + d)) memory for c columns."""
    bv = alg.basis @ vecs
    nv = np.einsum("ij,ij->j", vecs.conj(), vecs).real
    prods = (vecs.conj().T @ alg.basis).swapaxes(0, 1) @ bv.transpose(2, 1, 0) / nv[:, None, None]
    return np.einsum("ij,kij->jk", vecs.conj(), bv) / nv[:, None], prods


def _multiplicative(vals: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """Which rows of vals are nonzero and multiplicative on basis pairs, given their
    products prods[c, i, j] = f_c(b_i b_j), both within MULTIPLICATIVE_TOL."""
    zero = np.abs(vals).max(axis=1, initial=0.0) <= MULTIPLICATIVE_TOL
    return ~zero & (_multiplicativity_residuals(vals, prods) <= MULTIPLICATIVE_TOL)


def _consider(alg: Algebra, vecs: np.ndarray) -> list[np.ndarray]:
    """In column order, each column's candidate that is a character farther
    than DEDUPE_RADIUS from every one kept before it."""
    vals, prods = _candidate_values(alg, vecs)
    vals = vals[_multiplicative(vals, prods)]
    close = np.abs(vals[:, None] - vals[None]).max(axis=2, initial=0.0) <= DEDUPE_RADIUS
    keep = np.ones(len(vals), dtype=bool)
    # a row is dropped only when close to an earlier kept one
    for i in np.flatnonzero(np.tril(close, -1).any(axis=1)):
        keep[i] = not (close[i, :i] & keep[:i]).any()
    return list(vals[keep])


def _rounded_order(vals: np.ndarray) -> np.ndarray:
    """The stable order of the rows of a (c, m) complex array by the key
    tuple((round(re, 6), round(im, 6)) ...) over each row's entries.

    The entries are numpy floats, whose round is np.round, so one np.round of
    every key and one lexsort, real part before imaginary, give that order.
    """
    parts = np.stack([vals.real, vals.imag], axis=2).reshape(len(vals), 2 * vals.shape[1])
    return np.lexsort(np.round(parts, 6).T[::-1])


def _sorted(found: list) -> list:
    """found, a list of value rows, in _rounded_order."""
    if len(found) < 2:
        return found
    return [found[i] for i in _rounded_order(np.array(found))]


def characters(alg: Algebra) -> GelfandSpectrumData:
    """All characters of an abelian complex algebra.

    Raises NonAbelian for non-abelian input, and ComplexFieldRequired for
    real-field algebras (complexify them first).  The list may be empty
    for nilpotent non-unital algebras and shorter than dim(alg) when the
    Gelfand transform has a kernel.

    On a *-closed algebra one vector per joint eigenspace gives them all;
    otherwise the candidates are the eigenvectors of one eig of the generic
    z = sum_k c_k b_k.  Distinct characters differ at z, as the frequency +k
    of chi(z) - psi(z) = sum_k c_k (chi - psi)(b_k) comes from the term k
    alone (_generic_coords).  A keeps z's eigenspace at chi(z), so where that
    is a line it is chi's joint eigenvector; eig's vectors in a wider one are
    left to the multiplicativity filter.
    """
    if alg.real_field:
        raise ComplexFieldRequired("characters are computed over the complex field")
    if not alg.abelian:
        raise NonAbelian("the algebra has non-commuting basis elements")
    if alg.star_closed:
        vecs = _joint_eigenvectors(alg)
    else:
        z = alg.from_coords(_generic_coords(alg.dim)[0])
        vecs = linalg._lapack(np.linalg.eig, z)[1]
    chars = tuple(Character(alg, v) for v in _sorted(_consider(alg, vecs)))
    return GelfandSpectrumData(alg, chars)


def gelfand_transform(a: Element, spec: GelfandSpectrumData) -> np.ndarray:
    """The vector (chi_1(a), ..., chi_k(a)) over the algebra's characters."""
    if a.algebra is not spec.algebra:
        raise AlgebraMismatch("element and character data belong to different algebras")
    return np.array([chi(a) for chi in spec.characters])


@dataclass(frozen=True)
class IsometryReport:
    """Per-sample sup|a-hat| vs spectral radius vs operator norm."""

    sup_transform: tuple[float, ...]
    spectral_radius: tuple[float, ...]
    op_norm: tuple[float, ...]
    max_hat_minus_radius: float
    max_hat_minus_norm: float
    kernel_detected: bool
    kernel_example: Element | None


def gelfand_isometry_report(
    alg: Algebra, samples: int = 100, seed: int = 0
) -> IsometryReport:
    """Compare sup|a-hat|, r(a) and ||a|| over seeded sample elements.

    sup|a-hat| - r(a) stays within tolerance for every abelian algebra;
    sup|a-hat| - ||a|| vanishes exactly when the algebra is a *-closed
    C*-subalgebra.  A nonzero transform kernel (the radical) is flagged.
    The characters are deterministic; seed draws only the samples.
    """
    spec = characters(alg)
    rng = np.random.default_rng(seed + 1)
    mats = _random_matrices(alg, rng, samples)
    values = np.array([chi.values for chi in spec.characters]).reshape(len(spec), alg.dim)
    hats = _dot_each(values[None], _pairing_each(mats, alg.basis)[:, None])
    sups = np.abs(hats).max(axis=1, initial=0.0).tolist()
    radii = [_spectrum_report(e, "complex").radius for e in linalg.eig_general(mats)]
    norms = linalg._op_norm_each(mats).tolist()
    kernel_example = None
    if len(spec) == 0:
        kernel_detected = alg.dim > 0
        if kernel_detected:
            kernel_example = Element(alg, alg.basis[0])
    else:
        _, svals, vh = np.linalg.svd(values)
        rank = int(np.sum(svals > DEDUPE_RADIUS * max(1.0, svals[0])))
        kernel_detected = rank < alg.dim
        if kernel_detected:
            kernel_example = Element(alg, alg.from_coords(vh[-1].conj()))
    return IsometryReport(
        tuple(sups),
        tuple(radii),
        tuple(norms),
        max((s - r) for s, r in zip(sups, radii)) if sups else 0.0,
        max((s - n) for s, n in zip(sups, norms)) if sups else 0.0,
        kernel_detected,
        kernel_example,
    )


def char_kernel(alg: Algebra, chi: Functional) -> SubspaceBasis:
    """Basis of ker(chi) = {a : chi(a) = 0}, a maximal ideal of codimension 1."""
    if not alg.unital:
        raise NotUnital("character kernels are taken in unital algebras")
    if chi.algebra is not alg:
        raise AlgebraMismatch("character belongs to a different algebra")
    mats = [alg.from_coords(c) for c in _null_coords(chi.values)]
    return subspace(alg, mats)


def _null_coords(values: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning {c : dot(values, c) = 0}, from one SVD of the row."""
    _, _, vh = np.linalg.svd(values.reshape(1, -1))
    return vh[1:].conj()


@dataclass(frozen=True)
class GkzOutcome:
    is_character: bool
    witness: Element | None
    phi_at_witness: complex | None
    min_singular_value: float | None
    attempts_used: int


def gkz_witness(alg: Algebra, phi_values, seed: int = 0) -> GkzOutcome:
    """Check the character criterion: phi(1) = 1 and phi never zero on invertibles.

    A multiplicative phi is certified as a character.  Otherwise the search
    returns an invertible element of ker(phi) (smallest singular value above
    INVERTIBLE_TOL after normalization), which witnesses that phi violates
    the invertibility condition.  WitnessNotFound is raised after
    GKZ_ATTEMPTS random kernel elements.
    """
    if alg.real_field:
        raise ComplexFieldRequired("the criterion is stated over the complex field")
    if not alg.unital:
        raise NotUnital("the criterion requires a unital algebra")
    phi = Functional(alg, phi_values)
    phi_one = complex(np.dot(phi.values, alg.identity_coords))
    if abs(phi_one - 1.0) > UNIT_VALUE_TOL:
        raise ValueError(f"phi(1) = {phi_one} is not 1")

    v = phi.values[None]
    if _multiplicative(v, _basis_products(alg, v, alg.basis))[0]:
        return GkzOutcome(True, None, None, None, 0)

    kernel = _null_coords(phi.values)
    rng = np.random.default_rng(seed)
    for attempt in range(1, GKZ_ATTEMPTS + 1):
        coef = rng.standard_normal(kernel.shape[0]) + 1j * rng.standard_normal(kernel.shape[0])
        c = coef @ kernel
        m = alg.from_coords(c)
        nrm = linalg.op_norm(m)
        if nrm < ZERO_NORM:
            continue
        m = m / nrm
        svals = np.linalg.svd(m, compute_uv=False)
        if svals[-1] > INVERTIBLE_TOL:
            witness = Element(alg, m)
            return GkzOutcome(False, witness, phi(witness), float(svals[-1]), attempt)
    raise WitnessNotFound(f"no invertible kernel element found in {GKZ_ATTEMPTS} attempts")


def conv(x, y) -> np.ndarray:
    """Cyclic convolution (x * y)_n = sum_m x_m y_{n-m mod N}."""
    xv = np.asarray(x, dtype=complex)
    yv = np.asarray(y, dtype=complex)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError("conv expects two sequences of equal length")
    if xv.size == 0:
        return xv
    return np.fft.ifft(np.fft.fft(xv) * np.fft.fft(yv))


def circulant(c) -> np.ndarray:
    """Circulant matrix with first column c: C[i, j] = c[(i - j) mod N].

    One fancy index into c, so the entries are c's values bit for bit.  A
    stack of sequences, shape (..., N), gives the stack of their circulants,
    shape (..., N, N), as scipy.linalg.circulant does.
    """
    c = np.asarray(c, dtype=complex)
    k = np.arange(c.shape[-1])
    return c[..., (k[:, None] - k) % k.size]


def cyclic_group_algebra(n: int) -> Algebra:
    """The algebra of N x N circulants: the group algebra of Z/N.

    Basis entries are normalized powers of the cyclic shift; the product
    of circulants is the circulant of the cyclic convolution, and the
    characters evaluate to the discrete Fourier transform.
    """
    if n < 1:
        raise ValueError("the cyclic order must be at least 1")
    # the k-th power of the shift is the circulant of the k-th unit vector
    return Algebra(circulant(np.eye(n)) / np.sqrt(n))


def circulant_element(alg: Algebra, c) -> Element:
    """Wrap the circulant of sequence c as an element of the cyclic algebra."""
    return Element(alg, circulant(c))
