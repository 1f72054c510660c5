"""Characters of abelian algebras, the Gelfand transform, and the GKZ search.

Characters are found from joint eigenvectors of the algebra acting on the
ambient space: each eigenvector v yields a candidate functional
a -> (v* a v) / (v* v), and candidates failing multiplicativity are
dropped.  On a *-closed algebra, a C*-algebra, the characters are the
joint eigenspaces, found by deterministic recursive splitting; otherwise
eigenvectors of seeded generic elements are tried.
Characters are ``states.Functional`` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from . import linalg
from .algebra import (
    Algebra,
    Element,
    SubspaceBasis,
    _dot_each,
    _op_norm_each,
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
from .states import Functional, functional

DEDUPE_RADIUS = 1e-7


@dataclass(frozen=True)
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
    out = []
    for b in alg.basis:
        out.append((b + linalg.adjoint(b)) / 2.0)
        out.append((b - linalg.adjoint(b)) / 2.0j)
    return [h for h in out if np.linalg.norm(h) > 1e-12]


def _candidate_values(alg: Algebra, v: np.ndarray) -> np.ndarray:
    nv = float(np.vdot(v, v).real)
    return alg.basis @ v @ v.conj() / nv


def _is_multiplicative(alg: Algebra, vals: np.ndarray, tol: float) -> bool:
    if float(np.max(np.abs(vals), initial=0.0)) <= tol:
        return False
    return functional(alg, vals).multiplicativity_residual() <= tol


def _joint_eigvec_blocks(alg: Algebra) -> list[np.ndarray]:
    """Deterministic recursive splitting into joint eigenspaces (star-closed case)."""
    n = alg.ambient_dim
    blocks = [np.eye(n, dtype=complex)]
    for h in _hermitian_spanning_set(alg):
        refined = []
        for blk in blocks:
            if blk.shape[1] == 1:
                refined.append(blk)
                continue
            hb = blk.conj().T @ h @ blk
            w, u = np.linalg.eigh((hb + hb.conj().T) / 2.0)
            radius = 1e-8 * (1.0 + float(np.max(np.abs(w))))
            start = 0
            for k in range(1, len(w) + 1):
                if k == len(w) or w[k] - w[k - 1] > radius:
                    refined.append(blk @ u[:, start:k])
                    start = k
        blocks = refined
    return blocks


def characters(alg: Algebra, seed: int = 0, tol: float = 1e-8) -> GelfandSpectrumData:
    """All characters of an abelian complex algebra.

    Raises NonAbelian for non-abelian input, and ComplexFieldRequired for
    real-field algebras (complexify them first).  The list may be empty
    for nilpotent non-unital algebras and shorter than dim(alg) when the
    Gelfand transform has a kernel.

    On *-closed algebras one vector per joint eigenspace gives them all and
    seed is unused; otherwise seed draws up to ten generic elements.
    """
    if alg.real_field:
        raise ComplexFieldRequired("characters are computed over the complex field")
    if not alg.abelian:
        raise NonAbelian("the algebra has non-commuting basis elements")
    found: list[np.ndarray] = []

    def consider(vec: np.ndarray) -> bool:
        vals = _candidate_values(alg, vec)
        if not _is_multiplicative(alg, vals, tol):
            return False
        for known in found:
            if float(np.max(np.abs(vals - known))) <= DEDUPE_RADIUS:
                return False
        found.append(vals)
        return True

    if alg.star_closed:
        for blk in _joint_eigvec_blocks(alg):
            consider(blk[:, 0])
    else:
        rng = np.random.default_rng(seed)
        for _ in range(10):
            c = rng.standard_normal(alg.dim)
            g = alg.from_coords(c)
            _, vecs = np.linalg.eig(g)
            added = False
            for k in range(vecs.shape[1]):
                added |= consider(vecs[:, k])
            if not added and found:
                break
            if len(found) == alg.dim:
                break
    found.sort(key=lambda v: tuple((round(z.real, 6), round(z.imag, 6)) for z in v))
    chars = tuple(Character(alg, tuple(v)) for v in found)
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
    """
    from .spectral import _spectrum_report

    spec = characters(alg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    mats = _random_matrices(alg, rng, samples)
    values = np.array([chi.values for chi in spec.characters]).reshape(len(spec), alg.dim)
    hats = _dot_each(values[None], _pairing_each(mats, alg.basis)[:, None])
    sups = np.abs(hats).max(axis=1, initial=0.0).tolist()
    # spectrum()'s eigenvalues: the diagonal of a triangular sample, else eigvals
    tri = linalg.is_triangular(mats)
    eigs = np.empty(mats.shape[:2], dtype=complex)
    eigs[tri] = np.diagonal(mats[tri], axis1=1, axis2=2)
    if not tri.all():
        eigs[~tri] = np.linalg.eigvals(mats[~tri])
    radii = [_spectrum_report(e, "complex").radius for e in eigs]
    norms = _op_norm_each(mats).tolist()
    kernel_example = None
    if len(spec) == 0:
        kernel_detected = alg.dim > 0
        if kernel_detected:
            kernel_example = Element(alg, alg.basis[0])
    else:
        tmat = np.array([chi.values for chi in spec.characters])
        _, svals, vh = np.linalg.svd(tmat)
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
    row = np.asarray(chi.values, dtype=complex).reshape(1, -1)
    _, _, vh = np.linalg.svd(row)
    null_coords = vh[1:].conj()
    mats = [alg.from_coords(c) for c in null_coords]
    return subspace(alg, mats)


@dataclass(frozen=True)
class GkzOutcome:
    is_character: bool
    witness: Element | None
    phi_at_witness: complex | None
    min_singular_value: float | None
    attempts_used: int


def gkz_witness(
    alg: Algebra,
    phi_values,
    seed: int = 0,
    attempts: int = 200,
    tol: float = 1e-9,
) -> GkzOutcome:
    """Check the character criterion: phi(1) = 1 and phi never zero on invertibles.

    A multiplicative phi is certified as a character.  Otherwise the search
    returns an invertible element of ker(phi) (smallest singular value above
    1e-8 after normalization), which witnesses that phi violates the
    invertibility condition.
    """
    if alg.real_field:
        raise ComplexFieldRequired("the criterion is stated over the complex field")
    if not alg.unital:
        raise NotUnital("the criterion requires a unital algebra")
    vals = np.asarray(phi_values, dtype=complex)
    if vals.shape != (alg.dim,):
        raise ValueError(f"functional needs {alg.dim} basis values")
    phi_one = complex(np.dot(vals, alg.identity_coords))
    if abs(phi_one - 1.0) > 1e-6:
        raise ValueError(f"phi(1) = {phi_one} is not 1")

    if _is_multiplicative(alg, vals, max(tol, 1e-8)):
        return GkzOutcome(True, None, None, None, 0)

    _, _, vh = np.linalg.svd(vals.reshape(1, -1))
    kernel = vh[1:].conj()  # rows span {c : dot(vals, c) = 0}
    rng = np.random.default_rng(seed)
    for attempt in range(1, attempts + 1):
        coef = rng.standard_normal(kernel.shape[0]) + 1j * rng.standard_normal(kernel.shape[0])
        c = coef @ kernel
        m = alg.from_coords(c)
        nrm = linalg.op_norm(m)
        if nrm < 1e-12:
            continue
        m = m / nrm
        svals = np.linalg.svd(m, compute_uv=False)
        if svals[-1] > 1e-8:
            witness = Element(alg, m)
            phi_w = complex(np.dot(vals, alg.coords(m)))
            return GkzOutcome(False, witness, phi_w, float(svals[-1]), attempt)
    raise WitnessNotFound(f"no invertible kernel element found in {attempts} attempts")


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
    """Circulant matrix with first column c: C[i, j] = c[(i - j) mod N]."""
    return sla.circulant(np.asarray(c, dtype=complex))


def cyclic_group_algebra(n: int) -> Algebra:
    """The algebra of N x N circulants: the group algebra of Z/N.

    Basis entries are normalized powers of the cyclic shift; the product
    of circulants is the circulant of the cyclic convolution, and the
    characters evaluate to the discrete Fourier transform.
    """
    if n < 1:
        raise ValueError("the cyclic order must be at least 1")
    # the k-th power of the shift is the circulant of the k-th unit vector
    powers = np.stack([circulant(e) for e in np.eye(n)])
    return Algebra(powers / np.sqrt(n))


def circulant_element(alg: Algebra, c) -> Element:
    """Wrap the circulant of sequence c as an element of the cyclic algebra."""
    return Element(alg, circulant(c))
