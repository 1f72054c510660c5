"""Characters of abelian algebras, the Gelfand transform, and the GKZ criterion.

A *-closed commutative algebra is C(Delta): one unitary U diagonalises every
element, and U is the algebra's frame (Algebra.frame), the Q its closure
took or one eigh of a generic Hermitian combination of its basis.  When
every U* b_k U is certified diagonal, frame vector i is a joint eigenvector
and the diagonal entries (U* b_k U)_ii over k are its character's values;
such an algebra is a C*-algebra with exactly dim characters, and those are
the dim distinct nonzero columns.  Where the frame's Hermitian ties two
characters, as the closure's can, they stay mixed in U and the certificate
or the count fails; the candidates are then taken from the joint
eigenspaces that the Hermitian spanning set splits off.  An algebra that is
not *-closed takes its candidates from the eigenvectors of one eig of the
fixed generic z = sum_k c_k b_k of ``algebra._generic_coords``, at whose
values distinct characters differ, and keeps the multiplicative ones, which
must be linearly independent.  All are ``states.Functional``s, deduplicated as one stack.

The GKZ check draws no random numbers: its one witness is z - (phi(z) / phi(1)) 1.

The isometry report checks sup|a-hat| = r(a) = ||a|| on seeded samples.
Samples of a commutative *-algebra commute and are normal, so the
algebra's frame diagonalises them all, and each sample keeps the diagonal
as its spectrum, and its largest modulus as r(a), only when its
off-diagonal rest is certified small; the others take a general eig.  The
frame, the multiplicativity residuals and the norms (one stacked Gram
eigvalsh, linalg._op_norm_each) are computed apart, so a wrong frame fails
a check instead of agreeing with itself.  The residuals are absolute gaps,
so a missing character fails them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import (
    Algebra,
    Element,
    SubspaceBasis,
    _components,
    _dot_each,
    _generic_coords,
    _pairing_each,
    _random_matrices,
    _seed_flags,
    subspace,
)
from .errors import (
    AlgebraMismatch,
    ComplexFieldRequired,
    NoConvergence,
    NonAbelian,
    NotUnital,
    WitnessNotFound,
)
from .spectral import _framed_diagonals, _joint_spectra, _spectrum_report
from .states import (
    Functional,
    _factor_products,
    _multiplicativity_bounds,
    _multiplicativity_residuals,
)
from .tolerances import (
    DEDUPE_RADIUS,
    EIGENSPACE_TOL,
    INVERTIBLE_TOL,
    MULTIPLICATIVE_TOL,
    UNIT_VALUE_TOL,
    ZERO_NORM,
)

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

    @cached_property
    def values(self) -> np.ndarray:
        """The characters' values on the basis as one read-only complex (c, d)
        array, row c holding characters[c].values."""
        v = np.array([chi.values for chi in self.characters], dtype=complex)
        v = v.reshape(len(self.characters), self.algebra.dim)
        v.flags.writeable = False
        return v

    def multiplicativity_residuals(self) -> np.ndarray:
        """Each character's multiplicativity_residual(), bit for bit, from one stack."""
        return _multiplicativity_bounds(self.algebra, self.values)


def _hermitian_spanning_set(alg: Algebra) -> list[np.ndarray]:
    b, adj = alg.basis, alg.basis.conj().swapaxes(1, 2)
    parts = np.stack([(b + adj) / 2.0, (b - adj) / 2.0j], axis=1).reshape(-1, *b.shape[1:])
    return [h for h in parts if np.linalg.norm(h) > ZERO_NORM]


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


def _candidate_values(alg: Algebra, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row j holds (v* b_k v) / (v* v) over the basis, for column v = vecs[:, j], and
    its products f(b_i b_k) from its density's exact factor u = v, w = conj(v) / (v* v)
    (_factor_products): O(c d (n + d)) memory for c columns."""
    nv = np.einsum("ij,ij->j", vecs.conj(), vecs).real
    vals = np.einsum("ij,kij->jk", vecs.conj(), alg.basis @ vecs) / nv[:, None]
    return vals, _factor_products(alg.basis, vecs.T, (vecs.conj() / nv).T)


def _consider(alg: Algebra, vecs: np.ndarray) -> list[np.ndarray]:
    """The characters among the columns' candidates, those nonzero and multiplicative
    on basis pairs within MULTIPLICATIVE_TOL, in column order, one per cluster (_distinct)."""
    vals, prods = _candidate_values(alg, vecs)
    nonzero = np.abs(vals).max(axis=1, initial=0.0) > MULTIPLICATIVE_TOL
    return _distinct(vals[nonzero & (_multiplicativity_residuals(vals, prods) <= MULTIPLICATIVE_TOL)])


def _distinct(vals: np.ndarray) -> list[np.ndarray]:
    """In order, the first row of vals of each cluster: the rows linked by a
    chain of max-norm gaps, each within DEDUPE_RADIUS (algebra._components)."""
    if len(vals) < 2:
        return list(vals)
    close = np.abs(vals[:, None] - vals[None]).max(axis=2, initial=0.0) <= DEDUPE_RADIUS
    return list(vals[_components(close) == np.arange(len(vals))])


def _rounded_order(vals: np.ndarray) -> np.ndarray:
    """The stable order of the rows of a (c, m) complex array by the key
    tuple((round(re, 6), round(im, 6)) ...) over each row's entries.

    The entries are numpy floats, whose round is np.round, so one np.round of
    every key and one lexsort, real part before imaginary, give that order.
    A part from max / 1e6 on, where np.round overflows, is an integer: its own key.
    """
    parts = np.stack([vals.real, vals.imag], axis=2).reshape(len(vals), 2 * vals.shape[1])
    fine = np.abs(parts) < np.finfo(float).max / 1e6
    return np.lexsort(np.where(fine, np.round(np.where(fine, parts, 0.0), 6), parts).T[::-1])


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

    A *-closed algebra is a C*-algebra with exactly dim characters, read off
    its frame (Algebra.frame) when _characters_in_frame certifies it.  Where
    the frame's Hermitian ties two characters, as the closure's can, or
    rounding ties them on a basis built for it, the candidates are taken
    again from the joint eigenspaces into which the Hermitian spanning set
    splits the ambient space (_split).

    Any other algebra takes its candidates from one eig of the generic
    z = sum_k c_k b_k.  Distinct characters differ at z, as the frequency +k
    of chi(z) - psi(z) = sum_k c_k (chi - psi)(b_k) comes from the term k
    alone (_generic_coords).  A keeps z's eigenspace at chi(z), so where that
    is a line it is chi's joint eigenvector; eig's vectors in a wider one are
    left to the multiplicativity filter.  A defective eigenvalue of z scatters
    eig's vectors past DEDUPE_RADIUS, and each may pass the filter; distinct
    characters are linearly independent, so then NoConvergence is raised.
    """
    if alg.real_field:
        raise ComplexFieldRequired("characters are computed over the complex field")
    if not alg.abelian:
        raise NonAbelian("the algebra has non-commuting basis elements")
    if not alg.star_closed:
        z = alg.from_coords(_generic_coords(alg.dim)[0])
        found = _consider(alg, linalg._lapack(np.linalg.eig, z)[1])
        if found and (rank := _rank(np.array(found))) < len(found):
            raise NoConvergence(f"characters: {len(found)} candidates from eig of z, of rank {rank}")
    else:
        found = _characters_in_frame(alg, alg.frame)
        if found is None:
            blocks = _split([np.eye(alg.ambient_dim, dtype=complex)], _hermitian_spanning_set(alg))
            found = _consider(alg, np.stack([blk[:, 0] for blk in blocks], axis=1))
    return GelfandSpectrumData(alg, tuple(Character(alg, v) for v in _sorted(found)))


def _rank(values: np.ndarray) -> int:
    """The number of singular values of values above DEDUPE_RADIUS * max(1, s_0)."""
    svals = np.linalg.svd(values, compute_uv=False)
    return int(np.sum(svals > DEDUPE_RADIUS * max(1.0, svals[0])))


def _characters_in_frame(alg: Algebra, u: np.ndarray) -> list[np.ndarray] | None:
    """The characters read off the frame u; None unless u is certified and
    gives exactly dim characters.

    When every U* b_k U is diagonal to within its certificate
    (spectral._framed_diagonals), frame vector i is a joint eigenvector, and
    the diagonal entries (U* b_k U)_ii over k are its character's values.
    Zero columns, from a kernel that every element kills, are no character.
    """
    diags, held = _framed_diagonals(alg.basis, u)
    if not held.all():
        return None
    vals = diags.T
    found = _distinct(vals[np.abs(vals).max(axis=1, initial=0.0) > MULTIPLICATIVE_TOL])
    return found if len(found) == alg.dim else None


def gelfand_transform(a: Element, spec: GelfandSpectrumData) -> np.ndarray:
    """The vector (chi_1(a), ..., chi_k(a)) over the algebra's characters.

    One dot product of each row of spec.values with a's coordinates, as
    chi(a) takes it, on a scaled by the power of two 2^-e that brings its
    largest real or imaginary part into [1/2, 1), then scaled back by 2^e.
    The scaling is exact, and keeps in range the coordinate sqrt(k) chi(a)
    on a cluster's unit P / sqrt(k).
    """
    if a.algebra is not spec.algebra:
        raise AlgebraMismatch("element and character data belong to different algebras")
    scaled, e = linalg._unit_scaled_each(a.matrix[None])
    return linalg.ldexp(_dot_each(spec.values, spec.algebra.coords(scaled)), e[0, 0])


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

    max |sup|a-hat| - r(a)| stays within tolerance for every abelian algebra
    whose characters were all found (a missing one leaves sup|a-hat| below
    r(a), and the gap shows); max |sup|a-hat| - ||a||| vanishes exactly when
    the algebra is a *-closed C*-subalgebra.  A nonzero transform kernel (the
    radical) is flagged.  The characters are deterministic; seed draws only
    the samples.

    The samples are one stack.  Their eigenvalues are read in the algebra's
    frame (Algebra.frame, spectral._joint_spectra), each sample certified by
    its off-diagonal rest E, and a sample mixed by a tie in the frame from
    eig_general, as every sample of an algebra that is not *-closed, which
    derives no frame.  A certified sample's
    r(a) is max_i |d_i| over its framed diagonal d: a being normal, each d_i
    lies within ||E||_2 of an eigenvalue and each eigenvalue within ||E||_2
    of some d_i (Bauer-Fike), so the maximum is r(a) within ||E||_2, where
    clustering would average distinct eigenvalues closer than
    CLUSTER_SCALE (1 + r(a)).  Only the samples that took eig_general are
    clustered, in one stack, for r(a) as spectrum(a).radius gives it: a
    defective sample's eigenvalues scatter, and their mean is the better
    estimate.
    The op norms are an independent stack of Gram eigenvalues
    (linalg._op_norm_each).  The kernel is decided from the singular values
    of the character values, and the full SVD runs only for a kernel example.
    """
    spec = characters(alg)
    rng = np.random.default_rng(seed + 1)
    mats = _random_matrices(alg, rng, samples)
    values = spec.values
    hats = _dot_each(values[None], _pairing_each(mats, alg.basis)[:, None])
    sups = np.abs(hats).max(axis=1, initial=0.0).tolist()
    if alg.star_closed:
        eigs, held = _joint_spectra(mats, alg.frame)
    else:
        eigs, held = linalg.eig_general(mats), np.zeros(len(mats), dtype=bool)
    radii = np.hypot(eigs.real, eigs.imag).max(axis=1, initial=0.0)  # Python's complex abs
    if not held.all():
        radii[~held] = [rep.radius for rep in _spectrum_report(eigs[~held], "complex")]
    radii = radii.tolist()
    norms = linalg._op_norm_each(mats).tolist()
    kernel_example = None
    if len(spec) == 0:
        kernel_detected = alg.dim > 0
        if kernel_detected:
            kernel_example = Element(alg, alg.basis[0])
    else:
        kernel_detected = _rank(values) < alg.dim
        if kernel_detected:
            kernel_example = Element(alg, alg.from_coords(np.linalg.svd(values)[2][-1].conj()))
    return IsometryReport(
        tuple(sups),
        tuple(radii),
        tuple(norms),
        max((abs(s - r) for s, r in zip(sups, radii)), default=0.0),
        max((abs(s - n) for s, n in zip(sups, norms)), default=0.0),
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


def gkz_witness(alg: Algebra, phi_values) -> GkzOutcome:
    """Check the character criterion: phi(1) = 1 and phi never zero on invertibles.

    A phi that is no character has phi(z) outside sigma(z) for z off a proper
    algebraic set, as the generic z of ``algebra._generic_coords`` is, so
    x = z - (phi(z) / phi(1)) 1 is invertible in ker(phi): x / ||x|| is the
    witness when its smallest singular value exceeds INVERTIBLE_TOL.  A
    character fails that test, as chi(z) lies in sigma(z); then the product
    check of phi / phi(1) certifies a character, and any other raises WitnessNotFound.
    """
    if alg.real_field:
        raise ComplexFieldRequired("the criterion is stated over the complex field")
    if not alg.unital:
        raise NotUnital("the criterion requires a unital algebra")
    phi = Functional(alg, phi_values)
    phi_one = complex(np.dot(phi.values, alg.identity_coords))
    if abs(phi_one - 1.0) > UNIT_VALUE_TOL:
        raise ValueError(f"phi(1) = {phi_one} is not 1")

    # phi(1) z - phi(z) 1 times 2^-k, on phi's values scaled by 2^-k, stays finite
    c, e, s = _generic_coords(alg.dim)[0], alg.identity_coords, linalg.unit_scaled(phi.values)
    a, b = np.dot(s, e), np.dot(s, c)
    x = alg.from_coords(a * c - b * e)
    svals = linalg._lapack(np.linalg.svd, x, compute_uv=False)
    # x is zero, as in C 1 where z is scalar, when its terms cancel to rounding
    terms = abs(a) * np.linalg.norm(c) + abs(b) * np.linalg.norm(e)
    smin = float(svals[-1] / svals[0]) if np.linalg.norm(x) > ZERO_NORM * terms else 0.0
    if smin > INVERTIBLE_TOL:
        witness = Element(alg, x / svals[0])
        return GkzOutcome(False, witness, phi(witness), smin)
    if _multiplicativity_bounds(alg, phi.values[None] / phi_one)[0] <= MULTIPLICATIVE_TOL:
        return GkzOutcome(True, None, None, None)
    raise WitnessNotFound(
        f"phi is not multiplicative, and its witness has smallest singular value {smin:.3e}"
    )


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
    characters evaluate to the discrete Fourier transform.  The group is
    abelian and the adjoint of the k-th power is the (N - k)-th, so the
    algebra is seeded commutative, *-closed, and with the unit I_N, the
    zeroth power.
    """
    if n < 1:
        raise ValueError("the cyclic order must be at least 1")
    # the k-th power of the shift is the circulant of the k-th unit vector
    return _seed_flags(Algebra(circulant(np.eye(n)) / np.sqrt(n)), True, True, unital=True)


def circulant_element(alg: Algebra, c) -> Element:
    """Wrap the circulant of sequence c as an element of the cyclic algebra."""
    return Element(alg, circulant(c))
