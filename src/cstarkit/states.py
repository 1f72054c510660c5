"""Positive linear functionals, states, and the GNS construction.

A functional is stored by its values on the algebra's orthonormal basis,
so functionals on proper subalgebras are intrinsic.  Positivity is
decided by the basis Gram matrix G[i, j] = f(e_i* e_j), which represents
the sesquilinear form <[a], [b]> = f(b* a) in coordinates.  The GNS
Hilbert space is the quotient by the Gram null space; no completion step
is needed in finite dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (
    Algebra,
    Element,
    _combine_each,
    _op_norm_each,
    _pairing_each,
    _random_matrices,
)
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    NotPositive,
    NotStarClosed,
    NotUnital,
    NotUnitVector,
)

GRAM_NULL_TOL = 1e-10
# Complex entries in one stack of sampled representation matrices (2 MiB):
# universal_rep takes its samples in chunks of this many entries.
_SAMPLE_STACK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class Functional:
    """A linear functional stored as its values on the algebra basis."""

    algebra: Algebra
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.values) != self.algebra.dim:
            raise DimensionMismatch(
                f"functional needs {self.algebra.dim} values, got {len(self.values)}"
            )

    def __call__(self, a) -> complex:
        m = a.matrix if isinstance(a, Element) else linalg.as_matrix(a)
        return complex(np.dot(self.values, self.algebra.coords(m)))

    def multiplicativity_residual(self) -> float:
        """max |f(b_i b_j) - f(b_i) f(b_j)| over basis pairs: 0 for characters."""
        v = np.asarray(self.values, dtype=complex)
        return float(np.max(np.abs(self.algebra.structure @ v - np.outer(v, v)), initial=0.0))


@dataclass(frozen=True)
class State(Functional):
    """A positive functional of norm 1 (= f(1) on unital algebras)."""

    norm: float = 1.0


@dataclass(frozen=True)
class PositivityReport:
    positive: bool
    min_gram_eigenvalue: float
    hermitian_defect: float


def functional(alg: Algebra, values) -> Functional:
    return Functional(alg, tuple(complex(v) for v in values))


def gram_matrix(alg: Algebra, f: Functional) -> np.ndarray:
    """G[i, j] = f(e_i* e_j); Hermitian PSD exactly when f is positive on the span."""
    if not alg.star_closed:
        raise NotStarClosed("positivity needs a *-closed algebra (e_i* e_j must stay inside)")
    adjoint_coords = alg.coords(alg.basis.conj().swapaxes(1, 2))
    return adjoint_coords @ (alg.structure @ np.asarray(f.values, dtype=complex))


def is_positive_functional(alg: Algebra, f: Functional, tol: float = 1e-9) -> PositivityReport:
    """Positivity (f(a*a) >= 0 on the span) via the Gram matrix's eigenvalues."""
    return _gram_positivity(gram_matrix(alg, f), tol)


def _gram_positivity(g: np.ndarray, tol: float) -> PositivityReport:
    scale = max(1.0, float(np.max(np.abs(g))) if g.size else 0.0)
    defect = float(np.linalg.norm(g - g.conj().T)) / scale
    w = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    min_eig = float(w[0]) if w.size else 0.0
    positive = defect <= tol and min_eig >= -tol * scale
    return PositivityReport(positive, min_eig, defect)


def make_state(alg: Algebra, values, tol: float = 1e-9) -> State:
    """Validate positivity and normalization, then build a State."""
    f = functional(alg, values)
    report = is_positive_functional(alg, f, tol)
    if not report.positive:
        raise NotPositive(f"min Gram eigenvalue {report.min_gram_eigenvalue:.3e}")
    if not alg.unital:
        raise NotUnital("states are normalized against the algebra identity")
    nrm = f(alg.identity_matrix)
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"functional has f(1) = {nrm}, expected 1")
    return State(alg, f.values, norm=float(nrm.real))


def vector_state(alg: Algebra, x, tol: float = 1e-9) -> State:
    """The state f(a) = <a x, x> induced by a unit vector x."""
    xv = np.asarray(x, dtype=complex).ravel()
    if xv.shape[0] != alg.ambient_dim:
        raise DimensionMismatch(
            f"vector has length {xv.shape[0]}, ambient space is {alg.ambient_dim}"
        )
    if abs(float(np.linalg.norm(xv)) - 1.0) > tol:
        raise NotUnitVector(f"vector norm {np.linalg.norm(xv):.12f} is not 1")
    return make_state(alg, alg.basis @ xv @ xv.conj(), tol)


def functional_norm(alg: Algebra, f: Functional, tol: float = 1e-9) -> float:
    """||f|| = f(1) for positive functionals on unital algebras."""
    if not alg.unital:
        raise NotUnital("the norm formula needs an identity")
    report = is_positive_functional(alg, f, tol)
    if not report.positive:
        raise NotPositive(f"min Gram eigenvalue {report.min_gram_eigenvalue:.3e}")
    return float(f(alg.identity_matrix).real)


def cauchy_schwarz_residual(f: Functional, a: Element, b: Element) -> float:
    """f(a*a) f(b*b) - |f(b*a)|^2, non-negative for positive functionals."""
    alg = f.algebra
    report = is_positive_functional(alg, f)
    if not report.positive:
        raise NotPositive(f"min Gram eigenvalue {report.min_gram_eigenvalue:.3e}")
    ma, mb = a.matrix, b.matrix
    faa = f(linalg.adjoint(ma) @ ma).real
    fbb = f(linalg.adjoint(mb) @ mb).real
    fba = f(linalg.adjoint(mb) @ ma)
    return float(faa * fbb - abs(fba) ** 2)


def norming_state(a: Element, tol: float = 1e-9) -> State:
    """A state with f(a) = ||a||, from a top eigenvector of the positive element a."""
    from .spectral import _positive_eig

    if a.algebra is None:
        raise ValueError("norming_state needs an element with an explicit algebra")
    _, v = _positive_eig(a, tol)
    return vector_state(a.algebra, v[:, -1], tol)


@dataclass(frozen=True)
class Representation:
    """A *-homomorphism into matrices, given per algebra basis element."""

    algebra: Algebra
    rep_matrices: np.ndarray  # (d, k, k), or any sequence of d k x k matrices
    hilbert_dim: int

    def apply(self, a) -> np.ndarray:
        m = a.matrix if isinstance(a, Element) else linalg.as_matrix(a)
        return np.tensordot(self.algebra.coords(m), self.rep_matrices, axes=1)

    def _apply_each(self, mats: np.ndarray) -> np.ndarray:
        """apply(m_i) for each matrix m_i of a (k, n, n) stack, bit for bit."""
        coords = _pairing_each(mats, self.algebra.basis)
        return _combine_each(coords, np.asarray(self.rep_matrices))


@dataclass(frozen=True)
class GnsRepresentation(Representation):
    """GNS data: coset map to Hilbert coordinates, plus the inducing state."""

    coset_map: np.ndarray = None
    state: Functional = None
    cyclic_vector: np.ndarray | None = None


def gns(alg: Algebra, state: Functional, tol: float = 1e-9) -> GnsRepresentation:
    """GNS representation of a positive functional.

    The Hilbert space is the coordinate space modulo the Gram null space
    (eigenvalues <= 1e-10 * max are treated as zero); left multiplication
    descends to the representing matrices.
    """
    f = state
    g = gram_matrix(alg, f)
    report = _gram_positivity(g, tol)
    if not report.positive:
        raise NotPositive(f"min Gram eigenvalue {report.min_gram_eigenvalue:.3e}")
    g = (g + g.conj().T) / 2.0
    w, v = np.linalg.eigh(g)
    wmax = float(w[-1]) if w.size else 0.0
    keep = w > GRAM_NULL_TOL * max(wmax, 0.0)
    vk = v[:, keep]
    wk = w[keep]
    k = int(np.sum(keep))
    coset_map = (np.sqrt(wk)[:, None]) * vk.conj().T  # k x d
    pinv = vk / np.sqrt(wk)[None, :]  # d x k
    # left multiplication by b_i has coordinate matrix C[i].T
    reps = coset_map @ alg.structure.swapaxes(1, 2) @ pinv
    cyclic = None
    if alg.unital:
        cyclic = coset_map @ alg.identity_coords
    return GnsRepresentation(
        algebra=alg,
        rep_matrices=reps,
        hilbert_dim=k,
        coset_map=coset_map,
        state=f,
        cyclic_vector=cyclic,
    )


def direct_sum_reps(reps) -> Representation:
    """Block-diagonal direct sum of representations of the same algebra."""
    reps = list(reps)
    if not reps:
        raise ValueError("need at least one representation")
    alg = reps[0].algebra
    if any(r.algebra is not alg for r in reps):
        raise AlgebraMismatch("representations must share one algebra")
    total = sum(r.hilbert_dim for r in reps)
    out = np.zeros((alg.dim, total, total), dtype=complex)
    at = 0
    for r in reps:
        k = r.hilbert_dim
        out[:, at : at + k, at : at + k] = r.rep_matrices
        at += k
    return Representation(alg, out, total)


def trace_state(alg: Algebra) -> State:
    """The normalized trace f(a) = tr(a) / tr(1)."""
    if not alg.unital:
        raise NotUnital("the normalized trace needs an identity")
    denom = complex(np.trace(alg.identity_matrix)).real
    values = tuple(complex(np.trace(b)) / denom for b in alg.basis)
    return make_state(alg, values)


@dataclass(frozen=True)
class UniversalReport:
    representation: Representation
    max_isometry_residual: float
    state_count: int


def universal_rep(alg: Algebra, extra_states=(), seed: int = 0, samples: int = 100) -> UniversalReport:
    """Direct sum of GNS representations over a norming family of states.

    The family is the normalized trace, the supplied extra states, and a
    norming state of (b b*)^2 for each basis element b; it is large enough
    to make the sum isometric at finite dimension.  The report carries the
    max over sampled elements of | ||pi(a)|| - ||a|| |, the samples drawn as
    successive random_element calls and taken in stacks whose size does not
    grow with the Hilbert dimension.
    """
    family: list[Functional] = []
    if alg.unital:
        family.append(trace_state(alg))
    family.extend(extra_states)
    for b in alg.basis:
        bb = b @ linalg.adjoint(b)
        family.append(norming_state(Element(alg, bb @ bb)))
    reps = [gns(alg, f) for f in family]
    total = direct_sum_reps(reps)
    rng = np.random.default_rng(seed)
    chunk = max(1, _SAMPLE_STACK_ENTRIES // max(1, total.hilbert_dim) ** 2)
    worst = 0.0
    for start in range(0, samples, chunk):
        mats = _random_matrices(alg, rng, min(chunk, samples - start))
        gaps = np.abs(_op_norm_each(total._apply_each(mats)) - _op_norm_each(mats))
        worst = max(worst, *gaps.tolist())
    return UniversalReport(total, worst, len(family))
