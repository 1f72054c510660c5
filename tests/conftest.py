"""Shared helpers for the test suite: random inputs and independent oracles."""

import numpy as np

from cstarkit import states
from cstarkit.algebra import _combine_each, _pairing
from cstarkit.errors import NoConvergence, Overflow
from cstarkit.linalg import _lapack, ldexp


def rand_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def rand_hermitian(rng, n, scale=1.0):
    m = rand_matrix(rng, n, scale)
    return (m + m.conj().T) / 2.0


def doubled_normal(rng, n):
    """A normal n x n matrix with n // 2 + 1 distinct eigenvalues, most of them repeated."""
    q, _ = np.linalg.qr(rand_matrix(rng, n))
    eig = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    return (q * np.resize(eig, n)) @ q.conj().T


def rand_unit_norm(rng, n):
    m = rand_matrix(rng, n)
    return m / np.linalg.norm(m, 2)


def product_coords(left: np.ndarray, right: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """P[i, j, l] = <left_i right_j, rows_l>, one stacked product per row of left."""
    out = np.zeros((len(left), len(right), len(rows)), dtype=complex)
    for i, a in enumerate(left):
        out[i] = _pairing(a @ right, rows)
    return out


def densities(alg, values) -> np.ndarray:
    """The density sum_l f_c(b_l) b_l* of each row f_c of values."""
    return _combine_each(values, alg.basis.conj().swapaxes(1, 2))


def pivoted_products(alg, values) -> np.ndarray:
    """prods[c, i, j] = f_c(b_i b_j) from all n steps of complete pivoting on each density."""
    rest = densities(alg, values)
    prods = np.zeros((len(values), alg.dim, alg.dim), dtype=complex)
    for _ in range(alg.ambient_dim):
        u, w, rest, _ = states._pivot_step(rest)
        prods += states._factor_products(alg.basis, u, w)
    return prods


def _relative(num, den):
    return num / den if num > 0 else 0.0


def all_pairs_defect(rep):
    """rep's *-homomorphism defect over every basis pair and element, each
    term relative to the norms of its own terms: the largest, over the
    distinct block arrays B, of ||pi(b_i b_j) - B_i B_j|| / (||pi(b_i b_j)|| +
    ||B_i|| ||B_j||) over the d^2 pairs and ||pi(b_i*) - B_i*|| / (||pi(b_i*)|| +
    ||B_i||) over the d elements, with SVD norms."""
    alg, worst = rep.algebra, 0.0

    def norm(m):
        return float(np.linalg.norm(m, 2))

    for block in {id(b): b for b in rep.blocks}.values():
        image = lambda m: np.tensordot(_pairing(m, alg.basis), block, axes=1)  # noqa: E731
        for i, b in enumerate(alg.basis):
            for j, c in enumerate(alg.basis):
                prod = image(b @ c)
                den = norm(prod) + norm(block[i]) * norm(block[j])
                worst = max(worst, _relative(norm(prod - block[i] @ block[j]), den))
            adj = image(b.conj().T)
            worst = max(worst, _relative(norm(adj - block[i].conj().T), norm(adj) + norm(block[i])))
    return worst


def basis_state_error(rep):
    """max_l |<pi(b_l) x, x> - f(b_l)| of a GNS representation over the basis,
    one dense image with its multiplicity at a time."""
    x = rep.cyclic_vector
    got = [complex(np.vdot(x, rep.apply(b) @ x)) for b in rep.algebra.basis]
    return max(abs(g - f) for g, f in zip(got, rep.state.values.tolist()))


def reference_gram_gns(alg, state):
    """states.gns as it was on every algebra before it took the density path:
    one eigh of the d x d Gram matrix and one (d, k, k) block.  Kept verbatim,
    apart from the name, the tolerance literal, keyword arguments for the
    representation's fields, and the Gram matrix read from states.gram_matrix
    after the positivity gate."""
    states._positive_density(alg, state)
    g = states.gram_matrix(alg, state)
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    keep = w > 1e-10 * max(float(w[-1]) if w.size else 0.0, 0.0)
    vk, wk = v[:, keep], w[keep]
    coset_map = (np.sqrt(wk)[:, None]) * vk.conj().T  # k x d
    pinv = vk / np.sqrt(wk)[None, :]  # d x k
    (d, n, _), k = alg.basis.shape, len(wk)
    prods = (alg.basis[:, None] @ _combine_each(pinv.T, alg.basis)[None]).reshape(d, k, n * n)
    block = coset_map @ alg.basis.conj().reshape(d, n * n) @ prods.swapaxes(1, 2)
    cyclic = coset_map @ alg.identity_coords if alg.unital else None
    return states.GnsRepresentation(
        alg, (block,), coset_map=coset_map, state=state, cyclic_vector=cyclic
    )


def exp_series_oracle(m, terms=60):
    """Plain power-series exponential, independent of the scaling-and-squaring path."""
    m = np.asarray(m, dtype=complex)
    acc = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        acc = acc + term
    return acc


def match_multisets(xs, ys, tol):
    """Greedy multiset matching of complex values within tol; True when exact cover."""
    ys = list(ys)
    for x in xs:
        best, best_d = None, None
        for i, y in enumerate(ys):
            d = abs(x - y)
            if best_d is None or d < best_d:
                best, best_d = i, d
        if best is None or best_d > tol:
            return False
        ys.pop(best)
    return not ys


# The norm kernels of cstarkit.linalg as they were before their single scaling
# and finiteness pass, kept verbatim apart from the reference_ names, as the
# references of the linalg equivalence tests.


def reference_op_norm_each(mats: np.ndarray) -> np.ndarray:
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
    live = np.any(mats, axis=(1, 2))
    if live.all():
        return reference_gram_norms(mats)
    out = np.zeros(len(mats))
    if live.any():
        out[live] = reference_gram_norms(mats[live])
    return out


def reference_gram_norms(mats: np.ndarray) -> np.ndarray:
    """_op_norm_each of a (k, p, q) stack, with LAPACK also on its zero matrices."""
    if not mats.size:
        return np.zeros(len(mats))
    if not np.isfinite(mats).all():
        raise NoConvergence("op_norm: a matrix entry is not finite")
    a, e = reference_unit_scaled_each(mats)
    adj = a.conj().swapaxes(1, 2)
    gram = a @ adj if a.shape[1] < a.shape[2] else adj @ a
    return reference_scaled_back(np.sqrt(_lapack(np.linalg.eigvalsh, gram)[:, -1]), e[:, 0])


def reference_scaled_back(norms: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The norms of the matrices 2^e a_s, given those of their scalings a_s; Overflow
    when one is above the largest float."""
    if (np.frexp(norms)[1] + e > 1024).any():
        raise Overflow("op_norm leaves the float range")
    return np.ldexp(norms, e)


def reference_unit_scaled_each(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each a_s of a (k, p, q) stack scaled by the power of two 2^-e_s that brings
    its largest real or imaginary part into [1/2, 1), exactly, so no norm below
    overflows or underflows; and the exponents e, shape (k, 1)."""
    parts = np.abs(np.ascontiguousarray(mats, dtype=complex).view(float))
    e = np.frexp(parts.max(axis=(1, 2), initial=0.0))[1][:, None]
    return ldexp(mats, -e[:, :, None]), e


def reference_hermitian_residual_each(mats: np.ndarray) -> tuple[np.ndarray, ...]:
    """hermitian_residual of each matrix a of a (k, n, n) stack, ||a||, and the
    Hermitian part (a + a*) / 2, all on a's power-of-two scaling: the norms have
    the bits of _op_norm_each of a and of its skew part, from one _gram_norms,
    and (a + a*) / 2 cannot overflow.  NoConvergence for an entry that is not
    finite; Overflow when ||a|| leaves the float range."""
    scaled, e = reference_unit_scaled_each(mats)
    adj = scaled.conj().swapaxes(1, 2)
    norms = reference_gram_norms(np.concatenate([scaled, scaled - adj]))
    norms, skew_norms = norms[: len(mats)], norms[len(mats) :]
    defects = np.divide(skew_norms, norms, out=np.zeros(len(mats)), where=norms > 0)
    return defects, reference_scaled_back(norms, e[:, 0]), ldexp(scaled + adj, e[:, :, None] - 1)
