"""Shared helpers for the test suite: random inputs and independent oracles."""

import numpy as np

from cstarkit import states
from cstarkit.algebra import _combine_each, _pairing


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
