"""States, positivity, Cauchy-Schwarz, the GNS construction, universal reps."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_pairs_defect,
    basis_state_error,
    product_coords,
    rand_matrix,
    reference_gram_gns,
)
from cstarkit import algebra, cli, linalg, states
from cstarkit.errors import (
    AlgebraMismatch,
    DimensionMismatch,
    NoConvergence,
    NotInAlgebra,
    NotPositive,
    NotStarClosed,
    NotUnital,
    NotUnitVector,
)
from cstarkit.gelfand import cyclic_group_algebra


def diag_algebra(entries):
    return algebra.algebra_from_generators(
        [np.diag(np.asarray(entries, dtype=complex))], include_identity=True
    )


def random_density(rng, n):
    g = rand_matrix(rng, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def density_state(alg, rho):
    values = [complex(np.trace(rho @ b)) for b in alg.basis]
    return states.make_state(alg, values)


class TestVectorState:
    def test_coordinate_projections(self):
        m2 = algebra.full_matrix_algebra(2)
        f = states.vector_state(m2, [1.0, 0.0])
        e11 = algebra.element(m2, np.diag([1.0, 0.0]))
        e22 = algebra.element(m2, np.diag([0.0, 1.0]))
        assert abs(f(e11) - 1.0) <= 1e-12
        assert abs(f(e22)) <= 1e-12

    def test_identity_evaluates_to_one(self):
        m2 = algebra.full_matrix_algebra(2)
        rng = np.random.default_rng(61)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x /= np.linalg.norm(x)
        f = states.vector_state(m2, x)
        assert abs(f(np.eye(2)) - 1.0) <= 1e-12
        assert f.norm == pytest.approx(1.0)

    def test_gram_matrices_psd(self):
        m2 = algebra.full_matrix_algebra(2)
        rng = np.random.default_rng(62)
        for _ in range(20):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x /= np.linalg.norm(x)
            f = states.vector_state(m2, x)
            report = states.is_positive_functional(m2, f)
            assert report.positive
            assert report.min_gram_eigenvalue >= -1e-9

    def test_rejects_non_unit_vector(self):
        with pytest.raises(NotUnitVector):
            states.vector_state(algebra.full_matrix_algebra(2), [1.0, 1.0])

    def test_nan_entry_is_not_a_unit_vector(self):
        with pytest.raises(NotUnitVector, match="nan"):
            states.vector_state(algebra.full_matrix_algebra(2), [np.nan, 0.0])

    def test_huge_entry_is_not_a_unit_vector_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitVector) as info:
                states.vector_state(algebra.full_matrix_algebra(2), [1e200, 0.0])
            assert float(re.fullmatch(r"vector norm (\S+) is not 1", str(info.value))[1]) == 1e200
            with pytest.raises(NotUnitVector, match="inf"):
                states.vector_state(algebra.full_matrix_algebra(2), [1.5e308, 1.5e308j])

    def test_nan_f_of_one_is_not_a_state(self, monkeypatch):
        """The f(1) test fails when f(1) reads NaN, here from NaN identity coordinates."""
        m2 = algebra.full_matrix_algebra(2)
        values = states._trace_values(m2, np.eye(2) / 2.0)
        assert m2.star_closed and m2.unital  # both flags read coords, so they are taken first
        monkeypatch.setattr(algebra.Algebra, "coords", lambda self, m: np.full(self.dim, np.nan))
        with pytest.raises(ValueError, match=r"f\(1\) = \(nan"):
            states.make_state(m2, values)

    def test_nan_value_is_no_convergence(self):
        """The positivity gate reads a NaN density as it reads a NaN element."""
        m2 = algebra.full_matrix_algebra(2)
        with pytest.raises(NoConvergence):
            states.make_state(m2, [np.nan, 0.0, 0.0, 1.0])

    def test_stacked_kernels_share_the_tests(self):
        m2 = algebra.full_matrix_algebra(2)
        for bad in ([np.nan, 0.0], [1e200, 0.0]):
            with pytest.raises(NotUnitVector):
                states._vector_states(m2, np.array([[1.0, 0.0], bad]))


class TestPositivity:
    def test_corner_entry_functional_is_positive(self):
        m2 = algebra.full_matrix_algebra(2)
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        f = states.functional(m2, [complex(np.trace(rho @ b)) for b in m2.basis])
        assert states.is_positive_functional(m2, f).positive

    def test_signature_functional_is_not(self):
        m2 = algebra.full_matrix_algebra(2)
        sig = np.diag([1.0, -1.0]).astype(complex)
        f = states.functional(m2, [complex(np.trace(sig @ b)) for b in m2.basis])
        report = states.is_positive_functional(m2, f)
        assert not report.positive
        # witness: f(E22* E22) = -1
        e22 = np.diag([0.0, 1.0]).astype(complex)
        assert f(linalg.adjoint(e22) @ e22).real == pytest.approx(-1.0)

    def test_vector_states_positive(self):
        m3 = algebra.full_matrix_algebra(3)
        rng = np.random.default_rng(63)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x /= np.linalg.norm(x)
        assert states.is_positive_functional(m3, states.vector_state(m3, x)).positive

    def test_non_positive_rejected_everywhere(self):
        m2 = algebra.full_matrix_algebra(2)
        sig = np.diag([1.0, -1.0]).astype(complex)
        bad = states.functional(m2, [complex(np.trace(sig @ b)) for b in m2.basis])
        with pytest.raises(NotPositive):
            states.functional_norm(m2, bad)
        with pytest.raises(NotPositive):
            states.gns(m2, bad)
        with pytest.raises(NotPositive):
            rng = np.random.default_rng(0)
            states.cauchy_schwarz_residual(
                bad, algebra.random_element(m2, rng), algebra.random_element(m2, rng)
            )


class TestFunctionalNorm:
    def test_vector_state_norm_one(self):
        m2 = algebra.full_matrix_algebra(2)
        f = states.vector_state(m2, [0.0, 1.0])
        assert states.functional_norm(m2, f) == pytest.approx(1.0)

    def test_homogeneity(self):
        m2 = algebra.full_matrix_algebra(2)
        f = states.vector_state(m2, [0.0, 1.0])
        doubled = states.functional(m2, [2.0 * v for v in f.values])
        assert states.functional_norm(m2, doubled) == pytest.approx(2.0)

    def test_unit_ball_sampling_never_exceeds(self):
        m3 = algebra.full_matrix_algebra(3)
        rng = np.random.default_rng(64)
        for _ in range(20):
            rho = random_density(rng, 3)
            scale = rng.uniform(0.5, 2.0)
            f = states.functional(
                m3, [scale * complex(np.trace(rho @ b)) for b in m3.basis]
            )
            bound = states.functional_norm(m3, f)
            sup = 0.0
            for _ in range(500):
                a = algebra.random_element(m3, rng)
                a = algebra.Element(m3, a.matrix / a.norm())
                sup = max(sup, abs(f(a)))
            assert sup <= bound + 1e-9


class TestCauchySchwarz:
    def test_equal_arguments_zero_residual(self):
        m2 = algebra.full_matrix_algebra(2)
        f = states.vector_state(m2, [1.0, 0.0])
        rng = np.random.default_rng(65)
        a = algebra.random_element(m2, rng)
        assert abs(states.cauchy_schwarz_residual(f, a, a)) <= 1e-9 * a.norm() ** 4

    def test_random_triples_nonnegative(self):
        m3 = algebra.full_matrix_algebra(3)
        rng = np.random.default_rng(66)
        for _ in range(200):
            f = density_state(m3, random_density(rng, 3))
            a = algebra.random_element(m3, rng)
            b = algebra.random_element(m3, rng)
            scale = max(1.0, (a.norm() * b.norm()) ** 2)
            assert states.cauchy_schwarz_residual(f, a, b) >= -1e-12 * scale

    def test_vector_state_reduces_to_classical(self):
        m2 = algebra.full_matrix_algebra(2)
        rng = np.random.default_rng(67)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x /= np.linalg.norm(x)
        f = states.vector_state(m2, x)
        a = algebra.random_element(m2, rng)
        b = algebra.random_element(m2, rng)
        ax, bx = a.matrix @ x, b.matrix @ x
        classical = (
            np.vdot(ax, ax).real * np.vdot(bx, bx).real - abs(np.vdot(bx, ax)) ** 2
        )
        assert states.cauchy_schwarz_residual(f, a, b) == pytest.approx(
            classical, abs=1e-9
        )


class TestNormingState:
    def test_diagonal_concentrates_on_top_eigenvalue(self):
        m2 = algebra.full_matrix_algebra(2)
        a = algebra.element(m2, np.diag([1.0, 3.0]))
        f = states.norming_state(a)
        assert abs(f(a) - 3.0) <= 1e-9
        e22 = algebra.element(m2, np.diag([0.0, 1.0]))
        assert abs(f(e22) - 1.0) <= 1e-9

    def test_identity_any_unit_vector(self):
        m2 = algebra.full_matrix_algebra(2)
        f = states.norming_state(algebra.element(m2, np.eye(2)))
        assert abs(f(np.eye(2)) - 1.0) <= 1e-12

    def test_integer_example_value(self):
        m2 = algebra.full_matrix_algebra(2)
        a = algebra.element(m2, [[25.0, 40.0], [40.0, 65.0]])
        f = states.norming_state(a)
        assert abs(f(a) - a.norm()) <= 1e-9
        assert abs(f(a).real - 89.72) <= 0.005

    def test_rejects_non_positive(self):
        m2 = algebra.full_matrix_algebra(2)
        with pytest.raises(NotPositive):
            states.norming_state(algebra.element(m2, np.diag([1.0, -1.0])))


class TestGns:
    def test_m2_vector_state_is_faithful_isometry(self):
        m2 = algebra.full_matrix_algebra(2)
        f = states.vector_state(m2, [1.0, 0.0])
        rep = states.gns(m2, f)
        assert rep.hilbert_dim == 2
        rng = np.random.default_rng(68)
        for _ in range(50):
            a = algebra.random_element(m2, rng)
            assert abs(linalg.op_norm(rep.apply(a)) - a.norm()) <= 1e-8

    def test_character_state_collapses_to_point(self):
        alg = diag_algebra([1.0, 2.0])
        from cstarkit.gelfand import characters

        spec = characters(alg)
        probe = algebra.element(alg, np.diag([1.0, 0.0]))
        chi = next(c for c in spec if abs(c(probe) - 1.0) < 1e-8)
        f = states.make_state(alg, chi.values)
        rep = states.gns(alg, f)
        assert rep.hilbert_dim == 1
        rng = np.random.default_rng(69)
        for _ in range(10):
            a = algebra.random_element(alg, rng)
            assert abs(rep.apply(a)[0, 0] - a.matrix[0, 0]) <= 1e-9

    def test_mixed_character_state_is_faithful(self):
        alg = diag_algebra([1.0, 2.0])
        from cstarkit.gelfand import characters

        spec = characters(alg)
        values = 0.5 * (
            np.asarray(spec.characters[0].values) + np.asarray(spec.characters[1].values)
        )
        f = states.make_state(alg, values)
        rep = states.gns(alg, f)
        assert rep.hilbert_dim == 2
        rng = np.random.default_rng(70)
        for _ in range(10):
            a = algebra.random_element(alg, rng)
            assert abs(linalg.op_norm(rep.apply(a)) - a.norm()) <= 1e-9

    def test_state_reproduced_by_cyclic_vector(self):
        m2 = algebra.full_matrix_algebra(2)
        rng = np.random.default_rng(71)
        f = density_state(m2, random_density(rng, 2))
        rep = states.gns(m2, f)
        for _ in range(10):
            a = algebra.random_element(m2, rng)
            via_rep = complex(
                np.vdot(rep.cyclic_vector, rep.apply(a) @ rep.cyclic_vector)
            )
            assert abs(via_rep - f(a)) <= 1e-9

    def test_inner_products_match_state_on_triples(self):
        # <pi(a)[b], [c]> = f(c* a b) for sampled triples
        m2 = algebra.full_matrix_algebra(2)
        rng = np.random.default_rng(78)
        f = density_state(m2, random_density(rng, 2))
        rep = states.gns(m2, f)
        for _ in range(20):
            a = algebra.random_element(m2, rng)
            b = algebra.random_element(m2, rng)
            c = algebra.random_element(m2, rng)
            coset_b = rep.coset_map @ b.coords
            coset_c = rep.coset_map @ c.coords
            lhs = complex(np.vdot(coset_c, rep.apply(a) @ coset_b))
            rhs = f(linalg.adjoint(c.matrix) @ a.matrix @ b.matrix)
            scale = max(1.0, a.norm() * b.norm() * c.norm())
            assert abs(lhs - rhs) <= 1e-9 * scale


class TestDirectSumReps:
    def scalar_algebra(self):
        return algebra.algebra_from_generators([np.eye(1)], include_identity=True)

    def test_block_example(self):
        alg = self.scalar_algebra()
        pi1 = states.Representation(alg, (np.array([[[4.0 + 0j]]]),))
        pi2 = states.Representation(
            alg, (np.array([[[0.0, 1.0], [2.0, 0.0]]], dtype=complex),)
        )
        total = states.direct_sum_reps([pi1, pi2])
        expected = np.array(
            [[4.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0]], dtype=complex
        )
        for z in (1.0, 1j, 2.0 - 3.0j):
            out = total.apply(algebra.element(alg, [[z]]))
            assert np.array_equal(out, z * expected)

    def test_single_representation_unchanged(self):
        alg = self.scalar_algebra()
        pi = states.Representation(alg, (np.array([[[2.0 + 0j]]]),))
        total = states.direct_sum_reps([pi])
        assert total.hilbert_dim == 1
        assert total.blocks == pi.blocks

    def test_norm_is_max_over_blocks(self):
        m2 = algebra.full_matrix_algebra(2)
        f1 = states.vector_state(m2, [1.0, 0.0])
        f2 = states.vector_state(m2, [0.0, 1.0])
        total = states.direct_sum_reps([states.gns(m2, f1), states.gns(m2, f2)])
        rng = np.random.default_rng(72)
        for _ in range(10):
            a = algebra.random_element(m2, rng)
            blocks = [
                linalg.op_norm(states.gns(m2, f).apply(a)) for f in (f1, f2)
            ]
            assert abs(linalg.op_norm(total.apply(a)) - max(blocks)) <= 1e-10

    def test_mismatched_algebras_rejected(self):
        alg = self.scalar_algebra()
        other = algebra.full_matrix_algebra(2)
        pi1 = states.Representation(alg, (np.eye(1, dtype=complex)[None],))
        pi2 = states.Representation(other, (np.stack([np.eye(2, dtype=complex)] * 4),))
        with pytest.raises(AlgebraMismatch):
            states.direct_sum_reps([pi1, pi2])


class TestUniversalRep:
    def test_m2_trace_state_alone_is_isometric(self):
        m2 = algebra.full_matrix_algebra(2)
        rep = states.gns(m2, states.trace_state(m2))
        assert rep.hilbert_dim == 4
        rng = np.random.default_rng(73)
        for _ in range(20):
            a = algebra.random_element(m2, rng)
            assert abs(linalg.op_norm(rep.apply(a)) - a.norm()) <= 1e-9

    def test_diagonal_algebra_with_characters(self):
        alg = diag_algebra([1.0, 2.0])
        from cstarkit.gelfand import characters

        spec = characters(alg)
        extra = [states.make_state(alg, chi.values) for chi in spec]
        report = states.universal_rep(alg, extra_states=extra)
        assert report.max_isometry_residual <= 1e-7
        assert report.injective and report.star_homomorphism_residual <= 1e-9

    def test_zero_functional_is_not_a_state(self):
        m2 = algebra.full_matrix_algebra(2)
        with pytest.raises(ValueError):
            states.make_state(m2, [0.0] * 4)


class TestStateInvariants:
    def test_gns_star_homomorphism(self):
        m3 = algebra.full_matrix_algebra(3)
        rng = np.random.default_rng(74)
        rep = states.gns(m3, density_state(m3, random_density(rng, 3)))
        for _ in range(100):
            a = algebra.random_element(m3, rng)
            b = algebra.random_element(m3, rng)
            pa, pb = rep.apply(a), rep.apply(b)
            assert linalg.op_norm(rep.apply(a @ b) - pa @ pb) <= 1e-9 * max(
                1.0, linalg.op_norm(pa) * linalg.op_norm(pb)
            )
            assert linalg.op_norm(rep.apply(a.adjoint()) - pa.conj().T) <= 1e-9 * max(
                1.0, linalg.op_norm(pa)
            )

    def test_gns_contraction(self):
        m2 = algebra.full_matrix_algebra(2)
        rng = np.random.default_rng(75)
        for _ in range(10):
            rep = states.gns(m2, density_state(m2, random_density(rng, 2)))
            for _ in range(10):
                a = algebra.random_element(m2, rng)
                assert linalg.op_norm(rep.apply(a)) <= a.norm() + 1e-9

    def test_state_from_spectrum_for_normal_elements(self):
        from cstarkit.spectral import spectrum

        m3 = algebra.full_matrix_algebra(3)
        rng = np.random.default_rng(76)
        h = rand_matrix(rng, 3)
        h = (h + h.conj().T) / 2.0
        a = algebra.element(m3, h)
        w, v = linalg.herm_eig(h)
        for lam, k in zip(w, range(3)):
            f = states.vector_state(m3, v[:, k])
            assert abs(f(a) - lam) <= 1e-9
            assert any(abs(z - lam) <= 1e-7 for z in spectrum(a).points)

    def test_null_space_is_left_ideal(self):
        m2 = algebra.full_matrix_algebra(2)
        f = states.vector_state(m2, [1.0, 0.0])
        # N_f = {a : a e1 = 0} = matrices with vanishing first column
        n1 = algebra.element(m2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        n2 = algebra.element(m2, np.array([[0.0, 0.0], [0.0, 1.0]]))
        rng = np.random.default_rng(77)
        for nf in (n1, n2):
            assert abs(f((nf.adjoint() @ nf))) <= 1e-12
            for _ in range(10):
                b = algebra.random_element(m2, rng)
                ba = b @ nf
                assert abs(f((ba.adjoint() @ ba))) <= 1e-9 * max(1.0, b.norm() ** 2)


# ------------------------------------------------------------------
# Reference implementations: Gram, GNS, multiplicativity and universal_rep
# as they were when they contracted the cached structure constants
# C[i, j, l] = <b_i b_j, b_l> and universal_rep summed its representations
# into one dense block-diagonal (d, K, K) array and took K x K SVDs.  They
# are kept as they were, apart from names, the tolerance literal and the GNS
# contraction taken out to be run on a given coset map, as the references of
# the structure-free and block paths.


def _reference_structure(alg):
    return product_coords(alg.basis, alg.basis, alg.basis)


def _reference_gram(alg, f):
    adjoint_coords = alg.coords(alg.basis.conj().swapaxes(1, 2))
    return adjoint_coords @ (_reference_structure(alg) @ f.values)


def _reference_multiplicativity_residual(alg, v):
    return float(np.max(np.abs(_reference_structure(alg) @ v - np.outer(v, v)), initial=0.0))


def _reference_gns_matrices(alg, state):
    g = _reference_gram(alg, state)
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    keep = w > 1e-10 * max(float(w[-1]) if w.size else 0.0, 0.0)
    vk, wk = v[:, keep], w[keep]
    coset_map = (np.sqrt(wk)[:, None]) * vk.conj().T  # k x d
    pinv = vk / np.sqrt(wk)[None, :]  # d x k
    return _reference_left_multiplication(alg, coset_map, pinv)


def _reference_left_multiplication(alg, coset_map, pinv):
    # left multiplication by b_i has coordinate matrix C[i].T
    return coset_map @ _reference_structure(alg).swapaxes(1, 2) @ pinv


def _reference_trace_state(alg):
    denom = complex(np.trace(alg.identity_matrix)).real
    values = [complex(np.trace(b)) / denom for b in alg.basis]
    return states.make_state(alg, values)


def _reference_direct_sum(alg, rep_matrices):
    total = sum(r.shape[1] for r in rep_matrices)
    out = np.zeros((alg.dim, total, total), dtype=complex)
    at = 0
    for r in rep_matrices:
        k = r.shape[1]
        out[:, at : at + k, at : at + k] = r
        at += k
    return out


def _reference_universal_rep(alg, extra_states=()):
    """(dense (d, K, K) direct sum, isometry residual, state count, injectivity),
    read off the dense sum: the rank of its basis images, and the gap
    | ||pi(z)|| - ||z|| | / ||z|| in SVD norms at the generic z, or 1 without
    full rank."""
    family = []
    if alg.unital:
        family.append(_reference_trace_state(alg))
    family.extend(extra_states)
    for b in alg.basis:
        bb = b @ linalg.adjoint(b)
        family.append(states.norming_state(algebra.Element(alg, bb @ bb)))
    total = _reference_direct_sum(alg, [_reference_gns_matrices(alg, f) for f in family])
    s = np.linalg.svd(total.reshape(alg.dim, -1), compute_uv=False)
    injective = bool(len(s) == alg.dim and s[-1] > 1e-8 * s[0])
    c = algebra._generic_coords(alg.dim)[0]
    z = np.tensordot(c, alg.basis, axes=1)
    gap = abs(np.linalg.norm(np.tensordot(c, total, axes=1), 2) / np.linalg.norm(z, 2) - 1.0)
    return total, gap if injective else 1.0, len(family), injective


def _generated(n, seed, real_field=False):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return algebra.algebra_from_generators([g], real_field=real_field)


class TestStackedUniversalEquivalence:
    """universal_rep from blocks agrees to 1e-12 with the dense direct sum."""

    @staticmethod
    def assert_same(alg, extra_states=(), seed=17, samples=10):
        """The GNS matrices are fixed only up to a unitary within each Gram
        eigenspace, so the sums are compared by what a unitary keeps: block
        sizes, the certificate's verdicts and residuals, and norms of the
        images of a stack of seeded samples of the given count."""
        got = states.universal_rep(alg, extra_states)
        dense, worst, count, injective = _reference_universal_rep(alg, extra_states)
        assert abs(got.max_isometry_residual - worst) <= 1e-12
        assert got.injective == injective
        assert abs(got.star_homomorphism_residual - all_pairs_defect(got.representation)) <= 1e-12
        assert got.state_count == count
        assert got.representation.hilbert_dim == dense.shape[1]
        mats = algebra._random_matrices(alg, np.random.default_rng(seed), samples)
        images = algebra._combine_each(algebra._pairing_each(mats, alg.basis), dense)
        norms = got.representation._norm_each(mats)
        assert np.max(np.abs(norms - linalg._op_norm_each(images)), initial=0.0) <= 1e-12

    @pytest.mark.parametrize(
        "alg",
        [
            algebra.full_matrix_algebra(1),
            algebra.full_matrix_algebra(2),
            _generated(2, 5),
            _generated(3, 6),
            _generated(3, 7, real_field=True),
            diag_algebra([1.0, 2.0, 3.0]),
        ],
        ids=["M1", "M2", "gen2", "gen3", "gen3-real", "diagonal"],
    )
    def test_default_samples(self, alg):
        for seed in (0, 5, 912):
            self.assert_same(alg, seed=seed)

    @pytest.mark.parametrize("samples", [1, 20, 47])
    def test_hilbert_dim_80(self, samples):
        alg = _generated(4, 8)
        assert states.universal_rep(alg).representation.hilbert_dim == 80
        self.assert_same(alg, seed=3, samples=samples)

    @pytest.mark.parametrize("samples", [0, 1, 3, 7, 15, 100])
    def test_sample_counts(self, samples):
        self.assert_same(_generated(2, 9), seed=11, samples=samples)

    def test_extra_states(self):
        alg = diag_algebra([1.0, 2.0])
        from cstarkit.gelfand import characters

        extra = [states.make_state(alg, chi.values) for chi in characters(alg)]
        self.assert_same(alg, extra_states=extra, seed=1)

    def test_norms_of_blocks_of_several_sizes(self):
        m2 = algebra.full_matrix_algebra(2)
        vector = states.gns(m2, states.vector_state(m2, [1.0, 0.0]))
        total = states.direct_sum_reps([vector, states.gns(m2, states.trace_state(m2)), vector])
        sizes = [b.shape[1] * m for b, m in zip(total.blocks, total.multiplicities)]
        assert sizes == [2, 4, 2]
        mats = algebra._random_matrices(m2, np.random.default_rng(5), 9)
        dense = linalg._op_norm_each(total._apply_each(mats))
        assert np.max(np.abs(total._norm_each(mats) - dense)) <= 1e-12


def _squares(alg):
    """(b b*)^2 for each basis element b: the matrices universal_rep norms."""
    bbs = alg.basis @ alg.basis.conj().swapaxes(1, 2)
    return bbs @ bbs


def _scaled_generator(scale):
    g = np.random.default_rng(31).standard_normal((3, 3))
    return algebra.algebra_from_generators([scale * g])


_FAMILY_ALGEBRAS = {
    **{f"gen{n}": (lambda n=n: _generated(n, 40 + n)) for n in range(1, 7)},
    "M2+C": lambda: algebra.direct_sum_algebras(algebra.full_matrix_algebra(2), algebra.full_matrix_algebra(1)),
    "diagonal": lambda: diag_algebra([1.0, 2.0, 3.0]),
    "gen3-real": lambda: _generated(3, 7, real_field=True),
    "gen3x1e300": lambda: _scaled_generator(1e300),
    "gen3x1e-300": lambda: _scaled_generator(1e-300),
}


class TestStackedNormingFamily:
    """universal_rep's d norming states, built as one stack, have the bits of
    norming_state(Element(alg, (b b*)^2)) taken one at a time, and of the
    per-element formula: the top eigenvector x of the eigh of the Hermitian
    part of (b b*)^2, and the values <b_l x, x> = (b_l x) . conj(x)."""

    @pytest.mark.parametrize("name", list(_FAMILY_ALGEBRAS))
    def test_values_and_density_eigh_bitwise(self, name):
        alg = _FAMILY_ALGEBRAS[name]()
        squares = _squares(alg)
        family = states._norming_states(alg, squares)
        assert len(family) == alg.dim
        for f, sq in zip(family, squares):
            one = states.norming_state(algebra.Element(alg, sq))
            x = np.linalg.eigh((sq + sq.conj().T) / 2.0)[1][:, -1].copy()
            assert np.array_equal(f.values, one.values)
            assert np.array_equal(f.values, alg.basis @ x @ x.conj())
            for got, want in zip(f._density_eigh, one._density_eigh):
                assert np.array_equal(got, want)
            assert f._positivity == one._positivity and f._positivity.positive
        assert states.universal_rep(alg).state_count == alg.dim + 1


class TestStackedTypedErrors:
    """Each check of the one-at-a-time path raises its typed error from the
    stacked kernels when any one matrix, vector or row fails it."""

    def test_members(self):
        alg = diag_algebra([1.0, 2.0])
        good = np.diag([1.0, 2.0]).astype(complex)
        with pytest.raises(NotInAlgebra):
            algebra._require_members(alg, np.stack([good, np.ones((2, 2), dtype=complex)]))
        with pytest.raises(ValueError, match="finite"):
            algebra._require_members(alg, np.stack([good, np.full((2, 2), np.nan, dtype=complex)]))
        algebra._require_members(alg, np.stack([good, 1e300 * good, 1e-300 * good, 0 * good]))

    def test_norming_needs_positive_members(self):
        m2 = algebra.full_matrix_algebra(2)
        eye = np.eye(2, dtype=complex)
        for bad in (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])):
            with pytest.raises(NotPositive):
                states._norming_states(m2, np.stack([eye, bad.astype(complex)]))

    def test_vectors(self):
        m2 = algebra.full_matrix_algebra(2)
        with pytest.raises(DimensionMismatch):
            states._vector_states(m2, np.ones((2, 3)))
        with pytest.raises(NotUnitVector):
            states._vector_states(m2, np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_states(self):
        m2 = algebra.full_matrix_algebra(2)
        trace = states._trace_values(m2, np.eye(2) / 2.0)
        with pytest.raises(DimensionMismatch):
            states._make_states(m2, np.ones((2, 3)))
        with pytest.raises(NotPositive):
            states._make_states(m2, np.stack([trace, -trace]))
        with pytest.raises(ValueError, match=r"f\(1\) = \(2"):
            states._make_states(m2, np.stack([trace, 2 * trace]))
        units = [np.diag([1.0, 0.0]), _e12(2), np.diag([0.0, 1.0])]
        t2 = algebra.algebra_from_generators(units, include_adjoints=False)
        t2_trace = states._trace_values(t2, np.eye(2) / 2.0)
        with pytest.raises(NotStarClosed):
            states._make_states(t2, np.stack([t2_trace, t2_trace]))
        zero = algebra.algebra_from_generators([np.zeros((2, 2))], include_identity=False)
        assert zero.dim == 0 and zero.star_closed
        with pytest.raises(NotUnital):
            states._make_states(zero, np.zeros((2, 0)))
        assert states._make_states(zero, np.zeros((0, 0))) == []
        with pytest.raises(ValueError, match="at least one representation"):
            states.universal_rep(zero)  # no state to build, as one at a time


def _reference_universal_integers(alg):
    """(hilbert_dim, state_count) of universal_rep with every summand on the Gram path."""
    bbs = alg.basis @ alg.basis.conj().swapaxes(1, 2)
    family = [states.trace_state(alg)] if alg.unital else []
    family += [states.norming_state(algebra.Element(alg, bb @ bb)) for bb in bbs]
    return sum(reference_gram_gns(alg, f).hilbert_dim for f in family), len(family)


def _e12(n):
    """The matrix unit E_12 of M_n."""
    e = np.zeros((n, n))
    e[0, 1] = 1.0
    return e


def _assert_gram_integers_and_blocks(alg, f):
    """gns(alg, f) has the Gram path's hilbert_dim, and its block images of the
    basis are left multiplication read through its own coset map, to 1e-12."""
    rep = states.gns(alg, f)
    assert rep.hilbert_dim == reference_gram_gns(alg, f).hilbert_dim
    pinv = rep.coset_map.conj().T / np.sum(np.abs(rep.coset_map) ** 2, axis=1)
    want = _reference_left_multiplication(alg, rep.coset_map, pinv)
    assert np.max(np.abs(rep._apply_each(alg.basis) - want), initial=0.0) <= 1e-12
    return rep


class TestUniversalFlips:
    """universal's injectivity and isometry verdicts fail together when the
    sum misses a block, and its *-homomorphism verdict when a block is
    transposed."""

    @staticmethod
    def verdicts(rep):
        defect, isometry, injective = states._isometry_certificate(rep)
        return defect <= cli.GNS_REPORT_TOL, injective, isometry <= cli.UNIVERSAL_REPORT_TOL

    def test_point_evaluation_on_c_plus_c_misses_a_block(self):
        alg = diag_algebra([1.0, 2.0])
        assert self.verdicts(states.universal_rep(alg).representation) == (True, True, True)
        point = states.gns(alg, states.vector_state(alg, [1.0, 0.0]))  # a -> a_11
        assert point.hilbert_dim == 1
        assert self.verdicts(point) == (True, False, False)

    def test_state_supported_on_m2_misses_c(self):
        alg = algebra.algebra_from_generators([_e12(3)])
        assert alg.dim == 5  # M_2 + C
        assert self.verdicts(states.universal_rep(alg).representation) == (True, True, True)
        on_m2 = states.gns(alg, states.vector_state(alg, [1.0, 0.0, 0.0]))
        assert on_m2.hilbert_dim == 2
        assert self.verdicts(on_m2) == (True, False, False)
        rest = states.gns(alg, states.vector_state(alg, [0.0, 0.0, 1.0]))
        assert self.verdicts(states.direct_sum_reps([on_m2, rest])) == (True, True, True)

    @pytest.mark.parametrize("alg", [algebra.full_matrix_algebra(2), _generated(3, 6)], ids=["M2", "gen3"])
    def test_transposed_block_flips_star_homomorphism(self, alg):
        """Transposition keeps every norm, so only the *-homomorphism verdict
        sees it."""
        rep = states.universal_rep(alg).representation
        flipped = {id(b): b.swapaxes(1, 2).copy() for b in rep.blocks}
        transposed = dataclasses.replace(rep, blocks=tuple(flipped[id(b)] for b in rep.blocks))
        assert self.verdicts(transposed) == (False, True, True)


class TestGnsMultiplicity:
    """On all of M_n, gns is a -> a (x) I_r, and on every algebra it has the
    Gram path's integers."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("rank", ["full", 2, 1])
    def test_hilbert_dim(self, n, rank):
        r = n if rank == "full" else min(rank, n)
        g = rand_matrix(np.random.default_rng([n, r]), n)[:, :r]
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        alg = algebra.full_matrix_algebra(n)
        state = states.make_state(alg, states._trace_values(alg, rho))
        rep = states.gns(alg, state)
        assert rep.blocks[0] is alg.basis and rep.multiplicities == (r,)
        assert rep.hilbert_dim == reference_gram_gns(alg, state).hilbert_dim == n * r
        assert rep.coset_map.shape == (n * r, n * n) and rep.cyclic_vector.shape == (n * r,)
        assert np.max(np.abs(rep.coset_map @ alg.identity_coords - rep.cyclic_vector)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_universal_on_generated_full_matrix_algebras(self, n):
        alg = _generated(n, 30 + n)
        assert alg.dim == n * n
        report = states.universal_rep(alg)
        got = (report.representation.hilbert_dim, report.state_count)
        assert got == _reference_universal_integers(alg)

    def test_universal_off_full_matrix_algebra_keeps_the_gram_integers(self):
        alg = algebra.algebra_from_generators([_e12(3)])
        assert alg.dim == 5  # M_2 + C
        report = states.universal_rep(alg)
        rep = report.representation
        assert (rep.hilbert_dim, report.state_count) == _reference_universal_integers(alg)
        assert set(rep.multiplicities) == {1}
        for f in (states.trace_state(alg), states.vector_state(alg, np.ones(3) / np.sqrt(3))):
            _assert_gram_integers_and_blocks(alg, f)

    def test_real_field_keeps_the_gram_integers(self):
        """All of M_3 over the reals takes the multiplicity form; M_2 + C over
        the reals the compressed block."""
        full = _generated(3, 7, real_field=True)
        summand = algebra.algebra_from_generators([_e12(3)], real_field=True)
        assert (full.dim, summand.dim) == (9, 5)
        rep = _assert_gram_integers_and_blocks(full, states.trace_state(full))
        assert rep.blocks[0] is full.basis and rep.multiplicities == (3,)
        rep = _assert_gram_integers_and_blocks(summand, states.trace_state(summand))
        assert rep.multiplicities == (1,) and rep.hilbert_dim == 5

    def test_direct_sum_keeps_multiplicities(self):
        m2 = algebra.full_matrix_algebra(2)
        vector = states.gns(m2, states.vector_state(m2, [1.0, 0.0]))
        total = states.direct_sum_reps([vector, states.gns(m2, states.trace_state(m2))])
        assert total.multiplicities == (1, 2) and total.hilbert_dim == 6
        a = algebra._random_matrices(m2, np.random.default_rng(3), 1)[0]
        want = np.zeros((6, 6), dtype=complex)
        want[:2, :2], want[2:, 2:] = a, np.kron(a, np.eye(2))
        assert np.array_equal(total.apply(a), want)

    def test_norms_of_distinct_and_shared_blocks(self):
        """Characters of C^3 as 1 x 1 blocks, one shared by two summands: the
        norm of an image is the largest of its distinct blocks' norms."""
        alg = diag_algebra([1.0, 2.0, 3.0])
        from cstarkit.gelfand import characters

        reps = [states.gns(alg, states.make_state(alg, chi.values)) for chi in characters(alg)]
        total = states.direct_sum_reps([*reps, reps[0]])
        mats = algebra._random_matrices(alg, np.random.default_rng(8), 9)
        want = np.max(np.abs(np.diagonal(mats, axis1=1, axis2=2)), axis=1)
        assert np.max(np.abs(total._norm_each(mats) - want)) <= 1e-12
        assert np.max(np.abs(linalg._op_norm_each(total._apply_each(mats)) - want)) <= 1e-12

    def test_one_multiplicity_per_block(self):
        m2 = algebra.full_matrix_algebra(2)
        with pytest.raises(ValueError):
            states.Representation(m2, (m2.basis,), (1, 2))


class TestGnsGram:
    @pytest.mark.parametrize("gens", [None, [_e12(3)]], ids=["M3", "M2+C"])
    def test_no_gram_matrix_built(self, monkeypatch, gens):
        """make_state, gns and universal_rep build no d x d Gram matrix and no
        stack of basis products, on all of M_3 and on M_2 + C (the algebra
        generated by E_12 in M_3)."""
        alg = algebra.algebra_from_generators(gens) if gens else algebra.full_matrix_algebra(3)
        assert alg.dim == (5 if gens else 9)
        calls = []
        for name in ("gram_matrix", "_factor_products"):
            monkeypatch.setattr(states, name, lambda *a, name=name: calls.append(name))
        rho = random_density(np.random.default_rng(12), 3)
        state = states.make_state(alg, states._trace_values(alg, rho))
        states.gns(alg, state)
        states.universal_rep(alg)
        assert calls == []

    def test_not_positive_still_rejected(self):
        m2 = algebra.full_matrix_algebra(2)
        f = states.functional(m2, [1.0, 0.0, 0.0, -1.0])
        with pytest.raises(NotPositive):
            states.gns(m2, f)


def _pauli_m2():
    """M_2 with an orthonormal basis other than the matrix units."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    return algebra.algebra_from_generators([sx, sz])


class TestAlgebraMismatch:
    def test_functional_on_another_basis_of_m2(self):
        pauli, m2 = _pauli_m2(), algebra.full_matrix_algebra(2)
        assert pauli.dim == m2.dim == 4
        f = states.vector_state(pauli, [1.0, 0.0])
        for call in (states.gram_matrix, states.is_positive_functional, states.functional_norm, states.gns):
            with pytest.raises(AlgebraMismatch):
                call(m2, f)
        assert states.gns(pauli, f).cyclic_vector is not None

    def test_equal_basis_in_another_object(self):
        f = states.vector_state(algebra.full_matrix_algebra(2), [1.0, 0.0])
        with pytest.raises(AlgebraMismatch):
            states.gns(algebra.full_matrix_algebra(2), f)


class TestNotPositiveMessage:
    def test_hermitian_defect_is_named(self):
        m2 = algebra.full_matrix_algebra(2)
        f = states.functional(m2, [1j, 0.0, 0.0, 1.0])
        report = states.is_positive_functional(m2, f)
        assert report.hermitian_defect > 1e-3
        with pytest.raises(NotPositive, match=re.escape(f"Hermitian defect {report.hermitian_defect:.3e}")):
            states.gns(m2, f)

    def test_min_eigenvalue_is_named(self):
        m2 = algebra.full_matrix_algebra(2)
        f = states.functional(m2, [1.0, 0.0, 0.0, -1.0])
        for call in (states.make_state, states.gns):
            with pytest.raises(NotPositive, match="min density eigenvalue -1.000e"):
                call(m2, f if call is states.gns else f.values)


def _scaled_density(seed, n, kind):
    """A seeded n x n density of one kind, as in TestScaleFreePositivity: positive of
    rank about n / 2 or more, Hermitian with an eigenvalue of -0.1 or less against a
    norm of at most 1, or Gaussian (not Hermitian)."""
    rng = np.random.default_rng(seed)
    if kind == "general":
        return rand_matrix(rng, n)
    u, _ = np.linalg.qr(rand_matrix(rng, n))
    lam = np.r_[-rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0, n - 1)]
    if kind == "positive":
        lam = np.r_[rng.uniform(0.1, 1.0, (n + 1) // 2), np.zeros(n // 2)]
    return (u * lam) @ u.conj().T


class TestScaleFreeFunctionalPositivity:
    """A functional's positivity verdict is the same for s f as for f, with no
    floor at 1, at every s of test_spectral's scale set, on M_n and on M_2 (+) C."""

    SCALES = [2.0**-1000, 1e-12, 1.0, 1e12, 2.0**1000]

    def test_small_indefinite_functional(self):
        """a -> 1e-12 tr(diag(1, -0.5) a) on M_2: its density has the eigenvalue -5e-13."""
        m2 = algebra.full_matrix_algebra(2)
        f = states.functional(m2, states._trace_values(m2, 1e-12 * np.diag([1.0, -0.5])))
        report = states.is_positive_functional(m2, f)
        assert not report.positive and report.min_gram_eigenvalue == pytest.approx(-5e-13)
        with pytest.raises(NotPositive, match="min density eigenvalue"):
            states.gns(m2, f)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["M1", "M2", "M3", "M4", "M2+C"]),
        st.sampled_from(["positive", "indefinite", "general"]),
    )
    def test_verdict_does_not_depend_on_scale(self, seed, name, kind):
        if name == "M2+C":
            alg = algebra.direct_sum_algebras(algebra.full_matrix_algebra(2), algebra.full_matrix_algebra(1))
            rho = np.zeros((3, 3), dtype=complex)
            rho[:2, :2] = _scaled_density(seed, 2, kind)
            rho[2, 2] = _scaled_density(seed + 1, 1, kind)[0, 0]
        else:
            alg = algebra.full_matrix_algebra(int(name[1]))
            rho = _scaled_density(seed, alg.ambient_dim, kind)
        values = states._trace_values(alg, rho)
        for s in self.SCALES:
            report = states.is_positive_functional(alg, states.functional(alg, s * values))
            assert report.positive == (kind == "positive"), s


class TestFunctionalValues:
    def test_values_are_a_read_only_complex_array(self):
        m2 = algebra.full_matrix_algebra(2)
        source = [1.0, 0.0, 0.0, 0.0]
        f = states.make_state(m2, source)
        assert f.values.dtype == complex and f.values.shape == (4,)
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        source[0] = 5.0
        assert f.values[0] == 1.0
        assert f.norm == pytest.approx(1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            states.functional(algebra.full_matrix_algebra(2), [1.0, 0.0])


class TestIdentityEquality:
    """Array-holding values compare and hash by identity."""

    def test_equality_and_hash(self):
        from cstarkit import gelfand, qm

        m2 = algebra.full_matrix_algebra(2)
        f = states.vector_state(m2, [1.0, 0.0])
        diag = diag_algebra([1.0, 2.0])
        ideal = algebra.subspace(diag, [np.diag([1.0, 0.0])])
        grid = qm.BoxGrid(1.0, 4)
        objects = [
            m2,
            algebra.Element(m2, np.eye(2)),
            states.functional(m2, f.values),
            f,
            gelfand.characters(diag).characters[0],
            states.gns(m2, f),
            states.Representation(m2, (np.eye(4, dtype=complex).reshape(4, 2, 2),)),
            ideal,
            algebra.quotient(diag, ideal),
            qm.box_eigenstate(grid, 1),
        ]
        for x in objects:
            assert x == x
            assert x != objects[0] or x is objects[0]
            assert hash(x) == hash(x)
        assert len(set(objects)) == len(objects)
        assert algebra.full_matrix_algebra(2) != m2


def _algebras_with_states():
    """(name, algebra, states on it): matrix units, other bases, and a direct sum."""
    rng = np.random.default_rng(40)
    out = []
    m2 = algebra.full_matrix_algebra(2)
    for name, alg in [
        ("M1", algebra.full_matrix_algebra(1)),
        ("M3", algebra.full_matrix_algebra(3)),
        ("pauli", _pauli_m2()),
        ("gen3", _generated(3, 6)),
        ("gen3-real", _generated(3, 7, real_field=True)),
        ("diagonal", diag_algebra([1.0, 2.0, 3.0])),
        ("M2+diag2", algebra.direct_sum_algebras(m2, diag_algebra([1.0, 2.0]))),
    ]:
        n = alg.ambient_dim
        x = rand_matrix(rng, n)[:, 0]
        family = [
            states.trace_state(alg),
            states.vector_state(alg, x / np.linalg.norm(x)),
            states.make_state(alg, states._trace_values(alg, random_density(rng, n))),
        ]
        out.append(pytest.param(alg, family, id=name))
    return out


class TestStructureFreeEquivalence:
    """Gram, GNS and multiplicativity from the density agree to 1e-12 with
    the contraction of the structure constants."""

    @pytest.mark.parametrize("alg, family", _algebras_with_states())
    def test_gram_gns_and_multiplicativity(self, alg, family):
        rng = np.random.default_rng(41)
        raw = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        for f in family:
            assert np.max(np.abs(states.gram_matrix(alg, f) - _reference_gram(alg, f))) <= 1e-12
            rep = states.gns(alg, f)
            images = rep._apply_each(alg.basis)
            assert images.shape == _reference_gns_matrices(alg, f).shape
            # the same coset map: the GNS matrices are then fixed
            pinv = rep.coset_map.conj().T / np.sum(np.abs(rep.coset_map) ** 2, axis=1)
            want = _reference_left_multiplication(alg, rep.coset_map, pinv)
            assert np.max(np.abs(images - want), initial=0.0) <= 1e-12
        for v in [f.values for f in family] + [raw]:
            got = states.functional(alg, v).multiplicativity_residual()
            assert abs(got - _reference_multiplicativity_residual(alg, v)) <= 1e-12

    @pytest.mark.parametrize("alg, family", _algebras_with_states())
    def test_trace_state(self, alg, family):
        got = states.trace_state(alg).values
        want = _reference_trace_state(alg).values
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_trace_values_on_matrix_units_are_exact(self, n):
        alg = algebra.full_matrix_algebra(n)
        rho = random_density(np.random.default_rng(n), n)
        want = [complex(np.trace(rho @ b)) for b in alg.basis]
        assert states._trace_values(alg, rho).tolist() == want


def _reference_positivity(alg, f):
    """Functional._positivity as it was on the Gram matrix G[i, j] = f(e_i* e_j),
    kept verbatim apart from the name and the tolerance literals."""
    g = states.gram_matrix(alg, f)
    scale = max(1.0, float(np.max(np.abs(g))) if g.size else 0.0)
    defect = float(np.linalg.norm(g - g.conj().T)) / scale
    w = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    min_eig = float(w[0]) if w.size else 0.0
    positive = defect <= 1e-9 and min_eig >= -1e-9 * scale
    return states.PositivityReport(positive, min_eig, defect)


def _density_of(alg, values):
    return np.tensordot(values, alg.basis.conj().swapaxes(1, 2), axes=1)


class TestDensityPositivity:
    """The density's verdict against the Gram rule: the same verdict; the same
    least eigenvalue whenever either is negative; and the Hermitian defect of
    the positivity gate, ||D - D*|| / ||D|| (linalg.hermitian_residual of D)."""

    @staticmethod
    def assert_against_reference(alg, f):
        got, want = states.is_positive_functional(alg, f), _reference_positivity(alg, f)
        assert got.positive == want.positive
        if min(got.min_gram_eigenvalue, want.min_gram_eigenvalue) < 0.0:
            assert abs(got.min_gram_eigenvalue - want.min_gram_eigenvalue) <= 1e-12
        defect = linalg.hermitian_residual(_density_of(alg, f.values))
        assert abs(got.hermitian_defect - defect) <= 1e-12 * defect + 1e-15

    @pytest.mark.parametrize("alg, family", _algebras_with_states())
    def test_states_and_negative_eigenvalues(self, alg, family):
        for f in family:
            self.assert_against_reference(alg, f)
            dens = _density_of(alg, f.values)
            shift = np.linalg.eigvalsh((dens + dens.conj().T) / 2.0)[0] + 1e-8
            shifted = states.functional(alg, states._trace_values(alg, dens - shift * alg.identity_matrix))
            report = states.is_positive_functional(alg, shifted)
            assert not report.positive and abs(report.min_gram_eigenvalue + 1e-8) <= 1e-12
            self.assert_against_reference(alg, shifted)

    @pytest.mark.parametrize("alg, family", _algebras_with_states())
    def test_non_hermitian(self, alg, family):
        rng = np.random.default_rng(42)
        for f in family:
            raw = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            for scale in (1e-3, 1.0, 100.0):
                g = states.functional(alg, 0.9 * f.values + scale * raw)
                assert not states.is_positive_functional(alg, g).positive
                self.assert_against_reference(alg, g)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rand_matrix(rng, n))
    return q


def _three_blocks():
    """M_3 + M_2 + C in M_6, d = 14."""
    m3, m2, m1 = (algebra.full_matrix_algebra(k) for k in (3, 2, 1))
    return algebra.direct_sum_algebras(algebra.direct_sum_algebras(m3, m2), m1)


class TestGnsRounding:
    @pytest.mark.parametrize("seed", range(6))
    def test_ill_conditioned_density_on_three_blocks(self, seed):
        """A state on M_3 + M_2 + C (d = 14) whose density has eigenvalues
        from 1 to 1e-9: the Gram path's pinv = V / sqrt(w) gave *-homomorphism
        residuals up to 7e-12; the density path stays near rounding, at the
        generic pair and on every basis pair."""
        alg = _three_blocks()
        assert alg.dim == 14
        rng = np.random.default_rng(seed)
        w = rng.permutation(np.logspace(0, -9, 6))
        u = np.zeros((6, 6), dtype=complex)
        u[:3, :3], u[3:5, 3:5], u[5, 5] = _unitary(rng, 3), _unitary(rng, 2), 1.0
        rho = (u * w) @ u.conj().T
        state = states.make_state(alg, states._trace_values(alg, rho / np.trace(rho).real))
        rep = states.gns(alg, state)
        assert rep.hilbert_dim == reference_gram_gns(alg, state).hilbert_dim == 14
        assert states._gns_residuals(rep)[0] <= 1e-12
        assert all_pairs_defect(rep) <= 1e-12


def _gns_of_a_density(alg, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, alg.ambient_dim)
    return states.gns(alg, states.make_state(alg, states._trace_values(alg, rho)))


def _defective_maps(rep):
    """rep with its one block replaced by a map that is not a *-homomorphism,
    or with its cyclic vector moved, by name."""
    (block,) = rep.blocks
    d, k, _ = block.shape
    s = np.diag(np.arange(1.0, k + 1))
    one_image = block.copy()
    one_image[-1] = one_image[-1] + 1e-6 * np.ones((k, k))
    x = rep.cyclic_vector.copy()
    x[0] += 1e-6
    return {
        "transposed": dataclasses.replace(rep, blocks=(block.swapaxes(1, 2),)),
        "similar": dataclasses.replace(rep, blocks=(s @ block @ np.linalg.inv(s),)),
        "scaled": dataclasses.replace(rep, blocks=(block * (1 + 1e-6),)),
        "one-image": dataclasses.replace(rep, blocks=(one_image,)),
        "cyclic-vector": dataclasses.replace(rep, cyclic_vector=x),
    }


_CERTIFIED_ALGEBRAS = {
    **{f"M{n}": (lambda n=n: algebra.full_matrix_algebra(n)) for n in range(1, 5)},
    "M3+M2+C": _three_blocks,
    "C[Z5]": lambda: cyclic_group_algebra(5),
}


class TestGenericPairCertificateEquivalence:
    """The generic-pair *-homomorphism verdict equals the verdict over every
    basis pair and element (conftest.all_pairs_defect), and the state
    reproduction verdict on the basis equals one dense image per basis element,
    on the GNS representation of a density and on each defective map of it."""

    @pytest.mark.parametrize("name", list(_CERTIFIED_ALGEBRAS))
    def test_verdicts(self, name):
        rep = _gns_of_a_density(_CERTIFIED_ALGEBRAS[name](), 3)
        for label, r in {"gns": rep, **_defective_maps(rep)}.items():
            hom, _, state_resid = states._gns_residuals(r)
            assert (hom <= cli.GNS_REPORT_TOL) == (all_pairs_defect(r) <= cli.GNS_REPORT_TOL), label
            want = basis_state_error(r) <= cli.GNS_REPORT_TOL
            assert (state_resid <= cli.GNS_REPORT_TOL) == want, label

    @pytest.mark.parametrize("name", list(_CERTIFIED_ALGEBRAS))
    def test_each_defect_fails(self, name):
        """Every defective map fails its certificate: a scaled block also
        fails the contraction, a moved cyclic vector only the state."""
        rep = _gns_of_a_density(_CERTIFIED_ALGEBRAS[name](), 3)
        assert all(r <= cli.GNS_REPORT_TOL for r in states._gns_residuals(rep))
        maps = _defective_maps(rep)
        verdicts = {k: [r <= cli.GNS_REPORT_TOL for r in states._gns_residuals(m)] for k, m in maps.items()}
        assert verdicts["scaled"][:2] == [False, False]
        assert verdicts["one-image"][0] is False
        assert verdicts["cyclic-vector"] == [True, True, False]
        if name not in ("M1", "C[Z5]"):  # a commutative block stays a *-homomorphism
            assert verdicts["transposed"][0] is verdicts["similar"][0] is False


class TestTypedErrors:
    def test_not_star_closed_on_upper_triangular(self):
        units = [np.diag([1.0, 0.0]), _e12(2), np.diag([0.0, 1.0])]
        t2 = algebra.algebra_from_generators(units, include_adjoints=False)
        assert t2.dim == 3 and not t2.star_closed
        values = states._trace_values(t2, np.eye(2) / 2.0)
        with pytest.raises(NotStarClosed):
            states.is_positive_functional(t2, states.functional(t2, values))
        with pytest.raises(NotStarClosed):
            states.make_state(t2, values)
        with pytest.raises(NotStarClosed):
            states.gns(t2, states.functional(t2, values))

    def test_not_unital_on_the_span_of_e12(self):
        alg = algebra.algebra_from_generators([_e12(2)], include_identity=False, include_adjoints=False)
        assert alg.dim == 1 and not alg.unital
        with pytest.raises(NotUnital):
            states.trace_state(alg)
        with pytest.raises(NotUnital):
            states.functional_norm(alg, states.functional(alg, [1.0]))


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestUniversalMemory:
    def test_no_dense_direct_sum_at_n6(self):
        """One real 6 x 6 generator: d = 36, K = 252.  A dense (36, 252, 252)
        direct sum alone takes 36.6 MB."""
        alg = _generated(6, 8)
        peak = _peak_bytes(lambda: states.universal_rep(alg))
        report = states.universal_rep(alg)
        assert (alg.dim, report.representation.hilbert_dim) == (36, 252)
        assert peak < 36 * 252 * 252 * 16 / 3
