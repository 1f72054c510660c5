"""Spectra, radius limits, exponentials, functional calculus, spectral identities."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exp_series_oracle, match_multisets, rand_hermitian, rand_matrix
from cstarkit import algebra, linalg, spectral
from cstarkit.errors import (
    BudgetExceeded,
    NoConvergence,
    NotContractive,
    NotNormal,
    NotPositive,
    Overflow,
    SingularResolvent,
)


def amb(m):
    return algebra.ambient_element(np.asarray(m, dtype=complex))


class TestSpectrum:
    def test_integer_example(self):
        rep = spectral.spectrum(amb([[3.0, 2.0], [1.0, 4.0]]))
        assert match_multisets(rep.points, [2.0, 5.0], 1e-9)
        assert rep.radius == pytest.approx(5.0)

    def test_rotation_real_vs_complex(self):
        j = [[0.0, -1.0], [1.0, 0.0]]
        assert spectral.spectrum(amb(j), "real").points == ()
        assert spectral.spectrum(amb(j), "real").radius == 0.0
        assert match_multisets(spectral.spectrum(amb(j)).points, [1j, -1j], 1e-9)

    def test_nilpotent_single_point(self):
        rep = spectral.spectrum(amb([[0.0, 1.0], [0.0, 0.0]]))
        assert rep.points == (0j,)
        assert rep.radius == 0.0


class TestResolvent:
    def test_zero_element(self):
        r = spectral.resolvent(amb(np.zeros((2, 2))), 1.0)
        assert np.allclose(r.matrix, -np.eye(2), atol=1e-12)

    def test_scalar(self):
        r = spectral.resolvent(amb([[2.0]]), 1.0)
        assert np.allclose(r.matrix, [[1.0]], atol=1e-12)

    def test_resolvent_identity(self):
        rng = np.random.default_rng(21)
        a = amb(rand_matrix(rng, 4))
        z, w = 5.0 + 2.0j, -3.0 + 1.0j
        fz = spectral.resolvent(a, z).matrix
        fw = spectral.resolvent(a, w).matrix
        assert linalg.op_norm(fz - fw - (z - w) * (fz @ fw)) <= 1e-9

    def test_spectral_point_rejected(self):
        with pytest.raises(SingularResolvent):
            spectral.resolvent(amb([[2.0, 0.0], [0.0, 3.0]]), 2.0)

    def test_solves_inside_algebra(self):
        alg = algebra.algebra_from_generators([np.diag([1.0, 2.0])], include_identity=True)
        a = algebra.element(alg, np.diag([1.0, 2.0]))
        r = spectral.resolvent(a, 7.0)
        assert r.algebra is alg
        assert linalg.op_norm((a.matrix - 7.0 * np.eye(2)) @ r.matrix - np.eye(2)) <= 1e-9


class TestRadiusLimit:
    def test_upper_triangular_trace(self):
        a = amb([[1.0, 1.0], [0.0, 2.0]])
        trace = spectral.spectral_radius_limit(a, n_max=1024)
        assert trace.values[0] == pytest.approx(math.sqrt(3 + math.sqrt(5)))
        assert abs(trace.estimate - 2.0) <= 1e-3
        assert trace.eigen_radius == pytest.approx(2.0)
        # the closed form for ||A^n|| along the way (while it fits in a float)
        for n, val in zip(trace.powers, trace.values):
            if n > 256:
                continue
            closed = math.sqrt(
                2**(2 * n) - 2**n + 1 + (2**n - 1) * math.sqrt(2**(2 * n) + 1)
            ) ** (1.0 / n)
            assert val == pytest.approx(closed, rel=1e-9)

    def test_nilpotent_collapses_to_zero(self):
        trace = spectral.spectral_radius_limit(amb([[0.0, 1.0], [0.0, 0.0]]), n_max=64)
        assert trace.values[0] == pytest.approx(1.0)
        assert trace.values[-1] == 0.0
        assert trace.estimate == 0.0

    def test_identity_all_ones(self):
        trace = spectral.spectral_radius_limit(amb(np.eye(3)), n_max=64)
        assert all(v == pytest.approx(1.0) for v in trace.values)

    def test_monotone_along_doubling(self):
        rng = np.random.default_rng(22)
        a = amb(rand_matrix(rng, 5))
        trace = spectral.spectral_radius_limit(a, n_max=256)
        for prev, nxt in zip(trace.values, trace.values[1:]):
            assert nxt <= prev + 1e-9

    @pytest.mark.parametrize("k", [-600, 0, 600])
    def test_power_of_two_scaling(self, k):
        """The trace of 2^k m is 2^k times the trace of m, where both are representable."""
        m = rand_matrix(np.random.default_rng(23), 5)
        base = spectral.spectral_radius_limit(amb(m), n_max=1024)
        scaled = spectral.spectral_radius_limit(amb(np.ldexp(m.view(float), k).view(complex)))
        assert scaled.powers == base.powers
        for v, w in zip(base.values, scaled.values):
            assert w == pytest.approx(math.ldexp(v, k), rel=1e-12)
        assert scaled.estimate == pytest.approx(math.ldexp(base.estimate, k), rel=1e-12)

    def test_subnormal_step_norm(self):
        """||w^2|| subnormal after the first step: the trace completes, and reaches 0."""
        trace = spectral.spectral_radius_limit(amb([[1e-320, 1.0], [0.0, 1e-320]]), n_max=64)
        assert trace.values[1] == pytest.approx(math.sqrt(2e-320), rel=1e-3)
        assert trace.estimate == 0.0

    def test_single_power_norm_root(self):
        a = amb([[1.0, 1.0], [0.0, 2.0]])
        assert abs(spectral.power_norm_root(a, 100) - 2.00694) <= 1e-4


class TestNeumann:
    def test_zero_gives_identity(self):
        out = spectral.neumann_inverse(amb(np.zeros((2, 2))))
        assert np.allclose(out.matrix, np.eye(2), atol=1e-12)

    def test_scalar_geometric_series(self):
        out = spectral.neumann_inverse(amb(0.5 * np.eye(2)))
        assert np.allclose(out.matrix, 2.0 * np.eye(2), atol=1e-10)

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(23)
        m = rand_matrix(rng, 4)
        m *= 0.3 / linalg.op_norm(m)
        out = spectral.neumann_inverse(amb(m), tol=1e-12)
        direct = linalg.invert(np.eye(4) - m)
        assert linalg.op_norm(out.matrix - direct) <= 1e-10

    def test_rejects_non_contraction(self):
        with pytest.raises(NotContractive):
            spectral.neumann_inverse(amb(np.eye(2)))

    def test_near_contraction_hits_term_cap(self):
        # ||a|| = 1 - 1e-7 needs about 4e8 terms at tol 1e-12.
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            spectral.neumann_inverse(amb(np.diag([1.0 - 1e-7, 0.5])))
        assert time.perf_counter() - t0 < 10.0

    def test_bound_below_cap_does_not_raise(self):
        # ceil(log(cutoff) / log||a||) terms suffice; keep that just below the cap.
        tol = 1e-12
        nrm = 0.9966
        assert math.ceil(math.log(tol * (1.0 - nrm)) / math.log(nrm)) < spectral.NEUMANN_MAX_TERMS
        out = spectral.neumann_inverse(amb(nrm * np.eye(2)), tol=tol)
        assert np.allclose(out.matrix, np.eye(2) / (1.0 - nrm), rtol=1e-9)


class TestExp:
    def test_triangular_closed_form(self):
        e = math.e
        out = spectral.exp_element(amb([[1.0, 5.0], [0.0, 2.0]]))
        expected = np.array([[e, 5 * (e**2 - e)], [0.0, e**2]])
        assert linalg.op_norm(out.matrix - expected) <= 1e-10

    def test_exp_zero(self):
        out = spectral.exp_element(amb(np.zeros((3, 3))))
        assert np.allclose(out.matrix, np.eye(3), atol=1e-14)

    def test_noncommuting_product_differs(self):
        e = math.e
        a = amb([[1.0, 0.0], [0.0, 0.0]])
        b = amb([[0.0, 1.0], [0.0, 0.0]])
        lhs = spectral.exp_element(a + b).matrix
        rhs = spectral.exp_element(a).matrix @ spectral.exp_element(b).matrix
        assert np.allclose(lhs, [[e, e - 1.0], [0.0, 1.0]], atol=1e-10)
        assert np.allclose(rhs, [[e, e], [0.0, 1.0]], atol=1e-10)
        assert linalg.op_norm(lhs - rhs) > 0.5

    @pytest.mark.parametrize(
        "m", [[[1e300, 0.0], [1e300, 2e300]], [[1.7e308, 0.0], [1.7e308, 1.7e308]]]
    )
    def test_overflow_raises(self, m):
        with pytest.raises(Overflow):
            spectral.exp_element(amb(m))

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            m = rand_matrix(rng, 4)
            out = spectral.exp_element(amb(m)).matrix
            assert linalg.op_norm(out - exp_series_oracle(m)) <= 1e-10 * linalg.op_norm(out)


class TestPolyApply:
    def test_cubic_example(self):
        a = amb([[3.0, 2.0], [1.0, 4.0]])
        p = spectral.poly_apply(a, [5.0, 8.0, 10.0, 1.0])
        assert np.allclose(p.matrix, [[186.0, 234.0], [117.0, 303.0]], atol=1e-8)
        rep = spectral.spectrum(p)
        assert match_multisets(rep.points, [69.0, 420.0], 1e-6)

    def test_constant_polynomial(self):
        p = spectral.poly_apply(amb(rand_matrix(np.random.default_rng(25), 3)), [4.0])
        assert np.allclose(p.matrix, 4.0 * np.eye(3), atol=1e-12)
        assert spectral.spectrum(p).points == (4.0 + 0j,)

    def test_empty_polynomial_is_zero(self):
        alg = algebra.full_matrix_algebra(2)
        p = spectral.poly_apply(algebra.Element(alg, [[1.0, 2.0], [3.0, 4.0]]), [])
        assert p.algebra is alg and np.array_equal(p.matrix, np.zeros((2, 2)))

    def test_spectral_mapping_on_random_normal(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            m = rand_hermitian(rng, 4)
            coeffs = rng.standard_normal(4)
            p = spectral.poly_apply(amb(m), coeffs)
            eigs = linalg.eig_general(m)
            mapped = [sum(c * z**k for k, c in enumerate(coeffs)) for z in eigs]
            assert match_multisets(linalg.eig_general(p.matrix), mapped, 1e-8)


class TestClassify:
    def test_pi_swap_matrix(self):
        flags = spectral.classify(amb([[0.0, math.pi], [math.pi, 0.0]]))
        assert flags.hermitian and flags.normal
        assert not flags.positive and not flags.unitary

    def test_exp_i_hermitian_is_unitary(self):
        a = amb(1j * np.array([[0.0, math.pi], [math.pi, 0.0]]))
        u = spectral.exp_element(a)
        assert np.allclose(u.matrix, -np.eye(2), atol=1e-10)
        assert spectral.classify(u).unitary

    def test_nilpotent_has_no_flags(self):
        flags = spectral.classify(amb([[0.0, 1.0], [0.0, 0.0]]))
        assert not any([flags.hermitian, flags.unitary, flags.normal, flags.positive])

    @pytest.mark.parametrize("scale", [1e-5, 1e-200, 2.0**-1000, 2.0**1000])
    def test_small_nilpotent_is_not_normal(self, scale):
        """||a a* - a* a|| is compared with ||a||^2, with no floor at 1."""
        flags = spectral.classify(amb(scale * np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert not any([flags.hermitian, flags.unitary, flags.normal, flags.positive])

    @pytest.mark.parametrize("scale", [2.0, 1e300])
    def test_scaled_unitary_is_normal_not_unitary(self, scale):
        flags = spectral.classify(amb(scale * np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert flags.hermitian and flags.normal and not flags.unitary and not flags.positive


class TestSqrtPositive:
    def test_integer_square_root(self):
        root = spectral.sqrt_positive(amb([[25.0, 40.0], [40.0, 65.0]]))
        assert np.allclose(root.matrix, [[3.0, 4.0], [4.0, 7.0]], atol=1e-8)

    def test_identity(self):
        root = spectral.sqrt_positive(amb(np.eye(3)))
        assert np.allclose(root.matrix, np.eye(3), atol=1e-12)

    def test_square_back_on_random_psd(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            c = rand_matrix(rng, 4)
            m = c.conj().T @ c
            root = spectral.sqrt_positive(amb(m)).matrix
            assert linalg.hermitian_residual(root) <= 1e-9
            assert linalg.op_norm(root @ root - m) <= 1e-8 * linalg.op_norm(m)

    def test_rejects_non_positive(self):
        with pytest.raises(NotPositive):
            spectral.sqrt_positive(amb([[0.0, 1.0], [0.0, 0.0]]))


class TestFuncCalc:
    def test_identity_function(self):
        rng = np.random.default_rng(28)
        m = rand_hermitian(rng, 4)
        out = spectral.func_calc(amb(m), lambda z: z)
        assert linalg.op_norm(out.matrix - m) <= 1e-10

    def test_exp_matches_series(self):
        rng = np.random.default_rng(29)
        m = rand_hermitian(rng, 4)
        via_calc = spectral.func_calc(amb(m), np.exp).matrix
        via_series = spectral.exp_element(amb(m)).matrix
        assert linalg.op_norm(via_calc - via_series) <= 1e-9 * linalg.op_norm(via_series)

    def test_sqrt_matches_sqrt_positive(self):
        rng = np.random.default_rng(30)
        c = rand_matrix(rng, 4)
        m = c.conj().T @ c
        via_calc = spectral.func_calc(amb(m), lambda z: np.sqrt(z.real)).matrix
        via_sqrt = spectral.sqrt_positive(amb(m)).matrix
        assert linalg.op_norm(via_calc - via_sqrt) <= 1e-9 * linalg.op_norm(via_sqrt)

    @pytest.mark.parametrize("scale", [1.0, 1e-200])
    def test_rejects_non_normal(self, scale):
        with pytest.raises(NotNormal):
            spectral.func_calc(amb(scale * np.array([[0.0, 1.0], [0.0, 0.0]])), np.exp)

    def test_a_result_outside_the_algebra_is_ambient(self):
        """f = 1 on C diag(1, 0), whose unit is not I: f(a) = I lies outside it."""
        alg = algebra.algebra_from_generators(
            [np.diag([1.0, 0.0])], include_identity=False, include_adjoints=False
        )
        out = spectral.func_calc(algebra.Element(alg, np.diag([1.0, 0.0])), lambda z: 1.0)
        assert out.algebra is None
        assert np.max(np.abs(out.matrix - np.eye(2))) <= 1e-12


def _normal(rng, lam, real=False):
    g = rng.standard_normal((len(lam), len(lam)))
    u, _ = np.linalg.qr(g if real else g + 1j * rng.standard_normal(g.shape))
    return (u * lam) @ u.conj().T


def _random_normals(rng, n):
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    half = np.resize(lam[: max(1, n // 2)], n)
    zeros = np.r_[np.zeros(n // 2), lam[: n - n // 2]]
    return {
        "distinct": _normal(rng, lam),
        "doubled": _normal(rng, half),
        "near-repeated": _normal(rng, half + 1e-9 * np.arange(n)),
        "unitary": _normal(rng, lam / np.abs(lam)),
        "hermitian-repeated": _normal(rng, np.resize(rng.standard_normal(max(1, n // 3)), n)),
        "rank-deficient": _normal(rng, zeros),
        "rank-deficient-real": _normal(rng, zeros.real, real=True),
        "normal-within-tolerance": _normal(rng, lam) + 1e-12 * rng.standard_normal((n, n)),
    }


def _structured(rng, n):
    a = rng.standard_normal((n, n))
    return {
        "symmetric": a + a.T,
        "skew": a - a.T,
        "orthogonal": np.linalg.qr(a)[0],
        "diagonal": np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        "permutation": np.eye(n)[rng.permutation(n)],
        "identity": np.eye(n),
        "zero": np.zeros((n, n)),
    }


class TestFuncCalcMatchesSchur:
    """func_calc from one eig and the QR factor of its eigenvectors agrees with
    the complex Schur form of scipy.linalg.schur, a reference in the tests only."""

    @staticmethod
    def assert_matches_schur(m):
        from scipy.linalg import schur

        assert spectral.classify(amb(m)).normal
        t, q = schur(np.asarray(m, dtype=complex), output="complex")
        for f in (lambda z: z, np.exp, np.conj):
            want = (q * np.array([complex(f(z)) for z in np.diag(t)])) @ q.conj().T
            got = spectral.func_calc(amb(m), f).matrix
            assert linalg.op_norm(got - want) <= 1e-13 * linalg.op_norm(want)

    @pytest.mark.parametrize("n", [2, 5, 11, 24, 39])
    def test_random_normal(self, n):
        for m in _random_normals(np.random.default_rng(n), n).values():
            self.assert_matches_schur(m)

    @pytest.mark.parametrize("n", [1, 4, 17, 33])
    def test_structured(self, n):
        for m in _structured(np.random.default_rng(100 + n), n).values():
            self.assert_matches_schur(m)


class TestCommutatorScalar:
    def test_commuting_pair(self):
        a = amb(np.diag([1.0, 2.0]))
        b = amb(np.diag([5.0, -1.0]))
        rep = spectral.commutator_scalar_test(a, b)
        assert rep.scalar_residual <= 1e-12
        assert abs(rep.lambda_candidate) <= 1e-12
        assert rep.scalar_commutator

    def test_trace_vanishes_on_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = amb(rand_matrix(rng, 3)), amb(rand_matrix(rng, 3))
            rep = spectral.commutator_scalar_test(a, b)
            assert abs(rep.trace_value) <= 1e-12

    def test_no_scalar_ccr_for_matrix_units(self):
        a = amb([[0.0, 1.0], [0.0, 0.0]])
        b = amb([[0.0, 0.0], [1.0, 0.0]])
        rep = spectral.commutator_scalar_test(a, b)
        assert not rep.scalar_commutator
        assert abs(rep.trace_value) <= 1e-12

    def test_small_matrix_units_are_not_scalar(self):
        """The residual is compared with ||a|| ||b||, with no floor at 1."""
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = spectral.commutator_scalar_test(amb(1e-6 * e12), amb(1e-6 * e12.T))
        assert rep.scalar_residual == pytest.approx(1e-12) and not rep.scalar_commutator

    @pytest.mark.parametrize("k", [500, -500])
    def test_scaled_pairs_keep_their_verdict(self, k):
        rng = np.random.default_rng(32)
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        pairs = [(np.diag([1.0, 2.0]), np.diag([5.0, -1.0])), (e12, e12.T)]
        pairs += [(rand_matrix(rng, 3), rand_matrix(rng, 3)), (np.eye(3), rand_matrix(rng, 3))]
        for a, b in pairs:
            want = spectral.commutator_scalar_test(amb(a), amb(b)).scalar_commutator
            got = spectral.commutator_scalar_test(amb(2.0**k * a), amb(2.0**k * b))
            assert got.scalar_commutator == want
        assert [spectral.commutator_scalar_test(amb(a), amb(b)).scalar_commutator for a, b in pairs] == [
            True, False, False, True
        ]


class TestSpecSymmetry:
    def test_matrix_units(self):
        a = amb([[0.0, 1.0], [0.0, 0.0]])
        b = amb([[0.0, 0.0], [1.0, 0.0]])
        assert spectral.spec_symmetry_check(a, b) <= 1e-12

    def test_commuting_pair(self):
        a = amb(np.diag([1.0, 2.0, 3.0]))
        b = amb(np.diag([4.0, 5.0, 6.0]))
        assert spectral.spec_symmetry_check(a, b) <= 1e-12

    def test_random_pairs(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a, b = amb(rand_matrix(rng, 4)), amb(rand_matrix(rng, 4))
            assert spectral.spec_symmetry_check(a, b) <= 1e-7


class TestSpectralInvariants:
    def test_nonempty_spectrum_inside_norm_disk(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            a = amb(rand_matrix(rng, 4))
            rep = spectral.spectrum(a)
            assert len(rep.points) >= 1
            assert rep.radius <= a.norm() + 1e-9

    def test_beurling_consistency(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            m = rand_matrix(rng, 5)
            a = amb(m / linalg.op_norm(m))  # unit ball: absolute tolerance is scale-free
            trace = spectral.spectral_radius_limit(a, n_max=1024)
            assert abs(trace.estimate - trace.eigen_radius) <= 1e-3

    def test_normal_elements_norm_equals_radius(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            # normal = unitary conjugate of a complex diagonal
            h = rand_hermitian(rng, 4)
            u = spectral.exp_element(amb(1j * h)).matrix
            d = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            a = amb(u @ d @ u.conj().T)
            assert spectral.classify(a).normal
            assert abs(spectral.spectrum(a).radius - a.norm()) <= 1e-8

    def test_hermitian_spectra_real(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            rep = spectral.spectrum(amb(rand_hermitian(rng, 5)))
            assert max(abs(z.imag) for z in rep.points) <= 1e-8

    def test_cstar_products_have_nonnegative_spectra(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            c = rand_matrix(rng, 4)
            rep = spectral.spectrum(amb(c.conj().T @ c))
            assert min(z.real for z in rep.points) >= -1e-8
            assert max(abs(z.imag) for z in rep.points) <= 1e-8

    def test_unitary_spectra_on_circle(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            u = spectral.exp_element(amb(1j * rand_hermitian(rng, 4)))
            rep = spectral.spectrum(u)
            assert max(abs(abs(z) - 1.0) for z in rep.points) <= 1e-8

    def test_exp_respects_adjoint_and_unitarity(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            m = rand_matrix(rng, 4)
            lhs = spectral.exp_element(amb(linalg.adjoint(m))).matrix
            rhs = linalg.adjoint(spectral.exp_element(amb(m)).matrix)
            assert linalg.op_norm(lhs - rhs) <= 1e-9 * linalg.op_norm(lhs)
            h = rand_hermitian(rng, 4)
            assert spectral.classify(spectral.exp_element(amb(1j * h))).unitary

    def test_exp_multiplicative_on_commuting(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            m = rand_matrix(rng, 3)
            a, b = amb(m), amb(m @ m)  # polynomials in m commute
            lhs = spectral.exp_element(a + b).matrix
            rhs = spectral.exp_element(a).matrix @ spectral.exp_element(b).matrix
            assert linalg.op_norm(lhs - rhs) <= 1e-9 * max(1.0, linalg.op_norm(lhs))

    def test_power_decay_iff_radius_below_one(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = rand_matrix(rng, 4)
            a = amb(m)
            trace = spectral.spectral_radius_limit(a, n_max=4096)
            decays = linalg.op_norm(np.linalg.matrix_power(m, 60)) < 1e-6
            if trace.eigen_radius < 0.95:
                assert decays
            if trace.eigen_radius > 1.05:
                assert not decays


# The spectrum and Neumann computations as they were before spectrum's tail
# became a shared helper and the Neumann stopping test read the Frobenius
# norm first; verbatim apart from the names.


def _reference_eig_general(m) -> np.ndarray:
    a = linalg.require_square(linalg.as_matrix(m))
    if a.shape[0] == 0:
        return np.zeros(0, dtype=complex)
    lower = a[np.tril_indices(a.shape[0], k=-1)]
    upper = a[np.triu_indices(a.shape[0], k=1)]
    if not np.any(lower) or not np.any(upper):
        return np.diag(a).astype(complex)
    return np.linalg.eigvals(a)


def _reference_spectrum(a, field_mode: str = "complex") -> spectral.SpectrumReport:
    eigs = _reference_eig_general(spectral._matrix_of(a))
    points, radius = spectral._dedupe(eigs)
    if field_mode == "real":
        points = [complex(z.real, 0.0) for z in points if abs(z.imag) <= radius]
    rad = max((abs(z) for z in points), default=0.0)
    return spectral.SpectrumReport(tuple(points), rad, field_mode)


def _reference_neumann_terms(a, tol=1e-12) -> tuple[np.ndarray, int]:
    """neumann_inverse's loop (without the term cap), returning the sum and its term count."""
    m = a.matrix
    nrm = linalg.op_norm(m)
    e = spectral._identity_of(a)
    term = e.copy()
    total = e.copy()
    cutoff = tol * (1.0 - nrm)
    k = 0
    while linalg.op_norm(term) > cutoff:
        term = term @ m
        total += term
        k += 1
    return total, k


class TestSpectrumNeumannEquivalence:
    @staticmethod
    def _matrices():
        rng = np.random.default_rng(55)
        upper = np.triu(rand_matrix(rng, 5))
        yield np.zeros((0, 0))
        yield np.array([[2.0 - 1j]])
        yield upper
        yield upper.T
        yield np.diag([1.0, 1.0 + 1e-9, -2.0, 3j])
        yield np.array([[0.0, -1.0], [1.0, 0.0]])
        for n in (2, 7, 32):
            yield rand_matrix(rng, n)
        yield rand_hermitian(rng, 9)

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_spectrum_matches_reference(self, field):
        for m in self._matrices():
            assert np.array_equal(linalg.eig_general(m), _reference_eig_general(m))
            assert spectral.spectrum(amb(m), field) == _reference_spectrum(amb(m), field)

    def test_eig_eigenvalues_equal_eigvals(self):
        rng = np.random.default_rng(56)
        for n in (3, 16, 48):
            m = rand_matrix(rng, n)
            assert np.array_equal(np.linalg.eig(m)[0], np.linalg.eigvals(m))

    @pytest.mark.parametrize("n", [1, 3, 16, 64])
    def test_neumann_sum_and_term_count(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        for norm, tol in ((0.5, 1e-12), (0.9, 1e-12), (0.3, 1e-6), (0.99, 1e-9)):
            m = rand_matrix(rng, n)
            a = amb(norm * m / linalg.op_norm(m))
            want, terms = _reference_neumann_terms(a, tol)
            assert np.array_equal(spectral.neumann_inverse(a, tol).matrix, want)
            monkeypatch.setattr(spectral, "NEUMANN_MAX_TERMS", terms)
            spectral.neumann_inverse(a, tol)
            monkeypatch.setattr(spectral, "NEUMANN_MAX_TERMS", terms - 1)
            with pytest.raises(BudgetExceeded):
                spectral.neumann_inverse(a, tol)
            monkeypatch.undo()

    def test_neumann_inside_a_unital_algebra(self):
        alg = algebra.algebra_from_generators([np.diag([1.0, 2.0, 0.0])], include_identity=False)
        a = algebra.element(alg, np.diag([0.5, 0.25, 0.0]))
        want, _ = _reference_neumann_terms(a)
        assert np.array_equal(spectral.neumann_inverse(a).matrix, want)


def _representative(cl):
    """A cluster's point when all its points are equal, else its mean summed in
    order from 0; 0 + z is the first step of that sum, so -0.0 becomes 0.0."""
    return 0 + cl[0] if all(z == cl[0] for z in cl) else sum(cl) / len(cl)


def _reference_dedupe(values):
    """_dedupe's greedy loop, verbatim from before it gained the singleton case,
    with a cluster of equal points listed at that point."""
    radius = spectral.clustering_radius(values)
    order = sorted(values, key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in order:
        placed = False
        for cl in clusters:
            mean = sum(cl) / len(cl)
            if abs(z - mean) <= radius:
                cl.append(z)
                placed = True
                break
        if not placed:
            clusters.append([z])
    return [_representative(cl) for cl in clusters], radius


def _reference_linkage(values):
    """Single linkage, one pair at a time: union every pair with Python
    abs(z_i - z_j) <= radius, then sum each cluster's mean in (re, im) order,
    the clusters in the order of their first point; a cluster of equal points
    is listed at that point."""
    radius = spectral.clustering_radius(values)
    order = sorted(values, key=lambda z: (z.real, z.imag))
    parent = list(range(len(order)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(order)):
        for j in range(i):
            if abs(order[i] - order[j]) <= radius:
                parent[max(root(i), root(j))] = min(root(i), root(j))
    clusters: dict[int, list] = {}
    for i, z in enumerate(order):
        clusters.setdefault(root(i), []).append(z)
    return [_representative(cl) for cl in clusters.values()], radius


def _exact(points):
    """Type and bit pattern of each point, so -0.0 and 0.0 differ."""
    return [(type(p), float(p.real).hex(), float(p.imag).hex()) for p in points]


def _pair_at_gap(factor):
    """[0, d] whose gap d is factor times its own clustering radius 1e-7 (1 + d)."""
    d = factor * 1e-7 / (1.0 - factor * 1e-7)
    return np.array([0.0, d], dtype=complex)


def _clustered_row(rng, sizes, spread, scale=1.0):
    """Clusters of the given sizes about random centres, each point within
    spread clustering radii of its centre, shuffled."""
    centres = scale * (rng.standard_normal(len(sizes)) + 1j * rng.standard_normal(len(sizes)))
    radius = spectral.clustering_radius(centres)
    pts = [c + spread * radius * np.exp(2j * np.pi * rng.random(m)) * rng.random(m)
           for c, m in zip(centres, sizes)]
    return rng.permutation(np.concatenate(pts))


def _chain(start, step, count):
    """count points start, start + step r, ... for r = 1e-7 (1 + |start|), about
    the chain's clustering radius."""
    pts = start + step * np.arange(count) * 1e-7 * (1.0 + abs(start))
    return pts.astype(complex)


class TestDedupeEquivalence:
    @staticmethod
    def _inputs():
        """Rows, each with whether it is a chain: a row whose single-linkage
        clusters differ from the greedy rule's, in which each point joined the
        first cluster whose running mean lay within the radius."""
        rng = np.random.default_rng(57)
        yield np.zeros(0, dtype=complex), False
        yield np.array([2.0 - 1j]), False
        yield np.array([complex(-0.0, -0.0)]), False
        yield np.array([complex(-0.0, 1.0), complex(2.0, -0.0)]), False
        yield np.array([1.0 + 1j, 1.0 + 1j]), False
        yield np.array([3.0, 1.0, 3.0, 1.0, 2.0], dtype=complex), False
        yield np.array([1j, 0.0, -1j, complex(0.0, -0.0)]), False
        yield np.array([0.0, 0.6e-7, 1.2e-7], dtype=complex), False
        yield np.array([1.0, 2.0, 2.0 + 1e-12]), False
        yield np.array([complex(-0.0, 2.0), 1 + 0j, complex(1.0, -0.0)]), False
        for factor in (0.5, 1 - 1e-9, 1 - 1e-12, 1 + 1e-12, 1 + 5e-10, 1 + 2e-9, 1 + 1e-6, 3.0):
            yield _pair_at_gap(factor), False
            yield 1e6 * _pair_at_gap(factor), False
        for n in (2, 5, 16, 64):
            yield np.linalg.eigvals(rand_matrix(rng, n)), False
            yield np.linalg.eigvalsh(rand_hermitian(rng, n)), False
            yield np.repeat(np.linalg.eigvals(rand_matrix(rng, n)), 2), False
        for m in (3, 5, 7, 16):
            for spread in (0.0, 1e-9, 0.2, 0.45, 0.8):
                yield _clustered_row(rng, [m, 1, m], spread), (m, spread) == (7, 0.8)
        for step in (0.6, 0.6j, 0.6 * np.exp(0.7j), -0.6):
            yield _chain(1.0 + 0.5j, step, 9), True
            yield np.concatenate([_chain(0.0, step, 7), _chain(2.0, step, 3)]), False
        for scale in (1e-300, 1e300):
            yield _clustered_row(rng, [3, 5, 1], 0.3, scale), False
            yield scale * np.array([1.0, 1.0, 1.0, 2.0, 2.0 + 1e-12j]), False
        # in radii r: 0.9 joins 0, and 1.8, within r of 0.9 alone, starts a cluster after 1.3 + 0.95i
        yield 1.0 + 2e-7 * np.array([0.0, 0.9, 1.3 + 0.95j, 1.8]), True
        # gaps that numpy's array abs puts past the radius and Python's abs within it
        for re, im in (("-0x1.9d767e0557b65p-24", "-0x1.d1084593487fep-26"),
                       ("-0x1.4db362266fb3ap-24", "0x1.0e641a9724619p-24")):
            yield np.array([0j, complex(float.fromhex(re), float.fromhex(im))]), False
        yield np.array(
            [1 + 0j, complex(1.0, 1e-12), complex(1.0 - 3e-12, -0.0), 5j, 1 + 1e-12j, 5j]
        ), False
        yield _chain(-1.0, 0.6, 8), True

    def test_exact_output(self):
        """The greedy rule's bits on every row but the chains, and only there."""
        for values, chain in self._inputs():
            got, radius = spectral._dedupe(values)
            want, want_radius = _reference_dedupe(values)
            assert (_exact(got) == _exact(want)) is not chain
            assert radius == want_radius

    @staticmethod
    def _stacks():
        """Stacks of the inputs of each length, which mix rows with and without
        clusters, stacks of random clustered rows, and empty stacks."""
        by_length = {}
        for values, _ in TestDedupeEquivalence._inputs():
            if values.dtype == complex:
                by_length.setdefault(len(values), []).append(values)
        yield from (np.stack(rows) for rows in by_length.values())
        rng = np.random.default_rng(58)
        for n in (1, 2, 7, 16, 33):
            rows = [
                _clustered_row(rng, rng.integers(1, 8, n)[: rng.integers(1, n + 1)], spread)
                for spread in (0.0, 1e-12, 0.1, 0.3, 0.6, 1.0, 3.0, 1e-12, 0.6, 0.0)
            ]
            rows = [np.resize(row, n) for row in rows]
            yield np.stack(rows)
            yield np.stack([rows[0], np.linalg.eigvals(rand_matrix(rng, n)), rows[4]])
        yield np.zeros((0, 4), dtype=complex)
        yield np.zeros((3, 0), dtype=complex)
        yield np.zeros((0, 0), dtype=complex)
        yield np.array(
            [[1 + 0j, complex(1.0, 1e-12), 3 + 0j, 1 - 2e-12j], [0j, 2j, 1 + 0j, complex(-0.0, 2.0)]]
        )

    def test_each_row_of_a_stack_is_its_own_call(self):
        for stack in self._stacks():
            got, radii = spectral._dedupe(stack)
            assert len(got) == len(radii) == len(stack)
            for row, points, radius in zip(stack, got, radii):
                alone, alone_radius = spectral._dedupe(row)
                want, want_radius = _reference_linkage(row)
                assert _exact(points) == _exact(alone) == _exact(want)
                assert radius == alone_radius == want_radius

    def test_rows_at_both_ends_of_the_range(self):
        """A row near the largest float is clustered on its power-of-two
        scaling, 2^k times the same row near 1 bit for bit; a subnormal row
        keeps its own units, where its radius is in range."""
        near_one = np.array([1.7, 1.7, 1.7, -1.6, -1.6 + 1e-9j, 0.3j])
        top = np.ldexp(near_one.real, 1023) + 1j * np.ldexp(near_one.imag, 1023)
        tiny = np.array([5e-324, 1e-320, -4.76e-319j, 0.0, 2e-323, 3e-319])
        points, radii = spectral._dedupe(np.stack([top, tiny, near_one]))
        want = spectral._dedupe(near_one)[0]
        assert _exact(points[0]) == _exact(
            [np.complex128(complex(math.ldexp(z.real, 1023), math.ldexp(z.imag, 1023))) for z in want]
        )
        assert len(points[0]) == 3
        assert _exact(points[1]) == _exact(_reference_linkage(tiny)[0])
        assert radii[1] == spectral._dedupe(tiny)[1]

    @pytest.mark.parametrize("factor, count", [(1 - 1e-6, 1), (1 + 1e-6, 2)])
    def test_gap_below_and_above_the_radius(self, factor, count):
        points, _ = spectral._dedupe(_pair_at_gap(factor))
        assert len(points) == count


def _chain_rows():
    """Finite rows of random walks in steps of up to about two clustering radii."""
    start = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    steps = st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False), max_size=24)
    scale = st.sampled_from([1e-200, 1.0, 1e200])
    return st.builds(
        lambda z, dz, s: s * (z + np.cumsum(np.array(dz, dtype=complex)) * 1e-7 * (1 + abs(z))),
        start, steps, scale,
    )


class TestLinkageEquivalence:
    """_dedupe's clusters are single linkage: _reference_linkage, bit for bit."""

    def test_exact_output(self):
        for values, _ in TestDedupeEquivalence._inputs():
            got, radius = spectral._dedupe(values)
            want, want_radius = _reference_linkage(values)
            assert _exact(got) == _exact(want)
            assert radius == want_radius

    def test_chain_is_one_cluster(self):
        values = _chain(0.0, 0.6, 5)
        points, _ = spectral._dedupe(values)
        assert _exact(points) == _exact(_reference_linkage(values)[0])
        assert len(points) == 1
        assert len(_reference_dedupe(values)[0]) == 2

    @settings(max_examples=300, deadline=None)
    @given(_chain_rows())
    def test_negation_and_conjugation_keep_the_count(self, values):
        """Both maps keep every gap and the radius exactly, so the clusters too."""
        count = len(spectral._dedupe(values)[0])
        assert len(spectral._dedupe(-values)[0]) == count
        assert len(spectral._dedupe(values.conj())[0]) == count


class TestEqualPointEquivalence:
    """A cluster of equal points is listed at that point: the spectrum of c I_k
    is c and its radius |c|, bit for bit, where the mean fl(fl(2c) + c) / 3 put
    0.7 I_3 at 0.6999999999999998."""

    @pytest.mark.parametrize("c", [0.1, 0.7, 1 / 3, 1.7e308])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_scalar_matrix(self, c, k):
        for m in (c * np.eye(k), -c * np.eye(k)):
            report = spectral.spectrum(amb(m))
            assert _exact(report.points) == _exact([np.complex128(m[0, 0])])
            assert report.radius == c

    def test_mean_of_unequal_points_is_kept(self):
        """Beside an equal cluster, a cluster of unequal points keeps its mean."""
        values = np.array([0.7, 0.7, 0.7, 5.0, 5.0 + 2e-9, 5.0 + 5e-9], dtype=complex)
        points, _ = spectral._dedupe(values)
        assert _exact(points) == _exact([np.complex128(0.7), sum(values[3:]) / 3])


class TestPositiveEigendecomposition:
    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_tolerance_that_admits_nothing(self, tol):
        with pytest.raises(NotPositive):
            spectral.sqrt_positive(amb(np.eye(2)), tol=tol)

    def test_decisions_match_classify(self):
        rng = np.random.default_rng(58)
        g = rand_matrix(rng, 4)
        psd = g @ g.conj().T
        low = g[:, :2] @ g[:, :2].conj().T
        flags = []
        for m in (psd, low, low - 1e-3 * np.eye(4), rand_hermitian(rng, 4), g, psd + 1e-12j * g):
            positive = spectral.classify(amb(m)).positive
            flags.append(positive)
            if positive:
                root = spectral.sqrt_positive(amb(m)).matrix
                assert linalg.op_norm(root @ root - m) <= 1e-8 * max(1.0, linalg.op_norm(m))
            else:
                with pytest.raises(NotPositive):
                    spectral.sqrt_positive(amb(m))
        assert flags == [True, True, False, False, False, True]

    def test_op_norm_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(linalg.np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence):
            linalg.op_norm(np.eye(2))


_SCALES = [2.0**-1000, 1e-12, 1.0, 1e12, 2.0**1000]


def _gate_input(seed, n, kind):
    """A seeded n x n matrix of one kind, and the flags (hermitian, normal, positive)
    it must get: positive definite with eigenvalues in [0.1, 1]; positive of rank
    about n / 2; Hermitian with an eigenvalue of -0.1 or less against a norm of at
    most 1; normal with non-real eigenvalues; and, for n >= 2, strictly upper
    triangular plus a positive diagonal, which is not normal."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rand_matrix(rng, n))
    lam = {
        "definite": rng.uniform(0.1, 1.0, n),
        "semidefinite": np.r_[rng.uniform(0.1, 1.0, (n + 1) // 2), np.zeros(n // 2)],
        "indefinite": np.r_[-rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0, n - 1)],
        "normal": rng.standard_normal(n) + 1j * rng.standard_normal(n),
    }
    if kind in lam:
        flags = (kind != "normal", True, kind in ("definite", "semidefinite"))
        return (u * lam[kind]) @ u.conj().T, flags
    m = np.triu(rand_matrix(rng, n), 1) + np.diag(rng.uniform(0.1, 1.0, n))
    return m, (n == 1, n == 1, n == 1)


class TestScaleFreePositivity:
    """Every verdict of the positivity gate, and classify's normality, is the same
    for s a as for a at s in _SCALES, with no floor at 1; and sqrt(s a) = sqrt(s)
    sqrt(a) within 1e-12 on positive definite a.  Semidefinite a is left out of
    that identity: sqrt is not Lipschitz at 0, so a rounding-level eigenvalue
    moves the root by about 1e-8 relative."""

    @staticmethod
    def _verdicts(m):
        flags = spectral.classify(amb(m))
        try:
            root = spectral.sqrt_positive(amb(m)).matrix
        except NotPositive:
            root = None
        return (flags.hermitian, flags.normal, flags.positive, root is not None), root

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.sampled_from(["definite", "semidefinite", "indefinite", "normal", "non-normal"]),
    )
    def test_verdicts_do_not_depend_on_scale(self, seed, n, kind):
        m, flags = _gate_input(seed, n, kind)
        want, root = self._verdicts(m)
        assert want == (*flags, flags[2])
        for s in _SCALES:
            got, scaled_root = self._verdicts(s * m)
            assert got == want, s
            if kind == "definite":
                gap = linalg.op_norm(scaled_root / math.sqrt(s) - root)
                assert gap <= 1e-12 * linalg.op_norm(root), s

    def test_empty_matrix(self):
        flags = spectral.classify(amb(np.zeros((0, 0))))
        assert flags.hermitian and flags.normal and flags.positive and flags.unitary
        assert spectral.sqrt_positive(amb(np.zeros((0, 0)))).matrix.shape == (0, 0)

    def test_eigh_near_the_end_of_the_float_range(self):
        """LAPACK's eigh does not converge on this finite Hermitian part, entries
        5e307 beside 7e7; the gate reads it on its power-of-two unit scaling."""
        m = np.zeros((4, 4), dtype=complex)
        m[2, 1] = m[3, 2] = 149322179j
        m[3, 0] = 1e308j
        (positive,), _, _, (w,), (v,), _ = spectral._positivity_each(m[None])
        part = (m + m.conj().T) / 2
        assert not positive
        assert linalg.op_norm(part @ v - v * w) <= 1e-12 * linalg.op_norm(part)
        want = np.linalg.eigh(part * 2.0**-600)[0] * 2.0**600
        assert np.abs(w - want).max() <= 1e-12 * np.abs(want).max()
        with pytest.raises(NotPositive):
            spectral.sqrt_positive(amb(m))

    @pytest.mark.parametrize("value", [-1e-12, -1e-300, -5e-324])
    def test_tiny_negative_is_not_positive(self, value):
        with pytest.raises(NotPositive):
            spectral.sqrt_positive(amb([[value]]))
        assert not spectral.classify(amb([[value]])).positive
