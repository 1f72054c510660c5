"""Particle-in-a-box observables, eigenstates, expectation values."""

import numpy as np
import pytest

from cstarkit import algebra, linalg, qm, spectral, states
from cstarkit.errors import DimensionMismatch, LevelOutOfRange


def small_grid():
    return qm.BoxGrid(length=1.0, points=40)


class TestBoxEigenstate:
    def test_normalized(self):
        g = small_grid()
        psi = qm.box_eigenstate(g, 1)
        total = g.spacing * np.sum(np.abs(psi.amplitudes) ** 2)
        assert abs(total - 1.0) <= 1e-12

    def test_discrete_orthogonality(self):
        g = small_grid()
        psi1 = qm.box_eigenstate(g, 1)
        psi2 = qm.box_eigenstate(g, 2)
        overlap = g.spacing * np.vdot(psi2.amplitudes, psi1.amplitudes)
        assert abs(overlap) <= 1e-12

    def test_ground_state_positive_inside(self):
        g = small_grid()
        psi = qm.box_eigenstate(g, 1)
        assert np.all(psi.amplitudes.real > 0)

    def test_level_bounds(self):
        g = small_grid()
        with pytest.raises(LevelOutOfRange):
            qm.box_eigenstate(g, 0)
        with pytest.raises(LevelOutOfRange):
            qm.box_eigenstate(g, g.points + 1)


class TestBoxEnergy:
    def test_quadratic_level_scaling(self):
        g = small_grid()
        assert qm.box_energy(g, 2) / qm.box_energy(g, 1) == pytest.approx(4.0)

    def test_inverse_square_length_scaling(self):
        g1 = qm.BoxGrid(length=1.0, points=10)
        g2 = qm.BoxGrid(length=2.0, points=10)
        assert qm.box_energy(g1, 3) / qm.box_energy(g2, 3) == pytest.approx(4.0)

    def test_ground_level_closed_form(self):
        g = qm.BoxGrid(length=1.0, points=10, hbar=1.0, mass=1.0)
        assert qm.box_energy(g, 1) == pytest.approx(np.pi**2 / 2.0)


class TestPositionOperator:
    def test_hermitian(self):
        x = qm.position_operator(small_grid())
        assert spectral.classify(algebra.Element(None, x.matrix)).hermitian

    def test_entries_inside_box(self):
        g = small_grid()
        diag = np.diag(qm.position_operator(g).matrix).real
        assert np.all(diag > 0) and np.all(diag < g.length)

    def test_norm_below_length(self):
        g = small_grid()
        assert qm.position_operator(g).norm() <= g.length


class TestExpectation:
    def test_position_centered_for_low_levels(self):
        g = qm.BoxGrid(length=1.0, points=2000)
        x = qm.position_operator(g)
        for n in range(1, 6):
            psi = qm.box_eigenstate(g, n)
            assert abs(qm.expectation(x, psi).real - 0.5) <= 1e-3

    def test_identity_observable(self):
        g = small_grid()
        psi = qm.box_eigenstate(g, 3)
        one = algebra.ambient_element(np.eye(g.points))
        assert qm.expectation(one, psi) == pytest.approx(1.0)

    def test_cosine_closed_forms(self):
        g = qm.BoxGrid(length=1.0, points=2000)
        cobs = qm.cosine_observable(g)
        for n in range(1, 6):
            psi = qm.box_eigenstate(g, n)
            val = qm.expectation(cobs, psi).real
            assert abs(val - (1.0 if n == 1 else 0.0)) <= 1e-3

    def test_dimension_mismatch(self):
        g = small_grid()
        with pytest.raises(DimensionMismatch):
            qm.expectation(algebra.ambient_element(np.eye(3)), qm.box_eigenstate(g, 1))


class TestCosineObservable:
    def test_hermitian(self):
        cobs = qm.cosine_observable(small_grid())
        assert spectral.classify(algebra.Element(None, cobs.matrix)).hermitian

    def test_norm_at_most_two(self):
        assert qm.cosine_observable(small_grid()).norm() <= 2.0 + 1e-12


class TestPhaseShift:
    def test_k_zero_is_identity(self):
        g = small_grid()
        assert np.allclose(qm.phase_shift(g, 0.0).matrix, np.eye(g.points), atol=1e-14)

    def test_unitary(self):
        g = small_grid()
        u = qm.phase_shift(g, 3.7).matrix
        assert linalg.op_norm(u @ u.conj().T - np.eye(g.points)) <= 1e-12

    def test_matches_exponential_of_position(self):
        g = qm.BoxGrid(length=1.0, points=200)
        k = 2.5
        direct = qm.phase_shift(g, k).matrix
        series = spectral.exp_element(
            algebra.ambient_element(1j * k * qm.position_operator(g).matrix)
        ).matrix
        assert linalg.op_norm(direct - series) <= 1e-10

    def test_one_parameter_group_law(self):
        g = small_grid()
        k1, k2 = 1.3, -0.4
        lhs = qm.phase_shift(g, k1).matrix @ qm.phase_shift(g, k2).matrix
        rhs = qm.phase_shift(g, k1 + k2).matrix
        assert linalg.op_norm(lhs - rhs) <= 1e-10


class TestMomentumOperator:
    def test_periodic_is_hermitian(self):
        p = qm.momentum_operator(small_grid(), periodic=True)
        assert linalg.hermitian_residual(p.matrix) <= 1e-12

    def test_interior_rows_of_ccr(self):
        g = small_grid()
        x = qm.position_operator(g)
        p = qm.momentum_operator(g, periodic=True)
        comm = x.matrix @ p.matrix - p.matrix @ x.matrix
        # acting on the constant vector, interior rows give exactly i*hbar
        row_sums = comm[1:-1].sum(axis=1)
        assert np.max(np.abs(row_sums - 1j * g.hbar)) <= 1e-8 * g.hbar

    def test_no_finite_dimensional_ccr(self):
        g = small_grid()
        x = qm.position_operator(g)
        p = qm.momentum_operator(g, periodic=True)
        report = spectral.commutator_scalar_test(algebra.Element(None, x.matrix), p)
        assert abs(report.trace_value) <= 1e-12 * linalg.op_norm(p.matrix)
        assert not report.scalar_commutator
        assert report.scalar_residual > 0.1 * g.hbar  # boundary rows break it


def _momentum_by_loop(grid, periodic):
    """momentum_operator as it was built, one entry pair per loop step."""
    n = grid.points
    d = np.zeros((n, n), dtype=complex)
    for j in range(n - 1):
        d[j, j + 1] = 1.0
        d[j + 1, j] = -1.0
    if periodic:
        d[0, n - 1] = -1.0
        d[n - 1, 0] = 1.0
    return (-1j * grid.hbar / (2.0 * grid.spacing)) * d


class TestMomentumEquivalence:
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_bit_identical_to_the_loop(self, n, periodic):
        g = qm.BoxGrid(length=1.7, points=n, hbar=0.3)
        got = qm.momentum_operator(g, periodic=periodic).matrix
        want = _momentum_by_loop(g, periodic)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestEigenstateFunctional:
    def grid_and_algebra(self):
        g = qm.BoxGrid(length=1.0, points=24)
        x = qm.position_operator(g)
        alg = algebra.algebra_from_generators([x.matrix], include_identity=True)
        return g, alg, x

    def test_position_expectation_is_center(self):
        g, alg, x = self.grid_and_algebra()
        omega = qm.eigenstate_functional(g, 1, alg)
        assert abs(omega(algebra.element(alg, x.matrix)) - g.length / 2.0) <= 1e-3

    def test_identity_normalization(self):
        g, alg, _ = self.grid_and_algebra()
        omega = qm.eigenstate_functional(g, 1, alg)
        assert abs(omega(np.eye(g.points)) - 1.0) <= 1e-9

    def test_cosine_value_on_ground_state(self):
        g = qm.BoxGrid(length=1.0, points=24)
        cobs = qm.cosine_observable(g)
        alg = algebra.algebra_from_generators([cobs.matrix], include_identity=True)
        omega = qm.eigenstate_functional(g, 1, alg)
        assert abs(omega(algebra.element(alg, cobs.matrix)) - 1.0) <= 1e-3

    def test_matches_grid_expectation(self):
        g, alg, x = self.grid_and_algebra()
        for n in (1, 2, 3):
            omega = qm.eigenstate_functional(g, n, alg)
            psi = qm.box_eigenstate(g, n)
            assert abs(omega(x.matrix) - qm.expectation(x, psi)) <= 1e-10


class TestQmInvariants:
    def test_all_observables_hermitian(self):
        g = small_grid()
        for obs in (
            qm.position_operator(g),
            qm.cosine_observable(g),
            qm.momentum_operator(g, periodic=True),
        ):
            assert linalg.hermitian_residual(obs.matrix) <= 1e-12

    def test_expectations_real_for_hermitian(self):
        g = small_grid()
        rng = np.random.default_rng(81)
        h = rng.standard_normal((g.points, g.points))
        h = (h + h.T) / 2.0
        obs = algebra.ambient_element(h)
        for n in (1, 2, 5):
            val = qm.expectation(obs, qm.box_eigenstate(g, n))
            assert abs(val.imag) <= 1e-10

    def test_eigenstate_functionals_are_states(self):
        g = qm.BoxGrid(length=1.0, points=12)
        x = qm.position_operator(g)
        alg = algebra.algebra_from_generators([x.matrix], include_identity=True)
        for n in (1, 2):
            omega = qm.eigenstate_functional(g, n, alg)
            assert states.is_positive_functional(alg, omega).positive
            assert abs(states.functional_norm(alg, omega) - 1.0) <= 1e-9


class TestMultiplicationOperator:
    def test_values_read_only_complex(self):
        x = qm.position_operator(small_grid())
        assert x.values.dtype == complex and not x.values.flags.writeable
        assert np.array_equal(x.values, small_grid().positions)

    def test_matrix_is_the_diagonal(self):
        u = qm.phase_shift(small_grid(), 1.1)
        assert np.array_equal(u.matrix, np.diag(u.values))

    def test_norm_is_largest_modulus(self):
        cobs = qm.cosine_observable(small_grid())
        assert cobs.norm() == pytest.approx(linalg.op_norm(cobs.matrix), rel=1e-14)

    def test_rejects_matrix_values(self):
        with pytest.raises(DimensionMismatch):
            qm.MultiplicationOperator(np.eye(3))

    def test_expectation_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            qm.expectation(qm.MultiplicationOperator(np.ones(3)), qm.box_eigenstate(small_grid(), 1))

    @pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 1e300])
    def test_hermitian_residual_matches_dense(self, scale):
        rng = np.random.default_rng(12)
        v = scale * (rng.standard_normal(30) + 1j * rng.standard_normal(30))
        got = qm.MultiplicationOperator(v).hermitian_residual()
        # max |2 Im v| / max |v| against the SVD's norms, which may differ in the last bit
        assert got == pytest.approx(linalg.hermitian_residual(np.diag(v)), rel=1e-14)
        assert qm.MultiplicationOperator(v.real).hermitian_residual() == 0.0


SWEEP_GRIDS = [2, 3, 40, 999, 2000]
SWEEP_LENGTHS = [1.0, 0.7, 1e-100, 1e100]


def _observables(grid):
    return {
        "position": qm.position_operator(grid),
        "cosine": qm.cosine_observable(grid),
        "phase": qm.phase_shift(grid, 3.7 / grid.length),
    }


class TestDenseEquivalence:
    """Multiplication operators give the dense diagonal path's exact values."""

    @pytest.mark.parametrize("points", SWEEP_GRIDS)
    @pytest.mark.parametrize("length", SWEEP_LENGTHS)
    def test_expectations(self, points, length):
        grid = qm.BoxGrid(length=length, points=points)
        for name, obs in _observables(grid).items():
            dense = algebra.Element(None, np.diag(obs.values))
            for n in sorted({1, 2, min(5, points), points}):
                psi = qm.box_eigenstate(grid, n)
                assert qm.expectation(obs, psi) == qm.expectation(dense, psi), (name, n)

    @pytest.mark.parametrize("points", [p for p in SWEEP_GRIDS if p <= 40])
    @pytest.mark.parametrize("length", SWEEP_LENGTHS)
    def test_hermitian_residual(self, points, length):
        grid = qm.BoxGrid(length=length, points=points)
        obs = _observables(grid)
        for name in ("position", "cosine"):
            assert obs[name].hermitian_residual() == 0.0
            assert linalg.hermitian_residual(obs[name].matrix) == 0.0
        phase = obs["phase"]
        want = linalg.hermitian_residual(phase.matrix)
        assert phase.hermitian_residual() == pytest.approx(want, rel=1e-14)
