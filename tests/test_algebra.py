"""Algebra construction, ideals, quotients, unitization, complexification."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import doubled_normal, rand_matrix
from cstarkit import algebra, gelfand, linalg, states
from cstarkit.tolerances import QUOTIENT_NORM_GAP
from cstarkit.errors import (
    BudgetExceeded,
    DimensionMismatch,
    NoConvergence,
    NotInAlgebra,
    NotProper,
    NotRealAlgebra,
    NotSubspace,
    NotTwoSided,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
E22 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def diag_algebra(entries):
    return algebra.algebra_from_generators(
        [np.diag(np.asarray(entries, dtype=complex))], include_identity=True
    )


def _corner():
    """Generated by diag(1, 2, 0) without the identity: *-closed, unit diag(1, 1, 0)."""
    return algebra.algebra_from_generators([np.diag([1.0, 2.0, 0.0])], include_identity=False)


def _upper_corner():
    """span{E11, E12, E22} in M_3: not *-closed, unit E11 + E22."""
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    return algebra.algebra_from_generators(
        [units[0], units[1], units[4]], include_identity=False, include_adjoints=False
    )


class TestFromGenerators:
    def test_identity_alone_is_scalars(self):
        alg = algebra.algebra_from_generators([np.eye(2)], include_identity=True)
        assert alg.dim == 1
        assert alg.unital and alg.abelian and alg.star_closed

    def test_nilpotent_generator_without_closure_flags(self):
        alg = algebra.algebra_from_generators(
            [E12], include_identity=False, include_adjoints=False
        )
        assert alg.dim == 1
        assert not alg.unital
        assert not alg.star_closed

    @pytest.mark.parametrize("t, closed", [(1 - 1e-7, False), (1 - 1e-11, True)])
    def test_star_closed_flips_at_the_tolerance(self, t, closed):
        """a = E12 + t E21 has a^2 = t I, so A = span{I, a}, and a* lies off A
        by the relative residual |1 - t^2| / (1 + t^2): 1e-7 or 1e-11."""
        alg = algebra.algebra_from_generators([E12 + t * E21], include_adjoints=False)
        assert alg.dim == 2
        assert alg.star_closed == closed

    def test_star_closure_of_nilpotent_generator_is_full(self):
        alg = algebra.algebra_from_generators([E12], include_identity=False)
        assert alg.dim == 4  # E12 and E21 generate all of M2

    def test_diagonal_generator_closure(self):
        alg = diag_algebra([1.0, 2.0])
        assert alg.dim == 2
        # closure fixed point: powers of the generator stay inside
        g = np.diag([1.0, 2.0]).astype(complex)
        acc = g
        for _ in range(4):
            acc = acc @ g
            assert alg.contains(acc)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DimensionMismatch):
            algebra.algebra_from_generators([np.eye(2), np.eye(3)])

    def test_closure_idempotent(self):
        alg = algebra.algebra_from_generators([rand_matrix(np.random.default_rng(1), 3)])
        again = algebra.algebra_from_generators(
            list(alg.basis), include_identity=False, include_adjoints=True
        )
        assert again.dim == alg.dim
        for b in alg.basis:
            assert again.contains(b)
        for b in again.basis:
            assert alg.contains(b)


class TestWordsClosureScale:
    """The words closure spans the same algebra at any scale of its generators."""

    JORDAN = np.diag([1.0, 2.0, 2.0, 2.0]) + np.eye(4, k=1)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e160, 1e200, 1e300, 1e-160, 1e-300])
    @pytest.mark.parametrize("flags, dim", [({"include_adjoints": False}, 4), ({"real_field": True}, 16)])
    def test_jordan_generator(self, scale, flags, dim):
        alg = algebra.algebra_from_generators([scale * self.JORDAN], **flags)
        assert alg.dim == dim
        _assert_same_span(alg.basis, algebra.algebra_from_generators([self.JORDAN], **flags).basis)
        assert alg.contains(scale * self.JORDAN)


class TestFindIdentity:
    def test_full_matrix_algebra(self):
        alg = algebra.full_matrix_algebra(2)
        e = algebra.find_identity(alg)
        assert np.allclose(e.matrix, np.eye(2), atol=1e-12)

    def test_strictly_upper_triangular_has_none(self):
        alg = algebra.algebra_from_generators(
            [E12], include_identity=False, include_adjoints=False
        )
        assert algebra.find_identity(alg) is None

    def test_diagonal_in_m3(self):
        alg = algebra.algebra_from_generators(
            [np.diag([1.0, 2.0, 3.0]).astype(complex)], include_identity=True
        )
        e = algebra.find_identity(alg)
        assert np.allclose(e.matrix, np.eye(3), atol=1e-10)

    @pytest.mark.parametrize(
        "make, star, unit",
        [
            (_corner, True, np.diag([1.0, 1.0, 0.0])),
            (_upper_corner, False, np.diag([1.0, 1.0, 0.0])),
        ],
        ids=["corner", "upper-corner"],
    )
    def test_unit_below_the_identity(self, make, star, unit):
        alg = make()
        assert alg.star_closed == star
        assert np.max(np.abs(alg.identity_matrix - unit)) <= 1e-12

    def test_identity_is_selfadjoint_when_star_closed(self):
        for alg in (algebra.full_matrix_algebra(2), diag_algebra([1.0, 5.0, 2.0])):
            e = algebra.find_identity(alg).matrix
            assert linalg.op_norm(e - linalg.adjoint(e)) <= 1e-9


class TestIsAbelian:
    def test_diagonal_true(self):
        assert diag_algebra([1.0, 2.0, 3.0]).abelian

    def test_full_m2_false(self):
        assert not algebra.full_matrix_algebra(2).abelian

    def test_circulant_true(self):
        from cstarkit.gelfand import cyclic_group_algebra

        assert cyclic_group_algebra(4).abelian

    @pytest.mark.parametrize("t, abelian", [(1e-7, False), (1e-11, True)])
    def test_abelian_flips_at_the_tolerance(self, t, abelian):
        """span{E11, E22 + t E12} has the one commutator [E11, E22 + t E12] = t E12,
        so the generic commutator is about t against MEMBERSHIP_TOL = 1e-9."""
        b = np.stack([E11, (E22 + t * E12) / np.sqrt(1.0 + t * t)])
        assert algebra.Algebra(b).abelian == abelian


class TestIdealCheck:
    def test_row_span_is_right_only(self):
        m2 = algebra.full_matrix_algebra(2)
        s = algebra.subspace(m2, [E11, E12])
        assert algebra.ideal_check(m2, s) == "right_only"

    def test_column_span_is_left_only(self):
        m2 = algebra.full_matrix_algebra(2)
        s = algebra.subspace(m2, [E11, E21])
        assert algebra.ideal_check(m2, s) == "left_only"

    def test_zero_subspace_two_sided(self):
        m2 = algebra.full_matrix_algebra(2)
        s = algebra.subspace(m2, [])
        assert algebra.ideal_check(m2, s) == "two_sided"

    def test_rejects_outside_span(self):
        alg = diag_algebra([1.0, 2.0])
        with pytest.raises(NotSubspace):
            algebra.subspace(alg, [E12])

    @pytest.mark.parametrize("t, kind", [(2e-7, "not_ideal"), (1e-11, None)])
    @pytest.mark.parametrize(
        "mats, one_sided",
        [([E11, E21], "left_only"), ([E11, E12], "right_only")],
        ids=["column", "row"],
    )
    def test_tilted_one_sided_ideal_flips_at_the_tolerance(self, t, kind, mats, one_sided):
        """A column (row) of M_2 tilted by t E12 (t E21) in its first matrix: the
        generic products leave it by about t against MEMBERSHIP_TOL = 1e-9."""
        m2 = algebra.full_matrix_algebra(2)
        tilt = E12 if one_sided == "left_only" else E21
        s = algebra.subspace(m2, [mats[0] + t * tilt, mats[1]])
        assert algebra.ideal_check(m2, s) == (kind or one_sided)

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 3e-9, 3e-8, 1e-6])
    def test_stacked_check_matches_contains(self, eps):
        """One stacked membership check accepts exactly what contains(m, ELEMENT_TOL) does."""
        alg = diag_algebra([1.0, 2.0])
        mats = [E11 + eps * E12, 2.0 * E22]
        if all(alg.contains(m, algebra.ELEMENT_TOL) for m in mats):
            assert algebra.subspace(alg, mats).dim == 2
        else:
            assert eps > algebra.ELEMENT_TOL
            with pytest.raises(NotSubspace):
                algebra.subspace(alg, mats)


class TestWrongShapeMembership:
    """An n x n algebra meets a matrix of another size with DimensionMismatch."""

    def test_contains(self):
        with pytest.raises(DimensionMismatch):
            algebra.full_matrix_algebra(2).contains(np.eye(3))

    @pytest.mark.parametrize("mats", [[np.eye(3)], [E11, np.eye(3)]], ids=["alone", "second"])
    def test_subspace(self, mats):
        with pytest.raises(DimensionMismatch):
            algebra.subspace(algebra.full_matrix_algebra(2), mats)

    def test_element(self):
        with pytest.raises(DimensionMismatch):
            algebra.element(algebra.full_matrix_algebra(2), np.eye(3))

    def test_coset_coords(self):
        m2 = algebra.full_matrix_algebra(2)
        q = algebra.quotient(m2, algebra.subspace(m2, []))
        with pytest.raises(DimensionMismatch):
            q.coset_coords(np.eye(3))


class TestMembershipAtExtremeScales:
    """A relative residual ignores a power-of-two scale, also where the squares of
    the entries leave the float range."""

    @pytest.mark.parametrize("j", [1000, -1000])
    def test_residual_is_scale_free(self, j):
        tri = _triangular(3)
        x = rand_matrix(np.random.default_rng(37), 3)
        assert tri.membership_residual(linalg.ldexp(x, j)) == tri.membership_residual(x) > 0.1
        with pytest.raises(NotInAlgebra):
            algebra.element(tri, linalg.ldexp(x, j))
        algebra.element(tri, linalg.ldexp(np.triu(x), j))

    @pytest.mark.parametrize("j", [664, -664, 1000, -1000])
    def test_subspace_basis_is_scale_free(self, j):
        """Squares of the entries of 2^664 m overflow and those of 2^-664 m
        underflow, yet the checks and the basis read the power-of-two-scaled stack."""
        alg, mats = _second_block_matrices(np.random.default_rng(38))
        want = algebra.subspace(alg, mats).onb
        assert np.array_equal(algebra.subspace(alg, [linalg.ldexp(m, j) for m in mats]).onb, want)

    def test_mixed_stack_rows_are_their_own_calls(self):
        """Each row of a stack of members, non-members, near misses on both sides
        of ELEMENT_TOL and the zero matrix, at five scales, has the residual bits of
        its one-matrix call and the verdict of m at every scale; the bits of m too
        while the entries stay normal (at 2^-1000 the near misses' do not)."""
        tri = _triangular(3)
        x = rand_matrix(np.random.default_rng(39), 3)
        up, low = np.triu(x), np.tril(x, -1)
        off = np.linalg.norm(up) / np.linalg.norm(low) * low
        tol = algebra.ELEMENT_TOL
        mats = [x, up, 0 * x, up + 0.5 * tol * off, up + 2 * tol * off]
        shifts = [0, 664, -664, 1000, -1000]
        stack = np.stack([linalg.ldexp(m, j) for j in shifts for m in mats])
        order = np.random.default_rng(40).permutation(len(stack))
        got = np.empty(len(stack))
        got[order] = algebra._membership_residuals(tri.basis, stack[order])
        alone = [algebra._membership_residuals(tri.basis, m[None])[0] for m in stack]
        assert np.array_equal(got, alone)
        got = got.reshape(len(shifts), len(mats))
        assert np.array_equal(got[:-1], np.tile(got[0], (len(shifts) - 1, 1)))
        verdicts = got <= tol
        assert verdicts.tolist() == [[False, True, True, True, False]] * len(shifts)
        assert got[0, 2] == 0.0


def _second_block_matrices(rng):
    """M_2 (+) M_2 and three Gaussian matrices of its second summand."""
    alg = algebra.direct_sum_algebras(algebra.full_matrix_algebra(2), algebra.full_matrix_algebra(2))
    mats = np.zeros((3, 4, 4), dtype=complex)
    mats[:, 2:, 2:] = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    return alg, list(mats)


class TestQuotient:
    def test_point_evaluation_ideal(self):
        alg = diag_algebra([1.0, 2.0, 3.0])
        e2 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        e3 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        q = algebra.quotient(alg, algebra.subspace(alg, [e2, e3]))
        assert q.dim == 1
        # hand expansion: the coset of E11 is idempotent
        c = q.coset_coords(np.diag([1.0, 0.0, 0.0]).astype(complex))
        prod = q.coset_multiply(c, c)
        assert np.allclose(prod, c, atol=1e-10)
        # the quotient map is a homomorphism: [x][y] = [xy] on sampled pairs
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = algebra.random_element(alg, rng)
            y = algebra.random_element(alg, rng)
            via_table = q.coset_multiply(q.coset_coords(x.matrix), q.coset_coords(y.matrix))
            direct = q.coset_coords((x @ y).matrix)
            assert np.max(np.abs(via_table - direct)) <= 1e-9 * max(
                1.0, x.norm() * y.norm()
            )

    def test_zero_ideal_reproduces_structure_constants(self):
        alg = diag_algebra([1.0, 2.0])
        q = algebra.quotient(alg, algebra.subspace(alg, []))
        assert q.dim == alg.dim
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = algebra.random_element(alg, rng)
            y = algebra.random_element(alg, rng)
            via_table = q.coset_multiply(q.coset_coords(x.matrix), q.coset_coords(y.matrix))
            direct = q.coset_coords((x @ y).matrix)
            assert np.max(np.abs(via_table - direct)) <= 1e-9

    def test_coset_multiply_rejects_wrong_length(self):
        """Coordinates of another length than q.dim, even when a table would broadcast them."""
        alg = diag_algebra([1.0, 2.0, 3.0])
        e2 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        e3 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        q = algebra.quotient(alg, algebra.subspace(alg, [e2, e3]))
        assert q.dim == 1
        for x, y in [(np.ones(3), np.ones(3)), (np.ones(1), np.ones(2)), (np.ones((1, 1)), np.ones(1))]:
            with pytest.raises(DimensionMismatch):
                q.coset_multiply(x, y)

    def test_full_ideal_not_proper(self):
        alg = diag_algebra([1.0, 2.0])
        full = algebra.subspace(alg, [np.eye(2, dtype=complex), np.diag([1.0, -1.0])])
        with pytest.raises(NotProper):
            algebra.quotient(alg, full)

    def test_non_two_sided_rejected(self):
        m2 = algebra.full_matrix_algebra(2)
        with pytest.raises(NotTwoSided):
            algebra.quotient(m2, algebra.subspace(m2, [E11, E12]))


class TestQuotientNorm:
    def setup_method(self):
        self.alg = diag_algebra([3.0, 1.0, 2.0])
        e2 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        e3 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        self.ideal = algebra.subspace(self.alg, [e2, e3])
        self.q = algebra.quotient(self.alg, self.ideal)

    def test_member_of_ideal_maps_to_zero(self):
        a = algebra.element(self.alg, np.diag([0.0, 2.0, -1.0]))
        assert algebra.quotient_norm(self.q, a) <= 1e-6

    def test_point_evaluation_value(self):
        a = algebra.element(self.alg, np.diag([3.0, 1.0, 2.0]))
        assert abs(algebra.quotient_norm(self.q, a) - 3.0) <= 1e-4

    def test_zero_ideal_gives_op_norm(self):
        q0 = algebra.quotient(self.alg, algebra.subspace(self.alg, []))
        rng = np.random.default_rng(7)
        a = algebra.random_element(self.alg, rng)
        assert abs(algebra.quotient_norm(q0, a) - a.norm()) <= 1e-12

    def test_never_exceeds_op_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = algebra.random_element(self.alg, rng)
            assert algebra.quotient_norm(self.q, a) <= a.norm() + 1e-9

    def test_submultiplicative_on_samples(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = algebra.random_element(self.alg, rng)
            b = algebra.random_element(self.alg, rng)
            qa = algebra.quotient_norm(self.q, a)
            qb = algebra.quotient_norm(self.q, b)
            qab = algebra.quotient_norm(self.q, a @ b)
            assert qab <= qa * qb + 1e-4


def _m2_plus_m3():
    """M_2 + M_3 with the ideal 0 + M_3, whose central unit is p = 0 + I_3."""
    m2, m3 = algebra.full_matrix_algebra(2), algebra.full_matrix_algebra(3)
    alg = algebra.direct_sum_algebras(m2, m3)
    units = np.zeros((9, 5, 5), dtype=complex)
    units[:, 2:, 2:] = np.eye(9).reshape(9, 3, 3)
    return alg, algebra.subspace(alg, list(units)), np.diag([0.0, 0, 1, 1, 1])


def _diagonal():
    """The diagonal algebra of TestQuotientNorm with the ideal {f : f_1 = 0}."""
    alg = diag_algebra([3.0, 1.0, 2.0])
    ideal = [np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    return alg, algebra.subspace(alg, ideal), np.diag([0.0, 1, 1])


def _matrix_unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def _triangular(n):
    """T_n, the upper-triangular n x n matrices: not *-closed."""
    units = [_matrix_unit(n, i, j) for i in range(n) for j in range(i, n)]
    return algebra.algebra_from_generators(units, include_adjoints=False)


def _parrott_t3(rng):
    """T_3 modulo span{E_13}, a seeded element of T_3, and Parrott's value for it."""
    tri = _triangular(3)
    q = algebra.quotient(tri, algebra.subspace(tri, [_matrix_unit(3, 0, 2)]))
    a = algebra.random_element(tri, rng)
    x = a.matrix.copy()
    x[0, 2] = 0.0
    return q, a, max(linalg.op_norm(x[:, :2]), linalg.op_norm(x[1:, :]))


class TestQuotientNormPaths:
    """The closed form on *-closed parents, certified ellipsoid steps on the rest."""

    @pytest.mark.parametrize("case", [_m2_plus_m3, _diagonal], ids=["m2+m3", "diagonal"])
    def test_star_closed_is_exact(self, monkeypatch, case):
        alg, ideal, p = case()
        assert alg.star_closed
        q = algebra.quotient(alg, ideal)
        # with no step allowed, the ellipsoid path would raise BudgetExceeded
        monkeypatch.setattr(algebra, "QUOTIENT_NORM_BUDGET", 0)
        rng = np.random.default_rng(31)
        one = np.eye(alg.ambient_dim)
        for _ in range(5):
            a = algebra.random_element(alg, rng)
            value = algebra.quotient_norm(q, a)
            exact = linalg.op_norm(a.matrix @ (one - p))
            assert abs(value - exact) <= 1e-12 * max(1.0, exact)
            for _ in range(20):
                t = rng.standard_normal(ideal.dim) + 1j * rng.standard_normal(ideal.dim)
                b = np.tensordot(t, ideal.onb, axes=1)
                assert value <= linalg.op_norm(a.matrix + b) + 1e-12

    def test_upper_triangular_matches_parrott(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            q, a, parrott = _parrott_t3(rng)
            assert not q.parent.star_closed
            assert abs(algebra.quotient_norm(q, a) - parrott) <= 1e-8 * parrott

    def test_budget_exceeded_names_the_bracket(self, monkeypatch):
        q, a, parrott = _parrott_t3(np.random.default_rng(32))
        monkeypatch.setattr(algebra, "QUOTIENT_NORM_BUDGET", 5)
        with pytest.raises(BudgetExceeded, match="bracket") as info:
            algebra.quotient_norm(q, a)
        lower, upper = (float(v) for v in str(info.value).split("[")[1].split("]")[0].split(","))
        assert lower <= parrott * (1 + 1e-12) and parrott <= upper * (1 + 1e-12)
        assert upper - lower > QUOTIENT_NORM_GAP

    @pytest.mark.parametrize("x", [np.zeros((3, 3)), _matrix_unit(3, 0, 2)], ids=["zero", "e13"])
    def test_member_of_the_ideal_is_zero(self, x):
        q, _, _ = _parrott_t3(np.random.default_rng(32))
        assert algebra.quotient_norm(q, algebra.element(q.parent, x)) == 0.0

    def test_indefinite_ellipsoid_certifies_nothing(self, monkeypatch):
        """With a bracket that can never close, the steps run until rounding
        leaves P indefinite, which raises instead of returning a bound."""
        q, a, _ = _parrott_t3(np.random.default_rng(32))
        monkeypatch.setattr(algebra, "QUOTIENT_NORM_GAP", -1.0)
        with pytest.raises(NoConvergence, match="bracket"):
            algebra.quotient_norm(q, a)


def _band_quotient(n, s):
    """T_n modulo span{E_ij : j - i >= s}, a two-sided ideal."""
    tri = _triangular(n)
    band = [_matrix_unit(n, i, j) for i in range(n) for j in range(n) if j - i >= s]
    return algebra.quotient(tri, algebra.subspace(tri, band))


def _band_element(q, seed):
    n = q.parent.ambient_dim
    g1 = np.random.default_rng(seed).standard_normal((n, n))
    g2 = np.random.default_rng(1000 + seed).standard_normal((n, n))
    return algebra.element(q.parent, np.triu(g1 + 1j * g2))


class TestEllipsoidQuotientNormEquivalence:
    """The certified quotient norm on parents that are not *-closed, against
    closed forms: Davis-Kahan-Weinberger band completions, Parrott's
    formula, and the *-closed value ||a (1 - p)||."""

    @pytest.mark.parametrize("n, s", [(n, s) for n in range(3, 7) for s in range(1, n)])
    def test_band_quotient_matches_dkw(self, n, s):
        """||a + I|| = max_r ||a[r:, :r+s]||, the largest fully specified block."""
        q = _band_quotient(n, s)
        for seed in range(3):
            a = _band_element(q, seed)
            dkw = max(linalg.op_norm(a.matrix[r:, : r + s]) for r in range(n))
            assert abs(algebra.quotient_norm(q, a) - dkw) <= 1e-8 * dkw

    def test_direct_sum_takes_the_larger_parrott_value(self):
        tri = _triangular(3)
        alg = algebra.direct_sum_algebras(tri, tri)
        e13 = _matrix_unit(3, 0, 2)
        zero = np.zeros((3, 3))
        ideal = [np.block([[e13, zero], [zero, zero]]), np.block([[zero, zero], [zero, e13]])]
        q = algebra.quotient(alg, algebra.subspace(alg, ideal))
        assert q.ideal.dim == 2 and not alg.star_closed
        rng = np.random.default_rng(34)
        for _ in range(3):
            (_, a1, v1), (_, a2, v2) = _parrott_t3(rng), _parrott_t3(rng)
            a = algebra.element(alg, np.block([[a1.matrix, zero], [zero, a2.matrix]]))
            assert abs(algebra.quotient_norm(q, a) - max(v1, v2)) <= 1e-8 * max(v1, v2)

    @pytest.mark.parametrize("j", [60, -60, 1000, -1000])
    def test_power_of_two_scaling_is_exact(self, j):
        q, a, _ = _parrott_t3(np.random.default_rng(35))
        scaled = algebra.element(q.parent, linalg.ldexp(a.matrix, j))
        assert algebra.quotient_norm(q, scaled) == np.ldexp(algebra.quotient_norm(q, a), j)

    @pytest.mark.parametrize("case", [_m2_plus_m3, _diagonal], ids=["m2+m3", "diagonal"])
    def test_star_closed_parents_through_the_ellipsoid(self, monkeypatch, case):
        alg, ideal, _ = case()
        q = algebra.quotient(alg, ideal)
        rng = np.random.default_rng(36)
        elements = [algebra.random_element(alg, rng) for _ in range(3)]
        exact = [algebra.quotient_norm(q, a) for a in elements]
        monkeypatch.setattr(algebra.Algebra, "star_closed", property(lambda self: False))
        for a, want in zip(elements, exact):
            # the gap is in units of 2^e, which is at most 2 ||a||
            assert abs(algebra.quotient_norm(q, a) - want) <= QUOTIENT_NORM_GAP * 2 * a.norm()

    def test_value_beyond_the_float_range_raises(self):
        """Parrott's value of s triu(ones(3, 3)) is the golden ratio times s."""
        q, _, _ = _parrott_t3(np.random.default_rng(35))
        ones = np.triu(np.ones((3, 3)))
        near = algebra.quotient_norm(q, algebra.element(q.parent, 1.1e308 * ones))
        assert abs(near - 1.1e308 * ((1 + 5**0.5) / 2)) <= 1e-8 * near
        with pytest.raises(OverflowError):
            algebra.quotient_norm(q, algebra.element(q.parent, 1.5e308 * ones))

    def test_deterministic(self):
        q = _band_quotient(5, 2)
        a = _band_element(q, 2)
        first = algebra.quotient_norm(q, a)
        assert algebra.quotient_norm(q, a).hex() == first.hex()


class TestUnitize:
    def nil_algebra(self):
        return algebra.algebra_from_generators(
            [E12], include_identity=False, include_adjoints=False
        )

    def test_dimension_grows_by_one(self):
        u = algebra.unitize(self.nil_algebra())
        assert u.dim == 2
        assert u.unital
        e = algebra.find_identity(u)
        for b in u.basis:
            assert np.allclose(e.matrix @ b, b, atol=1e-10)
            assert np.allclose(b @ e.matrix, b, atol=1e-10)

    def test_embedding_is_isometric_in_one_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rand_matrix(rng, 2)
            emb = algebra.unitize_embed(a, 0.0)
            assert abs(algebra.unitization_one_norm(emb) - linalg.op_norm(a)) <= 1e-12

    def test_pair_identity_law(self):
        rng = np.random.default_rng(12)
        a = rand_matrix(rng, 2)
        x = 0.3 - 0.7j
        one = algebra.unitize_embed(np.zeros((2, 2)), 1.0, 2)
        pair = algebra.unitize_embed(a, x)
        assert np.allclose(one @ pair, pair, atol=1e-12)
        assert np.allclose(pair @ one, pair, atol=1e-12)

    def test_already_unital_returns_unchanged_with_notice(self):
        alg = algebra.full_matrix_algebra(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = algebra.unitize(alg)
        assert out is alg
        assert caught and "unital" in str(caught[0].message)


class TestComplexify:
    def test_scalars(self):
        ralg = algebra.algebra_from_generators(
            [np.eye(1)], include_identity=True, real_field=True
        )
        calg = algebra.complexify(ralg)
        assert calg.dim == 1 and not calg.real_field

    def test_i_squared_is_minus_one(self):
        ralg = algebra.algebra_from_generators(
            [np.eye(2)], include_identity=True, real_field=True
        )
        calg = algebra.complexify(ralg)
        i_one = algebra.pair_element(calg, np.zeros((2, 2)), np.eye(2))
        sq = i_one @ i_one
        assert np.allclose(sq.matrix, -np.eye(2), atol=1e-12)

    def test_rotation_gains_spectrum(self):
        from cstarkit.spectral import spectrum

        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        ralg = algebra.algebra_from_generators(
            [j], include_identity=True, include_adjoints=False, real_field=True
        )
        assert spectrum(algebra.element(ralg, j), "real").points == ()
        calg = algebra.complexify(ralg)
        pts = sorted(spectrum(algebra.element(calg, j)).points, key=lambda z: z.imag)
        assert abs(pts[0] + 1j) < 1e-9 and abs(pts[1] - 1j) < 1e-9

    def test_requires_real_flag(self):
        with pytest.raises(NotRealAlgebra):
            algebra.complexify(algebra.full_matrix_algebra(2))

    def test_regular_norm_matches_ambient_on_cstar(self):
        ralg = algebra.algebra_from_generators(
            [np.diag([1.0, 2.0])], include_identity=True, real_field=True
        )
        calg = algebra.complexify(ralg)
        a, b = np.diag([1.0, 2.0]), np.diag([0.5, -1.0])
        ambient = linalg.op_norm(a + 1j * b)
        assert abs(algebra.pair_regular_norm(calg, a, b) - ambient) <= 1e-9


class TestDirectSum:
    def test_scalars_sum_to_diagonal(self):
        one = algebra.algebra_from_generators([np.eye(1)], include_identity=True)
        s = algebra.direct_sum_algebras(one, one)
        assert s.dim == 2
        assert s.ambient_dim == 2
        assert s.abelian

    def test_norm_is_max_of_blocks(self):
        rng = np.random.default_rng(13)
        a2 = algebra.full_matrix_algebra(2)
        s = algebra.direct_sum_algebras(a2, a2)
        for _ in range(10):
            x, y = rand_matrix(rng, 2), rand_matrix(rng, 2)
            block = np.zeros((4, 4), dtype=complex)
            block[:2, :2], block[2:, 2:] = x, y
            expect = max(linalg.op_norm(x), linalg.op_norm(y))
            assert abs(linalg.op_norm(block) - expect) <= 1e-9
            assert s.contains(block)

    def test_dimensions_add(self):
        a = algebra.full_matrix_algebra(2)
        b = diag_algebra([1.0, 4.0, 9.0])
        assert algebra.direct_sum_algebras(a, b).dim == a.dim + b.dim


class TestElementInvariants:
    def test_inverse_stays_in_unital_algebra(self):
        alg = diag_algebra([1.0, 5.0, 2.0])
        rng = np.random.default_rng(14)
        e = algebra.find_identity(alg).matrix
        for _ in range(5):
            a = algebra.random_element(alg, rng)
            m = a.matrix + 4.0 * e  # push away from singularity
            inv = linalg.invert(m)
            assert alg.contains(inv)
            assert linalg.op_norm(m @ inv - e) <= 1e-9
            assert linalg.op_norm(inv @ m - e) <= 1e-9

    def test_membership_rejected_outside_span(self):
        alg = diag_algebra([1.0, 2.0])
        with pytest.raises(Exception):
            algebra.element(alg, E12)

    def test_coords_roundtrip(self):
        alg = algebra.full_matrix_algebra(2)
        rng = np.random.default_rng(15)
        a = algebra.random_element(alg, rng)
        assert np.allclose(alg.from_coords(a.coords), a.matrix, atol=1e-12)


def _normal_matrix(rng, n):
    q, _ = np.linalg.qr(rand_matrix(rng, n))
    return (q * np.array([1.0, -2.0, 0.5j, 3.0 + 1.0j])[:n]) @ q.conj().T


def _order5_unitary():
    """Generated by u = Q diag(e^{2 pi i k/5}, k = 0..3) Q* alone, without the
    identity or adjoints: u^5 = I_4, so I_4 lies in A only as a rounded word in u."""
    q, _ = np.linalg.qr(rand_matrix(np.random.default_rng(51), 4))
    u = (q * np.exp(2j * np.pi * np.arange(4) / 5)) @ q.conj().T
    return algebra.algebra_from_generators([u], include_identity=False, include_adjoints=False)


REFERENCE_ALGEBRAS = {
    "random-n1": lambda rng: algebra.algebra_from_generators([rand_matrix(rng, 1)]),
    "random-n2": lambda rng: algebra.algebra_from_generators([rand_matrix(rng, 2)]),
    "random-n3": lambda rng: algebra.algebra_from_generators([rand_matrix(rng, 3)]),
    "normal": lambda rng: algebra.algebra_from_generators([_normal_matrix(rng, 4)]),
    "cyclic-5": lambda rng: gelfand.cyclic_group_algebra(5),
    "m2+m2": lambda rng: algebra.direct_sum_algebras(
        algebra.full_matrix_algebra(2), algebra.full_matrix_algebra(2)
    ),
    "unitized-nilpotent": lambda rng: algebra.unitize(
        algebra.algebra_from_generators([E12], include_identity=False, include_adjoints=False)
    ),
    "nilpotent": lambda rng: algebra.algebra_from_generators(
        [E12], include_identity=False, include_adjoints=False
    ),
    "left-unit-only": lambda rng: algebra.algebra_from_generators(
        [E11, E12], include_identity=False, include_adjoints=False
    ),
    "right-unit-only": lambda rng: algebra.algebra_from_generators(
        [E11, E21], include_identity=False, include_adjoints=False
    ),
    "zero": lambda rng: algebra.algebra_from_generators(
        [np.zeros((2, 2))], include_identity=False
    ),
    "corner": lambda rng: _corner(),
    "upper-corner": lambda rng: _upper_corner(),
    "m2+diag5": lambda rng: algebra.direct_sum_algebras(
        algebra.full_matrix_algebra(2), diag_algebra([1.0, 2.0, 3.0, 4.0, 5.0])
    ),
    "order5-unitary": lambda rng: _order5_unitary(),
}


class TestDerivedOnFirstUse:
    def test_flags_without_structure_constants(self):
        rng = np.random.default_rng(61)
        alg = algebra.algebra_from_generators([rand_matrix(rng, 12)])
        assert alg.dim == 144
        assert np.max(np.abs(alg.identity_matrix - np.eye(12))) <= 1e-12
        assert not alg.abelian
        assert alg.star_closed
        assert alg.contains(rand_matrix(rng, 12))
        assert not hasattr(alg, "structure")


def _pair_coords(alg, m):
    return np.array([np.vdot(b, m) for b in alg.basis])


class TestStructureReference:
    """The stacked core against per-pair loops over the basis, to 1e-12."""

    @pytest.fixture(params=sorted(REFERENCE_ALGEBRAS))
    def alg(self, request):
        return REFERENCE_ALGEBRAS[request.param](np.random.default_rng(31))

    def test_structure_constants(self, alg):
        """f(x b_j) from the density against the per-pair structure constants
        C[i, j, l] = <b_i b_j, b_l>, for x = b_i and, on *-closed algebras, x = b_i*."""
        d = alg.dim
        adjoints = alg.basis.conj().swapaxes(1, 2)
        ref = np.zeros((2, d, d, d), dtype=complex)
        for i, bi in enumerate(alg.basis):
            for j, bj in enumerate(alg.basis):
                ref[0, i, j] = _pair_coords(alg, bi @ bj)
                ref[1, i, j] = _pair_coords(alg, adjoints[i] @ bj)
        rng = np.random.default_rng(32)
        values = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
        for left, c in [(alg.basis, ref[0]), (adjoints, ref[1])][: 1 + alg.star_closed]:
            got = states._basis_products(alg, values, left)
            assert got.shape == (3, d, d)
            want = np.einsum("ijl,cl->cij", c, values)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12

    def test_abelian_flag(self, alg):
        commute = all(
            np.linalg.norm(bi @ bj - bj @ bi) <= algebra.MEMBERSHIP_TOL
            for bi in alg.basis
            for bj in alg.basis
        )
        assert alg.abelian == commute

    def test_star_closed_flag(self, alg):
        """The generic flag against the two-pass (CGS2) residual of every adjoint."""
        d, n = alg.dim, alg.ambient_dim
        adjoints = alg.basis.conj().swapaxes(1, 2).reshape(d, n * n)
        rows = alg.basis.reshape(d, n * n)
        resid = algebra._project_out(rows, rows.conj(), adjoints)
        assert alg.star_closed == bool(
            np.all(np.linalg.norm(resid, axis=1) <= algebra.MEMBERSHIP_TOL)
        )

    def test_identity_coords(self, alg):
        rows, rhs = [], []
        for b in alg.basis:
            rows.append(np.stack([(e @ b).ravel() for e in alg.basis], axis=1))
            rows.append(np.stack([(b @ e).ravel() for e in alg.basis], axis=1))
            rhs += [b.ravel(), b.ravel()]
        ref = None
        if rows:
            a, y = np.vstack(rows), np.concatenate(rhs)
            x, *_ = np.linalg.lstsq(a, y, rcond=None)
            if np.linalg.norm(a @ x - y) <= algebra.MEMBERSHIP_TOL * max(1.0, np.linalg.norm(y)):
                ref = x
        if ref is None:
            assert alg.identity_coords is None
        else:
            assert np.max(np.abs(alg.identity_coords - ref)) <= 1e-12

    def test_left_regular_matrix(self, alg):
        m = algebra.random_element(alg, np.random.default_rng(32)).matrix
        ref = np.zeros((alg.dim, alg.dim), dtype=complex)
        for j, bj in enumerate(alg.basis):
            ref[:, j] = _pair_coords(alg, m @ bj)
        got = algebra.left_regular_matrix(alg, m)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12

    def test_multiplicativity_residual(self, alg):
        rng = np.random.default_rng(33)
        v = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        worst = 0.0
        for i, bi in enumerate(alg.basis):
            for j, bj in enumerate(alg.basis):
                prod = np.dot(v, _pair_coords(alg, bi @ bj))
                worst = max(worst, abs(prod - v[i] * v[j]))
        got = states.functional(alg, v).multiplicativity_residual()
        assert abs(got - worst) <= 1e-12


class TestUnitWithoutLeastSquaresEquivalence:
    """With I_n in the span the unit is read off as I_n; only algebras
    without I_n solve the least-squares system."""

    def test_identity_in_span_skips_least_squares(self, monkeypatch):
        rng = np.random.default_rng(71)
        # unitize asks the nilpotent algebra for its unit, so it is built first
        algs = {
            "generators": algebra.algebra_from_generators([rand_matrix(rng, 3)]),
            "m3": algebra.full_matrix_algebra(3),
            "m2+m3": algebra.direct_sum_algebras(
                algebra.full_matrix_algebra(2), algebra.full_matrix_algebra(3)
            ),
            "cyclic-32": gelfand.cyclic_group_algebra(32),
            "unitized-nilpotent": REFERENCE_ALGEBRAS["unitized-nilpotent"](rng),
        }

        def refuse(*args, **kwargs):
            raise AssertionError("least squares solved for a unit that is I_n")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for name, alg in algs.items():
            assert alg.unital, name
            assert np.max(np.abs(alg.identity_matrix - np.eye(alg.ambient_dim))) <= 1e-12

    @pytest.mark.parametrize(
        "name, unital",
        [("corner", True), ("left-unit-only", False), ("right-unit-only", False),
         ("nilpotent", False)],
    )
    def test_identity_off_span_solves_least_squares(self, monkeypatch, name, unital):
        alg = REFERENCE_ALGEBRAS[name](np.random.default_rng(31))
        calls = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        assert alg.unital == unital
        assert len(calls) == 1


def _all_pairs_closure(gens, include_identity=True, include_adjoints=True):
    """Reference closure: an adjoint pass, then every basis pair's product, per round."""
    n = gens[0].shape[0]
    start = [np.eye(n, dtype=complex)] if include_identity else []
    rows = algebra._extend_rows(np.zeros((0, n * n), dtype=complex), [*start, *gens])
    for _ in range(n * n + 1):
        size = len(rows)
        if include_adjoints:
            rows = algebra._extend_rows(rows, rows.reshape(-1, n, n).conj().swapaxes(1, 2))
        current = rows.reshape(-1, n, n)
        for b in current:
            rows = algebra._extend_rows(rows, b @ current)
        if len(rows) == size:
            break
    return rows.reshape(-1, n, n)


def _units(n, pairs):
    out = []
    for i, j in pairs:
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        out.append(e)
    return out


def _m2_plus_m1_gens():
    gens = _units(3, [(0, 1), (1, 0), (0, 0)])
    gens.append(np.diag([0.0, 0.0, 1.0]).astype(complex))
    return gens


CLOSURE_FAMILIES = {
    **{
        f"random-pair-n{n}": (lambda rng, n=n: [rand_matrix(rng, n), rand_matrix(rng, n)], {})
        for n in range(2, 6)
    },
    **{
        f"doubled-normal-n{n}": (lambda rng, n=n: [doubled_normal(rng, n)], {})
        for n in (3, 4, 6)
    },
    "real": (lambda rng: [rng.standard_normal((4, 4))], {"real_field": True}),
    "e12-bare": (
        lambda rng: [E12],
        {"include_identity": False, "include_adjoints": False},
    ),
    "upper-units": (
        lambda rng: _units(3, [(0, 1), (1, 2), (0, 0), (2, 2)]),
        {"include_adjoints": False},
    ),
    "m2+m1": (lambda rng: _m2_plus_m1_gens(), {"include_identity": False}),
    "zero": (lambda rng: [np.zeros((3, 3))], {"include_identity": False}),
}


class TestClosureReference:
    """The closure by words spans what the all-pairs closure spans."""

    @pytest.mark.parametrize("name", sorted(CLOSURE_FAMILIES))
    def test_matches_all_pairs_closure(self, name):
        make, flags = CLOSURE_FAMILIES[name]
        gens = [np.asarray(g, dtype=complex) for g in make(np.random.default_rng(41))]
        alg = algebra.algebra_from_generators(gens, **flags)
        closure_flags = {k: v for k, v in flags.items() if k != "real_field"}
        ref = algebra.Algebra(_all_pairs_closure(gens, **closure_flags))
        assert alg.dim == ref.dim
        for b in ref.basis:
            assert alg.membership_residual(b) <= 1e-9
        for b in alg.basis:
            assert ref.membership_residual(b) <= 1e-9


class TestStackedSampleEquivalence:
    """The stacked sample kernels equal the per-sample calls bit for bit."""

    @pytest.mark.parametrize("real_field", [False, True])
    def test_batched_draw_equals_successive_random_elements(self, real_field):
        g = np.random.default_rng(21).standard_normal((3, 3))
        alg = algebra.algebra_from_generators([g], real_field=real_field)
        rng = np.random.default_rng(4)
        single = [algebra.random_element(alg, rng).matrix for _ in range(25)]
        rng_stacked = np.random.default_rng(4)
        stacked = np.concatenate([algebra._random_matrices(alg, rng_stacked, k) for k in (10, 15)])
        assert all(np.array_equal(s, m) for s, m in zip(single, stacked))
        assert rng.standard_normal() == rng_stacked.standard_normal()

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_kernels_equal_single_calls(self, n):
        alg = algebra.full_matrix_algebra(n)
        rng = np.random.default_rng(n)
        mats = algebra._random_matrices(alg, rng, 12)
        coords = algebra._pairing_each(mats, alg.basis)
        v = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        dots = algebra._dot_each(v, coords)
        norms = linalg._op_norm_each(mats)
        for m, c, dot, nrm in zip(mats, coords, dots, norms):
            assert np.array_equal(alg.coords(m), c)
            assert complex(np.dot(v, alg.coords(m))) == dot
            assert linalg.op_norm(m) == nrm

    def test_empty_stacks(self):
        alg = algebra.full_matrix_algebra(2)
        mats = algebra._random_matrices(alg, np.random.default_rng(0), 0)
        assert mats.shape == (0, 2, 2)
        assert algebra._pairing_each(mats, alg.basis).shape == (0, 4)
        assert linalg._op_norm_each(mats).shape == (0,)
        assert np.array_equal(linalg._op_norm_each(np.zeros((3, 0, 0))), np.zeros(3))


# Per-basis references: the flags and ideal_check as one product or projection
# per basis element (pair), the way they were decided before the generic tests.


def _per_basis_residuals(rows, x):
    return np.linalg.norm(x - (x @ rows.conj().T) @ rows, axis=-1)


def _per_basis_abelian(alg):
    c = np.cos(np.arange(1, alg.dim + 1))
    z = alg.from_coords(c)
    comm = np.linalg.norm(z @ alg.basis - alg.basis @ z, axis=(1, 2))
    return bool(np.all(comm <= algebra.MEMBERSHIP_TOL * np.linalg.norm(c)))


def _per_basis_star_closed(alg):
    d, n = alg.dim, alg.ambient_dim
    adjoints = alg.basis.conj().swapaxes(1, 2).reshape(d, n * n)
    return bool(np.all(_per_basis_residuals(alg.basis.reshape(d, n * n), adjoints)
                       <= algebra.MEMBERSHIP_TOL))


def _per_basis_ideal_check(alg, s):
    n2 = alg.ambient_dim ** 2
    onb = s.onb.reshape(s.dim, n2)

    def closed(prods):
        prods = prods.reshape(-1, n2)
        scale = 1.0 + np.linalg.norm(prods, axis=1)
        return bool(np.all(_per_basis_residuals(onb, prods) <= algebra.MEMBERSHIP_TOL * scale))

    left = closed(alg.basis[:, None] @ s.onb[None])
    right = closed(s.onb[None] @ alg.basis[:, None])
    return {(True, True): "two_sided", (True, False): "left_only",
            (False, True): "right_only", (False, False): "not_ideal"}[left, right]


def _upper_units(n):
    return _units(n, [(i, j) for i in range(n) for j in range(i, n)])


# name -> (algebra, {ideal name: (matrices, expected verdict or None)}).  Every
# algebra is also checked on the zero subspace, on all of it, and on the spans
# of its first basis element and of its first half.
FLAG_ALGEBRAS = {
    **{
        f"closure-{name}": (
            lambda name=name: algebra.algebra_from_generators(
                [np.asarray(g, dtype=complex)
                 for g in CLOSURE_FAMILIES[name][0](np.random.default_rng(41))],
                **CLOSURE_FAMILIES[name][1],
            ),
            {},
        )
        for name in CLOSURE_FAMILIES
    },
    "cyclic-12": (lambda: gelfand.cyclic_group_algebra(12), {}),
    "m2+m2": (
        lambda: REFERENCE_ALGEBRAS["m2+m2"](None),
        {
            "summand": (_units(4, [(0, 0), (0, 1), (1, 0), (1, 1)]), "two_sided"),
            "row": (_units(4, [(0, 0), (0, 1)]), "right_only"),
            "column": (_units(4, [(0, 0), (1, 0)]), "left_only"),
        },
    ),
    "m2+cyclic3": (
        lambda: algebra.direct_sum_algebras(
            algebra.full_matrix_algebra(2), gelfand.cyclic_group_algebra(3)
        ),
        {"summand": (_units(5, [(0, 0), (0, 1), (1, 0), (1, 1)]), "two_sided")},
    ),
    "t3": (
        lambda: algebra.algebra_from_generators(
            _upper_units(3), include_identity=False, include_adjoints=False
        ),
        {
            "strictly-upper": (_units(3, [(0, 1), (0, 2), (1, 2)]), "two_sided"),
            "first-row": (_units(3, [(0, 0), (0, 1), (0, 2)]), "two_sided"),
            "last-column": (_units(3, [(0, 2), (1, 2), (2, 2)]), "two_sided"),
            "second-column": (_units(3, [(0, 1), (1, 1)]), "left_only"),
            "second-row": (_units(3, [(1, 1), (1, 2)]), "right_only"),
        },
    ),
    "e11-e12": (
        lambda: REFERENCE_ALGEBRAS["left-unit-only"](None),
        {
            "e12": ([E12], "two_sided"),
            "e11": ([E11], "left_only"),
            "e11+e12": ([E11 + E12], "left_only"),
        },
    ),
}


def _rotated(alg, rng):
    """alg with its orthonormal basis changed by a seeded random d x d unitary
    (orthogonal on a real field)."""
    d = alg.dim
    g = rng.standard_normal((d, d)) if alg.real_field else rand_matrix(rng, d)
    q = np.linalg.qr(g)[0] if d else np.zeros((0, 0))
    return algebra.Algebra(np.tensordot(q, alg.basis, axes=1), alg.real_field)


def _mixed(mats, rng):
    """A seeded random unitary mix of a list of matrices, which spans the same."""
    if not len(mats):
        return []
    q = np.linalg.qr(rand_matrix(rng, len(mats)))[0]
    return list(np.tensordot(q, np.asarray(mats, dtype=complex), axes=1))


class TestGenericFlagEquivalence:
    """The generic flags and ideal_check give the per-basis verdicts, in the
    algebra's own basis and after a random unitary change of it."""

    @pytest.fixture(params=sorted(FLAG_ALGEBRAS))
    def case(self, request):
        make, ideals = FLAG_ALGEBRAS[request.param]
        alg = make()
        rotated = _rotated(alg, np.random.default_rng(81))
        return alg, rotated, ideals

    def test_abelian(self, case):
        alg, rotated, _ = case
        want = _per_basis_abelian(alg)
        assert _per_basis_abelian(rotated) == want
        assert alg.abelian == rotated.abelian == want

    def test_star_closed(self, case):
        alg, rotated, _ = case
        want = _per_basis_star_closed(alg)
        assert _per_basis_star_closed(rotated) == want
        assert alg.star_closed == rotated.star_closed == want

    def test_ideal_check(self, case):
        alg, rotated, ideals = case
        half = alg.dim // 2 + 1
        spans = {
            "zero": ([], None),
            "all": (list(alg.basis), "two_sided"),
            "first": (list(alg.basis[:1]), None),
            "first-half": (list(alg.basis[:half]), None),
            **ideals,
        }
        rng = np.random.default_rng(82)
        for name, (mats, expected) in spans.items():
            s = algebra.subspace(alg, mats)
            want = _per_basis_ideal_check(alg, s)
            assert want == (expected or want), name
            assert algebra.ideal_check(alg, s) == want, name
            s = algebra.subspace(rotated, _mixed(mats, rng))
            assert _per_basis_ideal_check(rotated, s) == want, name
            assert algebra.ideal_check(rotated, s) == want, name


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFlagMemory:
    """The flags and ideal_check form a few n x n matrices: their peak stays far
    below one (d, n, n) stack, which every per-basis product stack takes."""

    def test_flags_on_cyclic_64(self):
        alg = gelfand.cyclic_group_algebra(64)
        peak = _traced_peak(lambda: (alg.abelian, alg.star_closed))
        assert alg.abelian and alg.star_closed
        assert peak < alg.basis.nbytes / 8

    def test_ideal_check_on_m8_plus_m8(self):
        alg = algebra.direct_sum_algebras(
            algebra.full_matrix_algebra(8), algebra.full_matrix_algebra(8)
        )
        s = algebra.subspace(alg, list(alg.basis[64:]))
        kinds = []
        peak = _traced_peak(lambda: kinds.append(algebra.ideal_check(alg, s)))
        assert kinds == ["two_sided"]
        assert peak < alg.basis.nbytes / 8


def _two_step_unit(alg):
    """identity_coords' I_n branch as it was: contains(I_n) projects I_n / 2 (its
    unit_scaled copy), then coords(I_n) projects I_n again."""
    eye = np.eye(alg.ambient_dim, dtype=complex)
    return alg.coords(eye) if alg.dim and alg.contains(eye) else None


class TestIdentityProjectedOnce:
    """identity_coords projects I_n once and keeps the two-step rule's bits:
    unit_scaled(I_n) is exactly I_n / 2, so the membership ratio is the same."""

    @pytest.mark.parametrize("name", [*sorted(CLOSURE_FAMILIES), "corner", "unitized-nilpotent"])
    def test_matches_two_step_rule(self, monkeypatch, name):
        if name in CLOSURE_FAMILIES:
            make, flags = CLOSURE_FAMILIES[name]
            built = algebra.algebra_from_generators(make(np.random.default_rng(41)), **flags)
        else:
            built = REFERENCE_ALGEBRAS[name](np.random.default_rng(31))
        alg = algebra.Algebra(built.basis, built.real_field)
        eye = np.eye(alg.ambient_dim, dtype=complex)
        want = _two_step_unit(alg)
        if alg.dim:
            ratio = np.linalg.norm(eye - alg.from_coords(alg.coords(eye))) / np.linalg.norm(eye)
            assert ratio == alg.membership_residual(eye)
        calls = []
        coords = algebra.Algebra.coords

        def counted(self, m):
            calls.append(np.shape(m))
            return coords(self, m)

        monkeypatch.setattr(algebra.Algebra, "coords", counted)
        got = alg.identity_coords
        assert calls == [eye.shape] * min(1, alg.dim)
        if want is not None:
            assert np.array_equal(got, want)


class TestSubspaceBasisFields:
    def test_onb_is_derived_not_passed(self):
        alg = algebra.full_matrix_algebra(2)
        with pytest.raises(TypeError):
            algebra.SubspaceBasis(alg, (E11,), onb=np.zeros((1, 2, 2), dtype=complex))
        assert np.array_equal(algebra.SubspaceBasis(alg, (E11,)).onb, E11[None])


def _words(gens, include_identity=True, include_adjoints=True, real_field=False):
    """The closure by words alone, on the generators and (with include_adjoints) their adjoints."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if include_adjoints:
        gens += [g.conj().T for g in gens]
    return algebra._words_closure(np.stack(gens), include_identity)


def _assert_same_span(basis, ref, tol=1e-9):
    """Equal dimensions, and every principal angle between the spans within tol."""
    a, b = (np.asarray(x).reshape(len(x), -1) for x in (basis, ref))
    assert len(a) == len(b)
    if len(a):
        assert np.linalg.norm(a - (a @ b.conj().T) @ b, 2) <= tol
        assert np.linalg.norm(b - (b @ a.conj().T) @ a, 2) <= tol


def _low_rank(rng, n, r):
    """A dense n x n matrix of rank r: the product of Gaussian n x r and r x n factors."""
    return rand_matrix(rng, n)[:, :r] @ rand_matrix(rng, n)[:r]


def _hidden_blocks(rng, sizes):
    """Two generators of the sum of M_s over sizes, hidden by one random unitary."""
    n = sum(sizes)
    u = np.linalg.qr(rand_matrix(rng, n))[0]
    at = np.cumsum([0, *sizes])
    gens = []
    for _ in range(2):
        g = np.zeros((n, n), dtype=complex)
        for s, e in zip(at, at[1:]):
            g[s:e, s:e] = rand_matrix(rng, e - s)
        gens.append(u @ g @ u.conj().T)
    return gens


@st.composite
def _generator_sets(draw):
    """1-3 seeded generators of size 1-4, each of rank 0 to n and at a scale of
    1e-300, 1 or 1e300; returned with the same set at scale 1."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = [_low_rank(rng, n, draw(st.integers(0, n))) for _ in range(draw(st.integers(1, 3)))]
    scales = [draw(st.sampled_from([1e-300, 1.0, 1e300])) for _ in gens]
    return [s * g for s, g in zip(scales, gens)], gens


class TestCommutantClosureEquivalence:
    """The closure from one eigendecomposition spans what the closure by words spans."""

    @staticmethod
    def _check(gens, ref=None):
        alg = algebra.algebra_from_generators(gens)
        _assert_same_span(alg.basis, _words(gens if ref is None else ref))
        for g in gens:
            assert alg.contains(g) and alg.contains(g.conj().T)
        return alg

    @settings(max_examples=60, deadline=None)
    @given(_generator_sets())
    def test_random_generator_sets(self, sets):
        """The scaled set against words on the unscaled one: the words loop squares
        entries, so it leaves the float range at 1e+-300."""
        scaled, plain = sets
        self._check(scaled, ref=plain)

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_sizes(self, n):
        rng = np.random.default_rng(n)
        for gens in ([rand_matrix(rng, n)], [np.zeros((n, n))], [np.eye(n)], [E12[:n, :n]]):
            self._check(gens)

    @pytest.mark.parametrize("n, r", [(3, 1), (4, 1), (5, 1), (5, 2), (6, 2)])
    def test_common_kernel(self, n, r):
        """A rank-r generator with 2r < n generates M_2r on its range and its
        adjoint's range, plus the scalars on the common kernel: dimension 4r^2 + 1."""
        g = _low_rank(np.random.default_rng([n, r]), n, r)
        assert self._check([g]).dim == 4 * r * r + 1

    def test_hidden_blocks(self):
        gens = _hidden_blocks(np.random.default_rng(34), [3, 4])
        stack = np.stack([*gens, *(g.conj().T for g in gens)])
        assert algebra._commutant_closure(stack) is not None
        assert self._check(gens).dim == 25

    @pytest.mark.parametrize("name", sorted(CLOSURE_FAMILIES))
    def test_closure_families(self, name):
        make, flags = CLOSURE_FAMILIES[name]
        gens = [np.asarray(g, dtype=complex) for g in make(np.random.default_rng(41))]
        alg = algebra.algebra_from_generators(gens, **flags)
        if flags:  # outside the precondition: the words loop itself, bit for bit
            assert np.array_equal(alg.basis, _words(gens, **flags))
        else:
            _assert_same_span(alg.basis, _words(gens))

    @pytest.mark.parametrize("r, dim", [(1, 5), (2, 16), (3, 16)])
    def test_repeated_spectrum(self, r, dim):
        """a (x) I_2 for a of rank r: every eigenvalue of h is doubled, so the
        components are clustered, and those where a is not a scalar are closed
        by words on the compressed generators."""
        g = np.kron(_low_rank(np.random.default_rng(r), 4, r), np.eye(2))
        assert algebra._commutant_closure(np.stack([g, g.conj().T])) is not None
        assert self._check([g]).dim == dim

    def test_scalar_components_take_no_words(self, monkeypatch):
        """A normal generator with doubled eigenvalues is a scalar on each
        eigenspace, which its projection spans alone."""
        g = doubled_normal(np.random.default_rng(6), 6)
        words = algebra._words_closure
        monkeypatch.setattr(algebra, "_words_closure", lambda *a: pytest.fail("words ran"))
        alg = algebra.algebra_from_generators([g])
        monkeypatch.setattr(algebra, "_words_closure", words)
        _assert_same_span(alg.basis, _words([g]))
        assert alg.dim == 4

    def test_clustered_component_that_is_not_scalar(self):
        """Equal diagonals do not make a scalar: [[0, 1], [1, 0]] spans a second direction."""
        x = np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex)
        basis = algebra._clustered_closure(x, np.array([0, 0]), np.full((1, 1, 1), 1e-9))
        _assert_same_span(basis, np.stack([np.eye(2), x[0]]) / np.sqrt(2.0))

    @pytest.mark.parametrize("eps, dim", [(1e-12, 18), (5e-11, 18)])
    def test_couplings_within_the_threshold_stay_apart(self, eps, dim):
        """Two blocks a (x) I_2 and b (x) I_2 coupled by entries eps ||g||_F, below
        the MEMBERSHIP_TOL ||g||_F threshold: the words on the clustered
        components see those entries as 0, as the coupling graph does, and do
        not merge the blocks by multiplying them up."""
        rng = np.random.default_rng(3)
        g = np.zeros((12, 12), dtype=complex)
        g[:6, :6], g[6:, 6:] = (np.kron(rand_matrix(rng, 3), np.eye(2)) for _ in range(2))
        g[:6, 6:] = eps * np.linalg.norm(g)
        u = np.linalg.qr(rand_matrix(rng, 12))[0]
        g = u @ g @ u.conj().T
        assert algebra._commutant_closure(np.stack([g, g.conj().T])) is not None
        assert algebra.algebra_from_generators([g]).dim == dim

    def test_failed_certificate_takes_the_words_loop(self, monkeypatch):
        """A certificate that finds the generators outside the span returns the
        words loop's basis, bit for bit."""
        g = rand_matrix(np.random.default_rng(8), 3)
        monkeypatch.setattr(algebra, "_membership_residuals", lambda basis, mats: np.ones(len(mats)))
        assert algebra._commutant_closure(np.stack([g, g.conj().T])) is None
        assert np.array_equal(algebra.algebra_from_generators([g]).basis, _words([g]))

# Run in a fresh interpreter under a timeout, so that a closure that runs away
# fails the test instead of hanging the suite.
_CIRCULANT_CLOSURES = """
import json
import numpy as np
from cstarkit import algebra, gelfand
out = []
# the last seed puts two eigenvalues of the generic Hermitian within 1e-8 of
# its norm, so they form a cluster
for n, seed in [(n, [n, s]) for n in (48, 64, 96, 128) for s in range(4)] + [(128, 0)]:
    rng = np.random.default_rng(seed)
    c = gelfand.circulant(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    alg = algebra.algebra_from_generators([c])
    out.append([n, alg.dim, alg.contains(c) and alg.contains(c.conj().T)])
print(json.dumps(out))
"""


def test_circulant_closure_stops_at_its_dimension():
    """Seeded complex Gaussian circulants close to their N-dimensional algebra;
    the closure by words alone runs past N on most of them from N = 64 on."""
    src = str(Path(algebra.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _CIRCULANT_CLOSURES],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want = [[n, n, True] for n in (48, 64, 96, 128) for _ in range(4)] + [[128, 128, True]]
    assert json.loads(proc.stdout) == want
