"""Algebra construction, ideals, quotients, unitization, complexification."""

import warnings

import numpy as np
import pytest

from conftest import doubled_normal, rand_matrix
from cstarkit import algebra, gelfand, linalg, states
from cstarkit.errors import NotProper, NotRealAlgebra, NotSubspace, NotTwoSided

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
        from cstarkit.errors import DimensionMismatch

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
        assert algebra.is_abelian(diag_algebra([1.0, 2.0, 3.0]))

    def test_full_m2_false(self):
        assert not algebra.is_abelian(algebra.full_matrix_algebra(2))

    def test_circulant_true(self):
        from cstarkit.gelfand import cyclic_group_algebra

        assert algebra.is_abelian(cyclic_group_algebra(4))


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


def _no_optimiser(*args, **kwargs):
    raise AssertionError("optimiser ran on a *-closed parent")


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


class TestQuotientNormPaths:
    """The closed form on *-closed parents, Nelder-Mead on the rest."""

    @pytest.mark.parametrize("case", [_m2_plus_m3, _diagonal], ids=["m2+m3", "diagonal"])
    def test_star_closed_is_exact(self, monkeypatch, case):
        alg, ideal, p = case()
        assert alg.star_closed
        q = algebra.quotient(alg, ideal)
        monkeypatch.setattr(algebra.optimize, "minimize", _no_optimiser)
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
        units = [np.eye(3)[:, [i]] @ np.eye(3)[[j]] for i in range(3) for j in range(i, 3)]
        tri = algebra.algebra_from_generators(units, include_adjoints=False)
        assert not tri.star_closed
        q = algebra.quotient(tri, algebra.subspace(tri, [units[2]]))
        rng = np.random.default_rng(32)
        for _ in range(5):
            a = algebra.random_element(tri, rng)
            x = a.matrix.copy()
            x[0, 2] = 0.0
            parrott = max(linalg.op_norm(x[:, :2]), linalg.op_norm(x[1:, :]))
            assert abs(algebra.quotient_norm(q, a) - parrott) <= 1e-8 * parrott


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
        assert "structure" not in alg.__dict__


def _pair_coords(alg, m):
    return np.array([np.vdot(b, m) for b in alg.basis])


class TestStructureReference:
    """The stacked core against per-pair loops over the basis, to 1e-12."""

    @pytest.fixture(params=sorted(REFERENCE_ALGEBRAS))
    def alg(self, request):
        return REFERENCE_ALGEBRAS[request.param](np.random.default_rng(31))

    def test_structure_constants(self, alg):
        d = alg.dim
        ref = np.zeros((d, d, d), dtype=complex)
        for i, bi in enumerate(alg.basis):
            for j, bj in enumerate(alg.basis):
                ref[i, j] = _pair_coords(alg, bi @ bj)
        assert alg.structure.shape == (d, d, d)
        assert np.max(np.abs(alg.structure - ref), initial=0.0) <= 1e-12

    def test_abelian_flag(self, alg):
        commute = all(
            np.linalg.norm(bi @ bj - bj @ bi) <= algebra.MEMBERSHIP_TOL
            for bi in alg.basis
            for bj in alg.basis
        )
        assert alg.abelian == commute

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
