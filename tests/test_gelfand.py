"""Characters, the Gelfand transform, GKZ witnesses, the cyclic group algebra."""

import numpy as np
import pytest

from conftest import doubled_normal, match_multisets
from cstarkit import algebra, gelfand, linalg, spectral, states
from cstarkit.errors import ComplexFieldRequired, NonAbelian

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def diag_algebra(entries):
    return algebra.algebra_from_generators(
        [np.diag(np.asarray(entries, dtype=complex))], include_identity=True
    )


def char_by_shift_frequency(alg, spec):
    """Map each character of the cyclic algebra to its DFT frequency bin."""
    n = alg.ambient_dim
    shift = algebra.Element(alg, gelfand.circulant(np.eye(n, dtype=complex)[1]))
    out = {}
    for chi in spec:
        val = chi(shift)
        k = int(round((-np.angle(val) * n) / (2 * np.pi))) % n
        assert abs(val - np.exp(-2j * np.pi * k / n)) < 1e-8
        out[k] = chi
    assert len(out) == n
    return out


class TestCharacters:
    def test_diagonal_algebra_coordinate_evaluations(self):
        alg = diag_algebra([1.0, 2.0, 3.0])
        spec = gelfand.characters(alg)
        assert len(spec) == 3
        d = algebra.element(alg, np.diag([10.0, 20.0, 30.0]))
        values = sorted(chi(d).real for chi in spec)
        assert np.allclose(values, [10.0, 20.0, 30.0], atol=1e-8)
        e = algebra.find_identity(alg)
        for chi in spec:
            assert abs(chi(e) - 1.0) <= 1e-8

    def test_nilpotent_algebra_has_none(self):
        alg = algebra.algebra_from_generators(
            [E12], include_identity=False, include_adjoints=False
        )
        assert len(gelfand.characters(alg)) == 0

    def test_circulant_characters_are_dft(self):
        alg = gelfand.cyclic_group_algebra(4)
        spec = gelfand.characters(alg)
        assert len(spec) == 4
        rng = np.random.default_rng(51)
        by_freq = char_by_shift_frequency(alg, spec)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = gelfand.circulant_element(alg, c)
        dft = np.fft.fft(c)
        for k in range(4):
            assert abs(by_freq[k](a) - dft[k]) <= 1e-10

    def test_rejects_non_abelian(self):
        with pytest.raises(NonAbelian):
            gelfand.characters(algebra.full_matrix_algebra(2))

    def test_rejects_real_field(self):
        ralg = algebra.algebra_from_generators(
            [np.eye(2)], include_identity=True, real_field=True
        )
        with pytest.raises(ComplexFieldRequired):
            gelfand.characters(ralg)


class TestGelfandTransform:
    def test_identity_maps_to_ones(self):
        alg = diag_algebra([1.0, 2.0, 3.0])
        spec = gelfand.characters(alg)
        hat = gelfand.gelfand_transform(algebra.element(alg, np.eye(3)), spec)
        assert np.allclose(hat, np.ones(3), atol=1e-8)

    def test_diagonal_entries_recovered(self):
        alg = diag_algebra([1.0, 2.0, 3.0])
        spec = gelfand.characters(alg)
        hat = gelfand.gelfand_transform(algebra.element(alg, np.diag([1.0, 2.0, 3.0])), spec)
        assert match_multisets(hat, [1.0, 2.0, 3.0], 1e-8)

    def test_circulant_transform_is_dft(self):
        alg = gelfand.cyclic_group_algebra(8)
        spec = gelfand.characters(alg)
        by_freq = char_by_shift_frequency(alg, spec)
        rng = np.random.default_rng(52)
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        dft = np.fft.fft(c)
        a = gelfand.circulant_element(alg, c)
        for k in range(8):
            assert abs(by_freq[k](a) - dft[k]) <= 1e-10


class TestIsometryReport:
    def test_diagonal_star_algebra_is_isometric(self):
        alg = diag_algebra([1.0, 2.0, 3.0])
        report = gelfand.gelfand_isometry_report(alg, samples=100, seed=3)
        assert report.max_hat_minus_radius <= 1e-8
        assert abs(report.max_hat_minus_norm) <= 1e-8
        assert not report.kernel_detected

    def test_non_star_closed_kernel_detected(self):
        alg = algebra.algebra_from_generators(
            [E12], include_identity=True, include_adjoints=False
        )
        assert not alg.star_closed
        report = gelfand.gelfand_isometry_report(alg, samples=50, seed=4)
        assert report.max_hat_minus_radius <= 1e-8
        assert report.kernel_detected
        ker = report.kernel_example
        assert ker is not None
        spec = gelfand.characters(alg)
        hat = gelfand.gelfand_transform(ker, spec)
        assert np.max(np.abs(hat)) <= 1e-6
        assert ker.norm() > 0.1

    def test_one_dimensional_algebra_exact(self):
        alg = algebra.algebra_from_generators([np.eye(1)], include_identity=True)
        report = gelfand.gelfand_isometry_report(alg, samples=20, seed=5)
        assert report.max_hat_minus_radius <= 1e-12
        assert abs(report.max_hat_minus_norm) <= 1e-12


class TestCharKernel:
    def test_point_evaluation_kernel(self):
        alg = diag_algebra([1.0, 2.0, 3.0])
        spec = gelfand.characters(alg)
        # pick the character that evaluates the first diagonal entry
        probe = algebra.element(alg, np.diag([1.0, 0.0, 0.0]))
        chi = next(c for c in spec if abs(c(probe) - 1.0) < 1e-8)
        ker = gelfand.char_kernel(alg, chi)
        assert ker.dim == 2
        for m in ker.onb:
            assert abs(m[0, 0]) <= 1e-8  # vanishing at the point

    def test_codimension_one(self):
        alg = gelfand.cyclic_group_algebra(4)
        for chi in gelfand.characters(alg):
            assert gelfand.char_kernel(alg, chi).dim == alg.dim - 1

    def test_kernel_is_two_sided_ideal(self):
        alg = diag_algebra([1.0, 2.0, 3.0])
        for chi in gelfand.characters(alg):
            ker = gelfand.char_kernel(alg, chi)
            assert algebra.ideal_check(alg, ker) == "two_sided"


class TestGkzWitness:
    def test_character_verdict(self):
        alg = diag_algebra([1.0, 2.0])
        spec = gelfand.characters(alg)
        out = gelfand.gkz_witness(alg, spec.characters[0].values)
        assert out.is_character and out.witness is None

    def test_averaging_functional_witness(self):
        alg = diag_algebra([1.0, 2.0])
        rho = np.diag([0.5, 0.5]).astype(complex)
        values = [complex(np.trace(rho @ b)) for b in alg.basis]
        out = gelfand.gkz_witness(alg, values)
        assert not out.is_character
        w = out.witness.matrix
        assert abs(out.phi_at_witness) <= 1e-9
        assert out.min_singular_value > 1e-8
        # the kernel of the averaging functional is spanned by diag(1, -1)
        ratio = w[0, 0] / w[1, 1]
        assert abs(ratio + 1.0) <= 1e-9

    def test_corner_entry_functional_on_m2(self):
        alg = algebra.full_matrix_algebra(2)
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        values = [complex(np.trace(rho @ b)) for b in alg.basis]
        out = gelfand.gkz_witness(alg, values, seed=6)
        assert not out.is_character
        assert abs(out.phi_at_witness) <= 1e-9
        assert out.min_singular_value > 1e-8
        assert np.linalg.svd(out.witness.matrix, compute_uv=False)[-1] > 1e-8


class TestCyclicGroupAlgebra:
    def test_delta_is_convolution_identity(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        delta = np.zeros(5, dtype=complex)
        delta[0] = 1.0
        assert np.allclose(gelfand.conv(delta, x), x, atol=1e-14)

    def test_two_point_cancellation(self):
        out = gelfand.conv(np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        assert np.allclose(out, [0.0, 0.0], atol=1e-14)

    def test_convolution_theorem(self):
        alg = gelfand.cyclic_group_algebra(8)
        spec = gelfand.characters(alg)
        rng = np.random.default_rng(54)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        hat_a = gelfand.gelfand_transform(gelfand.circulant_element(alg, a), spec)
        hat_b = gelfand.gelfand_transform(gelfand.circulant_element(alg, b), spec)
        hat_ab = gelfand.gelfand_transform(
            gelfand.circulant_element(alg, gelfand.conv(a, b)), spec
        )
        assert np.max(np.abs(hat_ab - hat_a * hat_b)) <= 1e-10

    def test_circulant_product_is_convolution(self):
        rng = np.random.default_rng(55)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = gelfand.circulant(a) @ gelfand.circulant(b)
        rhs = gelfand.circulant(gelfand.conv(a, b))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestGelfandInvariants:
    def test_character_norm_one(self):
        alg = gelfand.cyclic_group_algebra(4)
        spec = gelfand.characters(alg)
        e = algebra.find_identity(alg)
        rng = np.random.default_rng(56)
        for chi in spec:
            assert abs(chi(e) - 1.0) <= 1e-8
            worst = 0.0
            for _ in range(200):
                a = algebra.random_element(alg, rng)
                a = algebra.Element(alg, a.matrix / a.norm())
                worst = max(worst, abs(chi(a)))
            assert worst <= 1.0 + 1e-8

    def test_character_values_recover_spectrum(self):
        alg = diag_algebra([2.0, -1.0, 0.5])
        spec = gelfand.characters(alg)
        rng = np.random.default_rng(57)
        for _ in range(10):
            a = algebra.random_element(alg, rng)
            char_vals = [chi(a) for chi in spec]
            pts = spectral.spectrum(a).points
            assert match_multisets(pts, char_vals, 1e-7 * (1.0 + a.norm()))

    def test_star_compatibility(self):
        alg = gelfand.cyclic_group_algebra(5)
        spec = gelfand.characters(alg)
        rng = np.random.default_rng(58)
        for _ in range(10):
            a = algebra.random_element(alg, rng)
            for chi in spec:
                assert abs(chi(a.adjoint()) - np.conj(chi(a))) <= 1e-8
                assert chi((a.adjoint() @ a)).real >= -1e-9
                assert abs(chi((a.adjoint() @ a)).imag) <= 1e-8

    def test_distinct_characters_distinct_kernels(self):
        alg = diag_algebra([1.0, 2.0, 3.0])
        spec = gelfand.characters(alg)
        kernels = []
        for chi in spec:
            ker = gelfand.char_kernel(alg, chi)
            assert ker.dim == alg.dim - 1
            kernels.append(ker)
        for i in range(len(kernels)):
            for j in range(i + 1, len(kernels)):
                # some basis vector of one kernel escapes the span of the other
                escapes = any(kernels[j].residual(m) > 1e-6 for m in kernels[i].onb)
                assert escapes

    def test_transform_multiplicative(self):
        alg = gelfand.cyclic_group_algebra(6)
        spec = gelfand.characters(alg)
        rng = np.random.default_rng(59)
        for _ in range(10):
            a = algebra.random_element(alg, rng)
            b = algebra.random_element(alg, rng)
            hat_a = gelfand.gelfand_transform(a, spec)
            hat_b = gelfand.gelfand_transform(b, spec)
            hat_ab = gelfand.gelfand_transform(a @ b, spec)
            assert np.max(np.abs(hat_ab - hat_a * hat_b)) <= 1e-10 * max(
                1.0, float(np.max(np.abs(hat_a * hat_b)))
            )


def _generic_hermitian(alg, rng):
    coef = rng.standard_normal((2, alg.dim))
    herm = (alg.basis + alg.basis.conj().swapaxes(1, 2)) / 2.0
    skew = (alg.basis - alg.basis.conj().swapaxes(1, 2)) / 2.0j
    return np.tensordot(coef[0], herm, axes=1) + np.tensordot(coef[1], skew, axes=1)


def _distinct(values, radius=1e-6):
    out = []
    for x in np.sort(values):
        if not out or x - out[-1] > radius:
            out.append(x)
    return np.array(out)


STAR_ABELIAN = {
    **{
        f"diagonal-{i}": (lambda rng, e=e: diag_algebra(e))
        for i, e in enumerate(([1.0, 2.0, 2.0, 3.0, 1.0], [0.0, 0.0, 5.0], [4.0, 4.0, 4.0, 4.0]))
    },
    **{
        f"doubled-normal-n{n}": (
            lambda rng, n=n: algebra.algebra_from_generators([doubled_normal(rng, n)])
        )
        for n in (2, 4, 5, 7)
    },
    **{f"cyclic-{n}": (lambda rng, n=n: gelfand.cyclic_group_algebra(n)) for n in range(1, 13)},
}


class TestStarClosedCharacters:
    """*-closed algebras take only the deterministic joint-eigenspace path."""

    @pytest.mark.parametrize("name", sorted(STAR_ABELIAN))
    def test_distinct_joint_eigenvalues_without_rng(self, monkeypatch, name):
        rng = np.random.default_rng(77)
        alg = STAR_ABELIAN[name](rng)
        assert alg.star_closed and alg.abelian
        h = _generic_hermitian(alg, rng)
        expected = _distinct(np.linalg.eigh(h)[0])

        def no_rng(*args, **kwargs):
            raise AssertionError("characters drew random numbers on a *-closed algebra")

        monkeypatch.setattr(gelfand.np.random, "default_rng", no_rng)
        spec = gelfand.characters(alg, seed=3)
        values = np.array([chi(algebra.Element(alg, h)) for chi in spec])
        assert len(spec) == len(expected)
        assert np.max(np.abs(values.imag), initial=0.0) <= 1e-9
        assert np.max(np.abs(np.sort(values.real) - expected)) <= 1e-9


class TestFlagsDrawNoRandomNumbers:
    """The flags characters() reads first are derived without np.random."""

    @pytest.mark.parametrize(
        "make",
        [lambda: diag_algebra([1.0, 2.0, 2.0, 3.0]), lambda: gelfand.cyclic_group_algebra(6)],
        ids=["diagonal", "cyclic-6"],
    )
    def test_characters_on_fresh_algebra(self, monkeypatch, make):
        def no_rng(*args, **kwargs):
            raise AssertionError("a flag or characters() drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        alg = make()
        spec = gelfand.characters(alg)
        assert len(spec) == alg.dim
        assert alg.star_closed and alg.abelian


def _reference_isometry_report(alg, samples=100, seed=0):
    """gelfand_isometry_report with its per-sample loop, verbatim from before
    the samples were stacked (module names added)."""
    from cstarkit.algebra import Element, random_element
    from cstarkit.spectral import spectrum

    spec = gelfand.characters(alg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    sups, radii, norms = [], [], []
    for _ in range(samples):
        a = random_element(alg, rng)
        hat = gelfand.gelfand_transform(a, spec)
        sups.append(float(np.max(np.abs(hat))) if len(hat) else 0.0)
        radii.append(spectrum(a).radius)
        norms.append(a.norm())
    kernel_example = None
    if len(spec) == 0:
        kernel_detected = alg.dim > 0
        if kernel_detected:
            kernel_example = Element(alg, alg.basis[0])
    else:
        tmat = np.array([chi.values for chi in spec.characters])
        _, svals, vh = np.linalg.svd(tmat)
        rank = int(np.sum(svals > gelfand.DEDUPE_RADIUS * max(1.0, svals[0])))
        kernel_detected = rank < alg.dim
        if kernel_detected:
            kernel_example = Element(alg, alg.from_coords(vh[-1].conj()))
    return gelfand.IsometryReport(
        tuple(sups),
        tuple(radii),
        tuple(norms),
        max((s - r) for s, r in zip(sups, radii)) if sups else 0.0,
        max((s - n) for s, n in zip(sups, norms)) if sups else 0.0,
        kernel_detected,
        kernel_example,
    )


def _similar_upper_triangular(n, seed):
    """An algebra that is not *-closed and whose samples are not triangular."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n)) + n * np.eye(n)
    t = np.triu(rng.standard_normal((n, n)))
    return algebra.algebra_from_generators([s @ t @ np.linalg.inv(s)], include_adjoints=False)


class TestStackedIsometryEquivalence:
    """gelfand_isometry_report samples in stacks and reports the loop's exact values."""

    @pytest.mark.parametrize(
        "alg",
        [
            diag_algebra([1.0, 2.0, 3.0]),
            algebra.algebra_from_generators([np.eye(1)]),
            algebra.algebra_from_generators([E12], include_adjoints=False),
            algebra.algebra_from_generators([doubled_normal(np.random.default_rng(8), 8)]),
            algebra.algebra_from_generators([doubled_normal(np.random.default_rng(9), 7)]),
            gelfand.cyclic_group_algebra(8),
            _similar_upper_triangular(4, 10),
        ],
        ids=["diagonal", "scalars", "nilpotent", "doubled8", "doubled7", "cyclic8", "similar"],
    )
    def test_report_values(self, alg):
        for samples, seed in ((20, 0), (20, 451), (3, 7), (1, 2), (0, 1)):
            got = gelfand.gelfand_isometry_report(alg, samples=samples, seed=seed)
            want = _reference_isometry_report(alg, samples=samples, seed=seed)
            assert got.sup_transform == want.sup_transform
            assert got.spectral_radius == want.spectral_radius
            assert got.op_norm == want.op_norm
            assert got.max_hat_minus_radius == want.max_hat_minus_radius
            assert got.max_hat_minus_norm == want.max_hat_minus_norm
            assert got.kernel_detected == want.kernel_detected
            if want.kernel_example is None:
                assert got.kernel_example is None
            else:
                assert np.array_equal(got.kernel_example.matrix, want.kernel_example.matrix)

    def test_diagonal_samples_take_the_triangular_path(self):
        alg = diag_algebra([1.0, 2.0, 3.0])
        mats = algebra._combine_each(np.ones((2, alg.dim), dtype=complex), alg.basis)
        assert linalg.is_triangular(mats).all()
        assert not linalg.is_triangular(_similar_upper_triangular(4, 10).basis).all()


def _ref_candidate_values(alg, v):
    nv = float(np.vdot(v, v).real)
    return alg.basis @ v @ v.conj() / nv


def _ref_is_multiplicative(alg, vals, tol):
    if float(np.max(np.abs(vals), initial=0.0)) <= tol:
        return False
    return states.functional(alg, vals).multiplicativity_residual() <= tol


def _ref_hermitian_spanning_set(alg):
    out = []
    for b in alg.basis:
        out.append((b + linalg.adjoint(b)) / 2.0)
        out.append((b - linalg.adjoint(b)) / 2.0j)
    return [h for h in out if np.linalg.norm(h) > 1e-12]


def _ref_joint_eigvec_blocks(alg):
    """Deterministic recursive splitting into joint eigenspaces (star-closed case)."""
    n = alg.ambient_dim
    blocks = [np.eye(n, dtype=complex)]
    for h in _ref_hermitian_spanning_set(alg):
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


def _reference_characters(alg, seed=0, tol=1e-8):
    """characters()' values before the generic split, verbatim: recursive
    splitting by the Hermitian spanning set, one consider() per vector and a
    Python round sort key (helper names prefixed)."""
    found = []

    def consider(vec):
        vals = _ref_candidate_values(alg, vec)
        if not _ref_is_multiplicative(alg, vals, tol):
            return False
        for known in found:
            if float(np.max(np.abs(vals - known))) <= gelfand.DEDUPE_RADIUS:
                return False
        found.append(vals)
        return True

    if alg.star_closed:
        for blk in _ref_joint_eigvec_blocks(alg):
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
    return found


def _old_key_order(rows):
    key = lambda i: tuple((round(z.real, 6), round(z.imag, 6)) for z in rows[i])  # noqa: E731
    return sorted(range(len(rows)), key=key)


def _benchmark_like(label, n, seed):
    """A normal matrix with n distinct eigenvalues or n // 2 repeated ones, or a circulant."""
    rng = np.random.default_rng(seed)
    if label == "circulant":
        return gelfand.circulant(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    k = n if label == "distinct" else n // 2
    lam = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (u * np.resize(lam, n)) @ u.conj().T


NOT_STAR_CLOSED = {
    "unital-nilpotent": lambda: algebra.algebra_from_generators([E12], include_adjoints=False),
    "nilpotent": lambda: algebra.algebra_from_generators(
        [E12], include_identity=False, include_adjoints=False
    ),
    "upper-triangular": lambda: algebra.algebra_from_generators(
        [np.triu(np.arange(1.0, 17.0).reshape(4, 4))], include_adjoints=False
    ),
    "similar-triangular": lambda: _similar_upper_triangular(4, 10),
    "similar-triangular-6": lambda: _similar_upper_triangular(6, 12),
}


class TestGenericSplitEquivalence:
    """characters() from one generic element, candidates checked in one stack,
    give the reference's characters in the reference's order."""

    @staticmethod
    def assert_same(spec, want):
        got = [np.asarray(chi.values) for chi in spec]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-12 * (1.0 + np.abs(w)))

    @pytest.mark.parametrize("name", sorted(STAR_ABELIAN))
    def test_star_closed_inputs(self, name):
        alg = STAR_ABELIAN[name](np.random.default_rng(77))
        self.assert_same(gelfand.characters(alg), _reference_characters(alg))

    @pytest.mark.parametrize("n", [6, 8, 11, 12, 16])
    @pytest.mark.parametrize("label", ["distinct", "doubled", "circulant"])
    def test_generated_abelian_algebras(self, label, n):
        for seed in range(3):
            m = _benchmark_like(label, n, 1000 * n + seed)
            alg = algebra.algebra_from_generators([m])
            assert alg.star_closed and alg.abelian
            spec = gelfand.characters(alg)
            self.assert_same(spec, _reference_characters(alg))
            assert len(spec) == (n // 2 if label == "doubled" else n)

    def test_scalar_generic_element_falls_back_to_splitting(self, monkeypatch):
        alg = algebra.algebra_from_generators([doubled_normal(np.random.default_rng(5), 6)])
        splits = []

        def split(blocks, hermitians):
            splits.append(blocks[0].shape[1])
            return gelfand._split.__wrapped__(blocks, hermitians)

        split.__wrapped__ = gelfand._split
        monkeypatch.setattr(gelfand, "_generic_hermitian", lambda a: np.eye(a.ambient_dim))
        monkeypatch.setattr(gelfand, "_split", split)
        spec = gelfand.characters(alg)
        assert splits == [6]
        assert len(spec) == 4
        self.assert_same(spec, _reference_characters(alg))

    def test_one_wide_block_is_split_in_place(self, monkeypatch):
        """h separating all but two joint eigenspaces: only that block is split."""
        alg = diag_algebra([1.0, 2.0, 3.0, 4.0])
        monkeypatch.setattr(
            gelfand, "_generic_hermitian", lambda a: np.diag([1.0, 2.0, 2.0, 3.0]).astype(complex)
        )
        self.assert_same(gelfand.characters(alg), _reference_characters(alg))

    @pytest.mark.parametrize("name", sorted(NOT_STAR_CLOSED))
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_seeded_path(self, name, seed):
        alg = NOT_STAR_CLOSED[name]()
        assert not alg.star_closed
        self.assert_same(gelfand.characters(alg, seed=seed), _reference_characters(alg, seed))

    def test_zero_algebras_have_none(self):
        zero = algebra.algebra_from_generators([np.zeros((2, 2))], include_identity=False)
        assert zero.dim == 0 and zero.star_closed
        assert len(gelfand.characters(zero)) == len(_reference_characters(zero)) == 0
        empty = algebra.Algebra(np.zeros((0, 0, 0), dtype=complex))
        assert len(gelfand.characters(empty)) == 0


HALFWAY = [(k + 0.5) / 1e6 for k in range(-3000, 3000)]


class TestCharacterSortKey:
    def test_key_entries_round_as_numpy_floats(self):
        """The old key rounds numpy floats, whose round is np.round: halfway
        values round the same way, and differently from Python's float round."""
        rng = np.random.default_rng(6)
        x = np.array([*HALFWAY, *rng.standard_normal(2000), -0.0, 0.0, 5e-324, 4503599627.3705])
        old = np.array([round(v, 6) for v in x])
        assert np.array_equal(np.round(x, 6), old)
        assert np.array_equal(np.signbit(np.round(x, 6)), np.signbit(old))
        python = np.array([round(float(v), 6) for v in x[: len(HALFWAY)]])
        assert np.sum(python != old[: len(HALFWAY)]) > 1000

    def test_order_is_the_tuple_key_order(self):
        rng = np.random.default_rng(7)
        pool = np.array([2.5e-6, 3e-6, 2e-6, -2.5e-6, 0.0, -0.0, 1.0000005, 1.000001])
        for _ in range(50):
            k, d = rng.integers(0, 12), rng.integers(1, 4)
            rows = [
                rng.choice(pool, d) + 1j * rng.choice(pool, d) for _ in range(k)
            ]
            got = gelfand._sorted(list(rows))
            assert [id(r) for r in got] == [id(rows[i]) for i in _old_key_order(rows)]

    def test_real_part_before_imaginary(self):
        rows = [np.array([0.0 + 1.0j]), np.array([1.0 + 0.0j]), np.array([0.0 + 0.0j])]
        assert [r[0] for r in gelfand._sorted(rows)] == [0.0, 1.0j, 1.0]
