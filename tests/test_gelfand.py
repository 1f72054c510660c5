"""Characters, the Gelfand transform, GKZ witnesses, the cyclic group algebra."""

import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import doubled_normal, match_multisets, product_coords, rand_hermitian
from cstarkit import algebra, cli, gelfand, linalg, spectral, states
from cstarkit.errors import ComplexFieldRequired, NonAbelian, WitnessNotFound

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

    def test_a_missing_character_fails_the_radius_residual(self, tmp_path, monkeypatch):
        """Without the character at which the first sample's |a-hat| peaks, that
        sample's sup falls below r(a), and the absolute gap shows it."""
        found = gelfand.characters

        def all_but_the_peak(alg):
            spec = found(alg)
            first = algebra._random_matrices(alg, np.random.default_rng(0 + 1), 1)[0]
            peak = np.argmax(np.abs(gelfand.gelfand_transform(algebra.Element(alg, first), spec)))
            kept = spec.characters[:peak] + spec.characters[peak + 1 :]
            return gelfand.GelfandSpectrumData(alg, kept)

        monkeypatch.setattr(gelfand, "characters", all_but_the_peak)
        path, out = tmp_path / "m.json", tmp_path / "out.json"
        path.write_text(json.dumps(cli.matrix_to_json(np.diag([1.0, 2.0j, -3.0]).astype(complex))))
        assert cli.run(["gelfand", "--input", str(path), "--seed", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"]["algebra_dim"] == 3
        residual = report["residuals"]["max_sup_transform_minus_radius"]
        assert residual["value"] > residual["tolerance"]


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

    @staticmethod
    def _no_witness_can_pass(monkeypatch):
        """M_2 and its normalised trace, with INVERTIBLE_TOL above 1: a draw scaled
        to norm 1 has smallest singular value at most 1, so none is a witness."""
        monkeypatch.setattr(gelfand, "INVERTIBLE_TOL", 1.5)
        alg = algebra.full_matrix_algebra(2)
        return alg, [0.5 * complex(np.trace(b)) for b in alg.basis]

    def test_witness_not_found_after_every_attempt(self, monkeypatch):
        alg, values = self._no_witness_can_pass(monkeypatch)
        assert alg.identity_coords is not None  # cached, so from_coords below counts draws only
        draws = []
        from_coords = algebra.Algebra.from_coords
        monkeypatch.setattr(algebra.Algebra, "from_coords", lambda a, c: draws.append(c) or from_coords(a, c))
        with pytest.raises(WitnessNotFound, match=f"in {gelfand.GKZ_ATTEMPTS} attempts"):
            gelfand.gkz_witness(alg, values)
        assert len(draws) == gelfand.GKZ_ATTEMPTS

    def test_cli_exits_1_with_witness_not_found(self, monkeypatch, tmp_path, capsys):
        self._no_witness_can_pass(monkeypatch)
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(cli.matrix_to_json(0.5 * np.eye(2, dtype=complex))))
        assert cli.run(["gkz", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: WitnessNotFound: ") and "Traceback" not in err


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


class TestCirculantMatchesScipy:
    """circulant and the cyclic basis are scipy.linalg.circulant's values, bit for bit.

    scipy is the reference here only; the package builds circulants with numpy.
    """

    @pytest.mark.parametrize("n", [1, 2, 7, 32])
    def test_circulant(self, n):
        from scipy.linalg import circulant

        rng = np.random.default_rng(100 + n)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c[0] = complex(-0.0, 5e-324)
        assert np.array_equal(gelfand.circulant(c), circulant(c))
        assert gelfand.circulant(c).tobytes() == circulant(c).tobytes()
        stack = c * rng.standard_normal((3, 1))
        assert gelfand.circulant(stack).tobytes() == circulant(stack).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 32, 128])
    def test_cyclic_basis(self, n):
        from scipy.linalg import circulant

        powers = np.stack([circulant(e) for e in np.eye(n, dtype=complex)])
        basis = gelfand.cyclic_group_algebra(n).basis
        assert np.array_equal(basis, powers / np.sqrt(n))
        assert basis.tobytes() == (powers / np.sqrt(n)).tobytes()


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
                escapes = any(algebra._membership_residuals(kernels[j].onb, kernels[i].onb) > 1e-6)
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


def _unit(n, i, j):
    return np.eye(n)[:, [i]] @ np.eye(n)[[j]]


def _jordan_sum(*blocks):
    """Block diagonal of Jordan blocks J_k(lam), given as (lam, k) pairs."""
    n = sum(k for _, k in blocks)
    m, start = np.zeros((n, n)), 0
    for lam, k in blocks:
        m[start : start + k, start : start + k] = lam * np.eye(k) + np.eye(k, k=1)
        start += k
    return m


def _commutative(*gens):
    return algebra.algebra_from_generators(list(gens), include_adjoints=False)


NOT_STAR_CLOSED = {
    "unital-nilpotent": lambda: _commutative(E12),
    "nilpotent": lambda: algebra.algebra_from_generators(
        [E12], include_identity=False, include_adjoints=False
    ),
    "upper-triangular": lambda: _commutative(np.triu(np.arange(1.0, 17.0).reshape(4, 4))),
    "similar-triangular": lambda: _similar_upper_triangular(4, 10),
    "similar-triangular-6": lambda: _similar_upper_triangular(6, 12),
    # z's eigenspace at a character is a plane in e12-e13, e12-e13-diag and derogatory-jordan
    "e12-e13": lambda: _commutative(_unit(3, 0, 1), _unit(3, 0, 2)),
    "e12-e13-diag": lambda: _commutative(_unit(4, 0, 1), _unit(4, 0, 2), np.diag([1.0, 1, 1, 2])),
    "jordan-pair": lambda: _commutative(_jordan_sum((1.0, 2), (2.0, 2))),
    "derogatory-jordan": lambda: _commutative(_jordan_sum((1.0, 3), (1.0, 2))),
    **{
        f"similar-n{n}-{k}": (lambda n=n, k=k: _similar_upper_triangular(n, 100 * n + k))
        for n in (3, 4, 5, 6, 8)
        for k in range(5)
    },
}


class TestStarClosedCharacters:
    """*-closed algebras get one character per joint eigenspace, drawing no random numbers."""

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
        spec = gelfand.characters(alg)
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

    @pytest.mark.parametrize("name", sorted(NOT_STAR_CLOSED))
    def test_characters_not_star_closed(self, monkeypatch, name):
        """One eig of the generic element: no random numbers, and the same bits
        from two fresh algebras."""
        alg, twin = NOT_STAR_CLOSED[name](), NOT_STAR_CLOSED[name]()

        def no_rng(*args, **kwargs):
            raise AssertionError("a flag or characters() drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        first, again = gelfand.characters(alg), gelfand.characters(twin)
        assert alg.abelian and not alg.star_closed
        assert len(first) == len(again)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(first, again))


def _reference_isometry_report(alg, samples=100, seed=0):
    """gelfand_isometry_report with its per-sample loop, verbatim from before
    the samples were stacked (module names added, characters unseeded), with
    both residuals absolute gaps."""
    from cstarkit.algebra import Element, random_element
    from cstarkit.spectral import spectrum

    spec = gelfand.characters(alg)
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
        max((abs(s - r) for s, r in zip(sups, radii)), default=0.0),
        max((abs(s - n) for s, n in zip(sups, norms)), default=0.0),
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
    """gelfand_isometry_report samples in stacks and reports the loop's values:
    bit for bit where the samples are diagonal or not normal, and radii to
    rounding where the joint eigh gives them."""

    @pytest.mark.parametrize(
        "alg, normal",
        [
            (diag_algebra([1.0, 2.0, 3.0]), False),
            (algebra.algebra_from_generators([np.eye(1)]), False),
            (algebra.algebra_from_generators([E12], include_adjoints=False), False),
            (algebra.algebra_from_generators([doubled_normal(np.random.default_rng(8), 8)]), True),
            (algebra.algebra_from_generators([doubled_normal(np.random.default_rng(9), 7)]), True),
            (gelfand.cyclic_group_algebra(8), True),
            (_similar_upper_triangular(4, 10), False),
        ],
        ids=["diagonal", "scalars", "nilpotent", "doubled8", "doubled7", "cyclic8", "similar"],
    )
    def test_report_values(self, alg, normal):
        for samples, seed in ((20, 0), (20, 451), (3, 7), (1, 2), (0, 1)):
            got = gelfand.gelfand_isometry_report(alg, samples=samples, seed=seed)
            want = _reference_isometry_report(alg, samples=samples, seed=seed)
            assert got.sup_transform == want.sup_transform
            assert got.op_norm == want.op_norm
            assert got.max_hat_minus_norm == want.max_hat_minus_norm
            if normal:
                gaps = np.subtract(got.spectral_radius, want.spectral_radius)
                assert np.abs(gaps).max(initial=0.0) <= 1e-12
                assert abs(got.max_hat_minus_radius - want.max_hat_minus_radius) <= 1e-12
            else:
                assert got.spectral_radius == want.spectral_radius
                assert got.max_hat_minus_radius == want.max_hat_minus_radius
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


def _spy(monkeypatch, module, name):
    """Patch module.name to record each call's arguments and run as before."""
    calls, real = [], getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


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


REFERENCE_SEEDS = range(20)


@functools.cache
def _seeded_runs(name):
    """A NOT_STAR_CLOSED algebra, and _reference_characters of it at every REFERENCE_SEEDS."""
    alg = NOT_STAR_CLOSED[name]()
    return alg, [_reference_characters(alg, seed) for seed in REFERENCE_SEEDS]


NATURAL_STAR_ABELIAN = {
    **{name: (lambda make=make: make(np.random.default_rng(77))) for name, make in STAR_ABELIAN.items()},
    **{
        f"{label}-{n}": (
            lambda label=label, n=n: algebra.algebra_from_generators([_benchmark_like(label, n, 1000 * n)])
        )
        for label in ("distinct", "doubled", "circulant")
        for n in (6, 8, 11, 12, 16)
    },
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

    def test_characters_tied_at_the_generic_element(self, monkeypatch):
        """C^2 in a rotated frame, on an orthonormal basis whose two characters
        take one value at z: the joint frame's generic Hermitian, of the basis
        scaled alike, is then a multiple of I, its frame fails the certificate,
        and the split finds both."""
        c = algebra._generic_coords(2)[0]
        q = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        # m[j, k] = chi_j(b_k), unitary, with row 0 - row 1 = sqrt(2) (c_2, -c_1) / ||c||
        m = q @ np.array([[c[1], -c[0]], c.conj()]) / np.linalg.norm(c)
        rng = np.random.default_rng(0)
        r, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        alg = algebra.Algebra(np.stack([(r * m[:, k]) @ r.conj().T for k in range(2)]))
        assert alg.abelian and alg.star_closed
        assert abs((m @ c)[0] - (m @ c)[1]) <= 1e-15
        exponents = spectral._unit_scaled_each(alg.basis)[1]
        assert exponents.min() == exponents.max()
        splits = _spy(monkeypatch, gelfand, "_split")
        spec = gelfand.characters(alg)
        assert splits and spec.frame is None
        assert len(spec) == alg.dim == 2
        self.assert_same(spec, _reference_characters(alg))

    @pytest.mark.parametrize("name", sorted(NATURAL_STAR_ABELIAN))
    def test_natural_inputs_never_split(self, monkeypatch, name):
        """Every natural *-closed input gets its dim characters from the one eig."""
        alg = NATURAL_STAR_ABELIAN[name]()

        def split(*args):
            raise AssertionError("characters() took the splitting fallback")

        monkeypatch.setattr(gelfand, "_split", split)
        assert len(gelfand.characters(alg)) == alg.dim

    @pytest.mark.parametrize("name", sorted(NOT_STAR_CLOSED))
    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    def test_seeded_path(self, monkeypatch, name, seed):
        """The one generic eig, drawing no random numbers, against the seeded
        search it replaced, run at seed: the same count and order, and no value
        farther from that run than the runs at two seeds lie apart, or than
        1e-12 relative where they agree."""
        alg, runs = _seeded_runs(name)
        assert not alg.star_closed
        monkeypatch.setattr(np.random, "default_rng", None)
        got, want = [np.asarray(chi.values) for chi in gelfand.characters(alg)], runs[seed]
        assert len(got) == len(want)
        spread = max(float(np.max(np.abs(np.subtract(r, t)), initial=0.0)) for r in runs for t in runs)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= np.maximum(spread, 1e-12 * (1.0 + np.abs(w))))

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


def _reference_multiplicative(alg, vals):
    """gelfand._multiplicative as it was when it contracted the structure
    constants C[i, j, l] = <b_i b_j, b_l>: (verdicts, residuals)."""
    d = alg.dim
    structure = product_coords(alg.basis, alg.basis, alg.basis)
    prods = (vals @ structure.reshape(d * d, d).T).reshape(len(vals), d, d)
    resid = np.abs(prods - vals[:, :, None] * vals[:, None, :]).max(axis=(1, 2), initial=0.0)
    zero = np.abs(vals).max(axis=1, initial=0.0) <= 1e-8
    return ~zero & (resid <= 1e-8), resid


def _density_values(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n)) + 0j
    rho = g @ g.T
    alg = algebra.full_matrix_algebra(n)
    return alg, states._trace_values(alg, rho / np.trace(rho))


class TestStructureFreeMultiplicativeEquivalence:
    """Multiplicativity from the candidates' vectors, and from the densities of
    all candidates at once, agrees to 1e-12 with the contraction of the
    structure constants."""

    @pytest.mark.parametrize(
        "make", [*STAR_ABELIAN.values(), *[lambda rng, f=f: f() for f in NOT_STAR_CLOSED.values()]],
        ids=[*STAR_ABELIAN, *NOT_STAR_CLOSED],
    )
    def test_candidates(self, make):
        alg = make(np.random.default_rng(78))
        vecs = np.linalg.eig(alg.from_coords(np.cos(np.arange(alg.dim))))[1]
        vals, prods = gelfand._candidate_values(alg, vecs)
        verdicts, resid = _reference_multiplicative(alg, vals)
        for p in (prods, states._basis_products(alg, vals, alg.basis)):
            got = states._multiplicativity_residuals(vals, p)
            assert np.max(np.abs(got - resid), initial=0.0) <= 1e-12
            assert np.array_equal(gelfand._multiplicative(vals, p), verdicts)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_gkz_functionals(self, n):
        alg, values = _density_values(n, n)
        for vals in (values, np.eye(n * n, dtype=complex)[0]):
            verdicts, resid = _reference_multiplicative(alg, vals[None])
            assert abs(states.functional(alg, vals).multiplicativity_residual() - resid[0]) <= 1e-12
            prods = states._basis_products(alg, vals[None], alg.basis)
            assert gelfand._multiplicative(vals[None], prods)[0] == verdicts[0]
            assert gelfand.gkz_witness(alg, vals).is_character == verdicts[0]

    @pytest.mark.parametrize("label", ["distinct", "doubled", "circulant"])
    def test_characters_report(self, tmp_path, label):
        m = _benchmark_like(label, 8, 5)
        path, out = tmp_path / "m.json", tmp_path / "out.json"
        path.write_text(json.dumps(cli.matrix_to_json(m)))
        assert cli.run(["characters", "--input", str(path), "--out", str(out)]) == 0
        alg = algebra.algebra_from_generators([m])
        vals = np.array([chi.values for chi in gelfand.characters(alg)])
        want = float(np.max(_reference_multiplicative(alg, vals)[1]))
        got = json.loads(out.read_text())["residuals"]["max_multiplicativity_residual"]["value"]
        assert abs(got - want) <= 1e-12


class TestCharacterMemory:
    def test_cyclic_64_within_a_slice_budget(self):
        """characters of C[Z_64] (c = d = n = 64) and the residuals of all of them
        in one call: the candidates' products come from their vectors and the
        density products in slices, so the peak stays far below the 268 MB
        that one (c, d, n, n) stack of products alone takes."""
        alg = gelfand.cyclic_group_algebra(64)
        tracemalloc.start()
        try:
            vals = np.array([chi.values for chi in gelfand.characters(alg)])
            prods = states._basis_products(alg, vals, alg.basis)
            resid = states._multiplicativity_residuals(vals, prods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (64, 64)
        assert np.max(resid) <= 1e-12
        assert peak < 64**4 * 16 / 8


def _reference_characters_report(m, seed):
    """The characters report with cmd_characters' per-character loop, verbatim
    from before one product took every residual."""
    alg = algebra.algebra_from_generators([m])
    spec = gelfand.characters(alg)
    a = algebra.Element(alg, m)
    mult_resid = max((chi.multiplicativity_residual() for chi in spec), default=0.0)
    values = np.array([chi(a) for chi in spec], dtype=complex)
    return {
        "command": "characters",
        "seed": seed,
        "inputs": {"input": m},
        "results": {
            "count": len(spec),
            "algebra_dim": alg.dim,
            "values_at_input": values[gelfand._rounded_order(values[:, None])],
        },
        "residuals": {
            "max_multiplicativity_residual": cli._residual(
                mult_resid, cli.CHARACTERS_REPORT_TOL
            )
        },
    }


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestCharactersReportEquivalence:
    """cmd_characters, gelfand_transform and gelfand_isometry_report read one
    (c, d) array of character values, and the residuals come from one product,
    with the bits of the per-character loop."""

    @pytest.mark.parametrize("n", [6, 16])
    @pytest.mark.parametrize("label", ["distinct", "doubled", "circulant"])
    def test_report_bytes(self, tmp_path, label, n):
        for seed in (1, 2):
            m = _benchmark_like(label, n, seed)
            path, out, ref = tmp_path / "m.json", tmp_path / "out.json", tmp_path / "ref.json"
            path.write_text(json.dumps(cli.matrix_to_json(m)))
            argv = ["characters", "--input", str(path), "--seed", str(seed), "--out", str(out)]
            assert cli.run(argv) == 0
            cli.emit_report(_reference_characters_report(m, seed), str(ref))
            assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gelfand.cyclic_group_algebra(64),
            lambda: algebra.algebra_from_generators([_benchmark_like("doubled", 16, 3)]),
            lambda: algebra.algebra_from_generators([_benchmark_like("distinct", 6, 3)]),
            lambda: algebra.algebra_from_generators([E12], include_adjoints=False),
        ],
        ids=["cyclic64", "doubled16", "distinct6", "nilpotent"],
    )
    def test_residuals_and_transform(self, make):
        alg = make()
        spec = gelfand.characters(alg)
        assert not spec.values.flags.writeable
        assert _same_bits(spec.values, np.array([chi.values for chi in spec]).reshape(-1, alg.dim))
        want = np.array([chi.multiplicativity_residual() for chi in spec])
        assert _same_bits(spec.multiplicativity_residuals(), want.reshape(len(spec)))
        rng = np.random.default_rng(alg.dim)
        for a in algebra._random_matrices(alg, rng, 3):
            a = algebra.Element(alg, a)
            want = np.array([chi(a) for chi in spec], dtype=complex)
            assert _same_bits(gelfand.gelfand_transform(a, spec), want)


def _counting_eig_general(monkeypatch):
    """Patch linalg.eig_general to record the number of matrices of each call."""
    rows, real = [], linalg.eig_general

    def counted(m):
        rows.append(len(m) if np.ndim(m) == 3 else 1)
        return real(m)

    monkeypatch.setattr(linalg, "eig_general", counted)
    return rows


@st.composite
def _commuting_normal_stacks(draw):
    """U diag(lambda_s) U* over a seeded unitary U: k in {0, 1, 20}, n in 1..16,
    eigenvalues distinct, repeated or tied to within 1e-9, scaled by 2^e."""
    k, n = draw(st.sampled_from([0, 1, 20])), draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["distinct", "repeated", "near-tied"]))
    e = draw(st.sampled_from([-1000, 0, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lam = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    if kind != "distinct":
        lam = np.resize(lam[:, : max(1, n // 2)].T, (n, k)).T
    if kind == "near-tied":
        lam = lam + 1e-9 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    return ((u * lam[:, None, :]) @ u.conj().T) * 2.0**e


class TestJointEigvalsEquivalence:
    """spectral._joint_eigvals gives np.linalg.eigvals' multisets on commuting
    normal stacks, and eig_general's bits on every sample it cannot certify."""

    @settings(max_examples=150, deadline=None)
    @given(_commuting_normal_stacks())
    def test_commuting_normal_stacks(self, mats):
        got = spectral._joint_eigvals(mats)
        assert got.shape == mats.shape[:2]
        for a, eigs in zip(mats, got):
            tol = 1e-12 * max(1.0, np.linalg.norm(a, 2))
            assert match_multisets(eigs, np.linalg.eigvals(a), tol)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.stack([2.0 * np.eye(4) + np.eye(4, k=1), np.eye(4, k=1) - 1j * np.eye(4)]),
            lambda: algebra._random_matrices(
                _similar_upper_triangular(4, 10), np.random.default_rng(3), 20
            ),
            lambda: np.stack([rand_hermitian(np.random.default_rng(s), 6) for s in (5, 6)]),
        ],
        ids=["jordan", "similar", "non-commuting-hermitian"],
    )
    def test_uncertified_stacks_take_eig_general(self, make, monkeypatch):
        mats = make().astype(complex)
        want = linalg.eig_general(mats)
        rows = _counting_eig_general(monkeypatch)
        assert np.array_equal(spectral._joint_eigvals(mats), want)
        assert rows == [len(mats)]

    def test_a_rotated_unitary_is_rejected(self, monkeypatch):
        alg = algebra.algebra_from_generators([_benchmark_like("distinct", 8, 4)])
        mats = algebra._random_matrices(alg, np.random.default_rng(4), 20)
        real_eigh, c, s = np.linalg.eigh, np.cos(1e-6), np.sin(1e-6)

        def rotated(h):
            w, u = real_eigh(h)
            u[:, :2] = u[:, :2] @ np.array([[c, -s], [s, c]])
            return w, u

        want = linalg.eig_general(mats)
        monkeypatch.setattr(np.linalg, "eigh", rotated)
        rows = _counting_eig_general(monkeypatch)
        assert np.array_equal(spectral._joint_eigvals(mats), want)
        assert rows == [len(mats)]

    @pytest.mark.parametrize("n", [6, 8, 12, 16])
    @pytest.mark.parametrize("label", ["distinct", "doubled", "circulant"])
    def test_no_benchmark_sample_falls_back(self, label, n, monkeypatch):
        rows = _counting_eig_general(monkeypatch)
        for seed in range(5):
            alg = algebra.algebra_from_generators([_benchmark_like(label, n, seed)])
            report = gelfand.gelfand_isometry_report(alg, samples=20, seed=seed)
            assert report.max_hat_minus_radius <= 1e-12
        assert rows == []


def _reference_eig_characters(alg):
    """characters() before the joint frame, verbatim apart from names: one eig
    of the generic z, and the split where that finds fewer than dim characters
    of a *-closed algebra.  Returns the value rows in the characters' order."""
    z = alg.from_coords(algebra._generic_coords(alg.dim)[0])
    found = gelfand._consider(alg, linalg._lapack(np.linalg.eig, z)[1])
    if len(found) < alg.dim and alg.star_closed:
        blocks = gelfand._split(
            [np.eye(alg.ambient_dim, dtype=complex)], gelfand._hermitian_spanning_set(alg)
        )
        found = gelfand._consider(alg, np.stack([blk[:, 0] for blk in blocks], axis=1))
    return gelfand._sorted(found)


SCALED_STAR_ABELIAN = {
    f"{label}-{n}-x{scale:g}": (
        lambda label=label, n=n, scale=scale: algebra.algebra_from_generators(
            [_benchmark_like(label, n, 7 * n) * scale]
        )
    )
    for label in ("distinct", "doubled", "circulant")
    for n in (6, 16)
    for scale in (1e300, 1e-300)
}

# NATURAL_STAR_ABELIAN, the scaled inputs, and one whose frame has columns that every element kills
FRAMED_INPUTS = {
    **NATURAL_STAR_ABELIAN,
    **SCALED_STAR_ABELIAN,
    "non-unital-diagonal": lambda: algebra.algebra_from_generators(
        [np.diag([1.0, 0.0, 2.0, 0.0])], include_identity=False
    ),
}


def _no_call(name):
    def raising(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return raising


def _rotate_first_two(u):
    c, s = np.cos(1e-6), np.sin(1e-6)
    u = u.copy()
    u[:, :2] = u[:, :2] @ np.array([[c, -s], [s, c]])
    return u


class TestFramedCharactersEquivalence:
    """characters() of a *-closed algebra, read off the certified joint frame of
    its basis, against the eig-of-z path it replaced: the same count and
    order, and values within 1e-12."""

    @staticmethod
    def assert_same(spec, want):
        got = [np.asarray(chi.values) for chi in spec]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("name", sorted(FRAMED_INPUTS))
    def test_natural_inputs_take_the_frame(self, monkeypatch, name):
        """No eig and no split on any natural *-closed input."""
        alg = FRAMED_INPUTS[name]()
        assert alg.star_closed and alg.abelian
        want = _reference_eig_characters(alg)
        monkeypatch.setattr(np.linalg, "eig", _no_call("np.linalg.eig"))
        splits = _spy(monkeypatch, gelfand, "_split")
        spec = gelfand.characters(alg)
        assert spec.frame is not None and not splits
        self.assert_same(spec, want)

    def test_a_rotated_frame_fails_the_certificate(self, monkeypatch):
        """Two frame vectors turned together by 1e-6 mix two characters: the
        certificate rejects the frame, and the split finds the characters."""
        alg = algebra.algebra_from_generators([_benchmark_like("distinct", 8, 4)])
        want = _reference_eig_characters(alg)
        joint_frame = spectral._joint_frame
        rotated = lambda mats: _rotate_first_two(joint_frame(mats))  # noqa: E731
        monkeypatch.setattr(gelfand, "_joint_frame", rotated)
        splits = _spy(monkeypatch, gelfand, "_split")
        spec = gelfand.characters(alg)
        assert splits and spec.frame is None
        self.assert_same(spec, want)

    @pytest.mark.parametrize("name", ["nilpotent", "upper-triangular", "e12-e13-diag"])
    def test_not_star_closed_keeps_the_eig_path(self, name):
        alg = NOT_STAR_CLOSED[name]()
        spec = gelfand.characters(alg)
        assert spec.frame is None
        got = [np.asarray(chi.values) for chi in spec]
        want = _reference_eig_characters(alg)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestFramedSamples:
    """gelfand_isometry_report reads its samples in the characters' frame, with
    _joint_eigvals' certificate and its eig_general fallback."""

    @pytest.mark.parametrize("label", ["distinct", "doubled", "circulant"])
    def test_star_closed_samples_use_the_characters_frame(self, monkeypatch, label):
        alg = algebra.algebra_from_generators([_benchmark_like(label, 12, 5)])
        want = _reference_isometry_report(alg, samples=20, seed=3)
        # characters() takes its frame through gelfand's name; a frame of the samples would not
        monkeypatch.setattr(spectral, "_joint_frame", _no_call("spectral._joint_frame"))
        got = gelfand.gelfand_isometry_report(alg, samples=20, seed=3)
        assert np.abs(np.subtract(got.spectral_radius, want.spectral_radius)).max() <= 1e-12
        assert got.op_norm == want.op_norm

    def test_without_a_frame_the_samples_take_their_own(self, monkeypatch):
        alg = _similar_upper_triangular(4, 10)
        assert gelfand.characters(alg).frame is None
        calls = _spy(monkeypatch, spectral, "_joint_frame")
        gelfand.gelfand_isometry_report(alg, samples=5, seed=1)
        assert len(calls) == 1 and len(calls[0][0]) == 5

    def test_a_rotated_frame_takes_eig_general(self, monkeypatch):
        alg = algebra.algebra_from_generators([_benchmark_like("distinct", 8, 4)])
        frame = _rotate_first_two(gelfand.characters(alg).frame)
        mats = algebra._random_matrices(alg, np.random.default_rng(4), 20)
        want = linalg.eig_general(mats)
        rows = _counting_eig_general(monkeypatch)
        assert np.array_equal(spectral._joint_eigvals(mats, frame), want)
        assert rows == [len(mats)]


class TestFactoredResidualEquivalence:
    """Multiplicativity residuals from rank-one density factors agree with the
    contraction of the structure constants to 1e-12, and only densities off
    rank one take _basis_products."""

    @pytest.mark.parametrize("n", [6, 8, 16])
    @pytest.mark.parametrize("label", ["distinct", "doubled", "circulant"])
    def test_against_structure_constants(self, monkeypatch, label, n):
        alg = algebra.algebra_from_generators([_benchmark_like(label, n, 3 * n)])
        spec = gelfand.characters(alg)
        want = _reference_multiplicative(alg, spec.values)[1]
        calls = _spy(monkeypatch, states, "_basis_products")
        got = spec.multiplicativity_residuals()
        assert np.max(np.abs(got - want)) <= 1e-12
        # doubled eigenvalues give rank-two densities, all taken in one call
        assert [len(args[1]) for args in calls] == ([len(spec)] if label == "doubled" else [])
        for chi, g in zip(spec, got):
            assert chi.multiplicativity_residual() == g

    def test_zero_density(self, monkeypatch):
        alg = gelfand.cyclic_group_algebra(4)
        monkeypatch.setattr(states, "_basis_products", _no_call("_basis_products"))
        assert states.functional(alg, np.zeros(4)).multiplicativity_residual() == 0.0
        zero = algebra.algebra_from_generators([np.zeros((2, 2))], include_identity=False)
        assert states._multiplicativity_bounds(zero, np.zeros((3, 0))).tolist() == [0.0] * 3

    def test_remainder_at_the_tolerance(self, monkeypatch):
        """A character perturbed by 1e-14: at a tolerance equal to its remainder
        the factor gives a certified upper bound; one float below, the products."""
        alg = gelfand.cyclic_group_algebra(8)
        noise = np.random.default_rng(5).standard_normal(8)
        vals = gelfand.characters(alg).values[3] + 1e-14 * noise
        rem = float(states._rank_one_factors(alg, vals[None])[2][0])
        assert 0.0 < rem <= states.DENSITY_RANK_ONE_TOL
        want = _reference_multiplicative(alg, vals[None])[1][0]
        for tol, factored in ((rem, True), (np.nextafter(rem, 0.0), False)):
            monkeypatch.setattr(states, "DENSITY_RANK_ONE_TOL", tol)
            calls = _spy(monkeypatch, states, "_basis_products")
            got = states.functional(alg, vals).multiplicativity_residual()
            monkeypatch.undo()
            assert bool(calls) is not factored
            assert abs(got - want) <= 1e-12
            assert got >= want - 1e-15

    def test_the_factor_bounds_the_residual_off_rank_one(self, monkeypatch):
        """Characters perturbed by 1e-9, all taken through the factor: the
        reported value lies within twice the remainder above the residual."""
        alg = gelfand.cyclic_group_algebra(8)
        rng = np.random.default_rng(19)
        vals = gelfand.characters(alg).values[3] + 1e-9 * (
            rng.standard_normal((20, 8)) + 1j * rng.standard_normal((20, 8))
        )
        rem = states._rank_one_factors(alg, vals)[2]
        want = _reference_multiplicative(alg, vals)[1]
        monkeypatch.setattr(states, "DENSITY_RANK_ONE_TOL", 1.0)
        monkeypatch.setattr(states, "_basis_products", _no_call("_basis_products"))
        got = states._multiplicativity_bounds(alg, vals)
        assert np.all(got >= want - 1e-15) and np.all(got <= want + 2.0 * rem + 1e-15)

    def test_cyclic_64_takes_the_factor_throughout(self, monkeypatch):
        alg = gelfand.cyclic_group_algebra(64)
        spec = gelfand.characters(alg)
        monkeypatch.setattr(states, "_basis_products", _no_call("_basis_products"))
        resid = spec.multiplicativity_residuals()
        assert resid.shape == (64,) and resid.max() <= 1e-12


def _reference_distinct(vals):
    """gelfand._distinct's loop before single linkage: in order, each row
    farther than DEDUPE_RADIUS from every one kept before it."""
    close = np.abs(vals[:, None] - vals[None]).max(axis=2, initial=0.0) <= gelfand.DEDUPE_RADIUS
    keep = np.ones(len(vals), dtype=bool)
    # a row is dropped only when close to an earlier kept one
    for i in np.flatnonzero(np.tril(close, -1).any(axis=1)):
        keep[i] = not (close[i, :i] & keep[:i]).any()
    return list(vals[keep])


def _rows_about(rng, centres, sizes, spread):
    """Rows within spread * DEDUPE_RADIUS (max-norm) of the given centres, shuffled."""
    rows = [c + spread * gelfand.DEDUPE_RADIUS * (rng.random((m, len(c))) - 0.5) * 2
            for c, m in zip(centres, sizes)]
    return rng.permutation(np.concatenate(rows))


def _assert_keeps_the_loop_rows(distinct, vals):
    got, want = distinct(vals), _reference_distinct(vals)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestDistinctRowsEquivalence:
    """gelfand._distinct keeps the first row of each single-linkage cluster."""

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [2, 0, 4, 1, 3]])
    def test_chain_keeps_one_row(self, order):
        """Rows 0.6 DEDUPE_RADIUS apart, in order along the chain or not."""
        base = np.array([1.0, 0.5j, -2.0 + 1j])
        vals = (base + 0.6 * gelfand.DEDUPE_RADIUS * np.arange(5)[:, None])[order]
        got = gelfand._distinct(vals)
        assert len(got) == 1 and np.array_equal(got[0], vals[0])
        assert len(_reference_distinct(vals)) == 3

    def test_rows_that_are_not_chains_keep_the_loop_rows(self):
        rng = np.random.default_rng(61)
        inputs = [np.zeros((0, 3), dtype=complex), np.ones((1, 3), dtype=complex)]
        for d in (1, 3, 8):
            for sizes in ([1], [4], [1, 1, 1], [3, 1, 2, 5]):
                shape = (len(sizes), d)
                centres = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for spread in (0.0, 1e-9, 0.45):
                    inputs.append(_rows_about(rng, centres, sizes, spread))
        for vals in inputs:
            _assert_keeps_the_loop_rows(gelfand._distinct, vals)

    def test_character_candidates_keep_the_loop_rows(self, monkeypatch):
        """Every candidate stack that characters() passes on its way."""
        seen = []
        distinct = gelfand._distinct
        monkeypatch.setattr(gelfand, "_distinct", lambda vals: seen.append(vals) or distinct(vals))
        rng = np.random.default_rng(62)
        for make in STAR_ABELIAN.values():
            gelfand.characters(make(rng))
        for make in NOT_STAR_CLOSED.values():
            gelfand.characters(make())
        assert len(seen) >= len(STAR_ABELIAN) + len(NOT_STAR_CLOSED)
        for vals in seen:
            _assert_keeps_the_loop_rows(distinct, vals)
