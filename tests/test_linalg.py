"""Matrix kernel: adjoints, eigendecompositions, norms, inverses, null spaces."""

import numpy as np
import pytest

from conftest import (
    rand_hermitian,
    rand_matrix,
    reference_gram_norms,
    reference_hermitian_residual_each,
    reference_op_norm_each,
    reference_unit_scaled_each,
)
from cstarkit import linalg
from cstarkit.errors import NoConvergence, NotHermitian, Overflow, Singular
from cstarkit.tolerances import LINALG_TOL


class TestAdjoint:
    def test_real_transpose(self):
        out = linalg.adjoint([[0, 1], [0, 0]])
        assert np.array_equal(out, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_conjugates_diagonal(self):
        out = linalg.adjoint([[1j]])
        assert out[0, 0] == -1j

    def test_involution_on_random(self):
        rng = np.random.default_rng(101)
        m = rand_matrix(rng, 4)
        assert np.array_equal(linalg.adjoint(linalg.adjoint(m)), m)


class TestHermEig:
    def test_diagonal_input_sorted(self):
        w, _ = linalg.herm_eig(np.diag([3.0, 1.0]))
        assert np.allclose(w, [1.0, 3.0])

    def test_positive_example_eigenvalues(self):
        w, _ = linalg.herm_eig([[25.0, 40.0], [40.0, 65.0]])
        assert abs(w[0] - 0.28) < 0.005
        assert abs(w[1] - 89.72) < 0.005

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(102)
        m = rand_hermitian(rng, 6)
        w, v = linalg.herm_eig(m)
        assert np.linalg.norm(v.conj().T @ v - np.eye(6)) < 1e-12
        assert np.linalg.norm(m @ v - v @ np.diag(w)) <= 1e-10 * linalg.op_norm(m)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.herm_eig([[0.0, 1.0], [0.0, 0.0]])


class TestOpNorm:
    def test_upper_triangular_value(self):
        assert abs(linalg.op_norm([[1.0, 1.0], [0.0, 2.0]]) - np.sqrt(3 + np.sqrt(5))) < 1e-12

    def test_identity(self):
        assert linalg.op_norm(np.eye(3)) == pytest.approx(1.0)

    def test_nilpotent_unit(self):
        assert linalg.op_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0)


class TestOpNormEach:
    """Exactly zero matrices read 0.0 without LAPACK; every other matrix of a
    stack keeps the bits it has alone."""

    def test_zero_rows_read_zero_and_live_rows_keep_their_bits(self):
        rng = np.random.default_rng(8)
        live = [rand_matrix(rng, 4) for _ in range(3)]
        zero = np.zeros((4, 4), dtype=complex)
        stack = np.stack([zero, live[0], zero, live[1], -zero, live[2]])
        got = linalg._op_norm_each(stack)
        assert got[[0, 2, 4]].tolist() == [0.0, 0.0, 0.0]
        assert got[[1, 3, 5]].tolist() == [linalg.op_norm(m) for m in live]
        svd = np.linalg.svd(np.stack(live), compute_uv=False)[:, 0]
        assert np.all(np.abs(got[[1, 3, 5]] - svd) <= 1e-13 * svd)

    def test_all_zero_stack_needs_no_lapack(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("LAPACK called on an all-zero stack")

        monkeypatch.setattr(linalg, "_lapack", no_svd)
        monkeypatch.setattr(linalg, "_unit_norms", no_svd)
        assert linalg._op_norm_each(np.zeros((5, 3, 3), dtype=complex)).tolist() == [0.0] * 5
        assert linalg.op_norm(np.zeros((2, 2))) == 0.0

    def test_subnormal_row_is_not_zero(self):
        tiny = np.zeros((3, 3), dtype=complex)
        tiny[1, 2] = 5e-324
        got = linalg._op_norm_each(np.stack([np.zeros((3, 3), dtype=complex), tiny]))
        assert got[0] == 0.0
        assert got[1] == np.linalg.svd(tiny, compute_uv=False)[0] == 5e-324

    def test_nan_row_raises_as_alone(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(NoConvergence):
            linalg._op_norm_each(bad[None])
        with pytest.raises(NoConvergence):
            linalg._op_norm_each(np.stack([np.zeros((3, 3), dtype=complex), bad]))

    def test_empty_stacks(self):
        assert linalg._op_norm_each(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)
        assert linalg._op_norm_each(np.zeros((2, 0, 0), dtype=complex)).tolist() == [0.0, 0.0]


def _gram_stacks():
    """Named (k, p, q) stacks for the Gram kernel: wide and tall, zero and
    subnormal matrices, rank one, and entries near 1e300 and 1e-300."""
    rng = np.random.default_rng(31)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    tiny = np.zeros((3, 3), dtype=complex)
    tiny[1, 2] = 5e-324
    u, v = gauss(6, 5, 1), gauss(6, 1, 4)
    yield "wide", gauss(6, 3, 7)
    yield "tall", gauss(6, 7, 3)
    yield "zero-and-subnormal", np.stack([np.zeros((3, 3)), tiny, 1e-310 * gauss(3, 3), -tiny,
                                          np.zeros((3, 3)), 2e-308 * gauss(3, 3)])
    yield "rank-one", np.concatenate([u @ v, (u @ v)[:, :, :1]], axis=2)
    yield "rank-one-real", np.einsum("ki,kj->kij", rng.standard_normal((5, 6)), rng.standard_normal((5, 6)))
    yield "1e300", 1e300 * gauss(8, 5, 5)
    yield "1e-300", 1e-300 * gauss(8, 5, 5)
    yield "mixed-scales", np.stack([1e300 * gauss(4, 4), 1e-300 * gauss(4, 4), gauss(4, 4)])


GRAM_STACKS = dict(_gram_stacks())


class TestGramOpNormEquivalence:
    """_op_norm_each, sqrt(lambda_max) of each scaled Gram matrix, agrees with
    the largest singular value within 1e-13 relative; each matrix keeps the
    bits it has alone, and the errors stay those of the SVD."""

    @pytest.mark.parametrize("name", sorted(GRAM_STACKS))
    def test_against_the_svd(self, name):
        stack = np.asarray(GRAM_STACKS[name], dtype=complex)
        got = linalg._op_norm_each(stack)
        want = np.linalg.svd(stack, compute_uv=False)[:, 0]
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert got.tolist() == [linalg.op_norm(m) for m in stack]

    def test_exact_on_a_single_entry(self):
        for z in (5e-324, 3.0 - 4.0j, 1.5e308, -1e-300j):
            m = np.zeros((2, 3), dtype=complex)
            m[1, 0] = z
            assert linalg.op_norm(m) == abs(z)

    def test_nan_raises_no_convergence(self):
        bad = np.ones((2, 3, 4), dtype=complex)
        bad[1, 2, 3] = complex(0.0, np.nan)
        with pytest.raises(NoConvergence):
            linalg._op_norm_each(bad)

    @pytest.mark.parametrize(
        "m", [np.full((2, 2), 1.7e308), np.array([[1.5e308 + 1.5e308j]]), np.full((3, 2), 1e308)],
        ids=["rank-one", "complex-entry", "tall"],
    )
    def test_norm_past_the_float_range_raises_overflow(self, m):
        with pytest.raises(Overflow):
            linalg._op_norm_each(np.stack([np.eye(m.shape[0], m.shape[1]), m]))
        assert linalg.op_norm(m / 4) == pytest.approx(np.linalg.svd(m / 4, compute_uv=False)[0], rel=1e-13)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _kernel_stacks():
    """Named seeded stacks for the bit-equivalence of the norm kernels: zero
    rows, empty stacks, subnormal entries, 2^+-1000 scalings, exactly Hermitian
    matrices, and p < q and p > q shapes, besides the Gram stacks above."""
    rng = np.random.default_rng(38)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    zero = np.zeros((4, 4), dtype=complex)
    sub = np.zeros((4, 4), dtype=complex)
    sub[0, 3], sub[2, 1] = 5e-324, -3e-320j
    herm = gauss(5, 4, 4)
    yield from GRAM_STACKS.items()
    yield "zero-rows", np.stack([zero, gauss(4, 4), -zero, gauss(4, 4), zero])
    yield "all-zero", np.zeros((3, 4, 4), dtype=complex)
    yield "empty-k00", np.zeros((3, 0, 0), dtype=complex)
    yield "empty-0nn", np.zeros((0, 4, 4), dtype=complex)
    yield "subnormal", np.stack([sub, sub + 1e-310 * gauss(4, 4), 1e-320 * gauss(4, 4), sub.conj().T])
    yield "2^1000", np.ldexp(1.0, 1000) * gauss(4, 4, 4)
    yield "2^-1000", np.ldexp(1.0, -1000) * gauss(4, 4, 4)
    yield "hermitian", herm + herm.conj().swapaxes(1, 2)
    yield "real-symmetric", np.stack([np.eye(4), np.diag([1.0, -2.0, 3.0, 0.0]), np.ones((4, 4))])
    yield "p<q", gauss(5, 2, 6)
    yield "p>q", gauss(5, 6, 2)


KERNEL_STACKS = dict(_kernel_stacks())
NON_FINITE = {"nan": complex(np.nan, 0.0), "nan-imag": complex(0.0, np.nan), "inf": np.inf,
              "-inf-imag": complex(0.0, -np.inf), "1.7e308": 1.7e308}


class TestNormKernelBitsEquivalence:
    """The norm kernels, with their single scaling and finiteness pass, give the
    bits of the kernels they replace (tests/conftest.py's reference_ copies) on
    every stack, and the same error type on entries that are not finite or
    whose norm leaves the float range."""

    @pytest.mark.parametrize("name", sorted(KERNEL_STACKS))
    def test_norms_and_scalings_keep_their_bits(self, name):
        stack = np.asarray(KERNEL_STACKS[name], dtype=complex)
        got = linalg._op_norm_each(stack)
        assert got.dtype == float and _bits(got) == _bits(reference_op_norm_each(stack))
        if stack.size and np.all(np.any(stack, axis=(1, 2))):
            assert _bits(got) == _bits(reference_gram_norms(stack))
        scaled, e = linalg._unit_scaled_each(stack)
        want_scaled, want_e = reference_unit_scaled_each(stack)
        assert scaled.dtype == complex and scaled.shape == stack.shape
        assert _bits(scaled) == _bits(want_scaled) and _bits(e) == _bits(want_e)
        assert e.shape == want_e.shape and e.dtype == want_e.dtype

    @pytest.mark.parametrize("name", sorted(k for k, v in KERNEL_STACKS.items() if v.shape[1] == v.shape[2]))
    def test_hermitian_residuals_keep_their_bits(self, name):
        stack = np.asarray(KERNEL_STACKS[name], dtype=complex)
        got = linalg._hermitian_residual_each(stack)
        want = reference_hermitian_residual_each(stack)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape and _bits(g) == _bits(w)

    def test_unit_scaled_stack_is_passed_through(self):
        """A stack whose every peak is already in [1/2, 1) needs no ldexp."""
        stack = np.array([[[0.5, -0.25j], [0.75, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], dtype=complex)
        scaled, e = linalg._unit_scaled_each(stack)
        assert scaled is stack and e.tolist() == [[0], [0]]

    @staticmethod
    def _outcome(f, stack):
        """The error type f raises on stack, or the bits of what it returns."""
        with np.errstate(all="ignore"):
            try:
                out = f(stack)
            except (NoConvergence, Overflow) as exc:
                return type(exc)
        return [_bits(x) for x in (out if isinstance(out, tuple) else (out,))]

    @pytest.mark.parametrize("entry", sorted(NON_FINITE))
    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2)], ids=["square", "p<q", "p>q"])
    def test_same_error_type_past_the_float_range(self, entry, shape):
        """A stack with one such entry in one matrix, and one filled with it."""
        rng = np.random.default_rng(39)
        stack = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal((3, *shape))
        stack[1, -1, 0] = NON_FINITE[entry]
        stack[2] = np.full(shape, NON_FINITE[entry])
        pairs = [(linalg._op_norm_each, reference_op_norm_each)]
        if shape[0] == shape[1]:
            pairs.append((linalg._hermitian_residual_each, reference_hermitian_residual_each))
        for new, old in pairs:
            assert self._outcome(old, stack) in (NoConvergence, Overflow)
            for part in (stack, stack[1:2], stack[2:]):
                assert self._outcome(new, part) == self._outcome(old, part)


class TestHermitianResidual:
    def test_exactly_hermitian_needs_no_norm(self, monkeypatch):
        def no_norm(m):
            raise AssertionError("op_norm called on exactly Hermitian input")

        herm = rand_hermitian(np.random.default_rng(5), 50)
        monkeypatch.setattr(linalg, "op_norm", no_norm)
        monkeypatch.setattr(linalg, "_op_norm_each", no_norm)
        for m in (herm, np.zeros((5, 5), dtype=complex), np.zeros((0, 0), dtype=complex)):
            assert linalg.hermitian_residual(m) == 0.0

    def test_non_hermitian_value(self):
        m = rand_matrix(np.random.default_rng(6), 7)
        expect = linalg.op_norm(m - m.conj().T) / linalg.op_norm(m)
        assert linalg.hermitian_residual(m) == expect

    def test_stack_rows_keep_their_bits(self):
        """Each matrix of a stack is scaled by its own power of two and read
        as it is alone; Hermitian and zero ones read 0.0.  The norms beside the
        defects have the bits of _op_norm_each, and the Hermitian parts those of
        (a + a*) / 2, which here stays in range."""
        rng = np.random.default_rng(9)
        mats = [rand_matrix(rng, 5), rand_hermitian(rng, 5), 2.0**900 * rand_matrix(rng, 5), np.zeros((5, 5))]
        stack = np.array(mats, dtype=complex)
        got, norms, parts = linalg._hermitian_residual_each(stack)
        assert got.tolist() == [linalg.hermitian_residual(m) for m in mats]
        assert got[1] == got[3] == 0.0 < got[0]
        assert norms.tolist() == linalg._op_norm_each(stack).tolist()
        assert np.array_equal(parts, (stack + stack.conj().swapaxes(1, 2)) / 2.0)

    def test_hermitian_part_at_the_ends_of_the_float_range(self):
        """(a + a*) / 2 is summed on a's power-of-two scaling: no overflow near
        the largest float, and the smallest subnormal keeps its bit."""
        for m in ([[1.7e308, 1e300], [1e300, -1.7e308]], [[-5e-324]]):
            stack = np.array([m], dtype=complex)
            *_, parts = linalg._hermitian_residual_each(stack)
            assert np.array_equal(parts, stack)

    def test_norm_past_the_float_range_is_overflow(self):
        with pytest.raises(Overflow):
            linalg._hermitian_residual_each(np.full((1, 2, 2), 1.7e308, dtype=complex))

    @pytest.mark.parametrize("k", [1000, -1000])
    def test_power_of_two_scale_keeps_every_bit(self, k):
        m = rand_matrix(np.random.default_rng(7), 6)
        assert linalg.hermitian_residual(2.0**k * m) == linalg.hermitian_residual(m)


class TestInvert:
    def test_identity(self):
        assert np.allclose(linalg.invert(np.eye(2)), np.eye(2))

    def test_multiply_back(self):
        m = np.array([[1.0, 1.0], [0.0, 2.0]])
        inv = linalg.invert(m)
        assert np.allclose(inv, [[1.0, -0.5], [0.0, 0.5]])
        assert np.allclose(m @ inv, np.eye(2), atol=1e-12)
        assert np.allclose(inv @ m, np.eye(2), atol=1e-12)

    def test_singular_nilpotent(self):
        with pytest.raises(Singular):
            linalg.invert([[0.0, 1.0], [0.0, 0.0]])

    def test_empty_and_non_square(self):
        assert linalg.invert(np.zeros((0, 0))).shape == (0, 0)
        with pytest.raises(ValueError, match="square"):
            linalg.require_square(np.zeros((2, 3)))


class TestEigGeneral:
    def test_integer_spectrum(self):
        eigs = sorted(linalg.eig_general([[3.0, 2.0], [1.0, 4.0]]), key=lambda z: z.real)
        assert abs(eigs[0] - 2.0) < 1e-10 and abs(eigs[1] - 5.0) < 1e-10

    def test_rotation_spectrum(self):
        eigs = sorted(linalg.eig_general([[0.0, -1.0], [1.0, 0.0]]), key=lambda z: z.imag)
        assert abs(eigs[0] + 1j) < 1e-10 and abs(eigs[1] - 1j) < 1e-10

    def test_triangular_uses_diagonal(self):
        eigs = linalg.eig_general([[7.0, 3.0], [0.0, 9.0]])
        assert set(eigs) == {7.0 + 0j, 9.0 + 0j}


def _null_vectors(g):
    """The eigenvectors of herm_eig(g) whose eigenvalue is within LINALG_TOL of
    zero, relative to the largest eigenvalue in magnitude: the null space of a
    Hermitian PSD g."""
    w, v = linalg.herm_eig(g)
    return v[:, np.abs(w) <= LINALG_TOL * np.max(np.abs(w), initial=0.0)]


class TestNullBasis:
    def test_zero_matrix_full_null(self):
        assert _null_vectors(np.zeros((3, 3))).shape == (3, 3)

    def test_identity_empty(self):
        assert _null_vectors(np.eye(3)).shape == (3, 0)

    def test_rank_one_projector(self):
        p = np.array([[1.0, 0.0], [0.0, 0.0]])
        vecs = _null_vectors(p)
        assert vecs.shape == (2, 1)
        assert np.linalg.norm(p @ vecs[:, 0]) <= 1e-9


class TestNormInvariants:
    def test_adjoint_preserves_norm(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            m = rand_matrix(rng, 4)
            assert abs(linalg.op_norm(linalg.adjoint(m)) - linalg.op_norm(m)) <= 1e-9

    def test_cstar_axiom(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            m = rand_matrix(rng, 4)
            nrm = linalg.op_norm(m)
            assert abs(linalg.op_norm(linalg.adjoint(m) @ m) - nrm**2) <= 1e-9 * nrm**2

    def test_submultiplicative(self):
        rng = np.random.default_rng(105)
        for _ in range(20):
            a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
            assert linalg.op_norm(a @ b) <= linalg.op_norm(a) * linalg.op_norm(b) + 1e-9

    def test_herm_eig_matches_general(self):
        rng = np.random.default_rng(106)
        for _ in range(10):
            m = rand_hermitian(rng, 5)
            w, _ = linalg.herm_eig(m)
            general = np.sort(linalg.eig_general(m).real)
            assert np.max(np.abs(w - general)) <= 1e-8
