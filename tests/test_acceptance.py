"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import math

import numpy as np

from conftest import match_multisets, rand_matrix
from cstarkit import algebra, gelfand, linalg, qm, spectral, states


def report(num, label, ok, detail=""):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label} {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_01_exponential_regression():
    e = math.e
    out = spectral.exp_element(algebra.ambient_element([[1.0, 5.0], [0.0, 2.0]])).matrix
    expected = np.array([[e, 5.0 * (e**2 - e)], [0.0, e**2]])
    gap = float(np.max(np.abs(out - expected)))
    report(1, "exp([[1,5],[0,2]]) entrywise", gap <= 1e-10, f"max gap {gap:.2e}")


def test_criterion_02_unitary_exponential():
    a = 1j * np.array([[0.0, math.pi], [math.pi, 0.0]])
    out = spectral.exp_element(algebra.ambient_element(a)).matrix
    gap = float(np.max(np.abs(out + np.eye(2))))
    report(2, "exp(i pi swap) = -I", gap <= 1e-10, f"max gap {gap:.2e}")


def test_criterion_03_spectral_mapping():
    a = algebra.ambient_element([[3.0, 2.0], [1.0, 4.0]])
    p = spectral.poly_apply(a, [5.0, 8.0, 10.0, 1.0])
    entry_gap = float(np.max(np.abs(p.matrix - np.array([[186.0, 234.0], [117.0, 303.0]]))))
    pts = spectral.spectrum(p).points
    ok = entry_gap <= 1e-8 and match_multisets(pts, [69.0, 420.0], 1e-6)
    report(3, "p(A) entries and sigma(p(A)) = {69, 420}", ok, f"entry gap {entry_gap:.2e}")


def test_criterion_04_beurling_trace():
    a = algebra.ambient_element([[1.0, 1.0], [0.0, 2.0]])
    norm_gap = abs(linalg.op_norm(a.matrix) - math.sqrt(3.0 + math.sqrt(5.0)))
    hundred = spectral.power_norm_root(a, 100)
    trace = spectral.spectral_radius_limit(a, n_max=1024)
    ok = (
        norm_gap <= 1e-6
        and abs(hundred - 2.00694) <= 1e-4
        and abs(trace.estimate - 2.0) <= 1e-3
    )
    report(
        4,
        "op norm, ||A^100||^(1/100), radius estimate",
        ok,
        f"norm gap {norm_gap:.2e}, n=100 root {hundred:.6f}, estimate {trace.estimate:.6f}",
    )


def test_criterion_05_positive_square_root():
    m = np.array([[25.0, 40.0], [40.0, 65.0]])
    root = spectral.sqrt_positive(algebra.ambient_element(m)).matrix
    root_gap = float(np.max(np.abs(root - np.array([[3.0, 4.0], [4.0, 7.0]]))))
    w, _ = linalg.herm_eig(m)
    eig_ok = abs(w[0] - 0.28) <= 0.005 and abs(w[1] - 89.72) <= 0.005
    ok = root_gap <= 1e-8 and eig_ok
    report(5, "sqrt([[25,40],[40,65]]) = [[3,4],[4,7]]", ok, f"root gap {root_gap:.2e}")


def test_criterion_06_gelfand_is_dft():
    worst_transform = 0.0
    worst_isometry = 0.0
    rng = np.random.default_rng(600)
    for n in (4, 8):
        alg = gelfand.cyclic_group_algebra(n)
        spec = gelfand.characters(alg)
        shift = algebra.Element(alg, gelfand.circulant(np.eye(n, dtype=complex)[1]))
        by_freq = {}
        for chi in spec:
            k = int(round((-np.angle(chi(shift)) * n) / (2 * np.pi))) % n
            by_freq[k] = chi
        assert len(by_freq) == n
        for _ in range(100):
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = gelfand.circulant_element(alg, c)
            dft = np.fft.fft(c)
            hat = np.array([by_freq[k](a) for k in range(n)])
            worst_transform = max(worst_transform, float(np.max(np.abs(hat - dft))))
            worst_isometry = max(worst_isometry, abs(float(np.max(np.abs(hat))) - a.norm()))
    ok = worst_transform <= 1e-10 and worst_isometry <= 1e-8
    report(
        6,
        "gelfand transform = DFT on circulants (N = 4, 8)",
        ok,
        f"transform gap {worst_transform:.2e}, isometry gap {worst_isometry:.2e}",
    )


def test_criterion_07_gns_isometry():
    m2 = algebra.full_matrix_algebra(2)
    f = states.vector_state(m2, [1.0, 0.0])
    rep = states.gns(m2, f)
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(50):
        a = algebra.random_element(m2, rng)
        worst = max(worst, abs(linalg.op_norm(rep.apply(a)) - a.norm()))
    diag2 = algebra.algebra_from_generators([np.diag([1.0, 2.0])], include_identity=True)
    spec = gelfand.characters(diag2)
    probe = algebra.element(diag2, np.diag([1.0, 0.0]))
    chi = next(c for c in spec if abs(c(probe) - 1.0) < 1e-8)
    char_rep = states.gns(diag2, states.make_state(diag2, chi.values))
    coord_gap = 0.0
    for _ in range(10):
        a = algebra.random_element(diag2, rng)
        coord_gap = max(coord_gap, abs(char_rep.apply(a)[0, 0] - a.matrix[0, 0]))
    ok = worst <= 1e-8 and char_rep.hilbert_dim == 1 and coord_gap <= 1e-9
    report(
        7,
        "GNS isometric on M2 vector state; character state has dim 1",
        ok,
        f"isometry gap {worst:.2e}, dim {char_rep.hilbert_dim}, coord gap {coord_gap:.2e}",
    )


def test_criterion_08_universal_representation():
    m2 = algebra.full_matrix_algebra(2)
    c3 = algebra.algebra_from_generators([np.diag([1.0, 2.0, 3.0])], include_identity=True)
    r1 = states.universal_rep(m2)
    r2 = states.universal_rep(c3)
    ok = all(
        r.injective and r.max_isometry_residual <= 1e-7 and r.star_homomorphism_residual <= 1e-9
        for r in (r1, r2)
    )
    report(
        8,
        "universal representation isometric on M2 and C^3",
        ok,
        f"residuals {r1.max_isometry_residual:.2e}, {r2.max_isometry_residual:.2e}",
    )


def test_criterion_09_direct_sum_example():
    alg = algebra.algebra_from_generators([np.eye(1)], include_identity=True)
    pi1 = states.Representation(alg, (np.array([[[4.0 + 0j]]]),))
    pi2 = states.Representation(alg, (np.array([[[0.0, 1.0], [2.0, 0.0]]], dtype=complex),))
    total = states.direct_sum_reps([pi1, pi2])
    expected = np.array([[4.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0]], dtype=complex)
    ok = True
    for z in (1.0, 1j, 2.0 - 3.0j):
        out = total.apply(algebra.element(alg, [[z]]))
        ok &= bool(np.array_equal(out, z * expected))
    report(9, "(pi1 + pi2)(z) block matrix exact for z in {1, i, 2-3i}", ok)


def test_criterion_10_box_expectations():
    grid = qm.BoxGrid(length=1.0, points=2000)
    xhat = qm.position_operator(grid)
    cobs = qm.cosine_observable(grid)
    worst_pos = 0.0
    worst_cos = 0.0
    for n in range(1, 6):
        psi = qm.box_eigenstate(grid, n)
        worst_pos = max(worst_pos, abs(qm.expectation(xhat, psi).real - 0.5))
        target = 1.0 if n == 1 else 0.0
        worst_cos = max(worst_cos, abs(qm.expectation(cobs, psi).real - target))
    ok = worst_pos <= 1e-3 and worst_cos <= 1e-3
    report(
        10,
        "box expectations at N = 2000 (position, cosine)",
        ok,
        f"position gap {worst_pos:.2e}, cosine gap {worst_cos:.2e}",
    )


def test_criterion_11_state_properties():
    m3 = algebra.full_matrix_algebra(3)
    rng = np.random.default_rng(1100)
    worst_cs = 0.0
    norm_ok = True
    for trial in range(200):
        g = rand_matrix(rng, 3)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        f = states.make_state(m3, [complex(np.trace(rho @ b)) for b in m3.basis])
        a = algebra.random_element(m3, rng)
        b = algebra.random_element(m3, rng)
        a = algebra.Element(m3, a.matrix / a.norm())
        b = algebra.Element(m3, b.matrix / b.norm())
        worst_cs = min(worst_cs, states.cauchy_schwarz_residual(f, a, b))
        if trial < 10:  # the 500-sample sup is costly; spot-check 10 states
            bound = states.functional_norm(m3, f)
            sup = 0.0
            for _ in range(500):
                c = algebra.random_element(m3, rng)
                sup = max(sup, abs(f(algebra.Element(m3, c.matrix / c.norm()))))
            norm_ok &= sup <= bound + 1e-9
    ok = worst_cs >= -1e-12 and norm_ok
    report(
        11,
        "200 random states on M3: Cauchy-Schwarz and norm = f(1)",
        ok,
        f"min residual {worst_cs:.2e}",
    )


def test_criterion_12_neumann_oracle():
    rng = np.random.default_rng(1200)
    worst = 0.0
    for _ in range(50):
        m = rand_matrix(rng, 4)
        m *= rng.uniform(0.1, 0.5) / linalg.op_norm(m)
        series = spectral.neumann_inverse(algebra.ambient_element(m), tol=1e-12).matrix
        direct = linalg.invert(np.eye(4) - m)
        worst = max(worst, linalg.op_norm(series - direct))
    report(12, "Neumann series matches direct inverse (50 samples)", worst <= 1e-10,
           f"max gap {worst:.2e}")


def test_criterion_13_gkz_witness():
    rng = np.random.default_rng(1300)
    m2 = algebra.full_matrix_algebra(2)
    c3 = algebra.algebra_from_generators([np.diag([1.0, 2.0, 3.0])], include_identity=True)
    ok = True
    worst_phi = 0.0
    worst_sv = math.inf
    for alg in (m2, c3):
        e_coords = alg.identity_coords
        for _ in range(50):
            vals = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            phi_one = complex(np.dot(vals, e_coords))
            if abs(phi_one) < 1e-3:
                vals = vals + e_coords.conj()
                phi_one = complex(np.dot(vals, e_coords))
            vals = vals / phi_one  # normalize phi(1) = 1
            out = gelfand.gkz_witness(alg, vals)
            if out.is_character:
                continue  # a random functional is almost surely not multiplicative
            ok &= abs(out.phi_at_witness) <= 1e-9 and out.min_singular_value > 1e-8
            worst_phi = max(worst_phi, abs(out.phi_at_witness))
            worst_sv = min(worst_sv, out.min_singular_value)
    report(
        13,
        "GKZ witnesses on M2 and C^3 (50 random functionals each)",
        ok,
        f"max |phi(witness)| {worst_phi:.2e}, min singular value {worst_sv:.2e}",
    )


def test_criterion_14_quotient_norm():
    alg = algebra.algebra_from_generators([np.diag([3.0, 1.0, 2.0])], include_identity=True)
    ideal = algebra.subspace(
        alg, [np.diag([0.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex)]
    )
    q = algebra.quotient(alg, ideal)
    val = algebra.quotient_norm(q, algebra.element(alg, np.diag([3.0, 1.0, 2.0])))
    ok = abs(val - 3.0) <= 1e-4
    report(14, "quotient norm of diag(3,1,2) modulo {f : f(1) = 0}", ok, f"value {val:.6f}")


def test_criterion_15_property_suites():
    rng = np.random.default_rng(1500)
    # non-empty complex spectra inside the norm disk
    spectra_ok = True
    for _ in range(50):
        a = algebra.ambient_element(rand_matrix(rng, 4))
        rep = spectral.spectrum(a)
        spectra_ok &= len(rep.points) >= 1 and rep.radius <= a.norm() + 1e-9
    # sigma(ab) vs sigma(ba) away from zero
    sym_worst = 0.0
    for _ in range(50):
        a = algebra.ambient_element(rand_matrix(rng, 4))
        b = algebra.ambient_element(rand_matrix(rng, 4))
        sym_worst = max(sym_worst, spectral.spec_symmetry_check(a, b))
    # trace of commutators vanishes
    trace_worst = 0.0
    for _ in range(100):
        a = algebra.ambient_element(rand_matrix(rng, 3))
        b = algebra.ambient_element(rand_matrix(rng, 3))
        rep = spectral.commutator_scalar_test(a, b)
        trace_worst = max(trace_worst, abs(rep.trace_value))
    ok = spectra_ok and sym_worst <= 1e-7 and trace_worst <= 1e-12
    report(
        15,
        "property suites (spectra non-empty, sigma(ab)~sigma(ba), trace-free commutators)",
        ok,
        f"hausdorff {sym_worst:.2e}, trace {trace_worst:.2e}",
    )
