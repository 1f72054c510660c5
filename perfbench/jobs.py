"""Job kinds of the benchmark: seeded inputs, the call that runs them, and an
independent reference check for each.

A job is one user-level call.  CLI jobs run ``cstarkit.cli.run(argv)`` in
process on an input file written beforehand; library jobs (the ``closure``
workload) call the algebra constructors directly and return a small summary.
Every check recomputes the expected answer with numpy/scipy or from a closed
form, never with cstarkit itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment


@dataclass
class Job:
    kind: str  # CLI command, or "closure.<constructor>" for library jobs
    size: int  # the scaling variable: n, grid points, or cyclic order N
    label: str  # input family within the kind
    argv: list[str] | None = None
    call: Callable[[], dict] | None = None
    expect: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.argv is not None


@dataclass
class Outcome:
    seconds: float
    failure: str | None  # None when the output passed its reference check
    residual_miss: bool  # a report residual exceeds its own tolerance
    output: object  # parsed report (CLI) or summary dict (library)


# ---------------------------------------------------------------- inputs


def _cgauss(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _spread_points(rng, k: int, min_gap: float = 0.2) -> np.ndarray:
    """k complex Gaussian points, redrawn until pairwise gaps exceed min_gap."""
    while True:
        pts = _cgauss(rng, k)
        gaps = np.abs(pts[:, None] - pts[None, :]) + np.eye(k) * 1e9
        if k < 2 or gaps.min() > min_gap:
            return pts


def _density(rng, n: int, rank: int) -> np.ndarray:
    v = _cgauss(rng, n, rank)
    rho = v @ v.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def _matrix_doc(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def _write(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _blockdiag(*blocks) -> np.ndarray:
    return sla.block_diag(*blocks).astype(complex)


# ------------------------------------------------------------ generators
# Each returns a Job; ``path`` is a fresh file name for the job's input.


def gen_characters(rng, n, label, path) -> Job:
    return _abelian_job("characters", rng, n, label, path)


def gen_gelfand(rng, n, label, path) -> Job:
    return _abelian_job("gelfand", rng, n, label, path)


def _abelian_job(kind, rng, n, label, path) -> Job:
    if label == "circulant":
        c = _cgauss(rng, n)
        eig = np.fft.fft(c)
        while np.min(np.abs(eig[:, None] - eig[None, :]) + np.eye(n) * 1e9) < 0.2:
            c = _cgauss(rng, n)
            eig = np.fft.fft(c)
        m = sla.circulant(c)
        distinct = eig
    else:
        k = n if label == "distinct" else n // 2
        distinct = _spread_points(rng, k)
        lam = distinct if label == "distinct" else np.repeat(distinct, 2)
        u = _unitary(rng, n)
        m = (u * lam) @ u.conj().T
    argv = [kind, "--input", _write(path, _matrix_doc(m)), "--seed", str(int(rng.integers(1000)))]
    return Job(kind, n, label, argv=argv, expect={"eigs": distinct, "dim": len(distinct)})


def gen_gns(rng, n, label, path) -> Job:
    rank = n if label == "full" else 2
    rho = _density(rng, n, rank)
    argv = ["gns", "--input", _write(path, _matrix_doc(rho)), "--seed", str(int(rng.integers(1000)))]
    return Job("gns", n, label, argv=argv, expect={"hilbert_dim": n * rank, "dim": n * n})


def gen_universal(rng, n, label, path) -> Job:
    g = rng.standard_normal((n, n))
    argv = ["universal", "--input", _write(path, _matrix_doc(g)), "--seed", str(int(rng.integers(1000)))]
    return Job("universal", n, label, argv=argv, expect={"dim": n * n})


def gen_quotient_norm(rng, k, label, path) -> Job:
    a, b = _cgauss(rng, k, k), _cgauss(rng, k, k)
    ideal = []
    for i in range(k):
        for j in range(k):
            e = np.zeros((k, k))
            e[i, j] = 1.0
            ideal.append(_matrix_doc(_blockdiag(np.zeros((k, k)), e)))
    doc = {"element": _matrix_doc(_blockdiag(a, b)), "ideal": ideal}
    argv = ["quotient-norm", "--input", _write(path, doc), "--seed", str(int(rng.integers(1000)))]
    # The ideal is the second summand with central unit p = 0 + I, so the
    # quotient norm is ||m (1 - p)|| = ||a||.
    return Job("quotient-norm", k, label, argv=argv, expect={"value": np.linalg.norm(a, 2)})


def gen_gkz(rng, n, label, path) -> Job:
    g = _density(rng, n, n)
    argv = ["gkz", "--input", _write(path, _matrix_doc(g)), "--seed", str(int(rng.integers(1000)))]
    return Job("gkz", n, label, argv=argv, expect={"g": g})


def _dense_job(kind, m, n, path, extra=(), **expect) -> Job:
    argv = [kind, "--input", _write(path, _matrix_doc(m)), *extra]
    return Job(kind, n, "gaussian", argv=argv, expect=expect)


def gen_spectrum(rng, n, label, path) -> Job:
    m = _cgauss(rng, n, n)
    return _dense_job("spectrum", m, n, path, eigs=np.linalg.eigvals(m), scale=np.linalg.norm(m, 2))


def gen_radius(rng, n, label, path) -> Job:
    m = _cgauss(rng, n, n)
    n_max = 1024
    return _dense_job(
        "radius", m, n, path, ["--n-max", str(n_max)],
        direct=_power_norm_root(m, n_max), eigen_radius=float(np.max(np.abs(np.linalg.eigvals(m)))),
    )


def _power_norm_root(m: np.ndarray, n_max: int) -> float:
    """||m^N||^(1/N) for the largest power of two N <= n_max, by numpy's
    matrix_power on m scaled to spectral radius 1 (so nothing overflows)."""
    big_n = 1 << int(math.log2(n_max))
    r = float(np.max(np.abs(np.linalg.eigvals(m))))
    return r * np.linalg.norm(np.linalg.matrix_power(m / r, big_n), 2) ** (1.0 / big_n)


def gen_exp(rng, n, label, path) -> Job:
    m = _cgauss(rng, n, n)
    return _dense_job("exp", m, n, path, ref=sla.expm(m))


def gen_sqrt(rng, n, label, path) -> Job:
    g = _cgauss(rng, n, n)
    m = g @ g.conj().T / n
    m = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    return _dense_job("sqrt", m, n, path, ref=(v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)


def gen_neumann(rng, n, label, path) -> Job:
    g = _cgauss(rng, n, n)
    m = 0.5 * g / np.linalg.norm(g, 2)
    return _dense_job("neumann", m, n, path, ref=np.linalg.inv(np.eye(n) - m))


def gen_qm(rng, grid, label, path) -> Job:
    length = float(rng.uniform(0.5, 2.0))
    levels = 5
    argv = ["qm", "--grid", str(grid), "--levels", str(levels), "--length", repr(length)]
    # E_n = n^2 pi^2 hbar^2 / (2 m L^2) with hbar = m = 1.
    energies = [(k * k * math.pi**2) / (2.0 * length**2) for k in range(1, levels + 1)]
    return Job("qm", grid, label, argv=argv, expect={"energies": energies})


# Library jobs: build an algebra, read its identity and flags, ask one query.


def _summary(alg, query) -> dict:
    return {
        "dim": alg.dim,
        "identity": alg.identity_matrix,
        "abelian": alg.abelian,
        "star_closed": alg.star_closed,
        "query": query,
    }


def gen_closure_generators(rng, n, label, path) -> Job:
    from cstarkit import algebra

    gens = [_cgauss(rng, n, n), _cgauss(rng, n, n)]
    probe = _cgauss(rng, n, n)

    def call():
        alg = algebra.algebra_from_generators(gens)
        return _summary(alg, alg.contains(probe))

    return Job("closure.generators", n, label, call=call,
               expect={"dim": n * n, "n": n, "abelian": False, "query": True})


def gen_closure_normal(rng, n, label, path) -> Job:
    from cstarkit import algebra

    u = _unitary(rng, n)
    m = (u * _spread_points(rng, n)) @ u.conj().T
    probe = m @ m.conj().T + m

    def call():
        alg = algebra.algebra_from_generators([m])
        return _summary(alg, alg.contains(probe))

    return Job("closure.normal", n, label, call=call,
               expect={"dim": n, "n": n, "abelian": True, "query": True})


def gen_closure_cyclic(rng, n, label, path) -> Job:
    from cstarkit import gelfand

    probe = sla.circulant(_cgauss(rng, n))

    def call():
        alg = gelfand.cyclic_group_algebra(n)
        return _summary(alg, alg.contains(probe))

    return Job("closure.cyclic", n, label, call=call,
               expect={"dim": n, "n": n, "abelian": True, "query": True})


def gen_closure_direct_sum(rng, k, label, path) -> Job:
    from cstarkit import algebra

    probe = _blockdiag(_cgauss(rng, k, k), _cgauss(rng, k, k))

    def call():
        alg = algebra.direct_sum_algebras(
            algebra.full_matrix_algebra(k), algebra.full_matrix_algebra(k)
        )
        return _summary(alg, alg.contains(probe))

    return Job("closure.direct_sum", k, label, call=call,
               expect={"dim": 2 * k * k, "n": 2 * k, "abelian": False, "query": True})


def gen_closure_quotient(rng, k, label, path) -> Job:
    from cstarkit import algebra

    second = []
    for i in range(k):
        for j in range(k):
            e = np.zeros((k, k))
            e[i, j] = 1.0
            second.append(_blockdiag(np.zeros((k, k)), e))
    x = _blockdiag(_cgauss(rng, k, k), np.zeros((k, k)))

    def call():
        alg = algebra.direct_sum_algebras(
            algebra.full_matrix_algebra(k), algebra.full_matrix_algebra(k)
        )
        q = algebra.quotient(alg, algebra.subspace(alg, second))
        xc = q.coset_coords(x)
        # query: the identity coset acts as the identity on [x]
        query = bool(np.allclose(q.coset_multiply(q.identity_coset, xc), xc, atol=1e-9))
        return {
            "dim": q.dim,
            "identity": alg.identity_matrix,
            "abelian": alg.abelian,
            "star_closed": alg.star_closed,
            "query": query,
        }

    return Job("closure.quotient", k, label, call=call,
               expect={"dim": k * k, "n": 2 * k, "abelian": False, "query": True})


GENERATORS = {
    "characters": gen_characters,
    "gelfand": gen_gelfand,
    "gns": gen_gns,
    "universal": gen_universal,
    "quotient-norm": gen_quotient_norm,
    "gkz": gen_gkz,
    "spectrum": gen_spectrum,
    "radius": gen_radius,
    "exp": gen_exp,
    "sqrt": gen_sqrt,
    "neumann": gen_neumann,
    "qm": gen_qm,
    "closure.generators": gen_closure_generators,
    "closure.normal": gen_closure_normal,
    "closure.cyclic": gen_closure_cyclic,
    "closure.direct_sum": gen_closure_direct_sum,
    "closure.quotient": gen_closure_quotient,
}


# ---------------------------------------------------------------- checks
# Each returns None when the output agrees with the reference, else a reason.


def _points(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _matrix(doc) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in doc["data"]])
    return flat.reshape(doc["rows"], doc["cols"])


def _multiset_gap(got: np.ndarray, want: np.ndarray) -> float:
    """Largest distance in the best one-to-one matching (inf on a count mismatch)."""
    if len(got) != len(want):
        return math.inf
    if len(got) == 0:
        return 0.0
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _rel(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300))


def check_abelian(job, rep) -> str | None:
    res, want = rep["results"], job.expect
    if res["algebra_dim"] != want["dim"]:
        return f"algebra_dim {res['algebra_dim']} != {want['dim']}"
    if job.kind == "gelfand":
        if not res["star_closed"] or res["kernel_detected"] or res["samples"] != 20:
            return "gelfand flags disagree (star_closed, no kernel, 20 samples)"
        return None
    if res["count"] != want["dim"]:
        return f"character count {res['count']} != {want['dim']}"
    eigs = want["eigs"]
    gap = _multiset_gap(_points(res["values_at_input"]), eigs)
    if gap > 1e-6 * (1.0 + np.max(np.abs(eigs))):
        return f"character values miss the eigenvalues by {gap:.2e}"
    return None


def check_gns(job, rep) -> str | None:
    res = rep["results"]
    if res["hilbert_dim"] != job.expect["hilbert_dim"] or res["algebra_dim"] != job.expect["dim"]:
        return f"hilbert_dim {res['hilbert_dim']} != n * rank = {job.expect['hilbert_dim']}"
    return None


def check_universal(job, rep) -> str | None:
    if rep["results"]["algebra_dim"] != job.expect["dim"]:
        return f"algebra_dim {rep['results']['algebra_dim']} != n^2 = {job.expect['dim']}"
    return None


def check_quotient_norm(job, rep) -> str | None:
    got, want = rep["results"]["quotient_norm"], job.expect["value"]
    if abs(got - want) > 1e-8 * want:
        return f"quotient norm {got!r} != ||a(1-p)|| = {want!r}"
    return None


def check_gkz(job, rep) -> str | None:
    res = rep["results"]
    if res["is_character"] or "witness" not in res:
        return "a state on M_n (n >= 2) is not a character, and needs a witness"
    w = _matrix(res["witness"])
    phi = abs(np.trace(job.expect["g"] @ w))
    smin = np.linalg.svd(w, compute_uv=False)[-1] / np.linalg.norm(w, 2)
    if phi > 1e-8 or smin <= 1e-8:
        return f"witness is not an invertible kernel element: |phi| {phi:.2e}, smin {smin:.2e}"
    return None


def check_spectrum(job, rep) -> str | None:
    gap = _multiset_gap(_points(rep["results"]["points"]), job.expect["eigs"])
    if gap > 1e-8 * job.expect["scale"]:
        return f"spectrum misses numpy.linalg.eigvals by {gap:.2e}"
    return None


def check_radius(job, rep) -> str | None:
    res = rep["results"]
    est, direct = res["estimate"], job.expect["direct"]
    if abs(est - direct) > 1e-9 * direct:
        return f"estimate {est!r} != ||A^N||^(1/N) = {direct!r}"
    if abs(res["eigen_radius"] - job.expect["eigen_radius"]) > 1e-9 * direct:
        return "eigen_radius disagrees with numpy.linalg.eigvals"
    return None


def _check_matrix(key, name):
    def check(job, rep) -> str | None:
        err = _rel(_matrix(rep["results"][key]), job.expect["ref"])
        if err > 1e-9:
            return f"{key} differs from {name} by {err:.2e} (relative Frobenius)"
        return None

    return check


def check_qm(job, rep) -> str | None:
    levels = rep["results"]["levels"]
    want = job.expect["energies"]
    if len(levels) != len(want):
        return f"{len(levels)} levels, expected {len(want)}"
    for lev, e in zip(levels, want):
        if abs(lev["energy"] - e) > 1e-12 * e:
            return f"level {lev['level']} energy {lev['energy']!r} != closed form {e!r}"
    return None


def check_closure(job, out) -> str | None:
    want = job.expect
    if out["dim"] != want["dim"]:
        return f"dimension {out['dim']} != {want['dim']}"
    ident = out["identity"]
    if ident is None or np.linalg.norm(ident - np.eye(want["n"])) > 1e-8:
        return "identity is missing or is not I_n"
    if out["abelian"] != want["abelian"] or not out["star_closed"]:
        return f"flags abelian={out['abelian']} star_closed={out['star_closed']} disagree"
    if out["query"] != want["query"]:
        return f"membership query returned {out['query']}"
    return None


CHECKS = {
    "characters": check_abelian,
    "gelfand": check_abelian,
    "gns": check_gns,
    "universal": check_universal,
    "quotient-norm": check_quotient_norm,
    "gkz": check_gkz,
    "spectrum": check_spectrum,
    "radius": check_radius,
    "exp": _check_matrix("exp", "scipy.linalg.expm"),
    "sqrt": _check_matrix("sqrt", "the eigh square root"),
    "neumann": _check_matrix("inverse_of_one_minus_a", "inv(I - A)"),
    "qm": check_qm,
}


def residual_miss(rep: dict) -> bool:
    return any(r["value"] > r["tolerance"] for r in rep.get("residuals", {}).values())


# --------------------------------------------------------------- running


def run_cli(cli, argv) -> tuple[int, str]:
    """Run one CLI invocation in process; returns the exit code and the
    report text (the error message when the exit code is not 0)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, (out if code == 0 else err).getvalue()


def judge(job: Job, code, output) -> tuple[str | None, bool, object]:
    """Check one job's raw result; returns (failure, residual_miss, parsed output)."""
    if not job.is_cli:
        return check_closure(job, output), False, output
    if code != 0:
        return f"exit code {code}: {output.strip()[-200:]}", False, None
    try:
        rep = json.loads(output)
        return CHECKS[job.kind](job, rep), residual_miss(rep), rep
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}", False, None


def execute(job: Job, cli, clock) -> Outcome:
    """Run one job, timing only the call, then check its output untimed."""
    try:
        t0 = clock()
        if job.is_cli:
            code, raw = run_cli(cli, job.argv)
        else:
            code, raw = 0, job.call()
        seconds = clock() - t0
    except Exception as exc:  # a raising job is a failed job, not a crashed run
        return Outcome(clock() - t0, f"raised {type(exc).__name__}: {exc}", False, None)
    failure, miss, parsed = judge(job, code, raw)
    return Outcome(seconds, failure, miss, parsed)


def input_path(workdir: str, index: int) -> str:
    return os.path.join(workdir, f"job{index:04d}.json")
