"""Command-line front end: JSON matrices in, JSON run reports out.

Matrix files are {"rows": r, "cols": c, "data": [[re, im], ...]} in
row-major order.  Every run emits a report {"command", "inputs",
"results", "residuals", "seed"}; residuals always carry their tolerance.
Exit codes: 0 success, 1 mathematical precondition failure, 2 malformed
input or usage error: an unreadable or malformed document, an option value
outside its domain (a negative --seed, --grid below 2, --levels below 1, a
--length outside [1e-100, 1e100], a --tol that is not finite and positive),
or an unwritable --out.

Report bytes are exactly ``json.dumps(report, indent=2, sort_keys=True)``
plus a newline, and the same input and ``--seed`` give byte-identical
reports.  :func:`emit_report` writes that layout with its own encoder,
because the standard library falls back to its pure-Python encoder
whenever ``indent`` is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import algebra, gelfand, linalg, qm, spectral, states
from .errors import CStarError, MalformedInput, NoConvergence


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.ascontiguousarray(m).view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_json(doc) -> np.ndarray:
    try:
        rows, cols, data = int(doc["rows"]), int(doc["cols"]), doc["data"]
        pairs = np.array(data if len(data) else np.zeros((0, 2)), dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"matrix document needs rows/cols and [re, im] pairs: {exc}") from exc
    if min(rows, cols) < 0 or pairs.shape != (rows * cols, 2):
        raise MalformedInput(f"a {rows} x {cols} matrix needs {rows * cols} [re, im] pairs")
    m = pairs.view(complex).reshape(rows, cols)
    try:
        return linalg.as_matrix(m)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, and the integer digit limit
        raise MalformedInput(f"invalid JSON in {path}: {exc}") from exc


def parse_matrix(path: str) -> np.ndarray:
    return matrix_from_json(_load_json(path))


_quote = json.encoder.encode_basestring_ascii
_FLOAT_SPECIALS = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    return _FLOAT_SPECIALS.get(x) or float.__repr__(x)


def _float_pairs(items, nl: str) -> str | None:
    """A list of [float, float] pairs (a matrix's data) in one block, or None.

    Every number is formatted by one map of float.__repr__, and the block is
    built by two str.join calls whose separators alternate within and
    between pairs.  Other lists, and pairs holding NaN or an infinity,
    return None and take the generic path.
    """
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    re, im = zip(*items)
    if set(map(type, re)) | set(map(type, im)) != {float}:
        return None
    item_nl = nl + "  "
    num_nl = item_nl + "  "
    pairs = zip(map(float.__repr__, re), map(float.__repr__, im))
    body = (item_nl + "]," + item_nl + "[" + num_nl).join(map(("," + num_nl).join, pairs))
    if "n" in body:  # only the reprs 'nan', 'inf' and '-inf' contain an 'n'
        return None
    return "[" + item_nl + "[" + num_nl + body + item_nl + "]" + nl + "]"


def _encode(o, nl: str) -> str:
    """json.dumps(o, indent=2, sort_keys=True) for a value whose first line
    is already open; nl is a newline plus that line's indentation.  Dict
    keys must be strings, as every report's are."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        block = _float_pairs(o, nl)
        if block is not None:
            return block
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def emit_report(report: dict, out: str | None) -> None:
    text = _encode(report, "\n") + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise MalformedInput(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cplx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _residual(value: float, tolerance: float) -> dict:
    return {"value": float(value), "tolerance": float(tolerance)}


def _square_input(m: np.ndarray) -> np.ndarray:
    """m itself when it is square and non-empty; MalformedInput otherwise."""
    if m.shape[0] != m.shape[1]:
        raise MalformedInput(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise MalformedInput("expected a non-empty matrix, got shape (0, 0)")
    return m


def cmd_spectrum(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    # One decomposition: spectrum() of m reads its eigenvalues, or the
    # diagonal when m is triangular, as eig_general does.
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(str(exc)) from exc
    eigs = np.diag(m).astype(complex) if linalg.is_triangular(m) else w
    rep = spectral._spectrum_report(eigs, args.field)
    radius = spectral.clustering_radius(np.array(rep.points if rep.points else [0.0]))
    scale = max(1.0, linalg.op_norm(m))
    # For each reported point z, the eigenvectors v whose eigenvalue lies
    # within the clustering radius of z (or the nearest one, should none)
    # give ||(m - zI)v|| / ||v||.  Each is at least sigma_min(m - zI), so
    # their maximum over z bounds the smallest singular values from above,
    # and a residual within tolerance still certifies every point.
    mv = m @ v
    v_norms = np.linalg.norm(v, axis=0)
    eig_resid = 0.0
    for z in rep.points:
        dist = np.abs(w - z)
        near = dist <= max(radius, float(dist.min()))
        r = np.linalg.norm(mv[:, near] - z * v[:, near], axis=0) / v_norms[near]
        eig_resid = max(eig_resid, float(r.max()) / scale)
    return {
        "inputs": {"input": matrix_to_json(m), "field": args.field},
        "results": {
            "points": [_cplx(z) for z in rep.points],
            "radius": rep.radius,
        },
        "residuals": {"max_eigenvalue_residual": _residual(eig_resid, radius)},
    }


def cmd_radius(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    trace = spectral.spectral_radius_limit(algebra.ambient_element(m), n_max=args.n_max)
    return {
        "inputs": {"input": matrix_to_json(m), "n_max": args.n_max},
        "results": {
            "trace": [[int(n), float(v)] for n, v in zip(trace.powers, trace.values)],
            "estimate": trace.estimate,
            "eigen_radius": trace.eigen_radius,
        },
        "residuals": {"estimate_vs_eigen_radius": _residual(trace.gap, 1e-3)},
    }


def cmd_exp(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    a = algebra.ambient_element(m)
    em = spectral.exp_element(a).matrix
    em_neg = spectral.exp_element(algebra.ambient_element(-m)).matrix
    inverse_resid = linalg.op_norm(em @ em_neg - np.eye(m.shape[0]))
    bound_excess = max(0.0, linalg.op_norm(em) - float(np.exp(linalg.op_norm(m))))
    return {
        "inputs": {"input": matrix_to_json(m)},
        "results": {"exp": matrix_to_json(em)},
        "residuals": {
            "exp_times_exp_neg_minus_identity": _residual(inverse_resid, 1e-9),
            "norm_bound_excess": _residual(bound_excess, 1e-9),
        },
    }


def cmd_sqrt(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    root = spectral.sqrt_positive(algebra.ambient_element(m), tol=args.tol).matrix
    square_resid = linalg.op_norm(root @ root - m) / max(1.0, linalg.op_norm(m))
    return {
        "inputs": {"input": matrix_to_json(m)},
        "results": {"sqrt": matrix_to_json(root)},
        "residuals": {"square_minus_input": _residual(square_resid, 1e-8)},
    }


def cmd_neumann(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    a = algebra.ambient_element(m)
    series = spectral.neumann_inverse(a, tol=args.tol).matrix
    direct = linalg.invert(np.eye(m.shape[0]) - m)
    resid = linalg.op_norm(series - direct)
    return {
        "inputs": {"input": matrix_to_json(m), "tol": args.tol},
        "results": {"inverse_of_one_minus_a": matrix_to_json(series)},
        "residuals": {"series_vs_direct_inverse": _residual(resid, 10.0 * args.tol)},
    }


def _abelian_algebra_from(m: np.ndarray) -> algebra.Algebra:
    return algebra.algebra_from_generators([m], include_identity=True, include_adjoints=True)


def cmd_characters(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    alg = _abelian_algebra_from(m)
    spec = gelfand.characters(alg, seed=args.seed)
    a = algebra.Element(alg, m)
    mult_resid = max((chi.multiplicativity_residual() for chi in spec), default=0.0)
    return {
        "inputs": {"input": matrix_to_json(m)},
        "results": {
            "count": len(spec),
            "algebra_dim": alg.dim,
            "values_at_input": [_cplx(chi(a)) for chi in spec],
        },
        "residuals": {"max_multiplicativity_residual": _residual(mult_resid, 1e-7)},
    }


def cmd_gelfand(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    alg = _abelian_algebra_from(m)
    report = gelfand.gelfand_isometry_report(alg, samples=20, seed=args.seed)
    return {
        "inputs": {"input": matrix_to_json(m)},
        "results": {
            "algebra_dim": alg.dim,
            "samples": len(report.sup_transform),
            "kernel_detected": report.kernel_detected,
            "star_closed": alg.star_closed,
        },
        "residuals": {
            "max_sup_transform_minus_radius": _residual(report.max_hat_minus_radius, 1e-8),
            "max_sup_transform_minus_norm": _residual(
                report.max_hat_minus_norm, 1e-8 if alg.star_closed else float("inf")
            ),
        },
    }


def cmd_gkz(args) -> dict:
    g = _square_input(parse_matrix(args.input))
    n = g.shape[0]
    alg = algebra.full_matrix_algebra(n)
    values = [complex(np.trace(g @ b)) for b in alg.basis]
    phi_one = complex(np.dot(values, alg.identity_coords))
    if abs(phi_one - 1.0) > 1e-6:
        raise MalformedInput(f"gkz expects a matrix of trace 1, got phi(1) = {phi_one}")
    outcome = gelfand.gkz_witness(alg, values, seed=args.seed)
    results = {"is_character": outcome.is_character, "attempts_used": outcome.attempts_used}
    residuals = {"phi_at_identity_minus_one": _residual(abs(phi_one - 1.0), 1e-6)}
    if outcome.witness is not None:
        results["witness"] = matrix_to_json(outcome.witness.matrix)
        results["min_singular_value"] = outcome.min_singular_value
        residuals["phi_at_witness"] = _residual(abs(outcome.phi_at_witness), 1e-9)
    return {
        "inputs": {"input": matrix_to_json(g)},
        "results": results,
        "residuals": residuals,
    }


def _gns_sample_residuals(rep: states.GnsRepresentation, seed: int) -> tuple[float, float, float]:
    """Worst *-homomorphism defect, contraction excess (at least 0) and state
    reproduction error of rep over seeded samples.

    20 pairs (a, b) are drawn interleaved, then 20 samples a for the state,
    and each check runs on one stack of the samples' matrices and images.
    """
    alg, rng = rep.algebra, np.random.default_rng(seed)
    norm = algebra._op_norm_each
    pairs = algebra._random_matrices(alg, rng, 40)
    a, b = pairs[0::2], pairs[1::2]
    pa, pb = rep._apply_each(a), rep._apply_each(b)
    hom = rep._apply_each(a @ b) - pa @ pb
    star = rep._apply_each(a.conj().swapaxes(1, 2)) - pa.conj().swapaxes(1, 2)
    hom_resid = max(0.0, *norm(hom).tolist(), *norm(star).tolist())
    contraction = max(0.0, *(norm(pa) - norm(a)).tolist())
    state_resid = 0.0
    if rep.cyclic_vector is not None:
        a = algebra._random_matrices(alg, rng, 20)
        x = rep.cyclic_vector
        lhs = algebra._dot_each(x.conj(), rep._apply_each(a) @ x)
        rhs = algebra._dot_each(np.asarray(rep.state.values), algebra._pairing_each(a, alg.basis))
        # Python abs: numpy's complex abs can round differently
        state_resid = max(0.0, *(abs(p - q) for p, q in zip(lhs.tolist(), rhs.tolist())))
    return hom_resid, contraction, state_resid


def cmd_gns(args) -> dict:
    rho = _square_input(parse_matrix(args.input))
    n = rho.shape[0]
    if linalg.hermitian_residual(rho) > 1e-8 or abs(complex(np.trace(rho)) - 1.0) > 1e-8:
        raise MalformedInput("gns expects a density matrix (Hermitian, trace 1)")
    alg = algebra.full_matrix_algebra(n)
    values = [complex(np.trace(rho @ b)) for b in alg.basis]
    state = states.make_state(alg, values)
    rep = states.gns(alg, state)
    hom_resid, contraction, state_resid = _gns_sample_residuals(rep, args.seed)
    return {
        "inputs": {"input": matrix_to_json(rho)},
        "results": {"hilbert_dim": rep.hilbert_dim, "algebra_dim": alg.dim},
        "residuals": {
            "star_homomorphism": _residual(hom_resid, 1e-9),
            "contraction_excess": _residual(contraction, 1e-9),
            "state_reproduction": _residual(state_resid, 1e-9),
        },
    }


def cmd_universal(args) -> dict:
    g = _square_input(parse_matrix(args.input))
    alg = algebra.algebra_from_generators([g], include_identity=True, include_adjoints=True)
    report = states.universal_rep(alg, seed=args.seed)
    return {
        "inputs": {"input": matrix_to_json(g)},
        "results": {
            "algebra_dim": alg.dim,
            "hilbert_dim": report.representation.hilbert_dim,
            "state_count": report.state_count,
        },
        "residuals": {"max_isometry_residual": _residual(report.max_isometry_residual, 1e-7)},
    }


def cmd_quotient_norm(args) -> dict:
    doc = _load_json(args.input)
    if not isinstance(doc, dict) or "element" not in doc or "ideal" not in doc:
        raise MalformedInput('quotient-norm input must be {"element": ..., "ideal": [...]}')
    m = _square_input(matrix_from_json(doc["element"]))
    if not isinstance(doc["ideal"], list):
        raise MalformedInput('quotient-norm "ideal" must be a list of matrices')
    ideal_mats = [matrix_from_json(d) for d in doc["ideal"]]
    if any(g.shape != m.shape for g in ideal_mats):
        raise MalformedInput(f"every ideal matrix must have the element's shape {m.shape}")
    alg = algebra.algebra_from_generators(
        [m, *ideal_mats], include_identity=True, include_adjoints=True
    )
    ideal = algebra.subspace(alg, ideal_mats)
    q = algebra.quotient(alg, ideal)
    a = algebra.Element(alg, m)
    value = algebra.quotient_norm(q, a, seed=args.seed)
    excess = max(0.0, value - a.norm())
    return {
        "inputs": {"input": {"element": matrix_to_json(m), "ideal_dim": ideal.dim}},
        "results": {"quotient_norm": value, "op_norm": a.norm()},
        "residuals": {"quotient_norm_above_op_norm": _residual(excess, 1e-9)},
    }


def cmd_qm(args) -> dict:
    grid = qm.BoxGrid(length=args.length, points=args.grid)
    xhat = qm.position_operator(grid)
    cos_obs = qm.cosine_observable(grid)
    levels = []
    worst_pos = 0.0
    worst_cos = 0.0
    for n in range(1, args.levels + 1):
        psi = qm.box_eigenstate(grid, n)
        pos = qm.expectation(xhat, psi).real
        cos = qm.expectation(cos_obs, psi).real
        levels.append(
            {
                "level": n,
                "energy": qm.box_energy(grid, n),
                "position_expectation": pos,
                "cosine_expectation": cos,
            }
        )
        worst_pos = max(worst_pos, abs(pos - args.length / 2.0))
        worst_cos = max(worst_cos, abs(cos - (1.0 if n == 1 else 0.0)))
    herm = max(
        linalg.hermitian_residual(xhat.matrix), linalg.hermitian_residual(cos_obs.matrix)
    )
    return {
        "inputs": {"grid": args.grid, "levels": args.levels, "length": args.length},
        "results": {"levels": levels},
        "residuals": {
            "max_position_deviation_from_center": _residual(worst_pos, 1e-3),
            "max_cosine_deviation_from_closed_form": _residual(worst_cos, 1e-3),
            "observable_hermitian_defect": _residual(herm, 1e-12),
        },
    }


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "radius": cmd_radius,
    "exp": cmd_exp,
    "sqrt": cmd_sqrt,
    "neumann": cmd_neumann,
    "gelfand": cmd_gelfand,
    "characters": cmd_characters,
    "gkz": cmd_gkz,
    "gns": cmd_gns,
    "universal": cmd_universal,
    "quotient-norm": cmd_quotient_norm,
    "qm": cmd_qm,
}


# Each option's domain: a test of its parsed value, and the domain in words.
# The box energies n^2 pi^2 / (2 L^2) and the sampled modes stay in the
# float range for lengths well beyond [1e-100, 1e100].
_OPTION_DOMAINS = {
    "seed": (lambda v: v >= 0, "at least 0"),
    "n_max": (lambda v: v >= 1, "at least 1"),
    "grid": (lambda v: v >= 2, "at least 2"),
    "levels": (lambda v: v >= 1, "at least 1"),
    "length": (lambda v: 1e-100 <= v <= 1e100, "in [1e-100, 1e100]"),
    "tol": (lambda v: 0.0 < v < math.inf, "finite and positive"),
}


def _check_options(args) -> None:
    """MalformedInput for the first option whose value is outside its domain."""
    for name, (ok, domain) in _OPTION_DOMAINS.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise MalformedInput(f"--{name.replace('_', '-')} must be {domain}, got {value}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarkit",
        description="Finite-dimensional operator-algebra computations over JSON matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        if name != "qm":
            p.add_argument("--input", required=True, help="path to the JSON input file")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        if name in ("sqrt", "neumann"):
            p.add_argument("--tol", type=float, default=1e-9 if name == "sqrt" else 1e-12)
        if name == "spectrum":
            p.add_argument("--field", choices=["real", "complex"], default="complex")
        if name == "radius":
            p.add_argument("--n-max", type=int, default=1024)
        if name == "qm":
            p.add_argument("--grid", type=int, default=2000)
            p.add_argument("--levels", type=int, default=5)
            p.add_argument("--length", type=float, default=1.0)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_options(args)
        body = _HANDLERS[args.command](args)
        emit_report({"command": args.command, "seed": args.seed, **body}, args.out)
    except MalformedInput as exc:
        print(f"error: MalformedInput: {exc}", file=sys.stderr)
        return 2
    except CStarError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
