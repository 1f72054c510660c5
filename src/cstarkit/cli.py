"""Command-line front end: JSON matrices in, JSON run reports out.

Matrix files are {"rows": r, "cols": c, "data": [[re, im], ...]} in
row-major order, rows and cols JSON integers and every entry a JSON number.
Every run emits a report {"command", "inputs", "results", "residuals",
"seed"}; residuals always carry their tolerance.
Exit codes: 0 success, 1 mathematical precondition failure (Overflow when a
value leaves the float range), 2 malformed input or usage error: an
unreadable or malformed document, an option value outside its domain (a
negative --seed, a --grid outside [2, 1000000], --levels below 1, a --length
outside [1e-100, 1e100], a --tol that is not finite and positive, a qm run
with --levels x --grid above 100000000), or an unwritable --out.  A
--levels above --grid exits 1 with LevelOutOfRange before any level is
computed.

Reports hold their matrices and complex lists as complex numpy arrays.
Report bytes are exactly ``json.dumps(report, indent=2, sort_keys=True)``
of the report with each array in its list form (a 2-d array as its matrix
document, a 1-d one as its [[re, im], ...] list), plus a newline, and the
same input and ``--seed`` give byte-identical reports; only gelfand reads
the echoed ``--seed``, for its samples.  :func:`emit_report` writes
that layout with its own encoder, because the standard library falls back
to its pure-Python encoder whenever ``indent`` is set, and writes each
array straight from its reals without building per-entry lists.
:func:`matrix_to_json` gives the list form for writing input documents.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import algebra, gelfand, linalg, qm, spectral, states
from .errors import CStarError, LevelOutOfRange, MalformedInput
from .tolerances import (
    CHARACTERS_REPORT_TOL,
    CLASSIFY_TOL,
    DENSITY_TOL,
    EXP_REPORT_TOL,
    GELFAND_REPORT_TOL,
    GKZ_REPORT_TOL,
    GNS_REPORT_TOL,
    NEUMANN_TOL,
    QM_EXPECTATION_REPORT_TOL,
    QM_HERMITIAN_REPORT_TOL,
    QUOTIENT_NORM_REPORT_TOL,
    RADIUS_REPORT_TOL,
    SQRT_REPORT_TOL,
    UNIT_VALUE_TOL,
    UNIVERSAL_REPORT_TOL,
)


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.ascontiguousarray(m).view(float).reshape(-1, 2).tolist(),
    }


def matrix_from_json(doc) -> np.ndarray:
    """The complex matrix of a document {"rows": r, "cols": c, "data": [[re, im], ...]}.

    rows and cols must be JSON integers, and every entry a JSON number: a
    bool, string or null is MalformedInput, never read as a number.
    """
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
        entries = [x for pair in data for x in pair]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"matrix document needs rows/cols and [re, im] pairs: {exc}") from exc
    if type(rows) is not int or type(cols) is not int:
        raise MalformedInput(f"matrix rows and cols must be JSON integers, got {rows!r}, {cols!r}")
    if not set(map(type, entries)) <= {int, float}:
        raise MalformedInput("matrix entries must be JSON numbers, not booleans, strings or null")
    if min(rows, cols) < 0 or len(data) != rows * cols or not set(map(len, data)) <= {2}:
        raise MalformedInput(f"a {rows} x {cols} matrix needs {rows * cols} [re, im] pairs")
    try:
        pairs = np.array(entries, dtype=float)
    except OverflowError as exc:
        raise MalformedInput(f"matrix entries must be finite: {exc}") from exc
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


def _complex_pairs(a: np.ndarray, nl: str) -> str:
    """A 1-d complex array as json.dumps writes its [[re, im], ...] list.

    All 2 * size reals go through one map of float.__repr__ (of _float when
    an entry is NaN or infinite), and two str.join calls whose separators
    alternate within and between pairs build the block.
    """
    if not a.size:
        return "[]"
    item_nl = nl + "  "
    num_nl = item_nl + "  "
    fmt = float.__repr__ if np.isfinite(a).all() else _float
    reals = map(fmt, np.ascontiguousarray(a).view(float).tolist())
    pairs = zip(reals, reals)
    body = (item_nl + "]," + item_nl + "[" + num_nl).join(map(("," + num_nl).join, pairs))
    return "[" + item_nl + "[" + num_nl + body + item_nl + "]" + nl + "]"


def _encode(o, nl: str) -> str:
    """json.dumps(o, indent=2, sort_keys=True) for a value whose first line
    is already open; nl is a newline plus that line's indentation.  Dict
    keys must be strings, as every report's are.  A complex array is written
    in its list form: a 2-d one as its matrix document, a 1-d one as its
    [[re, im], ...] list."""
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
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(o, np.ndarray) and o.dtype == complex:
        if o.ndim == 1:
            return _complex_pairs(o, nl)
        if o.ndim == 2:
            rows, cols = o.shape
            return _encode({"rows": rows, "cols": cols, "data": o.ravel()}, nl)
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
    # One decomposition gives spectrum()'s eigenvalues and the eigenvectors.
    eigs, w, v = linalg.eig_with_vectors(m)
    rep = spectral._spectrum_report(eigs, args.field)
    radius = spectral.clustering_radius(np.array(rep.points if rep.points else [0.0]))
    scale = max(1.0, linalg.op_norm(m))
    # For each reported point z, the eigenvectors v whose eigenvalue lies
    # within the clustering radius of z (or the nearest one, should none)
    # give ||(m - zI)v|| / ||v||.  Each is at least sigma_min(m - zI), so
    # their maximum over z bounds the smallest singular values from above,
    # and a residual within tolerance still certifies every point.  m, w, z
    # and the radius enter exactly scaled by 2^-e, scale = frac 2^e, so no
    # square or distance overflows.
    frac, e = np.frexp(scale)
    mv = linalg.ldexp(m, -e) @ v
    v_norms = np.linalg.norm(v, axis=0)
    w_scaled, radius_scaled = linalg.ldexp(w, -e), np.ldexp(radius, -e)
    eig_resid = 0.0
    for z_scaled in linalg.ldexp(rep.points, -e):
        dist = np.abs(w_scaled - z_scaled)
        near = dist <= max(radius_scaled, float(dist.min()))
        r = np.linalg.norm(mv[:, near] - z_scaled * v[:, near], axis=0) / v_norms[near]
        eig_resid = max(eig_resid, float(r.max()) / frac)
    return {
        "inputs": {"input": m, "field": args.field},
        "results": {
            "points": np.array(rep.points, dtype=complex),
            "radius": rep.radius,
        },
        "residuals": {"max_eigenvalue_residual": _residual(eig_resid, radius)},
    }


def cmd_radius(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    trace = spectral.spectral_radius_limit(algebra.ambient_element(m), n_max=args.n_max)
    return {
        "inputs": {"input": m, "n_max": args.n_max},
        "results": {
            "trace": [[int(n), float(v)] for n, v in zip(trace.powers, trace.values)],
            "estimate": trace.estimate,
            "eigen_radius": trace.eigen_radius,
        },
        "residuals": {"estimate_vs_eigen_radius": _residual(trace.gap, RADIUS_REPORT_TOL)},
    }


def cmd_exp(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    em, norm = spectral._exp_and_norm(algebra.ambient_element(m))
    em_neg = spectral._exp_at_norm(-m, norm)  # ||-m|| = ||m||
    inverse_resid = linalg.op_norm(em @ em_neg - np.eye(m.shape[0]))
    with np.errstate(over="ignore"):  # a bound e^||m|| beyond the float range is inf
        bound = float(np.exp(norm))
    bound_excess = max(0.0, linalg.op_norm(em) - bound)
    return {
        "inputs": {"input": m},
        "results": {"exp": em},
        "residuals": {
            "exp_times_exp_neg_minus_identity": _residual(inverse_resid, EXP_REPORT_TOL),
            "norm_bound_excess": _residual(bound_excess, EXP_REPORT_TOL),
        },
    }


def cmd_sqrt(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    root, scale = spectral._sqrt_and_scale(m, args.tol)
    square_resid = linalg.op_norm(root @ root - m) / scale
    return {
        "inputs": {"input": m},
        "results": {"sqrt": root},
        "residuals": {"square_minus_input": _residual(square_resid, SQRT_REPORT_TOL)},
    }


def cmd_neumann(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    a = algebra.ambient_element(m)
    series = spectral.neumann_inverse(a, tol=args.tol).matrix
    direct = linalg.invert(np.eye(m.shape[0]) - m)
    resid = linalg.op_norm(series - direct)
    return {
        "inputs": {"input": m, "tol": args.tol},
        "results": {"inverse_of_one_minus_a": series},
        "residuals": {"series_vs_direct_inverse": _residual(resid, 10.0 * args.tol)},
    }


def cmd_characters(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    alg = algebra.algebra_from_generators([m])
    spec = gelfand.characters(alg)
    mult_resid = float(spec.multiplicativity_residuals().max(initial=0.0))
    # chi(input) determines chi, as the input generates the algebra, and
    # orders the characters whatever basis the algebra was built in
    values = gelfand.gelfand_transform(algebra.Element(alg, m), spec)
    return {
        "inputs": {"input": m},
        "results": {
            "count": len(spec),
            "algebra_dim": alg.dim,
            "values_at_input": values[gelfand._rounded_order(values[:, None])],
        },
        "residuals": {
            "max_multiplicativity_residual": _residual(mult_resid, CHARACTERS_REPORT_TOL)
        },
    }


def cmd_gelfand(args) -> dict:
    m = _square_input(parse_matrix(args.input))
    alg = algebra.algebra_from_generators([m])
    report = gelfand.gelfand_isometry_report(alg, samples=20, seed=args.seed)
    return {
        "inputs": {"input": m},
        "results": {
            "algebra_dim": alg.dim,
            "samples": len(report.sup_transform),
            "kernel_detected": report.kernel_detected,
            "star_closed": alg.star_closed,
        },
        "residuals": {
            "max_sup_transform_minus_radius": _residual(
                report.max_hat_minus_radius, GELFAND_REPORT_TOL
            ),
            "max_sup_transform_minus_norm": _residual(
                report.max_hat_minus_norm, GELFAND_REPORT_TOL if alg.star_closed else float("inf")
            ),
        },
    }


def cmd_gkz(args) -> dict:
    g = _square_input(parse_matrix(args.input))
    n = g.shape[0]
    alg = algebra.full_matrix_algebra(n)
    values = states._trace_values(alg, g)
    phi_one = complex(np.dot(values, alg.identity_coords))
    if abs(phi_one - 1.0) > UNIT_VALUE_TOL:
        raise MalformedInput(f"gkz expects a matrix of trace 1, got phi(1) = {phi_one}")
    outcome = gelfand.gkz_witness(alg, values)
    results = {"is_character": outcome.is_character}
    residuals = {"phi_at_identity_minus_one": _residual(abs(phi_one - 1.0), UNIT_VALUE_TOL)}
    if outcome.witness is not None:
        results["witness"] = outcome.witness.matrix
        results["min_singular_value"] = outcome.min_singular_value
        residuals["phi_at_witness"] = _residual(abs(outcome.phi_at_witness), GKZ_REPORT_TOL)
    return {
        "inputs": {"input": g},
        "results": results,
        "residuals": residuals,
    }


def cmd_gns(args) -> dict:
    rho = _square_input(parse_matrix(args.input))
    n = rho.shape[0]
    if (
        linalg.hermitian_residual(rho) > DENSITY_TOL
        or abs(complex(np.trace(rho)) - 1.0) > DENSITY_TOL
    ):
        raise MalformedInput("gns expects a density matrix (Hermitian, trace 1)")
    alg = algebra.full_matrix_algebra(n)
    state = states.make_state(alg, states._trace_values(alg, rho))
    rep = states.gns(alg, state)
    hom_resid, contraction, state_resid = states._gns_residuals(rep)
    return {
        "inputs": {"input": rho},
        "results": {"hilbert_dim": rep.hilbert_dim, "algebra_dim": alg.dim},
        "residuals": {
            "star_homomorphism": _residual(hom_resid, GNS_REPORT_TOL),
            "contraction_excess": _residual(contraction, GNS_REPORT_TOL),
            "state_reproduction": _residual(state_resid, GNS_REPORT_TOL),
        },
    }


def cmd_universal(args) -> dict:
    g = _square_input(parse_matrix(args.input))
    alg = algebra.algebra_from_generators([g])
    report = states.universal_rep(alg)
    return {
        "inputs": {"input": g},
        "results": {
            "algebra_dim": alg.dim,
            "hilbert_dim": report.representation.hilbert_dim,
            "injective": report.injective,
            "state_count": report.state_count,
        },
        "residuals": {
            "max_isometry_residual": _residual(report.max_isometry_residual, UNIVERSAL_REPORT_TOL),
            "star_homomorphism": _residual(report.star_homomorphism_residual, GNS_REPORT_TOL),
        },
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
    alg = algebra.algebra_from_generators([m, *ideal_mats])
    ideal = algebra.subspace(alg, ideal_mats)
    q = algebra.quotient(alg, ideal)
    a = algebra.Element(alg, m)
    value = algebra.quotient_norm(q, a)
    excess = max(0.0, value - a.norm())
    return {
        "inputs": {"input": {"element": m, "ideal_dim": ideal.dim}},
        "results": {"quotient_norm": value, "op_norm": a.norm()},
        "residuals": {"quotient_norm_above_op_norm": _residual(excess, QUOTIENT_NORM_REPORT_TOL)},
    }


def cmd_qm(args) -> dict:
    if args.levels > args.grid:
        raise LevelOutOfRange(f"level must be in [1, {args.grid}]")
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
    herm = max(xhat.hermitian_residual(), cos_obs.hermitian_residual())
    return {
        "inputs": {"grid": args.grid, "levels": args.levels, "length": args.length},
        "results": {"levels": levels},
        "residuals": {
            "max_position_deviation_from_center": _residual(worst_pos, QM_EXPECTATION_REPORT_TOL),
            "max_cosine_deviation_from_closed_form": _residual(
                worst_cos, QM_EXPECTATION_REPORT_TOL
            ),
            "observable_hermitian_defect": _residual(herm, QM_HERMITIAN_REPORT_TOL),
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
    "grid": (lambda v: 2 <= v <= 10**6, "in [2, 1000000]"),
    "levels": (lambda v: v >= 1, "at least 1"),
    "length": (lambda v: 1e-100 <= v <= 1e100, "in [1e-100, 1e100]"),
    "tol": (lambda v: 0.0 < v < math.inf, "finite and positive"),
}


# qm's work is O(levels x grid), tens of nanoseconds per grid point and
# level, so the largest allowed run takes seconds
QM_WORK_LIMIT = 10**8


def _check_options(args) -> None:
    """MalformedInput for the first option whose value is outside its domain,
    then for a qm run whose levels x grid exceeds QM_WORK_LIMIT."""
    for name, (ok, domain) in _OPTION_DOMAINS.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise MalformedInput(f"--{name.replace('_', '-')} must be {domain}, got {value}")
    if args.command == "qm" and args.levels * args.grid > QM_WORK_LIMIT:
        raise MalformedInput(
            f"--levels x --grid must be at most {QM_WORK_LIMIT}, "
            f"got {args.levels} x {args.grid}"
        )


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
            # the defaults of sqrt_positive and neumann_inverse
            default = CLASSIFY_TOL if name == "sqrt" else NEUMANN_TOL
            p.add_argument("--tol", type=float, default=default)
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
        with np.errstate(over="raise", invalid="raise"):
            body = _HANDLERS[args.command](args)
        emit_report({"command": args.command, "seed": args.seed, **body}, args.out)
    except MalformedInput as exc:
        print(f"error: MalformedInput: {exc}", file=sys.stderr)
        return 2
    except (CStarError, FloatingPointError, OverflowError) as exc:
        # a numpy or Python float operation that overflows, or gives an
        # invalid value such as inf - inf, stops the command as Overflow
        name = type(exc).__name__ if isinstance(exc, CStarError) else "Overflow"
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
