"""CLI: JSON round-trips, subcommand reports, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_pairs_defect, basis_state_error, rand_matrix, reference_gram_gns
from cstarkit import algebra, cli, gelfand, linalg, qm, spectral, states
from cstarkit.errors import MalformedInput
from cstarkit.tolerances import GKZ_REPORT_TOL, INVERTIBLE_TOL


def write_matrix(path, m):
    with open(path, "w") as fh:
        json.dump(cli.matrix_to_json(np.asarray(m, dtype=complex)), fh)
    return str(path)


def run_to_file(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    rc = cli.run([*argv, "--out", str(out)])
    assert rc == 0, f"command failed: {argv}"
    return json.loads(out.read_text())


class TestMatrixRoundTrip:
    def test_identity_file(self, tmp_path):
        path = write_matrix(tmp_path / "id.json", np.eye(2))
        m = cli.parse_matrix(path)
        assert np.array_equal(m, np.eye(2, dtype=complex))

    def test_random_matrix_bit_exact(self, tmp_path):
        rng = np.random.default_rng(91)
        m = rand_matrix(rng, 5)
        path = write_matrix(tmp_path / "m.json", m)
        back = cli.parse_matrix(path)
        assert np.array_equal(back, m)

    def test_truncated_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2, "cols": 2, "data": [[1, 0]')
        rc = cli.run(["spectrum", "--input", str(bad)])
        assert rc == 2

    def test_wrong_data_length_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2, "cols": 2, "data": [[1, 0]]}')
        rc = cli.run(["spectrum", "--input", str(bad)])
        assert rc == 2


class TestSubcommands:
    def test_spectrum_integer_example(self, tmp_path):
        path = write_matrix(tmp_path / "a.json", [[3.0, 2.0], [1.0, 4.0]])
        report = run_to_file(tmp_path, ["spectrum", "--input", path, "--field", "complex"])
        points = sorted(z[0] for z in report["results"]["points"])
        assert points == pytest.approx([2.0, 5.0])
        assert report["results"]["radius"] == pytest.approx(5.0)
        assert "max_eigenvalue_residual" in report["residuals"]

    def test_spectrum_real_mode_empty(self, tmp_path):
        path = write_matrix(tmp_path / "j.json", [[0.0, -1.0], [1.0, 0.0]])
        report = run_to_file(tmp_path, ["spectrum", "--input", path, "--field", "real"])
        assert report["results"]["points"] == []
        assert report["results"]["radius"] == 0.0

    def test_radius_trace(self, tmp_path):
        path = write_matrix(tmp_path / "a.json", [[1.0, 1.0], [0.0, 2.0]])
        report = run_to_file(tmp_path, ["radius", "--input", path, "--n-max", "1024"])
        assert abs(report["results"]["estimate"] - 2.0) <= 1e-3
        assert report["residuals"]["estimate_vs_eigen_radius"]["value"] <= 1e-3

    def test_exp_report(self, tmp_path):
        path = write_matrix(tmp_path / "a.json", [[1.0, 5.0], [0.0, 2.0]])
        report = run_to_file(tmp_path, ["exp", "--input", path])
        data = report["results"]["exp"]["data"]
        e = np.e
        assert data[0][0] == pytest.approx(e, abs=1e-10)
        assert data[1][0] == pytest.approx(5 * (e**2 - e), abs=1e-9)
        assert report["residuals"]["exp_times_exp_neg_minus_identity"]["value"] <= 1e-9

    def test_exp_takes_three_norms(self, tmp_path, monkeypatch):
        """||m||, the inverse residual and ||e^m||: e^-m is scaled by ||m||, as ||-m|| = ||m||."""
        path = write_matrix(tmp_path / "a.json", rand_matrix(np.random.default_rng(3), 6))
        plain = run_to_file(tmp_path, ["exp", "--input", path])
        calls = []
        op_norm = linalg.op_norm
        monkeypatch.setattr(linalg, "op_norm", lambda m: calls.append(1) or op_norm(m))
        assert run_to_file(tmp_path, ["exp", "--input", path], "counted.json") == plain
        assert len(calls) == 3

    def test_sqrt_success_and_failure(self, tmp_path):
        good = write_matrix(tmp_path / "pos.json", [[25.0, 40.0], [40.0, 65.0]])
        report = run_to_file(tmp_path, ["sqrt", "--input", good])
        vals = [z[0] for z in report["results"]["sqrt"]["data"]]
        assert vals == pytest.approx([3.0, 4.0, 4.0, 7.0], abs=1e-8)
        bad = write_matrix(tmp_path / "neg.json", [[0.0, 1.0], [0.0, 0.0]])
        assert cli.run(["sqrt", "--input", bad]) == 1

    def test_neumann_report(self, tmp_path):
        path = write_matrix(tmp_path / "a.json", 0.5 * np.eye(2))
        report = run_to_file(tmp_path, ["neumann", "--input", path])
        assert report["results"]["inverse_of_one_minus_a"]["data"][0][0] == pytest.approx(2.0)
        assert cli.run(["neumann", "--input", write_matrix(tmp_path / "b.json", np.eye(2))]) == 1

    def test_characters_on_normal_matrix(self, tmp_path):
        path = write_matrix(tmp_path / "d.json", np.diag([1.0, 2.0, 3.0]))
        report = run_to_file(tmp_path, ["characters", "--input", path])
        assert report["results"]["count"] == 3
        assert report["residuals"]["max_multiplicativity_residual"]["value"] <= 1e-7

    def test_characters_rejects_non_normal(self, tmp_path):
        path = write_matrix(tmp_path / "n.json", [[1.0, 1.0], [0.0, 2.0]])
        assert cli.run(["characters", "--input", path]) == 1

    def test_gelfand_isometry(self, tmp_path):
        path = write_matrix(tmp_path / "d.json", np.diag([1.0, 2.0]))
        report = run_to_file(tmp_path, ["gelfand", "--input", path])
        assert report["results"]["star_closed"]
        assert not report["results"]["kernel_detected"]
        assert report["residuals"]["max_sup_transform_minus_norm"]["value"] <= 1e-8

    def test_gkz_witness(self, tmp_path):
        path = write_matrix(tmp_path / "rho.json", 0.5 * np.eye(2))
        report = run_to_file(tmp_path, ["gkz", "--input", path])
        assert not report["results"]["is_character"]
        assert report["residuals"]["phi_at_witness"]["value"] <= 1e-9
        assert report["results"]["min_singular_value"] > 1e-8

    @pytest.mark.parametrize("entry", [2.0**33, 1e10, 2.0**332, 2.0**1000])
    def test_gkz_scaled_entry(self, tmp_path, entry):
        """phi(a) = a_11 + v a_12 has a witness in its kernel to rounding, however large v."""
        path = write_matrix(tmp_path / "g.json", [[1.0, 0.0], [entry, 0.0]])
        report = run_to_file(tmp_path, ["gkz", "--input", path])
        assert not report["results"]["is_character"]
        assert report["residuals"]["phi_at_witness"]["value"] <= GKZ_REPORT_TOL
        assert report["results"]["min_singular_value"] > INVERTIBLE_TOL

    @pytest.mark.parametrize("trace", [1.0 + 9e-7, 1.0 - 9e-7])
    def test_gkz_trace_off_one(self, tmp_path, trace):
        """A density whose trace misses 1 by less than UNIT_VALUE_TOL: the witness
        is in ker(phi), not in the kernel of phi / phi(1) rounded to phi."""
        rng = np.random.default_rng(9)
        g = rand_matrix(rng, 3)
        rho = g @ g.conj().T
        path = write_matrix(tmp_path / "rho.json", trace * rho / np.trace(rho).real)
        report = run_to_file(tmp_path, ["gkz", "--input", path])
        assert report["residuals"]["phi_at_identity_minus_one"]["value"] > 1e-7
        assert report["residuals"]["phi_at_witness"]["value"] <= GKZ_REPORT_TOL

    @pytest.mark.parametrize("trace", [1.0 + 9e-7, 1.0 - 9e-7])
    def test_gkz_one_by_one(self, tmp_path, trace):
        """On C, phi = trace is the one character: phi(1 1) - phi(1)^2 misses 0 by
        about 9e-7, above MULTIPLICATIVE_TOL, so the product check reads
        phi / phi(1)."""
        path = write_matrix(tmp_path / "rho.json", [[trace]])
        report = run_to_file(tmp_path, ["gkz", "--input", path])
        assert report["results"]["is_character"]

    @pytest.mark.parametrize("command", ["characters", "gkz", "quotient-norm", "gns", "universal"])
    def test_reads_no_seed(self, tmp_path, command):
        """These commands accept and echo --seed but read nothing of it."""
        argv = _seeded_argvs(tmp_path)[command][:-2]
        texts = []
        for seed in ("0", "9"):
            out = tmp_path / f"seed{seed}.json"
            assert cli.run([command, *argv, "--seed", seed, "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert '"seed": 0' in texts[0]
        assert texts[0].replace('"seed": 0', '"seed": 9') == texts[1]

    def test_gns_density_matrix(self, tmp_path):
        path = write_matrix(tmp_path / "rho.json", np.diag([0.5, 0.5]))
        report = run_to_file(tmp_path, ["gns", "--input", path])
        assert report["results"]["hilbert_dim"] == 4
        assert report["residuals"]["star_homomorphism"]["value"] <= 1e-9
        assert report["residuals"]["state_reproduction"]["value"] <= 1e-9

    def test_gns_rejects_non_density(self, tmp_path):
        path = write_matrix(tmp_path / "rho.json", np.diag([1.0, 1.0]))
        assert cli.run(["gns", "--input", path]) == 2

    def test_universal_rep(self, tmp_path):
        path = write_matrix(tmp_path / "g.json", [[0.0, 1.0], [0.0, 0.0]])
        report = run_to_file(tmp_path, ["universal", "--input", path])
        assert report["results"]["algebra_dim"] == 4 and report["results"]["injective"]
        assert report["residuals"]["max_isometry_residual"]["value"] <= 1e-7
        assert report["residuals"]["star_homomorphism"]["value"] <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_universal_integers_on_real_gaussians(self, tmp_path, n):
        """The benchmark's universal inputs: M_n, the trace state's GNS space
        C^n (x) C^n, and one rank-one norming state per basis element; the sum
        is injective."""
        g = np.random.default_rng([n, 27]).standard_normal((n, n))
        path = write_matrix(tmp_path / "g.json", g)
        results = run_to_file(tmp_path, ["universal", "--input", path, "--seed", "7"])["results"]
        want = {"algebra_dim": n * n, "hilbert_dim": n * n * (n + 1), "state_count": n * n + 1}
        assert results == {**want, "injective": True}

    def test_quotient_norm(self, tmp_path):
        doc = {
            "element": cli.matrix_to_json(np.diag([3.0, 1.0, 2.0]).astype(complex)),
            "ideal": [
                cli.matrix_to_json(np.diag([0.0, 1.0, 0.0]).astype(complex)),
                cli.matrix_to_json(np.diag([0.0, 0.0, 1.0]).astype(complex)),
            ],
        }
        path = tmp_path / "qn.json"
        path.write_text(json.dumps(doc))
        report = run_to_file(tmp_path, ["quotient-norm", "--input", str(path)])
        assert abs(report["results"]["quotient_norm"] - 3.0) <= 1e-4

    def test_qm_table(self, tmp_path):
        report = run_to_file(
            tmp_path, ["qm", "--grid", "400", "--levels", "5", "--length", "1.0"]
        )
        rows = report["results"]["levels"]
        assert len(rows) == 5
        for row in rows:
            assert abs(row["position_expectation"] - 0.5) <= 1e-3
        assert rows[0]["cosine_expectation"] == pytest.approx(1.0, abs=1e-3)
        assert report["residuals"]["max_position_deviation_from_center"]["value"] <= 1e-3


class TestCliContract:
    def test_determinism_byte_identical(self, tmp_path):
        path = write_matrix(tmp_path / "rho.json", np.diag([0.3, 0.7]))
        out1 = run_to_file(tmp_path, ["gns", "--input", path, "--seed", "11"], "o1.json")
        out2 = run_to_file(tmp_path, ["gns", "--input", path, "--seed", "11"], "o2.json")
        assert (tmp_path / "o1.json").read_bytes() == (tmp_path / "o2.json").read_bytes()
        assert out1 == out2

    def test_seed_echoed(self, tmp_path):
        path = write_matrix(tmp_path / "a.json", np.diag([1.0, 2.0]))
        report = run_to_file(tmp_path, ["spectrum", "--input", path, "--seed", "42"])
        assert report["seed"] == 42
        report = run_to_file(tmp_path, ["spectrum", "--input", path])
        assert report["seed"] == 0

    def test_every_residual_has_tolerance(self, tmp_path):
        path = write_matrix(tmp_path / "a.json", [[3.0, 2.0], [1.0, 4.0]])
        for argv in (
            ["spectrum", "--input", path],
            ["radius", "--input", path],
            ["exp", "--input", path],
        ):
            report = run_to_file(tmp_path, argv)
            assert report["residuals"], f"no residuals for {argv[0]}"
            for name, entry in report["residuals"].items():
                assert set(entry) == {"value", "tolerance"}, name

    def test_usage_error_exit_2(self, capsys):
        assert cli.run(["no-such-command"]) == 2
        assert cli.run([]) == 2

    def test_missing_file_exit_2(self):
        assert cli.run(["spectrum", "--input", "/nonexistent/path.json"]) == 2

    @pytest.mark.parametrize(
        "command, extra, matrix",
        [
            ("characters", [], np.zeros((0, 0))),
            ("gelfand", [], np.zeros((0, 0))),
            ("universal", [], np.zeros((0, 0))),
            ("radius", ["--n-max", "0"], np.eye(2)),
        ],
    )
    def test_degenerate_input_exit_2(self, tmp_path, capsys, command, extra, matrix):
        path = write_matrix(tmp_path / "m.json", matrix)
        assert cli.run([command, "--input", path, *extra]) == 2
        assert "MalformedInput" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "element, ideal",
        [
            (np.ones((2, 3)), []),
            (np.zeros((0, 0)), []),
            (np.eye(2), 5),
            (np.eye(2), [np.eye(3)]),
        ],
        ids=["non-square", "empty", "ideal-not-list", "ideal-size"],
    )
    def test_quotient_norm_malformed_exit_2(self, tmp_path, capsys, element, ideal):
        doc = {"element": cli.matrix_to_json(np.asarray(element, dtype=complex))}
        if isinstance(ideal, list):
            doc["ideal"] = [cli.matrix_to_json(np.asarray(g, dtype=complex)) for g in ideal]
        else:
            doc["ideal"] = ideal
        path = tmp_path / "qn.json"
        path.write_text(json.dumps(doc))
        assert cli.run(["quotient-norm", "--input", str(path)]) == 2
        assert "MalformedInput" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, rule",
        [
            ('{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ", 0]]}", "must be finite"),
            ('{"rows": 1, "cols": 1, "data": [[1' + "0" * 5000 + ", 0]]}", "invalid JSON"),
            ('{"rows": -1, "cols": -1, "data": [[1, 0]]}', "[re, im] pairs"),
            ('{"rows": 1, "cols": 1, "data": null}', "[re, im] pairs"),
            ('{"rows": 1, "cols": 1, "data": [["1.5", "2"]]}', "JSON numbers"),
            ('{"rows": 1, "cols": 1, "data": [[" 1.5 ", "2"]]}', "JSON numbers"),
            ('{"rows": 1, "cols": 1, "data": [[true, false]]}', "JSON numbers"),
            ('{"rows": 1, "cols": 1, "data": [[null, 2]]}', "JSON numbers"),
            ('{"rows": 1.9, "cols": 1, "data": [[1, 0]]}', "JSON integers"),
            ('{"rows": true, "cols": 1, "data": [[1, 0]]}', "JSON integers"),
            ('{"rows": "1", "cols": 1, "data": [[1, 0]]}', "JSON integers"),
            ('{"rows": 1, "cols": 2, "data": [[1, 0, 2], [3]]}', "[re, im] pairs"),
            ('{"rows": 1, "cols": 1, "data": [[NaN, 0]]}', "must be finite"),
            ('{"rows": 1, "cols": 1, "data": [[0, Infinity]]}', "must be finite"),
            ('{"rows": 1, "cols": 1, "data": [[-Infinity, 0]]}', "must be finite"),
            ('{"rows": 1, "cols": 1, "data": [[1e400, 0]]}', "must be finite"),
        ],
        ids=[
            "400-digit-entry", "5000-digit-entry", "negative-shape", "null-data",
            "string-entries", "padded-string-entries", "boolean-entries", "null-entry",
            "fractional-rows", "boolean-rows", "string-rows", "uneven-pairs",
            "nan-entry", "infinity-entry", "minus-infinity-entry", "1e400-entry",
        ],
    )
    def test_malformed_matrix_document_exit_2(self, tmp_path, capsys, text, rule):
        path = tmp_path / "m.json"
        path.write_text(text)
        for command in ("spectrum", "exp"):
            assert cli.run([command, "--input", str(path)]) == 2
            err = capsys.readouterr().err
            assert "MalformedInput" in err
            assert rule in err
            assert "Traceback" not in err

    def test_tol_only_where_read(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "a.json", 0.5 * np.eye(2))
        assert cli.run(["spectrum", "--input", path, "--tol", "1e-3"]) == 2
        assert "--tol" in capsys.readouterr().err
        for command in ("sqrt", "neumann"):
            report = run_to_file(tmp_path, [command, "--input", path, "--tol", "1e-6"])
            assert report["command"] == command

    def test_stdout_emission(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "a.json", np.eye(2))
        rc = cli.run(["spectrum", "--input", path])
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["command"] == "spectrum"


def _seeded_argvs(tmp_path):
    """One seeded input per subcommand."""
    rng = np.random.default_rng(2024)
    m = rand_matrix(rng, 4)
    u, _ = np.linalg.qr(rand_matrix(rng, 4))
    normal = (u * np.array([1.0, 2.0, 1j, -1.5])) @ u.conj().T
    g = rand_matrix(rng, 3)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    qn = tmp_path / "qn.json"
    qn.write_text(
        json.dumps(
            {
                "element": cli.matrix_to_json(np.diag([3.0, 1.0, 2.0]).astype(complex)),
                "ideal": [cli.matrix_to_json(np.diag([0.0, 1.0, 0.0]).astype(complex))],
            }
        )
    )

    def path(name, a):
        return write_matrix(tmp_path / f"{name}.json", a)

    return {
        "spectrum": ["--input", path("m", m)],
        "radius": ["--input", path("m", m), "--n-max", "64"],
        "exp": ["--input", path("m", m)],
        "sqrt": ["--input", path("pos", m @ m.conj().T)],
        "neumann": ["--input", path("small", 0.5 * m / linalg.op_norm(m))],
        "gelfand": ["--input", path("normal", normal), "--seed", "5"],
        "characters": ["--input", path("normal", normal), "--seed", "5"],
        "gkz": ["--input", path("rho", rho), "--seed", "5"],
        "gns": ["--input", path("rho", rho), "--seed", "5"],
        "universal": ["--input", path("g", g[:2, :2]), "--seed", "5"],
        "quotient-norm": ["--input", str(qn), "--seed", "5"],
        "qm": ["--grid", "200", "--levels", "3"],
    }


# Run first in a fresh interpreter: every later "import scipy" raises ImportError.
_BLOCK_SCIPY = """
import sys
sys.modules["scipy"] = None
loaded = lambda: [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod]
"""

_ALL_SUBCOMMANDS = _BLOCK_SCIPY + """
import contextlib, io, json
from cstarkit import cli
codes = {}
for command, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[command] = cli.run([command, *argv])
print(json.dumps({"codes": codes, "scipy": loaded()}))
"""

_QUOTIENT_NORM_AND_FUNC_CALC = _BLOCK_SCIPY + """
import json
import numpy as np
from cstarkit import algebra, spectral
normal, x = (np.frombuffer(bytes.fromhex(h), complex).reshape(3, 3) for h in sys.argv[1:])
units = [np.eye(3)[:, [i]] @ np.eye(3)[[j]] for i in range(3) for j in range(i, 3)]
tri = algebra.algebra_from_generators(units, include_adjoints=False)
q = algebra.quotient(tri, algebra.subspace(tri, [units[2]]))
norm = algebra.quotient_norm(q, algebra.Element(tri, x))
after_quotient_norm = loaded()
exp = spectral.func_calc(algebra.Element(None, normal), np.exp).matrix
after_func_calc = loaded()
print(json.dumps({"after_quotient_norm": after_quotient_norm, "after_func_calc": after_func_calc,
                  "exp": exp.tobytes().hex(), "norm": norm.hex()}))
"""


def _run_fresh(script, *args):
    """Run a Python script in a fresh interpreter on the package's source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestRunsWithScipyBlocked:
    """numpy is the only runtime dependency: with scipy blocked from import, the
    command line, the quotient norm and func_calc all run."""

    def test_no_subcommand_loads_scipy(self, tmp_path):
        argvs = _seeded_argvs(tmp_path)
        assert set(argvs) == set(cli._HANDLERS)
        out = _run_fresh(_ALL_SUBCOMMANDS, json.dumps(argvs))
        assert out["codes"] == {command: 0 for command in argvs}
        assert out["scipy"] == []

    def test_quotient_norm_and_func_calc(self):
        """The Parrott quotient norm on T_3 modulo E_13 first, then exp through func_calc."""
        rng = np.random.default_rng(33)
        u, _ = np.linalg.qr(rand_matrix(rng, 3))
        normal = (u * np.array([0.5, -1.0, 2j])) @ u.conj().T
        x = np.triu(rand_matrix(rng, 3))
        out = _run_fresh(_QUOTIENT_NORM_AND_FUNC_CALC, normal.tobytes().hex(), x.tobytes().hex())
        assert out["after_quotient_norm"] == out["after_func_calc"] == []
        # the same bits as in this process, where scipy may be loaded
        exp = spectral.func_calc(algebra.Element(None, normal), np.exp).matrix
        assert bytes.fromhex(out["exp"]) == exp.tobytes()
        units = [np.eye(3)[:, [i]] @ np.eye(3)[[j]] for i in range(3) for j in range(i, 3)]
        tri = algebra.algebra_from_generators(units, include_adjoints=False)
        q = algebra.quotient(tri, algebra.subspace(tri, [units[2]]))
        norm = algebra.quotient_norm(q, algebra.Element(tri, x))
        assert float.fromhex(out["norm"]) == norm
        y = x.copy()
        y[0, 2] = 0.0
        parrott = max(linalg.op_norm(y[:, :2]), linalg.op_norm(y[1:, :]))
        assert abs(norm - parrott) <= 1e-8 * parrott


def _list_form(o):
    """A report's complex array in the list form that emit_report writes for it."""
    if isinstance(o, np.ndarray) and o.dtype == complex and o.ndim == 2:
        return cli.matrix_to_json(o)
    if isinstance(o, np.ndarray) and o.dtype == complex and o.ndim == 1:
        return [[z.real, z.imag] for z in o.tolist()]
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_layout(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=_list_form) + "\n"


class TestReportEncoder:
    """emit_report writes exactly json.dumps(indent=2, sort_keys=True) plus a newline."""

    @pytest.mark.parametrize("command", list(cli._HANDLERS))
    def test_subcommand_bytes(self, tmp_path, capsys, monkeypatch, command):
        argv = [command, *_seeded_argvs(tmp_path)[command]]
        reports = []
        emit = cli.emit_report

        def spy(report, out):
            reports.append(report)
            emit(report, out)

        monkeypatch.setattr(cli, "emit_report", spy)
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == _json_layout(reports[-1])
        out = tmp_path / "report.json"
        assert cli.run([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == _json_layout(reports[-1]).encode()

    @pytest.mark.parametrize(
        "report",
        [
            {"specials": [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300]},
            {"data": [[1.0, float("nan")], [float("inf"), -0.0]]},
            {"data": [[1e300, -5e-324], [-0.0, 1e16], [0.1, -2.5e-7]]},
            {"tolerance": float("inf"), "value": 0.0},
            {"trace": [[1, 2.5], [2, 1.25]], "flags": [[True, False], [1.0, 2.0]]},
            {"np": [[np.float64(0.5), 1.5], [2.5, 3.5]], "scalar": np.float64(-1e-300)},
            {"tuple": (1.0, 2.0), "pairs": ([1.0, 2.0], [3.0, 4.0]), "tuple_pairs": [(1.0, 2.0)]},
            {"empty_list": [], "empty_dict": {}, "nested": [[], {}, [[]], [[1.0, 2.0], []]]},
            {"text": 'é ∑ "quoted" \\ back\tslash\n\x00', "ünï": [" ", "😀"]},
            {"mixed": [[1.0, 2.0], [3.0]], "triple": [[1.0, 2.0, 3.0]], "null": [None, 0]},
            {"z": 1, "a": {"b": [1]}},
            [[0.1, 0.2]] * 3,
            "top-level string",
            1.0,
        ],
    )
    def test_synthetic_reports(self, tmp_path, capsys, report):
        cli.emit_report(report, None)
        assert capsys.readouterr().out == _json_layout(report)
        out = tmp_path / "r.json"
        cli.emit_report(report, str(out))
        assert out.read_bytes() == _json_layout(report).encode()

    @pytest.mark.parametrize("report", [{"x": object()}, {"x": np.int64(1)}, {(1, 2): 0}])
    def test_unserialisable_raises_type_error(self, report):
        with pytest.raises(TypeError):
            json.dumps(report, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli.emit_report(report, None)

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats()
            | st.text()
            | st.lists(st.lists(st.floats(), min_size=2, max_size=2)),
            lambda children: st.lists(children)
            | st.tuples(children, children)
            | st.dictionaries(st.text(), children),
            max_leaves=30,
        )
    )
    def test_random_trees(self, tree):
        assert cli._encode(tree, "\n") + "\n" == _json_layout(tree)

    def test_no_handler_builds_list_matrices(self, tmp_path, monkeypatch):
        """Reports hold complex arrays, which the encoder writes itself."""
        argvs = _seeded_argvs(tmp_path)
        expected = {}
        for command, argv in argvs.items():
            out = tmp_path / f"{command}-lists.json"
            assert cli.run([command, *argv, "--out", str(out)]) == 0
            expected[command] = out.read_bytes()

        def refuse(m):
            raise AssertionError("a handler built a list matrix")

        monkeypatch.setattr(cli, "matrix_to_json", refuse)
        for command, argv in argvs.items():
            out = tmp_path / f"{command}-arrays.json"
            assert cli.run([command, *argv, "--out", str(out)]) == 0
            assert out.read_bytes() == expected[command], command

    def test_matrix_to_json_non_contiguous(self):
        rng = np.random.default_rng(7)
        m = rand_matrix(rng, 5)[:, :3].T
        m[0, 0] = -0.0
        assert not m.flags.c_contiguous
        doc = cli.matrix_to_json(m)
        assert doc["data"] == [[float(z.real), float(z.imag)] for z in m.ravel()]
        assert (doc["rows"], doc["cols"]) == (3, 5)
        assert cli.matrix_to_json(np.zeros((0, 0)))["data"] == []


_ARRAY_ENTRIES = st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1e22, 1e-7, 0.1]
) | st.floats()


@st.composite
def _complex_arrays(draw):
    """Complex 1-d and 2-d arrays up to 6 x 6, some of them transposed views."""
    shape = tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=2)))
    size = 2 * math.prod(shape)
    reals = draw(st.lists(_ARRAY_ENTRIES, min_size=size, max_size=size))
    a = np.array(reals, dtype=float).view(complex).reshape(shape)
    return a.T if a.ndim == 2 and draw(st.booleans()) else a


class TestArrayEncoderEquivalence:
    """A complex array encodes as json.dumps of its old list form, byte for byte."""

    @staticmethod
    def _assert_old_layout(a):
        for tree in (a, {"results": {"m": a, "n": 1}}, [a, 0.5]):
            assert cli._encode(tree, "\n") + "\n" == _json_layout(tree)

    @settings(max_examples=300, deadline=None)
    @given(_complex_arrays())
    def test_random_arrays(self, a):
        self._assert_old_layout(a)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (0,), (1, 7), (7, 1), (1,), (128, 128)])
    def test_shapes(self, shape):
        rng = np.random.default_rng(list(shape))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._assert_old_layout(a)
        if a.ndim == 2:
            self._assert_old_layout(a.T)
            self._assert_old_layout(a[::2, ::-1])
            if a.shape[1]:
                self._assert_old_layout(a[:, 0])  # a strided 1-d view

    def test_exponent_switch_and_subnormals(self):
        values = [-0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1.5e300]
        a = np.array(values, dtype=complex) + 1j * np.array(values[::-1])
        self._assert_old_layout(a)
        self._assert_old_layout(a.reshape(2, 4))
        assert "1e-05" in cli._encode(a, "\n") and "1e+16" in cli._encode(a, "\n")

    @pytest.mark.parametrize("special", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entries(self, special):
        a = np.array([[1.0, complex(0.5, special)], [complex(special, -0.0), 2.0]])
        self._assert_old_layout(a)
        self._assert_old_layout(a[0])
        assert {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(special)] in (
            cli._encode(a, "\n")
        )

    @pytest.mark.parametrize(
        "a", [np.zeros((2, 2)), np.zeros((2, 2), dtype=np.complex64), np.zeros((2, 2, 2), complex)]
    )
    def test_other_arrays_raise_type_error(self, a):
        with pytest.raises(TypeError):
            cli._encode({"m": a}, "\n")


class TestSpectrumResidual:
    """The eigenvector residual bounds the old sigma_min(m - zI) / scale from above."""

    @staticmethod
    def _svd_residual(m, points):
        scale = max(1.0, linalg.op_norm(m))
        eye = np.eye(m.shape[0])
        return max(
            (np.linalg.svd(m - complex(*z) * eye, compute_uv=False)[-1] / scale for z in points),
            default=0.0,
        )

    @pytest.mark.parametrize(
        "name, field",
        [
            ("n1", "complex"),
            ("n2", "complex"),
            ("n8", "complex"),
            ("jordan", "complex"),
            ("triangular", "complex"),
            ("complex_pairs", "real"),
        ],
    )
    def test_residual_bounds_svd_value(self, tmp_path, name, field):
        rng = np.random.default_rng(31)
        m = {
            "n1": rand_matrix(rng, 1),
            "n2": rand_matrix(rng, 2),
            "n8": rand_matrix(rng, 8),
            "jordan": 2.0 * np.eye(6) + np.eye(6, k=1),
            "triangular": np.triu(rand_matrix(rng, 6)),
            "complex_pairs": np.array([[0.0, -2.0, 1.0], [2.0, 0.0, 1.0], [0.0, 0.0, 3.0]]),
        }[name]
        path = write_matrix(tmp_path / "m.json", m)
        report = run_to_file(tmp_path, ["spectrum", "--input", path, "--field", field])
        resid = report["residuals"]["max_eigenvalue_residual"]
        assert resid["value"] <= 1e-12
        assert resid["value"] <= resid["tolerance"]
        old = self._svd_residual(m, report["results"]["points"])
        assert old <= resid["value"] + 4 * np.finfo(float).eps  # equal up to rounding
        if name == "complex_pairs":
            assert report["results"]["points"] == [[3.0, 0.0]]


class TestRobustnessExits:
    def test_exp_overflow_exit_1(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "big.json", [[1e300, 0.0], [1e300, 2e300]])
        assert cli.run(["exp", "--input", path]) == 1
        err = capsys.readouterr().err
        assert "Overflow" in err
        assert "Traceback" not in err

    def test_neumann_near_contraction_exit_1(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "near.json", np.diag([1.0 - 1e-7, 0.5]))
        t0 = time.perf_counter()
        assert cli.run(["neumann", "--input", path]) == 1
        assert time.perf_counter() - t0 < 10.0
        assert "BudgetExceeded" in capsys.readouterr().err


def _usage_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "MalformedInput" in err
    assert "Traceback" not in err
    return err


class TestOptionDomains:
    """Option values outside their domain exit 2, before any work is done."""

    @pytest.mark.parametrize("command", ["gns", "universal", "gkz", "characters"])
    def test_negative_seed(self, tmp_path, capsys, command):
        path = write_matrix(tmp_path / "rho.json", np.diag([0.25, 0.75]))
        assert cli.run([command, "--input", path, "--seed", "-1"]) == 2
        assert "--seed" in _usage_error(capsys)

    @pytest.mark.parametrize(
        "option",
        [
            "--grid=0",
            "--grid=1",
            "--grid=1000001",
            "--levels=0",
            "--length=0",
            "--length=-1",
            "--length=nan",
            "--length=inf",
            "--length=1e-310",
            "--length=1e300",
        ],
    )
    def test_qm_options(self, capsys, option):
        assert cli.run(["qm", "--grid", "20", option]) == 2
        assert option.split("=")[0] in _usage_error(capsys)

    def test_qm_work_limit(self, monkeypatch, capsys):
        """levels x grid above 10**8 exits 2 before any level is computed."""
        calls = []
        monkeypatch.setattr(qm, "box_eigenstate", lambda grid, n: calls.append(n))
        for grid, levels in [(1000000, 1000000), (1000000, 101), (10001, 10000)]:
            assert cli.run(["qm", "--grid", str(grid), "--levels", str(levels)]) == 2
            assert "--levels x --grid must be at most 100000000" in _usage_error(capsys)
        assert calls == []
        at_limit = cli.build_parser().parse_args(["qm", "--grid", "1000000", "--levels", "100"])
        cli._check_options(at_limit)

    @pytest.mark.parametrize("command", ["neumann", "sqrt"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf"])
    def test_tol(self, tmp_path, capsys, command, tol):
        path = write_matrix(tmp_path / "a.json", 0.5 * np.eye(2))
        assert cli.run([command, "--input", path, f"--tol={tol}"]) == 2
        assert "--tol" in _usage_error(capsys)

    def test_unwritable_out(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "a.json", np.eye(2))
        out = tmp_path / "missing-dir" / "x.json"
        assert cli.run(["spectrum", "--input", path, "--out", str(out)]) == 2
        assert "cannot write" in _usage_error(capsys)
        assert not out.exists()

    def test_gkz_needs_trace_one(self, tmp_path, capsys):
        for m in ([[2.0]], np.diag([0.5, 0.25])):
            path = write_matrix(tmp_path / "g.json", m)
            assert cli.run(["gkz", "--input", path]) == 2
            assert "trace 1" in _usage_error(capsys)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["gns", "universal", "gkz", "characters", "sqrt", "neumann", "qm"]),
        st.integers(-3, 2**70),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-3, 40),
        st.integers(-3, 45),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    def test_exit_codes_over_option_values(self, command, seed, tol, grid, levels, length):
        """Any option values end in exit 0, 1 or 2, with no traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            path = write_matrix(f"{tmp}/m.json", np.diag([0.25, 0.75]))
            argv = [command, f"--seed={seed}"]
            if command == "qm":
                argv += [f"--grid={grid}", f"--levels={levels}", f"--length={length!r}"]
            else:
                argv += ["--input", path]
            if command in ("sqrt", "neumann"):
                argv += [f"--tol={tol!r}"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    def test_module_entry_point(self, tmp_path):
        """python -m cstarkit.cli exits through main() with the same codes."""
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2, "cols": 2, "data": [[1, 0]]}')
        rho = write_matrix(tmp_path / "rho.json", np.diag([0.5, 0.5]))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        for argv in (["spectrum", "--input", str(bad)], ["gns", "--input", rho, "--seed", "-1"]):
            proc = subprocess.run(
                [sys.executable, "-m", "cstarkit.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 2
            assert "MalformedInput" in proc.stderr
            assert "Traceback" not in proc.stderr


class TestPositivityExits:
    def test_huge_diagonal_sqrt_exit_0(self, tmp_path):
        path = write_matrix(tmp_path / "d.json", np.diag([1e300, 1e300]))
        report = run_to_file(tmp_path, ["sqrt", "--input", path])
        root = np.array(report["results"]["sqrt"]["data"])[:, 0]
        assert np.allclose(root[[0, 3]], 1e150, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("value", [-1e-12, -1e-300])
    def test_tiny_negative_is_not_positive(self, tmp_path, capsys, value):
        """The gate is relative to ||m||: a negative 1 x 1 fails at any scale."""
        path = write_matrix(tmp_path / "n.json", [[value]])
        assert cli.run(["sqrt", "--input", path]) == 1
        assert capsys.readouterr().err.startswith("error: NotPositive: ")

    def test_tiny_positive_and_zero(self, tmp_path):
        """The residual is relative to ||m||, and 0 for the zero matrix."""
        report = run_to_file(tmp_path, ["sqrt", "--input", write_matrix(tmp_path / "p.json", [[1e-300]])])
        assert report["results"]["sqrt"]["data"] == [[1e-150, 0.0]]
        assert report["residuals"]["square_minus_input"]["value"] == 0.0
        report = run_to_file(tmp_path, ["sqrt", "--input", write_matrix(tmp_path / "z.json", np.zeros((2, 2)))])
        assert report["residuals"]["square_minus_input"]["value"] == 0.0

    def test_overflowing_non_hermitian_input_fails_closed(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "z.json", [[1e308 + 1e308j]])
        assert cli.run(["sqrt", "--input", path]) == 1
        err = capsys.readouterr().err
        assert "NotPositive" in err or "NoConvergence" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, code", [("sqrt", 1), ("gns", 2)])
    def test_overflowing_entries_exit_without_warning(self, tmp_path, command, code):
        path = write_matrix(tmp_path / "z.json", [[1e308 + 1e308j]])
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cstarkit.cli", command, "--input", path],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr


class TestFloatRange:
    """Inputs whose arithmetic leaves the float range exit 1 with Overflow, and no
    warning; inputs whose results are in range give them."""

    @staticmethod
    def _run(tmp_path, command, m):
        path = write_matrix(tmp_path / "m.json", m)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.run([command, "--input", path])
        return code, err.getvalue()

    @staticmethod
    def _report(tmp_path, argv, name="out.json"):
        """The report of a run that must exit 0 and warn of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_to_file(tmp_path, argv, name)

    def test_spectrum_whose_eig_is_not_finite(self, tmp_path):
        m = [[3.280811678258314e300 + 1.7976931348623155e308j]]
        assert self._run(tmp_path, "spectrum", m) == (1, "error: Overflow: eig leaves the float range\n")

    def test_exp_whose_norm_is_too_large_to_scale(self, tmp_path):
        message = "error: Overflow: operator norm 1e+308 is too large to scale below 0.5\n"
        assert self._run(tmp_path, "exp", [[1e308]]) == (1, message)

    @pytest.mark.parametrize("command", ["spectrum", "characters", "gelfand", "universal"])
    def test_overflowing_entry(self, tmp_path, command):
        """[[1e308 + 1e308j]] has |z| = 1.41e308, in range: its report has the
        integers, booleans and verdicts of [[1 + 1j]], and its values are 1e308
        times as large."""
        huge = self._report(tmp_path, [command, "--input", write_matrix(
            tmp_path / "huge.json", [[1e308 + 1e308j]])], "huge.out.json")
        one = self._report(tmp_path, [command, "--input", write_matrix(
            tmp_path / "one.json", [[1.0 + 1.0j]])], "one.out.json")
        for r, s in zip(huge["residuals"].values(), one["residuals"].values()):
            assert (r["value"] <= r["tolerance"]) == (s["value"] <= s["tolerance"])

        def walk(x, y):
            assert type(x) is type(y)
            if isinstance(x, dict):
                assert x.keys() == y.keys()
                for key in x:
                    walk(x[key], y[key])
            elif isinstance(x, list):
                assert len(x) == len(y)
                for u, v in zip(x, y):
                    walk(u, v)
            elif isinstance(x, float):
                assert abs(x - 1e308 * y) <= 1e-12 * abs(x)
            else:
                assert x == y

        walk(huge["results"], one["results"])
        walk(huge["inputs"], one["inputs"])

    @pytest.mark.parametrize(
        "m, values", [([[1e303]], [[1e303, 0.0]]),
                      (np.diag([2e302, 1e302]), [[1e302, 0.0], [2e302, 0.0]])],
    )
    def test_characters_beyond_the_rounding_range(self, tmp_path, m, values):
        """The report orders characters by their values rounded to 6 decimals,
        which would multiply these by 1e6 past the largest float."""
        path = write_matrix(tmp_path / "m.json", m)
        results = self._report(tmp_path, ["characters", "--input", path])["results"]
        assert results["values_at_input"] == values

    @pytest.mark.parametrize("command", ["spectrum", "characters"])
    @pytest.mark.parametrize(
        "m", [1e308 * np.eye(2), 1.3e308 * np.eye(2), 1.7e308 * np.eye(3), np.diag([1.6e308, 1.6e308, -1.6e308])],
        ids=["1e308-I2", "1.3e308-I2", "1.7e308-I3", "diag-1.6e308"],
    )
    def test_points_at_the_top_of_the_range(self, tmp_path, command, m):
        """Cluster sums and gaps, and a cluster's coordinate sqrt(k) chi(a),
        leave the float range here, though every point is in range: the report
        is 2^8 times that of m / 2^8, bit for bit."""
        top = self._report(tmp_path, [command, "--input", write_matrix(tmp_path / "top.json", m)], "top.out.json")
        low = self._report(
            tmp_path, [command, "--input", write_matrix(tmp_path / "low.json", m / 256)], "low.out.json"
        )
        key = "points" if command == "spectrum" else "values_at_input"
        assert top["results"][key] == (256 * np.array(low["results"][key])).tolist()
        assert len(top["results"][key]) == len(np.unique(np.diag(m)))
        for r, s in zip(top["residuals"].values(), low["residuals"].values()):
            assert (r["value"] <= r["tolerance"]) == (s["value"] <= s["tolerance"])

    def test_spectrum_residual_at_1e300(self, tmp_path):
        """The residual ||(m - zI) v|| squares entries near 1e301."""
        g = rand_matrix(np.random.default_rng(6), 6)
        path = write_matrix(tmp_path / "m.json", 1e300 * (g + g.conj().T))
        r = self._report(tmp_path, ["spectrum", "--input", path])["residuals"]
        assert r["max_eigenvalue_residual"]["value"] <= 1e-13

    def test_generators_at_the_top_of_the_range(self, tmp_path):
        """The closure's generic element sums the generators: on [[1.5e308]] it
        leaves the float range unless each is scaled first."""
        path = write_matrix(tmp_path / "m.json", [[1.5e308]])
        for command in ("gelfand", "universal"):
            assert self._report(tmp_path, [command, "--input", path])["results"]["algebra_dim"] == 1
        doc = {"element": cli.matrix_to_json(np.array([[1.5e308 + 0j]])), "ideal": []}
        (tmp_path / "qn.json").write_text(json.dumps(doc))
        report = self._report(tmp_path, ["quotient-norm", "--input", str(tmp_path / "qn.json")])
        assert report["results"]["quotient_norm"] == 1.5e308

    def test_exp_bound_beyond_the_float_range_is_inf(self, tmp_path):
        path = write_matrix(tmp_path / "n.json", [[0.0, 1e100], [0.0, 0.0]])
        report = run_to_file(tmp_path, ["exp", "--input", path])
        assert report["residuals"]["norm_bound_excess"]["value"] == 0.0

    def test_radius_of_the_smallest_subnormal(self, tmp_path):
        path = write_matrix(tmp_path / "s.json", [[5e-324j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_to_file(tmp_path, ["radius", "--input", path])
        assert report["results"]["estimate"] == report["results"]["eigen_radius"] == 5e-324
        assert all(v == 5e-324 for _, v in report["results"]["trace"])

    def test_sqrt_whose_norm_overflows(self, tmp_path):
        code, err = self._run(tmp_path, "sqrt", np.full((2, 2), 1e308))
        assert code == 1
        assert err.startswith("error: Overflow: ")


class TestQuotientNormAtExtremeScales:
    """quotient-norm on M_2 (+) M_2 modulo its second summand, element and ideal
    scaled by 2^j, returns 2^j times the unscaled value ||a||.  The squares of
    the entries leave the float range at j = +-664; the membership checks and the
    ideal's basis read each matrix on its own power-of-two scaling.  The value is
    not bit-exact, as the SVD rescales its input inside LAPACK."""

    @staticmethod
    def _value(tmp_path, j):
        rng = np.random.default_rng(41)
        element = np.zeros((4, 4), dtype=complex)
        element[:2, :2], element[2:, 2:] = rand_matrix(rng, 2), rand_matrix(rng, 2)
        ideal = np.zeros((4, 4, 4), dtype=complex)
        ideal[np.arange(4), 2 + np.arange(4) // 2, 2 + np.arange(4) % 2] = 1.0
        doc = {
            "element": cli.matrix_to_json(linalg.ldexp(element, j)),
            "ideal": [cli.matrix_to_json(linalg.ldexp(e, j)) for e in ideal],
        }
        path = tmp_path / f"qn{j}.json"
        path.write_text(json.dumps(doc))
        report = run_to_file(tmp_path, ["quotient-norm", "--input", str(path)])
        assert report["inputs"]["input"]["ideal_dim"] == 4
        return report["results"]["quotient_norm"], np.linalg.norm(element[:2, :2], 2)

    @pytest.mark.parametrize("j", [664, -664, 1000, -1000])
    def test_value_scales_with_the_input(self, tmp_path, j):
        want, norm_a = self._value(tmp_path, 0)
        assert abs(want - norm_a) <= 1e-14 * norm_a
        got, _ = self._value(tmp_path, j)
        assert abs(math.ldexp(got, -j) - want) <= 1e-14 * want


_FUZZ_COMMANDS = [
    "spectrum", "radius", "exp", "sqrt", "neumann", "characters",
    "gelfand", "gkz", "gns", "universal", "quotient-norm",
]
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-154, 1e154, -1e154, 1e308, -1e308, 1.0]
_entries = st.sampled_from(_EDGE_FLOATS) | st.floats(-4.0, 4.0) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _matrix_docs(draw, n=None):
    n = draw(st.integers(0, 4)) if n is None else n
    data = draw(st.lists(st.lists(_entries, min_size=2, max_size=2), min_size=n * n, max_size=n * n))
    return {"rows": n, "cols": n, "data": data}


@st.composite
def _command_documents(draw):
    command = draw(st.sampled_from(_FUZZ_COMMANDS))
    element = draw(_matrix_docs())
    if command == "quotient-norm":
        ideal = draw(st.lists(_matrix_docs(element["rows"]), max_size=2))
        return command, {"element": element, "ideal": ideal}
    return command, element


class TestMatrixDocumentFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_command_documents(), st.integers(0, 5))
    @example(  # a finite Hermitian part on which LAPACK's eigh does not converge
        ("sqrt", {"rows": 4, "cols": 4, "data": [
            [0.0, x] for x in [0.0] * 9 + [149322179.0, 0.0, 0.0, 1e308, 0.0, 149322179.0, 0.0]
        ]}),
        0,
    )
    def test_every_document_ends_in_an_exit_code(self, command_doc, seed):
        """Any matrix document ends in exit 0, 1 or 2, with no exception and no warning."""
        command, doc = command_doc
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            err = io.StringIO()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run([command, "--input", path, "--seed", str(seed)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


# Tokens of the argv fuzz: subcommand names valid, misspelled and missing,
# and for each flag a few values in and out of its domain.  Paths are named
# here and made in a fresh directory for each example.
_ARGV_COMMANDS = st.sampled_from(list(cli._HANDLERS)) | st.sampled_from(
    ["spectrun", "quotient_norm", "QM", "--seed", "--help"]
)
_ARGV_FLAGS = {
    "--input": ["matrix", "indefinite", "quotient", "dir", "binary", "truncated", "empty", "missing"],
    "--out": ["report", "dir", "no-parent"],
    "--seed": ["0", "7", "-1", "x"],
    "--tol": ["1e-9", "0", "nan"],
    "--field": ["real", "complex", "quaternion"],
    "--n-max": ["16", "0"],
    "--grid": ["2", "200", "1"],
    "--levels": ["1", "3", "0"],
    "--length": ["1.0", "-2"],
    "--frobnicate": ["1"],
}


@st.composite
def _argvs(draw):
    argv = draw(st.lists(_ARGV_COMMANDS, max_size=1))
    if draw(st.booleans()):
        argv += ["--input", draw(st.sampled_from(_ARGV_FLAGS["--input"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(_ARGV_FLAGS)), max_size=3)):
        argv += [flag, draw(st.sampled_from(_ARGV_FLAGS[flag]))] if draw(st.integers(0, 5)) else [flag]
    return argv


def _argv_paths(tmp: str) -> dict:
    """The --input and --out path of each token, made under tmp."""
    names = ["matrix", "indefinite", "quotient", "binary", "truncated", "empty"]
    paths = {name: os.path.join(tmp, name) for name in names}
    write_matrix(paths["matrix"], np.diag([0.5, 0.5]))
    write_matrix(paths["indefinite"], np.diag([2.0, -1.0]))
    element = json.loads(Path(paths["matrix"]).read_text())
    Path(paths["quotient"]).write_text(json.dumps({"element": element, "ideal": []}))
    Path(paths["binary"]).write_bytes(bytes(range(256)))
    Path(paths["truncated"]).write_text(Path(paths["matrix"]).read_text()[:-3])
    Path(paths["empty"]).write_text("")
    return {
        **paths,
        "dir": tmp,
        "missing": os.path.join(tmp, "missing.json"),
        "report": os.path.join(tmp, "report.json"),
        "no-parent": os.path.join(tmp, "missing", "report.json"),
    }


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_argvs())
    def test_every_argv_ends_in_an_exit_code(self, argv):
        """Any argv exits 0, 1 or 2 and prints no traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = _argv_paths(tmp)
            argv = [paths.get(token, token) for token in argv]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


def _run_captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _argv_table(tmp_path) -> list[list[str]]:
    """A valid call of each subcommand, then the usage errors and help."""
    rho = write_matrix(tmp_path / "rho.json", np.diag([0.25, 0.75]))
    quotient = tmp_path / "quotient.json"
    quotient.write_text(json.dumps({"element": json.loads(Path(rho).read_text()), "ideal": []}))
    valid = [[name, "--input", rho] for name in cli._HANDLERS if name not in ("qm", "quotient-norm")]
    return [
        *valid,
        ["quotient-norm", "--input", str(quotient), "--seed", "3"],
        ["qm", "--grid", "40", "--levels", "2"],
        ["spectrum", "--input", rho, "--field=real", "--seed=7"],
        ["gns", "--seed", "1", "--input", rho, "--seed", "2"],
        ["gns"],
        ["gns", "--input", rho, "extra"],
        ["gns", "--input", rho, "--bogus"],
        ["gns", "--bogus", "--input", rho],
        ["gns", "--inp", rho],
        ["gns", "--input", rho, "--seed", "x"],
        ["gns", "--input", rho, "--seed", "-1"],
        ["-h"],
        ["gns", "-h"],
        ["gns", "--input", rho, "-h"],
        [],
        ["nope"],
        ["nope", "--input", rho],
        ["--input", rho, "gns"],
        ["spectrum", "--input", rho, "--field", "bad"],
        ["gns", "--", "--input", rho],
        ["gns", "--input", rho, "--", "x"],
        ["gns", "--input"],
    ]


class TestArgvParsingEquivalence:
    """cli.run parses argv with the named command's own parser; each argv gives
    the exit code, stdout and stderr of the full parser's parse_args, the path
    that cli.run took before."""

    def test_same_code_and_bytes_as_the_full_parser(self, tmp_path, monkeypatch):
        table = _argv_table(tmp_path)
        got = [_run_captured(argv) for argv in table]
        monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        want = [_run_captured(argv) for argv in table]
        for argv, g, w in zip(table, got, want):
            assert g == w, argv
        codes = [g[0] for g in got]
        assert codes[:14] == [0] * 14 and set(codes) == {0, 2}

    def test_help_and_usage_errors(self, tmp_path):
        """The help texts exit 0 on stdout; the errors exit 2 with the usage
        line of the parser that read the bad argument."""
        rho = write_matrix(tmp_path / "rho.json", np.diag([0.25, 0.75]))
        code, out, err = _run_captured(["gns", "-h"])
        assert code == 0 and out.startswith("usage: cstarkit gns [-h] --input INPUT") and err == ""
        code, out, err = _run_captured(["gns", "--input", rho, "extra"])
        assert (code, out) == (2, "") and err.startswith("usage: cstarkit [-h]")
        assert err.endswith("cstarkit: error: unrecognized arguments: extra\n")
        code, out, err = _run_captured(["gns", "--input", rho, "--seed", "x"])
        assert err.endswith("cstarkit gns: error: argument --seed: invalid int value: 'x'\n")


# The exact stderr of each malformed matrix document, all exit 2.
MALFORMED_MATRICES = {
    "nan": ("[[NaN, 0]]", "matrix entries must be finite"),
    "infinity": ("[[Infinity, 0]]", "matrix entries must be finite"),
    "-infinity-imag": ("[[0, -Infinity]]", "matrix entries must be finite"),
    "1e400": ("[[1e400, 0]]", "matrix entries must be finite"),
    "int-10**400": (f"[[{10**400}, 0]]", "matrix entries must be finite: int too large to convert to float"),
    "true": ("[[true, 0]]", "matrix entries must be JSON numbers, not booleans, strings or null"),
    "string": ('[["1.5", 0]]', "matrix entries must be JSON numbers, not booleans, strings or null"),
    "null": ("[[null, 0]]", "matrix entries must be JSON numbers, not booleans, strings or null"),
    "rows-1.9": (None, "matrix rows and cols must be JSON integers, got 1.9, 1"),
    "short-data": ("[[1, 0]]", "a 2 x 2 matrix needs 4 [re, im] pairs"),
    "three-numbers": ("[[1, 0, 2]]", "a 1 x 1 matrix needs 1 [re, im] pairs"),
}


class TestMalformedInputBytes:
    @pytest.mark.parametrize("command", ["spectrum", "gns", "quotient-norm"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_MATRICES))
    def test_exact_stderr_and_exit_2(self, tmp_path, name, command):
        data, message = MALFORMED_MATRICES[name]
        if name == "rows-1.9":
            text = '{"rows": 1.9, "cols": 1, "data": [[1, 0]]}'
        else:
            size = 2 if name == "short-data" else 1
            text = f'{{"rows": {size}, "cols": {size}, "data": {data}}}'
        if command == "quotient-norm":
            text = f'{{"element": {text}, "ideal": []}}'
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert _run_captured([command, "--input", str(path)]) == (2, "", f"error: MalformedInput: {message}\n")


# ------------------------------------------------------------------
# Reference implementations: the subcommands as they were before their
# sampled checks were stacked and spectrum took one decomposition.  They are
# kept verbatim, apart from the function names, so the new code is held to
# their exact bytes; gns's residuals are its certificates taken one basis
# pair and one basis element at a time.


def _reference_gns_residuals(rep):
    """gns's certificates one basis pair and one dense image at a time: the
    all-pairs *-homomorphism defect, the excess of ||pi(z)|| over ||z|| at the
    generic z in SVD norms, and the state error on each basis element."""
    alg = rep.algebra
    z = alg.from_coords(algebra._generic_coords(alg.dim)[0])
    excess = np.linalg.norm(rep.apply(z), 2) / np.linalg.norm(z, 2) - 1.0
    state_resid = 0.0 if rep.cyclic_vector is None else basis_state_error(rep)
    return all_pairs_defect(rep), max(0.0, excess), state_resid


def _reference_cmd_gns(args) -> dict:
    rho = cli._square_input(cli.parse_matrix(args.input))
    n = rho.shape[0]
    if linalg.hermitian_residual(rho) > 1e-8 or abs(complex(np.trace(rho)) - 1.0) > 1e-8:
        raise MalformedInput("gns expects a density matrix (Hermitian, trace 1)")
    alg = algebra.full_matrix_algebra(n)
    values = [complex(np.trace(rho @ b)) for b in alg.basis]
    state = states.make_state(alg, values)
    rep = reference_gram_gns(alg, state)
    hom_resid, contraction, state_resid = _reference_gns_residuals(rep)
    return {
        "inputs": {"input": cli.matrix_to_json(rho)},
        "results": {"hilbert_dim": rep.hilbert_dim, "algebra_dim": alg.dim},
        "residuals": {
            "star_homomorphism": cli._residual(hom_resid, 1e-9),
            "contraction_excess": cli._residual(contraction, 1e-9),
            "state_reproduction": cli._residual(state_resid, 1e-9),
        },
    }


def _reference_cmd_spectrum(args) -> dict:
    m = cli._square_input(cli.parse_matrix(args.input))
    rep = spectral.spectrum(algebra.ambient_element(m), field_mode=args.field)
    radius = spectral.clustering_radius(np.array(rep.points if rep.points else [0.0]))
    scale = max(1.0, linalg.op_norm(m))
    w, v = np.linalg.eig(m)
    mv = m @ v
    v_norms = np.linalg.norm(v, axis=0)
    eig_resid = 0.0
    for z in rep.points:
        dist = np.abs(w - z)
        near = dist <= max(radius, float(dist.min()))
        r = np.linalg.norm(mv[:, near] - z * v[:, near], axis=0) / v_norms[near]
        eig_resid = max(eig_resid, float(r.max()) / scale)
    return {
        "inputs": {"input": cli.matrix_to_json(m), "field": args.field},
        "results": {
            "points": [[float(z.real), float(z.imag)] for z in rep.points],
            "radius": rep.radius,
        },
        "residuals": {"max_eigenvalue_residual": cli._residual(eig_resid, radius)},
    }


def _assert_bytes_match_reference(tmp_path, argv, reference, residual_tol=None):
    """cli.run(argv) writes exactly the report that reference(args) builds;
    with residual_tol, each residual value within residual_tol of the
    reference's and every other byte the same."""
    out = tmp_path / "new.json"
    assert cli.run([*argv, "--out", str(out)]) == 0
    args = cli.build_parser().parse_args(argv)
    report = {"command": args.command, "seed": args.seed, **reference(args)}
    if residual_tol is not None:
        written = json.loads(out.read_text())["residuals"]
        assert written.keys() == report["residuals"].keys()
        for key, want in report["residuals"].items():
            assert abs(written[key]["value"] - want["value"]) <= residual_tol, key
            want["value"] = written[key]["value"]
    assert out.read_text() == _json_layout(report)


def _density(rng, n, rank):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


class TestStackedGnsEquivalence:
    """gns checks its certificates on the n x n block of a (x) I_r, and writes
    the bytes of the Gram path's (n r) x (n r) block with every certificate
    taken one basis pair and one dense image at a time, apart from residual
    values within 1e-12."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("rank", ["full", 2])
    def test_report_bytes(self, tmp_path, n, rank):
        rng = np.random.default_rng([n, 0 if rank == "full" else rank])
        rho = _density(rng, n, n if rank == "full" else min(rank, n))
        path = write_matrix(tmp_path / "rho.json", rho)
        for seed in (0, 981):
            argv = ["gns", "--input", path, "--seed", str(seed)]
            _assert_bytes_match_reference(tmp_path, argv, _reference_cmd_gns, residual_tol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_residuals_without_cyclic_vector(self, n):
        """The certificates agree within 1e-12 with the reference on a
        Gram-path representation and on the multiplicity form; without a
        cyclic vector the state error reads exactly 0 and the other two keep
        their bits."""
        rng = np.random.default_rng(n)
        alg = algebra.full_matrix_algebra(n)
        rho = _density(rng, n, min(2, n))
        state = states.make_state(alg, [complex(np.trace(rho @ b)) for b in alg.basis])
        for rep in (reference_gram_gns(alg, state), states.gns(alg, state)):
            bare = dataclasses.replace(rep, cyclic_vector=None)
            for r in (rep, bare):
                got, want = states._gns_residuals(r), _reference_gns_residuals(r)
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
            got, bare_got = states._gns_residuals(rep), states._gns_residuals(bare)
            assert bare_got[:2] == got[:2] and bare_got[2] == 0.0


def _gns_verdicts(rep):
    """Whether each gns residual of rep is within GNS_REPORT_TOL."""
    return [value <= cli.GNS_REPORT_TOL for value in states._gns_residuals(rep)]


class TestGnsResidualsFlip:
    """Each gns residual fails when the representation data is perturbed.  On
    the matrix units the block is the basis itself, so the images at the
    generic pair are its own matrices and the homomorphism and contraction
    checks read exactly 0, with no norm computed; a block that differs in one
    bit takes the norms again."""

    @pytest.fixture(params=[(2, 1), (3, 3), (4, 2), (6, 2)], ids=lambda p: f"n{p[0]}-rank{p[1]}")
    def rep(self, request):
        n, rank = request.param
        rho = _density(np.random.default_rng([n, rank]), n, rank)
        alg = algebra.full_matrix_algebra(n)
        rep = states.gns(alg, states.make_state(alg, states._trace_values(alg, rho)))
        assert rep.hilbert_dim == n * rank
        hom, contraction, state_resid = states._gns_residuals(rep)
        assert hom == contraction == 0.0 and state_resid <= cli.GNS_REPORT_TOL
        return rep

    def test_transposed_block_flips_star_homomorphism(self, rep):
        flipped = dataclasses.replace(rep, blocks=(rep.blocks[0].swapaxes(1, 2),))
        assert _gns_verdicts(flipped)[:2] == [False, True]

    def test_similar_block_flips_star_homomorphism(self, rep):
        """a -> S a S^-1 for a non-unitary S is multiplicative but not a *-map."""
        s = np.diag(np.arange(1.0, rep.algebra.ambient_dim + 1))
        similar = dataclasses.replace(rep, blocks=(s @ rep.blocks[0] @ np.linalg.inv(s),))
        assert _gns_verdicts(similar)[0] is False

    def test_scaled_block_flips_contraction_excess(self, rep):
        scaled = dataclasses.replace(rep, blocks=(rep.blocks[0] * (1 + 1e-6),))
        assert _gns_verdicts(scaled)[1] is False

    def test_one_ulp_block_takes_the_svd(self, rep, monkeypatch):
        """With one block entry one ulp off, the product defect at the generic
        pair moves: it takes the norm kernel's eigvalsh, then the four norms of
        its terms, and the contraction takes ||z|| and ||pi(z)||.  The nudged
        E_11 stays Hermitian, so the *-defect stays exactly 0 and takes no norm,
        and each residual stays within tolerance."""
        block = rep.blocks[0].copy()
        block[0, 0, 0] = np.nextafter(block[0, 0, 0].real, 2.0)
        eigvalsh, stacks = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, **kw: stacks.append(len(a)) or eigvalsh(a, **kw))
        states._gns_residuals(rep)
        assert stacks == []
        residuals = states._gns_residuals(dataclasses.replace(rep, blocks=(block,)))
        assert stacks == [1, 4, 1, 1]
        assert 0.0 < residuals[0] and all(r <= cli.GNS_REPORT_TOL for r in residuals)

    def test_perturbed_cyclic_vector_flips_state_reproduction(self, rep):
        x = rep.cyclic_vector.copy()
        x[0] += 1e-6
        assert _gns_verdicts(dataclasses.replace(rep, cyclic_vector=x)) == [True, True, False]


class TestOneDecompositionSpectrumEquivalence:
    """spectrum takes points and eigenvectors from one eig, with the old bytes."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(77)
        upper = np.triu(rand_matrix(rng, 6))
        yield "gaussian1", rand_matrix(rng, 1)
        yield "gaussian5", rand_matrix(rng, 5)
        yield "gaussian32", rand_matrix(rng, 32)
        yield "gaussian64", rand_matrix(rng, 64)
        yield "hermitian", (lambda g: g + g.conj().T)(rand_matrix(rng, 8))
        yield "upper", upper
        yield "lower", upper.conj().T
        yield "diagonal_repeated", np.diag([1.0, 2.0, 1.0, 2.0 + 1e-9, -3.0])
        yield "jordan", np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
        yield "rotation", np.array([[0.0, -1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("field", ["complex", "real"])
    def test_report_bytes(self, tmp_path, field):
        for name, m in self._inputs():
            path = write_matrix(tmp_path / f"{name}.json", m)
            argv = ["spectrum", "--input", path, "--field", field]
            _assert_bytes_match_reference(tmp_path, argv, _reference_cmd_spectrum)


def _reference_cmd_gkz(args) -> dict:
    g = cli._square_input(cli.parse_matrix(args.input))
    n = g.shape[0]
    alg = algebra.full_matrix_algebra(n)
    values = [complex(np.trace(g @ b)) for b in alg.basis]
    phi_one = complex(np.dot(values, alg.identity_coords))
    if abs(phi_one - 1.0) > 1e-6:
        raise MalformedInput(f"gkz expects a matrix of trace 1, got phi(1) = {phi_one}")
    outcome = gelfand.gkz_witness(alg, values)
    results = {"is_character": outcome.is_character}
    residuals = {"phi_at_identity_minus_one": cli._residual(abs(phi_one - 1.0), 1e-6)}
    if outcome.witness is not None:
        results["witness"] = cli.matrix_to_json(outcome.witness.matrix)
        results["min_singular_value"] = outcome.min_singular_value
        residuals["phi_at_witness"] = cli._residual(abs(outcome.phi_at_witness), 1e-9)
    return {
        "inputs": {"input": cli.matrix_to_json(g)},
        "results": results,
        "residuals": residuals,
    }


class TestTraceValuesEquivalence:
    """gkz reads tr(g b) over the matrix units in one product, with the loop's bytes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_report_bytes(self, tmp_path, n):
        rng = np.random.default_rng([n, 7])
        general = rand_matrix(rng, n)
        general -= np.eye(n) * (np.trace(general) - 1.0) / n
        inputs = [_density(rng, n, n), _density(rng, n, 1), np.eye(n) / n, general]
        for i, g in enumerate(inputs):
            path = write_matrix(tmp_path / f"g{i}.json", g)
            for seed in (0, 33):
                argv = ["gkz", "--input", path, "--seed", str(seed)]
                _assert_bytes_match_reference(tmp_path, argv, _reference_cmd_gkz)


def _rotated_basis(alg):
    """alg with its orthonormal basis changed by a unitary seeded by its dimension."""
    u = np.linalg.qr(rand_matrix(np.random.default_rng(alg.dim), alg.dim))[0]
    return algebra.Algebra(np.tensordot(u, alg.basis, axes=1), alg.real_field)


def _assert_reports_agree(a, b, path="report"):
    """The same keys, strings, integers, booleans and list lengths, and floats
    within 1e-12 relative to max(1, |value|)."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_reports_agree(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_reports_agree(x, y, f"{path}[{i}]")
    elif isinstance(a, float):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (path, a, b)
    else:
        assert a == b, path


class TestBasisIndependentReports:
    """A report depends on the algebra, not on the orthonormal basis it was
    built in: every algebra the command line builds, put through a seeded
    unitary change of basis, gives the same integers, booleans and order, and
    values within 1e-12.  gkz is left out: its algebra is always the matrix
    units of M_n, and its witness is built from the generic coordinates of that basis.
    universal runs on M_2 only: its norming family has one state per basis
    element, so on an algebra of several blocks its hilbert_dim depends on
    the basis."""

    @staticmethod
    def _argvs(tmp_path):
        argvs = {name: [[name, *argv]] for name, argv in _seeded_argvs(tmp_path).items()}
        rng = np.random.default_rng(12)
        u = np.linalg.qr(rand_matrix(rng, 6))[0]
        doubled = (u * np.repeat([1.0, -2.0 + 1j, 0.5j], 2)) @ u.conj().T
        inputs = {
            "doubled": doubled,
            "circulant": gelfand.circulant(rng.standard_normal(8) + 1j * rng.standard_normal(8)),
        }
        for name, m in inputs.items():
            path = write_matrix(tmp_path / f"{name}.json", m)
            for command in ("characters", "gelfand"):
                argvs[command].append([command, "--input", path, "--seed", "3"])
        return argvs

    @pytest.mark.parametrize(
        "command", ["characters", "gelfand", "universal", "quotient-norm", "gns"]
    )
    def test_unitary_change_of_basis(self, tmp_path, monkeypatch, command):
        """Also the seeded samples: most values are residuals at rounding level,
        which would not show samples that move with the basis."""
        argvs = self._argvs(tmp_path)[command]
        plain = [run_to_file(tmp_path, argv) for argv in argvs]
        build, full, built = algebra.algebra_from_generators, algebra.full_matrix_algebra, []

        def rotated(alg):
            built.append((alg, _rotated_basis(alg)))
            return built[-1][1]

        monkeypatch.setattr(
            algebra, "algebra_from_generators", lambda *a, **k: rotated(build(*a, **k))
        )
        monkeypatch.setattr(algebra, "full_matrix_algebra", lambda n: rotated(full(n)))
        for argv, want in zip(argvs, plain):
            _assert_reports_agree(want, run_to_file(tmp_path, argv, "rotated.json"))
        assert len(built) == len(argvs)
        for alg, moved in built:
            want = algebra._random_matrices(alg, np.random.default_rng(7), 5)
            got = algebra._random_matrices(moved, np.random.default_rng(7), 5)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# Run in a fresh interpreter under a timeout, so that a closure that runs
# away fails the test instead of hanging the suite.
_CHARACTERS_OF_A_CIRCULANT = """
import json
import sys
import numpy as np
from cstarkit import cli, gelfand
rng = np.random.default_rng(64)
m = gelfand.circulant(rng.standard_normal(64) + 1j * rng.standard_normal(64))
with open(sys.argv[1], "w") as fh:
    json.dump(cli.matrix_to_json(m), fh)
sys.exit(cli.run(["characters", "--input", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_characters_of_a_64_circulant(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _CHARACTERS_OF_A_CIRCULANT,
         str(tmp_path / "c.json"), str(tmp_path / "out.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads((tmp_path / "out.json").read_text())["results"]
    assert results["count"] == results["algebra_dim"] == 64


# Run in a fresh interpreter, which reports its own peak resident set, VmHWM.
# Its ru_maxrss would not do: Linux carries the parent's peak over at exec, so
# a child of a large test process reads the parent's size.  A (d, n r, n r)
# representation at n = 24 would take about 6 GB.
_GNS_AT_N24 = """
import json
import re
import sys
import numpy as np
from cstarkit import cli
rng = np.random.default_rng(24)
g = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
rho = g @ g.conj().T
with open(sys.argv[1], "w") as fh:
    json.dump(cli.matrix_to_json(rho / np.trace(rho).real), fh)
code = cli.run(["gns", "--input", sys.argv[1], "--out", sys.argv[2]])
with open("/proc/self/status") as fh:
    print(re.search(r"^VmHWM:\\s*(\\d+) kB$", fh.read(), re.MULTILINE).group(1))
sys.exit(code)
"""


def test_gns_of_a_full_rank_24_density(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _GNS_AT_N24,
         str(tmp_path / "rho.json"), str(tmp_path / "out.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["results"] == {"hilbert_dim": 576, "algebra_dim": 576}
    assert int(proc.stdout) < 200 * 1024  # VmHWM is in KiB


class TestNoStructureTensor:
    """No subcommand forms the structure constants or a dense sum of several blocks."""

    def test_algebra_has_no_structure_tensor(self):
        assert not hasattr(algebra.Algebra, "structure")
        assert not hasattr(algebra.full_matrix_algebra(2), "structure")
        assert not hasattr(algebra.QuotientAlgebra, "mult_table")
        # the structure-constant builder is kept in the tests only, as a reference
        assert not hasattr(algebra, "_product_coords")

    @pytest.mark.parametrize("command", list(cli._HANDLERS))
    def test_product_coords_unused(self, tmp_path, monkeypatch, command):
        """Each subcommand applies a representation's distinct block arrays,
        here one each for gns and for universal on M_2, and none forms a full
        image with its multiplicities."""
        groups, full = [], []
        distinct_images = states.Representation._distinct_images

        def recording_distinct_images(self, coords):
            images = distinct_images(self, coords)
            groups.extend(img.shape[1] for img in images)
            return images

        monkeypatch.setattr(states.Representation, "_distinct_images", recording_distinct_images)
        monkeypatch.setattr(states.Representation, "_apply_each", lambda *a: full.append(1))
        run_to_file(tmp_path, [command, *_seeded_argvs(tmp_path)[command]])
        assert all(m == 1 for m in groups) and not full
        assert groups or command not in ("gns", "universal")


def _reference_cmd_qm(args) -> dict:
    """cmd_qm with each observable an n x n diagonal Element."""
    grid = qm.BoxGrid(length=args.length, points=args.grid)
    x = grid.positions
    xhat = algebra.Element(None, np.diag(x.astype(complex)))
    cos_diag = -2.0 * np.cos(2.0 * np.pi * x / grid.length)
    cos_obs = algebra.Element(None, np.diag(cos_diag.astype(complex)))
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
            "max_position_deviation_from_center": cli._residual(worst_pos, 1e-3),
            "max_cosine_deviation_from_closed_form": cli._residual(worst_cos, 1e-3),
            "observable_hermitian_defect": cli._residual(herm, 1e-12),
        },
    }


class TestDiagonalQmEquivalence:
    """qm holds its observables as grid values and still writes the dense path's bytes."""

    @pytest.mark.parametrize("grid", [2, 3, 40, 999, 2000])
    @pytest.mark.parametrize("length", ["1.0", "0.7", "1e-100", "1e100"])
    def test_report_bytes(self, tmp_path, grid, length):
        for levels in sorted({1, min(5, grid)}):
            argv = ["qm", "--grid", str(grid), "--levels", str(levels), "--length", length]
            _assert_bytes_match_reference(tmp_path, argv, _reference_cmd_qm)

    def test_large_grid_memory(self, capsys):
        """A dense n x n observable at n = 200000 would take 640 GB."""
        tracemalloc.start()
        try:
            code = cli.run(["qm", "--grid", "200000", "--levels", "2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["results"]["levels"]) == 2
        assert peak < 40e6

    def test_levels_above_grid_fail_before_any_level(self, monkeypatch, capsys):
        calls = []
        eigenstate = qm.box_eigenstate

        def counting(grid, n):
            calls.append(n)
            return eigenstate(grid, n)

        monkeypatch.setattr(qm, "box_eigenstate", counting)
        assert cli.run(["qm", "--grid", "2000", "--levels", "2001"]) == 1
        assert "LevelOutOfRange" in capsys.readouterr().err
        assert calls == []


class TestAbelianEdgeInputs:
    """characters and gelfand on a 1 x 1 input, a scalar 16 x 16 matrix (every
    sample scalar) and zero matrices: exit 0, one character, every residual
    within its tolerance."""

    @pytest.mark.parametrize(
        "m",
        [np.array([[2.0 - 1.0j]]), (0.5 + 2.0j) * np.eye(16), np.zeros((1, 1)), np.zeros((5, 5))],
        ids=["n1", "scalar16", "zero1", "zero5"],
    )
    @pytest.mark.parametrize("command", ["characters", "gelfand"])
    def test_exits_zero_within_tolerance(self, tmp_path, command, m):
        path = write_matrix(tmp_path / "m.json", m)
        report = run_to_file(tmp_path, [command, "--input", path, "--seed", "3"])
        results = report["results"]
        assert results["algebra_dim"] == 1
        if command == "characters":
            assert results["count"] == 1
        else:
            assert results["samples"] == 20
            assert results["star_closed"] and not results["kernel_detected"]
        for residual in report["residuals"].values():
            assert residual["value"] <= residual["tolerance"]
