"""CLI: JSON round-trips, subcommand reports, exit codes, determinism."""

import json

import numpy as np
import pytest

from conftest import rand_matrix
from cstarkit import cli


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
        assert report["results"]["algebra_dim"] == 4
        assert report["residuals"]["max_isometry_residual"]["value"] <= 1e-7

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

    def test_stdout_emission(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "a.json", np.eye(2))
        rc = cli.run(["spectrum", "--input", path])
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["command"] == "spectrum"
