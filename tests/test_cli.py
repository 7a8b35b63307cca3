import json

import numpy as np
import pytest

from qig import cli, io
from qig.harness import SuiteReport
from qig.reverse import ORACLE_GAP_TOL


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def bloch_spec(tmp_path):
    return write_json(tmp_path / "bloch.json", {"kind": "bloch_rotation", "r": 0.8, "theta": [0.0]})


@pytest.fixture
def explicit_spec(tmp_path):
    return write_json(
        tmp_path / "explicit.json",
        {
            "kind": "explicit",
            "rho": [[0.9, 0.0], [0.0, 0.1]],
            "tangents": [[[0.0, [0.5, 0.0]], [[0.5, 0.0], 0.0]]],
            "theta": [0.0],
        },
    )


@pytest.fixture
def qubit_pair(tmp_path):
    rho = write_json(tmp_path / "rho.json", {"rho": [[0.7, 0.1], [0.1, 0.3]]})
    sigma = write_json(tmp_path / "sigma.json", {"rho": [[0.5, 0.0], [0.0, 0.5]]})
    return rho, sigma


class TestFisherCommand:
    def test_bloch_values(self, bloch_spec, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["fisher", "--family", bloch_spec, "--theta", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["sld_fisher"]["real_part"][0][0] == pytest.approx(0.64, abs=1e-8)
        assert doc["results"]["rld_fisher"]["real_part"][0][0] == pytest.approx(
            16.0 / 9.0, abs=1e-8
        )
        assert "tolerances" in doc["results"]
        assert doc["version"]

    def test_spec_digest_roundtrip(self, explicit_spec, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["fisher", "--family", explicit_spec, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        echo_file = tmp_path / "echo.json"
        echo_file.write_text(json.dumps(doc["spec_echo"]))
        reparsed = io.load_family_spec(str(echo_file))
        assert io.spec_digest(reparsed) == doc["input_digest"]

    def test_determinism(self, bloch_spec, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            cli.main(["fisher", "--family", bloch_spec, "--seed", "3", "--out", str(out)])
            outs.append(json.loads(out.read_text())["results"])
        assert outs[0] == outs[1]


class TestReverseAndGlobal:
    def test_reverse_gap(self, bloch_spec, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["reverse", "--family", bloch_spec, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["results"]["gap"]) <= 1e-8
        assert doc["results"]["input_fisher"] == pytest.approx(16.0 / 9.0, abs=1e-8)

    def test_global_fixed_basis(self, tmp_path):
        grid = np.linspace(0.2, 0.8, 4)
        spec = write_json(
            tmp_path / "grid.json",
            {
                "kind": "fixed_basis",
                "prob_table": np.stack([grid, 1 - grid], axis=1).tolist(),
                "theta_grid": grid.tolist(),
            },
        )
        out = tmp_path / "g.json"
        assert cli.main(["global", "--family", spec, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["estimable"]
        for row in doc["results"]["per_point"]:
            assert row["input_fisher"] == pytest.approx(row["rld_fisher"], rel=1e-7)


class TestDivergenceCommand:
    def test_equal_states_all_zero(self, qubit_pair, tmp_path):
        rho, _ = qubit_pair
        out = tmp_path / "d.json"
        assert cli.main(["divergence", "--rho", rho, "--sigma", rho, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        for key in ("umegaki", "rld_closed", "rld_integral", "two_point_kl"):
            assert abs(res[key]) <= 1e-9

    def test_report_fields(self, qubit_pair, tmp_path):
        rho, sigma = qubit_pair
        out = tmp_path / "d.json"
        assert cli.main(
            ["divergence", "--rho", rho, "--sigma", sigma, "--steps", "2000", "--out", str(out)]
        ) == 0
        res = json.loads(out.read_text())["results"]
        assert set(res) >= {"umegaki", "rld_closed", "rld_integral", "steps", "two_point_kl"}
        assert res["rld_integral"] == pytest.approx(res["rld_closed"], abs=1e-5)
        assert res["integral_minus_closed"] == res["rld_integral"] - res["rld_closed"]
        assert abs(res["integral_minus_closed"]) <= res["tolerances"]["integral_vs_closed"]
        assert res["two_point_kl"] == pytest.approx(res["rld_closed"], abs=1e-9)


class TestBoundAndGaussian:
    def test_bound_oracle_agreement(self, tmp_path):
        spec = write_json(
            tmp_path / "twopar.json",
            {
                "kind": "explicit",
                "rho": [[0.6, 0.0], [0.0, 0.4]],
                "tangents": [
                    [[0.0, 0.25], [0.25, 0.0]],
                    [[0.0, [0.0, -0.25]], [[0.0, 0.25], 0.0]],
                ],
                "theta": [0.0, 0.0],
            },
        )
        out = tmp_path / "b.json"
        assert cli.main(["bound", "--family", spec, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["reverse_bound"] >= res["estimation_bound"]
        assert res["oracle_relative_difference"] <= 1e-3
        assert "oracle_converged" not in res
        assert res["oracle_dual"] <= res["reverse_bound"] <= res["oracle_value"]
        assert res["oracle_gap"] == res["oracle_value"] - res["oracle_dual"]
        assert res["tolerances"]["oracle_gap"] == ORACLE_GAP_TOL
        assert res["oracle_gap"] <= ORACLE_GAP_TOL * max(1.0, abs(res["oracle_value"]))

    def test_bound_singular_weight_keeps_bounds(self, tmp_path):
        # G = v v^T on m = 3: the minimum is not attained and the oracle
        # cannot certify it; the bounds are still printed and reported
        spec = write_json(
            tmp_path / "threepar.json",
            {
                "kind": "explicit",
                "rho": [[0.6, 0.0], [0.0, 0.4]],
                "tangents": [
                    [[0.0, 0.25], [0.25, 0.0]],
                    [[0.0, [0.0, -0.25]], [[0.0, 0.25], 0.0]],
                    [[0.25, 0.0], [0.0, -0.25]],
                ],
                "theta": [0.0, 0.0, 0.0],
            },
        )
        weight = write_json(tmp_path / "rank1.json", {"weight": np.ones((3, 3)).tolist()})
        out = tmp_path / "b.json"
        assert cli.main(["bound", "--family", spec, "--weight", weight, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["reverse_bound"] == pytest.approx(0.78125, abs=1e-12)
        assert res["reverse_bound"] >= res["estimation_bound"]
        assert res["oracle_error"].startswith("min-trace oracle: gap")
        assert not {"oracle_value", "oracle_dual", "oracle_gap"} & set(res)

    def test_gaussian_passes(self, tmp_path):
        out = tmp_path / "g.json"
        assert cli.main(
            ["gaussian", "--sigma2", "1", "--hbar", "1", "--truncation", "60", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["passed"]
        assert "alpha" in doc["results"]["details"]["convention"]


class TestExitCodesAndSeeds:
    def test_missing_file_is_input_error(self, capsys):
        assert cli.main(["fisher", "--family", "/nonexistent.json"]) == 1

    def test_malformed_spec_is_input_error(self, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"rho": [[1.0]]})  # no kind
        assert cli.main(["fisher", "--family", bad]) == 1

    def test_bad_matrix_entry_is_input_error(self, tmp_path):
        bad = write_json(
            tmp_path / "bad.json",
            {"kind": "explicit", "rho": [["x", 0.0], [0.0, 1.0]], "tangents": []},
        )
        assert cli.main(["fisher", "--family", bad]) == 1

    def test_suite_violation_exit_2(self, tmp_path, monkeypatch):
        failing = SuiteReport("monotone_metric", 0, 1, {}, [(0, "check", -1.0)], False)

        monkeypatch.setattr(cli, "monotone_metric_suite", lambda *a, **k: failing)
        monkeypatch.setattr(
            cli, "monotone_divergence_suite",
            lambda *a, **k: SuiteReport("monotone_divergence", 0, 1, {}, [], True),
        )
        monkeypatch.chdir(tmp_path)
        assert cli.main(["monotone", "--trials", "1"]) == 2

    def test_monotone_small_run_passes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["monotone", "--trials", "3", "--dims", "2", "--seed", "5"]) == 0

    def test_vacuous_monotone_run_is_input_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["monotone", "--trials", "0"]) == 1
        assert "trials" in capsys.readouterr().err
        assert cli.main(["monotone", "--trials", "3", "--dims", "1"]) == 1
        assert "dim" in capsys.readouterr().err

    def test_env_seed_overrides_flag(self, bloch_spec, tmp_path, monkeypatch):
        monkeypatch.setenv("QIG_SEED", "777")
        out = tmp_path / "r.json"
        cli.main(["fisher", "--family", bloch_spec, "--seed", "3", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 777

    def test_sidecar_report_path(self, bloch_spec, capsys):
        assert cli.main(["fisher", "--family", bloch_spec]) == 0
        sidecar = bloch_spec.replace(".json", ".report.json")
        assert json.loads(open(sidecar).read())["results"]


class TestSpecErrors:
    """Spec files the builders cannot honour exit 1 with a message naming the field or kind."""

    @pytest.fixture
    def grid_spec(self, tmp_path):
        grid = np.linspace(0.2, 0.8, 3)
        return write_json(tmp_path / "grid.json", {
            "kind": "fixed_basis",
            "prob_table": np.stack([grid, 1 - grid], axis=1).tolist(),
            "theta_grid": grid.tolist(),
        })

    def _fails(self, argv, capsys, *words):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(w in err for w in words), err

    def test_reverse_on_grid(self, grid_spec, capsys):
        self._fails(["reverse", "--family", grid_spec], capsys, "fixed_basis")

    def test_fisher_on_grid(self, grid_spec, capsys):
        self._fails(["fisher", "--family", grid_spec], capsys, "fixed_basis")

    def test_bound_on_grid(self, grid_spec, capsys):
        self._fails(["bound", "--family", grid_spec], capsys, "fixed_basis")

    def test_global_on_point(self, bloch_spec, capsys):
        self._fails(["global", "--family", bloch_spec], capsys, "bloch_rotation")

    def test_missing_required_field(self, tmp_path, capsys):
        spec = write_json(tmp_path / "b.json", {"kind": "bloch_rotation", "theta": [0.0]})
        self._fails(["fisher", "--family", spec], capsys, "'r'", "bloch_rotation")

    def test_surplus_theta_component(self, bloch_spec, tmp_path, capsys):
        spec = write_json(tmp_path / "b.json", {"kind": "bloch_rotation", "r": 0.5, "theta": [0.1, 0.2]})
        self._fails(["fisher", "--family", spec], capsys, "theta", "2 components")
        self._fails(["reverse", "--family", bloch_spec, "--theta", "0.1,0.2"], capsys, "theta")

    def test_multiparameter_km_reported(self, tmp_path):
        spec = write_json(tmp_path / "e.json", {
            "kind": "explicit",
            "rho": [[0.7, 0.1], [0.1, 0.3]],
            "tangents": [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.2], [0.2, 0.0]]],
        })
        out = tmp_path / "r.json"
        assert cli.main(["fisher", "--family", spec, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        km = np.array(res["km_fisher"]["real_part"])
        assert km.shape == (2, 2)
        assert np.all(np.diag(km) >= np.diag(np.array(res["sld_fisher"]["real_part"])) - 1e-12)
