import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qig import cli, divergence, fisher, harness, io, linalg, reverse
from qig.errors import SpecFileError
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
def complex16_spec(tmp_path):
    """Seeded d = 16 state and tangent, every entry a [re, im] pair."""
    rng = np.random.default_rng(16)
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    x = g + g.conj().T
    x -= np.trace(x) / 16 * np.eye(16)
    pairs = [np.stack([m.real, m.imag], -1).tolist() for m in (rho, x)]
    return write_json(tmp_path / "c16.json", {"kind": "explicit", "rho": pairs[0], "tangents": [pairs[1]]})


@pytest.fixture
def grid_spec(tmp_path):
    """Three-point commuting qubit grid, kind fixed_basis."""
    grid = np.linspace(0.2, 0.8, 3)
    return write_json(tmp_path / "grid.json", {
        "kind": "fixed_basis",
        "prob_table": np.stack([grid, 1 - grid], axis=1).tolist(),
        "theta_grid": grid.tolist(),
    })


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

    @pytest.mark.parametrize("spec, digest", [
        ("explicit_spec", "0588e216ae7bf540f73cf2a8fa43ab31580a68d83d989c842486ec027dbb523d"),
        ("complex16_spec", "cdbb48a6fc9e43d2fe124f7f6b44ff8f3a180dab51f4073934bda74fbdbbdcfc"),
    ])
    def test_input_digest_pinned(self, spec, digest, tmp_path, request):
        out = tmp_path / "report.json"
        assert cli.main(["fisher", "--family", request.getfixturevalue(spec), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["input_digest"] == digest
        assert io.spec_digest(doc["spec_echo"]) == digest

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

    def test_global_computes_each_rld_once(self, grid_spec, tmp_path, monkeypatch):
        calls = []
        real = fisher.rld

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fisher, "rld", counted)
        monkeypatch.setattr(reverse, "rld", counted)
        assert cli.main(["global", "--family", grid_spec, "--out", str(tmp_path / "g.json")]) == 0
        assert len(calls) == 3


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
        assert res["evaluations"] == 2001
        assert [c["name"] for c in res["checks"]] == ["integral_vs_closed", "two_point_equality"]
        for c in res["checks"]:
            assert c["passed"] and c["margin"] == c["tolerance"] - c["value"] >= 0
            assert c["tolerance"] == res["tolerances"][c["name"]]

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_is_input_error(self, qubit_pair, capsys, steps):
        rho, sigma = qubit_pair
        assert cli.main(["divergence", "--rho", rho, "--sigma", sigma, "--steps", steps]) == 1
        assert "steps" in capsys.readouterr().err

    def test_tolerances_read_enforced_constants(self, qubit_pair, tmp_path, monkeypatch):
        rho, sigma = qubit_pair
        out = tmp_path / "d.json"
        argv = ["divergence", "--rho", rho, "--sigma", sigma, "--steps", "500", "--out", str(out)]
        monkeypatch.setattr(divergence, "INTEGRAL_TOL", 2.5e-4)
        monkeypatch.setattr(divergence, "TWO_POINT_TOL", 3.5e-9)
        assert cli.main(argv) == 0
        res = json.loads(out.read_text())["results"]
        assert res["tolerances"] == {"integral_vs_closed": 2.5e-4, "two_point_equality": 3.5e-9}
        assert [c["tolerance"] for c in res["checks"]] == [2.5e-4, 3.5e-9]

    def test_failed_check_exits_2(self, qubit_pair, tmp_path, monkeypatch):
        rho, sigma = qubit_pair
        out = tmp_path / "d.json"
        monkeypatch.setattr(cli, "rld_divergence_integral", lambda r, s, steps: divergence.rld_divergence(r, s) + 1e-3)
        assert cli.main(["divergence", "--rho", rho, "--sigma", sigma, "--out", str(out)]) == 2
        integral, two_point = json.loads(out.read_text())["results"]["checks"]
        assert not integral["passed"] and integral["margin"] < 0
        assert integral["value"] == pytest.approx(1e-3)
        assert two_point["passed"]

    @pytest.mark.parametrize("rho, sigma, expect", [
        ([[1, 0], [0, 0]], [[1, 0], [0, 0]], 0.0),
        (np.diag([0.5, 0.5, 0.0]).tolist(), np.diag([0.3, 0.7, 0.0]).tolist(), "finite"),
        ([[0.7, 0.1], [0.1, 0.3]], [[1, 0], [0, 0]], math.inf),
    ], ids=["equal_pure", "common_support", "off_support"])
    def test_rank_deficient_sigma_skips_two_point(self, rho, sigma, expect, tmp_path):
        out = tmp_path / "d.json"
        argv = ["divergence", "--rho", write_json(tmp_path / "r.json", rho),
                "--sigma", write_json(tmp_path / "s.json", sigma), "--out", str(out)]
        assert cli.main(argv) == 0
        res = json.loads(out.read_text())["results"]
        values = [res[k] for k in ("umegaki", "rld_closed", "rld_integral")]
        if expect == "finite":
            assert all(math.isfinite(v) for v in values)
        else:
            assert values == pytest.approx([expect] * 3, abs=1e-12)
        integral, two_point = res["checks"]
        assert integral["passed"] and integral["margin"] >= 0
        assert two_point["passed"] is None and "full-rank" in two_point["skipped"]
        assert res["two_point_kl"] is None


class TestBoundAndGaussian:
    @pytest.fixture
    def twopar_spec(self, tmp_path):
        return write_json(
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

    def test_bound_oracle_agreement(self, twopar_spec, tmp_path):
        out = tmp_path / "b.json"
        assert cli.main(["bound", "--family", twopar_spec, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["reverse_bound"] >= res["estimation_bound"]
        assert res["oracle_relative_difference"] <= 1e-3
        assert "oracle_converged" not in res and res["oracle_attained"] is True
        assert res["oracle_dual"] <= res["reverse_bound"] <= res["oracle_value"]
        assert res["oracle_gap"] == res["oracle_value"] - res["oracle_dual"]
        assert res["tolerances"]["oracle_gap"] == ORACLE_GAP_TOL
        assert res["oracle_gap"] <= ORACLE_GAP_TOL * max(1.0, abs(res["oracle_value"]))
        (check,) = res["checks"]
        assert check["name"] == "oracle_vs_closed" and check["passed"]
        assert check["value"] == res["oracle_relative_difference"]
        assert check["margin"] == check["tolerance"] - check["value"] >= 0
        assert check["tolerance"] == res["tolerances"]["oracle_relative"] == reverse.ORACLE_REL_TOL

    def test_bound_tolerance_reads_enforced_constant(self, twopar_spec, tmp_path, monkeypatch):
        out = tmp_path / "b.json"
        monkeypatch.setattr(reverse, "ORACLE_REL_TOL", 2.5e-4)
        assert cli.main(["bound", "--family", twopar_spec, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["tolerances"]["oracle_relative"] == res["checks"][0]["tolerance"] == 2.5e-4

    def test_bound_failed_check_exits_2(self, twopar_spec, tmp_path, monkeypatch):
        out = tmp_path / "b.json"

        def corrupted(jr, g):
            mb = reverse.multiparam_bounds(jr, g)
            return reverse.MultiparamBounds(1.01 * mb.reverse, mb.estimation)

        monkeypatch.setattr(cli, "multiparam_bounds", corrupted)
        assert cli.main(["bound", "--family", twopar_spec, "--out", str(out)]) == 2
        (check,) = json.loads(out.read_text())["results"]["checks"]
        assert not check["passed"] and check["margin"] < 0
        assert check["value"] == pytest.approx(0.01 / 1.01, rel=1e-6)

    def test_bound_singular_weight_keeps_bounds(self, tmp_path):
        # G = v v^T on m = 3: the minimum is not attained, yet the certificate brackets it
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
        assert res["oracle_dual"] <= res["reverse_bound"] <= res["oracle_value"]
        assert res["oracle_gap"] <= ORACLE_GAP_TOL * max(1.0, abs(res["oracle_value"]))
        assert res["oracle_attained"] is False
        (check,) = res["checks"]
        assert check["name"] == "oracle_vs_closed" and check["passed"]

    def test_bound_scaled_spabs_exits_2(self, twopar_spec, tmp_path, monkeypatch):
        # the certificate does not call spabs: a closed form 1 % off its Spabs term fails the check
        out = tmp_path / "b.json"
        spabs = linalg.spabs
        for module in (linalg, reverse):
            monkeypatch.setattr(module, "spabs", lambda g, k: 1.01 * spabs(g, k))
        assert cli.main(["bound", "--family", twopar_spec, "--out", str(out)]) == 2
        res = json.loads(out.read_text())["results"]
        assert not res["oracle_dual"] <= res["reverse_bound"] <= res["oracle_value"]
        assert res["checks"][0]["margin"] < 0

    def test_bound_complex_weight_refused(self, twopar_spec, tmp_path, capsys):
        # the Hermitian weight [[1, 0.5i], [-0.5i, 1]] used to run as G = I
        weight = write_json(tmp_path / "w.json", {"weight": [[1.0, [0.0, 0.5]], [[0.0, -0.5], 1.0]]})
        args = cli.build_parser().parse_args(["bound", "--family", twopar_spec, "--weight", weight])
        with pytest.raises(SpecFileError, match="'weight' has a nonzero imaginary part"):
            cli._cmd_bound(args)
        out = tmp_path / "b.json"
        assert cli.main(["bound", "--family", twopar_spec, "--weight", weight, "--out", str(out)]) == 1
        assert "'weight'" in capsys.readouterr().err and not out.exists()

    def test_bound_real_weight_as_pairs_accepted(self, twopar_spec, tmp_path):
        weight = write_json(tmp_path / "w.json", {"weight": [[[2.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]})
        out = tmp_path / "b.json"
        assert cli.main(["bound", "--family", twopar_spec, "--weight", weight, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["weight"] == [[2.0, 0.5], [0.5, 1.0]]

    def test_gaussian_passes(self, tmp_path):
        out = tmp_path / "g.json"
        assert cli.main(
            ["gaussian", "--sigma2", "1", "--hbar", "1", "--truncation", "60", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["passed"]
        assert "alpha" in doc["results"]["details"]["convention"]

    def test_gaussian_large_truncation_passes(self, tmp_path):
        # sigma^2 = 2, hbar = 0.5, N = 120: the cut state's smallest eigenvalue is 4.6e-13
        out = tmp_path / "g.json"
        argv = ["gaussian", "--sigma2", "2", "--hbar", "0.5", "--truncation", "120", "--out", str(out)]
        assert cli.main(argv) == 0
        d = json.loads(out.read_text())["results"]["details"]
        assert d["leakage"] == pytest.approx(0.8 ** 121, rel=1e-6)
        assert d["spec"] == {"sigma2": 2.0, "hbar": 0.5, "truncation": 120, "theta": [0.0, 0.0]}
        assert d["max_relative_entry_error"] <= d["tolerances"]["entrywise_relative"] <= 1e-9

    def test_gaussian_scaled_rld_fails(self, tmp_path, monkeypatch):
        # a J^R off by 0.1 % must fail the derived gate (the old 1e-2 tolerance let it pass)
        def scaled(point):
            jr = fisher.rld_fisher(point)
            return fisher.QFisherMatrix(jr.m, 1.001 * jr.real_part, 1.001 * jr.imag_part, "RLD")

        monkeypatch.setattr(harness, "rld_fisher", scaled)
        out = tmp_path / "g.json"
        assert cli.main(["gaussian", "--out", str(out)]) == 2
        doc = json.loads(out.read_text())["results"]
        assert not doc["passed"]
        assert {v[1] for v in doc["violations"]} == {"entrywise_relative", "reverse_bound"}


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

    def test_boolean_matrix_entries_refused(self, tmp_path, capsys):
        # numpy reads a float/bool mix as floats: this ran as J = 4 and echoed the booleans as numbers
        spec = write_json(tmp_path / "bools.json", {
            "kind": "explicit", "rho": [[0.5, False], [False, 0.5]],
            "tangents": [[[True, 0.0], [0.0, -1.0]]],
        })
        out = tmp_path / "r.json"
        assert cli.main(["fisher", "--family", spec, "--out", str(out)]) == 1
        assert "field 'rho': cannot decode matrix entry False" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_slack_fails_the_suite(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "umegaki", lambda rho, sigma: np.full(len(rho.mat), np.nan))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["monotone", "--trials", "5"]) == 2
        assert "pass False" in capsys.readouterr().out

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

    def test_report_records_parsed_argv(self, bloch_spec, tmp_path):
        out = tmp_path / "r.json"
        argv = ["fisher", "--family", bloch_spec, "--seed", "3", "--out", str(out)]
        assert cli.main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == argv and doc["seed"] == 3

    def test_fisher_psd_slack_reads_enforced_constant(self, bloch_spec, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        assert cli.main(["fisher", "--family", bloch_spec, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["tolerances"]["psd_slack"] == fisher.RLD_PSD_TOL
        monkeypatch.setattr(fisher, "RLD_PSD_TOL", 3.5e-9)
        assert cli.main(["fisher", "--family", bloch_spec, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["tolerances"]["psd_slack"] == 3.5e-9

    def test_reverse_residual_cap_reads_enforced_constant(self, bloch_spec, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        argv = ["reverse", "--family", bloch_spec, "--out", str(out)]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["results"]["tolerances"]["residual_cap"] == reverse.RESIDUAL_CAP
        monkeypatch.setattr(reverse, "RESIDUAL_CAP", 2.5e-6)
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["results"]["tolerances"]["residual_cap"] == 2.5e-6
        monkeypatch.setattr(reverse, "RESIDUAL_CAP", -1.0)  # enforced: every candidate is refused
        assert cli.main(argv) == 1

    def test_global_commutation_tol_reads_enforced_constant(self, tmp_path, monkeypatch):
        grid = np.linspace(0.2, 0.8, 3)
        spec = write_json(tmp_path / "grid.json", {
            "kind": "fixed_basis", "prob_table": np.stack([grid, 1 - grid], axis=1).tolist(),
            "theta_grid": grid.tolist(),
        })
        out = tmp_path / "g.json"
        argv = ["global", "--family", spec, "--out", str(out)]
        assert cli.main(argv) == 0
        res = json.loads(out.read_text())["results"]
        assert res["tolerances"]["commutation"] == reverse.COMMUTATION_TOL and res["estimable"]
        monkeypatch.setattr(reverse, "COMMUTATION_TOL", 2.5e-9)
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["results"]["tolerances"]["commutation"] == 2.5e-9
        monkeypatch.setattr(reverse, "COMMUTATION_TOL", -1.0)  # enforced: every grid is refused
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["results"]["estimable"] is False

    def test_reverse_and_global_report_only_enforced_tolerances(self, bloch_spec, grid_spec, tmp_path):
        out = tmp_path / "r.json"
        for argv, want in ((["reverse", "--family", bloch_spec], {"residual_cap": reverse.RESIDUAL_CAP}),
                           (["global", "--family", grid_spec], {"commutation": reverse.COMMUTATION_TOL})):
            assert cli.main(argv + ["--out", str(out)]) == 0
            assert json.loads(out.read_text())["results"]["tolerances"] == want

    def test_monotone_slack_reads_enforced_constant(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        argv = ["monotone", "--trials", "2", "--dims", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["results"]["tolerances"]["slack"] == harness.METRIC_SLACK_TOL
        monkeypatch.setattr(harness, "METRIC_SLACK_TOL", 2.5e-7)
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["results"]["tolerances"]["slack"] == 2.5e-7

    def test_sidecar_report_path(self, bloch_spec, capsys):
        assert cli.main(["fisher", "--family", bloch_spec]) == 0
        sidecar = bloch_spec.replace(".json", ".report.json")
        assert json.loads(Path(sidecar).read_text())["results"]

    def test_divergence_sidecar_next_to_rho(self, qubit_pair, tmp_path, monkeypatch):
        rho, sigma = qubit_pair
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert cli.main(["divergence", "--rho", rho, "--sigma", sigma, "--steps", "50"]) == 0
        assert json.loads((tmp_path / "rho.report.json").read_text())["results"]["steps"] == 50
        assert not (tmp_path / "sigma.report.json").exists() and not any((tmp_path / "cwd").iterdir())

    @pytest.mark.parametrize("argv", [
        ["monotone", "--trials", "2", "--dims", "2"],
        ["gaussian", "--truncation", "40"],
    ])
    def test_report_in_working_directory(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 0
        assert json.loads((tmp_path / f"qig_{argv[0]}.report.json").read_text())["command"] == argv

    @pytest.mark.parametrize("cmd", ["fisher", "divergence", "monotone", "gaussian"])
    def test_out_wins(self, cmd, bloch_spec, qubit_pair, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "sub" / "r.json"
        out.parent.mkdir()
        argv = {
            "fisher": ["fisher", "--family", bloch_spec],
            "divergence": ["divergence", "--rho", qubit_pair[0], "--sigma", qubit_pair[1], "--steps", "50"],
            "monotone": ["monotone", "--trials", "2", "--dims", "2"],
            "gaussian": ["gaussian", "--truncation", "40"],
        }[cmd] + ["--out", str(out)]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["command"] == argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bloch.json", "rho.json", "sigma.json", "sub"]


class TestSpecErrors:
    """Spec files the builders cannot honour exit 1 with a message naming the field or kind."""

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

    def test_theta_refused_on_grid(self, grid_spec, tmp_path, capsys):
        # the grid gives every point's theta, so a theta from --theta or the spec would be echoed but never used
        self._fails(["global", "--family", grid_spec, "--theta", "3"], capsys, "fixed_basis", "'theta'", "'theta_grid'")
        spec = write_json(tmp_path / "t.json", {**json.loads((tmp_path / "grid.json").read_text()), "theta": [3.0]})
        self._fails(["global", "--family", spec], capsys, "fixed_basis", "'theta'", "'theta_grid'")

    def test_missing_required_field(self, tmp_path, capsys):
        spec = write_json(tmp_path / "b.json", {"kind": "bloch_rotation", "theta": [0.0]})
        self._fails(["fisher", "--family", spec], capsys, "'r'", "bloch_rotation")

    def test_surplus_theta_component(self, bloch_spec, tmp_path, capsys):
        spec = write_json(tmp_path / "b.json", {"kind": "bloch_rotation", "r": 0.5, "theta": [0.1, 0.2]})
        self._fails(["fisher", "--family", spec], capsys, "theta", "2 components")
        self._fails(["reverse", "--family", bloch_spec, "--theta", "0.1,0.2"], capsys, "theta")

    @pytest.mark.parametrize("cmd, spec, name", [
        ("fisher", {"kind": "bloch_rotation", "r": "x"}, "r"),
        ("fisher", {"kind": "explicit", "rho": [[0.9, 0.0], [0.0, 0.1]],
                    "tangents": [[[0.0, 0.5], [0.5, 0.0]]], "theta": ["a"]}, "theta"),
        ("global", {"kind": "fixed_basis", "prob_table": "x", "theta_grid": [0.2, 0.8]}, "prob_table"),
    ])
    def test_wrong_field_type_named(self, cmd, spec, name, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", spec)
        self._fails([cmd, "--family", path], capsys, spec["kind"], repr(name))

    @pytest.mark.parametrize("spec, name", [
        ({"kind": "explicit", "rho": [[0.5, 0], [0, "x"]], "tangents": [[[0.0, 0.5], [0.5, 0.0]]]}, "rho"),
        ({"kind": "explicit", "rho": [[0.5, 0], [0, 0.5]], "tangents": [[[0.0, 0.5], [0.5, 0.0]], [[0, None], [1, 0]]]},
         "tangents[1]"),
        ({"kind": "explicit", "rho": "x", "tangents": []}, "rho"),
        ({"kind": "fixed_basis", "basis": [[1, 0], [0, [1, 2, 3]]], "prob_table": [[0.5, 0.5]],
          "theta_grid": [0.0]}, "basis"),
    ])
    def test_undecodable_matrix_named(self, spec, name, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", spec)
        cmd = "global" if spec["kind"] == "fixed_basis" else "fisher"
        self._fails([cmd, "--family", path], capsys, spec["kind"], f"field {name!r}", "cannot decode matrix")

    @pytest.mark.parametrize("step", ["x", 0.0, [1e-4]])
    def test_bad_derivative_step_named(self, step, tmp_path, capsys):
        spec = write_json(tmp_path / "b.json", {
            "kind": "bloch_rotation", "r": 0.5, "derivative": {"mode": "finite_difference", "step": step},
        })
        self._fails(["fisher", "--family", spec], capsys, "bloch_rotation", "'derivative.step'")

    @pytest.mark.parametrize("deriv, name", [
        ({"mode": "finite_difference"}, "'derivative.step'"),
        ({"mode": "finite_diference", "step": 0.3}, "'derivative.mode'"),
    ])
    def test_derivative_never_falls_back_to_analytic(self, deriv, name, tmp_path, capsys):
        spec = write_json(tmp_path / "b.json", {"kind": "bloch_rotation", "r": 0.5, "theta": [0.3], "derivative": deriv})
        self._fails(["fisher", "--family", spec], capsys, "bloch_rotation", name)

    @pytest.mark.parametrize("cmd, spec", [
        ("fisher", {"kind": "explicit", "rho": [[0.9, 0.0], [0.0, 0.1]], "tangents": [[[0.0, 0.5], [0.5, 0.0]]]}),
        ("bound", {"kind": "gaussian", "truncation": 20}),
        ("fisher", {"kind": "classical_simplex", "probs": [0.4, 0.6], "scores": [[1.0, -1.0]]}),
        ("global", {"kind": "fixed_basis", "prob_table": [[0.3, 0.7], [0.6, 0.4]], "theta_grid": [0.0, 1.0]}),
    ])
    @pytest.mark.parametrize("deriv", [{"mode": "finite_difference", "step": 0.5}, {"mode": "analytic"}])
    def test_derivative_refused_where_ignored(self, cmd, spec, deriv, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", {**spec, "derivative": deriv})
        self._fails([cmd, "--family", path], capsys, spec["kind"], "'derivative'", "bloch_rotation")

    @pytest.mark.parametrize("obj", [5, None, ["kind"]])
    def test_non_object_spec_refused(self, obj, tmp_path, capsys):
        spec = write_json(tmp_path / "s.json", obj)
        self._fails(["fisher", "--family", spec], capsys, "expected a JSON object")

    def test_tangent_trace_named(self, tmp_path, capsys):
        spec = write_json(tmp_path / "e.json", {
            "kind": "explicit", "rho": [[0.9, 0.0], [0.0, 0.1]], "tangents": [[[0.5, 0.0], [0.0, -0.499999]]],
        })
        self._fails(["fisher", "--family", spec], capsys, "tangent trace 1.000e-06")

    def test_classical_simplex_scores_are_dp(self, tmp_path):
        # J = sum_x (d p_x)^2 / p_x = 0.01/0.2 + 0.09/0.3 + 0.04/0.5 for every metric on a classical family
        spec = write_json(tmp_path / "c.json", {
            "kind": "classical_simplex", "probs": [0.2, 0.3, 0.5], "scores": [[0.1, -0.3, 0.2]],
        })
        out = tmp_path / "r.json"
        assert cli.main(["fisher", "--family", spec, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        for kind in ("sld_fisher", "km_fisher", "rld_fisher"):
            assert res[kind]["real_part"] == [[pytest.approx(0.43, abs=1e-12)]]

    def test_classical_simplex_log_derivative_scores_refused(self, tmp_path, capsys):
        spec = write_json(tmp_path / "c.json", {"kind": "classical_simplex", "probs": [0.2, 0.8], "scores": [[4, -1]]})
        self._fails(["fisher", "--family", spec], capsys, "score rows must sum to 0, got [3.]")

    def test_gaussian_spec_kind(self, tmp_path, capsys):
        spec = write_json(tmp_path / "g.json", {"kind": "gaussian", "truncation": 40})
        out = tmp_path / "r.json"
        assert cli.main(["bound", "--family", spec, "--out", str(out)]) == 0
        (check,) = json.loads(out.read_text())["results"]["checks"]
        assert check["name"] == "oracle_vs_closed" and check["passed"]
        # the truncated state has eigenvalues below the support cutoff, so no SLD; m = 2, so no LRE
        self._fails(["fisher", "--family", spec], capsys, "state is rank deficient")
        self._fails(["reverse", "--family", spec], capsys, "1-dim families")

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


class TestSpecFuzz:
    """Seeded mutations of valid specs: every command exits 0, 1 or 2, never with a traceback."""

    BASES = [
        {
            "kind": "explicit",
            "rho": [[0.7, [0.1, 0.05]], [[0.1, -0.05], 0.3]],
            "tangents": [[[0.5, [0.0, 0.2]], [[0.0, -0.2], -0.5]]],
            "theta": [0.0],
        },
        {"kind": "bloch_rotation", "r": 0.6, "theta": [0.2],
         "derivative": {"mode": "finite_difference", "step": 1e-4}},
        {
            "kind": "fixed_basis",
            "basis": [[0.6, 0.8], [0.8, -0.6]],
            "prob_table": [[0.3, 0.7], [0.5, 0.5], [0.6, 0.4]],
            "theta_grid": [0.0, 0.5, 1.0],
        },
    ]
    BAD_ENTRIES = ["x", None, [1.0, 2.0, 3.0], [[0.5]], 10**400]
    BAD_VALUES = ["x", None, 3, -1.5, True, [], {}, [1.0, 2.0, 3.0], [["x"]], [[0.5, 0.5]],
                  {"mode": "finite_difference", "step": "x"}]

    @staticmethod
    def _paths(obj, path=()):
        """Index paths of everything nested in obj: rows, entries, [re, im] parts."""
        if path:
            yield path
        if isinstance(obj, list):
            for i, v in enumerate(obj):
                yield from TestSpecFuzz._paths(v, (*path, i))

    def _mutations(self, n, seed=2026):
        """(description, file text) of n seeded mutations, cycling over BASES."""
        rng = np.random.default_rng(seed)

        def pick(seq):
            return seq[rng.integers(len(seq))]

        for k in range(n):
            spec = copy.deepcopy(self.BASES[k % len(self.BASES)])
            how = pick(["entry", "drop", "type", "truncate"])
            if how == "entry":
                key = pick([name for name, value in spec.items() if isinstance(value, list)])
                *head, last = pick(list(self._paths(spec[key])))
                parent = spec[key]
                for i in head:
                    parent = parent[i]
                parent[last] = pick(self.BAD_ENTRIES)
                field = f"tangents[{[*head, last][0]}]" if key == "tangents" else key
                yield f"{key}{[*head, last]} = {parent[last]!r}", field, json.dumps(spec)
            elif how == "drop":
                key = pick(list(spec))
                del spec[key]
                yield f"drop {key}", key, json.dumps(spec)
            elif how == "type":
                key = pick(list(spec))
                spec[key] = pick(self.BAD_VALUES)
                yield f"{key} = {spec[key]!r}", key, json.dumps(spec)
            else:
                text = json.dumps(spec)
                yield "truncated", None, text[: rng.integers(len(text))]

    def test_mutated_specs_exit_cleanly(self, tmp_path, capsys):
        path, out = tmp_path / "spec.json", str(tmp_path / "r.json")
        for desc, field, text in self._mutations(200):
            path.write_text(text, encoding="utf-8")
            for cmd in ("fisher", "reverse", "global", "bound"):
                try:
                    rc = cli.main([cmd, "--family", str(path), "--out", out])
                except Exception as exc:  # noqa: BLE001 (the assertion under test)
                    pytest.fail(f"qig {cmd} on {desc}: {exc!r}")
                err = capsys.readouterr().err
                assert rc in (0, 1, 2), (cmd, desc, rc)
                assert rc != 1 or err.startswith("error:"), (cmd, desc, err)
                # a matrix that cannot be decoded is named by its field, not just its entry
                assert "cannot decode matrix" not in err or f"field '{field}" in err, (cmd, desc, err)
