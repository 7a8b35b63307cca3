import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qig import cli, divergence, fisher, harness, io, linalg, reverse
from qig.errors import SpecFileError
from qig.families import FIELDS
from qig.harness import SuiteReport
from qig.reverse import ORACLE_GAP_TOL


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def block(stdout, key):
    """The stdout lines of the top-level result `key`: the line it starts and the indented lines below it; [] if
    no line starts with it."""
    lines = stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith(f"{key}:")), len(lines))
    end = next((i for i in range(start + 1, len(lines)) if not lines[i].startswith(" ")), len(lines))
    return lines[start:end]


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
def twopar_spec(tmp_path):
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

    @staticmethod
    def _report(argv, tmp_path, name="report.json"):
        out = tmp_path / name
        assert cli.main([*argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def test_spec_digest_roundtrip(self, explicit_spec, tmp_path):
        doc = self._report(["fisher", "--family", explicit_spec], tmp_path)
        assert io.spec_digest(doc["spec_echo"]) == doc["input_digest"]
        again = self._report(doc["command"][:doc["command"].index("--out")], tmp_path, "again.json")
        assert again["input_digest"] == doc["input_digest"]

    @pytest.mark.parametrize("spec, digest", [
        ("explicit_spec", "7fc47b872db800087900d0a8f1f127c4bcaa9991a81d0c610bf5f224d1969068"),
        ("complex16_spec", "7d1e8f951dfe7a9479864c9dc19ce4916ba2c856a3680eee01296cfb31cc7f65"),
    ])
    def test_input_digest_pinned(self, spec, digest, tmp_path, request):
        doc = self._report(["fisher", "--family", request.getfixturevalue(spec)], tmp_path)
        assert doc["input_digest"] == digest
        assert io.spec_digest(doc["spec_echo"]) == digest

    def test_digest_ignores_layout_and_key_order(self, complex16_spec, tmp_path):
        spec = json.loads(Path(complex16_spec).read_text())
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(dict(reversed(list(spec.items()))), indent=5), encoding="utf-8")
        digests = [self._report(["fisher", "--family", path], tmp_path)["input_digest"]
                   for path in (complex16_spec, str(shuffled))]
        assert digests[0] == digests[1]

    def test_digest_pins_each_entry(self, complex16_spec, tmp_path):
        edited = json.loads(Path(complex16_spec).read_text())
        edited["rho"][3][3][0] += 1e-15  # one diagonal entry, by a few ulp: still a state
        path = write_json(tmp_path / "edited.json", edited)
        docs = [self._report(["fisher", "--family", p], tmp_path) for p in (complex16_spec, path)]
        assert docs[0]["spec_echo"]["tangents"] == docs[1]["spec_echo"]["tangents"]
        assert docs[0]["spec_echo"]["rho"]["sha256"] != docs[1]["spec_echo"]["rho"]["sha256"]
        assert docs[0]["input_digest"] != docs[1]["input_digest"]

    def test_matrices_echoed_as_summaries(self, complex16_spec, tmp_path):
        doc = self._report(["fisher", "--family", complex16_spec], tmp_path)
        rho = io.decode_matrix(json.loads(Path(complex16_spec).read_text())["rho"])
        assert doc["spec_echo"]["rho"] == io.summary(rho)
        assert doc["spec_echo"]["rho"]["shape"] == [16, 16]
        assert doc["spec_echo"]["rho"]["frobenius"] == pytest.approx(np.linalg.norm(rho), rel=1e-14)
        assert [t["shape"] for t in doc["spec_echo"]["tangents"]] == [[16, 16]]

    def test_reports_of_a_d256_spec_stay_small(self, tmp_path):
        rng = np.random.default_rng(256)
        g = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        rho = g @ g.conj().T + 256 * np.eye(256)
        x = g + g.conj().T
        spec = write_json(tmp_path / "d256.json", {
            "kind": "explicit", "rho": io.encode_matrix(rho / np.trace(rho).real),
            "tangents": [io.encode_matrix(x - np.trace(x) / 256 * np.eye(256))], "theta": [0.0],
        })
        for cmd in ("fisher", "reverse"):
            out = tmp_path / f"{cmd}.json"
            assert cli.main([cmd, "--family", spec, "--out", str(out)]) == 0
            assert out.stat().st_size <= 20_000, cmd

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

    def test_states_echoed_as_summaries(self, qubit_pair, tmp_path):
        rho, sigma = qubit_pair
        out = tmp_path / "d.json"
        assert cli.main(["divergence", "--rho", rho, "--sigma", sigma, "--steps", "50", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["spec_echo"] == {"rho": io.summary(io.load_matrix(rho, "rho")),
                                    "sigma": io.summary(io.load_matrix(sigma, "rho"))}
        assert set(doc["spec_echo"]["rho"]) == {"shape", "sha256", "frobenius"}
        assert doc["input_digest"] == io.spec_digest(doc["spec_echo"])

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
        (np.diag([0.5, 0.5 - 1e-11, 1e-11]).tolist(), np.diag([0.5, 0.5, 0.0]).tolist(), "finite"),
    ], ids=["equal_pure", "common_support", "off_support", "leak_below_support_tol"])
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
        out = capsys.readouterr().out
        assert "  passed: false" in block(out, "divergence_suite")
        assert "  passed: true" in block(out, "metric_suite")

    def test_suite_violation_exit_2(self, tmp_path, monkeypatch):
        failing = SuiteReport("monotone_metric", 0, 1, {}, [(0, "check", -1.0)], False)

        monkeypatch.setattr(cli, "monotone_metric_suite", lambda *a, **k: failing)
        monkeypatch.setattr(
            cli, "monotone_divergence_suite",
            lambda *a, **k: SuiteReport("monotone_divergence", 0, 1, {}, [], True),
        )
        monkeypatch.chdir(tmp_path)
        assert cli.main(["monotone", "--trials", "1"]) == 2

    def test_complementarity_violation_exit_2(self, tmp_path, monkeypatch, capsys):
        failing = SuiteReport("complementarity", 0, 1, {}, [(0, "rld_equals_ancilla_sld", -1.0)], False)
        monkeypatch.setattr(cli, "complementarity_suite", lambda *a, **k: failing)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["monotone", "--trials", "1"]) == 2
        lines = block(capsys.readouterr().out, "complementarity_suite")
        assert {"  suite: complementarity", "  trials: 1", "  passed: false"} <= set(lines)
        assert lines[lines.index("  violations:") + 1] == "    - [0, rld_equals_ancilla_sld, -1]"

    def test_violations_print_one_line_each(self, tmp_path, monkeypatch, capsys):
        """Four [trial, check, slack] rows print as four lines, not as a shape; past LIST_CUT rows a count."""
        for n in (4, cli.LIST_CUT + 3):
            rows = [(t, "rld_equals_ancilla_sld", -1.0 - t) for t in range(n)]
            failing = SuiteReport("complementarity", 0, n, {}, rows, False)
            monkeypatch.setattr(cli, "complementarity_suite", lambda *a, **k: failing)
            monkeypatch.chdir(tmp_path)
            assert cli.main(["monotone", "--trials", "1"]) == 2
            lines = block(capsys.readouterr().out, "complementarity_suite")
            rows = lines[lines.index("  violations:") + 1:]
            rows = rows[:next((i for i, line in enumerate(rows) if not line.startswith("    ")), len(rows))]
            shown = [f"    - [{t}, rld_equals_ancilla_sld, {-1 - t}]" for t in range(min(n, cli.LIST_CUT))]
            assert rows == shown + (["    ... 3 more"] if n > cli.LIST_CUT else [])

    def test_usage_error_is_input_error(self, capsys):
        assert cli.main(["fisher"]) == 1
        assert "--family" in capsys.readouterr().err
        assert cli.main(["fisher", "--family", "x.json", "--bogus"]) == 1
        assert cli.main(["--version"]) == 0

    def test_monotone_reports_complementarity_suite(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        assert cli.main(["monotone", "--trials", "4", "--dims", "2,3", "--seed", "5", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["results"]["complementarity_suite"]
        assert rep["suite"] == "complementarity" and rep["master_seed"] == 7 and rep["passed"]
        assert list(rep["slack_range"]) == ["sld_equals_ancilla_rld", "rld_equals_ancilla_sld"]

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


class TestStdout:
    """stdout renders the written report's results: each top-level name starts a line, each check prints its name,
    verdict and margin on one line, each suite its verdict in its own block."""

    @pytest.mark.parametrize("cmd", ["fisher", "reverse", "global", "monotone", "divergence", "bound", "gaussian"])
    def test_stdout_shows_the_report(self, cmd, bloch_spec, grid_spec, qubit_pair, twopar_spec, tmp_path,
                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        argv = {
            "fisher": ["--family", bloch_spec],
            "reverse": ["--family", bloch_spec],
            "global": ["--family", grid_spec],
            "monotone": ["--trials", "2", "--dims", "2"],
            "divergence": ["--rho", qubit_pair[0], "--sigma", qubit_pair[1], "--steps", "50"],
            "bound": ["--family", twopar_spec],
            "gaussian": ["--truncation", "40"],
        }[cmd]
        assert cli.main([cmd, *argv, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        results = json.loads(out.read_text())["results"]
        assert [key for key in results if not block(stdout, key)] == []
        for check in results.get("checks", []):
            (line,) = [line for line in stdout.splitlines() if f"name: {check['name']} " in line]
            margin = "null" if check["margin"] is None else f"{check['margin']:.6g}"
            assert f"passed: {json.dumps(check['passed'])}" in line and f"margin: {margin}" in line
        for key, value in results.items():
            if isinstance(value, dict) and "passed" in value:
                assert f"  passed: {json.dumps(value['passed'])}" in block(stdout, key)

    def test_long_lists_print_their_shape(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(20, 20))
        rho, x = g @ g.T, g + g.T
        rho, x = rho / np.trace(rho), x - np.trace(x) / 20 * np.eye(20)
        spec = write_json(tmp_path / "d20.json", {"kind": "explicit", "rho": rho.tolist(), "tangents": [x.tolist()]})
        assert cli.main(["reverse", "--family", spec, "--out", str(tmp_path / "r.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        res = json.loads((tmp_path / "r.json").read_text())["results"]
        assert len(res["weights"]) > cli.LIST_CUT
        assert f"weights: list of shape [{len(res['weights'])}]" in lines
        assert max(map(len, lines)) < 200

    def test_grid_points_print_one_line_each(self, tmp_path, capsys):
        """An 11-point grid prints its first LIST_CUT points one line each, then the count of the rest."""
        grid = np.linspace(0.2, 0.8, cli.LIST_CUT + 1)
        spec = write_json(tmp_path / "grid11.json", {
            "kind": "fixed_basis", "prob_table": np.stack([grid, 1 - grid], axis=1).tolist(),
            "theta_grid": grid.tolist()})
        assert cli.main(["global", "--family", spec, "--out", str(tmp_path / "r.json")]) == 0
        lines = block(capsys.readouterr().out, "per_point")
        rows = json.loads((tmp_path / "r.json").read_text())["results"]["per_point"]
        assert lines[0] == "per_point:" and lines[-1] == "  ... 1 more"
        assert lines[1:-1] == [f"  - theta: {r['theta']:.6g}  input_fisher: {r['input_fisher']:.6g}  "
                               f"rld_fisher: {r['rld_fisher']:.6g}" for r in rows[:cli.LIST_CUT]]


class TestEntryPoint:
    """`python -m qig.cli` as its own process: the sys.argv path and the __main__ guard."""

    def _run(self, *argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run([sys.executable, "-m", "qig.cli", *argv], env=env, capture_output=True, text=True,
                              timeout=120)

    def test_report_and_input_error(self, bloch_spec, tmp_path):
        out = tmp_path / "r.json"
        argv = ["fisher", "--family", bloch_spec, "--out", str(out)]
        run = self._run(*argv)
        assert run.returncode == 0 and run.stderr == ""
        doc = json.loads(out.read_text())
        assert doc["command"] == argv
        assert [key for key in doc["results"] if not block(run.stdout, key)] == []
        missing = str(tmp_path / "absent.json")
        run = self._run("fisher", "--family", missing)
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr.startswith("error: ") and missing in run.stderr
        run = self._run("fisher")
        assert run.returncode == 1 and run.stdout == "" and "--family" in run.stderr


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

    @pytest.mark.parametrize("cmd, spec, typo", [
        ("fisher", {"kind": "explicit", "rho": [[0.9, 0.0], [0.0, 0.1]], "tangents": [[[0.0, 0.5], [0.5, 0.0]]]},
         {"tangent": [[[0.0, 0.5], [0.5, 0.0]]]}),
        ("fisher", {"kind": "bloch_rotation", "r": 0.8}, {"thetta": [1.0]}),
        ("fisher", {"kind": "classical_simplex", "probs": [0.4, 0.6], "scores": [[1.0, -1.0]]}, {"prob": [0.5, 0.5]}),
        ("global", {"kind": "fixed_basis", "prob_table": [[0.3, 0.7], [0.6, 0.4]], "theta_grid": [0.0, 1.0]},
         {"scores_table": [[0.3, -0.3], [0.3, -0.3]]}),
        ("bound", {"kind": "gaussian", "truncation": 20}, {"sigam2": 0.25}),
    ], ids=lambda v: v if isinstance(v, str) else v.get("kind", next(iter(v))))
    @pytest.mark.parametrize("extra", ["typo", "derivative"])
    def test_unknown_field_refused(self, cmd, spec, typo, extra, tmp_path, capsys):
        # a field the kind does not take would be ignored: a typo falls back to a default, derivative to nothing
        added = typo if extra == "typo" else {"derivative": {"mode": "analytic"}}
        path = write_json(tmp_path / "s.json", {**spec, **added})
        self._fails([cmd, "--family", path], capsys, spec["kind"], *map(repr, added), *map(repr, FIELDS[spec["kind"]]))

    @pytest.mark.parametrize("name, value", [
        ("rho", "x"), ("rho", [[0.5, 0.0], [0.0, 0.5]]), ("tangents", [[["x"]]]), ("basis", [[1, 0], [0, None]]),
    ])
    def test_matrix_field_refused_before_decoding(self, name, value, tmp_path, capsys):
        # a matrix field the kind does not take is refused by name whether or not it decodes
        path = write_json(tmp_path / "s.json", {"kind": "bloch_rotation", "r": 0.5, name: value})
        self._fails(["fisher", "--family", path], capsys, f"field {name!r} does not apply")

    @pytest.mark.parametrize("cmd, spec, name", [
        ("bound", {"kind": "gaussian", "sigma2": True}, "sigma2"),
        ("fisher", {"kind": "bloch_rotation", "r": 0.8, "theta": [True]}, "theta"),
        ("fisher", {"kind": "classical_simplex", "probs": [0.4, 0.6], "scores": [[True, -1]]}, "scores"),
        ("bound", {"kind": "gaussian", "truncation": 40.7}, "truncation"),
        ("bound", {"kind": "gaussian", "truncation": "40"}, "truncation"),
        ("fisher", {"kind": "bloch_rotation", "r": "0.5"}, "r"),
    ], ids=["sigma2-true", "theta-true", "scores-true", "truncation-40.7", "truncation-string", "r-string"])
    def test_non_number_field_named(self, cmd, spec, name, tmp_path, capsys):
        # true is not 1, "0.5" is not 0.5 and 40.7 levels are not 40: each would run on a value the file does not hold
        path = write_json(tmp_path / "s.json", spec)
        self._fails([cmd, "--family", path], capsys, spec["kind"], repr(name))

    def test_theta_option_not_a_number(self, bloch_spec, capsys):
        self._fails(["fisher", "--family", bloch_spec, "--theta", "x"], capsys, "--theta", "'x'")

    @pytest.mark.parametrize("name, value", [
        ("score_table", [[0.1, -0.1]] * 2),
        ("score_table", [[0.1, -0.1]] * 4),
        ("score_table", [[0.1, -0.1, 0.0]] * 3),
        ("basis", np.eye(3).tolist()),
        ("theta_grid", [0.0, 1.0]),
    ], ids=["score-rows-2", "score-rows-4", "score-cols-3", "basis-3x3", "grid-2"])
    def test_fixed_basis_table_shape_named(self, name, value, grid_spec, tmp_path, capsys):
        # a 3-point grid with 2 outcomes: every table follows prob_table's shape (3, 2)
        spec = write_json(tmp_path / "s.json", {**json.loads(Path(grid_spec).read_text()), name: value})
        self._fails(["global", "--family", spec], capsys, "fixed_basis", repr(name), "(3, 2)")

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


def test_readme_lists_each_kind_with_its_fields():
    """The README's family-spec bullets are the kinds of FIELDS; each names its kind's fields in backticks."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index("A family spec has a `kind`"):]
    section = section[:section.index("\n\n", section.index("\n- "))]
    bullets = dict(re.findall(r"^- `(\w+)` — (.*?)(?=^- |\Z)", section, re.M | re.S))
    assert bullets.keys() == FIELDS.keys()
    for kind, fields in FIELDS.items():
        assert [f for f in fields if f"`{f}`" not in bullets[kind]] == [], kind


class TestSpecFuzz:
    """Seeded mutations of valid specs: every command exits 0, 1 or 2, never with a traceback."""

    BASES = [
        {
            "kind": "explicit",
            "rho": [[0.7, [0.1, 0.05]], [[0.1, -0.05], 0.3]],
            "tangents": [[[0.5, [0.0, 0.2]], [[0.0, -0.2], -0.5]]],
            "theta": [0.0],
        },
        {"kind": "bloch_rotation", "r": 0.6, "theta": [0.2]},
        {
            "kind": "fixed_basis",
            "basis": [[0.6, 0.8], [0.8, -0.6]],
            "prob_table": [[0.3, 0.7], [0.5, 0.5], [0.6, 0.4]],
            "theta_grid": [0.0, 0.5, 1.0],
            "score_table": [[0.4, -0.4], [0.3, -0.3], [0.1, -0.1]],
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
