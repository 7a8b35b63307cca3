import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "gaussian_convergence.py"


def test_gaussian_convergence_reports_truncation_leakage(capsys):
    spec = importlib.util.spec_from_file_location("gaussian_convergence", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--cutoffs", "20,30"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [20, 30]
    for n, leak, err, tol, *_ in rows:
        assert float(leak) == pytest.approx(0.5 ** (int(n) + 1), rel=1e-2)  # t_N at sigma2 = hbar = 1
        assert float(err) <= float(tol)
