"""Cold-start guard: importing qig loads numpy only, and no scipy module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qig

SRC = str(Path(qig.__file__).resolve().parents[1])

PROBE = """
import json, sys
import qig, qig.cli
report = {"scipy_modules": sorted(m for m in sys.modules if m.startswith("scipy"))}
import scipy.optimize
report["lazy_minimize"] = qig.reverse.minimize is scipy.optimize.minimize
try:
    qig.reverse.no_such_name
except AttributeError:
    report["unknown_name_raises"] = True
else:
    report["unknown_name_raises"] = False
print(json.dumps(report))
"""


def test_fresh_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    assert report["scipy_modules"] == []
    assert report["lazy_minimize"]
    assert report["unknown_name_raises"]
