"""JSON (de)serialization: complex scalars as [re, im], matrices row-major.

A matrix is a list of rows; a row is a list of entries; an entry is a
plain number (real) or a two-element [re, im] array (complex).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import SpecFileError


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(mat) -> list:
    mat = np.atleast_2d(np.asarray(mat))
    if np.iscomplexobj(mat) and np.max(np.abs(mat.imag), initial=0.0) > 0.0:
        return [[encode_complex(z) for z in row] for row in mat]
    return [[float(x) for x in row] for row in mat.real]


def decode_entry(e) -> complex:
    if isinstance(e, (int, float)):
        return complex(e)
    if isinstance(e, (list, tuple)) and len(e) == 2 and all(isinstance(v, (int, float)) for v in e):
        return complex(e[0], e[1])
    raise SpecFileError(f"cannot decode matrix entry {e!r}: expected number or [re, im]")


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SpecFileError(f"cannot decode matrix: expected a list of rows, got {type(obj).__name__}")
    mat = np.array([[decode_entry(e) for e in row] for row in obj])
    if np.max(np.abs(mat.imag), initial=0.0) == 0.0:
        return mat.real.astype(complex)
    return mat


def qfisher_to_json(j) -> dict:
    return {
        "kind": j.kind,
        "real_part": encode_matrix(j.real_part),
        "imag_part": encode_matrix(j.imag_part),
    }


def suite_report_to_json(rep) -> dict:
    return {
        "suite": rep.suite,
        "master_seed": rep.master_seed,
        "trials": rep.trials,
        "slack_range": {k: list(v) for k, v in rep.slack_range.items()},
        "violations": [list(v) for v in rep.violations],
        "passed": rep.passed,
        "details": _jsonable(rep.details),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return encode_matrix(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return encode_complex(obj)
    return obj


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc


def load_family_spec(path) -> dict:
    """Load and decode a family spec file; matrix fields become arrays."""
    spec = load_json(path)
    if "kind" not in spec:
        raise SpecFileError(f"{path}: missing required field 'kind'")
    out = dict(spec)
    if "rho" in out:
        out["rho"] = decode_matrix(out["rho"])
    if "tangents" in out:
        out["tangents"] = [decode_matrix(t) for t in out["tangents"]]
    if "basis" in out:
        out["basis"] = decode_matrix(out["basis"])
    return out


def load_density(path) -> np.ndarray:
    obj = load_json(path)
    mat = obj["rho"] if isinstance(obj, dict) and "rho" in obj else obj
    return decode_matrix(mat)


def load_weight(path) -> np.ndarray:
    obj = load_json(path)
    mat = obj["weight"] if isinstance(obj, dict) and "weight" in obj else obj
    return decode_matrix(mat).real


def spec_digest(spec) -> str:
    """Digest of the canonical JSON encoding; stable under re-parse."""
    canonical = json.dumps(_jsonable(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
