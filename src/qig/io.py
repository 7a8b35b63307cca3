"""JSON (de)serialization: complex scalars as [re, im], matrices row-major.

A matrix is a list of rows; a row is a list of entries; an entry is a
plain number (real) or a two-element [re, im] array (complex).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import reduce
from operator import getitem

import numpy as np

from .errors import SpecFileError


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(mat) -> list:
    mat = np.atleast_2d(np.asarray(mat))
    if np.iscomplexobj(mat) and np.max(np.abs(mat.imag), initial=0.0) > 0.0:
        return np.stack([mat.real, mat.imag], -1).astype(float).tolist()
    return mat.real.astype(float).tolist()


def decode_entry(e) -> complex:
    _number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)  # JSON true/false are not numbers
    try:
        if _number(e):
            return complex(e)
        if isinstance(e, (list, tuple)) and len(e) == 2 and all(_number(v) for v in e):
            return complex(e[0], e[1])
    except OverflowError:  # an integer literal beyond the float range
        raise SpecFileError(f"cannot decode matrix entry {str(e)[:20]}...: beyond the float range") from None
    raise SpecFileError(f"cannot decode matrix entry {e!r}: expected number or [re, im]")


def has_boolean(obj, arr) -> bool:
    """Whether obj, read by numpy as arr, holds a JSON true/false; read as 1/0, only entries 0 and 1 are looked up."""
    hits = np.unravel_index(np.flatnonzero((arr == 0) | (arr == 1)), arr.shape)
    return any(type(reduce(getitem, i, obj)) is bool for i in zip(*(h.tolist() for h in hits)))


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SpecFileError(f"cannot decode matrix: expected a list of rows, got {type(obj).__name__}")
    try:  # fast path: all bare numbers, or all [re, im] pairs
        arr = np.asarray(obj)
        fast = arr.dtype.kind in "iuf" and (arr.ndim == 2 or arr.shape[2:] == (2,))
    except ValueError:  # ragged rows, or numbers mixed with pairs
        fast = False
    if fast and not has_boolean(obj, arr):
        mat = arr.astype(complex) if arr.ndim == 2 else np.asarray(arr, dtype=float).view(complex)[..., 0]
    else:  # per entry, so a bad entry is named
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
    return _jsonable(dataclasses.asdict(rep))


def _jsonable(obj, matrix=encode_matrix):
    """obj with plain JSON types; each array becomes matrix(array)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, matrix) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, matrix) for v in obj]
    if isinstance(obj, np.ndarray):
        return matrix(obj)
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


def load_family_spec(path, fields) -> dict:
    """Load a family spec file; the matrix fields its kind takes, fields[kind], become arrays, the others stay as read."""
    spec = load_json(path)
    if not isinstance(spec, dict):
        raise SpecFileError(f"{path}: expected a JSON object, got {type(spec).__name__}")
    if "kind" not in spec:
        raise SpecFileError(f"{path}: missing required field 'kind'")
    out = dict(spec)
    kind = out["kind"]
    takes = fields.get(kind, ()) if isinstance(kind, str) else ()  # an unknown kind is refused in build_family

    def field(name, obj):
        try:
            return decode_matrix(obj)
        except SpecFileError as exc:  # name the field, not just the entry
            raise SpecFileError(f"{kind} spec: field {name!r}: {exc}") from None
    for name in ("rho", "basis"):
        if name in takes and name in out:
            out[name] = field(name, out[name])
    if "tangents" in takes and isinstance(out.get("tangents"), list):  # anything else is refused by name in build_family
        out["tangents"] = [field(f"tangents[{k}]", t) for k, t in enumerate(out["tangents"])]
    return out


def load_matrix(path, key) -> np.ndarray:
    """The matrix in a JSON file: the whole document, or its field `key` when it is an object holding one."""
    obj = load_json(path)
    return decode_matrix(obj[key] if isinstance(obj, dict) and key in obj else obj)


def summary(mat) -> dict:
    """How a report echoes an input matrix: its shape, and the SHA-256 and Frobenius norm of its complex128 bytes."""
    data = np.ascontiguousarray(mat, dtype="<c16")
    return {"shape": list(data.shape), "sha256": hashlib.sha256(data).hexdigest(),
            "frobenius": float(np.linalg.norm(data))}


def spec_digest(echo) -> str:
    """The report's input_digest: SHA-256 of a spec echo's JSON, keys sorted, no whitespace, summaries without
    their norms, whose last bits depend on the BLAS build."""
    unnormed = json.loads(json.dumps(echo), object_hook=lambda d: {k: v for k, v in d.items() if k != "frobenius"})
    return hashlib.sha256(json.dumps(unnormed, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
