"""Concrete state-family generators used by the CLI and the test suites."""

from __future__ import annotations

import numpy as np

from . import io
from .errors import SpecFileError
from .fisher import ClassicalFamilyPoint
from .harness import GaussianSpec, gaussian_family
from .linalg import herm
from .states import DensityMatrix, FamilyPoint

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

FIELDS = {  # the fields each kind takes besides `kind`: required ones first, then optional ones
    "explicit": ("rho", "tangents", "theta"),
    "bloch_rotation": ("r", "theta"),
    "classical_simplex": ("probs", "scores", "theta"),
    "fixed_basis": ("prob_table", "theta_grid", "basis", "score_table"),
    "gaussian": ("sigma2", "hbar", "truncation", "theta"),
}


def bloch_rotation_point(r: float, theta: float) -> FamilyPoint:
    """rho = (I + r(cos theta sx + sin theta sy))/2, full rank for r < 1; J^S = r^2 and J^R = r^2/(1 - r^2)."""
    if not 0.0 <= r < 1.0:
        raise SpecFileError(f"bloch radius must satisfy 0 <= r < 1, got {r}")
    rho = 0.5 * (np.eye(2) + r * (np.cos(theta) * PAULI_X + np.sin(theta) * PAULI_Y))
    tangent = 0.5 * r * (-np.sin(theta) * PAULI_X + np.cos(theta) * PAULI_Y)
    return FamilyPoint([theta], DensityMatrix(rho), [tangent])


def classical_simplex_point(probs, scores, theta=None) -> FamilyPoint:
    """Classical family embedded as a diagonal quantum family."""
    cls = ClassicalFamilyPoint(
        np.zeros(np.atleast_2d(scores).shape[0]) if theta is None else theta,
        probs, scores,
    )
    rho = DensityMatrix(np.diag(cls.probs).astype(complex))
    tangents = [np.diag(row).astype(complex) for row in cls.scores]
    return FamilyPoint(cls.theta, rho, tangents)


def fixed_basis_family(
    basis: np.ndarray, prob_table: np.ndarray, theta_grid: np.ndarray,
    score_table: np.ndarray | None = None,
) -> list[FamilyPoint]:
    """rho_theta = V diag(q_theta) V^dag over a 1-dim theta grid.

    Tangents come from an optional table of dq/dtheta rows; otherwise
    from central differences on the grid (one-sided at the ends).
    """
    v = np.asarray(basis, dtype=complex)
    q = np.asarray(prob_table, dtype=float)
    grid = np.asarray(theta_grid, dtype=float)
    dq = None if score_table is None else np.asarray(score_table, dtype=float)
    expected = {"theta_grid": q.shape[:1], "basis": (q.shape[1],) * 2, "score_table": q.shape}
    for name, table in (("theta_grid", grid), ("basis", v), ("score_table", dq)):
        if table is not None and table.shape != expected[name]:
            raise SpecFileError(f"fixed_basis spec: field {name!r} has shape {table.shape}, expected "
                                f"{expected[name]} for a 'prob_table' of shape {q.shape}")
    if dq is None:
        dq = np.gradient(q, grid, axis=0)
    dq = dq - dq.sum(axis=1, keepdims=True) / q.shape[1]
    points = []
    for k, th in enumerate(grid):
        rho = DensityMatrix(herm(v @ np.diag(q[k]) @ v.conj().T))
        x = herm(v @ np.diag(dq[k]) @ v.conj().T)
        points.append(FamilyPoint([th], rho, [x]))
    return points


def build_family(spec: dict):
    """Build family point(s) from a parsed spec dict (see the file format docs).

    Returns a FamilyPoint, or a list of FamilyPoint for grid kinds.  An unknown
    kind, a field the kind does not take (see FIELDS), a missing or malformed
    field, or a theta of the wrong length raises SpecFileError naming the field.
    """
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in FIELDS:  # kind may be any JSON value; a list or object is unhashable
        raise SpecFileError(f"unknown family kind {kind!r}; the kinds are {', '.join(map(repr, FIELDS))}")
    extra = sorted(set(spec) - {"kind", *FIELDS[kind]})
    if extra:
        raise SpecFileError(f"{kind} spec: field {', '.join(map(repr, extra))} does not apply; "
                            f"{kind} takes {', '.join(map(repr, FIELDS[kind]))}")

    def field(name, dtype, ndim=None, default=None):
        """spec[name] as a finite array of ndim axes of JSON numbers, required unless a default is given."""
        if name not in spec:
            if default is None:
                raise SpecFileError(f"{kind} spec: missing required field {name!r}")
            return default
        try:
            raw = np.asarray(spec[name])
            value = raw.astype(dtype, copy=False)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecFileError(f"{kind} spec: field {name!r}: {exc}") from None
        # a scalar true/false reads as kind "b"; decoded matrix fields read as "c" and are not searched again
        if raw.dtype.kind in "USb" or (raw.ndim and raw.dtype.kind in "iuf" and io.has_boolean(spec[name], raw)):
            raise SpecFileError(f"{kind} spec: field {name!r} must hold numbers, not strings or true/false")
        if ndim is not None and value.ndim != ndim:
            raise SpecFileError(f"{kind} spec: field {name!r} must have {ndim} axes, got {value.ndim}")
        if not np.all(np.isfinite(value)):
            raise SpecFileError(f"{kind} spec: field {name!r} has a null or non-finite entry")
        return value

    def theta(m):
        th = np.atleast_1d(field("theta", float, default=np.zeros(m)))
        if th.shape != (m,):
            raise SpecFileError(f"{kind} spec: theta has {th.size} components, expected {m}")
        return th

    if kind == "explicit":
        rho = DensityMatrix(field("rho", complex, 2))
        tangents = list(field("tangents", complex, 3))
        return FamilyPoint(theta(len(tangents)), rho, tangents)
    if kind == "bloch_rotation":
        return bloch_rotation_point(float(field("r", float, 0)), float(theta(1)[0]))
    if kind == "classical_simplex":
        scores = np.atleast_2d(field("scores", float))
        return classical_simplex_point(field("probs", float, 1), scores, theta(scores.shape[0]))
    if kind == "fixed_basis":
        prob_table = field("prob_table", float, 2)
        return fixed_basis_family(
            field("basis", complex, 2, default=np.eye(prob_table.shape[1])),
            prob_table, field("theta_grid", float, 1),
            field("score_table", float, 2) if "score_table" in spec else None,
        )
    truncation = float(field("truncation", float, 0, default=80))  # the one kind left: gaussian
    if not truncation.is_integer():
        raise SpecFileError(f"{kind} spec: field 'truncation' must be an integer, got {truncation}")
    gspec = GaussianSpec(
        sigma2=float(field("sigma2", float, 0, default=1.0)),
        hbar=float(field("hbar", float, 0, default=1.0)),
        truncation=int(truncation),
        theta=tuple(theta(2).tolist()),
    )
    return gaussian_family(gspec)
