"""Concrete state-family generators used by the CLI and the test suites."""

from __future__ import annotations

import numpy as np

from .errors import SpecFileError
from .fisher import ClassicalFamilyPoint, finite_difference_tangents
from .harness import GaussianSpec, gaussian_family
from .linalg import herm
from .states import DensityMatrix, FamilyPoint

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def bloch_rotation_matrix(r: float, theta: float) -> np.ndarray:
    """rho = (I + r(cos theta sx + sin theta sy))/2 as a matrix; full rank for r < 1."""
    if not 0.0 <= r < 1.0:
        raise SpecFileError(f"bloch radius must satisfy 0 <= r < 1, got {r}")
    return 0.5 * (np.eye(2) + r * (np.cos(theta) * PAULI_X + np.sin(theta) * PAULI_Y))


def bloch_rotation_point(r: float, theta: float, step: float | None = None) -> FamilyPoint:
    """One-parameter rotation family; J^S = r^2 and J^R = r^2/(1 - r^2).

    Analytic tangents, or central differences of the given step.
    """
    if step is not None:
        return finite_difference_tangents(lambda th: bloch_rotation_matrix(r, float(th[0])), [theta], step)
    tangent = 0.5 * r * (-np.sin(theta) * PAULI_X + np.cos(theta) * PAULI_Y)
    return FamilyPoint([theta], DensityMatrix(bloch_rotation_matrix(r, theta)), [tangent])


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
    if q.shape[0] != grid.shape[0]:
        raise SpecFileError("probability table and theta grid length mismatch")
    if score_table is None:
        dq = np.gradient(q, grid, axis=0)
    else:
        dq = np.asarray(score_table, dtype=float)
    dq = dq - dq.sum(axis=1, keepdims=True) / q.shape[1]
    points = []
    for k, th in enumerate(grid):
        rho = DensityMatrix(herm(v @ np.diag(q[k]) @ v.conj().T))
        x = herm(v @ np.diag(dq[k]) @ v.conj().T)
        points.append(FamilyPoint([th], rho, [x]))
    return points


def build_family(spec: dict):
    """Build family point(s) from a parsed spec dict (see the file format docs).

    Returns a FamilyPoint, or a list of FamilyPoint for grid kinds.  A
    missing required field, a field of the wrong type or shape, or a
    theta of the wrong length raises SpecFileError naming the field.
    """
    kind = spec.get("kind")

    def field(name, dtype=None, ndim=None, default=None):
        """spec[name], required unless a default is given; with a dtype, a finite array of ndim axes."""
        if name not in spec:
            if default is None:
                raise SpecFileError(f"{kind} spec: missing required field {name!r}")
            return default
        return spec[name] if dtype is None else checked(name, spec[name], dtype, ndim)

    def checked(name, value, dtype, ndim):
        """value as a finite array of ndim axes, or SpecFileError naming the field."""
        try:
            value = np.asarray(value, dtype=dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecFileError(f"{kind} spec: field {name!r}: {exc}") from None
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

    if "derivative" in spec and kind != "bloch_rotation":  # every other kind would ignore it
        raise SpecFileError(f"{kind} spec: field 'derivative' applies only to kind 'bloch_rotation'")
    deriv = field("derivative", default={"mode": "analytic"})
    if not isinstance(deriv, dict):
        raise SpecFileError(f"{kind} spec: field 'derivative' must be an object")
    mode, step = deriv.get("mode", "analytic"), None
    if mode == "finite_difference":
        if "step" not in deriv:
            raise SpecFileError(f"{kind} spec: finite_difference mode needs field 'derivative.step'")
        step = float(checked("derivative.step", deriv["step"], float, 0))
        if step <= 0:
            raise SpecFileError(f"{kind} spec: field 'derivative.step' must be positive, got {step}")
    elif mode != "analytic":
        raise SpecFileError(f"{kind} spec: field 'derivative.mode' must be 'analytic' or 'finite_difference', "
                            f"got {mode!r}")
    if kind == "explicit":
        rho = DensityMatrix(field("rho", complex, 2))
        tangents = list(field("tangents", complex, 3))
        return FamilyPoint(theta(len(tangents)), rho, tangents)
    if kind == "bloch_rotation":
        return bloch_rotation_point(float(field("r", float, 0)), float(theta(1)[0]), step)
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
    if kind == "gaussian":
        gspec = GaussianSpec(
            sigma2=float(field("sigma2", float, 0, default=1.0)),
            hbar=float(field("hbar", float, 0, default=1.0)),
            truncation=int(field("truncation", int, 0, default=80)),
            theta=tuple(theta(2).tolist()),
        )
        return gaussian_family(gspec)
    raise SpecFileError(f"unknown family kind {kind!r}")
