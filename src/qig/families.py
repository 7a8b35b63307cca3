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


def bloch_rotation_state(r: float, theta: float) -> DensityMatrix:
    """rho = (I + r(cos theta sx + sin theta sy))/2; full rank for r < 1."""
    if not 0.0 <= r < 1.0:
        raise SpecFileError(f"bloch radius must satisfy 0 <= r < 1, got {r}")
    return DensityMatrix(
        0.5 * (np.eye(2) + r * (np.cos(theta) * PAULI_X + np.sin(theta) * PAULI_Y))
    )


def bloch_rotation_point(r: float, theta: float, fd_step: float | None = None) -> FamilyPoint:
    """One-parameter rotation family; J^S = r^2 and J^R = r^2/(1 - r^2)."""
    if fd_step is not None:
        return finite_difference_tangents(
            lambda th: bloch_rotation_state(r, float(th[0])), [theta], fd_step
        )
    tangent = 0.5 * r * (-np.sin(theta) * PAULI_X + np.cos(theta) * PAULI_Y)
    return FamilyPoint([theta], bloch_rotation_state(r, theta), [tangent])


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
    missing required field or a theta of the wrong length raises
    SpecFileError.
    """
    kind = spec.get("kind")

    def field(name):
        if name not in spec:
            raise SpecFileError(f"{kind} spec: missing required field {name!r}")
        return spec[name]

    def theta(m):
        th = np.atleast_1d(np.asarray(spec.get("theta", np.zeros(m)), dtype=float))
        if th.shape != (m,):
            raise SpecFileError(f"{kind} spec: theta has {th.size} components, expected {m}")
        return th

    deriv = spec.get("derivative", {"mode": "analytic"})
    if kind == "explicit":
        rho = DensityMatrix(np.asarray(field("rho"), dtype=complex))
        tangents = [np.asarray(t, dtype=complex) for t in field("tangents")]
        return FamilyPoint(theta(len(tangents)), rho, tangents)
    if kind == "bloch_rotation":
        step = deriv.get("step") if deriv.get("mode") == "finite_difference" else None
        return bloch_rotation_point(float(field("r")), float(theta(1)[0]), fd_step=step)
    if kind == "classical_simplex":
        return classical_simplex_point(field("probs"), field("scores"), spec.get("theta"))
    if kind == "fixed_basis":
        basis = (
            np.asarray(spec["basis"], dtype=complex)
            if "basis" in spec
            else np.eye(len(field("prob_table")[0]))
        )
        return fixed_basis_family(
            basis, field("prob_table"), field("theta_grid"), spec.get("score_table")
        )
    if kind == "gaussian":
        gspec = GaussianSpec(
            sigma2=float(spec.get("sigma2", 1.0)),
            hbar=float(spec.get("hbar", 1.0)),
            truncation=int(spec.get("truncation", 80)),
            theta=tuple(theta(2).tolist()),
        )
        return gaussian_family(gspec)
    raise SpecFileError(f"unknown family kind {kind!r}")
