"""Logarithmic derivatives and Fisher information matrices.

The SLD solves drho = (L rho + rho L)/2 (Hermitian); the RLD solves
drho = L rho (generally non-Hermitian, existing iff the tangent stays in
the support of rho).  Matrix indices follow the convention
J^R_ij = Tr rho L_j^dag L_i, which fixes the sign of the stored
imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import RankDeficiencyError, RldExistenceError, SingularFamilyError
from .linalg import frob, herm, solve_lyapunov
from .states import DensityMatrix, FamilyPoint


@dataclass(eq=False)
class QFisherMatrix:
    """m x m Fisher matrix split into symmetric real and antisymmetric imag parts."""

    m: int
    real_part: np.ndarray
    imag_part: np.ndarray
    kind: str  # SLD | RLD | KM | classical | measured

    def __post_init__(self):
        self.real_part = 0.5 * (self.real_part + self.real_part.T)
        self.imag_part = 0.5 * (self.imag_part - self.imag_part.T)
        if self.kind != "RLD" and frob(self.imag_part) > 1e-10 * max(1.0, frob(self.real_part)):
            raise ValueError(f"{self.kind} Fisher matrix must be real")

    @classmethod
    def from_complex(cls, j: np.ndarray, kind: str) -> "QFisherMatrix":
        j = np.asarray(j, dtype=complex)
        return cls(j.shape[0], j.real.copy(), j.imag.copy(), kind)

    def as_complex(self) -> np.ndarray:
        return self.real_part + 1j * self.imag_part

    @property
    def scalar(self) -> float:
        if self.m != 1:
            raise ValueError("scalar access on a multi-parameter Fisher matrix")
        return float(self.real_part[0, 0])

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.as_complex())))


@dataclass(eq=False)
class ClassicalFamilyPoint:
    """Probability vector with per-parameter score rows d_i p(x)."""

    theta: np.ndarray
    probs: np.ndarray
    scores: np.ndarray  # shape (m, n_outcomes)

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.probs = np.asarray(self.probs, dtype=float)
        self.scores = np.atleast_2d(np.asarray(self.scores, dtype=float))
        if np.any(self.probs < -1e-12):
            raise ValueError("negative probability")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {self.probs.sum()!r}")
        if self.scores.shape[1] != self.probs.shape[0]:
            raise ValueError("score/probability length mismatch")
        row_sums = self.scores.sum(axis=1)
        if np.max(np.abs(row_sums), initial=0.0) > 1e-10:
            raise ValueError(f"score rows must sum to 0, got {row_sums}")

    @property
    def m(self) -> int:
        return self.scores.shape[0]


def sld(rho: DensityMatrix, x: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative of (rho, X); requires full rank."""
    return solve_lyapunov(rho.mat, x)


def rld(rho: DensityMatrix, x: np.ndarray, rank_tol: float = linalg.RANK_TOL) -> np.ndarray:
    """Right logarithmic derivative L = X rho^+ on the support of rho.

    Exists iff X has no weight outside the support; the out-of-support
    norm is checked against the absolute linalg.SUPPORT_TOL.
    """
    x = np.asarray(x, dtype=complex)
    w, u = rho.eig
    out, pxp = linalg.support_leak(x, w, u, rank_tol)
    if out > linalg.SUPPORT_TOL:
        raise RldExistenceError(out)
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=linalg.support_mask(w, rank_tol))
    pinv = u @ np.diag(inv) @ u.conj().T
    l = x @ pinv
    res = frob(l @ rho.mat - pxp)
    if res > 1e-10 * max(1e-30, frob(x)):
        raise RldExistenceError(out, f"RLD residual {res:.3e} too large")
    return l


def _metric(point: FamilyPoint, kernel: np.ndarray) -> np.ndarray:
    """J_ij = sum_ab (X~_i)_ab conj(X~_j)_ab k(lam_a, lam_b), X~ = U^dag X U.

    Every monotone metric has this form in the eigenbasis of
    rho = U diag(lam) U^dag (Petz 1996); `kernel` holds k(lam_a, lam_b)
    as a (d, d) array or one that broadcasts to it.
    """
    u = point.rho.eig.eigenvectors
    xt = u.conj().T @ np.reshape(point.tangents, (point.m, point.dim, point.dim)) @ u
    return np.einsum("iab,jab->ij", xt * kernel, xt.conj())


def sld_fisher(point: FamilyPoint) -> QFisherMatrix:
    """J^S_ij = Re Tr rho L_i L_j with SLDs L_i: kernel 2/(lam_a + lam_b)."""
    w = point.rho.eig.eigenvalues
    if not point.rho.is_full_rank():
        raise RankDeficiencyError(f"state is rank deficient (min eigenvalue {w[0]:.3e}); SLD is not unique")
    j = _metric(point, 2.0 / (w[:, None] + w[None, :])).real
    return QFisherMatrix(point.m, j, np.zeros_like(j), "SLD")


def km_fisher(point: FamilyPoint) -> QFisherMatrix:
    """Kubo-Mori metric: kernel (ln a - ln b)/(a - b), and 1/a where a = b.

    On real tangent vectors J^S <= J^KM <= Re J^R in Loewner order.
    """
    w = point.rho.eig.eigenvalues
    if not point.rho.is_full_rank():
        raise RankDeficiencyError(f"state is rank deficient (min eigenvalue {w[0]:.3e}); KM needs log rho")
    a, b = w[:, None], w[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (np.log(a) - np.log(b)) / (a - b)
        c = np.where(np.abs(a - b) <= 1e-12 * np.maximum(a, b), 1.0 / a, c)
    j = _metric(point, c).real
    return QFisherMatrix(point.m, j, np.zeros_like(j), "KM")


def rld_fisher(point: FamilyPoint, rank_tol: float = linalg.RANK_TOL) -> QFisherMatrix:
    """J^R_ij = Tr rho L_j^dag L_i with RLDs L_i: kernel 1/lam_b on the support; Hermitian PSD."""
    for x in point.tangents:
        rld(point.rho, x, rank_tol=rank_tol)  # raises RldExistenceError if no RLD exists
    w = point.rho.eig.eigenvalues
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=linalg.support_mask(w, rank_tol))
    j = _metric(point, inv[None, :])
    out = QFisherMatrix.from_complex(j, "RLD")
    if out.min_eigenvalue() < -1e-10 * max(1.0, frob(j)):
        raise ValueError(f"RLD Fisher matrix not PSD: min eigenvalue {out.min_eigenvalue():.3e}")
    return out


def classical_fisher(point: ClassicalFamilyPoint) -> QFisherMatrix:
    """J_ij = sum_x d_i p(x) d_j p(x) / p(x), skipping dead outcomes."""
    p = point.probs
    s = point.scores
    live = p > 1e-15
    dead_scored = (~live) & (np.max(np.abs(s), axis=0) > 1e-12)
    if np.any(dead_scored):
        idx = int(np.argmax(dead_scored))
        raise SingularFamilyError(
            f"outcome {idx} has zero probability but score {s[:, idx]}"
        )
    sl = s[:, live]
    j = (sl / p[live]) @ sl.T
    return QFisherMatrix(point.m, j, np.zeros_like(j), "classical")


def rld_imag_diagnostic(point: FamilyPoint) -> dict:
    """Compare Im J^R against -Tr rho [L_i, L_j]/2 (non-commutativity measure).

    Returned as a diagnostic (both matrices and their difference norm);
    no equality is asserted since the Hermiticity convention for the
    non-Hermitian L^R is not fixed.
    """
    ls = np.array([rld(point.rho, x) for x in point.tangents])
    t = np.einsum("iac,kca->ik", point.rho.mat @ ls, ls)  # Tr rho L_i L_k
    comm = -0.5 * (t - t.T).imag
    imag = rld_fisher(point).imag_part
    return {"imag_part": imag, "commutator_form": comm, "difference": frob(imag - comm)}


def finite_difference_tangents(evaluator, theta, step: float | None = None) -> FamilyPoint:
    """Build a FamilyPoint from a theta -> rho_theta evaluator by central differences."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    rho = evaluator(theta)
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    tangents = []
    for i in range(len(theta)):
        h = step if step is not None else 1e-5 * max(1.0, abs(theta[i]))
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h
        tm[i] -= h
        rp = evaluator(tp)
        rm = evaluator(tm)
        rp = rp.mat if isinstance(rp, DensityMatrix) else np.asarray(rp, dtype=complex)
        rm = rm.mat if isinstance(rm, DensityMatrix) else np.asarray(rm, dtype=complex)
        x = herm((rp - rm) / (2.0 * h))
        # derivative of a trace-one family; clean up quadrature residue
        x -= (np.trace(x) / rho.dim) * np.eye(rho.dim)
        tangents.append(x)
    return FamilyPoint(theta, rho, tangents)
