"""Logarithmic derivatives and Fisher information matrices.

The SLD solves drho = (L rho + rho L)/2 (Hermitian); the RLD solves
drho = L rho (generally non-Hermitian, existing iff the tangent stays in
the support of rho).  Matrix indices follow the convention
J^R_ij = Tr rho L_j^dag L_i, which fixes the sign of the stored
imaginary part.  A point holding (n, d, d) stacks gives (n, m, m) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, RankDeficiencyError, RldExistenceError, SingularFamilyError
from .linalg import frob, solve_lyapunov
from .states import DensityMatrix, FamilyPoint

RLD_PSD_TOL = 1e-10  # rld_fisher refuses J^R with an eigenvalue below -RLD_PSD_TOL * max(1, ||J^R||_F)


@dataclass(eq=False)
class QFisherMatrix:
    """m x m Fisher matrix (or (..., m, m) stack) split into symmetric real and antisymmetric imag parts."""

    m: int
    real_part: np.ndarray
    imag_part: np.ndarray
    kind: str  # SLD | RLD | KM | classical | measured

    def __post_init__(self):
        if self.m != self.real_part.shape[-1]:
            raise DimensionMismatchError(f"m = {self.m} for a Fisher matrix of shape {self.real_part.shape}")
        self.real_part = 0.5 * (self.real_part + self.real_part.swapaxes(-1, -2))
        self.imag_part = 0.5 * (self.imag_part - self.imag_part.swapaxes(-1, -2))
        if self.kind != "RLD" and frob(self.imag_part) > 1e-10 * max(1.0, frob(self.real_part)):
            raise ValueError(f"{self.kind} Fisher matrix must be real")

    @classmethod
    def from_complex(cls, j: np.ndarray, kind: str) -> "QFisherMatrix":
        j = np.asarray(j, dtype=complex)
        return cls(j.shape[-1], j.real.copy(), j.imag.copy(), kind)

    def as_complex(self) -> np.ndarray:
        return self.real_part + 1j * self.imag_part

    @property
    def scalar(self) -> float:
        if self.m != 1:
            raise ValueError("scalar access on a multi-parameter Fisher matrix")
        j = self.real_part[..., 0, 0]
        return float(j) if j.ndim == 0 else j


@dataclass(eq=False)
class ClassicalFamilyPoint:
    """Probability vector with per-parameter score rows d_i p(x); stacks lead both arrays."""

    theta: np.ndarray
    probs: np.ndarray  # shape (..., n_outcomes)
    scores: np.ndarray  # shape (..., m, n_outcomes)

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.probs = np.asarray(self.probs, dtype=float)
        self.scores = np.atleast_2d(np.asarray(self.scores, dtype=float))
        if np.any(self.probs < -1e-12):
            raise ValueError("negative probability")
        if np.max(np.abs(self.probs.sum(axis=-1) - 1.0)) > 1e-12:
            raise ValueError(f"probabilities sum to {self.probs.sum(axis=-1)!r}")
        if self.scores.shape[-1] != self.probs.shape[-1]:
            raise ValueError("score/probability length mismatch")
        row_sums = self.scores.sum(axis=-1)
        if np.max(np.abs(row_sums), initial=0.0) > 1e-10:
            raise ValueError(f"score rows must sum to 0, got {row_sums}")

    @property
    def m(self) -> int:
        return self.scores.shape[-2]


def sld(rho: DensityMatrix, x: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative of (rho, X), solved on the cached spectrum; requires full rank."""
    if not rho.is_full_rank():
        raise RankDeficiencyError(f"state is rank deficient (min eigenvalue {rho.eig.eigenvalues.min():.3e}); "
                                  "SLD is not unique")
    return solve_lyapunov(*rho.eig, x)


def rld(rho: DensityMatrix, x: np.ndarray) -> np.ndarray:
    """Right logarithmic derivative L = X rho^+ on the support of rho.

    Exists iff X has no weight outside the support; the out-of-support
    norm is checked against the absolute linalg.SUPPORT_TOL.  X may be a
    stack broadcasting against rho; every member is checked.
    """
    x = np.asarray(x, dtype=complex)
    w, u = rho.eig
    out, pxp = linalg.support_leak(x, w, u)
    if out.max() > linalg.SUPPORT_TOL:
        raise RldExistenceError(out.max())
    inv = linalg.on_support(np.reciprocal, w)
    l = x @ ((u * inv[..., None, :]) @ u.conj().swapaxes(-1, -2))
    res = linalg.frob_each(l @ rho.mat - pxp)
    bad = res > 1e-10 * np.maximum(1e-30, linalg.frob_each(x))
    if bad.any():
        raise RldExistenceError(out.max(), f"RLD residual {res[bad].max():.3e} too large")
    return l


def _metric(xt: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """J_ij = sum_ab (X~_i)_ab conj(X~_j)_ab k(lam_a, lam_b), X~ = U^dag X U.

    Every monotone metric has this form in the eigenbasis of rho = U diag(lam) U^dag
    (Petz 1996); `xt` is FamilyPoint.tangents_eig and `kernel` holds k(lam_a, lam_b)
    as a (..., d, d) array or one that broadcasts to it.
    """
    return np.einsum("i...ab,j...ab->...ij", xt * kernel, xt.conj())


def sld_fisher(point: FamilyPoint) -> QFisherMatrix:
    """J^S_ij = Re Tr rho L_i L_j with SLDs L_i: kernel 2/(lam_a + lam_b)."""
    w = point.rho.eig.eigenvalues
    if not point.rho.is_full_rank():
        raise RankDeficiencyError(f"state is rank deficient (min eigenvalue {w.min():.3e}); SLD is not unique")
    j = _metric(point.tangents_eig, 2.0 / (w[..., :, None] + w[..., None, :])).real
    return QFisherMatrix(point.m, j, np.zeros_like(j), "SLD")


def km_fisher(point: FamilyPoint) -> QFisherMatrix:
    """Kubo-Mori metric: kernel (ln a - ln b)/(a - b), and 1/a where a = b.

    On real tangent vectors J^S <= J^KM <= Re J^R in Loewner order.
    """
    w = point.rho.eig.eigenvalues
    if not point.rho.is_full_rank():
        raise RankDeficiencyError(f"state is rank deficient (min eigenvalue {w.min():.3e}); KM needs log rho")
    a, b = w[..., :, None], w[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (np.log(a) - np.log(b)) / (a - b)
        c = np.where(np.abs(a - b) <= 1e-12 * np.maximum(a, b), 1.0 / a, c)
    j = _metric(point.tangents_eig, c).real
    return QFisherMatrix(point.m, j, np.zeros_like(j), "KM")


def rld_fisher(point: FamilyPoint) -> QFisherMatrix:
    """J^R_ij = Tr rho L_j^dag L_i with RLDs L_i: kernel 1/lam_b on the support; Hermitian PSD.

    rld() checks existence once per point; a refused point is refused on every call.
    """
    if not point.rld_checked:
        rld(point.rho, point.tangents)  # raises RldExistenceError if no RLD exists
        point.rld_checked = True
    j = _metric(point.tangents_eig, linalg.on_support(np.reciprocal, point.rho.eig.eigenvalues)[..., None, :])
    lam = np.linalg.eigvalsh(j)  # also gives ||J||_F = sqrt(sum lam^2)
    if (lam[..., 0] < -RLD_PSD_TOL * np.maximum(1.0, np.sqrt((lam * lam).sum(axis=-1)))).any():
        raise ValueError(f"RLD Fisher matrix not PSD: min eigenvalue {lam.min():.3e}")
    return QFisherMatrix.from_complex(j, "RLD")


def classical_fisher(point: ClassicalFamilyPoint) -> QFisherMatrix:
    """J_ij = sum_x d_i p(x) d_j p(x) / p(x), skipping dead outcomes."""
    p = point.probs
    s = point.scores
    live = p > 1e-15
    dead_scored = (~live) & (np.max(np.abs(s), axis=-2) > 1e-12)
    if np.any(dead_scored):
        *member, idx = np.argwhere(dead_scored)[0]
        raise SingularFamilyError(
            f"outcome {idx} has zero probability but score {s[(*member, slice(None), idx)]}"
        )
    sl = s / np.where(live, p, np.inf)[..., None, :]
    j = sl @ s.swapaxes(-1, -2)
    return QFisherMatrix(point.m, j, np.zeros_like(j), "classical")


def finite_difference_tangents(evaluator, theta, step: float) -> FamilyPoint:
    """FamilyPoint by central differences of a theta -> rho_theta matrix evaluator; decomposes the centre only."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    tangents = [(evaluator(theta + h) - evaluator(theta - h)) / (2.0 * step) for h in step * np.eye(len(theta))]
    return FamilyPoint(theta, DensityMatrix(evaluator(theta)), tangents)  # FamilyPoint takes their Hermitian parts
