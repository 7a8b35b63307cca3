"""Local and global reverse estimation, and multiparameter bounds.

A local reverse estimate simulates a 1-dim state family at a point, to
first order, by a classical family pushed through a state-preparation
(CQ) map.  The optimal construction diagonalizes the reverse SLD
A = rho^(-1/2) drho rho^(-1/2) and achieves input Fisher information
equal to the RLD Fisher information; any other valid construction needs
at least that much.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Ensemble, child_rng
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidCandidateError,
    NotReverseEstimableError,
    RankDeficiencyError,
)
from .fisher import ClassicalFamilyPoint, QFisherMatrix, classical_fisher, rld, rld_fisher
from .linalg import RANK_TOL, frob, frob_each, herm, spabs, support_mask
from .states import FamilyPoint


def __getattr__(name):
    """``minimize`` on first use (PEP 562), so that importing qig loads no scipy.

    Nothing in qig calls it: only the benchmark tracer reads and rebinds
    ``qig.reverse.minimize`` to count oracle calls.  This shim goes together
    with the tracer's ``_count_minimize`` (ROADMAP item 5).
    """
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(eq=False)
class LocalReverseEstimate:
    """Ensemble plus per-parameter scores lambda_{i,x} at theta0 (stacks lead, as in the ensemble)."""

    ensemble: Ensemble
    scores: np.ndarray  # shape (..., m, n_components)
    theta0: np.ndarray

    def __post_init__(self):
        self.scores = np.atleast_2d(np.asarray(self.scores, dtype=float))
        self.theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=float))
        if self.scores.shape[-1] != self.ensemble.size:
            raise DimensionMismatchError("score length does not match ensemble size")
        mean = (self.scores @ self.ensemble.weights[..., None])[..., 0]
        if np.max(np.abs(mean), initial=0.0) > 1e-10:
            raise ValueError(f"weighted scores must sum to 0 per parameter, got {mean}")

    @property
    def m(self) -> int:
        return self.scores.shape[-2]

    def tangent(self, i: int = 0) -> np.ndarray:
        """sum_x lambda_{i,x} p(x) |phi_x><phi_x|."""
        return self.ensemble.mix(self.scores[..., i, :] * self.ensemble.weights)


def local_reverse_estimate(point: FamilyPoint) -> LocalReverseEstimate:
    """Optimal local reverse estimation of a 1-dim family at theta0.

    Diagonalize A = rho^(-1/2) drho rho^(-1/2) in the eigenbasis of rho = U Lam U^dag,
    Lam^(-1/2) X~ Lam^(-1/2) = V diag(a) V^dag; the ensemble columns are U Lam^(1/2) V
    with weights their squared norms and scores a.  Input Fisher equals J^R.
    """
    if point.m != 1:
        raise ValueError("local reverse estimation is defined for 1-dim families")
    if not point.rho.is_full_rank():
        raise RankDeficiencyError("local reverse estimation requires a full-rank state")
    w, u = point.rho.eig
    lam, v = np.linalg.eigh(point.tangents_eig[0] / np.sqrt(w[..., :, None] * w[..., None, :]))
    cols = u @ (np.sqrt(w)[..., :, None] * v)
    return LocalReverseEstimate(Ensemble.from_columns(cols), lam[..., None, :], point.theta)


def input_fisher(lre: LocalReverseEstimate) -> QFisherMatrix:
    """Classical Fisher matrix of the simulating input family at theta0, whose d_i p(x) = lambda_{i,x} p(x)."""
    p = lre.ensemble.weights
    return classical_fisher(ClassicalFamilyPoint(lre.theta0, p, lre.scores * p[..., None, :]))


# validate_reverse_estimate refuses a candidate whose state or tangent residual exceeds RESIDUAL_CAP.
RESIDUAL_CAP = 1e-6


@dataclass(eq=False)
class ReverseEstimateReport:
    rho_residual: float
    tangent_residual: float
    input_fisher: QFisherMatrix
    gap: float  # min eigenvalue of J - J^R; scalar difference for m = 1


def validate_reverse_estimate(candidate: LocalReverseEstimate, point: FamilyPoint) -> ReverseEstimateReport:
    """Check the simulation constraints and the Fisher gap J - J^R >= 0, at the worst member of a stack."""
    ens = candidate.ensemble
    rho_res = float(frob_each(ens.mix(ens.weights) - point.rho.mat).max())
    tan_res = max(float(frob_each(candidate.tangent(i) - point.tangents[i]).max()) for i in range(candidate.m))
    if rho_res > RESIDUAL_CAP or tan_res > RESIDUAL_CAP:
        raise InvalidCandidateError(rho_res, tan_res)
    j = input_fisher(candidate)
    jr = rld_fisher(point)
    gap = float(np.min(np.linalg.eigvalsh(j.as_complex() - jr.as_complex())))
    return ReverseEstimateReport(rho_res, tan_res, j, gap)


# --- global reverse estimation ----------------------------------------------

# global_reverse_estimate refuses grids whose max RLD commutator exceeds COMMUTATION_TOL * max(1, max ||L||_F)^2.
COMMUTATION_TOL = 1e-8


def _grid_commutation(points: list[FamilyPoint]) -> tuple[float, float]:
    """(max ||[L_a, L_b]||_F, max ||L_a||_F) over the grid's RLDs: one rld() per full-rank point, marked checked."""
    ls = []
    for pt in points:
        if not pt.rho.is_full_rank():
            raise RankDeficiencyError("global reverse estimation requires full-rank states")
        ls.extend(rld(pt.rho, pt.tangents))
        pt.rld_checked = True
    norm = max((frob(a @ b - b @ a) for i, a in enumerate(ls) for b in ls[i:]), default=0.0)
    return norm, max(map(frob, ls), default=0.0)


def global_commutation_check(points: list[FamilyPoint]) -> float:
    """Max Frobenius norm of [L^R_{theta,i}, L^R_{theta',j}] over the grid."""
    return _grid_commutation(points)[0]


def _whiten(w: np.ndarray, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lam^(-1/2) U^dag X U Lam^(-1/2) in the eigenbasis of a full-rank rho = U diag(w) U^dag; X may be a stack."""
    return (u.conj().T @ x @ u) / np.sqrt(w[:, None] * w)


@dataclass(eq=False)
class GlobalReverseEstimate:
    """Shared ensemble plus one distribution per grid point, and W, the joint eigenbasis of the whitened states."""

    ensemble: Ensemble
    basis: np.ndarray = field(repr=False)
    theta_grid: np.ndarray
    distributions: np.ndarray  # shape (n_points, d)
    base_index: int
    commutator_norm: float  # max RLD commutator norm over the grid, as global_commutation_check


def global_reverse_estimate(
    points: list[FamilyPoint], base_index: int = 0, seed: int = 0
) -> GlobalReverseEstimate:
    """Exact simulation of a commuting family from a single shared ensemble.

    The whitened states M_theta = Lam^(-1/2) U^dag rho_theta U Lam^(-1/2), rho0 = U Lam U^dag,
    are diagonalized together by the eigenbasis W of a seeded random combination (up to 5
    fresh seeds).  The shared states are the normalized columns of U Lam^(1/2) W, and
    p_theta = diag(W^dag M_theta W) times their weights.  Refuses a grid that fails the
    commutation criterion, the diagonalization or the reconstruction of a state.
    """
    norm, scale = _grid_commutation(points)
    if norm > COMMUTATION_TOL * max(1.0, scale) ** 2:
        raise NotReverseEstimableError(norm)
    w, u = points[base_index].rho.eig
    rhos = np.array([pt.rho.mat for pt in points])
    ms = _whiten(w, u, rhos)
    for attempt in range(5):
        c = child_rng(seed, attempt).normal(size=len(ms))
        _, wv = np.linalg.eigh(herm(np.tensordot(c, ms, 1)))
        mt = wv.conj().T @ ms @ wv
        off = frob_each(mt * (1.0 - np.eye(len(w)))) / np.maximum(1.0, frob_each(ms))
        if off.max() <= 1e-8:
            break
    else:
        raise NotReverseEstimableError(norm)
    ens = Ensemble.from_columns(u @ (np.sqrt(w)[:, None] * wv))
    dists = np.clip(np.diagonal(mt, axis1=-2, axis2=-1).real * ens.weights, 0.0, None)
    dists /= dists.sum(axis=1, keepdims=True)
    if frob_each(ens.mix(dists) - rhos).max() > 1e-8:  # reconstruction check at every grid point
        raise NotReverseEstimableError(norm)
    return GlobalReverseEstimate(ens, wv, np.array([pt.theta for pt in points]), dists, base_index, norm)


def restricted_input_fisher(gre: GlobalReverseEstimate, point: FamilyPoint, points: list[FamilyPoint]) -> QFisherMatrix:
    """Classical Fisher of the simulating input family at one grid point.

    Scores follow from linearity: d_i p(x) = p0(x) (W^dag B_i W)_xx, with
    p0 the ensemble weights and B_i the tangent X_i whitened as M_theta.
    """
    k = next((i for i, pt in enumerate(points) if np.array_equal(pt.theta, point.theta)), None)
    if k is None:
        raise DimensionMismatchError(f"theta = {point.theta.tolist()} is not a point of the grid")
    bt = gre.basis.conj().T @ _whiten(*points[gre.base_index].rho.eig, point.tangents) @ gre.basis
    scores = np.diagonal(bt, axis1=-2, axis2=-1).real * gre.ensemble.weights
    return classical_fisher(ClassicalFamilyPoint(point.theta, gre.distributions[k], scores))


# --- multiparameter bounds ---------------------------------------------------


@dataclass(eq=False)
class MultiparamBounds:
    reverse: float
    estimation: float


def _checked_weight(g, m: int) -> np.ndarray:
    g = np.asarray(g)
    if np.any(g.imag):
        raise ValueError(f"weight has a nonzero imaginary part, max |Im G| = {np.abs(g.imag).max():.3e}")
    g = np.asarray(g.real, dtype=float)
    if g.shape != (m, m):
        raise DimensionMismatchError(f"weight shape {g.shape} vs m = {m}")
    g = 0.5 * (g + g.T)
    lam = np.linalg.eigvalsh(g)
    if lam[0] < -RANK_TOL * lam[-1]:  # the cut below which min_trace_oracle counts an eigenvalue of G as 0
        raise ValueError(f"weight matrix must be PSD: min eigenvalue {lam[0]:.3e}, max {lam[-1]:.3e}")
    return g


def multiparam_bounds(jr: QFisherMatrix, g: np.ndarray) -> MultiparamBounds:
    """Weighted reverse-estimation and estimation bounds from J^R.

    reverse = Tr G ReJ^R + Spabs(G, ImJ^R);
    estimation = Tr G ReJ^R - Spabs(G, ImJ^R).
    """
    g = _checked_weight(g, jr.m)
    base = float(np.trace(g @ jr.real_part))
    skew = spabs(g, jr.imag_part)
    return MultiparamBounds(base + skew, base - skew)


# min_trace_oracle certifies value - dual <= ORACLE_GAP_TOL * max(1, |value|).
ORACLE_GAP_TOL = 1e-10
# qig bound requires |oracle value - reverse bound| <= ORACLE_REL_TOL * |reverse bound|: ten times
# ORACLE_GAP_TOL, since the certified bracket holds the closed form and is at most that wide.
ORACLE_REL_TOL = 1e-9


@dataclass(eq=False)
class OracleResult:
    value: float  # Tr G S at a feasible S: an upper bound
    dual: float  # Tr Z J^R at a feasible Z, less the primal's margin: a lower bound
    gap: float  # value - dual
    minimizer: np.ndarray  # the real symmetric S
    attained: bool  # False when ImJ^R couples range(G) to ker G: S_kk then grows like 1/delta


def _certificate(d: np.ndarray, jf: np.ndarray):
    """(S, Z, delta) in G's frame, J^R = ReJ + iK there, D = diag(d) = sqrt(G) on range(G).

    H = D iK_rr D.  Dual Z = D (I + sgn H) D on range(G).  Primal S_rr = ReJ_rr +
    D^-1 (|H| + delta I) D^-1, S_rk = ReJ_rk and S_kk = ReJ_kk + c I, delta a margin over rounding.
    """
    r, dd = len(d), d[:, None] * d
    lam, v = np.linalg.eigh(1j * dd * jf.imag[:r, :r])
    delta = 2.0**10 * float(np.finfo(float).eps) * max(frob(dd * jf[:r, :r]), np.finfo(float).tiny)
    # H's rounding-level eigenvalues (one for odd r, K being antisymmetric) get sgn 0, or Re Z misses G
    sgn = np.sign(lam) * (np.abs(lam) > RANK_TOL * np.abs(lam).max(initial=0.0))
    z = np.zeros_like(jf)
    z[:r, :r] = dd * (np.eye(r) + (v * sgn) @ v.conj().T)
    s = jf.real.copy()
    s[:r, :r] += (((v * np.abs(lam)) @ v.conj().T).real + delta * np.eye(r)) / dd
    # c - ||K_kk|| >= 2 ||D K_rk||^2 / delta: the Schur complement of S - J^R on range(G) keeps delta / 2
    c = 2.0 * frob(d[:, None] * jf.imag[:r, r:]) ** 2 / delta + 2.0 * frob(jf[r:, r:]) + delta
    s[r:, r:] += c * np.eye(len(jf) - r)
    return s, z, delta


def min_trace_oracle(jr: QFisherMatrix, g: np.ndarray, seed: int = 0, restarts: int = 1) -> OracleResult:
    """Certified value of min{Tr G S : S real symmetric, S - J^R >= 0}; `seed` and `restarts` are unused.

    Returns _certificate's pair only after three checks in G's frame: S - J^R >= 0 (for a singular
    G, S_kk - J_kk > 0 and the Schur complement on range(G)); Z >= 0 and Re Z = G; and
    0 <= value - dual <= ORACLE_GAP_TOL max(1, |value|), else raises ConvergenceError.  Weak
    duality, Tr G S = Tr Z S >= Tr Z J^R, then brackets the minimum: Holevo's RLD bound
    (multiparam_bounds; Boyd & Vandenberghe, Convex Optimization, 5.2 and A.5.5).  Eigenvalues
    of G below the RANK_TOL cut count as 0.
    """
    w, q = np.linalg.eigh(_checked_weight(g, jr.m))
    w, q = w[::-1], q[:, ::-1]  # G = Q diag(w) Q^T with range(G) first, r = rank G
    r, jf = int(support_mask(w).sum()), q.T @ jr.as_complex() @ q
    d = np.sqrt(w[:r])
    s, z, delta = _certificate(d, jf)
    mm, tol = s - jf, jr.m * RANK_TOL * frob(w)
    schur = d[:, None] * (mm[:r, :r] - mm[:r, r:] @ np.linalg.solve(mm[r:, r:], mm[r:, :r])) * d
    value, dual = float(w[:r] @ np.diag(s)[:r]), float(np.vdot(jf, z).real) - delta * r
    psd = min(np.linalg.eigvalsh(mm[r:, r:]).min(initial=1.0), np.linalg.eigvalsh(schur).min(initial=1.0))
    failed = [name for name, bad in (
        ("S - J^R >= 0", psd <= 0.0),
        ("Z >= 0", np.linalg.eigvalsh(z)[0] < -tol),
        ("Re Z = G", frob(z.real - np.diag(w)) > tol),
        ("gap", not 0.0 <= value - dual <= ORACLE_GAP_TOL * max(1.0, abs(value))),
    ) if bad]
    if failed:
        raise ConvergenceError(f"min-trace certificate failed {failed}: value {value!r}, dual {dual!r}")
    s = q @ s @ q.T
    attained = bool(frob(jf.imag[:r, r:]) <= RANK_TOL * frob(jf))
    return OracleResult(value, dual, value - dual, 0.5 * (s + s.T), attained)
