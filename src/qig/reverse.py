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

from .channels import Ensemble, as_rng, child_rng
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidCandidateError,
    NotReverseEstimableError,
    RankDeficiencyError,
)
from .fisher import ClassicalFamilyPoint, QFisherMatrix, classical_fisher, rld, rld_fisher
from .linalg import RANK_TOL, frob, frob_each, herm, spabs
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
        return self.ensemble.mix(self.scores[i] * self.ensemble.weights)


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
    """Check the simulation constraints and the Fisher gap J - J^R >= 0."""
    ens = candidate.ensemble
    rho_res = frob(ens.mix(ens.weights) - point.rho.mat)
    tan_res = max(
        frob(candidate.tangent(i) - point.tangents[i]) for i in range(candidate.m)
    )
    if rho_res > RESIDUAL_CAP or tan_res > RESIDUAL_CAP:
        raise InvalidCandidateError(rho_res, tan_res)
    j = input_fisher(candidate)
    jr = rld_fisher(point)
    gap = float(np.min(np.linalg.eigvalsh(j.as_complex() - jr.as_complex())))
    return ReverseEstimateReport(rho_res, tan_res, j, gap)


def random_valid_lre(point: FamilyPoint, seed=0) -> LocalReverseEstimate:
    """Randomized valid (generally suboptimal) local reverse estimate.

    Draws a random co-isometry V (d x d'' with VV^dag = I, d'' = d^2 + 3), takes
    ensemble columns U Lam^(1/2) v_x (rho = U Lam U^dag), and solves the linear
    system sum_x lambda_x v_x v_x^dag = A = Lam^(-1/2) U^dag drho U Lam^(-1/2) for
    real scores, adding a random null-space component to move inside the constraint manifold.
    """
    if point.m != 1:
        raise ValueError("randomized LRE generator covers 1-dim families")
    if not point.rho.is_full_rank():
        raise RankDeficiencyError("local reverse estimation requires a full-rank state")
    rng = as_rng(seed)
    d = point.dim
    n = d * d + 3
    g = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    q, _ = np.linalg.qr(g)  # n x d, orthonormal columns
    v = q.conj().T  # d x n co-isometry
    w, u = point.rho.eig
    a = herm(point.tangents_eig[0] / np.sqrt(w[:, None] * w))
    # real linear system: sum_x lam_x Re/Im (v_x v_x^dag) = Re/Im A
    outer = np.einsum("ix,jx->xij", v, v.conj())  # n of (d x d)
    design = np.concatenate(
        [outer.real.reshape(n, -1).T, outer.imag.reshape(n, -1).T], axis=0
    )
    target = np.concatenate([a.real.ravel(), a.imag.ravel()])
    lam0, *_ = np.linalg.lstsq(design, target, rcond=None)
    _, sv, vt = np.linalg.svd(design, full_matrices=True)
    rank = int(np.sum(sv > sv[0] * 1e-12))
    null = vt[rank:].T  # n x nullity
    lam = lam0 + null @ rng.normal(scale=1.0, size=null.shape[1]) if null.shape[1] else lam0
    res = frob(np.einsum("x,xij->ij", lam, outer) - a)
    if res > 1e-8 * max(1.0, frob(a)):
        # fall back to the exact min-norm solution
        lam = lam0
    return LocalReverseEstimate(Ensemble.from_columns(u @ (np.sqrt(w)[:, None] * v)), lam[None, :], point.theta)


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
    if np.min(np.linalg.eigvalsh(g)) < -1e-10:
        raise ValueError("weight matrix must be PSD")
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


# min_trace_oracle stops once value - dual <= ORACLE_GAP_TOL * max(1, |value|).
ORACLE_GAP_TOL = 1e-10
# qig bound requires |oracle value - reverse bound| <= ORACLE_REL_TOL * |reverse bound|.
ORACLE_REL_TOL = 1e-3
_PATH_STEP = 20.0  # growth of the barrier weight t between centerings
_PATH_CAP = 20  # centerings before ConvergenceError
_CENTER_CAP = 50  # Newton steps per centering
_CENTER_TOL = 1e-4  # squared Newton decrement of a centered point


@dataclass(eq=False)
class OracleResult:
    value: float  # Tr G S at a strictly feasible S: an upper bound
    dual: float  # dual objective at a feasible Z: a lower bound
    gap: float  # value - dual
    minimizer: np.ndarray  # the real symmetric S


def _center(x, t, cost, m0, basis):
    """Damped Newton steps for min t Re Tr(C M) - log det M, M = m0 + sum_p x_p E_p.

    With M = L L^dag, each Newton system is solved as least squares in
    the scaled space M -> L^-1 M L^-dag, whose conditioning is cond(M)
    rather than its square.  The damped step 1/(1 + decrement) keeps M
    positive definite (self-concordance).  Stops when centered, or when
    the decrement no longer falls because rounding dominates it.
    """
    if not len(basis):
        return x
    eye = np.eye(len(m0))
    l, prev = np.linalg.cholesky(m0 + np.tensordot(x, basis, 1)), np.inf
    for _ in range(_CENTER_CAP):
        li = np.linalg.inv(l)
        a = li @ basis @ li.conj().T
        a = np.concatenate([a.real, a.imag], axis=1).reshape(len(a), -1).T
        b = eye - t * (l.conj().T @ cost @ l)
        step = np.linalg.lstsq(a, np.concatenate([b.real, b.imag]).ravel(), rcond=None)[0]
        dec = float(np.sum((a @ step) ** 2))
        if dec <= _CENTER_TOL or (prev < 1e-3 and dec > 0.25 * prev):
            break
        prev, x_new = dec, x + step / (1.0 + np.sqrt(dec))
        try:
            l = np.linalg.cholesky(m0 + np.tensordot(x_new, basis, 1))
        except np.linalg.LinAlgError:
            break
        x = x_new
    return x


def min_trace_oracle(jr: QFisherMatrix, g: np.ndarray, seed: int = 0, restarts: int = 1) -> OracleResult:
    """Certified value of min{Tr G S : S real symmetric, S - J^R >= 0}.

    Log-barrier path following (Boyd & Vandenberghe, Convex Optimization,
    ch. 11) on this problem and on its dual
    max{Tr G ReJ^R - Tr(B ImJ^R) : G + iB >= 0, B real antisymmetric},
    the weight t of both barriers growing by _PATH_STEP per centering.
    Both iterates stay strictly feasible, so `value` bounds the minimum
    from above and `dual` from below.  Returns once 0 <= gap <= tol =
    ORACLE_GAP_TOL * max(1, |value|) and the rounding bound of `value`
    is below tol too; raises ConvergenceError after _PATH_CAP centerings.
    A singular G (lambda_min <= RANK_TOL lambda_max) leaves the dual no
    interior point, so Z = G (dual Tr G ReJ^R) is kept; the primal path
    then runs off along ker G, and unless ker G is spanned by coordinate
    axes its rounding usually ends in ConvergenceError.  The method is
    deterministic: `seed` and `restarts` are accepted and unused.
    """
    m = jr.m
    g = _checked_weight(g, m)
    jc = jr.as_complex()
    iu = np.triu_indices(m)
    k = np.arange(len(iu[0]))
    sym = np.zeros((len(k), m, m))
    sym[k, iu[0], iu[1]] = sym[k, iu[1], iu[0]] = 1.0
    off = sym[iu[0] != iu[1]]
    anti = np.triu(off) - np.tril(off)  # basis of B = Im Z
    lam = np.linalg.eigvalsh(g)
    if lam[0] <= RANK_TOL * lam[-1]:
        anti = anti[:0]
    x = (jr.real_part + max(1.0, frob(jc)) * np.eye(m))[iu]
    y = np.zeros(len(anti))
    base = float(np.trace(g @ jr.real_part))
    t = 1.0 / max(1.0, frob(jc))
    for _ in range(_PATH_CAP):
        x = _center(x, t, g, -jc, sym)
        y = _center(y, t, -1j * jr.imag_part, g, 1j * anti)
        s, b = np.tensordot(x, sym, 1), np.tensordot(y, anti, 1)
        value, dual = float(np.sum(g * s)), base + float(np.sum(b * jr.imag_part))
        # rounding of Tr G S and of the Cholesky test of S - J^R (componentwise
        # ~ eps sqrt(a_i a_j), a = diag(S - ReJ^R)); large when S runs off along ker G
        a = np.sqrt(np.clip(np.diag(s) - np.diag(jr.real_part), 0.0, None))
        err = m * m * np.finfo(float).eps * float(np.sum(np.abs(g) * (np.abs(s) + np.outer(a, a))))
        tol = ORACLE_GAP_TOL * max(1.0, abs(value))
        if err <= tol and 0.0 <= value - dual <= tol:
            return OracleResult(value, dual, value - dual, s)
        t *= _PATH_STEP
    raise ConvergenceError(
        f"min-trace oracle: gap {value - dual:.3e} (rounding bound {err:.3e}) after "
        f"{_PATH_CAP} centerings (tolerance {ORACLE_GAP_TOL:.0e} * max(1, |value|))"
    )
