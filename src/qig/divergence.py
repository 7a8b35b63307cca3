"""Classical and quantum divergences, and exact two-point reverse estimation.

Support violations are signalled by returning math.inf (a distinguished
value rather than an exception) so randomized suites can count them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import Ensemble
from .errors import RankDeficiencyError
from .linalg import frob, herm
from .states import DensityMatrix, check_states

# Matrix entries per stacked block of rld_divergence_integral's grid
# (2**18 complex entries = 4 MiB per array); bounds its memory at large d.
INTEGRAL_BLOCK_ENTRIES = 1 << 18


def kl(p, q) -> float:
    """Kullback-Leibler divergence sum p ln(p/q) in nats; inf off-support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    live = p > 1e-15
    if np.any(q[live] <= 1e-300):
        return math.inf
    return float(np.sum(p[live] * (np.log(p[live]) - np.log(q[live]))))


def _support_violation(rho: DensityMatrix, sigma: DensityMatrix, rank_tol: float) -> bool:
    return linalg.support_leak(rho.mat, *sigma.eig, rank_tol)[0] > linalg.SUPPORT_TOL


def umegaki(rho: DensityMatrix, sigma: DensityMatrix, rank_tol: float = linalg.RANK_TOL) -> float:
    """Relative entropy Tr rho (log rho - log sigma), on supports, in nats."""
    if _support_violation(rho, sigma, rank_tol):
        return math.inf
    w, _ = rho.eig
    sup = w >= rank_tol * np.max(w)
    ent = float(np.sum(w[sup] * np.log(w[sup])))
    log_sigma = sigma.func("log", rank_tol)
    return ent - float(np.trace(rho.mat @ log_sigma).real)


def rld_divergence(rho: DensityMatrix, sigma: DensityMatrix, rank_tol: float = linalg.RANK_TOL) -> float:
    """Tr rho log(rho^(1/2) sigma^(-1) rho^(1/2)) with the log on supp rho."""
    if _support_violation(rho, sigma, rank_tol):
        return math.inf
    rp = rho.func("sqrt", rank_tol)
    sig_inv = sigma.func("inverse", rank_tol)
    t = herm(rp @ sig_inv @ rp)
    log_t = linalg.matrix_function(t, "log", rank_tol)
    return float(np.trace(rho.mat @ log_t).real)


def rld_divergence_integral(
    rho: DensityMatrix, sigma: DensityMatrix, steps: int = 4000
) -> float:
    """Metric-integral form: int_0^1 (1 - s) J^R_s ds on the mixture curve.

    The mixture family is rho_s = s rho + (1-s) sigma with tangent
    rho - sigma; the scalar RLD Fisher information is
    J^R_s = Tr X rho_s^(-1) X.  Composite trapezoid on
    [eps, 1 - eps] with eps = 1/(2 steps) plus constant one-sided
    extrapolation for the clipped end strips.  The steps + 1 grid states
    are decomposed as stacks of at most INTEGRAL_BLOCK_ENTRIES matrix
    entries; each state must pass the DensityMatrix checks (check_states)
    and is inverted on its own RANK_TOL support.
    """
    if _support_violation(rho, sigma, linalg.RANK_TOL):
        return math.inf
    x = rho.mat - sigma.mat
    if frob(x) < 1e-14:
        return 0.0
    eps = 1.0 / (2.0 * steps)
    grid = np.linspace(eps, 1.0 - eps, steps + 1)
    xx = x @ x
    vals = np.empty_like(grid)
    per = max(1, INTEGRAL_BLOCK_ENTRIES // x.size)
    for a in range(0, grid.size, per):
        s = grid[a:a + per, None, None]
        mix = herm(s * rho.mat + (1.0 - s) * sigma.mat)
        inv = linalg.spectral_function(*check_states(mix), "inverse")
        # J^R_s = Tr X inv X = Tr inv (X X)
        vals[a:a + per] = (1.0 - s[:, 0, 0]) * np.einsum("kjl,lj->k", inv, xx).real
    h = grid[1] - grid[0]
    core = h * (np.sum(vals) - 0.5 * (vals[0] + vals[-1]))
    return float(core + eps * (vals[0] + vals[-1]))


@dataclass(eq=False)
class TwoPointReverseEstimate:
    """Shared ensemble with one input distribution per state."""

    ensemble: Ensemble
    p_rho: np.ndarray
    p_sigma: np.ndarray

    def __post_init__(self):
        self.p_rho = np.asarray(self.p_rho, dtype=float)
        self.p_sigma = np.asarray(self.p_sigma, dtype=float)
        if self.p_rho.shape[0] != self.ensemble.size or self.p_sigma.shape[0] != self.ensemble.size:
            raise ValueError("distribution length does not match ensemble size")

    def reconstruct(self, which: str) -> np.ndarray:
        return self.ensemble.mix(self.p_rho if which == "rho" else self.p_sigma)

    def input_kl(self) -> float:
        return kl(self.p_rho, self.p_sigma)


def two_point_reverse_estimate(rho: DensityMatrix, sigma: DensityMatrix) -> TwoPointReverseEstimate:
    """Minimal exact simulation of the pair (rho, sigma).

    Diagonalize T = sigma^(-1/2) rho sigma^(-1/2); the shared states are
    the normalized columns of sigma^(1/2) U with sigma-weights their
    squared norms and rho-weights scaled by the eigenvalues of T.  The
    input KL equals the RLD divergence.
    """
    if not sigma.is_full_rank():
        raise RankDeficiencyError("two-point reverse estimation requires full-rank sigma")
    sm = sigma.func(("power", -0.5))
    sp = sigma.func("sqrt")
    t = herm(sm @ rho.mat @ sm)
    d_x, u = np.linalg.eigh(t)
    ens = Ensemble.from_columns(sp @ u)
    p_rho = np.clip(d_x, 0.0, None) * ens.weights
    return TwoPointReverseEstimate(ens, p_rho / p_rho.sum(), ens.weights)


def split_two_point_estimate(
    tpre: TwoPointReverseEstimate, seed=0, n_splits: int = 3
) -> TwoPointReverseEstimate:
    """Non-minimal variant: randomly split components with uneven weight ratios.

    Each split duplicates a shared state and divides its rho- and
    sigma-weights with independent ratios, so both reconstructions are
    preserved while the input KL can only grow (log-sum inequality).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    states = list(tpre.ensemble.states)
    p_rho = list(tpre.p_rho)
    p_sigma = list(tpre.p_sigma)
    for _ in range(n_splits):
        x = int(rng.integers(len(states)))
        a = float(rng.uniform(0.2, 0.8))
        b = float(rng.uniform(0.2, 0.8))
        states.append(states[x])
        p_rho.append((1.0 - a) * p_rho[x])
        p_rho[x] *= a
        p_sigma.append((1.0 - b) * p_sigma[x])
        p_sigma[x] *= b
    p_sigma = np.asarray(p_sigma)
    return TwoPointReverseEstimate(
        Ensemble(p_sigma / p_sigma.sum(), states), np.asarray(p_rho), p_sigma
    )
