"""Classical and quantum divergences, and exact two-point reverse estimation.

Support violations are signalled by returning math.inf (a distinguished
value rather than an exception) so randomized suites can count them.
kl, umegaki, rld_divergence and two_point_reverse_estimate also take
stacks (of distributions or DensityMatrix members) and then give one
value per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import Ensemble
from .errors import RankDeficiencyError
from .linalg import frob
from .states import DensityMatrix, check_traces

# Absolute agreement (nats) the divergence report requires of the integral form and the two-point KL with D^R.
INTEGRAL_TOL = 1e-5
TWO_POINT_TOL = 1e-9


def _inf_where(off_support, value):
    """value, inf where off_support: a float for one instance, an array for a stack."""
    if np.ndim(value) == 0:
        return math.inf if off_support else float(value)
    return np.where(off_support, math.inf, value)


def kl(p, q) -> float:
    """Kullback-Leibler divergence sum p ln(p/q) in nats; inf off-support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    live = p > 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(live, p * (np.log(np.where(live, p, 1.0)) - np.log(q)), 0.0)
    return _inf_where(np.any(live & (q <= 1e-300), axis=-1), terms.sum(axis=-1))


def _support_violation(rho: DensityMatrix, sigma: DensityMatrix):
    return linalg.support_leak(rho.mat, *sigma.eig)[0] > linalg.SUPPORT_TOL


def umegaki(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Relative entropy Tr rho (log rho - log sigma), on supports, in nats."""
    w = rho.eig.eigenvalues
    entropy = (w * linalg.on_support(np.log, w)).sum(axis=-1)
    value = entropy - np.einsum("...ab,...ba->...", rho.mat, sigma.func(np.log)).real
    return _inf_where(_support_violation(rho, sigma), value)


def rld_divergence(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Tr rho log(rho^(1/2) sigma^(-1) rho^(1/2)) with the log on supp rho, in the eigenbasis of rho.

    B = Lam^(1/2) (U_rho^dag U_sigma) diag(mu^+)^(1/2) on supp rho x supp sigma, B B^dag = W diag(tau) W^dag:
    D^R = sum_a lam_a sum_k |W_ak|^2 log tau_k.  Only rho's and sigma's own spectra are cut: every positive tau
    enters the log, however small against the largest.  A tau <= 0 adds nothing: it comes from a zero row of B
    (off supp rho, or a direction of supp rho in ker sigma whose leak is below SUPPORT_TOL) or from rounding.
    """
    (lam, u_r), (mu, u_s) = rho.eig, sigma.eig
    b = linalg.on_support(np.sqrt, lam)[..., :, None] * (u_r.conj().swapaxes(-1, -2) @ u_s)
    b = b * np.sqrt(linalg.on_support(np.reciprocal, mu))[..., None, :]
    tau, wv = linalg.eig_hermitian(b @ b.conj().swapaxes(-1, -2))
    value = np.einsum("...a,...ak,...k->...", lam, np.abs(wv) ** 2, np.log(np.where(tau > 0, tau, 1.0)))
    return _inf_where(_support_violation(rho, sigma), value)


def rld_divergence_integral(
    rho: DensityMatrix, sigma: DensityMatrix, steps: int = 4000
) -> float:
    """Metric-integral form int_0^1 (1 - s) J^R_s ds, J^R_s = Tr X rho_s^(-1) X, on rho_s = s rho + (1-s) sigma.

    Composite trapezoid on [eps, 1 - eps], eps = 1/(2 steps), plus constant extrapolation over the clipped
    end strips: steps + 1 evaluations, on one decomposition of the pencil.  With sigma = U diag(mu) U^dag on
    its support and T = diag(mu)^(-1/2) U^dag rho U diag(mu)^(-1/2) = W diag(t) W^dag, by congruence
    J^R_s = sum_k (t_k - 1)^2 q_k / (s t_k + 1 - s), q_k = sum_a mu_a |W_ak|^2: O(d) per node.  Every node
    must have trace 1 within TRACE_TOL and positive whitened eigenvalues s t_k + 1 - s (else ValueError).
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if _support_violation(rho, sigma):
        return math.inf
    if frob(rho.mat - sigma.mat) < 1e-14:
        return 0.0
    eps = 1.0 / (2.0 * steps)
    grid = np.linspace(eps, 1.0 - eps, steps + 1)
    check_traces(grid * np.trace(rho.mat).real + (1.0 - grid) * np.trace(sigma.mat).real)
    mu, u = sigma.eig
    sup = linalg.support_mask(mu)
    mu, us = mu[sup], u[:, sup] / np.sqrt(mu[sup])
    t, wv = linalg.eig_hermitian(us.conj().T @ rho.mat @ us)
    den = grid[:, None] * t + (1.0 - grid)[:, None]
    if den.min() <= 0.0:
        raise ValueError(f"a mixture node is not positive definite on supp sigma: whitened eigenvalue {den.min():.3e}")
    vals = (1.0 - grid) * ((t - 1.0) ** 2 * (mu @ np.abs(wv) ** 2) / den).sum(axis=1)
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
        if self.p_rho.shape[-1] != self.ensemble.size or self.p_sigma.shape[-1] != self.ensemble.size:
            raise ValueError("distribution length does not match ensemble size")

    def input_kl(self) -> float:
        return kl(self.p_rho, self.p_sigma)


def two_point_reverse_estimate(rho: DensityMatrix, sigma: DensityMatrix) -> TwoPointReverseEstimate:
    """Minimal exact simulation of the pair (rho, sigma), in the eigenbasis of sigma.

    Diagonalize T = diag(mu^(-1/2)) U^dag rho U diag(mu^(-1/2)) = W diag(t) W^dag,
    sigma = U diag(mu) U^dag; the shared states are the normalized columns
    of U diag(mu^(1/2)) W with sigma-weights their squared norms and
    rho-weights scaled by t.  The input KL equals the RLD divergence.
    """
    if not sigma.is_full_rank():
        raise RankDeficiencyError("two-point reverse estimation requires full-rank sigma")
    mu, u = sigma.eig
    d_x, wv = np.linalg.eigh((u.conj().swapaxes(-1, -2) @ rho.mat @ u) / np.sqrt(mu[..., :, None] * mu[..., None, :]))
    ens = Ensemble.from_columns(u @ (np.sqrt(mu)[..., :, None] * wv))
    p_rho = np.clip(d_x, 0.0, None) * ens.weights
    return TwoPointReverseEstimate(ens, p_rho / p_rho.sum(axis=-1, keepdims=True), ens.weights)
