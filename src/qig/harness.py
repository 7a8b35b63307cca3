"""Randomized verification suites and the truncated Gaussian family.

The suites draw each trial's seeded Ginibre blocks with one normal call,
evaluate the metric/divergence sandwich and monotonicity checks once per
dimension on complex stacks of them, and collect slacks: a check "a <= b"
records the slack b - a; a violation is a slack not >= -tolerance (or NaN).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channels import (
    apply_channel, child_rng, density_from, family_point_from, ginibre_split, kraus_from, measure,
    optimal_sld_povm, povm_from,
)
from .divergence import rld_divergence, two_point_reverse_estimate, umegaki
from .errors import QigError, TruncationError
from .fisher import classical_fisher, finite_difference_tangents, km_fisher, rld_fisher, sld_fisher
from .linalg import herm
from .reverse import input_fisher, local_reverse_estimate, multiparam_bounds
from .states import DensityMatrix, FamilyPoint

METRIC_SLACK_TOL = 1e-8
GAUSSIAN_REL_TOL = 1e-2
# gaussian_family refuses a truncation whose raw trace leaves [1 - LEAKAGE_TOL, 1 + LEAKAGE_TOL].
LEAKAGE_TOL = 5e-3

# Phase convention chosen so that Im J^R comes out as [[0, -h/2], [h/2, 0]]
# (up to the prefactor) under the index convention J_ij = Tr rho L_j^dag L_i.
COHERENT_CONVENTION = "alpha = (q - i p) / sqrt(2 hbar), number basis truncated at N"


@dataclass(eq=False)
class SuiteReport:
    suite: str
    master_seed: int
    trials: int
    slack_range: dict  # check name -> (min slack, max slack)
    violations: list  # (trial index, check name, slack)
    passed: bool
    details: dict = field(default_factory=dict)

    @classmethod
    def build(cls, suite, master_seed, trials, slacks, tol, details=None):
        slack_range = {
            name: (float(np.min(v)), float(np.max(v))) for name, v in slacks.items() if len(v)
        }
        violations = [
            (int(t), name, float(v[t]))
            for name, v in slacks.items()
            for t in np.flatnonzero(~(np.asarray(v) >= -tol))  # NaN too
        ]
        return cls(suite, master_seed, trials, slack_range, violations, not violations, details or {})


def _run_stacked(suite, trials, dims, seed, blocks, evaluate) -> SuiteReport:
    """Draw trial t from child_rng(seed, t): its dimension, then one normal row for the Ginibre `blocks(dim)`.

    Each dimension's rows become (trials, k, n, n) stacks in one split; `evaluate` returns {check: slacks},
    scattered back to the trials.  On a raise, the first trial that fails on its own is re-raised, named.
    """
    dims = [int(d) for d in dims]
    if trials < 1 or not dims or min(dims) < 2:
        raise ValueError(f"suites need trials >= 1 and every dim >= 2, got {trials} trials, dims {dims}")
    sizes = {dim: sum(2 * k * n * n for k, n in blocks(dim)) for dim in dims}
    groups, slacks = {}, {}
    for t in range(trials):
        rng = child_rng(seed, t)
        dim = dims[rng.integers(len(dims))]
        groups.setdefault(dim, {})[t] = rng.normal(size=sizes[dim])
    stacked = [(list(g), ginibre_split(np.stack(list(g.values())), blocks(dim))) for dim, g in groups.items()]
    try:
        values = [evaluate(*stacks) for _, stacks in stacked]
    except (QigError, ValueError):
        for t in range(trials):
            idx, stacks = next(g for g in stacked if t in g[0])
            try:
                evaluate(*(a[idx.index(t):idx.index(t) + 1] for a in stacks))
            except (QigError, ValueError) as exc:
                exc.args = (f"trial {t}: {exc}",)
                raise
        raise
    for (idx, _), checks in zip(stacked, values):
        for name, v in checks.items():
            slacks.setdefault(name, np.empty(trials))[idx] = v
    return SuiteReport.build(suite, seed, trials, slacks, METRIC_SLACK_TOL)


def _metric_checks(g_point, g_povm, g_channel) -> dict:
    point = family_point_from(g_point)
    js, jkm, jr = sld_fisher(point).scalar, km_fisher(point).scalar, rld_fisher(point).scalar
    jm = classical_fisher(measure(point, povm_from(g_povm))).scalar
    jopt = classical_fisher(measure(point, optimal_sld_povm(point))).scalar
    jin = input_fisher(local_reverse_estimate(point)).scalar
    image = apply_channel(point, kraus_from(g_channel[:, 0], point.dim))
    return {
        "km_minus_sld": jkm - js, "rld_minus_km": jr - jkm,
        "sld_minus_measured": js - jm, "optimal_povm_equality": -abs(jopt - js),
        "lre_equality": -abs(jin - jr),
        "cpt_sld": js - sld_fisher(image).scalar, "cpt_km": jkm - km_fisher(image).scalar,
        "cpt_rld": jr - rld_fisher(image).scalar,
    }


def monotone_metric_suite(trials: int, dims=(2, 3), seed: int = 42) -> SuiteReport:
    """Sandwich J^S <= J^KM <= J^R, measurement bound, LRE equality, CPT monotonicity."""
    # the draws of random_family_point(dim), random_povm(dim, 3) and random_kraus(dim)
    blocks = lambda dim: ((2, dim), (3, dim), (1, 2 * dim))
    return _run_stacked("monotone_metric", trials, dims, seed, blocks, _metric_checks)


def _divergence_checks(g_pair, g_channel, g_qubits) -> dict:
    rho, sigma = density_from(g_pair[:, 0]), density_from(g_pair[:, 1])
    du, dr = umegaki(rho, sigma), rld_divergence(rho, sigma)
    ch = kraus_from(g_channel[:, 0], rho.dim)
    rho_c, sigma_c = DensityMatrix(ch.apply(rho.mat)), DensityMatrix(ch.apply(sigma.mat))
    rho2, sigma2 = density_from(g_qubits[:, 0]), density_from(g_qubits[:, 1])
    n, d = len(rho.mat), 2 * rho.dim
    kron = lambda a, b: (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, d, d)  # member by member
    rho_t, sigma_t = DensityMatrix(kron(rho.mat, rho2.mat)), DensityMatrix(kron(sigma.mat, sigma2.mat))
    return {
        "rld_minus_umegaki": dr - du,
        "cpt_umegaki": du - umegaki(rho_c, sigma_c), "cpt_rld_div": dr - rld_divergence(rho_c, sigma_c),
        "additivity_umegaki": -abs(umegaki(rho_t, sigma_t) - du - umegaki(rho2, sigma2)),
        "additivity_rld_div": -abs(rld_divergence(rho_t, sigma_t) - dr - rld_divergence(rho2, sigma2)),
        "two_point_equality": -abs(two_point_reverse_estimate(rho, sigma).input_kl() - dr),
    }


def monotone_divergence_suite(trials: int, dims=(2, 3), seed: int = 43) -> SuiteReport:
    """Umegaki <= D^R, CPT monotonicity, additivity, and two-point achievability."""
    # the draws of rho and sigma (random_density(dim)), random_kraus(dim) and a qubit pair
    blocks = lambda dim: ((2, dim), (1, 2 * dim), (2, 2))
    return _run_stacked("monotone_divergence", trials, dims, seed, blocks, _divergence_checks)


# --- Fock-truncated Gaussian family ------------------------------------------


@dataclass
class GaussianSpec:
    sigma2: float = 1.0
    hbar: float = 1.0
    truncation: int = 80
    quad_nodes: int = 61
    theta: tuple = (0.0, 0.0)
    radius_cut: float = 6.0  # in units of sigma

    def __post_init__(self):
        if self.sigma2 <= 0 or self.hbar <= 0:
            raise ValueError("sigma2 and hbar must be positive")
        if self.truncation < 20:
            raise ValueError("truncation must be >= 20")


def _gaussian_rho(spec: GaussianSpec, theta) -> tuple[np.ndarray, float]:
    """Quadrature mixture of coherent projectors; returns (rho, raw trace)."""
    sig = np.sqrt(spec.sigma2)
    u, wts = hermgauss(spec.quad_nodes)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wts, wts) / np.pi
    keep = (uu ** 2 + vv ** 2) <= 0.5 * spec.radius_cut ** 2
    qs = theta[0] + np.sqrt(2.0) * sig * uu[keep]
    ps = theta[1] + np.sqrt(2.0) * sig * vv[keep]
    wflat = ww[keep]
    alphas = (qs - 1j * ps) / np.sqrt(2.0 * spec.hbar)
    cmat = np.empty((spec.truncation + 1, len(alphas)), dtype=complex)
    cmat[0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    for n in range(spec.truncation):
        cmat[n + 1] = cmat[n] * alphas / np.sqrt(n + 1.0)
    rho = (cmat * wflat) @ cmat.conj().T
    raw_trace = float(np.trace(rho).real)
    return herm(rho), raw_trace


def gaussian_family(spec: GaussianSpec) -> FamilyPoint:
    """Fock-truncated isotropic Gaussian (coherent-mixture) family, m = 2.

    Tangents in the two mean parameters by central differences of step
    1e-4.  The pre-normalization trace must stay within LEAKAGE_TOL of 1
    at every evaluated theta.
    """
    def normalized(theta):
        rho, tr = _gaussian_rho(spec, theta)
        if not (1.0 - LEAKAGE_TOL <= tr <= 1.0 + LEAKAGE_TOL):
            raise TruncationError(
                f"truncation leakage {abs(1.0 - tr):.2e} exceeds {LEAKAGE_TOL:.1e}; "
                f"increase truncation (N = {spec.truncation})"
            )
        return rho / tr

    return finite_difference_tangents(normalized, spec.theta, 1e-4)


def gaussian_closed_form(spec: GaussianSpec) -> np.ndarray:
    """Closed-form RLD Fisher matrix of the isotropic Gaussian family."""
    s2, hb = spec.sigma2, spec.hbar
    pref = 1.0 / ((s2 + hb) * s2)
    return pref * np.array([[s2 + hb / 2.0, -1j * hb / 2.0], [1j * hb / 2.0, s2 + hb / 2.0]])


def gaussian_check(spec: GaussianSpec) -> SuiteReport:
    """Compare the numerical J^R against the closed form and the trace bounds."""
    point = gaussian_family(spec)
    jr = rld_fisher(point)
    jnum = jr.as_complex()
    jref = gaussian_closed_form(spec)
    rel = np.abs(jnum - jref) / np.abs(jref)
    bounds = multiparam_bounds(jr, np.eye(2))
    ref_reverse = 2.0 / spec.sigma2
    slacks = {
        "entrywise_relative": [GAUSSIAN_REL_TOL - float(np.max(rel))],
        "reverse_bound": [0.02 * ref_reverse - abs(bounds.reverse - ref_reverse)],
    }
    details = {
        "convention": COHERENT_CONVENTION,
        "spec": {
            "sigma2": spec.sigma2, "hbar": spec.hbar, "truncation": spec.truncation,
            "quad_nodes": spec.quad_nodes, "theta": list(spec.theta),
        },
        "j_rld_numeric": jnum,
        "j_rld_closed_form": jref,
        "max_relative_entry_error": float(np.max(rel)),
        "reverse_bound": bounds.reverse,
        "estimation_bound": bounds.estimation,
        "reverse_bound_reference": ref_reverse,
        "input_fisher_reference": np.eye(2) / spec.sigma2,
        "tolerances": {"entrywise_relative": GAUSSIAN_REL_TOL, "reverse_bound": 0.02 * ref_reverse},
    }
    return SuiteReport.build("gaussian_example", 0, 1, slacks, 0.0, details)
