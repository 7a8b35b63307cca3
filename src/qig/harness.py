"""Randomized verification suites and the truncated Gaussian family.

The suites draw seeded random instances, evaluate the metric/divergence
sandwich and monotonicity checks, and collect slacks: a check of the
form "a <= b" records the slack b - a, and a violation is a slack below
-tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channels import child_rng, random_family_point, random_kraus, random_povm, random_density, measure, optimal_sld_povm, apply_channel
from .divergence import rld_divergence, two_point_reverse_estimate, umegaki
from .errors import TruncationError
from .fisher import classical_fisher, finite_difference_tangents, km_fisher, rld_fisher, sld_fisher
from .linalg import herm
from .reverse import input_fisher, local_reverse_estimate, multiparam_bounds
from .states import DensityMatrix, FamilyPoint

METRIC_SLACK_TOL = 1e-8
GAUSSIAN_REL_TOL = 1e-2

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
            (t, name, float(s))
            for name, v in slacks.items()
            for t, s in enumerate(v)
            if s < -tol
        ]
        return cls(suite, master_seed, trials, slack_range, violations, not violations,
                   details or {})


def _check_run(trials: int, dims) -> list[int]:
    """Refuse a run that checks nothing: no trials, or a dimension below 2."""
    dims = [int(d) for d in dims]
    if trials < 1 or not dims or min(dims) < 2:
        raise ValueError(f"suites need trials >= 1 and every dim >= 2, got {trials} trials, dims {dims}")
    return dims


def _dim_for_trial(dims, rng) -> int:
    return int(dims[rng.integers(len(dims))])


def monotone_metric_suite(trials: int, dims=(2, 3), seed: int = 42) -> SuiteReport:
    """Sandwich J^S <= J^KM <= J^R, measurement bound, LRE equality, CPT monotonicity."""
    dims = _check_run(trials, dims)
    checks = {
        "km_minus_sld": [], "rld_minus_km": [],
        "sld_minus_measured": [], "optimal_povm_equality": [],
        "lre_equality": [],
        "cpt_sld": [], "cpt_km": [], "cpt_rld": [],
    }
    for t in range(trials):
        rng = child_rng(seed, t)
        dim = _dim_for_trial(dims, rng)
        point = random_family_point(dim, 1, rng)
        js = sld_fisher(point).scalar
        jkm = km_fisher(point).scalar
        jr = rld_fisher(point).scalar
        checks["km_minus_sld"].append(jkm - js)
        checks["rld_minus_km"].append(jr - jkm)
        povm = random_povm(dim, 3, rng)
        jm = classical_fisher(measure(point, povm)).scalar
        checks["sld_minus_measured"].append(js - jm)
        jopt = classical_fisher(measure(point, optimal_sld_povm(point))).scalar
        checks["optimal_povm_equality"].append(-abs(jopt - js))
        jin = input_fisher(local_reverse_estimate(point)).scalar
        checks["lre_equality"].append(-abs(jin - jr))
        ch = random_kraus(dim, rng)
        image = apply_channel(point, ch)
        checks["cpt_sld"].append(js - sld_fisher(image).scalar)
        checks["cpt_km"].append(jkm - km_fisher(image).scalar)
        checks["cpt_rld"].append(jr - rld_fisher(image).scalar)
    return SuiteReport.build("monotone_metric", seed, trials, checks, METRIC_SLACK_TOL)


def monotone_divergence_suite(trials: int, dims=(2, 3), seed: int = 43) -> SuiteReport:
    """Umegaki <= D^R, CPT monotonicity, additivity, and two-point achievability."""
    dims = _check_run(trials, dims)
    checks = {
        "rld_minus_umegaki": [],
        "cpt_umegaki": [], "cpt_rld_div": [],
        "additivity_umegaki": [], "additivity_rld_div": [],
        "two_point_equality": [],
    }
    for t in range(trials):
        rng = child_rng(seed, t)
        dim = _dim_for_trial(dims, rng)
        rho = random_density(dim, rng)
        sigma = random_density(dim, rng)
        du = umegaki(rho, sigma)
        dr = rld_divergence(rho, sigma)
        checks["rld_minus_umegaki"].append(dr - du)
        ch = random_kraus(dim, rng)
        rho_c = DensityMatrix(ch.apply(rho.mat))
        sigma_c = DensityMatrix(ch.apply(sigma.mat))
        checks["cpt_umegaki"].append(du - umegaki(rho_c, sigma_c))
        checks["cpt_rld_div"].append(dr - rld_divergence(rho_c, sigma_c))
        rho2 = random_density(2, rng)
        sigma2 = random_density(2, rng)
        rho_t = DensityMatrix(np.kron(rho.mat, rho2.mat))
        sigma_t = DensityMatrix(np.kron(sigma.mat, sigma2.mat))
        checks["additivity_umegaki"].append(
            -abs(umegaki(rho_t, sigma_t) - du - umegaki(rho2, sigma2))
        )
        checks["additivity_rld_div"].append(
            -abs(rld_divergence(rho_t, sigma_t) - dr - rld_divergence(rho2, sigma2))
        )
        tpre = two_point_reverse_estimate(rho, sigma)
        checks["two_point_equality"].append(-abs(tpre.input_kl() - dr))
    return SuiteReport.build("monotone_divergence", seed, trials, checks, METRIC_SLACK_TOL)


# --- Fock-truncated Gaussian family ------------------------------------------


@dataclass
class GaussianSpec:
    sigma2: float = 1.0
    hbar: float = 1.0
    truncation: int = 80
    quad_nodes: int = 61
    theta: tuple = (0.0, 0.0)
    leakage_tol: float = 5e-3
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


def gaussian_family(spec: GaussianSpec, fd_step: float = 1e-4) -> FamilyPoint:
    """Fock-truncated isotropic Gaussian (coherent-mixture) family, m = 2.

    Tangents in the two mean parameters by central differences.  The
    pre-normalization trace must stay within leakage_tol of 1 at every
    evaluated theta.
    """
    def normalized(theta):
        rho, tr = _gaussian_rho(spec, theta)
        if not (1.0 - spec.leakage_tol <= tr <= 1.0 + spec.leakage_tol):
            raise TruncationError(
                f"truncation leakage {abs(1.0 - tr):.2e} exceeds {spec.leakage_tol:.1e}; "
                f"increase truncation (N = {spec.truncation})"
            )
        return rho / tr

    return finite_difference_tangents(normalized, spec.theta, fd_step)


def gaussian_closed_form(spec: GaussianSpec) -> np.ndarray:
    """Closed-form RLD Fisher matrix of the isotropic Gaussian family."""
    s2, hb = spec.sigma2, spec.hbar
    pref = 1.0 / ((s2 + hb) * s2)
    return pref * np.array([[s2 + hb / 2.0, -1j * hb / 2.0], [1j * hb / 2.0, s2 + hb / 2.0]])


def gaussian_check(spec: GaussianSpec, rank_tol: float = 1e-13) -> SuiteReport:
    """Compare the numerical J^R against the closed form and the trace bounds."""
    point = gaussian_family(spec)
    jr = rld_fisher(point, rank_tol=rank_tol)
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
