"""Randomized verification suites and the Fock-truncated Gaussian family.

The suites draw each trial's seeded Ginibre blocks with one normal call,
evaluate the metric/divergence sandwich, monotonicity and SLD/RLD
complementarity checks once per dimension on complex stacks of them, and
collect slacks: a check "a <= b" records the slack b - a, an equality
-|a - b|; a violation is a slack not >= -tolerance (or NaN).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    apply_channel, child_rng, density_from, family_point_from, ginibre_split, kraus_from, measure,
    optimal_sld_povm, povm_from, unitary_from,
)
from .divergence import rld_divergence, two_point_reverse_estimate, umegaki
from .errors import QigError, TruncationError
from .fisher import classical_fisher, km_fisher, rld, rld_fisher, sld, sld_fisher
from .linalg import RANK_TOL, herm
from .reverse import input_fisher, local_reverse_estimate, multiparam_bounds
from .states import DensityMatrix, FamilyPoint

METRIC_SLACK_TOL = 1e-8
# gaussian_family refuses a cut whose trace deficit 1 - Tr P rho_theta P (the leakage) exceeds LEAKAGE_TOL.
LEAKAGE_TOL = 5e-3
# gaussian_check's relative gate: GAUSSIAN_TAIL_C (N + 1) max(leakage, RANK_TOL) / nbar + GAUSSIAN_ROUNDING_TOL.
# At theta = 0 the leakage is t_N = (nbar/(nbar + 1))^(N + 1), and J^R errs by (N + 1) t_N / (nbar (1 - t_N))
# exactly.  Levels below RANK_TOL drop out of J^R; displaced states err by up to 3.8 times the tail term
# (nbar <= 4, |theta| <= 5).  Rounding, which GAUSSIAN_ROUNDING_TOL covers, adds about 2e-15 at theta = 0.
GAUSSIAN_TAIL_C = 4.0
GAUSSIAN_ROUNDING_TOL = 1e-12

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


def _complementarity_checks(g_point, g_gauge) -> dict:
    point = family_point_from(g_point)
    rho = point.rho
    l_sld, l_rld = sld(rho, point.tangents[0]), rld(rho, point.tangents)[0]
    point.rld_checked = True  # rld_fisher(point) would repeat rld's existence check
    w = rho.func(np.sqrt) @ unitary_from(g_gauge[:, 0])
    wd = w.conj().swapaxes(-1, -2)
    ancilla = DensityMatrix(wd @ w)  # decomposed on its own: the check does not reuse rho's spectrum
    lift = lambda l: FamilyPoint(point.theta, ancilla, [herm(wd @ l @ w)])  # the ancilla tangent Y of M = L W
    return {
        "sld_equals_ancilla_rld": -abs(rld_fisher(lift(l_sld)).scalar - sld_fisher(point).scalar),
        "rld_equals_ancilla_sld": -abs(sld_fisher(lift(l_rld)).scalar - rld_fisher(point).scalar),
    }


def complementarity_suite(trials: int, dims=(2, 3), seed: int = 44) -> SuiteReport:
    """SLD and RLD complement via purification: J^S(rho; X) = J^R(sigma; Y_SLD), J^R(rho; X) = J^S(sigma; Y_RLD).

    W = rho^(1/2) U in a Haar gauge U, sigma = W^dag W, and Y = (W^dag M + M^dag W)/2 for the lift
    M = L W of X through its SLD or RLD L (Uhlmann, Rep. Math. Phys. 24, 229 (1986)).
    """
    # the draws of random_family_point(dim) and random_unitary(dim)
    blocks = lambda dim: ((2, dim), (1, dim))
    return _run_stacked("complementarity", trials, dims, seed, blocks, _complementarity_checks)


# --- Fock-truncated Gaussian family ------------------------------------------


@dataclass
class GaussianSpec:
    sigma2: float = 1.0
    hbar: float = 1.0
    truncation: int = 80
    theta: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.sigma2 <= 0 or self.hbar <= 0:
            raise ValueError("sigma2 and hbar must be positive")
        if self.truncation < 20:
            raise ValueError("truncation must be >= 20")


def _displaced_thermal(nbar: float, alpha: complex, levels: int) -> np.ndarray:
    """<m|D(alpha) rho_th D(alpha)^dag|n> = c e^(-c|alpha|^2) beta^k sqrt(n!/m!) r^n L_n^(k)(-|beta|^2/r), m = n + k,
    c = 1/(nbar + 1), r = nbar c, beta = c alpha, for m, n < levels (Cahill & Glauber, Phys. Rev. 177, 1882 (1969)).
    Each diagonal k follows the Laguerre recurrence in n, stable here: L_n^(k)(x < 0) is its dominant solution.
    """
    c = 1.0 / (nbar + 1.0)
    r, beta = nbar * c, c * alpha
    k, n = np.arange(levels), np.arange(levels - 1)[:, None]
    den = np.sqrt((n + 1) * (n + 1 + k))
    up, down = ((2 * n + 1 + k) * r + abs(beta) ** 2) / den, r * r * np.sqrt(n * (n + k)) / den
    rows = np.zeros((levels, levels), dtype=complex)  # rows[n, k] = <n + k|rho|n>
    rows[0] = c * np.exp(-c * abs(alpha) ** 2) * np.cumprod(np.r_[1.0, beta / np.sqrt(k[1:])])
    for i in range(levels - 1):  # down[0] = 0 meets the still-zero last row
        rows[i + 1] = up[i] * rows[i] - down[i] * rows[i - 1]
    m, n = np.tril_indices(levels)
    rho = np.zeros((levels, levels), dtype=complex)
    rho[m, n] = rows[n, m - n]
    return rho + np.tril(rho, -1).conj().T


def _cut_gaussian(spec: GaussianSpec) -> tuple[FamilyPoint, float]:
    """(gaussian_family(spec), leakage)."""
    n, q, p = spec.truncation, *spec.theta
    rho = _displaced_thermal(spec.sigma2 / spec.hbar, (q - 1j * p) / np.sqrt(2.0 * spec.hbar), n + 2)
    cut = rho[:n + 1, :n + 1]
    tr = np.trace(cut).real
    if not 1.0 - tr <= LEAKAGE_TOL:
        raise TruncationError(f"truncation leakage {1.0 - tr:.2e} exceeds {LEAKAGE_TOL:.1e}; "
                              f"increase truncation (N = {n})")
    a = np.diag(np.sqrt(np.arange(1.0, n + 2)), 1)  # annihilation on levels 0..N+1
    k = (a @ rho - rho @ a)[:n + 1, :n + 1]  # P [a, rho] P reads rho on level N + 1; [a^dag, rho] = -[a, rho]^dag
    x = -np.stack([k + k.conj().T, 1j * (k - k.conj().T)]) / np.sqrt(2.0 * spec.hbar)  # [G_q, rho], [G_p, rho]
    x -= np.trace(x, axis1=1, axis2=2).real[:, None, None] * cut / tr  # d_i (P rho P / Tr P rho P), times Tr
    return FamilyPoint(spec.theta, DensityMatrix(cut / tr), x / tr), 1.0 - tr


def gaussian_family(spec: GaussianSpec) -> FamilyPoint:
    """D(alpha) rho_th D(alpha)^dag on Fock levels 0..N, nbar = sigma2/hbar, alpha(theta) per COHERENT_CONVENTION.

    Exact state and tangents P [G_i, rho] P, G_q = (a^dag - a)/sqrt(2 hbar), G_p = -i(a^dag + a)/sqrt(2 hbar),
    renormalized with the cut; a leakage above LEAKAGE_TOL raises TruncationError.
    """
    return _cut_gaussian(spec)[0]


def gaussian_closed_form(spec: GaussianSpec) -> np.ndarray:
    """Closed-form RLD Fisher matrix of the isotropic Gaussian family."""
    s2, hb = spec.sigma2, spec.hbar
    pref = 1.0 / ((s2 + hb) * s2)
    return pref * np.array([[s2 + hb / 2.0, -1j * hb / 2.0], [1j * hb / 2.0, s2 + hb / 2.0]])


def gaussian_check(spec: GaussianSpec) -> SuiteReport:
    """Compare the numerical J^R, entrywise and through the reverse bound, with the closed form (relative gate)."""
    point, leakage = _cut_gaussian(spec)
    jr = rld_fisher(point)
    jnum = jr.as_complex()
    jref = gaussian_closed_form(spec)
    err = float(np.max(np.abs(jnum - jref) / np.abs(jref)))
    bounds = multiparam_bounds(jr, np.eye(2))
    ref_reverse = 2.0 / spec.sigma2
    tol = (GAUSSIAN_TAIL_C * (spec.truncation + 1) * max(leakage, RANK_TOL) * spec.hbar / spec.sigma2
           + GAUSSIAN_ROUNDING_TOL)
    dev = abs(bounds.reverse - ref_reverse)
    slacks = {"entrywise_relative": [tol - err], "reverse_bound": [tol * ref_reverse - dev]}
    details = {
        "convention": COHERENT_CONVENTION,
        "spec": {"sigma2": spec.sigma2, "hbar": spec.hbar, "truncation": spec.truncation, "theta": list(spec.theta)},
        "leakage": leakage, "j_rld_numeric": jnum, "j_rld_closed_form": jref, "max_relative_entry_error": err,
        "reverse_bound": bounds.reverse, "estimation_bound": bounds.estimation,
        "reverse_bound_reference": ref_reverse, "input_fisher_reference": np.eye(2) / spec.sigma2,
        "tolerances": {"entrywise_relative": tol, "reverse_bound": tol * ref_reverse},
    }
    return SuiteReport.build("gaussian_example", 0, 1, slacks, 0.0, details)
