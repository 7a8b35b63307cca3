"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single PASS line with the tolerance it enforced; run
with ``pytest tests/test_acceptance.py -v -s`` to see them inline.
"""

import time

import numpy as np
import pytest

from qig.channels import (
    child_rng,
    measure,
    optimal_sld_povm,
    random_density,
    random_family_point,
    random_kraus,
    random_povm,
    apply_channel,
)
from qig.divergence import (
    kl,
    rld_divergence,
    rld_divergence_integral,
    two_point_reverse_estimate,
    umegaki,
)
from qig.errors import NotReverseEstimableError
from qig.families import bloch_rotation_point, fixed_basis_family
from qig.fisher import ClassicalFamilyPoint, classical_fisher, rld_fisher, sld_fisher
from qig.harness import (
    COHERENT_CONVENTION,
    GaussianSpec,
    gaussian_check,
    km_fisher,
)
from qig.linalg import frob
from qig.reverse import (
    global_commutation_check,
    global_reverse_estimate,
    input_fisher,
    local_reverse_estimate,
    min_trace_oracle,
    multiparam_bounds,
    restricted_input_fisher,
    validate_reverse_estimate,
)
from qig.states import DensityMatrix

from conftest import random_valid_lre


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_01_local_reverse_estimation_equality():
    t0 = time.time()
    worst = 0.0
    for t in range(200):
        rng = child_rng(101, t)
        dim = int(rng.integers(2, 7))
        pt = random_family_point(dim, 1, rng)
        jr = rld_fisher(pt).scalar
        jin = input_fisher(local_reverse_estimate(pt)).scalar
        worst = max(worst, abs(jin - jr))
        assert abs(jin - jr) <= 1e-9 * max(1.0, jr)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(1, f"optimal LRE attains J^R on 200 families dims 2-6 "
              f"(worst |J - J^R| = {worst:.2e}, tol 1e-9, {elapsed:.1f}s)")


def test_criterion_02_local_reverse_estimation_bound():
    t0 = time.time()
    worst = np.inf
    for t in range(500):
        rng = child_rng(102, t)
        dim = int(rng.integers(2, 7))
        pt = random_family_point(dim, 1, rng)
        jr = rld_fisher(pt).scalar
        cand = random_valid_lre(pt, seed=rng)
        rep = validate_reverse_estimate(cand, pt)
        gap = rep.input_fisher.scalar - jr
        worst = min(worst, gap)
        assert gap >= -1e-8
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, f"500 randomized valid LREs satisfy J >= J^R "
              f"(worst gap {worst:+.2e}, tol -1e-8, {elapsed:.1f}s)")


def test_criterion_03_metric_sandwich_and_closed_forms():
    worst = np.inf
    for t in range(200):
        rng = child_rng(103, t)
        dim = int(rng.integers(2, 5))
        pt = random_family_point(dim, 1, rng)
        js = sld_fisher(pt).scalar
        jkm = km_fisher(pt).scalar
        jr = rld_fisher(pt).scalar
        worst = min(worst, jkm - js, jr - jkm)
        assert jkm - js >= -1e-8 and jr - jkm >= -1e-8
    pt = bloch_rotation_point(0.8, 0.0)
    assert sld_fisher(pt).scalar == pytest.approx(0.64, abs=1e-8)
    assert rld_fisher(pt).scalar == pytest.approx(1.7777778, abs=1e-7)
    assert abs(rld_fisher(pt).scalar - 16.0 / 9.0) <= 1e-8
    report(3, f"J^S <= J^KM <= J^R on 200 families (worst slack {worst:+.2e}, "
              f"tol -1e-8); rotation closed forms 0.64 and 1.777778 to 1e-8")


def test_criterion_04_monotonicity():
    t0 = time.time()
    for t in range(200):
        rng = child_rng(104, t)
        dim = int(rng.integers(2, 4))
        pt = random_family_point(dim, 1, rng)
        js, jkm, jr = sld_fisher(pt).scalar, km_fisher(pt).scalar, rld_fisher(pt).scalar
        rho2 = random_density(dim, rng)
        du = umegaki(pt.rho, rho2)
        dr = rld_divergence(pt.rho, rho2)
        image = apply_channel(pt, random_kraus(dim, rng))
        ch = random_kraus(dim, rng)
        rho_c = DensityMatrix(ch.apply(pt.rho.mat))
        rho2_c = DensityMatrix(ch.apply(rho2.mat))
        assert sld_fisher(image).scalar <= js + 1e-8
        assert km_fisher(image).scalar <= jkm + 1e-8
        assert rld_fisher(image).scalar <= jr + 1e-8
        assert umegaki(rho_c, rho2_c) <= du + 1e-8
        assert rld_divergence(rho_c, rho2_c) <= dr + 1e-8
        jm = classical_fisher(measure(pt, random_povm(dim, 3, rng))).scalar
        assert jm <= js + 1e-9
        jopt = classical_fisher(measure(pt, optimal_sld_povm(pt))).scalar
        assert abs(jopt - js) <= 1e-9 * max(1.0, js)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(4, f"200 channels leave all five quantities non-increasing (tol 1e-8); "
              f"200 POVMs obey J^M <= J^S and the SLD measurement attains it "
              f"(tol 1e-9, {elapsed:.1f}s)")


def test_criterion_05_divergence_identities():
    for t in range(50):
        rng = child_rng(105, t)
        rho = random_density(2, rng)
        sigma = random_density(2, rng)
        closed = rld_divergence(rho, sigma)
        assert rld_divergence_integral(rho, sigma, 4000) == pytest.approx(closed, abs=1e-5)
        tpre = two_point_reverse_estimate(rho, sigma)
        assert tpre.input_kl() == pytest.approx(closed, abs=1e-9)
        # commuting pair built from the same generator
        p = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
        q = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
        dp, dq = DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q))
        ref = kl(p, q)
        assert umegaki(dp, dq) == pytest.approx(ref, abs=1e-9)
        assert rld_divergence(dp, dq) == pytest.approx(ref, abs=1e-9)
        assert two_point_reverse_estimate(dp, dq).input_kl() == pytest.approx(ref, abs=1e-9)
    report(5, "50 qubit pairs: integral form matches closed form (tol 1e-5), "
              "two-point simulation pays exactly the divergence (tol 1e-9), "
              "commuting pairs collapse kl/umegaki/rld (tol 1e-9)")


def test_criterion_06_additivity():
    for t in range(50):
        rng = child_rng(106, t)
        r1, s1 = random_density(2, rng), random_density(2, rng)
        r2, s2 = random_density(2, rng), random_density(2, rng)
        rt = DensityMatrix(np.kron(r1.mat, r2.mat))
        st = DensityMatrix(np.kron(s1.mat, s2.mat))
        assert umegaki(rt, st) == pytest.approx(umegaki(r1, s1) + umegaki(r2, s2), abs=1e-9)
        assert rld_divergence(rt, st) == pytest.approx(
            rld_divergence(r1, s1) + rld_divergence(r2, s2), abs=1e-9
        )
    report(6, "both divergences additive on 50 random 2x2 tensor pairs (tol 1e-9)")


def test_criterion_07_global_reverse_estimation():
    from qig.channels import random_unitary

    rng = np.random.default_rng(107)
    v = random_unitary(3, rng)
    grid = np.linspace(-1.0, 1.0, 5)
    base = rng.dirichlet(np.ones(3)) * 0.8 + 0.2 / 3
    direction = rng.normal(size=3)
    direction -= direction.mean()
    direction /= np.max(np.abs(direction)) * 10
    prob_table = np.array([base + th * direction for th in grid])
    points = fixed_basis_family(v, prob_table, grid, np.tile(direction, (5, 1)))
    assert global_commutation_check(points) <= 1e-8
    gre = global_reverse_estimate(points, 0, seed=0)
    for k, pt in enumerate(points):
        recon = sum(p * np.outer(u, u.conj()) for p, u in zip(gre.distributions[k], gre.ensemble.states))
        assert frob(recon - pt.rho.mat) <= 1e-8
        jin = restricted_input_fisher(gre, pt, points).scalar
        jr = rld_fisher(pt).scalar
        assert abs(jin - jr) <= 1e-7 * max(1.0, jr)
    bloch = [bloch_rotation_point(0.8, th) for th in (0.0, 0.3, 0.6)]
    norm = global_commutation_check(bloch)
    assert norm > 0.0
    with pytest.raises(NotReverseEstimableError):
        global_reverse_estimate(bloch, 0, seed=0)
    report(7, "fixed-basis grid family simulated exactly (recon tol 1e-8, "
              "input Fisher = J^R tol 1e-7); rotating family refused with "
              f"commutator norm {norm:.3f} > 0")


def test_criterion_08_bound_identity():
    t0 = time.time()
    worst = 0.0
    for t in range(20):
        rng = child_rng(108, t)
        dim = int(rng.integers(2, 4))
        pt = random_family_point(dim, 2, rng)
        jr = rld_fisher(pt)
        g = rng.normal(size=(2, 2))
        g = g @ g.T + 0.1 * np.eye(2)
        closed = multiparam_bounds(jr, g).reverse
        res = min_trace_oracle(jr, g, seed=int(rng.integers(1 << 31)))
        rel = abs(res.value - closed) / max(1e-15, abs(closed))
        worst = max(worst, rel)
        assert rel <= 1e-3
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(8, f"numerical min Tr GJ matches Sp G ReJ^R + Spabs G ImJ^R on 20 "
              f"m = 2 instances (worst rel {worst:.2e}, tol 1e-3, {elapsed:.1f}s)")


def test_criterion_09_gaussian_example():
    t0 = time.time()
    rep = gaussian_check(GaussianSpec(sigma2=1.0, hbar=1.0, truncation=80))
    assert rep.passed
    d = rep.details
    jref = np.array([[0.75, -0.25j], [0.25j, 0.75]])
    jnum = np.asarray(d["j_rld_numeric"])
    tol = d["tolerances"]["entrywise_relative"]
    assert np.max(np.abs(jnum - jref) / np.abs(jref)) <= tol <= 1e-9
    assert d["reverse_bound"] == pytest.approx(2.0, rel=tol)
    assert d["convention"] == COHERENT_CONVENTION
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(9, f"truncated Gaussian at sigma^2 = hbar = 1, N = 80 reproduces "
              f"J^R = [[0.75, -0.25i], [0.25i, 0.75]] within the derived gate {tol:.1e} "
              f"(max rel err {d['max_relative_entry_error']:.2e}) and the "
              f"reverse bound {d['reverse_bound']:.10f} = 2 to the same relative gate; "
              f"convention string emitted ({elapsed:.1f}s)")


def test_criterion_10_classical_embedding():
    for t in range(100):
        rng = child_rng(110, t)
        dim = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(dim)) * 0.9 + 0.1 / dim
        dp = rng.normal(size=dim)
        dp -= dp.mean()
        pt_q = DensityMatrix(np.diag(p))
        from qig.states import FamilyPoint

        pt = FamilyPoint([0.0], pt_q, [np.diag(dp)])
        jc = classical_fisher(ClassicalFamilyPoint([0.0], p, [dp])).scalar
        for j in (sld_fisher(pt).scalar, rld_fisher(pt).scalar, km_fisher(pt).scalar):
            assert abs(j - jc) <= 1e-10 * max(1.0, jc)
        q = rng.dirichlet(np.ones(dim)) * 0.9 + 0.1 / dim
        sq = DensityMatrix(np.diag(q))
        ref = kl(p, q)
        assert abs(umegaki(pt_q, sq) - ref) <= 1e-10
        assert abs(rld_divergence(pt_q, sq) - ref) <= 1e-10
    report(10, "diagonal families: all quantum metrics equal the classical "
               "Fisher information and all divergences equal KL on 100 "
               "instances (tol 1e-10)")
