import math

import numpy as np
import pytest
from scipy.linalg import logm

from qig.channels import random_density, random_kraus
from qig.divergence import (
    kl,
    rld_divergence,
    rld_divergence_integral,
    two_point_reverse_estimate,
    umegaki,
)
from qig.errors import RankDeficiencyError
from qig.linalg import frob
from qig.states import DensityMatrix

from conftest import geometric, haar, random_qubit_pair, split_two_point_estimate, state

EPS = np.finfo(float).eps


class TestKl:
    def test_equal(self):
        assert kl([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_binary_value(self):
        expected = 0.5 * math.log(2) + 0.5 * math.log(2.0 / 3.0)
        assert kl([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.143841, abs=1e-6)

    def test_point_mass(self):
        assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_support_violation_inf(self):
        assert kl([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
            assert kl(p, q) >= -1e-12


class TestUmegaki:
    def test_equal_states(self):
        rho = random_density(3, 2)
        assert umegaki(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_commuting_equals_kl(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        du = umegaki(DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q)))
        assert du == pytest.approx(kl(p, q), abs=1e-12)

    def test_seed13_logm_oracle(self):
        rho, sigma = random_qubit_pair(13)
        oracle = np.trace(rho.mat @ (logm(rho.mat) - logm(sigma.mat))).real
        assert umegaki(rho, sigma) == pytest.approx(oracle, abs=1e-10)

    def test_support_violation_inf(self):
        rho = DensityMatrix(0.5 * np.eye(2))
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        assert umegaki(rho, sigma) == math.inf

    def test_rounding_negative_eigenvalue_off_support(self):
        """sigma's -9e-13 eigenvalue is outside its support: finite value, the KL of the diagonals."""
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        sigma = DensityMatrix(np.diag([0.6, 0.4, -9e-13]))
        want = kl([0.5, 0.5], [0.6, 0.4])
        assert want == pytest.approx(0.0204110, abs=1e-7)
        assert umegaki(rho, sigma) == pytest.approx(want, rel=1e-12)
        assert rld_divergence(rho, sigma) == pytest.approx(want, rel=1e-12)


class TestRldDivergence:
    def test_equal_states(self):
        rho = random_density(2, 3)
        assert rld_divergence(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_commuting_collapses_to_kl(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.4, 0.4, 0.2])
        rho, sigma = DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q))
        ref = kl(p, q)
        assert rld_divergence(rho, sigma) == pytest.approx(ref, abs=1e-12)
        assert umegaki(rho, sigma) == pytest.approx(ref, abs=1e-12)

    def test_seed14_dominates_umegaki_and_matches_integral(self):
        rho, sigma = random_qubit_pair(14)
        dr = rld_divergence(rho, sigma)
        assert dr >= umegaki(rho, sigma) - 1e-9
        assert rld_divergence_integral(rho, sigma, 4000) == pytest.approx(dr, abs=1e-5)

    def test_sandwich_bulk(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            rho = random_density(dim, rng)
            sigma = random_density(dim, rng)
            assert umegaki(rho, sigma) <= rld_divergence(rho, sigma) + 1e-9

    def test_support_violation_inf(self):
        rho = DensityMatrix(0.5 * np.eye(2))
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        assert rld_divergence(rho, sigma) == math.inf


class TestIntegralForm:
    def test_equal_states_zero(self):
        rho = random_density(2, 5)
        assert rld_divergence_integral(rho, rho, 100) == 0.0

    def test_commuting_binary(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([0.25, 0.75]))
        ref = kl([0.5, 0.5], [0.25, 0.75])
        assert rld_divergence_integral(rho, sigma, 4000) == pytest.approx(ref, abs=1e-5)

    @staticmethod
    def per_point_loop(rho, sigma, steps):
        """The trapezoid rule with one DensityMatrix per grid point."""
        x = rho.mat - sigma.mat
        eps = 1.0 / (2.0 * steps)
        grid = np.linspace(eps, 1.0 - eps, steps + 1)
        vals = []
        for s in grid:
            inv = DensityMatrix(s * rho.mat + (1.0 - s) * sigma.mat).func(np.reciprocal)
            vals.append((1.0 - s) * float(np.trace(x @ inv @ x).real))
        h = grid[1] - grid[0]
        return h * (sum(vals) - 0.5 * (vals[0] + vals[-1])) + eps * (vals[0] + vals[-1])

    def test_matches_per_point_loop(self):
        """The one-decomposition integrand agrees with one DensityMatrix per grid point."""
        for seed in (40, 41):
            rng = np.random.default_rng(seed)
            rho, sigma = random_density(3, rng), random_density(3, rng)
            ref = self.per_point_loop(rho, sigma, 64)
            assert rld_divergence_integral(rho, sigma, 64) == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 16])
    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
    def test_pencil_matches_per_point_loop_conditioned(self, d, kappa):
        """The one-decomposition integrand against per-node inversion, same rule, within c kappa eps."""
        rng = np.random.default_rng([d, int(math.log10(kappa)), 5])
        pairs = [
            (state(haar(d, rng), geometric(d, kappa)), state(haar(d, rng), geometric(d, kappa))),
            # rank-deficient rho against full-rank sigma
            (state(haar(d, rng), geometric(d, kappa, zeros=1)), state(haar(d, rng), geometric(d, kappa))),
        ]
        if d > 2:  # rho inside the support of a rank-deficient sigma, in another basis of it
            u, v = haar(d, rng), np.eye(d, dtype=complex)
            v[: d - 1, : d - 1] = haar(d - 1, rng)
            pairs.append((state(u @ v, geometric(d, kappa, zeros=1)), state(u, geometric(d, kappa, zeros=1))))
        for r, s in pairs:
            rho, sigma = DensityMatrix(r), DensityMatrix(s)
            ref = self.per_point_loop(rho, sigma, 64)
            assert rld_divergence_integral(rho, sigma, 64) == pytest.approx(ref, rel=4 * kappa * EPS)

    def test_one_eigendecomposition_whatever_steps(self, monkeypatch):
        """Beyond the cached spectra of rho and sigma, one eigh call per integral at any grid size."""
        rng = np.random.default_rng(43)
        rho, sigma = random_density(16, rng), random_density(16, rng)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape) or eigh(a, *args, **kw))
        counts = []
        for steps in (64, 4000):
            calls.clear()
            rld_divergence_integral(rho, sigma, steps)
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_blocked_grid_checks_each_state(self):
        """Every grid node gets the trace check, not only the first."""
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        sigma = DensityMatrix(np.diag([0.4, 0.6]))
        # trace of rho_s is 1 + 1e-11 s: only points with s > 0.1 break TRACE_TOL
        rho.mat = rho.mat * (1.0 + 1e-11)
        with pytest.raises(ValueError, match="trace"):
            rld_divergence_integral(rho, sigma, 64)

    def test_indefinite_node_raises(self):
        """A node that is not positive definite on supp sigma is refused, as check_states refuses it."""
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        rho.mat = np.diag([1.2, -0.2]).astype(complex)  # trace one, one negative eigenvalue
        with pytest.raises(ValueError):
            rld_divergence_integral(rho, DensityMatrix(0.5 * np.eye(2)), 64)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_named(self, steps):
        rho, sigma = random_qubit_pair(14)
        with pytest.raises(ValueError, match="steps"):
            rld_divergence_integral(rho, sigma, steps)

    def test_support_violation_inf(self):
        rho = DensityMatrix(0.5 * np.eye(2))
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        assert rld_divergence_integral(rho, sigma, 64) == math.inf

    def test_qubit_pairs_match_closed_form(self):
        for seed in range(16, 26):
            rho, sigma = random_qubit_pair(seed)
            closed = rld_divergence(rho, sigma)
            assert rld_divergence_integral(rho, sigma, 4000) == pytest.approx(closed, abs=1e-5)


class TestTwoPointReverseEstimate:
    def test_equal_states(self):
        rho = random_density(2, 7)
        tpre = two_point_reverse_estimate(rho, rho)
        assert np.allclose(tpre.p_rho, tpre.p_sigma, atol=1e-12)
        assert tpre.input_kl() == pytest.approx(0.0, abs=1e-12)

    def test_commuting_recovers_classical(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        tpre = two_point_reverse_estimate(DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q)))
        assert np.allclose(np.sort(tpre.p_sigma), np.sort(q), atol=1e-12)
        assert np.allclose(np.sort(tpre.p_rho), np.sort(p), atol=1e-12)

    def test_seed15_achieves_rld_divergence(self):
        rho, sigma = random_qubit_pair(15)
        tpre = two_point_reverse_estimate(rho, sigma)
        assert tpre.input_kl() == pytest.approx(rld_divergence(rho, sigma), abs=1e-9)

    def test_reconstructions(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            rho = random_density(dim, rng)
            sigma = random_density(dim, rng)
            tpre = two_point_reverse_estimate(rho, sigma)
            assert frob(tpre.ensemble.mix(tpre.p_rho) - rho.mat) <= 1e-10
            assert frob(tpre.ensemble.mix(tpre.p_sigma) - sigma.mat) <= 1e-10

    def test_rank_deficient_sigma_rejected(self):
        rho = random_density(2, 1)
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(RankDeficiencyError):
            two_point_reverse_estimate(rho, sigma)

    def test_split_estimate_preserves_and_dominates(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            rho = random_density(2, rng)
            sigma = random_density(2, rng)
            tpre = two_point_reverse_estimate(rho, sigma)
            split = split_two_point_estimate(tpre, seed=rng)
            assert frob(split.ensemble.mix(split.p_rho) - rho.mat) <= 1e-10
            assert frob(split.ensemble.mix(split.p_sigma) - sigma.mat) <= 1e-10
            # non-minimal simulations can only pay more (log-sum inequality)
            assert split.input_kl() >= rld_divergence(rho, sigma) - 1e-8


class TestStructural:
    def test_additivity(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            r1, s1 = random_density(2, rng), random_density(2, rng)
            r2, s2 = random_density(2, rng), random_density(2, rng)
            rt = DensityMatrix(np.kron(r1.mat, r2.mat))
            st_ = DensityMatrix(np.kron(s1.mat, s2.mat))
            assert umegaki(rt, st_) == pytest.approx(
                umegaki(r1, s1) + umegaki(r2, s2), abs=1e-9
            )
            assert rld_divergence(rt, st_) == pytest.approx(
                rld_divergence(r1, s1) + rld_divergence(r2, s2), abs=1e-9
            )

    def test_cpt_monotonicity(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            dim = int(rng.integers(2, 4))
            rho = random_density(dim, rng)
            sigma = random_density(dim, rng)
            ch = random_kraus(dim, rng)
            rho_c = DensityMatrix(ch.apply(rho.mat))
            sigma_c = DensityMatrix(ch.apply(sigma.mat))
            assert umegaki(rho_c, sigma_c) <= umegaki(rho, sigma) + 1e-8
            assert rld_divergence(rho_c, sigma_c) <= rld_divergence(rho, sigma) + 1e-8
