import time

import numpy as np
import pytest

from qig.channels import Ensemble, child_rng, random_family_point
from qig.errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidCandidateError,
    NotReverseEstimableError,
    RankDeficiencyError,
)
from qig.families import PAULI_Z, bloch_rotation_point, fixed_basis_family
from qig.fisher import QFisherMatrix, rld_fisher
from qig.harness import gaussian_closed_form, GaussianSpec
from qig.linalg import frob
from qig.reverse import (
    ORACLE_GAP_TOL,
    LocalReverseEstimate,
    global_commutation_check,
    global_reverse_estimate,
    input_fisher,
    local_reverse_estimate,
    min_trace_oracle,
    multiparam_bounds,
    random_valid_lre,
    restricted_input_fisher,
    validate_reverse_estimate,
)
from qig.states import DensityMatrix, FamilyPoint


def bloch_grid(r, thetas):
    return [bloch_rotation_point(r, th) for th in thetas]


def classical_grid(n_points=5, dim=3, seed=10):
    """Commuting diagonal family over a theta grid."""
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.ones(dim)) * 0.8 + 0.2 / dim
    direction = rng.normal(size=dim)
    direction -= direction.mean()
    direction /= np.max(np.abs(direction)) * 10
    grid = np.linspace(-1.0, 1.0, n_points)
    prob_table = np.array([base + th * direction for th in grid])
    return fixed_basis_family(np.eye(dim), prob_table, grid,
                              np.tile(direction, (n_points, 1)))


class TestLocalReverseEstimate:
    def test_sigma_z_family(self):
        pt = FamilyPoint([0.0], DensityMatrix(0.5 * np.eye(2)), [0.5 * PAULI_Z])
        lre = local_reverse_estimate(pt)
        assert np.allclose(np.sort(lre.ensemble.weights), [0.5, 0.5])
        assert np.allclose(np.sort(lre.scores[0]), [-1.0, 1.0])
        assert input_fisher(lre).scalar == pytest.approx(1.0, abs=1e-12)

    def test_bloch_attains_rld(self):
        pt = bloch_rotation_point(0.8, 0.0)
        lre = local_reverse_estimate(pt)
        assert input_fisher(lre).scalar == pytest.approx(16.0 / 9.0, abs=1e-9)

    def test_zero_tangent(self):
        pt = FamilyPoint([0.0], DensityMatrix(0.5 * np.eye(2)), [np.zeros((2, 2))])
        lre = local_reverse_estimate(pt)
        assert input_fisher(lre).scalar == pytest.approx(0.0, abs=1e-14)

    def test_multiparameter_rejected(self):
        pt = random_family_point(2, 2, 0)
        with pytest.raises(ValueError):
            local_reverse_estimate(pt)

    def test_rank_deficient_rejected(self):
        pt = FamilyPoint([0.0], DensityMatrix(np.diag([1.0, 0.0])), [np.zeros((2, 2))])
        with pytest.raises(RankDeficiencyError):
            local_reverse_estimate(pt)

    def test_equality_bulk(self):
        for t in range(100):
            rng = child_rng(1000, t)
            dim = int(rng.integers(2, 7))
            pt = random_family_point(dim, 1, rng)
            lre = local_reverse_estimate(pt)
            jr = rld_fisher(pt).scalar
            assert abs(input_fisher(lre).scalar - jr) <= 1e-9 * max(1.0, jr)


class TestValidateReverseEstimate:
    def test_constructed_optimum_zero_gap(self):
        pt = bloch_rotation_point(0.8, 0.0)
        rep = validate_reverse_estimate(local_reverse_estimate(pt), pt)
        assert abs(rep.gap) <= 1e-8
        assert rep.rho_residual <= 1e-10
        assert rep.tangent_residual <= 1e-10

    def test_split_component_positive_gap(self):
        pt = bloch_rotation_point(0.8, 0.0)
        lre = local_reverse_estimate(pt)
        # duplicate one component with uneven weights and perturbed scores,
        # preserving both reconstruction constraints
        p = list(lre.ensemble.weights)
        states = list(lre.ensemble.states)
        lam = list(lre.scores[0])
        a, eps = 0.3, 0.4
        states.append(states[0])
        # weights p0*a, p0*(1-a); scores lam0 + eps*(1-a)/..., chosen so
        # sum lam p |phi><phi| is unchanged: lam0*p0 = l1*p0*a + l2*p0*(1-a)
        l1 = lam[0] + eps
        l2 = lam[0] - eps * a / (1 - a)
        p.append(p[0] * (1 - a))
        p[0] = p[0] * a
        lam.append(l2)
        lam[0] = l1
        cand = LocalReverseEstimate(Ensemble(np.array(p), states), np.array([lam]), pt.theta)
        rep = validate_reverse_estimate(cand, pt)
        assert rep.gap > 1e-6

    def test_wrong_reconstruction_rejected(self):
        pt = bloch_rotation_point(0.8, 0.0)
        other = bloch_rotation_point(0.3, 0.0)
        cand = local_reverse_estimate(other)
        with pytest.raises(InvalidCandidateError) as exc:
            validate_reverse_estimate(cand, pt)
        assert exc.value.rho_residual > 1e-6


class TestRandomValidLre:
    def test_constraints_and_bound(self):
        for t in range(100):
            rng = child_rng(2000, t)
            dim = int(rng.integers(2, 7))
            pt = random_family_point(dim, 1, rng)
            cand = random_valid_lre(pt, seed=rng)
            rep = validate_reverse_estimate(cand, pt)
            assert rep.gap >= -1e-8

    def test_deterministic_given_seed(self):
        pt = random_family_point(3, 1, 5)
        a = random_valid_lre(pt, seed=123)
        b = random_valid_lre(pt, seed=123)
        assert np.array_equal(a.scores, b.scores)

    def test_uses_more_components_than_optimal(self):
        pt = random_family_point(2, 1, 5)
        cand = random_valid_lre(pt, seed=1)
        assert cand.ensemble.size == 2 * 2 + 3


class TestGlobalReverseEstimation:
    def test_classical_family_distributions(self):
        points = classical_grid()
        assert global_commutation_check(points) <= 1e-10
        gre = global_reverse_estimate(points, 0, seed=0)
        for k, pt in enumerate(points):
            diag = np.sort(np.diag(pt.rho.mat).real)
            assert np.allclose(np.sort(gre.distributions[k]), diag, atol=1e-10)

    def test_fixed_basis_family_succeeds(self):
        from qig.channels import random_unitary

        rng = np.random.default_rng(3)
        v = random_unitary(3, rng)
        base = classical_grid(dim=3, seed=4)
        points = fixed_basis_family(
            v,
            np.array([np.diag(pt.rho.mat).real for pt in base]),
            np.array([pt.theta[0] for pt in base]),
            np.array([np.diag(pt.tangents[0]).real for pt in base]),
        )
        gre = global_reverse_estimate(points, 0, seed=0)
        for pt in points:
            recon = sum(
                p * np.outer(v_, v_.conj())
                for p, v_ in zip(
                    gre.distributions[
                        next(i for i, q in enumerate(points) if q.theta[0] == pt.theta[0])
                    ],
                    [
                        gre.w0.w[:, x] / np.linalg.norm(gre.w0.w[:, x])
                        for x in range(gre.w0.w.shape[1])
                    ],
                )
            )
            assert frob(recon - pt.rho.mat) <= 1e-8
            jin = restricted_input_fisher(gre, pt, points).scalar
            jr = rld_fisher(pt).scalar
            assert abs(jin - jr) <= 1e-7 * max(1.0, jr)

    def test_off_grid_point_named(self):
        points = classical_grid()
        gre = global_reverse_estimate(points, 0, seed=0)
        pt = points[1]  # theta = -0.5, moved off the grid by 0.05
        off = fixed_basis_family(np.eye(3), [np.diag(pt.rho.mat).real], [pt.theta[0] + 0.05],
                                 [np.diag(pt.tangents[0]).real])[0]
        with pytest.raises(DimensionMismatchError, match=r"theta = \[-0\.45\]"):
            restricted_input_fisher(gre, off, points)

    def test_single_point_trivially_commutes(self):
        points = [bloch_rotation_point(0.8, 0.0)]
        assert global_commutation_check(points) <= 1e-12

    def test_bloch_grid_rejected(self):
        points = bloch_grid(0.8, [0.0, 0.3, 0.6])
        norm = global_commutation_check(points)
        assert norm > 1e-3
        with pytest.raises(NotReverseEstimableError) as exc:
            global_reverse_estimate(points, 0, seed=0)
        assert exc.value.commutator_norm == pytest.approx(norm)


class TestMultiparamBounds:
    def test_gaussian_closed_form(self):
        jr = QFisherMatrix.from_complex(gaussian_closed_form(GaussianSpec()), "RLD")
        mb = multiparam_bounds(jr, np.eye(2))
        assert mb.reverse == pytest.approx(2.0, abs=1e-12)
        assert mb.estimation == pytest.approx(1.0, abs=1e-12)

    def test_real_matrix_collapses(self):
        jr = QFisherMatrix(2, np.diag([1.0, 2.0]), np.zeros((2, 2)), "RLD")
        mb = multiparam_bounds(jr, np.eye(2))
        assert mb.reverse == mb.estimation == pytest.approx(3.0)

    def test_reverse_dominates_estimation(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pt = random_family_point(3, 2, rng)
            jr = rld_fisher(pt)
            g = rng.normal(size=(2, 2))
            g = g @ g.T
            mb = multiparam_bounds(jr, g)
            assert mb.reverse >= mb.estimation - 1e-12

    def test_non_psd_weight_rejected(self):
        jr = QFisherMatrix(2, np.eye(2), np.zeros((2, 2)), "RLD")
        with pytest.raises(ValueError):
            multiparam_bounds(jr, np.diag([1.0, -1.0]))


def assert_certified(res, closed):
    """The oracle's bracket holds the closed form and is as tight as promised."""
    assert res.dual <= closed <= res.value
    assert res.gap == res.value - res.dual
    assert res.gap <= ORACLE_GAP_TOL * max(1.0, abs(res.value))


class TestMinTraceOracle:
    def test_real_case_exact(self):
        jr = QFisherMatrix(2, np.array([[2.0, 0.3], [0.3, 1.0]]), np.zeros((2, 2)), "RLD")
        g = np.diag([1.0, 2.0])
        res = min_trace_oracle(jr, g)
        assert_certified(res, np.trace(g @ jr.real_part))

    def test_gaussian_matches_closed_form(self):
        jr = QFisherMatrix.from_complex(gaussian_closed_form(GaussianSpec()), "RLD")
        res = min_trace_oracle(jr, np.eye(2))
        assert_certified(res, multiparam_bounds(jr, np.eye(2)).reverse)
        assert res.dual <= 2.0 <= res.value

    def test_seed12_random_instance(self):
        pt = random_family_point(2, 2, 12)
        jr = rld_fisher(pt)
        g = np.diag([1.0, 2.0])
        assert_certified(min_trace_oracle(jr, g), multiparam_bounds(jr, g).reverse)

    def test_criterion_08_instances_certified(self):
        for t in range(20):
            rng = child_rng(108, t)
            dim = int(rng.integers(2, 4))
            jr = rld_fisher(random_family_point(dim, 2, rng))
            g = rng.normal(size=(2, 2))
            g = g @ g.T + 0.1 * np.eye(2)
            assert_certified(min_trace_oracle(jr, g), multiparam_bounds(jr, g).reverse)

    def test_m4_certified(self):
        # m > 3 was refused while the oracle was a multi-start penalty method
        jr = rld_fisher(random_family_point(3, 4, 7))
        g = np.diag([1.0, 2.0, 0.5, 1.5])
        res = min_trace_oracle(jr, g)
        assert_certified(res, multiparam_bounds(jr, g).reverse)
        assert np.min(np.linalg.eigvalsh(res.minimizer - jr.as_complex())) > 0.0

    def test_singular_weight_ends_within_cap(self):
        # the minimum is not attained when G has a kernel: either a bracket
        # holding the closed form or a ConvergenceError, in bounded time
        gauss = QFisherMatrix.from_complex(gaussian_closed_form(GaussianSpec()), "RLD")
        v = np.array([1.0, -2.0, 0.5])
        m3 = rld_fisher(random_family_point(3, 3, 4))
        cases = [(gauss, np.diag([1.0, 0.0])), (m3, np.outer(v, v))]
        # rank-deficient weights, some with kernels off the coordinate axes:
        # there the primal path runs off to where Tr G S is pure rounding
        for seed in range(12):
            rng = np.random.default_rng(seed)
            m, dim = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            w = rng.normal(size=(m, int(rng.integers(1, m))))
            cases.append((rld_fisher(random_family_point(dim, m, seed)), w @ w.T))
        for jr, g in cases:
            closed = multiparam_bounds(jr, g).reverse
            t0 = time.perf_counter()
            try:
                res = min_trace_oracle(jr, g)
            except ConvergenceError:
                pass
            else:
                assert_certified(res, closed)
            assert time.perf_counter() - t0 < 30.0

    def test_non_psd_weight_rejected(self):
        jr = QFisherMatrix(2, np.eye(2), np.zeros((2, 2)), "RLD")
        with pytest.raises(ValueError):
            min_trace_oracle(jr, np.diag([1.0, -1.0]))
