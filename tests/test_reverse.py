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
from qig import reverse
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
    restricted_input_fisher,
    validate_reverse_estimate,
)
from qig.states import DensityMatrix, FamilyPoint

from conftest import random_valid_lre


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

    def test_stacked_optimum_validates(self):
        # the tangent of parameter i used to be read from scores[i], the stack axis (residual 2.87 here)
        pts = [random_family_point(3, 1, seed) for seed in range(4)]
        stack = FamilyPoint([0.0], DensityMatrix(np.array([pt.rho.mat for pt in pts])),
                            [np.array([pt.tangents[0] for pt in pts])])
        rep = validate_reverse_estimate(local_reverse_estimate(stack), stack)
        singles = [validate_reverse_estimate(local_reverse_estimate(pt), pt) for pt in pts]
        assert rep.tangent_residual <= 1e-10 and rep.rho_residual <= 1e-10
        assert abs(rep.gap) <= 1e-8
        np.testing.assert_allclose(rep.input_fisher.real_part[:, 0, 0], [s.input_fisher.scalar for s in singles], rtol=1e-12)
        # one member off: the stack is refused with that member's residual
        bad = FamilyPoint([0.0], stack.rho, [np.array([pt.tangents[0] for pt in pts[:3]] + [-pts[3].tangents[0]])])
        with pytest.raises(InvalidCandidateError) as exc:
            validate_reverse_estimate(local_reverse_estimate(stack), bad)
        assert exc.value.tangent_residual == pytest.approx(2 * frob(pts[3].tangents[0]), rel=1e-10)


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
                    gre.ensemble.states,
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

    def test_estimate_carries_commutator_norm(self):
        from qig.channels import random_unitary

        base = classical_grid(dim=3, seed=4)
        points = fixed_basis_family(
            random_unitary(3, np.random.default_rng(3)),
            [np.diag(pt.rho.mat).real for pt in base], [pt.theta[0] for pt in base],
            [np.diag(pt.tangents[0]).real for pt in base],
        )
        norm = global_commutation_check(points)
        assert norm > 0.0  # rounding only: the bit-for-bit comparison below is not 0 == 0
        assert global_reverse_estimate(points, 0, seed=0).commutator_norm == norm

    def test_single_point_trivially_commutes(self):
        points = [bloch_rotation_point(0.8, 0.0)]
        assert global_commutation_check(points) <= 1e-12

    def test_bloch_grid_rejected(self, monkeypatch):
        points = bloch_grid(0.8, [0.0, 0.3, 0.6])
        norm = global_commutation_check(points)
        assert norm > 1e-3
        with pytest.raises(NotReverseEstimableError) as exc:
            global_reverse_estimate(points, 0, seed=0)
        assert exc.value.commutator_norm == pytest.approx(norm)
        # past the commutation gate, the diagonalization and reconstruction checks refuse it (either alone would)
        monkeypatch.setattr(reverse, "COMMUTATION_TOL", np.inf)
        with pytest.raises(NotReverseEstimableError) as exc:
            global_reverse_estimate(points, 0, seed=0)
        assert exc.value.commutator_norm == norm


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

    @pytest.mark.parametrize("solve", [multiparam_bounds, min_trace_oracle])
    def test_complex_weight_refused(self, solve):
        # the Hermitian weight [[1, 0.5i], [-0.5i, 1]] used to run as G = I, with only a ComplexWarning
        jr = rld_fisher(random_family_point(2, 2, seed=3))
        with pytest.raises(ValueError, match="nonzero imaginary part"):
            solve(jr, np.array([[1.0, 0.5j], [-0.5j, 1.0]]))
        assert solve(jr, np.eye(2, dtype=complex)) is not None  # a zero imaginary part is a real weight


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
        # the minimum is not attained when ImJ^R couples range(G) to ker G; every case still certifies
        gauss = QFisherMatrix.from_complex(gaussian_closed_form(GaussianSpec()), "RLD")
        v = np.array([1.0, -2.0, 0.5])
        m3 = rld_fisher(random_family_point(3, 3, 4))
        cases = [(gauss, np.diag([1.0, 0.0])), (m3, np.outer(v, v))]
        # rank-deficient weights, some with kernels off the coordinate axes
        for seed in range(12):
            rng = np.random.default_rng(seed)
            m, dim = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            w = rng.normal(size=(m, int(rng.integers(1, m))))
            cases.append((rld_fisher(random_family_point(dim, m, seed)), w @ w.T))
        for jr, g in cases:
            assert_certified(min_trace_oracle(jr, g), multiparam_bounds(jr, g).reverse)
        assert not min_trace_oracle(gauss, np.diag([1.0, 0.0])).attained
        assert min_trace_oracle(gauss, np.eye(2)).attained and min_trace_oracle(m3, np.outer(v, v) + np.eye(3)).attained

    def test_seeded_full_rank_cases_certified(self):
        # m = 3 pins the sgn H pitfall: H then has a rounding-level eigenvalue, whose sgn must be 0
        for t in range(1000):
            rng = child_rng(2306, t)
            m, dim = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            jr = rld_fisher(random_family_point(dim, m, rng))
            a = rng.normal(size=(m, m))
            g = a @ a.T + 0.01 * np.eye(m)
            closed = multiparam_bounds(jr, g).reverse
            res = min_trace_oracle(jr, g)
            assert_certified(res, closed)
            assert abs(res.value - closed) <= 1e-11 * abs(closed)
            assert res.attained  # a full-rank G has no kernel for ImJ^R to couple to

    def test_flipped_imaginary_part_refused(self, monkeypatch):
        # the certificate built for the conjugate J^R (K -> -K) has the estimation bound as its dual: the gap check fails
        certificate = reverse._certificate
        monkeypatch.setattr(reverse, "_certificate", lambda d, jf: certificate(d, jf.conj()))
        jr = QFisherMatrix.from_complex(gaussian_closed_form(GaussianSpec()), "RLD")
        with pytest.raises(ConvergenceError, match="gap"):
            min_trace_oracle(jr, np.eye(2))

    def test_weight_floor_scales_with_weight(self):
        # an eigenvalue of -5 % of the largest passed the absolute -1e-10 floor
        jr = QFisherMatrix(2, np.eye(2), np.zeros((2, 2)), "RLD")
        for solve in (multiparam_bounds, min_trace_oracle):
            with pytest.raises(ValueError, match="PSD"):
                solve(jr, np.diag([1e-9, -5e-11]))
        jr3 = rld_fisher(random_family_point(2, 3, 5))
        for g in (np.diag([1.0, 0.0, 0.0]), np.ones((3, 3))):
            assert_certified(min_trace_oracle(jr3, g), multiparam_bounds(jr3, g).reverse)

    def test_non_psd_weight_rejected(self):
        jr = QFisherMatrix(2, np.eye(2), np.zeros((2, 2)), "RLD")
        with pytest.raises(ValueError):
            min_trace_oracle(jr, np.diag([1.0, -1.0]))
