import numpy as np
import pytest

from qig.channels import random_family_point
from qig.errors import TruncationError
from qig.families import bloch_rotation_point
from qig.fisher import classical_fisher, ClassicalFamilyPoint, km_fisher, rld_fisher
from qig.harness import (
    COHERENT_CONVENTION,
    GaussianSpec,
    gaussian_check,
    gaussian_closed_form,
    gaussian_family,
    monotone_divergence_suite,
    monotone_metric_suite,
)
from qig.states import DensityMatrix, FamilyPoint


class TestKmFisher:
    def test_commuting_equals_classical(self):
        p = np.array([0.3, 0.7])
        dp = np.array([0.5, -0.5])
        pt = FamilyPoint([0.0], DensityMatrix(np.diag(p)), [np.diag(dp)])
        jc = classical_fisher(ClassicalFamilyPoint([0.0], p, [dp])).scalar
        assert km_fisher(pt).scalar == pytest.approx(jc, rel=1e-12)

    def test_bloch_strictly_between(self):
        pt = bloch_rotation_point(0.8, 0.0)
        jkm = km_fisher(pt).scalar
        assert 0.64 < jkm < 16.0 / 9.0

    def test_zero_tangent(self):
        pt = FamilyPoint([0.0], DensityMatrix(0.5 * np.eye(2)), [np.zeros((2, 2))])
        assert km_fisher(pt).scalar == pytest.approx(0.0, abs=1e-14)

    def test_multiparameter_matches_scalar_km(self):
        rng = np.random.default_rng(33)
        for dim in (2, 3, 5):
            pt = random_family_point(dim, 3, rng)
            diag = np.diag(km_fisher(pt).real_part)
            scalars = [km_fisher(FamilyPoint([0.0], pt.rho, [x])).scalar for x in pt.tangents]
            assert diag == pytest.approx(scalars, rel=1e-12)


class TestMetricSuite:
    def test_vacuous_run_rejected(self):
        for suite in (monotone_metric_suite, monotone_divergence_suite):
            for trials, dims in ((0, (2,)), (1, (1,)), (1, (2, 1)), (1, ())):
                with pytest.raises(ValueError):
                    suite(trials, dims, 1)

    def test_default_acceptance_run(self):
        rep = monotone_metric_suite(200, (2, 3), 42)
        assert rep.passed, rep.violations[:5]
        assert rep.slack_range["km_minus_sld"][0] >= -1e-8
        assert rep.slack_range["rld_minus_km"][0] >= -1e-8

    def test_reproducible(self):
        a = monotone_metric_suite(20, (2, 3), 7)
        b = monotone_metric_suite(20, (2, 3), 7)
        assert a.slack_range == b.slack_range

    def test_seed_changes_trials(self):
        a = monotone_metric_suite(20, (2,), 7)
        b = monotone_metric_suite(20, (2,), 8)
        assert a.slack_range != b.slack_range


class TestDivergenceSuite:
    def test_default_acceptance_run(self):
        rep = monotone_divergence_suite(200, (2, 3), 43)
        assert rep.passed, rep.violations[:5]
        assert rep.slack_range["rld_minus_umegaki"][0] >= -1e-8

    def test_reproducible(self):
        a = monotone_divergence_suite(15, (2, 3), 9)
        b = monotone_divergence_suite(15, (2, 3), 9)
        assert a.slack_range == b.slack_range


class TestGaussianFamily:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GaussianSpec(sigma2=-1.0)
        with pytest.raises(ValueError):
            GaussianSpec(truncation=10)

    def test_truncation_leakage_raises(self):
        # thermal occupation ~ sigma^2 = 25 needs far more than N = 30
        with pytest.raises(TruncationError):
            gaussian_family(GaussianSpec(sigma2=25.0, truncation=30))

    def test_reference_point_matches_closed_form(self):
        spec = GaussianSpec(sigma2=1.0, hbar=1.0, truncation=80)
        jr = rld_fisher(gaussian_family(spec))
        jref = gaussian_closed_form(spec)
        rel = np.max(np.abs(jr.as_complex() - jref) / np.abs(jref))
        assert rel <= 1e-2
        # much tighter in practice; the sign structure of the imaginary
        # part is the convention-sensitive bit
        assert jr.imag_part[0, 1] == pytest.approx(-0.25, abs=1e-3)

    def test_check_report_contents(self):
        rep = gaussian_check(GaussianSpec(sigma2=1.0, hbar=1.0, truncation=80))
        assert rep.passed
        assert rep.details["convention"] == COHERENT_CONVENTION
        assert rep.details["max_relative_entry_error"] <= 1e-2
        assert rep.details["reverse_bound"] == pytest.approx(2.0, abs=0.02)
        assert rep.details["estimation_bound"] == pytest.approx(1.0, abs=0.02)

    def test_truncation_convergence(self):
        jref = gaussian_closed_form(GaussianSpec())
        errs = []
        for n in (40, 80):
            jr = rld_fisher(gaussian_family(GaussianSpec(truncation=n)))
            errs.append(float(np.max(np.abs(jr.as_complex() - jref) / np.abs(jref))))
        assert errs[1] <= errs[0] + 1e-10

    def test_translation_invariance(self):
        base = rld_fisher(gaussian_family(GaussianSpec(truncation=80)))
        shifted = rld_fisher(
            gaussian_family(GaussianSpec(truncation=80, theta=(0.5, -0.3)))
        )
        rel = np.max(
            np.abs(base.as_complex() - shifted.as_complex()) / np.abs(base.as_complex())
        )
        assert rel <= 1e-2

    def test_classical_limit(self):
        # wide Gaussian: J^R approaches the input Fisher sigma^(-2) I
        spec = GaussianSpec(
            sigma2=25.0, truncation=300, quad_nodes=151, radius_cut=12.0
        )
        jr = rld_fisher(gaussian_family(spec), rank_tol=1e-13)
        target = np.eye(2) / 25.0
        rel = np.max(np.abs(jr.real_part - target) / np.abs(target).max())
        assert rel <= 0.05

    def test_fisher_matrix_psd_at_reference_point(self):
        jr = rld_fisher(gaussian_family(GaussianSpec(truncation=80)))
        assert jr.min_eigenvalue() >= -1e-10
