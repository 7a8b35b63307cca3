import mpmath
import numpy as np
import pytest

from qig import channels, harness
from qig.channels import (
    apply_channel,
    child_rng,
    measure,
    optimal_sld_povm,
    random_density,
    random_family_point,
    random_kraus,
    random_povm,
)
from qig.divergence import rld_divergence, two_point_reverse_estimate, umegaki
from qig.errors import TruncationError
from qig.families import bloch_rotation_point
from qig.fisher import classical_fisher, ClassicalFamilyPoint, km_fisher, rld_fisher, sld_fisher
from qig.harness import (
    COHERENT_CONVENTION,
    GaussianSpec,
    SuiteReport,
    gaussian_check,
    gaussian_closed_form,
    gaussian_family,
    monotone_divergence_suite,
    monotone_metric_suite,
)
from qig.reverse import input_fisher, local_reverse_estimate
from qig.states import DensityMatrix, FamilyPoint


def metric_trial(dim, rng):
    """One trial of the metric suite through the public single-instance API."""
    point = random_family_point(dim, 1, rng)
    js, jkm, jr = sld_fisher(point).scalar, km_fisher(point).scalar, rld_fisher(point).scalar
    jm = classical_fisher(measure(point, random_povm(dim, 3, rng))).scalar
    jopt = classical_fisher(measure(point, optimal_sld_povm(point))).scalar
    jin = input_fisher(local_reverse_estimate(point)).scalar
    image = apply_channel(point, random_kraus(dim, rng))
    return {
        "km_minus_sld": jkm - js, "rld_minus_km": jr - jkm,
        "sld_minus_measured": js - jm, "optimal_povm_equality": -abs(jopt - js),
        "lre_equality": -abs(jin - jr),
        "cpt_sld": js - sld_fisher(image).scalar, "cpt_km": jkm - km_fisher(image).scalar,
        "cpt_rld": jr - rld_fisher(image).scalar,
    }


def divergence_trial(dim, rng):
    """One trial of the divergence suite through the public single-instance API."""
    rho, sigma = random_density(dim, rng), random_density(dim, rng)
    du, dr = umegaki(rho, sigma), rld_divergence(rho, sigma)
    ch = random_kraus(dim, rng)
    rho_c, sigma_c = DensityMatrix(ch.apply(rho.mat)), DensityMatrix(ch.apply(sigma.mat))
    rho2, sigma2 = random_density(2, rng), random_density(2, rng)
    rho_t, sigma_t = DensityMatrix(np.kron(rho.mat, rho2.mat)), DensityMatrix(np.kron(sigma.mat, sigma2.mat))
    return {
        "rld_minus_umegaki": dr - du,
        "cpt_umegaki": du - umegaki(rho_c, sigma_c), "cpt_rld_div": dr - rld_divergence(rho_c, sigma_c),
        "additivity_umegaki": -abs(umegaki(rho_t, sigma_t) - du - umegaki(rho2, sigma2)),
        "additivity_rld_div": -abs(rld_divergence(rho_t, sigma_t) - dr - rld_divergence(rho2, sigma2)),
        "two_point_equality": -abs(two_point_reverse_estimate(rho, sigma).input_kl() - dr),
    }


SUITES = {
    "metric": (monotone_metric_suite, metric_trial),
    "divergence": (monotone_divergence_suite, divergence_trial),
}


def reference_report(kind, trials, dims, seed):
    """The suite as the per-trial loop it replaces: same child_rng streams, same draw order."""
    slacks = {}
    for t in range(trials):
        rng = child_rng(seed, t)
        dim = int(dims[rng.integers(len(dims))])
        try:
            trial = SUITES[kind][1](dim, rng)
        except ValueError as exc:
            exc.args = (f"trial {t}: {exc}",)
            raise
        for name, v in trial.items():
            slacks.setdefault(name, []).append(v)
    return SuiteReport.build(kind, seed, trials, slacks, harness.METRIC_SLACK_TOL)


def assert_same_ranges(got, want, tol=1e-12):
    assert list(got) == list(want)
    for name, (lo, hi) in want.items():
        assert got[name] == pytest.approx((lo, hi), rel=0, abs=tol), name


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


class TestStackedSuites:
    """The per-dimension stacked suites agree with the per-trial loop over the scalar API."""

    # slack ranges of the 200-trial runs, computed with the per-trial loop
    PINNED = {
        ("metric", 42): {
            "km_minus_sld": (0.001458155180984022, 1.972528668760435),
            "rld_minus_km": (0.002973191602373859, 17.05984962838956),
            "sld_minus_measured": (0.7200867341262038, 18.311257754546),
            "optimal_povm_equality": (-7.638334409421077e-14, -0.0),
            "lre_equality": (-4.973799150320701e-14, -0.0),
            "cpt_sld": (0.049135501697121775, 18.4823578859636),
            "cpt_km": (0.09921089439597486, 18.53208607772055),
            "cpt_rld": (0.20436645425786892, 21.241860954374218),
        },
        ("divergence", 43): {
            "rld_minus_umegaki": (0.0006307545284949673, 0.7580757945454848),
            "cpt_umegaki": (0.03223118738132291, 2.6384082945004765),
            "cpt_rld_div": (0.03215538927346069, 2.580870234862394),
            "additivity_umegaki": (-1.9984014443252818e-14, -0.0),
            "additivity_rld_div": (-5.1514348342607263e-14, -0.0),
            "two_point_equality": (-2.1760371282653068e-14, -0.0),
        },
    }

    @pytest.mark.parametrize("kind", list(SUITES))
    @pytest.mark.parametrize("dims", [(2, 3), (2, 3, 4)])
    def test_matches_reference_loop(self, kind, dims):
        got = SUITES[kind][0](20, dims, 11)
        want = reference_report(kind, 20, dims, 11)
        assert_same_ranges(got.slack_range, want.slack_range)
        assert got.violations == want.violations == []

    @pytest.mark.parametrize("kind, seed", list(PINNED))
    def test_pinned_200_trial_ranges(self, kind, seed):
        assert_same_ranges(SUITES[kind][0](200, (2, 3), seed).slack_range, self.PINNED[kind, seed])

    @pytest.mark.parametrize("kind", list(SUITES))
    def test_every_slack_a_violation_keeps_trial_order(self, kind, monkeypatch):
        # dims interleave, so a wrong scatter after grouping by dimension reorders the list
        monkeypatch.setattr(harness, "METRIC_SLACK_TOL", -1e9)
        got = SUITES[kind][0](30, (2, 3, 4), 5)
        want = reference_report(kind, 30, (2, 3, 4), 5)
        assert len(got.violations) == 30 * len(want.slack_range)
        assert [v[:2] for v in got.violations] == [v[:2] for v in want.violations]
        assert [v[2] for v in got.violations] == pytest.approx([v[2] for v in want.violations], rel=0, abs=1e-12)

    @pytest.mark.parametrize("kind", list(SUITES))
    @pytest.mark.parametrize("trials, dims", [(1, (2, 3)), (1, (3,)), (12, (3,)), (7, (2, 2))])
    def test_one_trial_or_one_dimension_matches_reference_loop(self, kind, trials, dims):
        got = SUITES[kind][0](trials, dims, 8)
        want = reference_report(kind, trials, dims, 8)
        assert_same_ranges(got.slack_range, want.slack_range)
        assert got.violations == want.violations == []

    @pytest.mark.parametrize("kind", list(SUITES))
    def test_one_integers_and_one_normal_call_per_trial(self, kind, monkeypatch):
        calls = []

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                calls.append((self.t, name))
                return getattr(self.rng, name)

        def spied(seed, t):
            spy = Spy(child_rng(seed, t))
            spy.t = t
            return spy

        monkeypatch.setattr(harness, "child_rng", spied)
        got = SUITES[kind][0](9, (2, 3), 4)
        assert calls == [(t, name) for t in range(9) for name in ("integers", "normal")]
        assert_same_ranges(got.slack_range, reference_report(kind, 9, (2, 3), 4).slack_range)

    @pytest.mark.parametrize("kind", list(SUITES))
    def test_corrupted_member_raises_and_names_trial(self, kind, monkeypatch):
        # Kraus draws whose first Ginibre entry is large lose trace preservation; at seed 10
        # the first such trial lies in the second dimension evaluated, and the first has later ones
        unitary_from = channels.unitary_from

        def leaky(g):
            return unitary_from(g) * np.where(np.abs(g[..., :1, :1]) > 2.0, 1.01, 1.0)

        monkeypatch.setattr(channels, "unitary_from", leaky)
        with pytest.raises(ValueError) as ref:
            reference_report(kind, 40, (2, 3), 10)
        with pytest.raises(ValueError) as got:
            SUITES[kind][0](40, (2, 3), 10)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)
        assert "not trace preserving" in str(ref.value)


class TestSuiteReport:
    def test_nan_slack_is_a_violation(self):
        rep = SuiteReport.build("s", 0, 3, {"a": np.array([0.5, np.nan, -1.0]), "b": np.zeros(3)}, 1e-8)
        assert not rep.passed
        assert [v[:2] for v in rep.violations] == [(1, "a"), (2, "a")]
        assert np.isnan(rep.violations[0][2])

    def test_nan_divergence_fails_the_suite(self, monkeypatch):
        monkeypatch.setattr(harness, "umegaki", lambda rho, sigma: np.full(len(rho.mat), np.nan))
        rep = monotone_divergence_suite(20, (2, 3), 5)
        assert not rep.passed
        assert np.isnan(rep.slack_range["rld_minus_umegaki"]).all()
        assert {v[1] for v in rep.violations} == {"rld_minus_umegaki", "cpt_umegaki", "additivity_umegaki"}
        assert sorted({v[0] for v in rep.violations}) == list(range(20))


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
        rep = gaussian_check(spec)
        jr = rld_fisher(gaussian_family(spec))
        jref = gaussian_closed_form(spec)
        rel = np.max(np.abs(jr.as_complex() - jref) / np.abs(jref))
        assert rel <= rep.details["tolerances"]["entrywise_relative"] <= 1e-9
        # the sign structure of the imaginary part is the convention-sensitive bit
        assert jr.imag_part[0, 1] == pytest.approx(-0.25, abs=1e-9)

    def test_check_report_contents(self):
        rep = gaussian_check(GaussianSpec(sigma2=1.0, hbar=1.0, truncation=80))
        assert rep.passed
        d = rep.details
        assert d["convention"] == COHERENT_CONVENTION
        assert d["spec"] == {"sigma2": 1.0, "hbar": 1.0, "truncation": 80, "theta": [0.0, 0.0]}
        assert d["max_relative_entry_error"] <= d["tolerances"]["entrywise_relative"]
        assert d["reverse_bound"] == pytest.approx(2.0, rel=d["tolerances"]["entrywise_relative"])
        assert d["tolerances"]["reverse_bound"] == 2.0 * d["tolerances"]["entrywise_relative"]
        assert d["estimation_bound"] == pytest.approx(1.0, abs=1e-9)

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
        assert rel <= 1e-9

    def test_classical_limit(self):
        # wide Gaussian: J^R approaches the input Fisher sigma^(-2) I
        jr = rld_fisher(gaussian_family(GaussianSpec(sigma2=25.0, truncation=300)))
        target = np.eye(2) / 25.0
        rel = np.max(np.abs(jr.real_part - target) / np.abs(target).max())
        assert rel <= 0.05

    @pytest.mark.parametrize("theta", [(0.0, 0.0), (0.5, -0.3)], ids=["centre", "displaced"])
    @pytest.mark.parametrize("truncation", [40, 80, 120])
    @pytest.mark.parametrize("nbar", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("hbar", [0.5, 1.0])
    def test_exact_family_within_derived_tolerance(self, hbar, nbar, truncation, theta):
        rep = gaussian_check(GaussianSpec(sigma2=nbar * hbar, hbar=hbar, truncation=truncation, theta=theta))
        assert rep.passed, rep.details
        d = rep.details
        tol = d["tolerances"]["entrywise_relative"]
        assert d["max_relative_entry_error"] <= tol <= 2e-2
        if theta == (0.0, 0.0):  # the cut-trace deficit is the thermal tail t_N
            assert d["leakage"] == pytest.approx((nbar / (nbar + 1.0)) ** (truncation + 1), rel=1e-9, abs=1e-15)

    def test_fisher_matrix_psd_at_reference_point(self):
        jr = rld_fisher(gaussian_family(GaussianSpec(truncation=80)))
        assert np.linalg.eigvalsh(jr.as_complex()).min() >= -1e-10


# --- the exact Gaussian state against 50-digit mpmath --------------------------


def _mp_displaced_thermal(nbar, alpha, m, n):
    """<m|D(alpha) rho_th D(alpha)^dag|n> from the Laguerre closed form, at the working precision."""
    if m < n:
        return mpmath.conj(_mp_displaced_thermal(nbar, alpha, n, m))
    nbar, alpha = mpmath.mpf(nbar), mpmath.mpc(alpha)
    x = abs(alpha) ** 2
    return (nbar ** n / (1 + nbar) ** (m + 1) * mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m))
            * alpha ** (m - n) * mpmath.exp(-x / (1 + nbar)) * mpmath.laguerre(n, m - n, -x / (nbar * (1 + nbar))))


def _mp_displacement(alpha, m, k):
    """<m|D(alpha)|k>."""
    alpha = mpmath.mpc(alpha)
    x = abs(alpha) ** 2
    if m < k:
        return mpmath.conj(_mp_displacement(-alpha, k, m))
    return (mpmath.sqrt(mpmath.factorial(k) / mpmath.factorial(m)) * alpha ** (m - k) * mpmath.exp(-x / 2)
            * mpmath.laguerre(k, m - k, x))


class TestGaussianMpmath:
    def test_state_matches_displaced_thermal_sum(self):
        # sum_k p_k <m|D|k><k|D^dag|n> over the thermal weights checks the closed form the library recurs on
        nbar, alpha = 1.0, (0.5 + 0.3j) / np.sqrt(2.0)
        rho = harness._displaced_thermal(nbar, alpha, 42)
        with mpmath.workdps(50):
            for m, n in [(3, 1), (10, 10), (41, 36)]:
                ref = _mp_displaced_thermal(nbar, alpha, m, n)
                assert abs(mpmath.mpc(rho[m, n]) - ref) <= 1e-13 * abs(ref)
            total = mpmath.fsum(mpmath.mpf(2) ** -(k + 1) * _mp_displacement(alpha, 3, k)
                                * mpmath.conj(_mp_displacement(alpha, 1, k)) for k in range(180))
            assert abs(total - _mp_displaced_thermal(nbar, alpha, 3, 1)) <= mpmath.mpf(10) ** -45

    def test_displaced_rld_entry_matches_mpmath(self):
        spec = GaussianSpec(sigma2=1.0, hbar=1.0, truncation=20, theta=(0.5, -0.3))
        jr = rld_fisher(gaussian_family(spec)).as_complex()
        n, alpha = spec.truncation, (0.5 + 0.3j) / np.sqrt(2.0)
        with mpmath.workdps(50):
            rho = mpmath.matrix(n + 2, n + 2)
            for i in range(n + 2):
                for j in range(n + 2):
                    rho[i, j] = _mp_displaced_thermal(1.0, alpha, i, j)
            s = 1 / mpmath.sqrt(2 * spec.hbar)
            g = [{}, {}]  # nonzero entries of G_q = s (a^dag - a) and G_p = -i s (a^dag + a)
            for i in range(n + 1):
                up = s * mpmath.sqrt(i + 1)
                g[0][i + 1, i], g[0][i, i + 1] = up, -up
                g[1][i + 1, i] = g[1][i, i + 1] = -1j * up
            xs = [mpmath.matrix(n + 1, n + 1) for _ in g]
            for x, gi in zip(xs, g):  # P [G_i, rho] P
                for i in range(n + 1):
                    for j in range(n + 1):
                        x[i, j] = (sum(gi.get((i, l), 0) * rho[l, j] for l in (i - 1, i + 1) if l >= 0)
                                   - sum(rho[i, l] * gi.get((l, j), 0) for l in (j - 1, j + 1) if l >= 0))
            p_rho = rho[:n + 1, :n + 1]
            tr = sum(p_rho[i, i] for i in range(n + 1))
            xs = [(x - sum(x[i, i] for i in range(n + 1)) / tr * p_rho) / tr for x in xs]
            inv = mpmath.inverse(p_rho / tr)
            prod = xs[0] * inv * xs[1].transpose_conj()
            j01 = sum(prod[i, i] for i in range(n + 1))  # J_01 = Tr X_0 rho^-1 X_1^dag
            assert abs(mpmath.mpc(jr[0, 1]) - j01) <= 1e-12 * abs(j01)
            assert abs(j01 - gaussian_closed_form(spec)[0, 1]) <= 1e-5  # N = 20 keeps a 4.8e-7 tail

    def test_gate_term_is_the_exact_centre_error(self):
        # sigma^2 = 2, hbar = 0.5, N = 40, theta = 0: in the Fock basis the cut state is diagonal, so
        # J^R_ij = sum_ab G_i,ab conj(G_j,ab) (p_b - p_a)^2 / (t p_b) over the cut levels, at 50 digits.
        # Its relative error is (N + 1) t_N / (nbar (1 - t_N)) exactly; the gate is GAUSSIAN_TAIL_C times
        # (N + 1) t_N / nbar plus GAUSSIAN_ROUNDING_TOL.
        sigma2, hbar, n = 2.0, 0.5, 40
        d = gaussian_check(GaussianSpec(sigma2=sigma2, hbar=hbar, truncation=n)).details
        with mpmath.workdps(50):
            nbar = mpmath.mpf(sigma2) / mpmath.mpf(hbar)
            r = nbar / (nbar + 1)
            p = [(1 - r) * r ** k for k in range(n + 1)]
            t = mpmath.fsum(p)
            j00 = j01 = mpmath.mpf(0)
            for k in range(n):  # pairs (k + 1, k) and (k, k + 1); |G_q| = |G_p| = sqrt((k + 1) / (2 hbar))
                w = (k + 1) / (2 * mpmath.mpf(hbar)) * (p[k] - p[k + 1]) ** 2 / t
                j00 += w / p[k] + w / p[k + 1]
                j01 += 1j * (w / p[k] - w / p[k + 1])  # G_q conj(G_p): +i s^2 (k + 1) below, -i above
            s2, hb = mpmath.mpf(sigma2), mpmath.mpf(hbar)
            ref00, ref01 = (s2 + hb / 2) / ((s2 + hb) * s2), -0.5j * hb / ((s2 + hb) * s2)
            tail = 1 - t  # = t_N
            assert abs(tail - r ** (n + 1)) <= mpmath.mpf(10) ** -45
            exact = (n + 1) * tail / (nbar * (1 - tail))
            assert abs(1 - j00 / ref00 - exact) <= mpmath.mpf(10) ** -40
            assert abs(1 - j01 / ref01 - exact) <= mpmath.mpf(10) ** -40
            assert float(j01.imag) == pytest.approx(d["j_rld_numeric"][0, 1].imag, rel=1e-12)
            assert d["max_relative_entry_error"] == pytest.approx(float(exact), rel=1e-10)
            assert d["leakage"] == pytest.approx(float(tail), rel=1e-10)
            term = float((n + 1) * tail / nbar)
        assert d["tolerances"]["entrywise_relative"] == pytest.approx(
            harness.GAUSSIAN_TAIL_C * term + harness.GAUSSIAN_ROUNDING_TOL, rel=1e-12)
