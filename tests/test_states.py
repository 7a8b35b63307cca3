import numpy as np
import pytest

from qig.channels import random_density, random_hermitian_traceless, random_unitary
from qig.errors import DimensionMismatchError, GaugeError, RankDeficiencyError
from qig.families import PAULI_X, PAULI_Z
from qig.linalg import frob
from qig.states import (
    TANGENT_TRACE_TOL,
    AmplitudeMatrix,
    DensityMatrix,
    FamilyPoint,
    canonical_amplitude,
    duality_gap,
    gauge_transform,
    lift_tangent,
    project,
    reverse_sld,
)


def random_coisometry(rows, cols, rng):
    """rows x cols matrix V with V V^dag = I (cols >= rows)."""
    g = rng.normal(size=(cols, rows)) + 1j * rng.normal(size=(cols, rows))
    q, _ = np.linalg.qr(g)
    return q.conj().T


class TestDensityMatrix:
    def test_hermitizes_and_caches_eig(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        assert np.allclose(rho.eig.eigenvalues, [0.3, 0.7])
        assert rho.is_full_rank()

    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_psd_enforced(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.ones((2, 3)))

    def test_func_inverse(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        assert np.allclose(rho.func(np.reciprocal), np.diag([4.0, 4.0 / 3.0]))

    def test_func_skips_rounding_negative_eigenvalue(self):
        """PSD_FLOOR admits -9e-13; the support rule is signed, so log and inverse stay finite."""
        rho = DensityMatrix(np.diag([0.6, 0.4, -9e-13]))
        assert np.allclose(rho.func(np.log), np.diag([np.log(0.6), np.log(0.4), 0.0]), atol=1e-15)
        assert np.allclose(rho.func(np.reciprocal), np.diag([1 / 0.6, 1 / 0.4, 0.0]), atol=1e-15)
        assert np.allclose(rho.func(lambda v: v ** -0.5), np.diag([0.6 ** -0.5, 0.4 ** -0.5, 0.0]), atol=1e-15)


class TestFamilyPoint:
    def test_tangent_shape_mismatch_refused(self):
        with pytest.raises(DimensionMismatchError, match="tangent shapes"):
            FamilyPoint([0.0], DensityMatrix(0.5 * np.eye(2)), [np.zeros((3, 3))])

    def test_tangent_trace_refused(self):
        x = np.diag([0.5, -0.5]) + 1e-6 * np.eye(2) / 2  # trace 1e-6
        with pytest.raises(ValueError, match=f"tangent trace 1.000e-06 exceeds {TANGENT_TRACE_TOL}"):
            FamilyPoint([0.0], DensityMatrix(0.5 * np.eye(2)), [x])

    def test_tangent_count_refused(self):
        with pytest.raises(DimensionMismatchError, match="1 tangents for 2 parameters"):
            FamilyPoint([0.0, 0.0], DensityMatrix(0.5 * np.eye(2)), [0.5 * PAULI_Z])


class TestAmplitude:
    def test_canonical_half_identity(self):
        w = canonical_amplitude(DensityMatrix(0.5 * np.eye(2)))
        assert np.allclose(w.w, np.eye(2) / np.sqrt(2))

    def test_canonical_pure(self):
        w = canonical_amplitude(DensityMatrix(np.diag([1.0, 0.0])))
        assert np.allclose(w.w, np.diag([1.0, 0.0]))

    def test_canonical_qutrit_seed11(self):
        rho = random_density(3, 11)
        w = canonical_amplitude(rho)
        assert frob(w.w @ w.w.conj().T - rho.mat) <= 1e-12

    def test_trace_invariant(self):
        with pytest.raises(ValueError):
            AmplitudeMatrix(np.eye(2))


class TestProject:
    def test_system_side(self):
        w = AmplitudeMatrix(np.eye(2) / np.sqrt(2))
        assert np.allclose(project(w, "system").mat, 0.5 * np.eye(2))

    def test_ancilla_weights(self):
        w = AmplitudeMatrix(np.diag([np.sqrt(0.3), np.sqrt(0.7)]))
        assert np.allclose(project(w, "ancilla").mat, np.diag([0.3, 0.7]))

    def test_random_rectangular_seed5(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        w = AmplitudeMatrix(g / np.sqrt(np.sum(np.abs(g) ** 2)))
        sys = project(w, "system")
        anc = project(w, "ancilla")
        assert np.trace(sys.mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(anc.mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(sys.eig.eigenvalues) >= -1e-12
        assert np.min(anc.eig.eigenvalues) >= -1e-12

    def test_bad_side(self):
        with pytest.raises(ValueError):
            project(AmplitudeMatrix(np.eye(2) / np.sqrt(2)), "left")


class TestGauge:
    def test_identity_gauge(self):
        w = canonical_amplitude(random_density(2, 1))
        assert np.allclose(gauge_transform(w, np.eye(2)).w, w.w)

    def test_pauli_x_permutes_columns(self):
        w = AmplitudeMatrix(np.eye(2) / np.sqrt(2))
        wu = gauge_transform(w, PAULI_X)
        assert np.allclose(wu.w, w.w[:, ::-1])
        assert frob(wu.w @ wu.w.conj().T - w.w @ w.w.conj().T) <= 1e-13

    def test_seed9_unitary_invariance(self):
        w = canonical_amplitude(random_density(2, 9))
        u = random_unitary(2, 9)
        wu = gauge_transform(w, u)
        assert frob(wu.w @ wu.w.conj().T - w.w @ w.w.conj().T) <= 1e-13

    def test_invariance_bulk(self):
        rng = np.random.default_rng(500)
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            extra = int(rng.integers(0, 3))
            w = canonical_amplitude(random_density(dim, rng))
            u = random_coisometry(dim, dim + extra, rng)
            wu = gauge_transform(w, u)
            assert frob(wu.w @ wu.w.conj().T - w.w @ w.w.conj().T) <= 1e-12

    def test_non_coisometry_rejected(self):
        w = canonical_amplitude(random_density(2, 1))
        with pytest.raises(GaugeError):
            gauge_transform(w, 2.0 * np.eye(2))

    def test_row_mismatch_rejected(self):
        w = canonical_amplitude(random_density(2, 1))
        with pytest.raises(DimensionMismatchError):
            gauge_transform(w, np.eye(3))


class TestLiftTangent:
    def test_zero_tangent(self):
        w = canonical_amplitude(random_density(2, 1))
        for kind in ("SLD", "RLD"):
            assert frob(lift_tangent(w, np.zeros((2, 2)), kind).m) <= 1e-14

    def test_commuting_case_same_lift(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        w = canonical_amplitude(rho)
        x = np.diag([0.1, -0.1]).astype(complex)
        ms = lift_tangent(w, x, "SLD").m
        mr = lift_tangent(w, x, "RLD").m
        assert frob(ms - mr) <= 1e-12
        expected = np.diag([0.1 / 0.6, -0.1 / 0.4]) @ w.w
        assert frob(ms - expected) <= 1e-12

    def test_rld_roundtrip_seed2(self):
        rng = np.random.default_rng(2)
        w = canonical_amplitude(random_density(2, rng))
        x = random_hermitian_traceless(2, rng)
        lift = lift_tangent(w, x, "RLD")
        assert frob(lift.project() - x) <= 1e-11

    def test_roundtrip_bulk(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            w = canonical_amplitude(random_density(dim, rng))
            x = random_hermitian_traceless(dim, rng)
            for kind in ("SLD", "RLD"):
                lift = lift_tangent(w, x, kind)
                assert frob(lift.project() - x) <= 1e-10 * max(1.0, frob(x))

    def test_bad_kind(self):
        w = canonical_amplitude(random_density(2, 1))
        with pytest.raises(ValueError):
            lift_tangent(w, np.zeros((2, 2)), "LLD")


class TestReverseSld:
    def test_classical_diag(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        w = canonical_amplitude(rho)
        x = np.diag([0.2, -0.2]).astype(complex)
        a = reverse_sld(w, x)
        assert np.allclose(a, np.diag([0.2 / 0.3, -0.2 / 0.7]))

    def test_zero_tangent(self):
        w = canonical_amplitude(random_density(2, 3))
        assert frob(reverse_sld(w, np.zeros((2, 2)))) <= 1e-12

    def test_bloch_closed_form(self):
        rho = DensityMatrix(0.5 * (np.eye(2) + 0.8 * PAULI_Z))
        w = canonical_amplitude(rho)
        x = 0.5 * PAULI_X
        a = reverse_sld(w, x)
        rm = rho.func(lambda v: v ** -0.5)
        assert frob(a - rm @ x @ rm) <= 1e-11
        # defining equation residual
        from qig.fisher import rld

        l = rld(rho, x)
        assert frob(l @ w.w - w.w @ a) <= 1e-11

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(6)
        w = canonical_amplitude(random_density(3, rng))
        a = reverse_sld(w, random_hermitian_traceless(3, rng))
        assert frob(a - a.conj().T) == 0.0

    def test_rank_deficient_rejected(self):
        w = AmplitudeMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(RankDeficiencyError):
            reverse_sld(w, 0.5 * PAULI_Z)

    def test_widened_gauge_residual_and_minimum_norm(self):
        from qig.fisher import rld

        rng = np.random.default_rng(45)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            rho = random_density(dim, rng)
            u = random_coisometry(dim, dim + int(rng.integers(1, 4)), rng)
            wu = gauge_transform(canonical_amplitude(rho), u)
            x = random_hermitian_traceless(dim, rng)
            a = reverse_sld(wu, x)
            assert frob(rld(rho, x) @ wu.w - wu.w @ a) <= 1e-12
            # no component on ker W: A = Q A Q with Q the projector onto range W^dag
            q = np.linalg.pinv(wu.w) @ wu.w
            assert frob(a - q @ a @ q) <= 1e-12 * max(1.0, frob(a))


class TestDualityGap:
    def test_canonical_gauge_zero_gap(self):
        rng = np.random.default_rng(8)
        for dim in (2, 3, 4):
            rho = random_density(dim, rng)
            w = canonical_amplitude(rho)
            x = random_hermitian_traceless(dim, rng)
            assert abs(duality_gap(w, x)) <= 1e-10

    def test_zero_tangent_zero_gap(self):
        w = canonical_amplitude(random_density(2, 1))
        assert abs(duality_gap(w, np.zeros((2, 2)))) <= 1e-12

    def test_extended_gauge_seed4_nonnegative(self):
        rng = np.random.default_rng(4)
        rho = random_density(2, rng)
        w = canonical_amplitude(rho)
        u = random_coisometry(2, 4, rng)  # widen the ancilla: d' = 4 > rank
        wu = gauge_transform(w, u)
        x = random_hermitian_traceless(2, rng)
        assert duality_gap(wu, x) >= -1e-10

    def test_extended_gauge_bulk(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            dim = int(rng.integers(2, 4))
            w = canonical_amplitude(random_density(dim, rng))
            u = random_coisometry(dim, dim + int(rng.integers(1, 4)), rng)
            wu = gauge_transform(w, u)
            x = random_hermitian_traceless(dim, rng)
            assert duality_gap(wu, x) >= -1e-10
