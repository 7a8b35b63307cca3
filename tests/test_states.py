"""DensityMatrix and FamilyPoint, and the purification facts behind harness.complementarity_suite.

A purification is a d x d' matrix W with W W^dag = rho, here W = rho^(1/2) V for a co-isometry V
(V V^dag = I); the ancilla state is W^dag W.  The operator relations are stated on plain arrays,
through the library's DensityMatrix, sld, rld and rld_fisher.
"""

import numpy as np
import pytest

from qig.channels import as_rng, ginibre, random_density, random_unitary, traceless_from
from qig.errors import DimensionMismatchError, RldExistenceError
from qig.families import PAULI_X, PAULI_Z
from qig.fisher import rld, rld_fisher, sld
from qig.linalg import frob, herm
from qig.states import TANGENT_TRACE_TOL, DensityMatrix, FamilyPoint


def random_hermitian_traceless(dim, seed):
    """A traceless Hermitian direction: one Ginibre draw of the seed, made traceless."""
    return traceless_from(ginibre(as_rng(seed), 1, dim)[0])


def random_coisometry(rows, cols, rng):
    """rows x cols matrix V with V V^dag = I (cols >= rows)."""
    g = rng.normal(size=(cols, rows)) + 1j * rng.normal(size=(cols, rows))
    q, _ = np.linalg.qr(g)
    return q.conj().T


def purification(rho, v=None):
    """W = rho^(1/2) V, from the cached spectrum; V = I is the canonical gauge."""
    w = rho.func(np.sqrt)
    return w if v is None else w @ v


def reverse_sld(w, x):
    """A = W^+ X W^+dag: the minimum-norm Hermitian A with L^R W = W A."""
    wp = np.linalg.pinv(w)
    return herm(wp @ x @ wp.conj().T)


def duality_gap(w, x):
    """Tr (W^dag W) A A - J^R(rho; X) for rho = W W^dag."""
    rho, a = DensityMatrix(w @ w.conj().T), reverse_sld(w, x)
    jr = rld_fisher(FamilyPoint([0.0], rho, [x])).scalar
    return np.trace(w.conj().T @ w @ a @ a).real - jr


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
        assert np.allclose(purification(DensityMatrix(0.5 * np.eye(2))), np.eye(2) / np.sqrt(2))

    def test_canonical_pure(self):
        assert np.allclose(purification(DensityMatrix(np.diag([1.0, 0.0]))), np.diag([1.0, 0.0]))

    def test_canonical_qutrit_seed11(self):
        rho = random_density(3, 11)
        w = purification(rho)
        assert frob(w @ w.conj().T - rho.mat) <= 1e-12

    def test_trace_invariant(self):
        # Tr W W^dag = Tr W^dag W = 2: neither side is a state
        w = np.eye(2)
        for side in (w @ w.conj().T, w.conj().T @ w):
            with pytest.raises(ValueError, match="trace"):
                DensityMatrix(side)


class TestProject:
    def test_system_side(self):
        w = np.eye(2) / np.sqrt(2)
        assert np.allclose(DensityMatrix(w @ w.conj().T).mat, 0.5 * np.eye(2))

    def test_ancilla_weights(self):
        w = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
        assert np.allclose(DensityMatrix(w.conj().T @ w).mat, np.diag([0.3, 0.7]))

    def test_random_rectangular_seed5(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        w = g / np.sqrt(np.sum(np.abs(g) ** 2))
        for side in (DensityMatrix(w @ w.conj().T), DensityMatrix(w.conj().T @ w)):
            assert np.trace(side.mat).real == pytest.approx(1.0, abs=1e-12)
            assert np.min(side.eig.eigenvalues) >= -1e-12


class TestGauge:
    def test_identity_gauge(self):
        rho = random_density(2, 1)
        assert np.allclose(purification(rho, np.eye(2)), purification(rho))

    def test_pauli_x_permutes_columns(self):
        w = np.eye(2) / np.sqrt(2)
        wu = w @ PAULI_X
        assert np.allclose(wu, w[:, ::-1])
        assert frob(wu @ wu.conj().T - w @ w.conj().T) <= 1e-13

    def test_seed9_unitary_invariance(self):
        rho = random_density(2, 9)
        wu = purification(rho, random_unitary(2, 9))
        assert frob(wu @ wu.conj().T - rho.mat) <= 1e-13

    def test_invariance_bulk(self):
        rng = np.random.default_rng(500)
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            extra = int(rng.integers(0, 3))
            rho = random_density(dim, rng)
            wu = purification(rho, random_coisometry(dim, dim + extra, rng))
            assert frob(wu @ wu.conj().T - rho.mat) <= 1e-12


class TestLiftTangent:
    """The lift M = L W of X through its SLD or RLD L projects back: (W M^dag + M W^dag)/2 = X."""

    def test_zero_tangent(self):
        rho = random_density(2, 1)
        w = purification(rho)
        for l in (sld, rld):
            assert frob(l(rho, np.zeros((2, 2))) @ w) <= 1e-14

    def test_commuting_case_same_lift(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        w = purification(rho)
        x = np.diag([0.1, -0.1]).astype(complex)
        ms, mr = sld(rho, x) @ w, rld(rho, x) @ w
        assert frob(ms - mr) <= 1e-12
        assert frob(ms - np.diag([0.1 / 0.6, -0.1 / 0.4]) @ w) <= 1e-12

    def test_rld_roundtrip_seed2(self):
        rng = np.random.default_rng(2)
        rho = random_density(2, rng)
        x = random_hermitian_traceless(2, rng)
        w = purification(rho)
        assert frob(herm(rld(rho, x) @ w @ w.conj().T) - x) <= 1e-11

    def test_roundtrip_bulk(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            rho = random_density(dim, rng)
            x = random_hermitian_traceless(dim, rng)
            w = purification(rho)
            for l in (sld, rld):
                assert frob(herm(l(rho, x) @ w @ w.conj().T) - x) <= 1e-10 * max(1.0, frob(x))


class TestReverseSld:
    """The RLD on the system is a Hermitian operator A on the ancilla: L^R W = W A."""

    def test_classical_diag(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        w = purification(rho)
        x = np.diag([0.2, -0.2]).astype(complex)
        a = np.diag([0.2 / 0.3, -0.2 / 0.7])
        assert np.allclose(reverse_sld(w, x), a)
        assert frob(rld(rho, x) @ w - w @ a) <= 1e-12

    def test_zero_tangent(self):
        rho = random_density(2, 3)
        assert frob(rld(rho, np.zeros((2, 2)))) <= 1e-12
        assert frob(reverse_sld(purification(rho), np.zeros((2, 2)))) <= 1e-12

    def test_bloch_closed_form(self):
        rho = DensityMatrix(0.5 * (np.eye(2) + 0.8 * PAULI_Z))
        w = purification(rho)
        x = 0.5 * PAULI_X
        a = reverse_sld(w, x)
        rm = rho.func(lambda v: v ** -0.5)
        assert frob(a - rm @ x @ rm) <= 1e-11
        assert frob(rld(rho, x) @ w - w @ a) <= 1e-11  # defining equation residual

    def test_hermitian_by_construction(self):
        # solved from L^R itself, A = W^-1 L^R W comes out Hermitian
        rng = np.random.default_rng(6)
        rho = random_density(3, rng)
        w = purification(rho)
        a = np.linalg.solve(w, rld(rho, random_hermitian_traceless(3, rng)) @ w)
        assert frob(a - a.conj().T) <= 1e-12 * frob(a)

    def test_rank_deficient_rejected(self):
        # pure rho, and a tangent that moves weight off its support: no RLD, so no reverse SLD
        with pytest.raises(RldExistenceError):
            rld(DensityMatrix(np.diag([1.0, 0.0])), 0.5 * PAULI_Z)

    def test_widened_gauge_residual_and_minimum_norm(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            rho = random_density(dim, rng)
            wu = purification(rho, random_coisometry(dim, dim + int(rng.integers(1, 4)), rng))
            x = random_hermitian_traceless(dim, rng)
            a = reverse_sld(wu, x)
            assert frob(rld(rho, x) @ wu - wu @ a) <= 1e-12
            # no component on ker W: A = Q A Q with Q the projector onto range W^dag
            q = np.linalg.pinv(wu) @ wu
            assert frob(a - q @ a @ q) <= 1e-12 * max(1.0, frob(a))


class TestDualityGap:
    """Tr (W^dag W) A A = J^R for the minimum-norm A = W^+ X W^+dag in every co-isometry gauge W = rho^(1/2) V.

    W^+ = V^dag rho^(-1/2), so W^dag W A A = V^dag rho^(1/2) X rho^(-1) X rho^(-1/2) V, whose trace is
    Tr X rho^(-1) X = J^R whatever d' is; only a non-minimal A, with a ker W component, would leave a gap.
    """

    def test_canonical_gauge_zero_gap(self):
        rng = np.random.default_rng(8)
        for dim in (2, 3, 4):
            rho = random_density(dim, rng)
            assert abs(duality_gap(purification(rho), random_hermitian_traceless(dim, rng))) <= 1e-10

    def test_zero_tangent_zero_gap(self):
        assert abs(duality_gap(purification(random_density(2, 1)), np.zeros((2, 2)))) <= 1e-12

    def test_extended_gauge_seed4_zero_gap(self):
        rng = np.random.default_rng(4)
        rho = random_density(2, rng)
        wu = purification(rho, random_coisometry(2, 4, rng))  # widen the ancilla: d' = 4 > rank
        assert abs(duality_gap(wu, random_hermitian_traceless(2, rng))) <= 1e-10

    def test_extended_gauge_bulk(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            dim = int(rng.integers(2, 4))
            rho = random_density(dim, rng)
            u = random_coisometry(dim, dim + int(rng.integers(1, 4)), rng)
            x = random_hermitian_traceless(dim, rng)
            assert abs(duality_gap(purification(rho, u), x)) <= 1e-10
            assert abs(duality_gap(purification(rho), x)) <= 1e-10  # d' = d
