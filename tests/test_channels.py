import numpy as np
import pytest

from qig.channels import (
    Ensemble,
    KrausChannel,
    POVM,
    apply_channel,
    child_rng,
    cq_map,
    measure,
    optimal_sld_povm,
    random_density,
    random_instance,
    random_kraus,
    random_povm,
    random_unitary,
)
from qig.errors import DimensionMismatchError
from qig.families import PAULI_X, PAULI_Y, PAULI_Z, bloch_rotation_point
from qig.fisher import classical_fisher, rld_fisher, sld_fisher
from qig.linalg import frob, herm
from qig.reverse import local_reverse_estimate
from qig.states import DensityMatrix, FamilyPoint


def depolarizing(lam):
    """Qubit depolarizing channel with Kraus operators sqrt(1-3l/4) I, sqrt(l/4) sigma_i."""
    return KrausChannel(
        [np.sqrt(1 - 0.75 * lam) * np.eye(2)]
        + [np.sqrt(lam / 4) * s for s in (PAULI_X, PAULI_Y, PAULI_Z)]
    )


class TestPovmAndKraus:
    def test_povm_invariants(self):
        povm = random_povm(2, 3, 3)
        total = sum(povm.elements)
        assert frob(total - np.eye(2)) <= 1e-12
        for e in povm.elements:
            assert np.min(np.linalg.eigvalsh(e)) >= -1e-12

    def test_povm_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            POVM([0.5 * np.eye(2), 0.4 * np.eye(2)])

    def test_kraus_completeness(self):
        ch = random_kraus(3, 2)
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert frob(total - np.eye(3)) <= 1e-12

    def test_kraus_rejects_non_tp(self):
        with pytest.raises(ValueError):
            KrausChannel([np.eye(2)] * 2)

    def test_ensemble_from_columns_and_mix(self):
        rng = np.random.default_rng(12)
        cols = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        cols /= np.linalg.norm(cols)
        ens = Ensemble.from_columns(cols)
        assert ens.size == 5
        assert frob(ens.mix(ens.weights) - cols @ cols.conj().T) <= 1e-14
        c = rng.normal(size=5)
        direct = sum(ck * np.outer(v, v.conj()) for ck, v in zip(c, ens.states))
        assert frob(ens.mix(c) - direct) <= 1e-14

    def test_ensemble_invariants(self):
        with pytest.raises(ValueError):
            Ensemble([0.5, 0.4], [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        with pytest.raises(ValueError):
            Ensemble([0.5, 0.5], [np.array([1.0, 0.0]), np.array([0.0, 2.0])])


class TestMeasure:
    def test_projective_z_on_commuting_family(self):
        pt = FamilyPoint([0.0], DensityMatrix(0.5 * np.eye(2)), [0.5 * PAULI_Z])
        povm = POVM([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        cls = measure(pt, povm)
        assert np.allclose(cls.probs, [0.5, 0.5])
        assert classical_fisher(cls).scalar == pytest.approx(1.0)

    def test_trivial_povm_zero_information(self):
        pt = bloch_rotation_point(0.8, 0.0)
        cls = measure(pt, POVM([np.eye(2)]))
        assert classical_fisher(cls).scalar == 0.0

    def test_random_povm_seed6_bounded_by_sld(self):
        rng = np.random.default_rng(6)
        pt = FamilyPoint(
            [0.0],
            random_density(2, rng),
            [bloch_rotation_point(0.5, 0.0).tangents[0]],
        )
        jm = classical_fisher(measure(pt, random_povm(2, 3, rng))).scalar
        assert jm <= sld_fisher(pt).scalar + 1e-9

    def test_measured_bulk_bounded_by_sld(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            pt = random_instance("family_point", dim, 1, rng)
            jm = classical_fisher(measure(pt, random_povm(dim, 3, rng))).scalar
            assert jm <= sld_fisher(pt).scalar + 1e-9

    def test_dimension_mismatch(self):
        pt = bloch_rotation_point(0.5, 0.0)
        with pytest.raises(DimensionMismatchError):
            measure(pt, POVM([np.eye(3)]))


class TestOptimalSldPovm:
    def test_sigma_z_family_projectors(self):
        pt = FamilyPoint([0.0], DensityMatrix(0.5 * np.eye(2)), [0.5 * PAULI_Z])
        povm = optimal_sld_povm(pt)
        for e in povm.elements:
            assert frob(e - np.diag(np.diag(e))) <= 1e-12

    def test_bloch_attains_sld(self):
        pt = bloch_rotation_point(0.8, 0.0)
        jm = classical_fisher(measure(pt, optimal_sld_povm(pt))).scalar
        assert jm == pytest.approx(0.64, abs=1e-9)

    def test_random_seed8_attains_sld(self):
        pt = random_instance("family_point", 2, 1, 8)
        jm = classical_fisher(measure(pt, optimal_sld_povm(pt))).scalar
        assert jm == pytest.approx(sld_fisher(pt).scalar, abs=1e-9)


class TestApplyChannel:
    def test_identity_channel(self):
        pt = bloch_rotation_point(0.8, 0.0)
        out = apply_channel(pt, KrausChannel([np.eye(2)]))
        assert frob(out.rho.mat - pt.rho.mat) <= 1e-14

    def test_fully_depolarizing(self):
        pt = bloch_rotation_point(0.8, 0.0)
        out = apply_channel(pt, depolarizing(1.0))
        assert frob(out.rho.mat - 0.5 * np.eye(2)) <= 1e-12
        assert frob(out.tangents[0]) <= 1e-12
        assert sld_fisher(out).scalar == pytest.approx(0.0, abs=1e-12)

    def test_half_depolarizing_shrinks_bloch(self):
        pt = bloch_rotation_point(0.8, 0.0)
        out = apply_channel(pt, depolarizing(0.5))
        # radius shrinks to 0.4, so J^S = r^2 = 0.16
        assert sld_fisher(out).scalar == pytest.approx(0.16, abs=1e-10)

    def test_cpt_monotonicity_bulk(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            dim = int(rng.integers(2, 4))
            pt = random_instance("family_point", dim, 1, rng)
            out = apply_channel(pt, random_kraus(dim, rng))
            assert sld_fisher(out).scalar <= sld_fisher(pt).scalar + 1e-8
            assert rld_fisher(out).scalar <= rld_fisher(pt).scalar + 1e-8


class TestCqMap:
    def test_orthonormal_states_embed_classical(self):
        from qig.fisher import ClassicalFamilyPoint

        cls = ClassicalFamilyPoint([0.0], [0.3, 0.7], [[0.5, -0.5]])
        pt = cq_map(cls, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        jc = classical_fisher(cls).scalar
        assert sld_fisher(pt).scalar == pytest.approx(jc, rel=1e-12)
        assert rld_fisher(pt).scalar == pytest.approx(jc, rel=1e-12)

    def test_identical_states_constant_family(self):
        from qig.fisher import ClassicalFamilyPoint

        cls = ClassicalFamilyPoint([0.0], [0.5, 0.5], [[1.0, -1.0]])
        v = np.array([1.0, 0.0])
        pt = cq_map(cls, [v, v])
        assert frob(pt.tangents[0]) <= 1e-14

    def test_roundtrip_with_lre(self):
        from qig.fisher import ClassicalFamilyPoint

        pt = bloch_rotation_point(0.8, 0.0)
        lre = local_reverse_estimate(pt)
        cls = ClassicalFamilyPoint(
            pt.theta, lre.ensemble.weights, lre.scores * lre.ensemble.weights
        )
        recon = cq_map(cls, lre.ensemble.states)
        assert frob(recon.rho.mat - pt.rho.mat) <= 1e-10
        assert frob(recon.tangents[0] - pt.tangents[0]) <= 1e-10


class TestRandomInstances:
    def test_density_determinism(self):
        a = random_density(2, 1)
        b = random_density(2, 1)
        assert np.array_equal(a.mat, b.mat)

    def test_density_full_rank_floor(self):
        for seed in range(20):
            rho = random_density(4, seed)
            assert np.min(rho.eig.eigenvalues) >= 0.02 / 4 - 1e-12

    def test_density_draws_below_50_pinned(self):
        # Ginibre mixed with I/d at weight 0.02 d: the seeded suites rely on these draws
        for dim in (2, 3, 17, 49):
            rng = np.random.default_rng(dim)
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            t = 0.02 * dim
            expected = herm((1.0 - t) * rho + t * np.eye(dim) / dim)
            drawn = random_density(dim, dim)
            assert np.array_equal(drawn.mat, expected)
            assert np.min(drawn.eig.eigenvalues) >= 0.02 - 1e-12

    def test_density_large_dim_not_maximally_mixed(self):
        for dim in (50, 64):
            w = random_density(dim, 3).eig.eigenvalues
            assert w[-1] - w[0] > 1e-4
            assert w[0] >= 0.98 / dim - 1e-12

    def test_unitary_is_unitary(self):
        u = random_unitary(3, 5)
        assert frob(u @ u.conj().T - np.eye(3)) <= 1e-12

    def test_child_rng_reproducible_and_distinct(self):
        a = child_rng(42, 0).normal(size=3)
        b = child_rng(42, 0).normal(size=3)
        c = child_rng(42, 1).normal(size=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dispatcher(self):
        assert isinstance(random_instance("density", 2, seed=1), DensityMatrix)
        assert isinstance(random_instance("kraus", 3, seed=2), KrausChannel)
        assert isinstance(random_instance("povm", 2, 3, seed=3), POVM)
        with pytest.raises(ValueError):
            random_instance("density", 1, seed=0)
        with pytest.raises(ValueError):
            random_instance("graph", 2, seed=0)
