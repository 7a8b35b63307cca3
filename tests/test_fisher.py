import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qig.channels import random_family_point
from qig.errors import DimensionMismatchError, RankDeficiencyError, RldExistenceError, SingularFamilyError
from qig.families import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_rotation_point,
    classical_simplex_point,
)
from qig.fisher import (
    ClassicalFamilyPoint,
    QFisherMatrix,
    classical_fisher,
    km_fisher,
    rld,
    rld_fisher,
    sld,
    sld_fisher,
)
from qig.linalg import SUPPORT_TOL, frob
from qig.states import DensityMatrix, FamilyPoint


class TestQFisherMatrix:
    def test_parts_symmetrized(self):
        j = QFisherMatrix(2, np.array([[1.0, 0.5], [0.3, 2.0]]), np.zeros((2, 2)), "SLD")
        assert np.allclose(j.real_part, j.real_part.T)

    def test_non_rld_must_be_real(self):
        with pytest.raises(ValueError):
            QFisherMatrix(2, np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]), "SLD")

    def test_scalar_requires_m1(self):
        j = QFisherMatrix(2, np.eye(2), np.zeros((2, 2)), "RLD")
        with pytest.raises(ValueError):
            _ = j.scalar

    def test_m_follows_the_matrix(self):
        assert QFisherMatrix.from_complex(np.eye(3), "RLD").m == 3
        assert QFisherMatrix(2, np.zeros((4, 2, 2)), np.zeros((4, 2, 2)), "SLD").m == 2  # a stack of 2 x 2
        for m in (1, 3):  # m = 1 would read .scalar off a 2 x 2 matrix; m = 3 failed later in multiparam_bounds
            with pytest.raises(DimensionMismatchError, match=f"m = {m}"):
                QFisherMatrix(m, np.eye(2), np.zeros((2, 2)), "SLD")


class TestSld:
    def test_commuting_binary(self):
        rho = DensityMatrix(0.5 * np.eye(2))
        assert np.allclose(sld(rho, 0.5 * PAULI_Z), PAULI_Z)

    def test_zero(self):
        assert frob(sld(DensityMatrix(0.5 * np.eye(2)), np.zeros((2, 2)))) == 0.0

    def test_bloch_residual(self):
        rho = DensityMatrix(0.5 * (np.eye(2) + 0.8 * PAULI_X))
        x = 0.4 * PAULI_Y
        l = sld(rho, x)
        assert frob(0.5 * (l @ rho.mat + rho.mat @ l) - x) <= 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficiencyError):
            sld(DensityMatrix(np.diag([1.0, 0.0])), 0.5 * PAULI_Z)


class TestRld:
    def test_commuting_equals_sld(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        x = np.diag([0.5, -0.5]).astype(complex)
        assert np.allclose(rld(rho, x), sld(rho, x))

    def test_zero(self):
        assert frob(rld(DensityMatrix(0.5 * np.eye(2)), np.zeros((2, 2)))) == 0.0

    def test_defining_equation(self):
        pt = random_family_point(3, 1, 17)
        l = rld(pt.rho, pt.tangents[0])
        assert frob(l @ pt.rho.mat - pt.tangents[0]) <= 1e-10

    def test_out_of_support_rejected(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(RldExistenceError) as exc:
            rld(rho, 0.5 * PAULI_X)
        assert exc.value.out_of_support_norm > 0


class TestSldFisher:
    def test_classical_embedding(self):
        # p_theta = ((1+theta)/2, (1-theta)/2) at theta = 0
        pt = FamilyPoint([0.0], DensityMatrix(0.5 * np.eye(2)), [np.diag([0.5, -0.5])])
        assert sld_fisher(pt).scalar == pytest.approx(1.0, abs=1e-12)

    def test_bloch_closed_form(self):
        pt = bloch_rotation_point(0.8, 0.0)
        assert sld_fisher(pt).scalar == pytest.approx(0.64, abs=1e-8)

    def test_two_parameter_diagonal(self):
        rho = DensityMatrix(0.5 * np.eye(2))
        x1 = np.diag([0.5, -0.5]).astype(complex)
        x2 = 0.4 * PAULI_Y
        pt = FamilyPoint([0.0, 0.0], rho, [x1, x2])
        j = sld_fisher(pt)
        j1 = sld_fisher(FamilyPoint([0.0], rho, [x1])).scalar
        j2 = sld_fisher(FamilyPoint([0.0], rho, [x2])).scalar
        assert j.real_part[0, 0] == pytest.approx(j1, abs=1e-12)
        assert j.real_part[1, 1] == pytest.approx(j2, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(j.as_complex())) >= -1e-10


class TestRldFisher:
    def test_classical_embedding(self):
        pt = FamilyPoint([0.0], DensityMatrix(np.diag([0.3, 0.7])), [np.diag([0.5, -0.5])])
        js = sld_fisher(pt).scalar
        jr = rld_fisher(pt)
        assert jr.scalar == pytest.approx(js, abs=1e-12)
        assert frob(jr.imag_part) <= 1e-12

    def test_bloch_closed_form(self):
        pt = bloch_rotation_point(0.8, 0.0)
        assert rld_fisher(pt).scalar == pytest.approx(0.64 / 0.36, abs=1e-8)

    def test_cross_check_direct_trace(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            dim = int(rng.integers(2, 6))
            pt = random_family_point(dim, 1, rng)
            jr = rld_fisher(pt).scalar
            inv = pt.rho.func(np.reciprocal)
            direct = float(np.trace(pt.tangents[0] @ inv @ pt.tangents[0]).real)
            assert abs(jr - direct) <= 1e-10 * max(1.0, direct)

    def test_hermitian_psd(self):
        for seed in range(30):
            pt = random_family_point(3, 2, seed)
            assert np.linalg.eigvalsh(rld_fisher(pt).as_complex()).min() >= -1e-10


class TestMetricKernel:
    """The eigenbasis kernel against the defining traces, and the KM sandwich."""

    def test_sld_and_rld_match_defining_traces(self):
        rng = np.random.default_rng(31)
        for dim in (2, 3, 5):
            for _ in range(10):
                pt = random_family_point(dim, 2, rng)
                rho = pt.rho.mat
                ls = [sld(pt.rho, x) for x in pt.tangents]
                lr = [rld(pt.rho, x) for x in pt.tangents]
                js = np.array([[np.trace(rho @ a @ b).real for b in ls] for a in ls])
                jr = np.array([[np.trace(rho @ b.conj().T @ a) for b in lr] for a in lr])
                assert frob(sld_fisher(pt).real_part - js) <= 1e-12 * frob(js)
                assert frob(rld_fisher(pt).as_complex() - jr) <= 1e-12 * frob(jr)

    def test_km_between_sld_and_rld_in_loewner_order(self):
        rng = np.random.default_rng(32)
        for dim in (2, 3, 5):
            for _ in range(20):
                pt = random_family_point(dim, 2, rng)
                js, jkm = sld_fisher(pt).real_part, km_fisher(pt).real_part
                # as metrics on real tangent vectors: c^T J^R c = c^T Re J^R c
                jr = rld_fisher(pt).real_part
                assert np.linalg.eigvalsh(jkm - js)[0] >= -1e-10
                assert np.linalg.eigvalsh(jr - jkm)[0] >= -1e-10

    def test_sld_and_km_rank_deficient_rejected(self):
        # the tangent stays in the support, so only the kernels' log / 1/(a+b) fail
        pt = FamilyPoint([0.0], DensityMatrix(np.diag([0.4, 0.6, 0.0])), [np.diag([0.1, -0.1, 0.0])])
        for metric in (sld_fisher, km_fisher):
            with pytest.raises(RankDeficiencyError):
                metric(pt)

    def test_rld_fisher_rank_deficient_on_support(self):
        # tangent inside the support of a rank-2 qutrit state: J^R = Tr X rho^+ X
        rho = DensityMatrix(np.diag([0.4, 0.6, 0.0]))
        x = np.diag([0.1, -0.1, 0.0]).astype(complex)
        jr = rld_fisher(FamilyPoint([0.0], rho, [x])).scalar
        assert jr == pytest.approx(0.01 / 0.4 + 0.01 / 0.6, rel=1e-12)

    def test_out_of_support_threshold(self):
        # one constant decides both the RLD refusal and the divergence's inf
        from qig.divergence import umegaki

        rho = DensityMatrix(np.diag([1.0, 0.0]))
        for scale, refused in ((0.5, False), (2.0, True)):
            eps = scale * SUPPORT_TOL / np.sqrt(2)  # ||X - PXP||_F = scale * SUPPORT_TOL
            x = np.array([[10.0, eps], [eps, 0.0]], dtype=complex)
            if refused:
                with pytest.raises(RldExistenceError):
                    rld(rho, x)
            else:
                rld(rho, x)
            leaky = DensityMatrix(np.array([[1.0 - 2 * eps**2, eps], [eps, 2 * eps**2]]))
            assert np.isinf(umegaki(leaky, rho)) == refused


class TestClassicalFisher:
    def test_binary_half(self):
        pt = ClassicalFamilyPoint([0.0], [0.5, 0.5], [[0.5, -0.5]])
        assert classical_fisher(pt).scalar == pytest.approx(1.0)

    def test_binary_scores(self):
        pt = ClassicalFamilyPoint([0.5], [0.5, 0.5], [[1.0, -1.0]])
        assert classical_fisher(pt).scalar == pytest.approx(4.0)

    def test_zero_score(self):
        pt = ClassicalFamilyPoint([0.0], [0.25] * 4, [[0.0] * 4])
        assert classical_fisher(pt).scalar == 0.0

    def test_dead_outcome_with_score_rejected(self):
        pt = ClassicalFamilyPoint([0.0], [1.0, 0.0], [[0.5, -0.5]])
        with pytest.raises(SingularFamilyError):
            classical_fisher(pt)

    def test_dead_outcome_without_score_skipped(self):
        pt = ClassicalFamilyPoint([0.0], [0.5, 0.5, 0.0], [[0.5, -0.5, 0.0]])
        assert classical_fisher(pt).scalar == pytest.approx(1.0)

    @pytest.mark.parametrize("probs, scores, message", [
        ([1.1, -0.1], [[0.5, -0.5]], "negative probability"),
        ([0.5, 0.4], [[0.5, -0.5]], "probabilities sum to"),
        ([0.5, 0.5], [[0.5, -0.25, -0.25]], "score/probability length mismatch"),
        ([0.2, 0.8], [[4.0, -1.0]], r"score rows must sum to 0, got \[3\.\]"),  # d log p, not d p
    ])
    def test_invalid_point_refused(self, probs, scores, message):
        with pytest.raises(ValueError, match=message):
            ClassicalFamilyPoint([0.0], probs, scores)


class TestScalarSandwichAndCollapse:
    def test_scalar_sandwich_bulk(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            pt = random_family_point(dim, 1, rng)
            assert sld_fisher(pt).scalar <= rld_fisher(pt).scalar + 1e-9

    def test_commuting_collapse(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(dim)) * 0.9 + 0.1 / dim
            dp = rng.normal(size=dim)
            dp -= dp.mean()
            pt = FamilyPoint([0.0], DensityMatrix(np.diag(p)), [np.diag(dp)])
            js = sld_fisher(pt).scalar
            jr = rld_fisher(pt).scalar
            assert abs(js - jr) <= 1e-10 * max(1.0, jr)
            l = rld(pt.rho, pt.tangents[0])
            assert frob(l - l.conj().T) <= 1e-10


class TestImagPart:
    def test_imag_part_is_im_tr_rho_l_l(self):
        # Im J^R_ij = Im Tr rho L_i L_j for the RLDs L_i = rld(rho, X_i); both vanish on a commuting family
        commuting = FamilyPoint([0.0, 0.0], DensityMatrix(np.diag([0.2, 0.8])),
                                [np.diag([0.5, -0.5]), np.diag([-0.1, 0.1])])
        for pt in [random_family_point(d, 2, 21 + d) for d in (2, 3, 5)] + [commuting]:
            ls = rld(pt.rho, pt.tangents)
            t = np.einsum("iac,kca->ik", pt.rho.mat @ ls, ls)
            imag = rld_fisher(pt).imag_part
            assert frob(imag - t.imag) <= 1e-12 * max(1.0, frob(imag))
            assert (frob(imag) <= 1e-12) == (pt is commuting)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
def test_classical_fisher_psd_property(seed, n):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
    s = rng.normal(size=(2, n))
    s -= s.mean(axis=1, keepdims=True)
    j = classical_fisher(ClassicalFamilyPoint([0.0, 0.0], p, s))
    assert np.min(np.linalg.eigvalsh(j.real_part)) >= -1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_simplex_embedding_matches_classical(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
    dp = rng.normal(size=3)
    dp -= dp.mean()
    quantum = classical_simplex_point(p, [dp])
    classical = classical_fisher(ClassicalFamilyPoint([0.0], p, [dp])).scalar
    assert sld_fisher(quantum).scalar == pytest.approx(classical, rel=1e-10)
    assert rld_fisher(quantum).scalar == pytest.approx(classical, rel=1e-10)
