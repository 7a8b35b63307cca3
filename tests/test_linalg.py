import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qig.errors import ConvergenceError, DimensionMismatchError, RankDeficiencyError
from qig.linalg import (
    eig_hermitian,
    frob,
    herm,
    is_hermitian,
    matrix_function,
    solve_lyapunov,
    spabs,
    support_projector,
    trace_norm,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return herm(g)


def charpoly_eigenvalues(h):
    """Independent eigenvalue oracle: roots of the characteristic polynomial.

    Coefficients from the Faddeev-LeVerrier recursion (trace identities
    only, no eigendecomposition involved).
    """
    n = h.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(h @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)


class TestEigHermitian:
    def test_diagonal(self):
        w, u = eig_hermitian(np.diag([2.0, 1.0]))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(u), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        w, _ = eig_hermitian(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0])

    def test_charpoly_oracle_seed7(self):
        h = random_hermitian(4, np.random.default_rng(7))
        w, _ = eig_hermitian(h)
        assert np.max(np.abs(np.sort(w) - charpoly_eigenvalues(h))) <= 1e-10

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 5, 8):
            h = random_hermitian(dim, rng)
            w, u = eig_hermitian(h)
            tol = max(1e-13, 1e-12 * dim * frob(h))
            assert frob(u @ np.diag(w) @ u.conj().T - h) <= tol
            assert frob(u.conj().T @ u - np.eye(dim)) <= tol

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[np.nan, 0], [0, 1.0]]))

    def test_stack_equals_separate_calls(self):
        rng = np.random.default_rng(9)
        stack = np.stack([random_hermitian(3, rng) * 10.0 ** k for k in range(-3, 4)])
        w, u = eig_hermitian(stack)
        assert w.shape == (7, 3) and u.shape == (7, 3, 3)
        for k, h in enumerate(stack):
            wk, uk = eig_hermitian(h)
            assert np.array_equal(w[k], wk)
            assert np.array_equal(u[k], uk)

    def test_stack_corrupted_member_raises(self, monkeypatch):
        rng = np.random.default_rng(10)
        stack = np.stack([random_hermitian(2, rng) for _ in range(4)])
        eigh = np.linalg.eigh

        def corrupt_member_2(a):
            w, u = eigh(a)
            u = u.copy()
            u[2] *= 1.0 + 1e-6  # member 2 is no longer unitary
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", corrupt_member_2)
        with pytest.raises(ConvergenceError, match="stack member 2"):
            eig_hermitian(stack)

    def test_herm_of_stack(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        assert np.array_equal(herm(g), np.stack([herm(x) for x in g]))


class TestMatrixFunction:
    def test_sqrt_diag(self):
        assert np.allclose(matrix_function(np.diag([4.0, 9.0]), "sqrt"), np.diag([2.0, 3.0]))

    def test_log_identity(self):
        assert np.allclose(matrix_function(np.eye(3), "log"), 0.0)

    def test_inverse(self):
        assert np.allclose(matrix_function(0.5 * np.eye(2), "inverse"), 2.0 * np.eye(2))

    def test_power(self):
        h = np.diag([4.0, 16.0])
        assert np.allclose(matrix_function(h, ("power", -0.5)), np.diag([0.5, 0.25]))

    def test_sqrt_squares_to_psd_part(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = herm(g @ g.conj().T)
            s = matrix_function(h, "sqrt")
            assert frob(s @ s - h) <= 1e-10 * max(1.0, frob(h))

    def test_pseudo_inverse_on_support(self):
        h = np.diag([2.0, 0.0])
        assert np.allclose(matrix_function(h, "inverse"), np.diag([0.5, 0.0]))

    def test_strict_mode_raises_off_support(self):
        h = np.diag([1.0, 0.0])
        with pytest.raises(RankDeficiencyError):
            matrix_function(h, "log", strict=True)
        with pytest.raises(RankDeficiencyError):
            matrix_function(h, "inverse", strict=True)

    def test_unknown_function(self):
        with pytest.raises(ValueError):
            matrix_function(np.eye(2), "exp")


class TestSupportProjector:
    def test_full_rank(self):
        assert np.allclose(support_projector(np.diag([1.0, 2.0])), np.eye(2))

    def test_rank_one(self):
        p = support_projector(np.diag([1.0, 0.0]))
        assert np.allclose(p, np.diag([1.0, 0.0]))


class TestSolveLyapunov:
    def test_commuting_diag(self):
        p = 0.3
        rho = np.diag([p, 1 - p])
        x = np.diag([0.5, -0.5])
        l = solve_lyapunov(rho, x)
        assert np.allclose(l, np.diag([0.5 / p, -0.5 / (1 - p)]))

    def test_zero_tangent(self):
        assert np.allclose(solve_lyapunov(0.5 * np.eye(2), np.zeros((2, 2))), 0.0)

    def test_seed3_residual(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ g.conj().T
        rho = herm(rho / np.trace(rho).real)
        rho = 0.9 * rho + 0.1 * np.eye(2) / 2
        x = random_hermitian(2, rng)
        l = solve_lyapunov(rho, x)
        assert frob(0.5 * (l @ rho + rho @ l) - x) <= 1e-12

    def test_residual_bulk(self):
        rng = np.random.default_rng(100)
        for trial in range(1000):
            dim = int(rng.integers(2, 9))
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = g @ g.conj().T
            rho = herm(rho / np.trace(rho).real)
            rho = 0.9 * rho + 0.1 * np.eye(dim) / dim
            x = random_hermitian(dim, rng)
            l = solve_lyapunov(rho, x)
            assert frob(0.5 * (l @ rho + rho @ l) - x) <= 1e-10 * frob(x)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficiencyError):
            solve_lyapunov(np.diag([1.0, 0.0]), np.diag([1.0, -1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_lyapunov(np.eye(2), np.eye(3))


class TestSpabs:
    def test_identity_weight(self):
        assert spabs(np.eye(2), np.diag([1.0, -2.0])) == pytest.approx(3.0)

    def test_diag_weight(self):
        assert spabs(np.diag([4.0, 1.0]), np.eye(2)) == pytest.approx(5.0)

    def test_antisymmetric(self):
        k = np.array([[0.0, -0.25], [0.25, 0.0]])
        assert spabs(np.eye(2), k) == pytest.approx(0.5)

    def test_identity_weight_is_trace_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = rng.normal(size=(3, 3))
            assert spabs(np.eye(3), k) == pytest.approx(trace_norm(k), rel=1e-12)

    def test_nonnegative_and_homogeneous(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = rng.normal(size=(3, 3))
            g = g @ g.T
            k = rng.normal(size=(3, 3))
            c = float(rng.normal())
            v = spabs(g, k)
            assert v >= 0.0
            assert spabs(g, c * k) == pytest.approx(abs(c) * v, rel=1e-10, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            spabs(np.eye(2), np.eye(3))


class TestHermHelpers:
    def test_herm_is_hermitian(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert is_hermitian(herm(g))

    def test_is_hermitian_rejects(self):
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=6))
def test_eig_roundtrip_property(seed, dim):
    h = random_hermitian(dim, np.random.default_rng(seed))
    w, u = eig_hermitian(h)
    assert np.all(np.diff(w) >= 0)
    assert frob(u @ np.diag(w) @ u.conj().T - h) <= max(1e-13, 1e-12 * dim * frob(h))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_spabs_triangle_property(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2))
    g = g @ g.T
    k1 = rng.normal(size=(2, 2))
    k2 = rng.normal(size=(2, 2))
    assert spabs(g, k1 + k2) <= spabs(g, k1) + spabs(g, k2) + 1e-10
