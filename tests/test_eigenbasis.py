"""Dense-layer quantities computed from the cached spectra.

The RLD divergence against a 50-digit mpmath evaluation; the two-point
estimate, the optimal local reverse estimate and the global reverse
estimate against the canonical whitened-matrix formulas they replace;
stacks against per-member calls; the cached eigenbasis tangents and the
once-per-point RLD existence check; how many decompositions the SLD and
the finite differences make.
"""

import math
import sys

import mpmath
import numpy as np
import pytest

from qig import fisher, linalg
from qig.channels import optimal_sld_povm, random_family_point
from qig.divergence import rld_divergence, two_point_reverse_estimate
from qig.errors import RldExistenceError
from qig.families import bloch_rotation_point, fixed_basis_family
from qig.fisher import km_fisher, rld_fisher, sld, sld_fisher
from qig.linalg import RANK_TOL, frob, support_leak
from qig.reverse import global_reverse_estimate, local_reverse_estimate, restricted_input_fisher
from qig.states import DensityMatrix, FamilyPoint, canonical_amplitude, lift_tangent, project

from conftest import geometric, haar, state


def tangent(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = 0.5 * (g + g.conj().T)
    x -= np.trace(x) / d * np.eye(d)
    return x / np.linalg.norm(x)


# --- 50-digit reference -------------------------------------------------------


def _mp(a):
    return mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in np.asarray(a, dtype=complex)])


def _mp_func(m, fn):
    """fn on the support (lambda >= RANK_TOL lambda_max) of a Hermitian mpmath matrix, 0 off it."""
    e, q = mpmath.eighe(m)
    top = max(e[i] for i in range(m.rows))
    vals = [fn(e[i]) if e[i] >= RANK_TOL * top else mpmath.mpf(0) for i in range(m.rows)]
    return q * mpmath.diag(vals) * q.transpose_conj()


def rld_divergence_ref(rho, sigma):
    """Tr rho log(rho^(1/2) sigma^+ rho^(1/2)) at 50 digits, from the same float64 matrices."""
    with mpmath.workdps(50):
        r, s = _mp(rho), _mp(sigma)
        rh = _mp_func(r, mpmath.sqrt)
        t = rh * _mp_func(s, lambda v: 1 / v) * rh
        lt = _mp_func((t + t.transpose_conj()) / 2, mpmath.log)
        return float(mpmath.re(sum((r * lt)[i, i] for i in range(r.rows))))


EPS = np.finfo(float).eps


def assert_matches_reference(rho, sigma, kappa, two_point=True):
    """rld_divergence (and the two-point KL) within EPS * kappa relative of the reference.

    kappa bounds the condition numbers of rho and sigma on their supports.
    Over the sweeps below the largest error is about 0.15 EPS kappa
    (4.3e-12 at kappa = 2e5, one BLAS thread).
    """
    ref = rld_divergence_ref(rho.mat, sigma.mat)
    assert abs(rld_divergence(rho, sigma) - ref) <= EPS * kappa * abs(ref)
    if two_point:
        assert abs(two_point_reverse_estimate(rho, sigma).input_kl() - ref) <= EPS * kappa * abs(ref)


class TestRldDivergenceReference:
    @pytest.mark.parametrize("d", [2, 3, 16])
    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
    def test_full_rank(self, d, kappa):
        rng = np.random.default_rng([d, int(math.log10(kappa))])
        for _ in range(1 if d == 16 else 4):
            rho = DensityMatrix(state(haar(d, rng), geometric(d, kappa)))
            kappa_s = 10 ** rng.uniform(2, 6)
            sigma = DensityMatrix(state(haar(d, rng), geometric(d, kappa_s)))
            assert_matches_reference(rho, sigma, max(kappa, kappa_s))

    @pytest.mark.parametrize("d, kappa", [(3, 1e2), (3, 1e6), (16, 1e4)])
    def test_rank_deficient(self, d, kappa):
        """rho of rank d - 1 against full-rank sigma; rho inside the support of a rank-deficient sigma."""
        rng = np.random.default_rng([d, int(math.log10(kappa)), 1])
        u = haar(d, rng)
        rho = DensityMatrix(state(u, geometric(d, kappa, zeros=1)))
        sigma = DensityMatrix(state(haar(d, rng), geometric(d, kappa)))
        assert_matches_reference(rho, sigma, kappa, two_point=False)
        # sigma of rank d - 1 on the same support as rho, in another basis of it
        v = np.eye(d, dtype=complex)
        v[: d - 1, : d - 1] = haar(d - 1, rng)
        kappa_s = 10 ** rng.uniform(2, 6)
        sigma = DensityMatrix(state(u @ v, geometric(d, kappa_s, zeros=1)))
        assert_matches_reference(rho, sigma, max(kappa, kappa_s), two_point=False)

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_off_support_is_inf(self, d):
        rng = np.random.default_rng([d, 2])
        rho = DensityMatrix(state(haar(d, rng), geometric(d, 1e4)))
        sigma = DensityMatrix(state(haar(d, rng), geometric(d, 1e4, zeros=1)))
        assert rld_divergence(rho, sigma) == math.inf


# --- the whitened-matrix formulas ---------------------------------------------


def _inv_sqrt(rho):
    w, u = np.linalg.eigh(rho)
    return (u / np.sqrt(w)) @ u.conj().T, (u * np.sqrt(w)) @ u.conj().T


def _projectors(states):
    return states[:, :, None] * states[:, None, :].conj()


class TestWhitenedFormulas:
    @pytest.mark.parametrize("d, kappa", [(2, 1e2), (5, 1e4), (16, 1e6)])
    def test_two_point_weights(self, d, kappa):
        rng = np.random.default_rng([d, 3])
        rho = DensityMatrix(state(haar(d, rng), geometric(d, kappa)))
        sigma = DensityMatrix(state(haar(d, rng), geometric(d, 1e3)))
        rm, rp = _inv_sqrt(sigma.mat)
        t, v = np.linalg.eigh(0.5 * (rm @ rho.mat @ rm + (rm @ rho.mat @ rm).conj().T))
        cols = rp @ v
        p_sigma = np.sum(np.abs(cols) ** 2, axis=0)
        p_rho = t * p_sigma / np.sum(t * p_sigma)
        tp = two_point_reverse_estimate(rho, sigma)
        assert np.allclose(tp.p_sigma, p_sigma, rtol=1e-9, atol=1e-15)
        assert np.allclose(tp.p_rho, p_rho, rtol=1e-9, atol=1e-15)
        want = _projectors((cols / np.sqrt(p_sigma)).T)
        assert np.allclose(_projectors(tp.ensemble.states), want, atol=1e-9)

    @pytest.mark.parametrize("d, kappa", [(2, 1e2), (5, 1e4), (16, 1e6)])
    def test_lre_ensemble_and_scores(self, d, kappa):
        rng = np.random.default_rng([d, 4])
        rho = DensityMatrix(state(haar(d, rng), geometric(d, kappa)))
        point = FamilyPoint([0.0], rho, [tangent(d, rng)])
        rm, rp = _inv_sqrt(rho.mat)
        a = rm @ point.tangents[0] @ rm
        lam, v = np.linalg.eigh(0.5 * (a + a.conj().T))
        cols = rp @ v
        p = np.sum(np.abs(cols) ** 2, axis=0)
        lre = local_reverse_estimate(point)
        scale = np.max(np.abs(lam))
        assert np.allclose(lre.scores[0], lam, rtol=1e-9, atol=1e-12 * scale)
        assert np.allclose(lre.ensemble.weights, p, rtol=1e-9, atol=1e-15)
        assert np.allclose(_projectors(lre.ensemble.states), _projectors((cols / np.sqrt(p)).T), atol=1e-9)

    # kappa = 1e6 is left out: there rld()'s residual test refuses about 13 in 20 such grids at d = 2
    # and 4 in 20 at d = 8 (ROADMAP item 5a), so the case would pass or fail by its seed
    @pytest.mark.parametrize("d, kappa", [(2, 1e2), (2, 1e4), (8, 1e2), (8, 1e4)])
    def test_global_estimate(self, d, kappa):
        rng = np.random.default_rng([d, int(math.log10(kappa)), 5])
        b = rng.normal(size=d)
        grid = np.linspace(0.0, 1.0, 5)
        q = geometric(d, kappa) * np.exp(grid[:, None] * b)
        q /= q.sum(axis=1, keepdims=True)
        points = fixed_basis_family(haar(d, rng), q, grid, q * (b - (q @ b)[:, None]))
        gre = global_reverse_estimate(points, 0, seed=0)
        rm, rp = _inv_sqrt(points[0].rho.mat)
        ms = np.array([rm @ pt.rho.mat @ rm for pt in points])
        _, v = np.linalg.eigh(np.tensordot(rng.normal(size=len(ms)), ms, 1))
        cols = rp @ v
        p0 = np.sum(np.abs(cols) ** 2, axis=0)
        p = np.einsum("xa,kab,bx->kx", v.conj().T, ms, v).real * p0
        p /= p.sum(axis=1, keepdims=True)
        overlap = np.abs(gre.ensemble.states.conj() @ (cols / np.sqrt(p0))) ** 2
        perm = overlap.argmax(axis=1)
        assert np.allclose(overlap, np.eye(d)[perm], atol=1e-9) and sorted(perm) == list(range(d))
        assert np.allclose(gre.distributions, p[:, perm], rtol=1e-9, atol=0)
        for k, pt in enumerate(points):
            assert frob(gre.ensemble.mix(gre.distributions[k]) - pt.rho.mat) <= 1e-12
            scores = np.einsum("xa,ab,bx->x", v.conj().T, rm @ pt.tangents[0] @ rm, v).real * p0
            want = np.sum(scores ** 2 / p[k])
            assert restricted_input_fisher(gre, pt, points).scalar == pytest.approx(want, rel=1e-9)


# --- stacks -------------------------------------------------------------------


class TestStacks:
    def test_divergences_and_two_point(self):
        rng = np.random.default_rng(8)
        rhos = np.stack([state(haar(4, rng), geometric(4, 10 ** rng.uniform(1, 5))) for _ in range(5)])
        sigmas = np.stack([state(haar(4, rng), geometric(4, 10 ** rng.uniform(1, 5))) for _ in range(5)])
        rho, sigma = DensityMatrix(rhos), DensityMatrix(sigmas)
        dr, tp = rld_divergence(rho, sigma), two_point_reverse_estimate(rho, sigma)
        for k in range(5):
            r, s = DensityMatrix(rhos[k]), DensityMatrix(sigmas[k])
            assert dr[k] == pytest.approx(rld_divergence(r, s), rel=1e-13)
            one = two_point_reverse_estimate(r, s)
            assert np.allclose(tp.p_rho[k], one.p_rho, rtol=1e-12, atol=1e-16)
            assert np.allclose(tp.p_sigma[k], one.p_sigma, rtol=1e-12, atol=1e-16)

    def test_fisher_and_lre(self):
        points = [random_family_point(3, 1, seed) for seed in range(6)]
        stack = FamilyPoint([0.0], DensityMatrix(np.stack([p.rho.mat for p in points])),
                            [np.stack([p.tangents[0] for p in points])])
        assert stack.tangents.shape == (1, 6, 3, 3)
        lre = local_reverse_estimate(stack)
        for fn in (sld_fisher, km_fisher, rld_fisher):
            got = fn(stack).as_complex()
            for k, p in enumerate(points):
                assert np.allclose(got[k], fn(p).as_complex(), rtol=1e-13, atol=0)
        for k, p in enumerate(points):
            one = local_reverse_estimate(p)
            assert np.allclose(lre.scores[k], one.scores, rtol=1e-12, atol=1e-14)
            assert np.allclose(lre.ensemble.weights[k], one.ensemble.weights, rtol=1e-12, atol=1e-16)


# --- the cached tangents and the once-per-point existence check --------------


class TestPointCache:
    def test_tangents_eig_cached_and_read_only(self):
        point = random_family_point(4, 2, seed=3)
        u = point.rho.eig.eigenvectors
        xt = point.tangents_eig
        assert point.tangents_eig is xt
        assert np.allclose(xt, [u.conj().T @ x @ u for x in point.tangents], atol=1e-15)
        assert point.tangents.shape == (2, 4, 4)
        for arr in (point.tangents, xt):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0

    def test_rld_check_once_per_point(self, monkeypatch):
        calls = []
        real = fisher.rld
        monkeypatch.setattr(fisher, "rld", lambda *a, **k: calls.append(1) or real(*a, **k))
        point = random_family_point(3, 2, seed=4)
        first = rld_fisher(point).as_complex()
        for _ in range(3):
            assert np.array_equal(rld_fisher(point).as_complex(), first)
        assert len(calls) == 1
        rld_fisher(random_family_point(3, 2, seed=4))
        assert len(calls) == 2

    def test_refusing_point_refuses_every_call(self, monkeypatch):
        calls = []
        real = fisher.rld
        monkeypatch.setattr(fisher, "rld", lambda *a, **k: calls.append(1) or real(*a, **k))
        point = FamilyPoint([0.0], DensityMatrix(np.diag([1.0, 0.0])), [0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])])
        for _ in range(3):
            with pytest.raises(RldExistenceError):
                rld_fisher(point)
        assert len(calls) == 3


# --- one decomposition per state ---------------------------------------------


@pytest.fixture
def decompositions(monkeypatch):
    """count(fn) -> (linalg.eig_hermitian calls, np.linalg.eigh calls) that fn() makes, wherever qig holds either."""
    counts = {"eig_hermitian": 0, "eigh": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    eig = linalg.eig_hermitian
    for mod in [m for name, m in sys.modules.items() if name.startswith("qig.")]:
        if getattr(mod, "eig_hermitian", None) is eig:
            monkeypatch.setattr(mod, "eig_hermitian", counted("eig_hermitian", eig))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))

    def count(fn):
        counts.update(eig_hermitian=0, eigh=0)
        fn()
        return counts["eig_hermitian"], counts["eigh"]
    return count


class TestDecompositionCounts:
    """Each state is decomposed once, when it is built; the SLD and finite differences reuse that spectrum."""

    def test_sld_and_lift_decompose_nothing_more(self, decompositions):
        point = random_family_point(5, 1, seed=6)
        x = point.tangents[0]
        assert decompositions(lambda: sld(point.rho, x)) == (0, 0)
        w = canonical_amplitude(point.rho)
        built = decompositions(lambda: project(w, "system"))  # lift_tangent builds rho = W W^dag itself
        assert built == (1, 1)
        assert decompositions(lambda: lift_tangent(w, x, "SLD")) == built

    def test_optimal_sld_povm_decomposes_l_only(self, decompositions):
        point = random_family_point(5, 1, seed=7)
        assert decompositions(lambda: optimal_sld_povm(point)) == (0, 1)

    @pytest.mark.parametrize("build", [lambda: bloch_rotation_point(0.8, 0.3, 1e-5)], ids=["bloch"])
    def test_finite_differences_decompose_the_centre_only(self, decompositions, build):
        assert decompositions(build) == (1, 1)


# --- support_leak on a full support -------------------------------------------


class TestSupportLeakShortcut:
    def test_full_rank_is_exactly_zero_and_x(self):
        rng = np.random.default_rng(9)
        rho = DensityMatrix(state(haar(5, rng), geometric(5, 1e6)))
        xs = np.stack([tangent(5, rng) for _ in range(3)])
        leak, pxp = support_leak(xs, *rho.eig)
        assert pxp is xs
        assert leak.shape == (3,) and np.all(leak == 0.0)

    def test_rank_deficient_projects(self):
        rng = np.random.default_rng(10)
        u = haar(4, rng)
        rho = DensityMatrix(state(u, geometric(4, 1e2, zeros=2)))
        x = tangent(4, rng)
        w, uu = rho.eig
        p = (uu * (w >= RANK_TOL * w.max())) @ uu.conj().T
        leak, pxp = support_leak(x, w, uu)
        assert np.allclose(pxp, p @ x @ p, atol=1e-15)
        assert leak == pytest.approx(np.linalg.norm(x - p @ x @ p), rel=1e-12)
        assert leak > 0.1
