import numpy as np
import pytest

from qig.channels import Ensemble, as_rng, random_density
from qig.divergence import TwoPointReverseEstimate
from qig.errors import RankDeficiencyError
from qig.families import PAULI_Z, bloch_rotation_point
from qig.linalg import frob, herm
from qig.reverse import LocalReverseEstimate
from qig.states import DensityMatrix, FamilyPoint


@pytest.fixture
def bloch_point():
    """Rotation family at r = 0.8, theta = 0: J^S = 0.64, J^R = 16/9."""
    return bloch_rotation_point(0.8, 0.0)


@pytest.fixture
def sigma_z_point():
    """rho = (I + theta sigma_z)/2 at theta = 0; commuting classical case."""
    return FamilyPoint([0.0], DensityMatrix(0.5 * np.eye(2)), [0.5 * PAULI_Z])


def random_qubit_pair(seed):
    """Two independent full-rank qubit states from one seeded generator."""
    rng = np.random.default_rng(seed)
    return random_density(2, rng), random_density(2, rng)


def commuting_point(probs, dprobs):
    """Diagonal family point from classical data."""
    dprobs = np.asarray(dprobs, dtype=float)
    return FamilyPoint(
        [0.0], DensityMatrix(np.diag(probs).astype(complex)), [np.diag(dprobs).astype(complex)]
    )


def haar(d, rng):
    """Haar-random d x d unitary."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def geometric(d, kappa, zeros=0):
    """Spectrum lambda_k = kappa^(-k/(d-1)) on d - zeros entries, then `zeros` exact zeros, normalized."""
    n = d - zeros
    lam = kappa ** (-np.arange(n) / max(n - 1.0, 1.0))
    return np.concatenate([lam, np.zeros(zeros)]) / lam.sum()


def state(u, lam):
    """U diag(lam) U^dag, Hermitian to rounding."""
    rho = (u * lam) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def random_valid_lre(point: FamilyPoint, seed=0) -> LocalReverseEstimate:
    """Randomized valid (generally suboptimal) local reverse estimate.

    Draws a random co-isometry V (d x d'' with VV^dag = I, d'' = d^2 + 3), takes
    ensemble columns U Lam^(1/2) v_x (rho = U Lam U^dag), and solves the linear
    system sum_x lambda_x v_x v_x^dag = A = Lam^(-1/2) U^dag drho U Lam^(-1/2) for
    real scores, adding a random null-space component to move inside the constraint manifold.
    """
    if point.m != 1:
        raise ValueError("randomized LRE generator covers 1-dim families")
    if not point.rho.is_full_rank():
        raise RankDeficiencyError("local reverse estimation requires a full-rank state")
    rng = as_rng(seed)
    d = point.dim
    n = d * d + 3
    g = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    q, _ = np.linalg.qr(g)  # n x d, orthonormal columns
    v = q.conj().T  # d x n co-isometry
    w, u = point.rho.eig
    a = herm(point.tangents_eig[0] / np.sqrt(w[:, None] * w))
    # real linear system: sum_x lam_x Re/Im (v_x v_x^dag) = Re/Im A
    outer = np.einsum("ix,jx->xij", v, v.conj())  # n of (d x d)
    design = np.concatenate(
        [outer.real.reshape(n, -1).T, outer.imag.reshape(n, -1).T], axis=0
    )
    target = np.concatenate([a.real.ravel(), a.imag.ravel()])
    lam0, *_ = np.linalg.lstsq(design, target, rcond=None)
    _, sv, vt = np.linalg.svd(design, full_matrices=True)
    rank = int(np.sum(sv > sv[0] * 1e-12))
    null = vt[rank:].T  # n x nullity
    lam = lam0 + null @ rng.normal(scale=1.0, size=null.shape[1]) if null.shape[1] else lam0
    res = frob(np.einsum("x,xij->ij", lam, outer) - a)
    if res > 1e-8 * max(1.0, frob(a)):
        # fall back to the exact min-norm solution
        lam = lam0
    return LocalReverseEstimate(Ensemble.from_columns(u @ (np.sqrt(w)[:, None] * v)), lam[None, :], point.theta)


def split_two_point_estimate(tpre: TwoPointReverseEstimate, seed=0) -> TwoPointReverseEstimate:
    """Non-minimal variant: randomly split three components with uneven weight ratios.

    Each split duplicates a shared state and divides its rho- and
    sigma-weights with independent ratios, so both reconstructions are
    preserved while the input KL can only grow (log-sum inequality).
    """
    rng = as_rng(seed)
    states = list(tpre.ensemble.states)
    p_rho = list(tpre.p_rho)
    p_sigma = list(tpre.p_sigma)
    for _ in range(3):
        x = int(rng.integers(len(states)))
        a = float(rng.uniform(0.2, 0.8))
        b = float(rng.uniform(0.2, 0.8))
        states.append(states[x])
        p_rho.append((1.0 - a) * p_rho[x])
        p_rho[x] *= a
        p_sigma.append((1.0 - b) * p_sigma[x])
        p_sigma[x] *= b
    p_sigma = np.asarray(p_sigma)
    return TwoPointReverseEstimate(
        Ensemble(p_sigma / p_sigma.sum(), states), np.asarray(p_rho), p_sigma
    )
