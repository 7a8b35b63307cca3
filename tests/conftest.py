import numpy as np
import pytest

from qig.channels import random_density
from qig.families import PAULI_Z, bloch_rotation_point
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
