"""POVMs, Kraus channels, QC/CQ maps and seeded random instances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .fisher import ClassicalFamilyPoint
from .linalg import frob, herm, matrix_function
from .states import DensityMatrix, FamilyPoint


@dataclass(eq=False)
class POVM:
    elements: list[np.ndarray]

    def __post_init__(self):
        elements = [herm(np.asarray(e, dtype=complex)) for e in self.elements]
        d = elements[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in elements:
            if np.min(np.linalg.eigvalsh(e)) < -1e-10:
                raise ValueError("POVM element is not PSD")
            total += e
        if frob(total - np.eye(d)) > 1e-10:
            raise ValueError(f"POVM elements sum to identity residual {frob(total - np.eye(d)):.3e}")
        self.elements = elements

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(eq=False)
class KrausChannel:
    kraus_ops: list[np.ndarray]

    def __post_init__(self):
        ops = [np.asarray(k, dtype=complex) for k in self.kraus_ops]
        d_in = ops[0].shape[1]
        total = sum(k.conj().T @ k for k in ops)
        res = frob(total - np.eye(d_in))
        if res > 1e-10:
            raise ValueError(f"channel is not trace preserving: residual {res:.3e}")
        self.kraus_ops = ops

    def apply(self, mat: np.ndarray) -> np.ndarray:
        return sum(k @ mat @ k.conj().T for k in self.kraus_ops)


@dataclass(eq=False)
class Ensemble:
    """Weighted ensemble {(p(x), |phi_x>)} of unit vectors, stored as the rows of `states`."""

    weights: np.ndarray
    states: np.ndarray  # (n, d)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if abs(self.weights.sum() - 1.0) > 1e-12 or np.any(self.weights < -1e-14):
            raise ValueError("ensemble weights must be nonnegative and sum to 1")
        self.states = np.asarray(self.states, dtype=complex).reshape(len(self.states), -1)
        if np.any(np.abs(np.linalg.norm(self.states, axis=1) - 1.0) > 1e-12):
            raise ValueError("ensemble states must be unit vectors")

    @classmethod
    def from_columns(cls, cols: np.ndarray) -> "Ensemble":
        """The normalized columns of `cols`, weighted by their squared norms."""
        p = np.clip(np.sum(np.abs(cols) ** 2, axis=0), 1e-300, None)
        return cls(p / p.sum(), (cols / np.sqrt(p)).T)

    @property
    def size(self) -> int:
        return len(self.states)

    def mix(self, c) -> np.ndarray:
        """sum_x c_x |phi_x><phi_x|, e.g. the average state for c = weights."""
        return herm((self.states.T * c) @ self.states.conj())


def measure(point: FamilyPoint, povm: POVM) -> ClassicalFamilyPoint:
    """QC map: outcome probabilities Tr rho M and scores Tr (d_i rho) M."""
    if povm.dim != point.dim:
        raise DimensionMismatchError(f"POVM dim {povm.dim} vs state dim {point.dim}")
    probs = np.array([np.trace(point.rho.mat @ e).real for e in povm.elements])
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    scores = np.array(
        [[np.trace(x @ e).real for e in povm.elements] for x in point.tangents]
    )
    return ClassicalFamilyPoint(point.theta, probs, scores)


def optimal_sld_povm(point: FamilyPoint) -> POVM:
    """Projective measurement in the SLD eigenbasis; attains J^M = J^S (m = 1)."""
    from .fisher import sld

    if point.m != 1:
        raise ValueError("optimal SLD measurement is defined for 1-dim families")
    l = sld(point.rho, point.tangents[0])
    _, u = np.linalg.eigh(l)
    return POVM([np.outer(u[:, k], u[:, k].conj()) for k in range(point.dim)])


def apply_channel(point: FamilyPoint, ch: KrausChannel) -> FamilyPoint:
    """Image family under a CPT map: rho and tangents pushed through the channel."""
    if ch.kraus_ops[0].shape[1] != point.dim:
        raise DimensionMismatchError("channel input dimension mismatch")
    rho = DensityMatrix(ch.apply(point.rho.mat))
    tangents = [herm(ch.apply(x)) for x in point.tangents]
    return FamilyPoint(point.theta, rho, tangents)


def cq_map(classical: ClassicalFamilyPoint, states: list[np.ndarray]) -> FamilyPoint:
    """CQ map: rho = sum p(x)|phi_x><phi_x|, tangents from the score rows."""
    if len(states) != classical.probs.shape[0]:
        raise DimensionMismatchError("outcome count does not match state count")
    ens = Ensemble(classical.probs, states)
    rho = DensityMatrix(ens.mix(ens.weights))
    return FamilyPoint(classical.theta, rho, [ens.mix(row) for row in classical.scores])


# --- seeded random instances -------------------------------------------------

FULL_RANK_FLOOR = 0.02  # keeps RLD conditioning sane in randomized suites


def child_rng(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator derived from (master seed, trial index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_unitary(dim: int, seed=0) -> np.ndarray:
    rng = _as_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim: int, seed=0) -> DensityMatrix:
    """Full-rank random state: Ginibre mixed with I/d at weight 0.02 min(d, 49).

    Every eigenvalue is >= 0.02 for d < 50 and >= 0.98/d beyond; the
    Ginibre part keeps weight >= 0.02, so the state is never I/d.
    """
    rng = _as_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    t = FULL_RANK_FLOOR * min(dim, 49)
    rho = (1.0 - t) * rho + t * np.eye(dim) / dim
    return DensityMatrix(herm(rho))


def random_hermitian_traceless(dim: int, seed=0) -> np.ndarray:
    rng = _as_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = herm(g)
    x -= (np.trace(x) / dim) * np.eye(dim)
    return x / max(frob(x), 1e-15)


def random_family_point(dim: int, m: int = 1, seed=0) -> FamilyPoint:
    rng = _as_rng(seed)
    rho = random_density(dim, rng)
    tangents = [random_hermitian_traceless(dim, rng) for _ in range(m)]
    return FamilyPoint(np.zeros(m), rho, tangents)


def random_kraus(dim: int, seed=0, n_kraus: int = 2) -> KrausChannel:
    """Channel from a Stinespring isometry built out of a random unitary."""
    rng = _as_rng(seed)
    u = random_unitary(dim * n_kraus, rng)
    iso = u[:, :dim]  # columns: isometry (d*k) x d
    ops = [iso[e * dim:(e + 1) * dim, :] for e in range(n_kraus)]
    return KrausChannel(ops)


def random_povm(dim: int, n_outcomes: int = 3, seed=0) -> POVM:
    rng = _as_rng(seed)
    raw = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append(g @ g.conj().T)
    total = herm(sum(raw))
    s = matrix_function(total, ("power", -0.5))
    return POVM([herm(s @ a @ s) for a in raw])


def random_instance(kind: str, dim: int, m: int = 1, seed=0):
    """Dispatcher over the random generators; deterministic given seed."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if kind == "density":
        return random_density(dim, seed)
    if kind == "family_point":
        return random_family_point(dim, m, seed)
    if kind == "kraus":
        return random_kraus(dim, seed)
    if kind == "povm":
        return random_povm(dim, m if m >= 2 else 3, seed)
    if kind == "unitary":
        return random_unitary(dim, seed)
    raise ValueError(f"unknown instance kind {kind!r}")
