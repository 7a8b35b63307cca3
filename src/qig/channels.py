"""POVMs, Kraus channels, ensembles, the QC map and seeded random instances.

POVM elements and Kraus operators may be (..., d, d) stacks, one member
per instance, as may the states and tangents the maps act on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .fisher import ClassicalFamilyPoint
from .linalg import frob_each, herm, matrix_function
from .states import DensityMatrix, FamilyPoint


@dataclass(eq=False)
class POVM:
    elements: list[np.ndarray]

    def __post_init__(self):
        elements = herm(np.asarray(self.elements, dtype=complex))
        if np.min(np.linalg.eigvalsh(elements)) < -1e-10:
            raise ValueError("POVM element is not PSD")
        res = np.max(frob_each(elements.sum(axis=0) - np.eye(elements.shape[-1])))
        if res > 1e-10:
            raise ValueError(f"POVM elements sum to identity residual {res:.3e}")
        self.elements = list(elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[-1]


@dataclass(eq=False)
class KrausChannel:
    kraus_ops: list[np.ndarray]

    def __post_init__(self):
        ops = np.asarray(self.kraus_ops, dtype=complex)
        res = np.max(frob_each((ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0) - np.eye(ops.shape[-1])))
        if res > 1e-10:
            raise ValueError(f"channel is not trace preserving: residual {res:.3e}")
        self.kraus_ops = list(ops)

    def apply(self, mat: np.ndarray) -> np.ndarray:
        ops = np.asarray(self.kraus_ops)
        return (ops @ mat @ ops.conj().swapaxes(-1, -2)).sum(axis=0)


@dataclass(eq=False)
class Ensemble:
    """Weighted ensemble {(p(x), |phi_x>)} of unit vectors, stored as the rows of `states`."""

    weights: np.ndarray  # (..., n)
    states: np.ndarray  # (..., n, d)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if np.max(np.abs(self.weights.sum(axis=-1) - 1.0)) > 1e-12 or np.any(self.weights < -1e-14):
            raise ValueError("ensemble weights must be nonnegative and sum to 1")
        states = np.asarray(self.states, dtype=complex)
        self.states = states.reshape(*states.shape[:self.weights.ndim], -1)
        if np.any(np.abs(np.linalg.norm(self.states, axis=-1) - 1.0) > 1e-12):
            raise ValueError("ensemble states must be unit vectors")

    @classmethod
    def from_columns(cls, cols: np.ndarray) -> "Ensemble":
        """The normalized columns of `cols` (or of each stack member), weighted by their squared norms."""
        p = np.clip(np.sum(np.abs(cols) ** 2, axis=-2), 1e-300, None)
        return cls(p / p.sum(axis=-1, keepdims=True), (cols / np.sqrt(p)[..., None, :]).swapaxes(-1, -2))

    @property
    def size(self) -> int:
        return self.states.shape[-2]

    def mix(self, c) -> np.ndarray:
        """sum_x c_x |phi_x><phi_x|, e.g. the average state for c = weights."""
        return herm((self.states.swapaxes(-1, -2) * np.expand_dims(c, -2)) @ self.states.conj())


def measure(point: FamilyPoint, povm: POVM) -> ClassicalFamilyPoint:
    """QC map: outcome probabilities Tr rho M and scores Tr (d_i rho) M."""
    if povm.dim != point.dim:
        raise DimensionMismatchError(f"POVM dim {povm.dim} vs state dim {point.dim}")
    elements = np.asarray(povm.elements)
    probs = np.clip(np.einsum("...ab,k...ba->...k", point.rho.mat, elements).real, 0.0, None)
    probs /= probs.sum(axis=-1, keepdims=True)
    scores = np.einsum("i...ab,k...ba->...ik", np.asarray(point.tangents), elements).real
    return ClassicalFamilyPoint(point.theta, probs, scores)


def optimal_sld_povm(point: FamilyPoint) -> POVM:
    """Projective measurement in the SLD eigenbasis; attains J^M = J^S (m = 1)."""
    from .fisher import sld

    if point.m != 1:
        raise ValueError("optimal SLD measurement is defined for 1-dim families")
    l = sld(point.rho, point.tangents[0])
    _, u = np.linalg.eigh(l)
    return POVM([u[..., :, k, None] * u[..., None, :, k].conj() for k in range(point.dim)])


def apply_channel(point: FamilyPoint, ch: KrausChannel) -> FamilyPoint:
    """Image family under a CPT map: rho and tangents pushed through the channel."""
    if ch.kraus_ops[0].shape[-1] != point.dim:
        raise DimensionMismatchError("channel input dimension mismatch")
    rho = DensityMatrix(ch.apply(point.rho.mat))
    tangents = [herm(ch.apply(x)) for x in point.tangents]
    return FamilyPoint(point.theta, rho, tangents)


# --- seeded random instances -------------------------------------------------

FULL_RANK_FLOOR = 0.02  # keeps RLD conditioning sane in randomized suites


def child_rng(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator derived from (master seed, trial index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def ginibre_split(z: np.ndarray, blocks) -> list[np.ndarray]:
    """One complex (..., k, n, n) stack per (k, n) block, from normals (..., N) in draw order, real parts first."""
    ends = np.cumsum([0] + [2 * k * n * n for k, n in blocks])
    ws = [z[..., a:b].reshape(*z.shape[:-1], k, 2, n, n) for a, b, (k, n) in zip(ends, ends[1:], blocks)]
    return [w[..., 0, :, :] + 1j * w[..., 1, :, :] for w in ws]


def ginibre(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    """Draw step of every generator: k complex Ginibre (dim, dim) matrices, the one-row ginibre_split."""
    return ginibre_split(rng.normal(size=2 * k * dim * dim), ((k, dim),))[0]


# Build steps: each maps Ginibre draws, or a (n, ...) stack of them, to its instance.


def unitary_from(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    dr = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (dr / np.abs(dr))[..., None, :]


def density_from(g: np.ndarray) -> DensityMatrix:
    """Ginibre mixed with I/d at weight 0.02 min(d, 49).

    Every eigenvalue is >= 0.02 for d < 50 and >= 0.98/d beyond; the
    Ginibre part keeps weight >= 0.02, so the state is never I/d.
    """
    dim = g.shape[-1]
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    t = FULL_RANK_FLOOR * min(dim, 49)
    return DensityMatrix(herm((1.0 - t) * rho + t * np.eye(dim) / dim))


def traceless_from(g: np.ndarray) -> np.ndarray:
    """Unit-norm traceless Hermitian part of g."""
    dim = g.shape[-1]
    x = herm(g)
    x -= (np.trace(x, axis1=-2, axis2=-1) / dim)[..., None, None] * np.eye(dim)
    return x / np.maximum(frob_each(x), 1e-15)[..., None, None]


def family_point_from(g: np.ndarray) -> FamilyPoint:
    """rho from g[..., 0, :, :] and one tangent from each further draw."""
    m = g.shape[-3] - 1
    return FamilyPoint(np.zeros(m), density_from(g[..., 0, :, :]),
                       [traceless_from(g[..., 1 + i, :, :]) for i in range(m)])


def kraus_from(g: np.ndarray, dim: int) -> KrausChannel:
    """Channel from the Stinespring isometry: the first dim columns of a random unitary."""
    iso = unitary_from(g)[..., :dim]
    return KrausChannel([iso[..., e * dim:(e + 1) * dim, :] for e in range(g.shape[-1] // dim)])


def povm_from(g: np.ndarray) -> POVM:
    """Elements S G_k G_k^dag S with S = (sum_k G_k G_k^dag)^(-1/2), from g[..., k, :, :]."""
    raw = g @ g.conj().swapaxes(-1, -2)
    s = matrix_function(herm(raw.sum(axis=-3)), lambda v: v ** -0.5)[..., None, :, :]
    return POVM(list(np.moveaxis(herm(s @ raw @ s), -3, 0)))


def random_unitary(dim: int, seed=0) -> np.ndarray:
    return unitary_from(ginibre(as_rng(seed), 1, dim)[0])


def random_density(dim: int, seed=0) -> DensityMatrix:
    """Full-rank random state (see density_from for its eigenvalue floors)."""
    return density_from(ginibre(as_rng(seed), 1, dim)[0])


def random_family_point(dim: int, m: int = 1, seed=0) -> FamilyPoint:
    return family_point_from(ginibre(as_rng(seed), 1 + m, dim))


def random_kraus(dim: int, seed=0, n_kraus: int = 2) -> KrausChannel:
    return kraus_from(ginibre(as_rng(seed), 1, dim * n_kraus)[0], dim)


def random_povm(dim: int, n_outcomes: int = 3, seed=0) -> POVM:
    return povm_from(ginibre(as_rng(seed), n_outcomes, dim))
