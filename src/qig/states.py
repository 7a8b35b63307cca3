"""Density matrices, parameterized family points and amplitude matrices.

An amplitude matrix W represents a weighted ensemble of pure states
(columns sqrt(p_x) |phi_x>) or, equivalently, a purification: the system
state is recovered as W W^dag and the ancilla-side state as W^dag W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, GaugeError, RankDeficiencyError
from .linalg import eig_hermitian, frob, herm

TRACE_TOL = 1e-12
PSD_FLOOR = -1e-12


def check_traces(tr) -> None:
    """Raise ValueError unless every trace in tr (a scalar or an array) is 1 within TRACE_TOL."""
    dev = np.abs(tr - 1.0)
    if (dev if np.ndim(dev) == 0 else dev.max()) > TRACE_TOL:
        raise ValueError(f"trace {np.ravel(tr)[np.argmax(dev)]!r} deviates from 1 by more than {TRACE_TOL}")


def check_states(mats: np.ndarray) -> linalg.SpectralDecomposition:
    """Spectrum of a Hermitian matrix or (..., d, d) stack whose members must be states.

    Raises ValueError unless every member has unit trace within TRACE_TOL
    (check_traces) and no eigenvalue below PSD_FLOOR.
    """
    check_traces(np.trace(mats, axis1=-2, axis2=-1).real)
    eig = eig_hermitian(mats)
    lam_min = eig.eigenvalues.min()
    if lam_min < PSD_FLOOR:
        raise ValueError(f"matrix is not PSD: min eigenvalue {lam_min:.3e}")
    return eig


@dataclass(eq=False)
class DensityMatrix:
    """Hermitian PSD trace-one matrix, or a (..., d, d) stack of them, with its eigendecomposition."""

    mat: np.ndarray
    eig: linalg.SpectralDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise DimensionMismatchError(f"density matrix must be square, got {m.shape}")
        self.mat = herm(m)
        self.eig = check_states(self.mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def is_full_rank(self) -> bool:
        return bool(linalg.support_mask(self.eig.eigenvalues).all())

    def func(self, fn) -> np.ndarray:
        """Support-restricted matrix function of the state (see linalg.spectral_function)."""
        return linalg.spectral_function(*self.eig, fn)


TANGENT_TRACE_TOL = 1e-10


@dataclass(eq=False)
class FamilyPoint:
    """Local data of a state family: theta, rho_theta and its tangents as one read-only (m, ..., d, d) array."""

    theta: np.ndarray
    rho: DensityMatrix
    tangents: np.ndarray
    rld_checked: bool = field(default=False, init=False, repr=False)  # rld() passed on the tangents

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        shape = self.rho.mat.shape
        xs = [np.asarray(x, dtype=complex) for x in self.tangents]
        if any(x.shape != shape for x in xs):
            raise DimensionMismatchError(f"tangent shapes {[x.shape for x in xs]} do not all match state {shape}")
        xs = np.array(xs, dtype=complex).reshape(len(xs), *shape)
        tr = np.max(np.abs(np.trace(xs, axis1=-2, axis2=-1)), initial=0.0)
        if tr > TANGENT_TRACE_TOL:
            raise ValueError(f"tangent trace {tr:.3e} exceeds {TANGENT_TRACE_TOL}")
        if len(xs) != len(self.theta):
            raise DimensionMismatchError(f"{len(xs)} tangents for {len(self.theta)} parameters")
        self.tangents = herm(xs)
        self.tangents.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.tangents)

    @property
    def dim(self) -> int:
        return self.rho.dim

    @cached_property
    def tangents_eig(self) -> np.ndarray:
        """X~ = U^dag X U of every tangent, U the eigenvectors of rho; read-only, computed once."""
        xt = self.rho.eig.eigenvectors.conj().swapaxes(-1, -2) @ self.tangents @ self.rho.eig.eigenvectors
        xt.flags.writeable = False
        return xt


@dataclass(eq=False)
class AmplitudeMatrix:
    """d x d' matrix W with WW^dag a density matrix (Tr WW^dag = 1)."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        if w.ndim != 2:
            raise DimensionMismatchError("amplitude matrix must be 2-d")
        tr = np.sum(np.abs(w) ** 2)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"Tr WW^dag = {tr!r} deviates from 1 by more than {TRACE_TOL}")
        self.w = w

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @property
    def ancilla_dim(self) -> int:
        return self.w.shape[1]


@dataclass(eq=False)
class TangentLift:
    """A tangent on amplitude space, represented as a matrix of the same shape as W."""

    base: AmplitudeMatrix
    m: np.ndarray

    def project(self) -> np.ndarray:
        """Push the lift back down to state space: (W M^dag + M W^dag)/2."""
        w = self.base.w
        return herm(0.5 * (w @ self.m.conj().T + self.m @ w.conj().T))


def canonical_amplitude(rho: DensityMatrix) -> AmplitudeMatrix:
    """Canonical gauge W = rho^(1/2); square, with d' = d."""
    return AmplitudeMatrix(rho.func(np.sqrt))


def project(w: AmplitudeMatrix, side: str = "system") -> DensityMatrix:
    """WW^dag (system) or W^dag W (ancilla)."""
    if side == "system":
        return DensityMatrix(w.w @ w.w.conj().T)
    if side == "ancilla":
        return DensityMatrix(w.w.conj().T @ w.w)
    raise ValueError(f"side must be 'system' or 'ancilla', got {side!r}")


def gauge_transform(w: AmplitudeMatrix, u: np.ndarray) -> AmplitudeMatrix:
    """Right-multiply by a co-isometry (U U^dag = I), leaving WW^dag fixed."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != w.ancilla_dim:
        raise DimensionMismatchError(
            f"gauge matrix has {u.shape[0]} rows, expected {w.ancilla_dim}"
        )
    res = frob(u @ u.conj().T - np.eye(u.shape[0]))
    if res > 1e-11:
        raise GaugeError(f"UU^dag differs from identity by {res:.3e}")
    return AmplitudeMatrix(w.w @ u)


def lift_tangent(w: AmplitudeMatrix, x: np.ndarray, kind: str) -> TangentLift:
    """Lift a state-space tangent X through the logarithmic derivative.

    M = L W with L the SLD or RLD of (rho, X), rho = WW^dag.  Projecting
    the lift recovers X.
    """
    from .fisher import rld, sld  # local import to avoid a module cycle

    rho = project(w, "system")
    x = herm(np.asarray(x, dtype=complex))
    if kind == "SLD":
        l = sld(rho, x)
    elif kind == "RLD":
        l = rld(rho, x)
    else:
        raise ValueError(f"kind must be 'SLD' or 'RLD', got {kind!r}")
    return TangentLift(w, l @ w.w)


def reverse_sld(w: AmplitudeMatrix, x: np.ndarray) -> np.ndarray:
    """Hermitian ancilla-side operator A with L^R W = W A.

    Closed form A = W^+ X (W^+)^dag, the minimum-norm solution; accepted
    only if the defining residual is within 1e-9.  In the
    canonical gauge W = rho^(1/2) this is rho^(-1/2) X rho^(-1/2).
    """
    from .fisher import rld

    rho = project(w, "system")
    if not rho.is_full_rank():
        raise RankDeficiencyError("reverse SLD requires a full-rank state")
    x = herm(np.asarray(x, dtype=complex))
    l = rld(rho, x)
    wp = np.linalg.pinv(w.w)
    a = herm(wp @ x @ wp.conj().T)
    res = frob(l @ w.w - w.w @ a)
    if res > 1e-9:
        raise RankDeficiencyError(f"no Hermitian reverse SLD in this gauge: residual {res:.3e} > 1e-9")
    return a


def duality_gap(w: AmplitudeMatrix, x: np.ndarray) -> float:
    """Tr pi~(W) A A - Tr rho L^R_dag L^R; nonnegative, zero when d' = rank(rho)."""
    from .fisher import rld

    rho = project(w, "system")
    l = rld(rho, x)
    a = reverse_sld(w, x)
    anc = w.w.conj().T @ w.w
    rhs = np.trace(anc @ a @ a).real
    lhs = np.trace(rho.mat @ l.conj().T @ l).real
    return rhs - lhs
