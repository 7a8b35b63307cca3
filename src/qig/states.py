"""Density matrices and parameterized family points.

A DensityMatrix (or a stack of them) carries its eigendecomposition from
construction on; every Fisher matrix, divergence and reverse estimate reads
that one spectrum.  Purifications W (W W^dag = rho, ancilla state W^dag W)
enter only harness.complementarity_suite, as rho^(1/2) times a gauge unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatchError
from .linalg import eig_hermitian, herm

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
