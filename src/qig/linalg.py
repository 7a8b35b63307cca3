"""Dense complex linear-algebra kernel.

Hermitian eigendecomposition, support-restricted matrix functions,
Lyapunov solves and weighted trace norms, for matrices of dimension up
to a few hundred.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, RankDeficiencyError

# Relative support cutoff: eigenvalues below RANK_TOL * lambda_max are
# treated as zero by the pseudo matrix functions.
RANK_TOL = 1e-12
# Absolute ||X - P X P||_F above which X counts as leaving the support P.
SUPPORT_TOL = 1e-9


class SpectralDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, columns


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dag)/2 of a matrix or of each member of a (..., d, d) stack."""
    a = np.asarray(a)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _rebuild(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U diag(w) U^dag for spectra (..., d) and eigenvector matrices (..., d, d)."""
    return (u * w[..., None, :]) @ u.conj().swapaxes(-1, -2)


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and frob(a - a.conj().T) <= tol * max(1.0, frob(a))


def eig_hermitian(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix or (..., d, d) stack, eigenvalues ascending.

    Each member satisfies ||U L U^dag - H||_F and ||U^dag U - I||_F below
    its own eig_tol = max(1e-13, 1e-12 * dim * ||H||_F).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix contains NaN/Inf entries")
    hs = herm(h)
    w, u = np.linalg.eigh(hs)
    d = h.shape[-1]
    # a single matrix keeps Python scalars: it is by far the most frequent call
    single = h.ndim == 2
    norm = frob if single else (lambda a: np.linalg.norm(a, axis=(-2, -1)))
    scale = norm(hs)
    tol = (max if single else np.maximum)(1e-13, 1e-12 * d * scale)
    recon = norm(_rebuild(w, u) - hs)
    unit = norm(u.conj().swapaxes(-1, -2) @ u - np.eye(d))
    if (recon > tol or unit > tol) if single else ((recon > tol) | (unit > tol)).any():
        k = int(np.argmax(np.maximum(recon, unit) / tol))
        r, un, tl, sc = (np.ravel(v)[k] for v in (recon, unit, tol, scale))
        member = f" (stack member {k})" if h.ndim > 2 else ""
        raise ConvergenceError(
            f"eigendecomposition residual {r:.3e} (unitarity {un:.3e}) exceeds "
            f"tolerance {tl:.3e} for dim {d}, ||H||_F = {sc:.3e}{member}"
        )
    return SpectralDecomposition(w, u)


def support_mask(w: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Eigenvalues with |lambda| >= rank_tol * max |lambda| of their own spectrum (last axis)."""
    mag = np.abs(w)
    lam_max = mag.max(axis=-1, keepdims=True, initial=0.0)
    return (mag >= rank_tol * lam_max) & (lam_max > 0)


def support_leak(x: np.ndarray, w: np.ndarray, u: np.ndarray, rank_tol: float = RANK_TOL):
    """(||X - P X P||_F, P X P) with P the projector onto the support of the spectrum (w, u)."""
    sup = support_mask(w, rank_tol)
    p = u[:, sup] @ u[:, sup].conj().T
    pxp = p @ x @ p
    return frob(x - pxp), pxp


def spectral_function(w, u, f, rank_tol: float = RANK_TOL, strict: bool = False) -> np.ndarray:
    """Apply a spectral function to the Hermitian matrix (or stack) with spectrum (w, u).

    f is one of "sqrt", "log", "inverse", or ("power", t).  For log,
    inverse and negative powers the function acts only on eigenvalues
    >= rank_tol * lambda_max; smaller ones map to 0 (pseudo-function).
    With strict=True, a below-support eigenvalue raises instead for log,
    inverse and negative powers.
    """
    if f == "sqrt":
        fn = lambda v: np.sqrt(np.clip(v, 0.0, None))
    elif f in ("log", "inverse"):
        fn = np.log if f == "log" else np.reciprocal
    elif isinstance(f, tuple) and len(f) == 2 and f[0] == "power":
        fn = lambda v: np.power(v, float(f[1]))
    else:
        raise ValueError(f"unknown matrix function {f!r}")
    sup = support_mask(w, rank_tol)
    if strict and (f in ("log", "inverse") or (f != "sqrt" and float(f[1]) < 0)) and not sup.all():
        raise RankDeficiencyError(f"{f!r} requested on a rank-deficient matrix")
    fw = np.zeros_like(w)
    fw[sup] = fn(w[sup])
    return herm(_rebuild(fw, u))


def matrix_function(h, f, rank_tol: float = RANK_TOL, strict: bool = False) -> np.ndarray:
    """spectral_function of a Hermitian matrix, on its support (see there)."""
    return spectral_function(*eig_hermitian(h), f, rank_tol, strict)


def support_projector(h, rank_tol: float = RANK_TOL) -> np.ndarray:
    w, u = eig_hermitian(h)
    sup = support_mask(w, rank_tol)
    return herm(u[:, sup] @ u[:, sup].conj().T)


def solve_lyapunov(rho, x, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Solve X = (L rho + rho L)/2 for Hermitian L (the SLD equation).

    In the eigenbasis of rho, L_ij = 2 X_ij / (lam_i + lam_j); requires
    rho numerically full rank.
    """
    rho = np.asarray(rho, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if rho.shape != x.shape:
        raise DimensionMismatchError(f"shape mismatch: {rho.shape} vs {x.shape}")
    w, u = eig_hermitian(rho)
    if np.min(w) < rank_tol * np.max(w):
        raise RankDeficiencyError(
            f"state is rank deficient (min/max eigenvalue {np.min(w):.3e}/{np.max(w):.3e}); "
            "SLD is not unique"
        )
    xt = u.conj().T @ x @ u
    lt = 2.0 * xt / (w[:, None] + w[None, :])
    return herm(u @ lt @ u.conj().T)


def trace_norm(k) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(k, dtype=complex), compute_uv=False)))


def spabs(g, k) -> float:
    """Weighted trace-norm functional: trace norm of sqrt(G) K sqrt(G)."""
    g = np.asarray(g, dtype=float)
    k = np.asarray(k, dtype=float)
    if g.shape != k.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatchError(f"shape mismatch: G {g.shape}, K {k.shape}")
    gs = matrix_function(g, "sqrt").real
    return trace_norm(gs @ k @ gs)
