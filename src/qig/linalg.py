"""Dense complex linear-algebra kernel.

Hermitian eigendecomposition, support-restricted matrix functions,
Lyapunov solves and weighted trace norms, for matrices of dimension up
to a few hundred.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError

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


def frob_each(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a (..., r, c) stack; bit for bit frob on one C-ordered matrix."""
    v = a.reshape(a.shape[:-2] + (1, -1))  # row vectors: matmul takes the dot path frob takes
    vt = v.swapaxes(-1, -2)
    return np.sqrt(v.real @ vt.real + v.imag @ vt.imag)[..., 0, 0]


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dag)/2 of a matrix or of each member of a (..., d, d) stack."""
    a = np.asarray(a)
    # A^dag written in C order, then A added in place: adding A to the strided view is several times slower
    h = np.conjugate(a.swapaxes(-1, -2), order="C", dtype=np.result_type(a.dtype, 0.5))
    h += a
    h *= 0.5
    return h


def _rebuild(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U diag(w) U^dag for spectra (..., d) and eigenvector matrices (..., d, d)."""
    return (u * w[..., None, :]) @ u.conj().swapaxes(-1, -2)


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


def support_mask(w: np.ndarray) -> np.ndarray:
    """Eigenvalues with lambda >= RANK_TOL * lambda_max > 0 (signed) of their own spectrum (last axis)."""
    lam_max = w.max(axis=-1, keepdims=True, initial=0.0)
    return (w >= RANK_TOL * lam_max) & (lam_max > 0)


def on_support(fn, w: np.ndarray) -> np.ndarray:
    """fn(lambda) on the support of the spectrum w (last axis), 0 off it."""
    sup = support_mask(w)
    return np.where(sup, fn(np.where(sup, w, 1.0)), 0.0)


def support_leak(x: np.ndarray, w: np.ndarray, u: np.ndarray):
    """(||X - P X P||_F, P X P) with P the projector onto the support of the spectrum (w, u).

    Stacks broadcast: the norm is per member.  On a full support P = I: the leak is exactly 0, P X P is X.
    """
    sup = support_mask(w)
    if sup.all():
        return np.zeros(np.broadcast_shapes(x.shape[:-2], w.shape[:-1])), x
    p = _rebuild(sup, u)
    pxp = p @ x @ p
    return frob_each(x - pxp), pxp


def spectral_function(w, u, fn) -> np.ndarray:
    """U fn(Lambda) U^dag for the Hermitian matrix (or stack) with spectrum (w, u).

    fn is an elementwise function such as np.sqrt, np.log or np.reciprocal, applied on the
    support (support_mask); other eigenvalues map to 0 (pseudo-function).
    """
    return herm(_rebuild(on_support(fn, w), u))


def matrix_function(h, fn) -> np.ndarray:
    """spectral_function of a Hermitian matrix, on its support (see there)."""
    return spectral_function(*eig_hermitian(h), fn)


def solve_lyapunov(w, u, x) -> np.ndarray:
    """Solve X = (L rho + rho L)/2 for Hermitian L (the SLD equation), rho = U diag(w) U^dag.

    In the eigenbasis of rho, L_ij = 2 X_ij / (lam_i + lam_j); the caller
    ensures rho is numerically full rank.  Works member by member on (..., d, d) stacks.
    """
    x = np.asarray(x, dtype=complex)
    if u.shape != x.shape:
        raise DimensionMismatchError(f"shape mismatch: {u.shape} vs {x.shape}")
    uh = u.conj().swapaxes(-1, -2)
    lt = 2.0 * (uh @ x @ u) / (w[..., :, None] + w[..., None, :])
    return herm(u @ lt @ uh)


def trace_norm(k) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(k, dtype=complex), compute_uv=False)))


def spabs(g, k) -> float:
    """Weighted trace-norm functional: trace norm of sqrt(G) K sqrt(G)."""
    g = np.asarray(g, dtype=float)
    k = np.asarray(k, dtype=float)
    if g.shape != k.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatchError(f"shape mismatch: G {g.shape}, K {k.shape}")
    gs = matrix_function(g, np.sqrt).real
    return trace_norm(gs @ k @ gs)
