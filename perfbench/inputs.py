"""Seeded input generators owned by the benchmark.

The benchmark builds every state itself so that a change to the
library's own generators cannot change what is measured.  Inputs are
plain numpy arrays; each op wraps them in library objects afresh, so no
cached spectrum survives from one op to the next.
"""

from __future__ import annotations

import json

import numpy as np

KAPPA_LOG10 = (2.0, 6.0)  # condition numbers of ordinary points: 1e2 .. 1e6
KAPPA_HARD = 1e8  # one point in KAPPA_HARD_EVERY is drawn at this condition number
KAPPA_HARD_EVERY = 20
CRITERION_FLOOR = 0.02  # eigenvalue floor of the acceptance-criteria instances


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conditioned_state(d: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """Full-rank state with Haar eigenvectors and a geometric spectrum.

    Eigenvalues are kappa**(-k/(d-1)), k = 0..d-1, normalised, so
    lambda_max / lambda_min = kappa exactly.
    """
    u = haar_unitary(d, rng)
    lam = kappa ** (-np.arange(d) / (d - 1.0))
    lam /= lam.sum()
    rho = (u * lam) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def draw_kappa(rng: np.random.Generator) -> float:
    return float(10.0 ** rng.uniform(*KAPPA_LOG10))


def criterion_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre state mixed with I/d at weight 0.02*d (every eigenvalue >= 0.02).

    This is the distribution the acceptance criteria draw at d <= 3.
    """
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    t = CRITERION_FLOOR * d
    rho = (1.0 - t) * rho + t * np.eye(d) / d
    return 0.5 * (rho + rho.conj().T)


def traceless_tangent(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random traceless Hermitian direction with unit Frobenius norm."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = 0.5 * (g + g.conj().T)
    x -= (np.trace(x) / d) * np.eye(d)
    return x / np.linalg.norm(x)


def encode_matrix(mat) -> list:
    """Spec-file matrix encoding: rows of numbers, or of [re, im] pairs.

    Kept apart from ``qig.io`` so that writing inputs is not timed as
    library work and a change to the library cannot change the inputs.
    """
    mat = np.atleast_2d(np.asarray(mat))
    if np.iscomplexobj(mat) and np.any(mat.imag != 0.0):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    return [[float(x) for x in row] for row in mat.real]


def write_spec(path, spec: dict) -> int:
    """Write a family spec as JSON; returns the byte count."""
    text = json.dumps(spec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode())


def explicit_spec(rho: np.ndarray, tangents: list[np.ndarray]) -> dict:
    return {
        "kind": "explicit",
        "rho": encode_matrix(rho),
        "tangents": [encode_matrix(x) for x in tangents],
        "theta": [0.0] * len(tangents),
    }


def fixed_basis_grid(d: int, n_points: int, rng: np.random.Generator) -> dict:
    """Commuting grid family: softmax(a + theta b) in a Haar basis."""
    a = rng.normal(size=d)
    b = rng.normal(size=d)
    grid = np.linspace(0.0, 1.0, n_points)
    logits = a[None, :] + grid[:, None] * b[None, :]
    q = np.exp(logits - logits.max(axis=1, keepdims=True))
    q /= q.sum(axis=1, keepdims=True)
    return {
        "kind": "fixed_basis",
        "basis": encode_matrix(haar_unitary(d, rng)),
        "prob_table": q.tolist(),
        "theta_grid": grid.tolist(),
    }
