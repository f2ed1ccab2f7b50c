"""Small dense complex-matrix helpers shared across the package.

Everything here operates on plain ``numpy.ndarray`` values.  Matrices that
carry a unitarity contract are validated with :func:`check_unitary` at the
point where they are constructed, not wrapped in a dedicated type.
"""

from __future__ import annotations

import math

import numpy as np

UNITARY_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of ``u u†`` from the identity; infinite when an
    entry of ``u`` is not finite, so that every tolerance rejects it."""
    u = np.asarray(u)
    defect = float(np.abs(u @ dagger(u) - np.eye(u.shape[0])).max())
    return math.inf if math.isnan(defect) else defect


def check_unitary(u: np.ndarray, tol: float = UNITARY_TOL, what: str = "matrix") -> np.ndarray:
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"{what} is not unitary within {tol:g} (defect {defect:.3e})")
    return u


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between ``u`` and ``v`` minimized over a global phase.

    The minimum of ``||u - exp(i theta) v||_F`` over theta has the closed form
    ``sqrt(2 d - 2 |tr(v† u)|)`` for d-dimensional unitaries.  It is zero
    exactly when the two matrices agree up to a global phase, and for
    single-qubit unitaries ranges over [0, 2].
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    val = 2.0 * d - 2.0 * abs(np.trace(dagger(v) @ u))
    return float(np.sqrt(max(val, 0.0)))


def phase_distances(stack: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`phase_distance` from every matrix of an ``(n, d, d)`` stack to
    ``v``, in one contraction.  ``v`` may carry leading axes: a ``(..., d, d)``
    array gives ``(..., n)`` distances."""
    tr = np.abs(np.einsum("nij,...ji->...n", stack, v.conj().swapaxes(-1, -2)))
    return np.sqrt(np.maximum(2.0 * v.shape[-1] - 2.0 * tr, 0.0))


def phase_aligned_defect(u: np.ndarray, v: np.ndarray) -> float:
    """Max-entry deviation of ``u`` from ``v`` after aligning the global phase.

    Unlike :func:`phase_distance` this does not square-root a small
    difference, so exact equality up to phase reads as ~1e-15 instead of the
    ~1e-8 noise floor; use it for tight entrywise contracts.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    overlap = np.trace(dagger(v) @ u)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.abs(u - phase * v).max())


def complex_pairs(matrix: np.ndarray) -> list:
    """JSON form of a complex matrix: nested row lists with ``[re, im]`` leaves."""
    return [[[v.real, v.imag] for v in row] for row in np.asarray(matrix, dtype=complex)]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def project_psd(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize the trace to one."""
    vals, vecs = np.linalg.eigh((rho + dagger(rho)) / 2)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0:
        raise ValueError("matrix has no positive spectral weight")
    vals /= total
    return (vecs * vals) @ dagger(vecs)
