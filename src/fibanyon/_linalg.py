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


def phase_distances(stack: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`fibanyon.braid_compiler.distance_up_to_phase` from every matrix
    of an ``(n, d, d)`` stack to ``v``, in one contraction.  ``v`` may carry
    leading axes: a ``(..., d, d)`` array gives ``(..., n)`` distances."""
    tr = np.abs(np.einsum("nij,...ji->...n", stack, v.conj().swapaxes(-1, -2)))
    return np.sqrt(np.maximum(2.0 * v.shape[-1] - 2.0 * tr, 0.0))


def phase_aligned_defect(u: np.ndarray, v: np.ndarray) -> float:
    """Max-entry deviation of ``u`` from ``v`` after aligning the global phase.

    Unlike :func:`phase_distances` this does not square-root a small
    difference, so exact equality up to phase reads as ~1e-15 instead of the
    ~1e-8 noise floor; use it for tight entrywise contracts.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    overlap = np.trace(dagger(v) @ u)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.abs(u - phase * v).max())

