"""Small dense complex-matrix helpers shared across the package, its one-qubit
Paulis and rotations, and its two stacked-product rules.

Everything here operates on plain ``numpy.ndarray`` values.  Matrices that
carry a unitarity contract are validated with :func:`check_unitary` at the
point where they are constructed, not wrapped in a dedicated type.

Products of many factors are taken in one of two ways:
:func:`longest_first_products` for a batch of sequences of gathered factors
(RB/PB steps, random braid words), and :func:`pairwise_product` for one
stack in log depth (a word's transfer maps, exact Clifford-table products).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

UNITARY_TOL = 1e-10

PAULI_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
PAULI_AXES = dict(zip("xyz", PAULI_1Q[1:]))
"""The Pauli matrix of each rotation axis."""


def rotation(axis: str, angle: float) -> np.ndarray:
    """Single-qubit rotation exp(-i angle sigma_axis / 2) about an axis of
    :data:`PAULI_AXES`."""
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * PAULI_AXES[axis]


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of ``u u†`` from the identity; infinite when an
    entry of ``u`` is not finite, so that every tolerance rejects it."""
    u = np.asarray(u)
    with np.errstate(invalid="ignore", over="ignore"):
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


def active_counts(lengths: np.ndarray) -> list[int]:
    """For each step t, how many of the longest-first ``lengths`` exceed t."""
    return (len(lengths) - np.searchsorted(lengths[::-1], np.arange(lengths[0]), side="right")).tolist()


def longest_first_products(table: np.ndarray, indices: np.ndarray, active: Sequence[int],
                           start: np.ndarray) -> np.ndarray:
    """``table[indices[m - 1, i]] @ ... @ table[indices[0, i]] @ start`` for each
    sequence i of length m >= 1, longest first: row t of the step-major
    ``indices`` is step t of every sequence, ``active[t]`` how many are longer
    than t (:func:`active_counts`).  Step 0's ``len(table)`` products are taken
    once and gathered; each later step multiplies one gathered stack by the
    last product as it stands, and a sequence's product is copied out when it
    ends."""
    # take gathers like indexing, with less overhead
    products = head = (table @ start).take(indices[0], axis=0)
    for a, idx in zip(active[1:], indices[1:]):
        if a < len(head):  # sequences a: to len(head) ended with the last step
            products[a:len(head)] = head[a:]
        head = table.take(idx[:a], axis=0) @ head[:a]
    products[:len(head)] = head
    return products


def pairwise_product(stack: np.ndarray, multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Product of a non-empty stack, the first entry acting first, by
    ``multiply(later, earlier)`` on stacks: one call per level on adjacent
    pairs, an odd last entry folded into the last pair, so L entries take
    about log2 L calls rather than L - 1."""
    while len(stack) > 1:
        pairs = multiply(stack[1::2], stack[:-1:2])
        if len(stack) % 2:
            pairs[-1] = multiply(stack[-1], pairs[-1])
        stack = pairs
    return stack[0]
