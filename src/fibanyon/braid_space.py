"""Hilbert spaces and braid-generator matrices for the boundary-anyon model.

Three bases appear throughout:

* **edge basis** ``|j,k>`` -- configurations of the two internal edge degrees
  of freedom of the minimal three-anyon subsystem, enumerated
  lexicographically ``00, 01, 10, 11``.  The extended five-anyon system adds
  two environment labels and uses ``|i1,i2,j,k>`` (16 states).
* **tree basis** ``|m,n>_tree`` -- left-to-right fusion-chain labels, ``m``
  the channel of the first two anyons and ``n`` the total charge.  The braid
  generator of the first pair is diagonal here.
* **logical basis** -- the two-dimensional subspace spanned by
  ``|0_L> = |01>_tree`` and ``|1_L> = |11>_tree``, invariant under braiding.

The 4x4 change of basis ``[F]`` between edge and tree bases is composed from
two F moves; basis states that are not fusion-admissible (the all-vacuum
configuration) form an inert sector on which every operator acts as the
identity.

Five-anyon convention
---------------------
The 16-dimensional extended space hosts a created anyon pair (slots 1 and 2
of the chain) followed by the three tracked anyons (slots 3-5).  Generator
positions therefore mean::

    position 1 -- exchange inside the created pair
    position 2 -- crossing of the created pair's inner anyon with the
                  nearest tracked anyon
    position 3 -- tracked sigma12
    position 4 -- tracked sigma23

In the extended edge labels, ``|i1=1, i2=0>`` is the freshly created
vacuum-channel pair (the creation string occupies the edge between the two
new anyons and no flux enters the subsystem); it corresponds to the chain
sector where the pair fuses to the vacuum.  Freezing the environment there
makes positions 3 and 4 act on ``|j,k>`` exactly as the three-anyon
``sigma12`` and ``sigma23``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from ._linalg import check_unitary, dagger
from .anyon_model import PHI, FSymbolTable, FusionData, RSymbolTable

GENERATOR_INDICES = (12, 23)


def basis_index(labels: Iterable[int]) -> int:
    idx = 0
    for bit in labels:
        idx = (idx << 1) | int(bit)
    return idx


@functools.lru_cache(maxsize=None)
def _fib_tables() -> tuple[FusionData, FSymbolTable, RSymbolTable]:
    fusion = FusionData.fibonacci()
    return fusion, FSymbolTable.fibonacci(fusion), RSymbolTable.fibonacci(fusion)


# ---------------------------------------------------------------------------
# Fusion-chain spaces and generators
# ---------------------------------------------------------------------------


def _chain_admissible(fusion: FusionData, cfg: tuple[int, ...]) -> bool:
    """Admissibility of chain labels (y_1..y_{n-1}); y_i = charge of the
    first i+1 anyons, all anyons tau."""
    prev = 1
    for y in cfg:
        if y not in fusion.fuse(prev, 1):
            return False
        prev = y
    return True


def _braid_block(
    ftable: FSymbolTable, rtable: RSymbolTable, left: int, right: int
) -> tuple[list[int], np.ndarray]:
    """Exchange of two adjacent tau anyons with surrounding charges.

    ``left`` is the accumulated charge before the pair and ``right`` the
    charge after absorbing both.  Returns the admissible middle labels and
    the unitary block ``F diag(R) F^{-1}`` acting on them.
    """
    fmat, ms, ns = ftable.f_matrix(left, 1, 1, right)
    if not ms:
        return [], np.zeros((0, 0), dtype=complex)
    rdiag = np.diag([rtable.get(1, 1, c) for c in ns])
    block = fmat @ rdiag @ np.linalg.inv(fmat)
    return ms, block


def chain_generator(n_anyons: int, position: int) -> np.ndarray:
    """Braid generator for exchanging anyons (position, position+1) in the
    fusion-chain basis of ``n_anyons`` tau anyons.

    The space is the full configuration space of the n-1 stored chain
    labels (dimension ``2^(n-1)``); configurations violating a fusion rule
    anywhere along the chain are inert.
    """
    if not 1 <= position < n_anyons:
        raise ValueError(f"position {position} invalid for {n_anyons} anyons")
    fusion, ftable, rtable = _fib_tables()
    n_labels = n_anyons - 1
    dim = 2**n_labels
    u = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        cfg = tuple((idx >> (n_labels - 1 - i)) & 1 for i in range(n_labels))
        if not _chain_admissible(fusion, cfg):
            u[idx, idx] = 1.0
            continue
        if position == 1:
            u[idx, idx] = rtable.get(1, 1, cfg[0])
            continue
        left = 1 if position == 2 else cfg[position - 3]
        right = cfg[position - 1]
        ms, block = _braid_block(ftable, rtable, left, right)
        y = cfg[position - 2]
        col = ms.index(y)
        for row, ynew in enumerate(ms):
            cfg_new = list(cfg)
            cfg_new[position - 2] = ynew
            u[basis_index(cfg_new), idx] = block[row, col]
    return check_unitary(u, what=f"chain generator {position}/{n_anyons}")


# ---------------------------------------------------------------------------
# Edge <-> tree dictionary
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tree_transform() -> np.ndarray:
    """The 4x4 transform [F] with rows (m,n) and columns (j,k).

    Its entries on admissible cells are the composed F symbols
    ``F^{11j}_{1km} F^{11k}_{m1n}``; the inert all-vacuum state maps to
    itself.
    """
    _, ftable, _ = _fib_tables()
    f = np.zeros((4, 4), dtype=complex)
    for m in (0, 1):
        for n in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    val = ftable.get(1, 1, j, 1, k, m) * ftable.get(1, 1, k, m, 1, n)
                    f[basis_index((m, n)), basis_index((j, k))] = val
    for idx in range(4):
        if not np.any(f[:, idx]):
            f[idx, idx] = 1.0
    return check_unitary(f, tol=1e-12, what="tree transform")


def tree_transform() -> np.ndarray:
    """Unitary mapping edge-basis components to tree-basis components."""
    return _tree_transform().copy()


def tree_conjugate(u: np.ndarray) -> np.ndarray:
    """Express an edge-basis operator in the tree basis: ``[F] u [F]†``.

    The direction is fixed by the requirement that ``sigma(12)`` maps to the
    diagonal generator ``B1``.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    f = _tree_transform()
    return f @ u @ dagger(f)


# ---------------------------------------------------------------------------
# Generators in the edge bases
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _edge_generator(n_anyons: int, position: int) -> np.ndarray:
    chain = chain_generator(n_anyons, position)
    f = _tree_transform()
    if n_anyons == 3:
        return dagger(f) @ chain @ f
    # five anyons: environment labels relabel as (i1, i2) = (1 - y1, 1 - y2)
    flip = np.zeros((4, 4))
    for y1 in (0, 1):
        for y2 in (0, 1):
            flip[basis_index((1 - y1, 1 - y2)), basis_index((y1, y2))] = 1.0
    dictionary = np.kron(flip, dagger(f))
    return dictionary @ chain @ dagger(dictionary)


def build_generator(n_anyons: int, position: int) -> np.ndarray:
    """Edge-basis braid generator for ``n_anyons`` in {3, 5}.

    Built by F moves into the pair's fusion channel, an R-symbol exchange and
    the transform back; for ``n_anyons=3`` this reproduces :func:`sigma`
    exactly.  An anyon count other than 3 or 5, or a position outside
    ``1 .. n_anyons - 1``, raises ``ValueError``.
    """
    if n_anyons not in (3, 5):
        raise ValueError(f"unsupported anyon count {n_anyons} (must be 3 or 5)")
    return _edge_generator(n_anyons, position).copy()


def sigma(index: int) -> np.ndarray:
    """The 4x4 braid generator ``sigma12`` or ``sigma23`` in the edge basis."""
    if index not in GENERATOR_INDICES:
        raise ValueError(f"generator index must be one of {GENERATOR_INDICES}, got {index}")
    return _edge_generator(3, 1 if index == 12 else 2).copy()


def tree_generator(index: int) -> np.ndarray:
    """``B1`` (diagonal) or ``B2``: the generators in the tree basis."""
    if index not in GENERATOR_INDICES:
        raise ValueError(f"generator index must be one of {GENERATOR_INDICES}, got {index}")
    return chain_generator(3, 1 if index == 12 else 2)


# ---------------------------------------------------------------------------
# Logical qubit
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _logical_encoding() -> np.ndarray:
    iso = np.zeros((4, 2), dtype=complex)
    iso[basis_index((0, 1)), 0] = 1.0 / PHI
    iso[basis_index((1, 1)), 0] = 1.0 / math.sqrt(PHI)
    iso[basis_index((0, 1)), 1] = -PHI**-1.5
    iso[basis_index((1, 0)), 1] = 1.0 / math.sqrt(PHI)
    iso[basis_index((1, 1)), 1] = PHI**-2
    gram = dagger(iso) @ iso
    if np.abs(gram - np.eye(2)).max() > 1e-12:
        raise AssertionError("logical encoding is not an isometry")
    return iso


def logical_encoding() -> np.ndarray:
    """4x2 isometry whose columns are ``|0_L>`` and ``|1_L>`` in the edge basis."""
    return _logical_encoding().copy()


def logical_projector() -> np.ndarray:
    iso = _logical_encoding()
    return iso @ dagger(iso)


def logical_restrict(u: np.ndarray) -> tuple[np.ndarray, float]:
    """Compress a 4x4 edge-basis operator to the logical qubit.

    Returns ``(iso† u iso, leakage)`` where the leakage is the spectral norm
    of ``(I - P_L) u iso`` -- the amplitude the operator sends out of the
    logical subspace.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    iso = _logical_encoding()
    logical = dagger(iso) @ u @ iso
    leak = np.linalg.norm((np.eye(4) - iso @ dagger(iso)) @ u @ iso, 2)
    return logical, float(leak)


def logical_extension(u: np.ndarray) -> np.ndarray:
    """Inverse of :func:`logical_restrict`: the 4x4 edge-basis operator
    acting as the 2x2 ``u`` on the logical subspace and as the identity on
    its complement."""
    iso = _logical_encoding()
    return iso @ u @ dagger(iso) + (np.eye(4) - iso @ dagger(iso))


def sigma_logical(index: int) -> np.ndarray:
    """Logical-space representation of a braid generator."""
    logical, leak = logical_restrict(sigma(index))
    if leak > 1e-12:
        raise AssertionError(f"generator {index} leaks out of the logical space")
    return logical


def dump_matrices() -> dict[str, np.ndarray]:
    """Named oracle matrices for external diffing."""
    return {
        "sigma12": sigma(12),
        "sigma23": sigma(23),
        "b1": tree_generator(12),
        "b2": tree_generator(23),
        "f_transform": tree_transform(),
        "sigma12_logical": sigma_logical(12),
        "sigma23_logical": sigma_logical(23),
    }
