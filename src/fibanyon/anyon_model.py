"""Fibonacci fusion-category data: labels, fusion rules, F and R symbols.

Index conventions
-----------------
An F symbol is keyed by the sextuple ``(i, j, m, k, l, n)`` and written
``F^{ijm}_{kln}``.  It is the coefficient relating the two fusion orders of
three objects ``i, j, k`` with total charge ``l``::

    |(i j)_m k ; l>  =  sum_n  F^{ijm}_{kln}  |i (j k)_n ; l>

so ``m`` runs over channels of ``i x j`` and ``n`` over channels of
``j x k``.  ``R(a, b, c)`` is the phase acquired when ``a`` and ``b`` fused
into ``c`` are exchanged counterclockwise.

The Fibonacci tables use the standard gauge: every admissible F symbol with
a vacuum external label equals one, and the all-tau block is the real
symmetric golden-ratio matrix.  This gauge reproduces the composed 4x4 basis
transform used by :mod:`fibanyon.braid_space` entry for entry.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

PHI = (1.0 + math.sqrt(5.0)) / 2.0
"""Golden ratio, the quantum dimension of the tau anyon."""


VACUUM = 0
TAU = 1

Label = int
FKey = tuple[int, int, int, int, int, int]
RKey = tuple[int, int, int]


@dataclass(frozen=True)
class FusionData:
    """Fusion rules and quantum dimensions of a (small) fusion category."""

    labels: tuple[int, ...]
    fusion_table: dict[tuple[int, int], frozenset[int]]
    qdim: dict[int, float]

    def __post_init__(self) -> None:
        for (a, b), out in self.fusion_table.items():
            if a not in self.labels or b not in self.labels or not out <= set(self.labels):
                raise ValueError(f"fusion rule {(a, b)} -> {set(out)} uses unknown labels")

    def fuse(self, a: Label, b: Label) -> frozenset[int]:
        """Set of possible fusion outcomes of ``a x b``."""
        return self.fusion_table[(a, b)]

    def admissible(self, a: Label, b: Label, c: Label) -> bool:
        """Whether ``c`` is a channel of ``a x b``."""
        return c in self.fuse(a, b)

    @classmethod
    def fibonacci(cls) -> "FusionData":
        v, t = VACUUM, TAU
        table = {
            (v, v): frozenset({v}),
            (v, t): frozenset({t}),
            (t, v): frozenset({t}),
            (t, t): frozenset({v, t}),
        }
        return cls(labels=(v, t), fusion_table=table, qdim={v: 1.0, t: PHI})


@dataclass(frozen=True)
class FSymbolTable:
    """Sparse table of F symbols over a :class:`FusionData`.

    Only fusion-admissible sextuples are stored; lookups of anything else
    return zero.
    """

    fusion: FusionData
    entries: dict[FKey, complex] = field(default_factory=dict)

    def admissible(self, i: Label, j: Label, m: Label, k: Label, l: Label, n: Label) -> bool:
        fu = self.fusion
        return (
            fu.admissible(i, j, m)
            and fu.admissible(m, k, l)
            and fu.admissible(j, k, n)
            and fu.admissible(i, n, l)
        )

    def get(self, i: Label, j: Label, m: Label, k: Label, l: Label, n: Label) -> complex:
        return self.entries.get((i, j, m, k, l, n), 0.0 + 0.0j)

    def f_matrix(self, i: Label, j: Label, k: Label, l: Label) -> tuple[np.ndarray, list[int], list[int]]:
        """The block ``[F^{ijk}_l]_{mn}`` over admissible ``(m, n)``.

        Returns ``(matrix, m_labels, n_labels)``.  Non-admissible external
        labels yield a 0x0 block.
        """
        fu = self.fusion
        ms = [m for m in fu.labels if fu.admissible(i, j, m) and fu.admissible(m, k, l)]
        ns = [n for n in fu.labels if fu.admissible(j, k, n) and fu.admissible(i, n, l)]
        mat = np.array(
            [[self.get(i, j, m, k, l, n) for n in ns] for m in ms], dtype=complex
        ).reshape(len(ms), len(ns))
        return mat, ms, ns

    @classmethod
    def fibonacci(cls, fusion: FusionData | None = None) -> "FSymbolTable":
        fusion = fusion or FusionData.fibonacci()
        golden = {
            (0, 0): 1.0 / PHI,
            (0, 1): 1.0 / math.sqrt(PHI),
            (1, 0): 1.0 / math.sqrt(PHI),
            (1, 1): -1.0 / PHI,
        }
        entries: dict[FKey, complex] = {}
        table = cls(fusion)
        for i, j, k, l, m, n in itertools.product(fusion.labels, repeat=6):
            if not table.admissible(i, j, m, k, l, n):
                continue
            if (i, j, k, l) == (1, 1, 1, 1):
                entries[(i, j, m, k, l, n)] = complex(golden[(m, n)])
            else:
                entries[(i, j, m, k, l, n)] = 1.0 + 0.0j
        return replace(table, entries=entries)


@dataclass(frozen=True)
class RSymbolTable:
    """Exchange phases ``R(a, b, c)`` for ``a x b -> c``."""

    fusion: FusionData
    entries: dict[RKey, complex] = field(default_factory=dict)

    def get(self, a: Label, b: Label, c: Label) -> complex:
        return self.entries.get((a, b, c), 0.0 + 0.0j)

    @classmethod
    def fibonacci(cls, fusion: FusionData | None = None) -> "RSymbolTable":
        fusion = fusion or FusionData.fibonacci()
        entries: dict[RKey, complex] = {}
        for a in fusion.labels:
            for b in fusion.labels:
                for c in fusion.fuse(a, b):
                    if (a, b) == (1, 1):
                        entries[(a, b, c)] = (
                            cmath.exp(-4j * math.pi / 5) if c == 0 else cmath.exp(3j * math.pi / 5)
                        )
                    else:
                        entries[(a, b, c)] = 1.0 + 0.0j
        return cls(fusion, entries)


@dataclass(frozen=True)
class ConsistencyReport:
    name: str
    max_residual: float
    checked: int


def verify_pentagon(ftable: FSymbolTable) -> ConsistencyReport:
    """Exhaustive pentagon identity over all label assignments.

    With two labels there are at most 2^9 tuples, so the loop is exact and
    fast.  Non-admissible assignments contribute zeros on both sides.
    """
    f = ftable.get
    labels = ftable.fusion.labels
    worst = 0.0
    checked = 0
    for a, b, c, d, e, p, g, k, l in itertools.product(labels, repeat=9):
        lhs = f(p, c, g, d, e, l) * f(a, b, p, l, e, k)
        rhs = sum(
            f(a, b, p, c, g, h) * f(a, h, g, d, e, k) * f(b, c, h, d, k, l) for h in labels
        )
        worst = max(worst, abs(lhs - rhs))
        checked += 1
    return ConsistencyReport("pentagon", worst, checked)


def verify_hexagon(ftable: FSymbolTable, rtable: RSymbolTable) -> ConsistencyReport:
    """Both hexagon identities (for R and for its inverse), exhaustively."""
    f = ftable.get
    r = rtable.get
    labels = ftable.fusion.labels
    worst = 0.0
    checked = 0

    def r_inv(a: int, b: int, c: int) -> complex:
        val = r(a, b, c)
        return 1.0 / val if val != 0 else 0.0

    for a, b, c, d, e, g in itertools.product(labels, repeat=6):
        lhs = r(c, a, e) * f(a, c, e, b, d, g) * r(c, b, g)
        rhs = sum(f(c, a, e, b, d, p) * r(c, p, d) * f(a, b, p, c, d, g) for p in labels)
        worst = max(worst, abs(lhs - rhs))
        lhs_inv = r_inv(a, c, e) * f(a, c, e, b, d, g) * r_inv(b, c, g)
        rhs_inv = sum(f(c, a, e, b, d, p) * r_inv(p, c, d) * f(a, b, p, c, d, g) for p in labels)
        worst = max(worst, abs(lhs_inv - rhs_inv))
        checked += 2
    return ConsistencyReport("hexagon", worst, checked)


def verify_f_unitarity(ftable: FSymbolTable) -> ConsistencyReport:
    """Every F block must be unitary over its admissible index sets."""
    labels = ftable.fusion.labels
    worst = 0.0
    checked = 0
    for i, j, k, l in itertools.product(labels, repeat=4):
        mat, ms, ns = ftable.f_matrix(i, j, k, l)
        if not ms or not ns:
            continue
        if len(ms) != len(ns):
            worst = max(worst, 1.0)
            continue
        worst = max(worst, float(np.abs(mat @ mat.conj().T - np.eye(len(ms))).max()))
        checked += 1
    return ConsistencyReport("f-unitarity", worst, checked)
