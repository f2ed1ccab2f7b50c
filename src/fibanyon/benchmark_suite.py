"""Gate characterization protocols.

Channels are represented by their Pauli transfer map: the real matrix
``R[i, j] = tr(P_i E(P_j)) / d`` over the unnormalized Pauli basis, 16x16 in
the two-qubit physical space (PS) and 4x4 in the logical space (LS).  States
enter the protocol loops as Pauli coefficient vectors ``r_j = tr(P_j rho)``,
so survival probabilities and purities are inner products and sequence
simulation is matrix composition.

Protocols: quantum process tomography (:func:`qpt`), average gate fidelity
via the transfer-map closed form, Clifford randomized benchmarking
(reference and interleaved), purity benchmarking without recovery gates, and
the coherent/incoherent error split combining both.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import braid_compiler, braid_space
from ._linalg import active_counts, check_unitary, dagger, longest_first_products, pairwise_product, phase_distances
from ._philox import draw, lanes

PAULI_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
PAULI_LABELS_1Q = ("I", "X", "Y", "Z")

DEFAULT_M_GRID = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_SEQUENCES = 30
MAX_SEQUENCES = 100_000
"""Most sequences per length: sequence ``ki`` of the ``mi``-th length draws
from stream ``mi * MAX_SEQUENCES + ki``, so more would share the streams of
the next length."""
_SEQUENCE_BLOCK = 4096  # sequences advanced together; bounds the gathered (n, d^2, d^2) stack
_RECOVERY_CHUNK = 256
"""Steps whose recovery frames are reduced together: bounds the padded copy
of a block's indices and the wider levels of its integer product to a few
MiB (:func:`_recoveries`)."""
MAX_LENGTH = 4096
"""Longest sequence: one block's Clifford indices are ``MAX_LENGTH *
_SEQUENCE_BLOCK`` uint8 draws, 16 MiB, and drawing them peaks a few MiB above
that (:data:`fibanyon._philox._PHILOX_LANES`)."""

Channel = Callable[[np.ndarray], np.ndarray]


@functools.lru_cache(maxsize=None)
def _pauli_stack(n_qubits: int) -> np.ndarray:
    """The unnormalized Pauli basis, identity first in lexicographic order,
    as one read-only ``(4^n, 2^n, 2^n)`` array built once per register size."""
    basis = list(PAULI_1Q)
    for _ in range(n_qubits - 1):
        basis = [np.kron(a, b) for a in basis for b in PAULI_1Q]
    stack = np.array(basis)
    stack.flags.writeable = False
    return stack


@functools.lru_cache(maxsize=None)
def _logical_pauli_coords() -> np.ndarray:
    """Read-only 4x16 table: row i holds the PS-Pauli coordinates of the
    encoded logical Pauli i, built once."""
    iso = braid_space.logical_encoding()
    embedded = [iso @ p @ dagger(iso) for p in PAULI_1Q]
    coords = np.array(
        [[np.trace(p_k @ e).conj() / 4 for p_k in _pauli_stack(2)] for e in embedded]
    )
    coords.flags.writeable = False
    return coords


def pauli_labels(n_qubits: int) -> list[str]:
    return ["".join(t) for t in itertools.product(PAULI_LABELS_1Q, repeat=n_qubits)]


def _n_qubits(dim: int) -> int:
    n = int(round(math.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True)
class PauliTransferMap:
    """Real transfer matrix of a channel in the Pauli basis."""

    matrix: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        d2 = self.dim**2
        if self.matrix.shape != (d2, d2):
            raise ValueError(f"transfer matrix must be {d2}x{d2} for dimension {self.dim}")

    @property
    def trace_preserving_defect(self) -> float:
        """Deviation of the identity-Pauli row from (1, 0, ..., 0)."""
        row = self.matrix[0].copy()
        row[0] -= 1.0
        return float(np.abs(row).max())

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Act on a density matrix through the Pauli-coefficient picture."""
        coeffs = state_coefficients(rho)
        out = self.matrix @ coeffs
        return matrix_from_coefficients(out, self.dim)

    def compose(self, other: "PauliTransferMap") -> "PauliTransferMap":
        """This map applied after ``other``."""
        return PauliTransferMap(self.matrix @ other.matrix, self.dim)


def state_coefficients(rho: np.ndarray) -> np.ndarray:
    """Pauli coefficients ``r_j = tr(P_j rho)`` of a Hermitian matrix."""
    rho = np.asarray(rho, dtype=complex)
    basis = _pauli_stack(_n_qubits(rho.shape[0]))
    return np.einsum("jab,ba->j", basis, rho).real


def matrix_from_coefficients(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`state_coefficients`: ``sum_j r_j P_j / d``."""
    basis = _pauli_stack(_n_qubits(dim))
    return np.einsum("j,jab->ab", coeffs, basis) / dim


def ptm_of_unitary(u: np.ndarray) -> PauliTransferMap:
    """Transfer map ``R[i, j] = tr(P_i U P_j U†) / d`` of a unitary gate."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    basis = _pauli_stack(_n_qubits(d))
    conjugated = u @ basis @ dagger(u)
    mat = np.einsum("iab,jba->ij", basis, conjugated).real / d
    return PauliTransferMap(mat, d)


def qpt(channel: Channel, dim: int) -> PauliTransferMap:
    """Reconstruct the transfer map of a black-box channel on density matrices.

    Each Pauli basis operator is propagated through the channel via valid
    input states: the maximally mixed state and ``(I + P)/d`` for every
    traceless Pauli ``P``.  A residual check on two fixed non-Pauli probe
    states rejects channels that are not linear maps.
    """
    basis = _pauli_stack(_n_qubits(dim))
    mixed_out = np.asarray(channel(np.eye(dim, dtype=complex) / dim))
    columns = [state_coefficients(dim * mixed_out)]
    for p in basis[1:]:
        rho_in = (np.eye(dim, dtype=complex) + p) / dim
        out = np.asarray(channel(rho_in))
        columns.append(state_coefficients(dim * (out - mixed_out)))
    mat = np.stack(columns, axis=1) / dim
    ptm = PauliTransferMap(mat, dim)

    # fixed probes, not Pauli eigenstates: unequal nonzero amplitudes and phases
    j = np.arange(dim)
    for k in (2, 3):
        vec = np.sqrt(j + 1.0) * np.exp(1j * j**2 / k)
        vec /= np.linalg.norm(vec)
        probe = 0.7 * np.outer(vec, vec.conj()) + 0.3 * np.eye(dim) / dim
        residual = float(np.abs(ptm.apply(probe) - np.asarray(channel(probe))).max())
        if residual > 1e-8:
            raise ValueError(f"channel is not linear: reconstruction residual {residual:.3e}")
    return ptm


def average_gate_fidelity(ptm: PauliTransferMap, ideal: np.ndarray) -> float:
    """Closed-form average gate fidelity from transfer maps.

    Uses ``F_pro = tr(R_ideal^T R) / d^2`` and
    ``F_avg = (d F_pro + 1) / (d + 1)``, the standard simplification of the
    Haar-average fidelity integral for a fully reconstructed channel.
    """
    ideal_ptm = ptm_of_unitary(ideal)
    if ideal_ptm.dim != ptm.dim:
        raise ValueError("dimension mismatch between channel and ideal gate")
    return _average_fidelity(ptm.matrix, ideal_ptm.matrix, ptm.dim)


def _average_fidelity(matrix: np.ndarray, ideal_matrix: np.ndarray, d: int) -> float:
    """The closed form of :func:`average_gate_fidelity` on transfer matrices
    of a ``d``-dimensional channel and its ideal gate."""
    f_pro = float(np.vdot(ideal_matrix, matrix)) / d**2
    return (d * f_pro + 1.0) / (d + 1.0)


def project_to_logical(ptm_ps: PauliTransferMap) -> PauliTransferMap:
    """Compress a physical-space transfer map to the logical qubit.

    For a leakage-free channel this commutes with computing the logical map
    directly.  The logical Pauli operators are the encoded ``iso sigma iso†``
    of :func:`fibanyon.braid_space.logical_encoding`.
    """
    if ptm_ps.dim != 4:
        raise ValueError("expected a physical-space (dimension 4) transfer map")
    coords = _logical_pauli_coords()
    mat = np.real(2.0 * coords.conj() @ ptm_ps.matrix @ coords.T)
    return PauliTransferMap(mat, 2)



# ---------------------------------------------------------------------------
# Synthetic noise channels (transfer-map form)
# ---------------------------------------------------------------------------


def identity_ptm(dim: int) -> PauliTransferMap:
    return PauliTransferMap(np.eye(dim**2), dim)


def depolarizing_ptm(dim: int, prob: float) -> PauliTransferMap:
    mat = np.eye(dim**2) * (1.0 - prob)
    mat[0, 0] = 1.0
    return PauliTransferMap(mat, dim)


def dephasing_ptm(decay: float) -> PauliTransferMap:
    """Single-qubit z-basis dephasing with off-diagonal factor ``decay``."""
    return PauliTransferMap(np.diag([1.0, decay, decay, 1.0]), 2)


# ---------------------------------------------------------------------------
# Clifford group
# ---------------------------------------------------------------------------


_PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def _phase_canonical(u: np.ndarray) -> np.ndarray:
    flat = u.flatten()
    pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
    return u * (abs(pivot) / pivot)


class CliffordGroup:
    """The 24-element single-qubit Clifford group modulo global phase.

    Generated breadth-first from the Hadamard and the quarter-phase gate;
    that order fixes the element indices RB sequences draw.  ``elements`` is
    a read-only ``(24, 2, 2)`` array.
    """

    def __init__(self) -> None:
        generators = (braid_compiler.hadamard_gate(), _PHASE_S)
        seen = [np.eye(2, dtype=complex)]
        for u in seen:  # seen grows while it is read: a breadth-first queue
            for g in generators:
                cand = _phase_canonical(g @ u)
                # dedup tolerance must sit well above the sqrt noise
                # floor of the phase distance (~1e-8 for equal matrices)
                if phase_distances(np.array(seen), cand).min() > 1e-6:
                    seen.append(cand)
        if len(seen) != 24:
            raise AssertionError(f"Clifford closure produced {len(seen)} elements, expected 24")
        self.elements = np.array(seen)
        self.elements.flags.writeable = False

    def __len__(self) -> int:
        return len(self.elements)

    def nearest(self, u: np.ndarray) -> int | np.ndarray:
        """Index of the closest group element (no tolerance check); a
        ``(k, 2, 2)`` stack gives an array of k indices."""
        nearest = np.argmin(phase_distances(self.elements, u), axis=-1)
        return int(nearest) if nearest.ndim == 0 else nearest

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Read-only ``(24, 24)`` multiplication table, built on first use:
        ``table[i, j]`` is the index of ``elements[i] @ elements[j]``."""
        products = self.elements[:, None] @ self.elements
        table = np.argmin(phase_distances(self.elements, products), axis=-1)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def logical_ptms(self) -> np.ndarray:
        """Read-only ``(24, 4, 4)`` ideal transfer matrices of the elements,
        built on first use."""
        return self._ideal_ptms(lambda c: c)

    @functools.cached_property
    def physical_ptms(self) -> np.ndarray:
        """Read-only ``(24, 16, 16)`` ideal transfer matrices of the encoded
        elements (:func:`fibanyon.braid_space.logical_extension`), built on
        first use."""
        return self._ideal_ptms(braid_space.logical_extension)

    def _ideal_ptms(self, encode: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        ptms = np.array([ptm_of_unitary(encode(c)).matrix for c in self.elements])
        ptms.flags.writeable = False
        return ptms

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """Read-only index of each element's inverse, read off :attr:`table`
        (element 0 is the identity)."""
        inverse = np.argmax(self.table == 0, axis=1)
        inverse.flags.writeable = False
        return inverse


# ---------------------------------------------------------------------------
# Randomized and purity benchmarking
# ---------------------------------------------------------------------------


class NoisyGate(NamedTuple):
    """An interleaving target: its ideal unitary, 2x2 logical or 4x4
    physical (RB recovery reads its logical block), and the transfer map
    actually applied."""

    unitary: np.ndarray
    ptm: PauliTransferMap


class GateSet(NamedTuple):
    """Clifford gate set prepared for sequence protocols in one space."""

    dim: int
    group: CliffordGroup
    ptms: np.ndarray  # read-only (24, d^2, d^2): noisy transfer matrix per group element, same order
    prep: np.ndarray  # Pauli coefficients of the initial state and survival effect


def _gateset(group: CliffordGroup, ideal: np.ndarray, zero: np.ndarray,
             noise: PauliTransferMap | None) -> GateSet:
    """Each Clifford runs as its ideal transfer matrix in ``ideal`` followed
    by ``noise``; ``zero`` is the state vector prepared and read out, and
    sets the dimension."""
    dim = len(zero)
    noise = noise or identity_ptm(dim)
    ptms = noise.matrix @ ideal
    ptms.flags.writeable = False
    return GateSet(dim, group, ptms, state_coefficients(np.outer(zero, zero.conj())))


def logical_gateset(
    noise: PauliTransferMap | None = None,
    group: CliffordGroup | None = None,
) -> GateSet:
    """Gate set acting directly on the logical qubit (d = 2)."""
    group = group or CliffordGroup()
    return _gateset(group, group.logical_ptms, np.eye(2, dtype=complex)[0], noise)


def physical_gateset(
    noise: PauliTransferMap | None = None,
    group: CliffordGroup | None = None,
) -> GateSet:
    """Gate set of encoded Cliffords on the two-qubit physical space (d = 4).

    Gates act as the logical Clifford on the code subspace and as the
    identity on its complement; preparation and readout use the encoded
    ``|0_L>``.
    """
    group = group or CliffordGroup()
    zero_l = braid_space.logical_encoding()[:, 0]
    return _gateset(group, group.physical_ptms, zero_l, noise)


FLAT_SPREAD = 1e-9
"""Spread of the per-length means below which :func:`fit_decay` does not fit."""


class DecayFit(NamedTuple):
    """Exponential-decay fit result with the per-length statistics."""

    a: float
    b: float
    rate: float
    m_values: tuple[int, ...]
    means: tuple[float, ...]
    stddevs: tuple[float, ...]
    residual: float
    model: str  # "rb": A + B r^m, "pb": A + B r^(m-1)

    @property
    def flat(self) -> bool:
        """Whether the means were too flat to fit: B is then their mean and
        the rate 1 by convention."""
        return max(self.means) - min(self.means) < FLAT_SPREAD

    def to_dict(self) -> dict:
        return {
            "A": self.a,
            "B": self.b,
            "rate": self.rate,
            "residual": self.residual,
            "model": self.model,
        }


class FitDivergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def fit_decay(
    m_values: Sequence[int],
    means: Sequence[float],
    stddevs: Sequence[float],
    model: str = "rb",
) -> DecayFit:
    """Nonlinear least squares of ``A + B r^m`` (or ``A + B r^(m-1)`` for
    purity curves) with the documented initial guesses, in the box
    ``A in [-1, 1]``, ``B in [-2, 2]``, ``r in [1e-9, 1]``.

    The fit runs the bounded trust-region-reflective iterations of
    ``scipy.optimize.curve_fit`` (:mod:`fibanyon._trf`).  Raises
    :class:`FitDivergenceError` for non-finite data and when the iterations
    exhaust their evaluation cap."""
    # imported here: only rb and pb reach the fit, so no other command loads it
    from . import _trf

    m = np.asarray(m_values, dtype=float)
    y = np.asarray(means, dtype=float)
    exponent = m if model == "rb" else m - 1.0

    if not (np.isfinite(m).all() and np.isfinite(y).all()):
        raise FitDivergenceError("decay fit failed to converge: data are not finite", _spread(y))

    if max(values := y.tolist()) - min(values) < FLAT_SPREAD:
        # flat data: no decay information; rate 1 by convention
        return DecayFit(0.0, float(y.mean()), 1.0, tuple(int(v) for v in m_values),
                        tuple(values), tuple(float(v) for v in stddevs), _spread(y), model)

    try:
        (a, b, rate), f = _trf.least_squares(exponent, y, _initial_guess(exponent, y))
    except (RuntimeError, ValueError) as exc:
        raise FitDivergenceError(f"decay fit failed to converge: {exc}", _spread(y)) from exc

    residual = math.sqrt((f**2).sum() / f.size)  # np.mean's sum and quotient
    return DecayFit(a, b, rate, tuple(int(v) for v in m_values),
                    tuple(values), tuple(float(v) for v in stddevs), residual, model)


def _spread(y: np.ndarray) -> float:
    """Root-mean-square deviation of ``y`` from its mean."""
    return float(np.sqrt(np.mean((y - y.mean()) ** 2)))


def _initial_guess(exponent: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(A, B, r) = (0.5, 0.5, r)`` with r from a log-linear regression of
    ``y - 0.5``, clipped to ``[1e-4, 1 - 1e-9]``."""
    a_guess, b_guess = 0.5, 0.5
    shifted = np.maximum(y - a_guess, 1e-6)  # what np.clip(..., 1e-6, None) calls
    # np.polyfit(exponent, log(shifted), 1) without its argument checks: the same
    # column-scaled Vandermonde least squares by numpy.linalg.lstsq's gufunc, so the same bits
    from ._trf import lstsq

    lhs, scale = _scaled_vandermonde(np.asarray(exponent, dtype=float).tobytes())
    coef = lstsq(lhs, np.log(shifted)[:, None], len(exponent) * np.finfo(float).eps)[0]
    if np.isnan(coef).any():  # where numpy.linalg.lstsq raises
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    slope = coef[0, 0] / scale
    r_guess = min(max(float(np.exp(slope)), 1e-4), 1.0 - 1e-9)
    return np.array([a_guess, b_guess, r_guess])


@functools.lru_cache(maxsize=4)
def _scaled_vandermonde(exponent: bytes) -> tuple[np.ndarray, np.float64]:
    """np.polyfit's degree-1 Vandermonde of the float64 ``exponent`` bytes,
    read-only with unit-norm columns, and its first column's scale."""
    lhs = np.stack([np.frombuffer(exponent), np.ones(len(exponent) // 8)], axis=1)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    lhs.flags.writeable = False
    return lhs, scale[0]


class _Plan(NamedTuple):
    """The part of an RB/PB run that depends only on its grid: the length
    indices longest first, and in that order each sequence's length and
    stream id; each block of at most ``_SEQUENCE_BLOCK`` sequences as its
    slice and, per step t, how many of its sequences are longer than t."""

    order: np.ndarray  # read-only
    lengths: np.ndarray  # read-only
    streams: np.ndarray  # read-only uint64
    blocks: tuple[tuple[slice, tuple[int, ...]], ...]
    lanes: tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]  # per block, its lanes


@functools.lru_cache(maxsize=1)
def _plan(m_values: tuple[int, ...], k: int, block: int) -> _Plan:
    """The plan of a valid grid in blocks of ``block`` sequences, kept for the
    last grid: the four runs of one benchmark share it.  Its lanes hold 4 bytes
    per 8 draws: 1 MiB at 512 x (1, 2, MAX_LENGTH), 8 MiB a block at MAX_LENGTH,
    391 GiB for the largest valid grid, MAX_SEQUENCES x every length to MAX_LENGTH."""
    order = sorted(range(len(m_values)), key=lambda mi: -m_values[mi])
    lengths = np.repeat([m_values[mi] for mi in order], k)
    streams = np.array([mi * MAX_SEQUENCES + ki for mi in order for ki in range(k)], dtype=np.uint64)
    order = np.array(order)
    order.flags.writeable = lengths.flags.writeable = streams.flags.writeable = False
    blocks = tuple((part, tuple(active_counts(lengths[part])))
                   for part in (slice(lo, lo + block) for lo in range(0, len(lengths), block)))
    return _Plan(order, lengths, streams, blocks, tuple(tuple(lanes(lengths[part])) for part, _ in blocks))


def _run_sequences(
    gateset: GateSet,
    m_values: Sequence[int],
    k: int,
    seed: int,
    interleave: NoisyGate | None,
    recovery: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Survival (or purity) statistics over random Clifford sequences.

    Returns per-length means and standard deviations: survival probabilities
    when ``recovery`` is set (RB), rescaled purities otherwise (PB).  In
    either space the RB recovery gate inverts the logical frame: the product
    of 2x2 group elements and the interleaved target's logical block.  Raises
    ``ValueError`` for k < 2 or k > :data:`MAX_SEQUENCES`, fewer than 3
    distinct lengths, a length < 1 or > :data:`MAX_LENGTH`, or, with
    recovery, a target whose logical block is not unitary within
    ``UNITARY_TOL`` (a leaking target has no logical frame).

    Sequence ``ki`` of the ``mi``-th length draws its Clifford indices from
    the stream ``_philox.rng_for(seed, mi * MAX_SEQUENCES + ki)``, read by
    :func:`~fibanyon._philox.draw`.  All k sequences of every length run
    together, longest first, in blocks of at most ``_SEQUENCE_BLOCK``:
    :func:`_recoveries` from a block's indices alone, then :func:`_advance`.
    All that depends only on the grid comes from the cached :func:`_plan`."""
    if k < 2:
        raise ValueError(f"need at least 2 sequences per length, got {k}")
    if k > MAX_SEQUENCES:
        raise ValueError(f"need at most {MAX_SEQUENCES} sequences per length, got {k}")
    if len(set(m_values)) < 3 or min(m_values) < 1:
        raise ValueError(f"need at least 3 distinct sequence lengths of at least 1, got {tuple(m_values)}")
    if max(m_values) > MAX_LENGTH:
        raise ValueError(f"need sequence lengths of at most {MAX_LENGTH}, got {max(m_values)}")
    target = None
    if recovery and interleave is not None:
        # the recovery's logical block of the target, the iso† u iso of braid_space.logical_restrict
        target = np.asarray(interleave.unitary, dtype=complex)
        if target.shape == (4, 4):
            iso = braid_space.logical_encoding()
            target = dagger(iso) @ target @ iso
        check_unitary(target, what="the interleaved target's logical block")
    plan = _plan(tuple(m_values), k, _SEQUENCE_BLOCK)
    values = []
    for (block, active), chunks in zip(plan.blocks, plan.lanes):
        indices = draw(seed, plan.streams[block], len(gateset.group), plan.lengths[block], chunks)
        recoveries = _recoveries(gateset.group, indices, active, target) if recovery else None
        values.append(_advance(gateset, indices, active, interleave, recoveries))
    values = (values[0] if len(values) == 1 else np.concatenate(values)).reshape(len(plan.order), k)
    means, stds = np.empty(len(plan.order)), np.empty(len(plan.order))
    means[plan.order], stds[plan.order] = values.mean(axis=1), values.std(axis=1, ddof=1)
    return means, stds


def _advance(gateset: GateSet, indices: np.ndarray, active: Sequence[int],
             interleave: NoisyGate | None, recoveries: np.ndarray | None) -> np.ndarray:
    """Per-sequence survival after the recovery gates ``recoveries`` (RB), or
    rescaled purity when they are None (PB), from the prepared state's
    :func:`~fibanyon._linalg.longest_first_products` over the 24 maps (the
    interleaved target folded in once), the draws ``indices`` and the plan's ``active``."""
    ptms, d = gateset.ptms, gateset.dim
    steps = ptms if interleave is None else interleave.ptm.matrix @ ptms
    coeffs = longest_first_products(steps, indices, active, gateset.prep[:, None])
    if recoveries is not None:
        coeffs = ptms[recoveries] @ coeffs
        return (gateset.prep @ coeffs)[:, 0] / d
    plain = np.sum(coeffs[..., 0] ** 2, axis=1) / d
    return (d * plain - 1.0) / (d - 1.0)


def _recoveries(group: CliffordGroup, indices: np.ndarray, active: Sequence[int],
                target: np.ndarray | None) -> np.ndarray:
    """Index of each sequence's RB recovery gate, the group element nearest
    the inverse of its logical frame, for :func:`_advance`'s ``indices`` and
    ``active``.  The frame is the product of the sequence's step frames,
    later steps on the left; a step frame is the drawn element, followed in
    interleaved RB by the target's logical block ``target``.  Steps are
    reduced :data:`_RECOVERY_CHUNK` at a time from a copy of the indices in
    which every step past a sequence's end is the identity.

    Reference RB frames stay in the group: a chunk's element indices are
    multiplied by :func:`~fibanyon._linalg.pairwise_product` through a uint8
    copy of :attr:`CliffordGroup.table`, exact integer arithmetic, and the
    recovery is the frame's inverse.  Interleaved frames leave the group, so each is
    a real unit quaternion F, updated two steps at a time from
    :func:`_quaternion_tables`, and the recovery is the argmax of
    ``|(C F)_0|`` over the 24 Clifford quaternions C.  Since ``|tr(C F)| =
    2 |(C F)_0|`` on SU(2), that ranks the elements as
    :meth:`CliffordGroup.nearest`'s phase distance does."""
    size = len(group)
    if target is None:
        table = group.table.astype(np.uint8).ravel()
        product = lambda later, earlier: table.take(later.astype(np.uint16) * size + earlier)
        frames = np.zeros(active[0], dtype=np.uint8)  # element 0 is the identity
        for _, chunk in _chunks(indices, active, 0, np.uint8):
            head = frames[:chunk.shape[1]]
            head[:] = product(pairwise_product(chunk, product), head)
        return group.inverse[frames]
    pairs, scalar_rows = _quaternion_tables(group, target.tobytes())
    frames = np.zeros((4, active[0]))
    frames[0] = 1.0
    for lo, chunk in _chunks(indices, active, size, np.uint16):
        for t, pair in zip(range(lo, lo + len(chunk), 2), chunk[0::2] * (size + 1) + chunk[1::2]):
            head = frames[:, :active[t]]
            left = pairs.take(pair[:active[t]], axis=1).reshape(4, 4, -1)
            head[:] = np.einsum("kjn,jn->kn", left, head)
    return np.argmax(np.abs(scalar_rows @ frames), axis=0)


def _chunks(indices: np.ndarray, active: Sequence[int], identity: int,
            dtype: type) -> Iterator[tuple[int, np.ndarray]]:
    """Each chunk's first step and a copy, as ``dtype``, of its
    :data:`_RECOVERY_CHUNK` or fewer steps of the sequences running at that
    step, with ``identity`` at every step past a sequence's end, and one more
    row of it in a chunk of odd length, so that its steps pair up."""
    for lo in range(0, len(active), _RECOVERY_CHUNK):
        rows, a = min(_RECOVERY_CHUNK, len(active) - lo), active[lo]
        chunk = np.full((rows + rows % 2, a), identity, dtype=dtype)
        chunk[:rows] = indices[lo:lo + rows, :a]
        for t in range(lo + 1, lo + rows):
            if active[t] < active[t - 1]:  # sequences active[t]: to active[t - 1] end at step t
                chunk[t - lo:, active[t]:active[t - 1]] = identity
        yield lo, chunk


_QUATERNION_BASIS = np.array([PAULI_1Q[0], *(-1j * p for p in PAULI_1Q[1:])])
"""I, -iX, -iY, -iZ: in these real coordinates a product in SU(2) is the
Hamilton product."""


def _left_products(u: np.ndarray) -> np.ndarray:
    """``(..., 4, 4)`` real matrices of left multiplication by the ``(..., 2,
    2)`` unitaries ``u`` scaled to SU(2), in the coordinates ``q_m = Re tr(B_m†
    U) / 2`` of :data:`_QUATERNION_BASIS` B: column j holds those of ``u
    B_j``, so row 0 maps F to the scalar part of ``u F``."""
    special = u / np.sqrt(np.linalg.det(u))[..., None, None]
    products = special[..., None, :, :] @ _QUATERNION_BASIS
    return np.einsum("kab,...jab->...kj", _QUATERNION_BASIS.conj(), products).real / 2


@functools.lru_cache(maxsize=4)
def _quaternion_tables(group: CliffordGroup, target: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only interleaved-RB tables for the 2x2 logical block whose bytes
    are ``target``, built on first use: the ``(16, 625)`` left-multiplication
    matrices, flattened, of every two steps, column ``25 i + j`` for the
    step frames ``target @ elements[i]`` then ``target @ elements[j]``, with
    index 24 the identity; and the ``(24, 4)`` rows taking a frame F to
    ``(C F)_0`` for each element C."""
    frames = np.frombuffer(target, dtype=complex).reshape(2, 2) @ group.elements
    left = _left_products(np.concatenate([frames, np.eye(2)[None]]))
    pairs = np.ascontiguousarray((left[None, :] @ left[:, None]).reshape(-1, 16).T)
    scalar_rows = np.ascontiguousarray(_left_products(group.elements)[:, 0])
    pairs.flags.writeable = scalar_rows.flags.writeable = False
    return pairs, scalar_rows


def reference_fidelity_from_rate(rate: float, dim: int) -> float:
    """Per-gate average fidelity from an RB decay rate:
    ``1 - F = (1 - f)(d - 1)/d``."""
    return 1.0 - (1.0 - rate) * (dim - 1) / dim


def rb_reference(
    gateset: GateSet, m_values: Sequence[int] = DEFAULT_M_GRID,
    k: int = DEFAULT_SEQUENCES, seed: int = 0,
) -> DecayFit:
    """Reference randomized benchmarking: random Cliffords plus the inverting
    recovery gate, survival of the initial state fitted to ``A + B f^m``."""
    means, stds = _run_sequences(gateset, m_values, k, seed, None, recovery=True)
    return fit_decay(m_values, means, stds, model="rb")


class InterleavedResult(NamedTuple):
    fit: DecayFit
    f_rb: float
    warnings: tuple[str, ...] = ()


def rb_interleaved(target: NoisyGate, gateset: GateSet, m_values: Sequence[int], k: int,
                   seed: int, reference: DecayFit) -> InterleavedResult:
    """Interleaved RB of a target gate, its sequences drawn from ``seed + 1``.

    The target follows every random Clifford; the gate fidelity comes from
    ``1 - F_RB = (1 - f_int/f)(d - 1)/d`` against the reference decay."""
    means, stds = _run_sequences(gateset, m_values, k, seed + 1, target, recovery=True)
    fit = fit_decay(m_values, means, stds, model="rb")
    warnings = ()
    if fit.rate > reference.rate:
        warnings = ("interleaved decay exceeds reference: estimated infidelity is negative within noise",)
    d = gateset.dim
    f_rb = 1.0 - (1.0 - fit.rate / reference.rate) * (d - 1) / d
    return InterleavedResult(fit, f_rb, warnings)


class PurityResult(NamedTuple):
    fit: DecayFit                 # rate is the unitarity estimate u
    incoherent_per_gate: float    # (1 - sqrt(u)) (d-1)/d


def pb_run(
    gateset: GateSet,
    interleave: NoisyGate | None = None,
    m_values: Sequence[int] = DEFAULT_M_GRID,
    k: int = DEFAULT_SEQUENCES,
    seed: int = 0,
) -> PurityResult:
    """Purity benchmarking: sequences without recovery, rescaled purity
    fitted to ``A + B u^(m-1)``; the incoherent error per segment follows
    from ``1 - e_inc = 1 - (1 - sqrt(u))(d - 1)/d``."""
    means, stds = _run_sequences(gateset, m_values, k, seed, interleave, recovery=False)
    fit = fit_decay(m_values, means, stds, model="pb")
    d = gateset.dim
    incoherent = (1.0 - math.sqrt(max(fit.rate, 0.0))) * (d - 1) / d
    return PurityResult(fit, incoherent)


class ErrorBudget(NamedTuple):
    total_infidelity: float
    incoherent: float
    coherent: float
    warnings: tuple[str, ...] = ()


def error_budget(
    rb_int: InterleavedResult,
    pb_ref: PurityResult,
    pb_int: PurityResult,
    dim: int,
) -> ErrorBudget:
    """Split the interleaved-RB infidelity into incoherent and coherent parts.

    The incoherent share of the target gate is
    ``(1 - sqrt(u_int/u_ref))(d - 1)/d``; the coherent share is the remainder
    of the RB infidelity.  ``dim`` must match the space the fits were
    produced in."""
    u_ref = max(pb_ref.fit.rate, 1e-12)
    u_int = max(pb_int.fit.rate, 0.0)
    ratio = u_int / u_ref
    incoherent = (1.0 - math.sqrt(max(ratio, 0.0))) * (dim - 1) / dim
    total = 1.0 - rb_int.f_rb
    coherent = total - incoherent
    warnings = tuple(rb_int.warnings)
    tolerance = 5e-3
    if ratio > 1.0 + tolerance:
        warnings += ("interleaved purity decays slower than reference beyond tolerance",)
    if coherent < -tolerance:
        warnings += (f"coherent component {coherent:.4f} negative beyond tolerance",)
    return ErrorBudget(total, incoherent, coherent, warnings)


MAX_SEED = 2**64 - 4
"""Largest master seed of :func:`run_protocols`: its streams ``seed`` to
``seed + 3`` must each fit a uint64 generator key."""


class ProtocolResults(NamedTuple):
    """The runs of :func:`run_protocols`, None where not asked for, and the
    warnings about the run as a whole (:func:`_flat_warnings`)."""

    reference: DecayFit
    interleaved: InterleavedResult | None = None
    channel_oracle_fidelity: float | None = None
    pb_reference: PurityResult | None = None
    pb_interleaved: PurityResult | None = None
    budget: ErrorBudget | None = None
    warnings: tuple[str, ...] = ()


def run_protocols(gateset: GateSet, target: NoisyGate | None, m_values: Sequence[int], k: int,
                  seed: int, purity: bool) -> ProtocolResults:
    """The benchmark pipeline of one gate set, and its seed policy: reference
    RB on the stream ``seed``; given a ``target``, interleaved RB on
    ``seed + 1`` and the target's channel-oracle fidelity; with ``purity``,
    reference and interleaved PB on ``seed + 2`` and ``seed + 3`` and the
    error budget.  A warning about flat fits (:func:`_flat_warnings`) is also
    added to the interleaved result's and the budget's warnings."""
    if purity and target is None:
        raise ValueError("purity benchmarking needs an interleaving target")
    reference = rb_reference(gateset, m_values, k, seed)
    interleaved = oracle = pb_ref = pb_int = budget = None
    fits = {"reference RB": reference}
    if target is not None:
        interleaved = rb_interleaved(target, gateset, m_values, k, seed, reference)
        oracle = average_gate_fidelity(target.ptm, target.unitary)
        fits["interleaved RB"] = interleaved.fit
    if purity:
        pb_ref = pb_run(gateset, None, m_values, k, seed + 2)
        pb_int = pb_run(gateset, target, m_values, k, seed + 3)
        fits["reference PB"], fits["interleaved PB"] = pb_ref.fit, pb_int.fit
    flat = _flat_warnings(fits)
    if interleaved is not None:
        interleaved = interleaved._replace(warnings=interleaved.warnings + flat)
    if purity:
        budget = error_budget(interleaved, pb_ref, pb_int, dim=gateset.dim)
    return ProtocolResults(reference, interleaved, oracle, pb_ref, pb_int, budget, flat)


def _flat_warnings(fits: dict[str, DecayFit]) -> tuple[str, ...]:
    """One warning naming each labelled fit whose means were flat off the
    noiseless level 1, where its rate 1 hides a decay; else none."""
    off = [f"{label} at {fit.b:.6g}" for label, fit in fits.items()
           if fit.flat and abs(fit.b - 1.0) >= FLAT_SPREAD]
    return (f"flat decay off the noiseless level 1 ({', '.join(off)}): "
            "a flat fit's rate 1 is a convention, not a measured decay",) if off else ()
