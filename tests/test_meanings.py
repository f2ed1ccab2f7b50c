"""What printed numbers mean.

Each row checks one printed quantity against its definition, computed from
first principles (the Kraus operators or the unitary, not the transfer map
the package computes it from), and has a negative control: a plausible wrong
formula must fail the same oracle.

| quantity | printed in | definition | dimension |
| --- | --- | --- | --- |
| ``trace_preserving_defect`` | ``benchmark --protocol qpt``: ``fidelity.json`` | ``max_j abs(tr E(P_j) / d - delta_j0)`` over the Paulis ``P_j`` of the channel's space | trace |
| ``leakage`` | ``compile --word``: stdout and the ``--out`` JSON | spectral norm of ``(1 - P_L) U iso``: the largest amplitude a logical state sends out of the logical space | amplitude |
"""

import functools
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from fibanyon import benchmark_suite as bench
from fibanyon import braid_space as bs

TOL = 1e-12
SEEDS = st.integers(0, 2**32 - 1)
_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


@functools.cache
def paulis(d: int) -> tuple[np.ndarray, ...]:
    """The unnormalized Paulis of a ``d``-dimensional space, identity first."""
    n = d.bit_length() - 1
    return tuple(functools.reduce(np.kron, factors, np.eye(1)) for factors in itertools.product(_PAULI, repeat=n))


def random_kraus(d: int, rank: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators of a random CPTP channel: the blocks of a Haar-random
    Stinespring isometry."""
    iso = haar_unitary(d * rank, rng)[:, :d]
    return [iso[i * d:(i + 1) * d] for i in range(rank)]


def kraus_channel(kraus):
    return lambda rho: sum(k @ rho @ k.conj().T for k in kraus)


def projected(kraus: list[np.ndarray]) -> list[np.ndarray]:
    """Kraus operators of ``rho -> iso† E(iso rho iso†) iso`` on the logical qubit."""
    iso = bs.logical_encoding()
    return [iso.conj().T @ k @ iso for k in kraus]


def trace_defect(kraus: list[np.ndarray]) -> float:
    """``max_j abs(tr E(P_j) / d - delta_j0)`` from the Kraus operators."""
    d = len(kraus[0])
    traces = [np.trace(kraus_channel(kraus)(p)) / d for p in paulis(d)]
    return max(abs(t - (j == 0)) for j, t in enumerate(traces))


def column_zero_defect(ptm: bench.PauliTransferMap) -> float:
    """A wrong formula: the transfer map's column 0, the image of the
    identity, in place of its row 0."""
    column = ptm.matrix[:, 0].copy()
    column[0] -= 1.0
    return float(np.abs(column).max())


def leakage_oracle(u: np.ndarray) -> float:
    """``sqrt(1 - sigma_min(iso† U iso)^2)``: a unitary keeps each logical
    state's norm, so what the logical block loses of it has left the space."""
    iso = bs.logical_encoding()
    sigma_min = np.linalg.svd(iso.conj().T @ u @ iso, compute_uv=False).min()
    return float(np.sqrt(max(0.0, 1.0 - sigma_min**2)))


def frobenius_leakage(u: np.ndarray) -> float:
    """A wrong formula: the Frobenius norm of ``(1 - P_L) U iso`` in place of
    the spectral norm."""
    iso = bs.logical_encoding()
    return float(np.linalg.norm((np.eye(4) - iso @ iso.conj().T) @ u @ iso))


class TestTracePreservingDefect:
    @given(seed=SEEDS, d=st.sampled_from((2, 4)))
    @settings(max_examples=30, deadline=None)
    def test_unitary_maps(self, seed, d):
        u = haar_unitary(d, np.random.default_rng(seed))
        assert abs(bench.ptm_of_unitary(u).trace_preserving_defect - trace_defect([u])) <= TOL

    @given(seed=SEEDS, rank=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_cptp_maps_and_their_logical_projections(self, seed, rank):
        # a CPTP map of the physical space preserves the trace; compressed to the
        # logical qubit it loses what leaks, which the defect must report
        kraus = random_kraus(4, rank, np.random.default_rng(seed))
        ptm = bench.qpt(kraus_channel(kraus), 4)
        assert abs(ptm.trace_preserving_defect - trace_defect(kraus)) <= TOL
        logical = bench.project_to_logical(ptm)
        assert abs(logical.trace_preserving_defect - trace_defect(projected(kraus))) <= TOL

    def test_column_zero_fails_the_oracle(self):
        # a CPTP map of rank 2 preserves the trace but not the identity, so its column 0
        # is off (1, 0, ..., 0); on the projected maps both formulas take their maximum
        # at the shared entry R[0, 0], so only the physical maps tell them apart
        for seed in range(10):
            kraus = random_kraus(4, 2, np.random.default_rng(seed))
            ptm = bench.qpt(kraus_channel(kraus), 4)
            assert abs(column_zero_defect(ptm) - trace_defect(kraus)) > 1e-3


class TestLeakage:
    # braid words do not leak, so Haar-random unitaries stand in for leaking gates
    @given(seed=SEEDS)
    @settings(max_examples=50, deadline=None)
    def test_spectral_norm_of_what_leaves(self, seed):
        u = haar_unitary(4, np.random.default_rng(seed))
        _, leakage = bs.logical_restrict(u)
        assert abs(leakage - leakage_oracle(u)) <= 1e-10

    def test_frobenius_norm_fails_the_oracle(self):
        for seed in range(10):
            u = haar_unitary(4, np.random.default_rng(seed))
            assert frobenius_leakage(u) - leakage_oracle(u) > 1e-3
