"""Thermal anyon-pair interference scenarios on the extended 16-dim space.

A pair of boundary anyons created from the vacuum occupies the two
environment labels of the extended edge basis ``|i1, i2, j, k>``; the fresh
pair is the single configuration ``|i1=1, i2=0>`` (see
:mod:`fibanyon.braid_space`).  Scenario ``q`` braids the pair member next to
the subsystem with the nearest tracked anyon ``q`` times: once, after which
the created and tracked anyons swap roles and annihilate (scenario 1), or
twice, a full monodromy (scenario 2).

Projecting the environment back onto the freshly created pair compresses the
scenario operator to a 2x2 block ``M_q`` on the logical qubit.  Topological
protection predicts ``M_q`` proportional to the identity: the logical state
survives up to a global phase (and an overall post-selection amplitude,
whose modulus is recorded rather than assumed to be one).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import braid_space
from ._linalg import dagger

ENV_PAIR_INDEX = 2  # lexicographic index of (i1, i2) = (1, 0)
SCENARIOS = (1, 2)

SCENARIO_T2 = (0.5, 0.5, 0.5, 0.5)
"""Per-qubit T2 times (s) of the four qubits of the extended register in
:func:`extract_M_noisy`."""

SCENARIO_PULSE_SECONDS = 48e-3
"""Duration of the one optimized pulse that runs a scenario unitary in
:func:`extract_M_noisy`."""


def build_scenario_operator(q: int) -> np.ndarray:
    """16x16 unitary braiding the created anyon with the nearest tracked one
    ``q`` times (the five-anyon generator at the pair-subsystem seam)."""
    if q not in SCENARIOS:
        raise ValueError(f"scenario index must be 1 or 2, got {q}")
    crossing = braid_space.build_generator(5, 2)
    return np.linalg.matrix_power(crossing, q)


def _sector() -> np.ndarray:
    """16x2 isometry onto ``|10>_E ⊗ logical qubit`` in the extended edge
    basis: the created pair in the environment."""
    env = np.zeros(4, dtype=complex)
    env[ENV_PAIR_INDEX] = 1.0
    return np.kron(env[:, None], braid_space.logical_encoding())


def logical_environment_state(a: complex, b: complex) -> np.ndarray:
    """(a|0_L> + b|1_L>) ⊗ |10>_E, normalized."""
    sector = _sector()
    vec = a * sector[:, 0] + b * sector[:, 1]
    return vec / np.linalg.norm(vec)


class ScenarioResult(NamedTuple):
    q: int
    matrix: np.ndarray                 # the 2x2 block M_q
    proportionality_deviation: float   # ||M/c - I|| with c = M[0, 0]
    theta: float                       # arg of the proportionality constant
    modulus: float                     # |c|


def _result_from_matrix(q: int, m: np.ndarray) -> ScenarioResult:
    c = m[0, 0]
    if abs(c) < 1e-12:
        raise ValueError("projected block vanishes; no proportionality constant")
    deviation = float(np.abs(m / c - np.eye(2)).max())
    return ScenarioResult(q, m, deviation, float(np.angle(c)), float(abs(c)))


def extract_M(q: int) -> ScenarioResult:
    """The logical block of the scenario operator with the environment
    projected onto the created-pair state on both sides."""
    m = dagger(_sector()) @ build_scenario_operator(q) @ _sector()
    return _result_from_matrix(q, m)


# ---------------------------------------------------------------------------
# Noisy reconstruction (decohered scenario pulses)
# ---------------------------------------------------------------------------


def extract_M_noisy(q: int) -> ScenarioResult:
    """Scenario block reconstructed from decohered simulations.

    The scenario unitary runs as one optimized pulse of
    :data:`SCENARIO_PULSE_SECONDS` with per-qubit dephasing at
    :data:`SCENARIO_T2`, starting from ``|0_L>``, ``|1_L>`` and
    ``|+_L>`` in the created-pair sector.  The output states need no
    positivity repair: the rotated input is a pure state, and the dephasing
    factors are a Kronecker product of per-qubit ``[[1, e], [e, 1]]`` blocks,
    so their Schur product is positive semidefinite with unit trace.
    """
    from . import noise_engine  # only the noisy scenarios need the simulator

    op = build_scenario_operator(q)
    sector = _sector()
    rates = tuple(1.0 / t for t in SCENARIO_T2)

    def run(a: complex, b: complex) -> np.ndarray:
        """Logical block of the decohered output, environment projected on
        the created pair."""
        psi = logical_environment_state(a, b)
        rho = np.outer(psi, psi.conj())
        rho = op @ rho @ dagger(op)
        rho = rho * noise_engine.dephasing_factors(rates, SCENARIO_PULSE_SECONDS)
        return dagger(sector) @ rho @ sector

    rho0 = run(1.0, 0.0)
    rho1 = run(0.0, 1.0)
    rho_plus = run(1.0 / np.sqrt(2), 1.0 / np.sqrt(2))

    m = np.zeros((2, 2), dtype=complex)
    m00 = np.sqrt(max(rho0[0, 0].real, 0.0))
    m11 = np.sqrt(max(rho1[1, 1].real, 0.0))
    # column phases: the first column is taken real positive; the relative
    # phase of the second follows from the superposition run, whose projected
    # coherence approximates M00 * conj(M11) / 2
    rel = rho_plus[0, 1]
    phase = rel / abs(rel) if abs(rel) > 1e-12 else 1.0
    m[0, 0] = m00
    m[1, 0] = rho0[1, 0] / m00 if m00 > 1e-12 else 0.0
    m[1, 1] = m11 * np.conj(phase)
    m[0, 1] = rho1[0, 1] / (m11 * phase) if m11 > 1e-12 else 0.0
    return _result_from_matrix(q, m)
