import math

import numpy as np
import pytest

from fibanyon import cli

PHI = (1 + math.sqrt(5)) / 2


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def global_phase_sweep(m: np.ndarray, n_states: int, rng: np.random.Generator) -> tuple[float, float, float]:
    """Random logical states through a 2x2 block ``m``, renormalized.

    Returns the worst ``|| m psi / |m psi| - e^{i theta} psi ||``, the spread
    of the recovered phases theta across the states, and the first theta.
    Both errors vanish exactly when ``m`` changes every state by one common
    global phase.
    """
    raw = rng.normal(size=(n_states, 2)) + 1j * rng.normal(size=(n_states, 2))
    psi = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    out = psi @ m.T
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    thetas = np.angle(np.sum(psi.conj() * out, axis=1))
    worst = np.linalg.norm(out - np.exp(1j * thetas)[:, None] * psi, axis=1).max()
    thetas = np.unwrap(thetas)
    return float(worst), float(thetas.max() - thetas.min()), float(thetas[0])


def phase(x: float) -> complex:
    """e^{i pi x}"""
    return complex(np.exp(1j * np.pi * x))


@pytest.fixture(scope="session")
def sigma12_printed() -> np.ndarray:
    """The 4x4 edge-basis generator for exchanging the left anyon pair, in
    closed form (the frozen oracle that ``fibanyon verify`` also checks)."""
    return cli._sigma_oracle(12)


@pytest.fixture(scope="session")
def sigma23_printed() -> np.ndarray:
    return cli._sigma_oracle(23)


@pytest.fixture(scope="session")
def b1_printed() -> np.ndarray:
    return np.diag([1, phase(-4 / 5), phase(3 / 5), phase(3 / 5)])


@pytest.fixture(scope="session")
def b2_printed() -> np.ndarray:
    off = -1j * phase(-1 / 10) / math.sqrt(PHI)
    return np.array([
        [1, 0, 0, 0],
        [0, phase(4 / 5) / PHI, 0, off],
        [0, 0, phase(3 / 5), 0],
        [0, off, 0, -1 / PHI],
    ])


@pytest.fixture(scope="session")
def logical12_printed() -> np.ndarray:
    """The 2x2 logical-qubit block of ``sigma12``, in closed form."""
    return np.diag([np.exp(-4j * np.pi / 5), np.exp(3j * np.pi / 5)])


@pytest.fixture(scope="session")
def logical23_printed() -> np.ndarray:
    return np.array([
        [np.exp(4j * np.pi / 5) / PHI, np.exp(7j * np.pi / 5) / math.sqrt(PHI)],
        [np.exp(7j * np.pi / 5) / math.sqrt(PHI), -1 / PHI],
    ])


@pytest.fixture(scope="session")
def f_printed() -> np.ndarray:
    """The published 4x4 edge-to-tree basis transform."""
    s = 1 + math.sqrt(5)
    return np.array([
        [1, 0, 0, 0],
        [0, 2 / s, 0, math.sqrt(2 / s)],
        [0, 2 / s, 2 / s, -2 * math.sqrt(2) / s**1.5],
        [0, -2 * math.sqrt(2) / s**1.5, math.sqrt(2 / s), (2 / s) ** 2],
    ])
