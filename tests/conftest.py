import math

import numpy as np
import pytest

from fibanyon import cli

PHI = (1 + math.sqrt(5)) / 2


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
def f_printed() -> np.ndarray:
    """The published 4x4 edge-to-tree basis transform."""
    s = 1 + math.sqrt(5)
    return np.array([
        [1, 0, 0, 0],
        [0, 2 / s, 0, math.sqrt(2 / s)],
        [0, 2 / s, 2 / s, -2 * math.sqrt(2) / s**1.5],
        [0, -2 * math.sqrt(2) / s**1.5, math.sqrt(2 / s), (2 / s) ** 2],
    ])
