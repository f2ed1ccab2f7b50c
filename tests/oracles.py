"""Step loops that tests compare the package's batched products with."""

import numpy as np


def write_back_products(table: np.ndarray, indices: np.ndarray, active, start: np.ndarray) -> np.ndarray:
    """Oracle for ``longest_first_products``: the step loop that writes each
    step's product back into the leading rows of one array, so the sequences
    that end are left behind in place."""
    products = (table @ start).take(indices[0], axis=0)
    for a, idx in zip(active[1:], indices[1:]):
        products[:a] = table.take(idx[:a], axis=0) @ products[:a]
    return products
