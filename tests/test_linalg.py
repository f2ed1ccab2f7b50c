import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import write_back_products
from fibanyon import benchmark_suite as bench
from fibanyon._linalg import active_counts, longest_first_products, pairwise_product

GROUP = bench.CliffordGroup()


def pairwise_compose(stack):
    """Oracle for ``pairwise_product(stack, np.matmul)``: the same pairing
    written with the ``@`` operator."""
    while len(stack) > 1:
        pairs = stack[1::2] @ stack[:-1:2]
        if len(stack) % 2:
            pairs[-1] = stack[-1] @ pairs[-1]
        stack = pairs
    return stack[0]


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestLongestFirstProducts:
    @given(
        dim=st.integers(1, 5),
        entries=st.integers(1, 6),
        start_columns=st.sampled_from((1, None)),  # a vector start, or a square one
        # lengths with repeats, as a grid's k sequences of each length run
        runs=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 4)), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=4, entries=4, start_columns=None, runs=[(50, 1), (1, 3), (50, 2), (7, 1)], seed=0)
    @settings(max_examples=80, deadline=None)
    def test_matches_write_back_loop(self, dim, entries, start_columns, runs, seed):
        rng = np.random.default_rng(seed)
        table = random_complex(rng, (entries, dim, dim))
        start = random_complex(rng, (dim, start_columns or dim))
        lengths = np.array(sorted((m for m, count in runs for _ in range(count)), reverse=True))
        # past each sequence's end an index out of the table's range, so reading one raises
        indices = np.full((lengths[0], len(lengths)), entries + 100, dtype=np.intp)
        for i, m in enumerate(lengths):
            indices[:m, i] = rng.integers(0, entries, size=m)
        active = active_counts(lengths)
        got = longest_first_products(table, indices, active, start)
        assert np.array_equal(got, write_back_products(table, indices, active, start))
        for i, m in enumerate(lengths):
            want = start
            for t in range(m):
                want = table[indices[t, i]] @ want
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestPairwiseProduct:
    @given(
        entries=st.integers(1, 40),
        dim=st.sampled_from((1, 2, 4, 16)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_pairwise_compose(self, entries, dim, seed):
        stack = np.random.default_rng(seed).normal(size=(entries, dim, dim))
        got = pairwise_product(stack, np.matmul)
        assert np.array_equal(got, pairwise_compose(stack))
        want = np.eye(dim)
        for matrix in stack:
            want = matrix @ want
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @given(
        rows=st.integers(1, 300),
        sequences=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=1, sequences=1, seed=0)
    @example(rows=257, sequences=3, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_table_product_matches_sequential_steps(self, rows, sequences, seed):
        size = len(GROUP)
        table = GROUP.table.astype(np.uint8).ravel()
        product = lambda later, earlier: table.take(later.astype(np.uint16) * size + earlier)
        chunk = np.random.default_rng(seed).integers(0, size, size=(rows, sequences), dtype=np.uint8)
        got = pairwise_product(chunk, product)
        want = chunk[0].astype(np.intp)
        for step in chunk[1:]:
            want = GROUP.table[step, want]
        assert got.dtype == np.uint8
        assert got.tolist() == want.tolist()
