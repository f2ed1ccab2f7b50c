"""Philox4x64-10 in numpy: the package's random streams.

:func:`rng_for` defines the stream ``(seed, stream)``, and :func:`draw`
computes its bounded draws for many streams at once without importing
``numpy.random``, for RB/PB sequences and ``verify``'s random braid words.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def rng_for(seed: int, task_index: int) -> np.random.Generator:
    """Counter-based generator stream for task ``task_index`` of a master
    seed; identical whether tasks run serially or in parallel.

    This is the definition of a stream: :func:`draw` computes the same values
    in numpy and so never imports ``numpy.random``."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, task_index], dtype=np.uint64)))


_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)  # key step per round
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_PHILOX_LANES = 8192
"""Counter blocks computed together: bounds a draw's working memory to a
few MiB beside its output."""


def philox_halves(seed: int, streams: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 in numpy (Salmon, Moraes, Dror & Shaw, SC'11): row i
    holds the 32-bit halves, low half first, of the four 64-bit words that
    ``numpy.random.Philox(key=[seed, streams[i]])`` outputs for its counter
    block ``[counters[i], 0, 0, 0]``.  A fresh stream's first block has
    counter 1, and numpy's 32-bit draws consume the halves in this order.

    Blocks are columns of ``(2, n)`` arrays holding counter words 0 and 2, the
    pair a round multiplies; each 64x64 -> 128-bit product is assembled from
    32-bit halves, none of whose partial sums overflows 64 bits."""
    n = len(counters)
    full = lambda c: np.repeat(c[:, None], n, axis=1)  # same-shape operands skip broadcasting
    m, m_lo, m_hi = full(_PHILOX_M), full(_PHILOX_M & _LOW32), full(_PHILOX_M >> _32)
    key = np.empty((2, n), dtype=np.uint64)
    key[0], key[1] = seed, streams
    round_keys = key + np.arange(10, dtype=np.uint64)[:, None, None] * _PHILOX_BUMP[:, None]  # wrapping
    x = np.zeros((2, n), dtype=np.uint64)  # counter words 0 and 2
    x[0] = counters
    y = np.zeros((2, n), dtype=np.uint64)  # counter words 1 and 3
    x_lo, x_hi, t, u, v = (np.empty((2, n), dtype=np.uint64) for _ in range(5))
    for round_key in round_keys:
        np.bitwise_and(x, _LOW32, out=x_lo)
        np.right_shift(x, _32, out=x_hi)
        np.multiply(x_lo, m_lo, out=t)
        t >>= _32
        np.multiply(x_hi, m_lo, out=u)
        u += t
        np.bitwise_and(u, _LOW32, out=t)
        np.multiply(x_lo, m_hi, out=v)
        v += t
        u >>= _32
        v >>= _32
        np.multiply(x_hi, m_hi, out=t)
        t += u
        t += v  # the high 64 bits of x * m
        low = x * m  # wraps to the low 64 bits
        # words (0, 1, 2, 3) become (hi_1 ^ w1 ^ k0, lo_1, hi_0 ^ w3 ^ k1, lo_0)
        np.bitwise_xor(t[::-1], y, out=x)
        x ^= round_key
        y = low[::-1]
    # little-endian words split into their halves low first
    words = np.stack([x[0], y[0], x[1], y[1]], axis=1).astype("<u8", copy=False)
    return words.view("<u4").astype(np.uint64)


def _bounded(halves: np.ndarray, high: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw on 32-bit halves: each maps to ``(u * high) >>
    32`` and is rejected where the low 32 bits of that product fall below
    ``2**32 % high``.  Returns the draws and the acceptance mask."""
    scaled = halves * np.uint64(high)
    return (scaled >> _32).astype(np.int64), (scaled & _LOW32) >= np.uint64(2**32 % high)


def lanes(sizes: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Read-only chunks of at most :data:`_PHILOX_LANES` Philox lanes of
    streams drawing ``sizes`` values, one at a time: each lane's counter
    block from 0 and its stream's column, in the smallest unsigned dtypes."""
    blocks = -(-sizes // 8)
    ends = np.cumsum(blocks)
    starts = ends - blocks
    block_type, column_type = np.min_scalar_type(blocks.max()), np.min_scalar_type(len(sizes) - 1)
    for lo in range(0, int(ends[-1]), _PHILOX_LANES):
        lanes = np.arange(lo, min(lo + _PHILOX_LANES, int(ends[-1])))
        columns = np.searchsorted(ends, lanes, side="right")
        chunk = (lanes - starts[columns]).astype(block_type), columns.astype(column_type)
        chunk[0].flags.writeable = chunk[1].flags.writeable = False
        yield chunk


def draw(seed: int, streams: np.ndarray, high: int, sizes: np.ndarray,
         chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Column ``i`` begins with ``rng_for(seed, streams[i]).integers(0, high,
    size=sizes[i])`` for the uint64 ``streams``, ``0 < high < 2**32`` and
    ``chunks``, the :func:`lanes` of ``sizes``; entries past ``sizes[i]`` are
    unspecified.  The array is step-major, ``(max(sizes), len(streams))``, in
    the smallest unsigned dtype that holds ``high - 1``.  The draws are
    :func:`philox_halves` over each lane chunk, eight a lane.  A stream with a
    rejected draw among its first ``sizes[i]`` (probability 16/2**32 a draw at
    24) is read again: the accepted draws of its counter blocks 1..B, in
    order, B doubling until they are enough."""
    out = np.empty((-(-int(sizes.max()) // 8) * 8, len(streams)), dtype=np.min_scalar_type(high - 1))
    short = np.zeros(len(streams), dtype=bool)
    for block, columns in chunks:
        draws, accepted = _bounded(philox_halves(seed, streams[columns], block + 1), high)
        out.reshape(-1, 8, len(streams))[block, :, columns] = draws
        if not accepted.all():
            needed = 8 * block[:, None].astype(np.int64) + np.arange(8) < sizes[columns, None]
            short[columns[(needed & ~accepted).any(axis=1)]] = True
    for column in np.flatnonzero(short):
        size, blocks, kept = int(sizes[column]), -(-int(sizes[column]) // 8), ()
        while len(kept) < size:
            blocks *= 2
            halves = philox_halves(seed, np.full(blocks, streams[column]), np.arange(1, blocks + 1))
            values, accepted = _bounded(halves, high)
            kept = values[accepted]
        out[:size, column] = kept[:size]
    return out[:sizes.max()]
