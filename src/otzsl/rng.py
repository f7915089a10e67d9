"""Deterministic random sampling on a counter-based SplitMix64 stream.

Every stochastic step in the pipeline (weight init, noise vectors, batch
draws, branch coins) consumes a ``SeededRng`` so that a single integer seed
pins down a run bit-exactly. The generator is SplitMix64 with its published
constants, fixed forever in this repository; it is counter-based, so bulk
draws vectorize with numpy uint64 arithmetic while producing the exact same
stream as the scalar reference. Normal deviates use Box-Muller on the
uniform stream (two uniforms per deviate, cosine branch only), so the stream
position after ``gaussian(n)`` depends only on ``n``.

Workers that need independent streams derive them by seed-splitting:
``rng.split(k)`` returns a generator seeded with ``seed XOR k``.
"""

from __future__ import annotations

import numpy as np

from .errors import check_value

MAX_SEED = (1 << 64) - 1  # seeds are the 64-bit words 0..MAX_SEED, each its own stream
SEED_BOUNDS = {"at_least": 0, "at_most": MAX_SEED}  # the rule of every seed (see check_value)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2^-53; a 53-bit mantissa scaled by this covers [0, 1) on an even grid.
_U53 = 1.0 / (1 << 53)
_CACHE_DRAWS = 8192  # a draw of at most this many outputs slices a block computed ahead


def check_seed(seed, what: str = "seed") -> int:
    """`seed` as an int: it must be an int by check_value (a numpy integer
    too, not a bool or a float) in 0..MAX_SEED, or ConfigError names `what`."""
    return check_value(what, seed, int, **SEED_BOUNDS)


class SeededRng:
    """SplitMix64 stream with vectorized uniform / normal / integer draws."""

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self._counter = 0  # uint64 outputs consumed so far
        self._cache, self._cache_start = np.empty(0, np.uint64), 0  # outputs after _cache_start

    def split(self, worker_index: int) -> "SeededRng":
        """Independent stream for a worker: seeded with ``seed XOR index``,
        which must lie in 0..MAX_SEED as every seed does."""
        return SeededRng(self.seed ^ check_seed(worker_index))

    def next_uint64(self, n: int) -> np.ndarray:
        """The next n outputs, read-only; a small draw is a view of a block computed ahead."""
        n = check_value("n", n, int, at_least=1)
        start, self._counter = self._counter, self._counter + n
        if n > _CACHE_DRAWS:
            return self._outputs(start + 1, n)
        if self._counter - self._cache_start > self._cache.size:
            self._cache = self._outputs(start + 1, min(_CACHE_DRAWS, max(n, 2 * self._cache.size)))
            self._cache_start = start
        return self._cache[start - self._cache_start:self._counter - self._cache_start]

    def _outputs(self, start: int, n: int) -> np.ndarray:
        idx = np.arange(start, start + n, dtype=np.uint64)
        z = np.uint64(self.seed) + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z.flags.writeable = False  # cached or not, a draw is never written to
        return z

    def uniform(self, n: int) -> np.ndarray:
        """n i.i.d. draws from [0, 1), on the 53-bit grid."""
        return (self.next_uint64(n) >> np.uint64(11)).astype(np.float64) * _U53

    def gaussian(self, n: int) -> np.ndarray:
        """n i.i.d. standard-normal draws via Box-Muller.

        The log argument is shifted onto (0, 1] so it never sees zero.
        """
        n = check_value("n", n, int, at_least=1)
        grid = (self.next_uint64(2 * n) >> np.uint64(11)).astype(np.float64)  # 53-bit integers
        u1 = (grid[0::2] + 1.0) * _U53
        u2 = grid[1::2] * _U53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def integers(self, upper: int, n: int) -> np.ndarray:
        """n uniform draws from {0, ..., upper-1}, for an upper of at most
        2^53: each is floor(u * upper) of a uniform u on the 53-bit grid,
        which above 2^53 would leave some ids out."""
        upper = check_value("upper", upper, int, at_least=1, at_most=1 << 53)
        vals = np.floor(self.uniform(n) * upper).astype(np.int64)
        return np.minimum(vals, upper - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic random permutation of range(n)."""
        return np.argsort(self.next_uint64(n), kind="stable")
