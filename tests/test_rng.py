import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otzsl.rng import SeededRng

seeds = st.integers(min_value=0, max_value=2**64 - 1)


def test_same_seed_same_stream():
    a = SeededRng(7).gaussian(64)
    b = SeededRng(7).gaussian(64)
    np.testing.assert_array_equal(a, b)


def test_distinct_seeds_differ():
    a = SeededRng(7).gaussian(64)
    b = SeededRng(8).gaussian(64)
    assert not np.array_equal(a, b)


def test_stream_position_is_count_based():
    """Two draws of 32 equal one draw of 64 elementwise."""
    r1 = SeededRng(3)
    first = np.concatenate([r1.gaussian(32), r1.gaussian(32)])
    second = SeededRng(3).gaussian(64)
    np.testing.assert_array_equal(first, second)


@pytest.mark.parametrize("n", [1, 8192, 8193, 20000], ids=["one", "cached", "past", "large"])
def test_raw_draws_are_read_only_at_every_size(n):
    """A small draw views a block computed ahead, so writing to it would
    change later draws; a large one is made read-only too, so no caller
    works at one size and fails at the other."""
    rng = SeededRng(4)
    bits = rng.next_uint64(n)
    with pytest.raises(ValueError, match="read-only"):
        bits[0] = 0
    assert np.array_equal(bits, SeededRng(4).next_uint64(n + 1)[:n])


def test_gaussian_moments():
    x = SeededRng(0).gaussian(100_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.03


def test_uniform_range_and_grid():
    u = SeededRng(11).uniform(10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # 53-bit grid: scaling by 2^53 gives integers
    np.testing.assert_array_equal(u * (1 << 53), np.round(u * (1 << 53)))


def test_split_streams_are_independent():
    root = SeededRng(42)
    a = root.split(1).gaussian(32)
    b = root.split(2).gaussian(32)
    assert not np.array_equal(a, b)
    # splitting never advances the parent
    assert root._counter == 0


def test_zero_draw_errors():
    with pytest.raises(ValueError):
        SeededRng(0).gaussian(0)
    with pytest.raises(ValueError):
        SeededRng(0).uniform(0)
    with pytest.raises(ValueError):
        SeededRng(0).integers(0, 4)


@given(seeds, st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_uniform_always_in_unit_interval(seed, n):
    u = SeededRng(seed).uniform(n)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


@given(seeds, st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_permutation_is_permutation(seed, n):
    p = SeededRng(seed).permutation(n)
    np.testing.assert_array_equal(np.sort(p), np.arange(n))


@given(seeds, st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_integers_in_bounds(seed, upper):
    v = SeededRng(seed).integers(upper, 100)
    assert np.all(v >= 0) and np.all(v < upper)


def test_gaussian_values_are_finite():
    x = SeededRng(123).gaussian(50_000)
    assert np.all(np.isfinite(x))


def test_cross_process_determinism():
    """The stream is bit-exact across separate interpreter invocations."""
    code = ("from otzsl.rng import SeededRng;"
            "print(SeededRng(99).gaussian(16).tobytes().hex())")
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    local = SeededRng(99).gaussian(16).tobytes().hex()
    assert runs[0].strip() == local
