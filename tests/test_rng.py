import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otzsl.data import SyntheticSpec
from otzsl.errors import ConfigError
from otzsl.evaluate import EvalConfig
from otzsl.rng import SeededRng, check_seed
from otzsl.training import TrainConfig

seeds = st.integers(min_value=0, max_value=2**64 - 1)


def test_same_seed_same_stream():
    a = SeededRng(7).gaussian(64)
    b = SeededRng(7).gaussian(64)
    np.testing.assert_array_equal(a, b)


def test_distinct_seeds_differ():
    a = SeededRng(7).gaussian(64)
    b = SeededRng(8).gaussian(64)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_rejected(seed):
    """A seed names its own stream: -1 and 2^64 are not 2^64 - 1 and 0."""
    with pytest.raises(ValueError, match=f"seed must be at least 0 and at most {2**64 - 1}, "
                                         f"got {seed}"):
        SeededRng(seed)


@pytest.mark.parametrize("make, seed", [
    (SeededRng, 2.9), (SeededRng, True), (SeededRng, 3.0),
    (lambda s: TrainConfig(seed=s), 1.5), (lambda s: EvalConfig(seed=s), 1.5),
    (lambda s: SyntheticSpec(seed=s), True), (lambda s: SeededRng(5).split(s), 2.9),
], ids=["rng-float", "rng-bool", "rng-whole-float", "train", "eval", "dataset-bool",
        "split-float"])
def test_a_seed_that_is_not_an_integer_is_rejected(make, seed):
    """2.9 or True would otherwise draw seed 2's or seed 1's stream."""
    with pytest.raises(ConfigError, match=f"seed must be of type int, got {seed!r}") as info:
        make(seed)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("draw", [
    lambda r: r.next_uint64(2.5), lambda r: r.uniform(True), lambda r: r.gaussian(2.5),
    lambda r: r.integers(2.5, 3), lambda r: r.integers(4, True), lambda r: r.permutation(3.0),
], ids=["next_uint64-fraction", "uniform-bool", "gaussian-fraction", "integers-upper-fraction",
        "integers-bool", "permutation-whole-float"])
def test_a_draw_count_that_is_not_an_int_is_rejected(draw):
    """integers(2.5, 3) would draw the floats [1.5, 1.0, 0.0], and uniform(True)
    one value; each is a ConfigError before the stream moves."""
    rng = SeededRng(0)
    with pytest.raises(ConfigError, match="must be of type int"):
        draw(rng)
    assert rng._counter == 0


@pytest.mark.parametrize("upper", [2**64, 2**63 + 2**12, 2**53 + 1])
def test_integers_upper_past_the_53_bit_grid_is_rejected(upper):
    """floor(u * upper) of a u on the 53-bit grid reaches only 2^53 values,
    so an upper past 2^53 would leave ids out (and past 2^63 fail the int64
    cast): a ConfigError before the stream moves."""
    rng = SeededRng(0)
    with pytest.raises(ConfigError, match=f"^upper must be at least 1 and at most {2**53}, "):
        rng.integers(upper, 3)
    assert rng._counter == 0


def test_integers_upper_of_2_53_draws_the_grid():
    rng, ref = SeededRng(9), SeededRng(9)
    got = rng.integers(2**53, 4)
    assert got.dtype == np.int64
    assert got.tolist() == (ref.next_uint64(4) >> np.uint64(11)).astype(np.int64).tolist()


def test_numpy_integer_counts_draw_the_stream_of_ints():
    a, b = SeededRng(4), SeededRng(4)
    np.testing.assert_array_equal(a.integers(np.int64(7), np.int32(5)), b.integers(7, 5))
    np.testing.assert_array_equal(a.gaussian(np.uint8(3)), b.gaussian(3))
    np.testing.assert_array_equal(a.permutation(np.int64(6)), b.permutation(6))


def test_a_numpy_integer_seed_draws_its_own_stream():
    rng = SeededRng(np.int64(3))
    assert type(rng.seed) is int and rng.seed == 3
    np.testing.assert_array_equal(rng.gaussian(16), SeededRng(3).gaussian(16))
    assert check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    with pytest.raises(ConfigError, match="config key 'seed' must be at least 0 and at most "
                                          "18446744073709551615, got -1"):
        check_seed(np.int64(-1), "config key 'seed'")


def test_split_index_outside_64_bits_is_rejected():
    for index in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must be at least 0 and at most"):
            SeededRng(5).split(index)


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
