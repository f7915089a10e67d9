import math
import struct

import numpy as np
import pytest

from otzsl.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from otzsl.errors import DataFormatError
from otzsl.generator import init_generator
from otzsl.rng import SeededRng


def make_generator(seed=0, d=3, D=5, hidden=4):
    return init_generator(d, D, hidden, SeededRng(seed).split(1))


def saved(tmp_path, seed=0):
    """The checkpoint file of one generator."""
    path = tmp_path / "saved.bin"
    save_checkpoint(str(path), make_generator(seed))
    return path


def parse_v2(raw: bytes):
    """Every field of a version 2 checkpoint, read by the documented layout."""
    version, d, D, h = struct.unpack_from("<4I", raw, 8)
    blocks, off = [], 24
    for shape in [(h, 2 * d), (h,), (D, h), (D,)]:
        count = math.prod(shape)
        blocks.append(np.frombuffer(raw, "<f8", count, off).reshape(shape))
        off += 8 * count
    assert off == len(raw)
    return dict(version=version, dims=(d, D, h), blocks=blocks)


def assert_same_generator(a, b):
    for x, y in zip(a.net.blocks(), b.net.blocks(), strict=True):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_roundtrip(tmp_path):
    g = make_generator(3)
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), g)
    assert_same_generator(load_checkpoint(str(path)), g)
    raw = path.read_bytes()
    fields = parse_v2(raw)
    assert fields["version"] == 2 and fields["dims"] == (3, 5, 4)
    assert len(raw) == 24 + 8 * sum(b.size for b in g.net.blocks())
    for a, b in zip(g.net.blocks(), fields["blocks"], strict=True):
        assert np.array_equal(a, b)


def test_save_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(str(p1), make_generator(5))
    save_checkpoint(str(p2), make_generator(5))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match=r"c\.bin: not a checkpoint file \(bad magic\)$"):
        load_checkpoint(str(path))


def test_bad_version(tmp_path):
    """Version 2 is the only layout read; 1 is the layout written before it."""
    path = saved(tmp_path)
    for bad in (0, 1, 3, 99):
        raw = bytearray(path.read_bytes())
        raw[8] = bad
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=f"version {bad}$"):
            load_checkpoint(str(path))


@pytest.mark.parametrize("dim", [0, 1, 2], ids=["attributes", "features", "hidden"])
def test_dim_below_one(tmp_path, dim):
    raw = bytearray(saved(tmp_path).read_bytes())
    raw[12 + 4 * dim:16 + 4 * dim] = struct.pack("<I", 0)
    path = tmp_path / "c.bin"
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match=r"c\.bin: checkpoint dims .* must each be at least 1$"):
        load_checkpoint(str(path))


def test_truncated(tmp_path):
    """A cut in the header or the generator, or one byte short of the end."""
    raw = saved(tmp_path).read_bytes()
    path = tmp_path / "c.bin"
    for cut in (0, 10, 20, 23, 24, 60, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(DataFormatError, match=r"c\.bin: truncated checkpoint$"):
            load_checkpoint(str(path))


def test_trailing_bytes(tmp_path):
    path = saved(tmp_path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(DataFormatError, match="2 trailing bytes"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_generator_weight(tmp_path, value):
    path = tmp_path / "c.bin"
    raw = bytearray(saved(tmp_path).read_bytes())
    raw[24 + 8 * 3:24 + 8 * 4] = struct.pack("<d", value)  # W1[0, 3]
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match=r"c\.bin: generator W1 .*non-finite.*index 3"):
        load_checkpoint(str(path))


def test_missing_file():
    with pytest.raises(DataFormatError, match="cannot read"):
        load_checkpoint("/nonexistent/path/c.bin")


def test_magic_constant_fixed():
    assert MAGIC == b"OTZSLCP1"
