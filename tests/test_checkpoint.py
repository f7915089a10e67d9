import math
import struct

import numpy as np
import pytest

from otzsl.checkpoint import MAGIC, load_checkpoint, param_blocks, save_checkpoint
from otzsl.errors import DataFormatError
from otzsl.generator import init_generator, init_predictor
from otzsl.mlp import adam_init, adam_step
from otzsl.rng import SeededRng


def make_run(seed=0, d=3, D=5, hidden=4, steps=1):
    """A generator/predictor pair and the Adam state of `steps` updates."""
    rng = SeededRng(seed)
    g = init_generator(d, D, hidden, rng.split(1))
    f = init_predictor(D, d, hidden + 1, rng.split(2), nca_scale=0.75)
    blocks = param_blocks(g, f)
    adam = adam_init(blocks, learning_rate=0.01)
    for _ in range(steps):
        adam_step(blocks, [np.full_like(b, 0.25) for b in blocks], adam)
    return g, f, adam


def saved(tmp_path, seed=0):
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), *make_run(seed))
    return path


def parse(raw: bytes):
    """Every field of a checkpoint, read by the documented layout."""
    version, d, D, hg, hf = struct.unpack_from("<5I", raw, 8)
    off = 28

    def blocks():
        nonlocal off
        out = []
        for shape in [(hg, 2 * d), (hg,), (D, hg), (D,), (hf, D), (hf,), (d, hf), (d,)]:
            count = math.prod(shape)
            out.append(np.frombuffer(raw, "<f8", count, off).reshape(shape))
            off += 8 * count
        return out

    weights = blocks()
    scale, flag, step, lr, b1, b2, eps = struct.unpack_from("<dBQ4d", raw, off)
    off += 49
    m, v = blocks(), blocks()
    assert off == len(raw)
    return dict(version=version, blocks=weights, nca_scale=scale, flag=flag, step=step,
                learning_rate=lr, constants=(b1, b2, eps), m=m, v=v)


def flag_offset(raw: bytes) -> int:
    _, d, D, hg, hf = struct.unpack_from("<5I", raw, 8)
    n_weights = hg * (2 * d + 1) + D * (hg + 1) + hf * (D + 1) + d * (hf + 1)
    return 28 + 8 * n_weights + 8


def test_roundtrip_with_adam(tmp_path):
    g, f, adam = make_run(3, steps=2)
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), g, f, adam)
    g2 = load_checkpoint(str(path))
    for a, b in zip(g.net.blocks(), g2.net.blocks()):
        assert np.array_equal(a, b)
    fields = parse(path.read_bytes())
    assert fields["version"] == 1 and fields["flag"] == 1
    assert fields["nca_scale"] == f.nca_scale
    assert (fields["step"], fields["learning_rate"]) == (2, 0.01)
    assert fields["constants"] == (0.9, 0.999, 1e-8)
    for a, b in zip(param_blocks(g, f) + adam.m + adam.v,
                    fields["blocks"] + fields["m"] + fields["v"]):
        assert np.array_equal(a, b)


def test_roundtrip_without_adam(tmp_path):
    """A flag of 0 ends the file; the generator loads as from a full file."""
    path = saved(tmp_path)
    raw = path.read_bytes()
    cut = flag_offset(raw)
    path.write_bytes(raw[:cut] + b"\x00")
    g = load_checkpoint(str(path))
    for a, b in zip(g.net.blocks(), parse(raw)["blocks"]):
        assert np.array_equal(a, b)
    path.write_bytes(raw[:cut] + b"\x00" + raw[cut + 1:])
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(str(path))


def test_save_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(str(p1), *make_run(5))
    save_checkpoint(str(p2), *make_run(5))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(str(path))


def test_bad_version(tmp_path):
    path = saved(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="version 99"):
        load_checkpoint(str(path))


def test_truncated(tmp_path):
    """A cut in the header, the generator, the predictor, before the flag,
    in the Adam section, or one byte short of the end."""
    path = saved(tmp_path)
    raw = path.read_bytes()
    for cut in (20, 60, flag_offset(raw) - 20, flag_offset(raw), flag_offset(raw) + 30,
                len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(str(path))


def test_trailing_bytes(tmp_path):
    path = saved(tmp_path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(DataFormatError, match="2 trailing bytes"):
        load_checkpoint(str(path))


def test_bad_adam_flag(tmp_path):
    path = saved(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[flag_offset(raw)] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="flag 7"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_generator_weight(tmp_path, value):
    path = saved(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[28 + 8 * 3:28 + 8 * 4] = struct.pack("<d", value)  # W1[0, 3]
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match=r"c\.bin: generator W1 .*non-finite.*index 3"):
        load_checkpoint(str(path))


def test_missing_file():
    with pytest.raises(DataFormatError, match="cannot read"):
        load_checkpoint("/nonexistent/path/c.bin")


def test_magic_constant_fixed():
    assert MAGIC == b"OTZSLCP1"
