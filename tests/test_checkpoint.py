from pathlib import Path

import numpy as np
import pytest

from otzsl.checkpoint import MAGIC, load_checkpoint, param_blocks, save_checkpoint
from otzsl.errors import DataFormatError
from otzsl.generator import init_generator, init_predictor
from otzsl.mlp import adam_init, adam_step
from otzsl.rng import SeededRng


def make_pair(seed=0, d=3, D=5, hidden=4):
    rng = SeededRng(seed)
    g = init_generator(d, D, hidden, rng.split(1))
    f = init_predictor(D, d, hidden + 1, rng.split(2), nca_scale=0.75)
    return g, f


def test_roundtrip_without_adam(tmp_path):
    g, f = make_pair()
    path = str(tmp_path / "c.bin")
    save_checkpoint(path, g, f)
    g2, f2, adam = load_checkpoint(path)
    assert adam is None
    assert f2.nca_scale == f.nca_scale
    for a, b in zip(param_blocks(g, f), param_blocks(g2, f2)):
        np.testing.assert_array_equal(a, b)


def test_roundtrip_with_adam(tmp_path):
    g, f = make_pair(3)
    blocks = param_blocks(g, f)
    state = adam_init(blocks, learning_rate=0.01)
    adam_step(blocks, [np.full_like(b, 0.25) for b in blocks], state)
    path = str(tmp_path / "c.bin")
    save_checkpoint(path, g, f, state)
    g2, f2, state2 = load_checkpoint(path)
    assert state2.step == 1
    assert state2.learning_rate == 0.01
    assert (state2.beta1, state2.beta2, state2.epsilon) == (0.9, 0.999, 1e-8)
    for a, b in zip(blocks + state.m + state.v, param_blocks(g2, f2) + state2.m + state2.v):
        np.testing.assert_array_equal(a, b)


def test_save_is_deterministic(tmp_path):
    g, f = make_pair(5)
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_checkpoint(p1, g, f)
    save_checkpoint(p2, g, f)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(str(path))


def test_bad_version(tmp_path):
    g, f = make_pair()
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), g, f)
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="version 99"):
        load_checkpoint(str(path))


def test_truncated(tmp_path):
    g, f = make_pair()
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), g, f)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(str(path))


def test_trailing_bytes(tmp_path):
    g, f = make_pair()
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), g, f)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(str(path))


def test_bad_adam_flag(tmp_path):
    g, f = make_pair()
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), g, f)
    raw = bytearray(path.read_bytes())
    raw[-1] = 7  # the optimizer flag is the final byte when adam is absent
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="flag"):
        load_checkpoint(str(path))


def test_missing_file():
    with pytest.raises(DataFormatError, match="cannot read"):
        load_checkpoint("/nonexistent/path/c.bin")


def test_magic_constant_fixed():
    assert MAGIC == b"OTZSLCP1"
