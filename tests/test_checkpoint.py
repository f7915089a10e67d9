import math
import struct

import numpy as np
import pytest

from otzsl.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from otzsl.errors import DataFormatError
from otzsl.generator import init_generator, init_predictor
from otzsl.mlp import adam_init, adam_step
from otzsl.rng import SeededRng


def make_run(seed=0, d=3, D=5, hidden=4, steps=1):
    """A generator/predictor pair and the Adam state of `steps` updates."""
    rng = SeededRng(seed)
    g = init_generator(d, D, hidden, rng.split(1))
    f = init_predictor(D, d, hidden + 1, rng.split(2), nca_scale=0.75)
    blocks = g.net.blocks() + f.net.blocks()
    adam = adam_init(blocks, learning_rate=0.01)
    for _ in range(steps):
        adam_step(blocks, [np.full_like(b, 0.25) for b in blocks], adam)
    return g, f, adam


def save_checkpoint_v1(path, g, f, adam):
    """The version 1 writer, which train used before version 2: the byte
    reference for the files it left behind."""
    parts = [MAGIC, struct.pack("<5I", 1, g.attr_dim, g.feature_dim,
                                g.net.hidden_dim, f.net.hidden_dim)]
    parts += [np.ascontiguousarray(b, dtype="<f8").tobytes()
              for b in g.net.blocks() + f.net.blocks()]
    parts.append(struct.pack("<dBQ4d", f.nca_scale, 1, adam.step, adam.learning_rate,
                             0.9, 0.999, 1e-8))
    parts += [np.ascontiguousarray(b, dtype="<f8").tobytes() for b in adam.m + adam.v]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def saved(tmp_path, version, seed=0, steps=1):
    """The checkpoint file of one run in the given layout."""
    g, f, adam = make_run(seed, steps=steps)
    path = tmp_path / f"v{version}.bin"
    if version == 2:
        save_checkpoint(str(path), g)
    else:
        save_checkpoint_v1(str(path), g, f, adam)
    return path


def parse_blocks(raw, off, shapes):
    out = []
    for shape in shapes:
        count = math.prod(shape)
        out.append(np.frombuffer(raw, "<f8", count, off).reshape(shape))
        off += 8 * count
    return out, off


def parse_v2(raw: bytes):
    """Every field of a version 2 checkpoint, read by the documented layout."""
    version, d, D, h = struct.unpack_from("<4I", raw, 8)
    blocks, off = parse_blocks(raw, 24, [(h, 2 * d), (h,), (D, h), (D,)])
    assert off == len(raw)
    return dict(version=version, dims=(d, D, h), blocks=blocks)


def parse_v1(raw: bytes):
    """Every field of a version 1 checkpoint, read by its layout."""
    version, d, D, hg, hf = struct.unpack_from("<5I", raw, 8)
    shapes = [(hg, 2 * d), (hg,), (D, hg), (D,), (hf, D), (hf,), (d, hf), (d,)]
    weights, off = parse_blocks(raw, 28, shapes)
    scale, flag, step, lr, b1, b2, eps = struct.unpack_from("<dBQ4d", raw, off)
    m, off = parse_blocks(raw, off + 49, shapes)
    v, off = parse_blocks(raw, off, shapes)
    assert off == len(raw)
    return dict(version=version, blocks=weights, nca_scale=scale, flag=flag, step=step,
                learning_rate=lr, constants=(b1, b2, eps), m=m, v=v)


def flag_offset(raw: bytes) -> int:
    """Where a version 1 file's optimizer flag sits."""
    _, d, D, hg, hf = struct.unpack_from("<5I", raw, 8)
    n_weights = hg * (2 * d + 1) + D * (hg + 1) + hf * (D + 1) + d * (hf + 1)
    return 28 + 8 * n_weights + 8


def assert_same_generator(a, b):
    for x, y in zip(a.net.blocks(), b.net.blocks(), strict=True):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_roundtrip(tmp_path):
    g, _, _ = make_run(3)
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), g)
    assert_same_generator(load_checkpoint(str(path)), g)
    raw = path.read_bytes()
    fields = parse_v2(raw)
    assert fields["version"] == 2 and fields["dims"] == (3, 5, 4)
    assert len(raw) == 24 + 8 * sum(b.size for b in g.net.blocks())
    for a, b in zip(g.net.blocks(), fields["blocks"], strict=True):
        assert np.array_equal(a, b)


def test_roundtrip_with_adam(tmp_path):
    """A version 1 file with flag 1 loads the same generator bits as the
    version 2 file of the same run; the reference writer keeps its layout."""
    g, f, adam = make_run(3, steps=2)
    path = saved(tmp_path, 1, seed=3, steps=2)
    assert_same_generator(load_checkpoint(str(path)),
                          load_checkpoint(str(saved(tmp_path, 2, seed=3, steps=2))))
    fields = parse_v1(path.read_bytes())
    assert fields["version"] == 1 and fields["flag"] == 1
    assert fields["nca_scale"] == f.nca_scale
    assert (fields["step"], fields["learning_rate"]) == (2, 0.01)
    assert fields["constants"] == (0.9, 0.999, 1e-8)
    for a, b in zip(g.net.blocks() + f.net.blocks() + adam.m + adam.v,
                    fields["blocks"] + fields["m"] + fields["v"], strict=True):
        assert np.array_equal(a, b)


def test_roundtrip_without_adam(tmp_path):
    """A version 1 file cut after a flag of 0 loads the same generator bits
    as the version 2 file of the same run; bytes after that flag are trailing."""
    path = saved(tmp_path, 1)
    raw = path.read_bytes()
    cut = flag_offset(raw)
    path.write_bytes(raw[:cut] + b"\x00")
    assert_same_generator(load_checkpoint(str(path)), load_checkpoint(str(saved(tmp_path, 2))))
    path.write_bytes(raw[:cut] + b"\x00" + raw[cut + 1:])
    with pytest.raises(DataFormatError, match="trailing"):
        load_checkpoint(str(path))


def test_save_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(str(p1), make_run(5)[0])
    save_checkpoint(str(p2), make_run(5)[0])
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(str(path))


def test_bad_version(tmp_path):
    for version in (1, 2):
        path = saved(tmp_path, version)
        for bad in (0, 3, 99):
            raw = bytearray(path.read_bytes())
            raw[8] = bad
            path.write_bytes(bytes(raw))
            with pytest.raises(DataFormatError, match=f"version {bad}$"):
                load_checkpoint(str(path))


def test_truncated(tmp_path):
    """A cut in the header or the generator, or one byte short of the end; in
    a version 1 file also in the predictor, before the flag and in the Adam
    section."""
    raw = saved(tmp_path, 2).read_bytes()
    v1 = saved(tmp_path, 1).read_bytes()
    flag = flag_offset(v1)
    cuts = [(raw, c) for c in (0, 10, 20, 23, 24, 60, len(raw) - 1)]
    cuts += [(v1, c) for c in (20, 27, 60, flag - 20, flag, flag + 30, len(v1) - 1)]
    path = tmp_path / "c.bin"
    for full, cut in cuts:
        path.write_bytes(full[:cut])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(str(path))


def test_trailing_bytes(tmp_path):
    for version in (1, 2):
        path = saved(tmp_path, version)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataFormatError, match="2 trailing bytes"):
            load_checkpoint(str(path))


def test_bad_adam_flag(tmp_path):
    """Only version 1 has the flag; 7 is bad after a full file and after a cut one."""
    raw = saved(tmp_path, 1).read_bytes()
    cut = flag_offset(raw)
    path = tmp_path / "c.bin"
    for full in (raw, raw[:cut + 1]):
        path.write_bytes(full[:cut] + b"\x07" + full[cut + 1:])
        with pytest.raises(DataFormatError, match="flag 7"):
            load_checkpoint(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_generator_weight(tmp_path, value):
    for version, w1 in ((2, 24), (1, 28)):
        path = tmp_path / "c.bin"
        raw = bytearray(saved(tmp_path, version).read_bytes())
        raw[w1 + 8 * 3:w1 + 8 * 4] = struct.pack("<d", value)  # W1[0, 3]
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"c\.bin: generator W1 .*non-finite.*index 3"):
            load_checkpoint(str(path))


def test_missing_file():
    with pytest.raises(DataFormatError, match="cannot read"):
        load_checkpoint("/nonexistent/path/c.bin")


def test_magic_constant_fixed():
    assert MAGIC == b"OTZSLCP1"
