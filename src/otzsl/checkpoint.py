"""Binary checkpoints: the trained generator, the one network a command reads.

Layout of version 2 (all little-endian): 8-byte magic "OTZSLCP1", uint32
version, three uint32 dims (attr, feature, hidden), then the row-major
float64 blocks W1, b1, W2, b2. Version 1 files, written before version 2,
carry a fourth dim (the predictor's hidden width) and, after the generator,
the predictor blocks, the class-softmax sharpness, a uint8 flag and, when the
flag is 1, the Adam section; load_checkpoint steps over that tail and checks
it by length.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import DataFormatError
from .generator import GeneratorParams
from .mlp import MlpParams

MAGIC = b"OTZSLCP1"
VERSION = 2


def save_checkpoint(path: str, g: GeneratorParams) -> None:
    parts = [MAGIC, struct.pack("<4I", VERSION, g.attr_dim, g.feature_dim, g.net.hidden_dim)]
    parts += [np.ascontiguousarray(b, dtype="<f8").tobytes() for b in g.net.blocks()]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = memoryview(buf)  # a step over a section copies nothing
        self.off = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.off + n > len(self.buf):
            raise DataFormatError(f"{self.path}: truncated checkpoint")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def array(self, shape) -> np.ndarray:
        raw = self.take(8 * math.prod(shape))
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def load_checkpoint(path: str) -> GeneratorParams:
    """The generator of a version 2 or version 1 checkpoint file; a non-finite
    generator weight is a DataFormatError."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint: {exc}") from None
    r = _Reader(buf, path)
    if r.take(8) != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", r.take(4))
    if version not in (1, VERSION):
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    attr_dim, feature_dim, hidden = struct.unpack("<3I", r.take(12))
    hidden_f = struct.unpack("<I", r.take(4))[0] if version == 1 else 0

    blocks = [r.array(s) for s in ((hidden, 2 * attr_dim), (hidden,),
                                   (feature_dim, hidden), (feature_dim,))]
    if version == 1:  # the predictor blocks and the softmax sharpness, then the flag
        n_predictor = (feature_dim + 1) * hidden_f + (hidden_f + 1) * attr_dim
        r.take(8 * n_predictor + 8)
        (flag,) = struct.unpack("<B", r.take(1))
        if flag == 1:  # the step and four scalars, then m and v of all eight blocks
            r.take(40 + 16 * (sum(b.size for b in blocks) + n_predictor))
        elif flag != 0:
            raise DataFormatError(f"{path}: bad optimizer flag {flag}")
    if r.off != len(buf):
        raise DataFormatError(f"{path}: {len(buf) - r.off} trailing bytes")
    try:
        return GeneratorParams(net=MlpParams(*blocks))
    except ValueError as exc:  # a non-finite weight
        raise DataFormatError(f"{path}: generator {exc}") from None
