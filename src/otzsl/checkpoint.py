"""Binary checkpoints: the trained generator/predictor pair and Adam's state.

Layout (all little-endian): 8-byte magic "OTZSLCP1", uint32 version, four
uint32 dims (attr, feature, generator hidden, predictor hidden), then the
row-major float64 weight blocks W1, b1, W2, b2 for the generator and then the
predictor, the class-softmax sharpness as one float64, a uint8 flag and, when
the flag is 1, the Adam section (uint64 step; learning rate, beta1, beta2,
epsilon; first-moment blocks then second-moment blocks in the same 8-block
order). save_checkpoint always writes the Adam section. Commands read only the
generator, so load_checkpoint steps over the rest and checks it by length; it
also accepts a flag of 0 with no Adam section after it.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import DataFormatError
from .generator import GeneratorParams, PredictorParams
from .mlp import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, AdamState, MlpParams

MAGIC = b"OTZSLCP1"
VERSION = 1


def param_blocks(g: GeneratorParams, f: PredictorParams) -> list[np.ndarray]:
    """The canonical 8-block ordering used by checkpoints and the optimizer."""
    return g.net.blocks() + f.net.blocks()


def save_checkpoint(path: str, g: GeneratorParams, f: PredictorParams, adam: AdamState) -> None:
    parts = [MAGIC, struct.pack("<5I", VERSION, g.attr_dim, g.feature_dim,
                                g.net.hidden_dim, f.net.hidden_dim)]
    parts += [np.ascontiguousarray(b, dtype="<f8").tobytes() for b in param_blocks(g, f)]
    parts.append(struct.pack("<dBQ4d", f.nca_scale, 1, adam.step, adam.learning_rate,
                             ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON))
    parts += [np.ascontiguousarray(b, dtype="<f8").tobytes() for b in adam.m + adam.v]
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
    """The generator of a checkpoint file. The predictor blocks, the softmax
    sharpness and the Adam section are stepped over, so they are checked by
    length only; a non-finite generator weight is a DataFormatError."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint: {exc}") from None
    r = _Reader(buf, path)
    if r.take(8) != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    version, attr_dim, feature_dim, hidden_g, hidden_f = struct.unpack("<5I", r.take(20))
    if version != VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")

    blocks = [r.array(s) for s in ((hidden_g, 2 * attr_dim), (hidden_g,),
                                   (feature_dim, hidden_g), (feature_dim,))]
    n_predictor = (feature_dim + 1) * hidden_f + (hidden_f + 1) * attr_dim
    r.take(8 * n_predictor + 8)  # the predictor blocks and the softmax sharpness
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
