"""Binary checkpoints: the trained generator, the one network a command reads.

Layout (all little-endian): 8-byte magic "OTZSLCP1", uint32 version 2, three
uint32 dims (attr, feature, hidden), each at least 1, then the generator's
parameter vector `MlpParams.flat` as float64: the row-major blocks W1, b1, W2,
b2. Version 2 is the only layout read: a file of any other version, such as
the version 1 files written before it, is a DataFormatError, and re-running
train rewrites it.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataFormatError
from .generator import GeneratorParams
from .mlp import MlpParams, mlp_size

MAGIC = b"OTZSLCP1"
VERSION = 2
_HEADER = struct.Struct("<8s4I")  # magic, version, attr, feature and hidden dim


def save_checkpoint(path: str, g: GeneratorParams) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, g.attr_dim, g.feature_dim, g.net.hidden_dim))
        fh.write(g.net.flat.astype("<f8", copy=False))


def load_checkpoint(path: str) -> GeneratorParams:
    """The generator of a checkpoint file; a bad magic or version, a dim
    below 1, a length other than the dims give, or a non-finite weight is a
    DataFormatError naming the file."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint: {exc}") from None
    if len(buf) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated checkpoint")
    magic, version, *dims = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    if version != VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    if min(dims) < 1:
        raise DataFormatError(f"{path}: checkpoint dims (attributes, features, hidden) = "
                              f"{tuple(dims)} must each be at least 1")
    attr_dim, feature_dim, hidden = dims
    extra = len(buf) - _HEADER.size - 8 * mlp_size(2 * attr_dim, hidden, feature_dim)
    if extra != 0:
        raise DataFormatError(f"{path}: truncated checkpoint" if extra < 0
                              else f"{path}: {extra} trailing bytes")
    flat = np.frombuffer(buf, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    try:
        return GeneratorParams(net=MlpParams(flat, 2 * attr_dim, hidden, feature_dim))
    except ValueError as exc:  # a non-finite weight
        raise DataFormatError(f"{path}: generator {exc}") from None
