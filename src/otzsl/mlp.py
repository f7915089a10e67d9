"""One-hidden-layer perceptrons with hand-rolled backprop and Adam.

Adam (Kingma & Ba 2014, Algorithm 1, with its beta1, beta2 and epsilon held
fixed) updates the caller's parameter blocks and its own moment blocks in
place, so a network trains in the arrays it already holds. Batches are
row-major (batch, features). Weights follow the convention W1: (hidden,
input), W2: (output, hidden), so a forward pass is relu(x W1' + b1) W2' + b2.
The ReLU subgradient at exactly 0 is 0.

Layout: the blocks W1, b1, W2, b2 are row-major views of one vector, `flat`;
`init_mlp` draws weights into it and `mlp_backward` writes gradients into a new
one. Adam's moments are one vector each, so an update and its finiteness check
run once per vector (one per network); blocks are checked only to name one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ensure_finite
from .rng import SeededRng


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive row-major views of a vector, one of each shape."""
    ends = itertools.accumulate(math.prod(s) for s in shapes)
    return [flat[end - math.prod(s):end].reshape(s) for s, end in zip(shapes, ends)]


@dataclass
class MlpParams:
    """Parameter (or gradient) blocks of a network, as views of `flat` (or of a new copy)."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    flat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        blocks = [np.asarray(b, dtype=np.float64) for b in (self.W1, self.b1, self.W2, self.b2)]
        (hidden, inp), (out, hidden2) = blocks[0].shape, blocks[2].shape
        if hidden2 != hidden or blocks[1].shape != (hidden,) or blocks[3].shape != (out,):
            raise ValueError(
                f"inconsistent shapes: W1 {blocks[0].shape}, b1 {blocks[1].shape}, "
                f"W2 {blocks[2].shape}, b2 {blocks[3].shape}"
            )
        if self.flat is None:
            self.flat = np.concatenate([b.ravel() for b in blocks])
            blocks = _views(self.flat, [b.shape for b in blocks])
        self.W1, self.b1, self.W2, self.b2 = blocks
        if not np.isfinite(self.flat).all():  # one check; the blocks only name the first bad one
            for name in ("W1", "b1", "W2", "b2"):
                ensure_finite(getattr(self, name), name)

    @property
    def input_dim(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def output_dim(self) -> int:
        return self.W2.shape[0]

    def blocks(self) -> list[np.ndarray]:
        return [self.W1, self.b1, self.W2, self.b2]


def init_mlp(input_dim: int, hidden_dim: int, output_dim: int, rng: SeededRng) -> MlpParams:
    """Uniform(-s, s) weights with s = sqrt(6/(fan_in+fan_out)); zero biases."""
    if min(input_dim, hidden_dim, output_dim) < 1:
        raise ValueError("all layer dimensions must be at least 1")
    shapes = [(hidden_dim, input_dim), (hidden_dim,), (output_dim, hidden_dim), (output_dim,)]
    flat = np.zeros(sum(math.prod(s) for s in shapes))
    blocks = _views(flat, shapes)
    for W in blocks[0::2]:  # drawn straight into the block; sum(W.shape) = fan_in + fan_out
        np.multiply((2.0 * rng.uniform(W.size) - 1.0).reshape(W.shape),
                    np.sqrt(6.0 / sum(W.shape)), out=W)
    return MlpParams(*blocks, flat=flat)


def mlp_forward_cache(params: MlpParams, x: np.ndarray):
    """Forward pass keeping what backprop needs: the input and hidden layer."""
    x = np.asarray(x, dtype=np.float64)
    pre = x @ params.W1.T + params.b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ params.W2.T + params.b2
    return out, (x, pre, hidden)


def mlp_backward(params: MlpParams, cache, d_out: np.ndarray,
                 input_grad: bool = True) -> tuple[MlpParams, np.ndarray | None]:
    """Gradients of sum(d_out * output) w.r.t. params, in one new vector, and
    with input_grad the input batch (else None, and its matmul is skipped)."""
    x, pre, hidden = cache
    d_out = np.asarray(d_out, dtype=np.float64)
    flat = np.empty(params.flat.size)
    dW1, db1, dW2, db2 = _views(flat, [b.shape for b in params.blocks()])
    np.matmul(d_out.T, hidden, out=dW2)
    d_out.sum(axis=0, out=db2)
    d_hidden = d_out @ params.W2
    d_pre = np.where(pre > 0.0, d_hidden, 0.0)
    np.matmul(d_pre.T, x, out=dW1)
    d_pre.sum(axis=0, out=db1)
    dx = d_pre @ params.W1 if input_grad else None
    return MlpParams(dW1, db1, dW2, db2, flat=flat), dx


def add_grads(total: MlpParams, part: MlpParams) -> None:
    """Add part's vector to total's in place; MlpParams rejects a sum that is not finite."""
    total.flat += part.flat
    MlpParams(*total.blocks(), flat=total.flat)


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
ADAM_CHUNK = 1 << 14  # elements updated at a time: six such slices fit in a core's cache


@dataclass
class AdamState:
    """Moments of a fixed list of parameter blocks (m[i], v[i] view block i's slice
    of the vectors `moments`) and two scratch buffers an update works in."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    learning_rate: float = 0.001
    scratch: tuple[np.ndarray, np.ndarray] = ()
    moments: tuple[np.ndarray, np.ndarray] | None = None


def adam_init(blocks: list[np.ndarray], learning_rate: float = 0.001) -> AdamState:
    moments = tuple(np.zeros(sum(b.size for b in blocks)) for _ in "mv")
    m, v = (_views(x, [b.shape for b in blocks]) for x in moments)
    n = min(ADAM_CHUNK, moments[0].size)
    return AdamState(m, v, learning_rate=learning_rate, scratch=(np.empty(n), np.empty(n)),
                     moments=moments)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place: the parameters, state.m,
    state.v and state.step are overwritten. `params` is adam_init's blocks, or
    arrays that each lay out a run of them in order (say one per network).

    Each array is updated ADAM_CHUNK elements at a time, through the scratch
    buffers, so no block-sized temporary is made; each element goes through
    the same floating-point operations as in the whole-array expressions
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr (m / c1) / (sqrt(v / c2) + eps). Each array is then checked once
    for finiteness; a blow-up raises ValueError naming the first bad block."""
    ends = list(itertools.accumulate((p.size for p in params), initial=0))
    if (len(params) != len(grads) or ends[-1] != state.moments[0].size
            or not set(ends) <= set(itertools.accumulate((m.size for m in state.m), initial=0))):
        raise ValueError("block / gradient / state counts or block boundaries do not match")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises below instead
        for param, grad in zip(params, grads):
            m, v = (x[start:start + param.size].reshape(param.shape) for x in state.moments)
            start += param.size
            with np.nditer((param, grad, m, v), flags=["external_loop", "buffered", "zerosize_ok"],
                           op_flags=[["readwrite"], ["readonly"], ["readwrite"], ["readwrite"]],
                           buffersize=ADAM_CHUNK) as chunks:
                for p, g, m, v in chunks:
                    s, t = state.scratch[0][:p.size], state.scratch[1][:p.size]
                    m *= b1
                    m += np.multiply(1.0 - b1, g, out=s)
                    v *= b2
                    v += np.multiply(np.multiply(1.0 - b2, g, out=s), g, out=s)
                    np.multiply(state.learning_rate, np.divide(m, c1, out=s), out=s)
                    np.add(np.sqrt(np.divide(v, c2, out=t), out=t), ADAM_EPSILON, out=t)
                    p -= np.divide(s, t, out=s)
    if not all(np.isfinite(p).all() for p in params):
        blocks = _views(np.concatenate([p.ravel() for p in params]), [m.shape for m in state.m])
        for i, block in enumerate(blocks):
            ensure_finite(block, f"parameter block {i}")
