"""One-hidden-layer perceptrons with hand-rolled backprop and Adam.

Adam (Kingma & Ba 2014, Algorithm 1, with its beta1, beta2 and epsilon held
fixed) updates the caller's parameter blocks and its own moment blocks in
place, so a network trains in the arrays it already holds. Batches are
row-major (batch, features). Weights follow the convention W1: (hidden,
input), W2: (output, hidden), so a forward pass is relu(x W1' + b1) W2' + b2.
The ReLU subgradient at exactly 0 is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ensure_finite
from .rng import SeededRng


@dataclass
class MlpParams:
    """Parameter (or gradient) blocks of a one-hidden-layer network."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        self.W1 = np.asarray(self.W1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.W2 = np.asarray(self.W2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        hidden, inp = self.W1.shape
        out, hidden2 = self.W2.shape
        if hidden2 != hidden or self.b1.shape != (hidden,) or self.b2.shape != (out,):
            raise ValueError(
                f"inconsistent shapes: W1 {self.W1.shape}, b1 {self.b1.shape}, "
                f"W2 {self.W2.shape}, b2 {self.b2.shape}"
            )
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

    def layer(fan_out, fan_in):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return (2.0 * rng.uniform(fan_out * fan_in) - 1.0).reshape(fan_out, fan_in) * s

    return MlpParams(
        W1=layer(hidden_dim, input_dim),
        b1=np.zeros(hidden_dim),
        W2=layer(output_dim, hidden_dim),
        b2=np.zeros(output_dim),
    )


def mlp_forward_cache(params: MlpParams, x: np.ndarray):
    """Forward pass keeping what backprop needs: the input and hidden layer."""
    x = np.asarray(x, dtype=np.float64)
    pre = x @ params.W1.T + params.b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ params.W2.T + params.b2
    return out, (x, pre, hidden)


def mlp_backward(params: MlpParams, cache, d_out: np.ndarray) -> tuple[MlpParams, np.ndarray]:
    """Gradients of sum(d_out * output) w.r.t. params and the input batch."""
    x, pre, hidden = cache
    d_out = np.asarray(d_out, dtype=np.float64)
    dW2 = d_out.T @ hidden
    db2 = d_out.sum(axis=0)
    d_hidden = d_out @ params.W2
    d_pre = np.where(pre > 0.0, d_hidden, 0.0)
    dW1 = d_pre.T @ x
    db1 = d_pre.sum(axis=0)
    dx = d_pre @ params.W1
    return MlpParams(dW1, db1, dW2, db2), dx


def add_grads(a: MlpParams, b: MlpParams) -> MlpParams:
    return MlpParams(a.W1 + b.W1, a.b1 + b.b1, a.W2 + b.W2, a.b2 + b.b2)


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment accumulators for a fixed list of parameter blocks."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    learning_rate: float = 0.001


def adam_init(blocks: list[np.ndarray], learning_rate: float = 0.001) -> AdamState:
    return AdamState(m=[np.zeros_like(b) for b in blocks],
                     v=[np.zeros_like(b) for b in blocks], learning_rate=learning_rate)


def adam_step(blocks: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place: each block and state.m, state.v
    and state.step are overwritten. Every updated block is checked for
    finiteness, so a blow-up raises ValueError naming the block's index."""
    if len(blocks) != len(grads) or len(blocks) != len(state.m):
        raise ValueError("block / gradient / state counts do not match")
    for p, g in zip(blocks, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises below instead
        for i, (p, g, m, v) in enumerate(zip(blocks, grads, state.m, state.v)):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)
            ensure_finite(p, f"parameter block {i}")
