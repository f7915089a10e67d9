"""One-hidden-layer perceptrons with hand-rolled backprop and Adam.

A network is its parameter vector: `MlpParams(flat, input_dim, hidden_dim,
output_dim)` makes W1: (hidden, input), b1, W2: (output, hidden) and b2 the
consecutive row-major views of `flat`, so on row-major (batch, features)
batches a forward pass is relu(x W1' + b1) W2' + b2; the ReLU subgradient at
exactly 0 is 0. `init_mlp` draws weights into a new vector, `mlp_backward`
writes gradients into another, and a checkpoint stores the vector as it is.

Adam (Kingma & Ba 2014, Algorithm 1, with its beta1, beta2 and epsilon held
fixed) updates the arrays it is given in place, one moment pair per array, so
a network trains in the vector it holds, with one finiteness check per array.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import check_value
from .linalg import ensure_finite
from .rng import SeededRng


def mlp_size(input_dim: int, hidden_dim: int, output_dim: int) -> int:
    """The length of a network's parameter vector; a dim that is not an int
    of at least 1 is a ConfigError naming it."""
    for name, dim in (("input_dim", input_dim), ("hidden_dim", hidden_dim),
                      ("output_dim", output_dim)):
        check_value(name, dim, int, at_least=1)
    return hidden_dim * (input_dim + 1) + output_dim * (hidden_dim + 1)


@dataclass(eq=False)
class MlpParams:
    """A network's (or its gradient's) vector `flat`, of mlp_size(dims) float64
    values, and the views W1, b1, W2, b2 of it; a non-finite value is rejected."""

    flat: np.ndarray = field(repr=False)
    input_dim: int
    hidden_dim: int
    output_dim: int

    def __post_init__(self):
        i, h, o = self.input_dim, self.hidden_dim, self.output_dim
        if self.flat.shape != (mlp_size(i, h, o),):
            raise ValueError(f"a ({i}, {h}, {o}) network needs {mlp_size(i, h, o)} parameters, "
                             f"got an array of shape {self.flat.shape}")
        self._view(self.flat)._finite()

    def _view(self, flat: np.ndarray) -> MlpParams:
        """Self on the vector `flat`, W1, b1, W2, b2 its consecutive row-major views."""
        i, h, o = self.input_dim, self.hidden_dim, self.output_dim
        self.flat, self.W1, self.b1 = flat, flat[:h * i].reshape(h, i), flat[h * i:h * (i + 1)]
        self.W2, self.b2 = flat[h * (i + 1):-o].reshape(o, h), flat[-o:]
        return self

    def _finite(self) -> MlpParams:
        if not np.isfinite(self.flat).all():  # one check; the blocks only name the first bad one
            for name, block in zip(("W1", "b1", "W2", "b2"), self.blocks()):
                ensure_finite(block, name)
        return self

    def blocks(self) -> list[np.ndarray]:
        return [self.W1, self.b1, self.W2, self.b2]


def init_mlp(input_dim: int, hidden_dim: int, output_dim: int, rng: SeededRng) -> MlpParams:
    """Uniform(-s, s) weights with s = sqrt(6/(fan_in+fan_out)); zero biases."""
    net = MlpParams(np.zeros(mlp_size(input_dim, hidden_dim, output_dim)),
                    input_dim, hidden_dim, output_dim)
    for W in (net.W1, net.W2):  # drawn straight into the vector; sum(W.shape) = fan_in + fan_out
        np.multiply((2.0 * rng.uniform(W.size) - 1.0).reshape(W.shape),
                    np.sqrt(6.0 / sum(W.shape)), out=W)
    return net


@np.errstate(over="ignore", invalid="ignore")  # a caller's finiteness check raises instead
def mlp_forward_cache(params: MlpParams, x: np.ndarray):
    """Forward pass keeping what backprop needs: the input and hidden layer.
    An output past the float range is inf or NaN, with no warning."""
    x = np.asarray(x, dtype=np.float64)
    pre = x @ params.W1.T + params.b1
    hidden = np.maximum(pre, 0.0)
    return hidden @ params.W2.T + params.b2, (x, pre, hidden)


@np.errstate(over="ignore", invalid="ignore")  # MlpParams rejects a non-finite gradient
def mlp_backward(params: MlpParams, cache, d_out: np.ndarray,
                 input_grad: bool = True) -> tuple[MlpParams, np.ndarray | None]:
    """Gradients of sum(d_out * output) w.r.t. params, in one new vector, and
    with input_grad the input batch (else None, and its matmul is skipped)."""
    x, pre, hidden = cache
    d_out = np.asarray(d_out, dtype=np.float64)
    grad = copy.copy(params)._view(np.empty(params.flat.size))  # dims checked with params
    np.matmul(d_out.T, hidden, out=grad.W2)
    d_out.sum(axis=0, out=grad.b2)
    d_pre = np.where(pre > 0.0, d_out @ params.W2, 0.0)
    np.matmul(d_pre.T, x, out=grad.W1)
    d_pre.sum(axis=0, out=grad.b1)
    return grad._finite(), d_pre @ params.W1 if input_grad else None


@np.errstate(over="ignore", invalid="ignore")
def add_grads(total: MlpParams, part: MlpParams) -> None:
    """Add part's vector to total's in place; MlpParams rejects a sum that is not finite."""
    total.flat += part.flat
    total._finite()


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8
ADAM_CHUNK = 1 << 14  # elements updated at a time: six such slices fit in a core's cache


@dataclass(eq=False)
class AdamState:
    """Moments of a fixed list of parameter arrays (m[i] and v[i] have array
    i's shape) and two scratch buffers an update works in."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    learning_rate: float
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = ()


def adam_init(params: list[np.ndarray], learning_rate: float) -> AdamState:
    learning_rate = check_value("learning_rate", learning_rate, float, at_least=0)
    m, v = ([np.zeros(p.shape) for p in params] for _ in "mv")
    n = min(ADAM_CHUNK, max(p.size for p in params))
    return AdamState(m, v, learning_rate, scratch=(np.empty(n), np.empty(n)))


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place: the parameters, state.m,
    state.v and state.step are overwritten. `params` are adam_init's arrays,
    in order.

    Each array is updated ADAM_CHUNK elements at a time, through the scratch
    buffers, so no array-sized temporary is made; each element goes through
    the same floating-point operations as in the whole-array expressions
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr (m / c1) / (sqrt(v / c2) + eps). Each array is then checked once
    for finiteness; a blow-up raises ValueError naming the first bad array."""
    if not len(params) == len(grads) == len(state.m) or any(
            not p.shape == g.shape == m.shape for p, g, m in zip(params, grads, state.m)):
        raise ValueError("parameter, gradient and state counts or shapes do not match")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises below instead
        for arrays in zip(params, grads, state.m, state.v):
            with np.nditer(arrays, flags=["external_loop", "buffered", "zerosize_ok"],
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
    for i, p in enumerate(params):
        ensure_finite(p, f"parameter array {i}")
