"""Conditional feature generator, attribute predictor, and their joint loss.

The generator maps [attribute; noise] to a feature vector. The predictor maps
features back to attribute space, where a class-likelihood softmax over cosine
distances to every class attribute (an NCA-style term) scores how recognizable
each feature is. Training minimizes

    transport_term + reg_weight * regularizer_term

with the transport plan held fixed, so all gradients here treat the plan as a
constant matrix. One generator forward per training step serves both halves
of the alternation: the caller solves the plan on the features of
`generator_forward` and hands the same (features, cache) pair to `backward`,
which differentiates the loss at that batch. Gradients are fully analytic;
finite differences are used only in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import UNLABELED
from .linalg import log_softmax_rows, unit_rows
from .mlp import MlpParams, add_grads, init_mlp, mlp_backward, mlp_forward_cache
from .rng import SeededRng

# Class probabilities below this floor are clamped before the log; clamped
# samples contribute a constant to the loss and nothing to the gradient.
PROB_FLOOR = 1e-300
_LOG_FLOOR = math.log(PROB_FLOOR)


@dataclass
class GeneratorParams:
    """Feature generator g: [attribute; noise] -> feature. Noise dimension
    equals attribute dimension, so the network input is twice the latter."""

    net: MlpParams

    def __post_init__(self):
        if self.net.input_dim % 2 != 0:
            raise ValueError(
                f"generator input dim {self.net.input_dim} is odd; expected attribute + noise halves"
            )

    @property
    def attr_dim(self) -> int:
        return self.net.input_dim // 2

    @property
    def feature_dim(self) -> int:
        return self.net.output_dim


@dataclass
class PredictorParams:
    """Attribute predictor f: feature -> attribute, plus the softmax sharpness
    of the class-likelihood term."""

    net: MlpParams
    nca_scale: float = 0.5

    def __post_init__(self):
        if not (self.nca_scale > 0.0 and math.isfinite(self.nca_scale)):
            raise ValueError(f"nca_scale must be positive, got {self.nca_scale}")


def init_generator(attr_dim: int, feature_dim: int, hidden_dim: int,
                   rng: SeededRng) -> GeneratorParams:
    return GeneratorParams(net=init_mlp(2 * attr_dim, hidden_dim, feature_dim, rng))


def init_predictor(feature_dim: int, attr_dim: int, hidden_dim: int,
                   rng: SeededRng, nca_scale: float = 0.5) -> PredictorParams:
    return PredictorParams(net=init_mlp(feature_dim, hidden_dim, attr_dim, rng),
                           nca_scale=nca_scale)


def generator_forward(g: GeneratorParams, attrs, noises) -> tuple[np.ndarray, tuple]:
    """Generate one feature row per row of the row-aligned attribute and noise
    batches. Returns (features, cache); `backward` takes the pair, and a
    caller that only samples reads the features."""
    attrs = np.asarray(attrs, dtype=np.float64)
    noises = np.asarray(noises, dtype=np.float64)
    if attrs.shape != noises.shape:
        raise ValueError(f"attribute shape {attrs.shape} != noise shape {noises.shape}")
    if attrs.ndim != 2 or attrs.shape[1] != g.attr_dim:
        raise ValueError(f"attributes must be rows of dim {g.attr_dim}, got shape {attrs.shape}")
    return mlp_forward_cache(g.net, np.hstack([attrs, noises]))


def _nca_term(pred, targets, attr_unit, nca_scale, grad_weight):
    """Mean negative log class likelihood of a prediction batch, plus the
    gradient of grad_weight * mean w.r.t. the predictions."""
    b = pred.shape[0]
    pred_unit, norms = unit_rows(pred, "predicted attributes")
    cos = pred_unit @ attr_unit.T
    logits = -nca_scale * (1.0 - cos)
    log_p = log_softmax_rows(logits)
    rows = np.arange(b)
    picked = log_p[rows, targets]
    floored = picked < _LOG_FLOOR
    loss = float(-np.maximum(picked, _LOG_FLOOR).mean())

    soft = np.exp(log_p)
    d_logits = soft
    d_logits[rows, targets] -= 1.0
    d_logits[floored] = 0.0
    coef = grad_weight * nca_scale / b
    d_pred = coef * (d_logits @ attr_unit
                     - (d_logits * cos).sum(axis=1, keepdims=True) * pred_unit) / norms[:, None]
    return loss, d_pred


@dataclass
class BackwardResult:
    g_grads: MlpParams
    f_grads: MlpParams
    transport_term: float
    regularizer_term: float
    total: float


def backward(plan_values, real_feats, real_classes, generated, synth_classes,
             g: GeneratorParams, f: PredictorParams, class_attrs,
             reg_weight: float) -> BackwardResult:
    """Loss terms and analytic gradients of the fixed-plan objective for
    every parameter block of the generator and predictor. `generated` is the
    (features, cache) pair of the `generator_forward` call that made the
    batch the plan couples to the real rows."""
    plan = np.asarray(plan_values, dtype=np.float64)
    real_feats = np.atleast_2d(np.asarray(real_feats, dtype=np.float64))
    real_classes = np.asarray(real_classes, dtype=np.int64).reshape(-1)
    xhat, g_cache = generated
    synth_classes = np.asarray(synth_classes, dtype=np.int64).reshape(-1)
    if reg_weight < 0.0:
        raise ValueError(f"reg_weight must be non-negative, got {reg_weight}")
    n, m = real_feats.shape[0], xhat.shape[0]
    if plan.shape != (n, m):
        raise ValueError(f"plan shape {plan.shape} does not match batches ({n}, {m})")
    if m == 0:
        raise ValueError("generated batch is empty")

    real_unit, _ = unit_rows(real_feats, "real features")
    xhat_unit, xhat_norms = unit_rows(xhat, "generated features")
    cos = real_unit @ xhat_unit.T
    transport_term = float(np.sum(plan * (1.0 - cos)))
    # transport term: d cost[n, m] / d xhat[m] = -(u_n - cos[n, m] v_m)/|xhat_m|,
    # built in place by that expression's operations in its order; xhat_unit,
    # read here for the last time, takes the product
    col_mass = (plan * cos).sum(axis=0)
    d_xhat = plan.T @ real_unit
    del real_unit
    d_xhat -= np.multiply(col_mass[:, None], xhat_unit, out=xhat_unit)
    del xhat_unit
    np.negative(d_xhat, out=d_xhat)
    d_xhat /= xhat_norms[:, None]

    attr_unit, _ = unit_rows(np.asarray(class_attrs, dtype=np.float64), "class attributes")
    labeled = real_classes != UNLABELED
    if not labeled.all():  # only a batch with unlabeled rows copies out its labeled ones
        real_feats, real_classes = real_feats[labeled], real_classes[labeled]
    targets = np.concatenate([real_classes, synth_classes])
    if targets.min() < 0 or targets.max() >= attr_unit.shape[0]:
        raise ValueError(f"target class ids must lie in 0..{attr_unit.shape[0] - 1}")
    reg_term = 0.0

    # each array below is dropped at its last use, so the next pass's can reuse its memory
    real_cache = None
    if real_classes.size:
        q_real, real_cache = mlp_forward_cache(f.net, real_feats)
        loss, d_real_q = _nca_term(q_real, real_classes, attr_unit, f.nca_scale, reg_weight)
        reg_term += loss
    q_synth, synth_cache = mlp_forward_cache(f.net, xhat)
    loss, d_synth_q = _nca_term(q_synth, synth_classes, attr_unit, f.nca_scale, reg_weight)
    reg_term += loss
    total = transport_term + reg_weight * reg_term

    f_grads, d_xhat_reg = mlp_backward(f.net, synth_cache, d_synth_q)
    del synth_cache
    d_xhat += d_xhat_reg
    del d_xhat_reg
    if real_cache is not None:
        real_grads, _ = mlp_backward(f.net, real_cache, d_real_q, input_grad=False)
        del real_cache
        add_grads(f_grads, real_grads)
        del real_grads
    # MlpParams rejects a non-finite block
    g_grads, _ = mlp_backward(g.net, g_cache, d_xhat, input_grad=False)
    return BackwardResult(g_grads, f_grads, transport_term, reg_term, total)
