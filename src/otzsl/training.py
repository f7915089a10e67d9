"""Iterative generator training: sample batches, generate once, couple real
to generated features with either a solved transport plan or the
label-derived coupling array, then take an Adam step on the fixed-plan
objective. `train` returns the generator and its trace, one `TraceRow` (the
branch and the loss terms) per step, which `write_trace_csv` writes as
trace.csv: the iteration, then a column per TraceRow field.

Each step runs the generator once, on the stacked seen and unseen halves of
the synthetic batch; the plan is solved on those features and `backward`
differentiates the same batch, so nothing is generated twice.

An epoch is ceil(pool / batch_size) steps, the pool being the labeled seen
rows plus, in transductive mode, the unlabeled ones. Per step the batch RNG is
consumed in a fixed order (real indices, seen replacement draws if any, seen
noises, unseen class draws, unseen noises, then one uniform for the branch
coin, whatever the branch) so runs are bit-reproducible for a given seed and
config.

Modes: "standard" trains on labeled seen data only and serves both the
standard and the generalized protocol, which differ only in the classifier
that evaluation trains; "transductive" additionally mixes the unlabeled pool
into the real batches (sentinel class -1) and solves transport against the
full generated batch, seen and unseen halves alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import AttributeMatrix, FeatureDataset, UNLABELED, write_csv
from .errors import DataFormatError, SolverError, check_fields, knob
from .generator import GeneratorParams, backward, generator_forward, init_generator
from .mlp import adam_init, adam_step, init_mlp
from .ot import Marginals, cosine_cost_matrix, ipot_solve, transition_plan
from .rng import SEED_BOUNDS, SeededRng

MODES = ("standard", "transductive")
# The dataset splits that training in each mode reads; the CLI loads only these.
MODE_SPLITS = {"standard": ("seen_train",), "transductive": ("seen_train", "unseen_unlabeled")}


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the training loop.

    ot_prob is the probability of solving for the transport plan; with
    probability 1 - ot_prob the label-derived coupling is used instead.
    reg_weight weighs the class-likelihood regularizer against the transport
    term, and nca_scale is that regularizer's softmax sharpness. mode is one
    of MODES; the generalized protocol evaluates a standard-mode generator.

    ipot_reg and ipot_max_outer_iters are the reg and iterations of each
    batch's ipot_solve, which runs every step (stop_tol 0): 25 proximal
    steps of one sweep each by default. Training re-solves a fresh batch
    every step and only needs the current inexact proximal iterate for a
    gradient, not a converged plan (Xie et al. 2018, arXiv 1802.04307);
    batch cost matrices with near-tied entries would otherwise crawl for
    tens of thousands of sweeps every iteration. On the default synthetic
    dataset, over training seeds 0-4, 25 steps keep the mean and the min of
    standard A_u, generalized H and transductive A_u within 0.01 of a
    200-step budget (README, "Performance"), which the config
    `{"ipot_max_outer_iters": 200}` restores.
    """

    ot_prob: float = knob(0.9, at_least=0, at_most=1)
    reg_weight: float = knob(1.0, at_least=0)
    nca_scale: float = knob(0.5, above=0)
    ipot_reg: float = knob(0.5, above=0)
    ipot_max_outer_iters: int = knob(25, at_least=1)
    batch_size: int = knob(32, at_least=2)
    learning_rate: float = knob(0.001, at_least=0)
    epochs: int = knob(30, at_least=1)
    seed: int = knob(0, **SEED_BOUNDS)
    mode: str = knob("standard", choices=MODES)
    hidden_dim: int = knob(128, at_least=1)

    __post_init__ = check_fields


class TraceRow(NamedTuple):
    """One training step: its branch ("ot" or "transition") and loss terms.
    trace.csv's columns are the step's iteration and these fields."""

    branch: str
    transport_cost: float
    reg_loss: float
    total_loss: float


def write_trace_csv(trace: list[TraceRow], path: str) -> None:
    losses = np.array([row[1:] for row in trace]).reshape(len(trace), len(TraceRow._fields) - 1)
    write_csv(path, "iteration," + ",".join(TraceRow._fields), [losses],
              [f"{i},{row.branch}," for i, row in enumerate(trace)])


def sample_real_batch(data: FeatureDataset, b: int, rng: SeededRng,
                      transductive: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """b uniform draws with replacement from the labeled seen pool, extended
    by the unlabeled pool (class -1) in transductive mode. A draw past the
    seen rows indexes the unlabeled pool; only the batch rows are copied."""
    seen_rows = data.rows["seen_train"]
    pool_rows = data.rows["unseen_unlabeled"] if transductive else seen_rows[:0]
    n_seen = seen_rows.size
    if n_seen + pool_rows.size == 0:
        raise ValueError("cannot sample from an empty pool")
    idx = rng.integers(n_seen + pool_rows.size, b)
    seen = idx < n_seen
    idx[seen] = seen_rows[idx[seen]]
    idx[~seen] = pool_rows[idx[~seen] - n_seen]
    return data.features[idx], np.where(seen, data.labels[idx], UNLABELED)


def sample_synth_batch(attrs: AttributeMatrix, class_pool, classes,
                       rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """(class ids, noises) of one generator input per entry of `classes`:
    each UNLABELED entry is drawn uniformly from class_pool, in one draw
    before the noises, and every other entry is kept, so a batch that mirrors
    a real one keeps its class proportions; an all-UNLABELED row draws all."""
    pool = np.asarray(list(class_pool), dtype=np.int64)
    if pool.size == 0:
        raise ValueError("class pool is empty")
    if pool.min() < 0 or pool.max() >= attrs.n_classes:
        raise ValueError(f"class pool {pool.tolist()} outside 0..{attrs.n_classes - 1}")
    classes = np.array(classes, dtype=np.int64)  # a copy, whose UNLABELED entries are filled
    hole = np.flatnonzero(classes == UNLABELED)
    if hole.size:
        classes[hole] = pool[rng.integers(pool.size, hole.size)]
    if (classes < 0).any() or (classes >= attrs.n_classes).any():
        raise ValueError("classes contains an unknown class id")
    noises = rng.gaussian(classes.size * attrs.attr_dim).reshape(classes.size, attrs.attr_dim)
    return classes, noises


# a blow-up raises from the finiteness checks of a step, not as a numpy warning
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def train(data: FeatureDataset, attrs: AttributeMatrix,
          cfg: TrainConfig) -> tuple[GeneratorParams, list[TraceRow]]:
    """The trained generator and its trace, one TraceRow per step. A dataset
    that lacks a pool training in cfg.mode samples is a DataFormatError: every
    step draws unseen classes as well as seen rows."""
    transductive = cfg.mode == "transductive"
    if not attrs.unseen_ids:
        raise DataFormatError("training requires at least one unseen class")
    n_seen, n_pool = data.rows["seen_train"].size, data.rows["unseen_unlabeled"].size
    if n_seen == 0:
        raise DataFormatError("training requires labeled seen samples")
    if transductive and n_pool == 0:
        raise DataFormatError("transductive mode requires a non-empty unlabeled pool")

    d = attrs.attr_dim
    feature_dim = data.feature_dim
    root = SeededRng(cfg.seed)
    g = init_generator(d, feature_dim, cfg.hidden_dim, root.split(1))
    f = init_mlp(feature_dim, cfg.hidden_dim, d, root.split(2))  # the attribute predictor
    params = [g.net.flat, f.flat]  # Adam runs over each network's vector, in place
    adam = adam_init(params, cfg.learning_rate)
    batch_rng = root.split(3)

    b = cfg.batch_size
    iters = math.ceil((n_seen + (n_pool if transductive else 0)) / b)  # >= 1: n_seen is not 0
    trace = []
    # every OT step couples b real rows to b generated ones, or to 2b in transductive mode
    marg = Marginals.uniform(b, 2 * b if transductive else b)
    unseen_draw = np.full(b, UNLABELED)  # every unseen class id is drawn

    for epoch in range(cfg.epochs):
        for it in range(iters):
            step = epoch * iters + it
            try:
                real_feats, real_classes = sample_real_batch(data, b, batch_rng, transductive)
                s_classes, s_noises = sample_synth_batch(attrs, attrs.seen_ids, real_classes,
                                                         batch_rng)
                u_classes, u_noises = sample_synth_batch(attrs, attrs.unseen_ids, unseen_draw,
                                                         batch_rng)
                synth_classes = np.concatenate([s_classes, u_classes])
                generated = generator_forward(g, attrs.attrs[synth_classes],
                                              np.vstack([s_noises, u_noises]))

                coin = batch_rng.uniform(1)[0]  # drawn on every step, whatever the branch
                if (cfg.ot_prob > 0 and coin <= cfg.ot_prob) or (real_classes == UNLABELED).any():
                    branch = "ot"
                    synth = generated[0] if transductive else generated[0][:b]
                    cost = cosine_cost_matrix(real_feats, synth)
                    core = ipot_solve(cost, marg, reg=cfg.ipot_reg,
                                      iterations=cfg.ipot_max_outer_iters, stop_tol=0.0).values
                else:
                    branch = "transition"
                    core = transition_plan(real_classes, s_classes)
                plan = np.zeros((b, synth_classes.size))  # uncoupled columns carry no mass
                plan[:, :core.shape[1]] = core

                res = backward(plan, real_feats, real_classes, generated, synth_classes,
                               g, f, attrs.attrs, cfg.reg_weight, cfg.nca_scale)
                adam_step(params, [res.g_grads.flat, res.f_grads.flat], adam)
            except (SolverError, ValueError) as exc:
                raise SolverError(f"iteration {step} (epoch {epoch}): {exc}") from exc
            trace.append(TraceRow(branch, res.transport_term, res.regularizer_term, res.total))
            del res, generated  # free this step's grads and caches before the next step's

    return g, trace
