import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otzsl import generator, training
from otzsl.data import UNLABELED, AttributeMatrix, SyntheticSpec, make_synthetic_dataset
from otzsl.errors import ConfigError, DataFormatError, SolverError
from otzsl.evaluate import ClassifierParams
from otzsl.generator import (GeneratorParams, backward, generator_forward, init_generator,
                             synthesize_class_features)
from otzsl.mlp import MlpParams, adam_init, init_mlp, mlp_size
from otzsl.ot import Marginals, TransportPlan, transition_plan
from otzsl.rng import SeededRng
from otzsl.training import (TraceRow, TrainConfig, sample_real_batch, sample_synth_batch,
                            train, write_trace_csv)
from tests.conftest import count_finiteness_checks, dataset_of, traced_peak


def four_class_attrs():
    return AttributeMatrix(np.eye(4), seen_ids=(0, 1), unseen_ids=(2, 3))


def dataset_from_rows(rows, labels, feature_dim=6, pool=None):
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, feature_dim)
    labels = np.asarray(labels, dtype=np.int64)
    pool = {} if pool is None else {"unseen_unlabeled": pool}
    return dataset_of(feature_dim, seen_train=(rows, labels), unseen_test=(rows[:1], labels[:1]),
                      **pool)


def constant_generator(attr_dim, feature_dim, value):
    """All-zero weights, so every output row equals the b2 bias."""
    net = MlpParams(np.zeros(mlp_size(2 * attr_dim, 2, feature_dim)), 2 * attr_dim, 2, feature_dim)
    net.b2[:] = value
    return GeneratorParams(net=net)


# --- config validation ---

def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.ot_prob == 0.9
    assert cfg.reg_weight == 1.0
    assert cfg.batch_size == 32
    assert cfg.learning_rate == 0.001
    assert cfg.epochs == 30
    assert (cfg.ipot_reg, cfg.ipot_max_outer_iters) == (0.5, 25)


@pytest.mark.parametrize("kwargs,msg", [
    ({"ot_prob": -0.1}, "ot_prob"),
    ({"ot_prob": 1.5}, "ot_prob"),
    ({"reg_weight": -1.0}, "reg_weight"),
    ({"nca_scale": 0.0}, "nca_scale"),
    ({"batch_size": 1}, "batch_size"),
    ({"batch_size": 2.5}, "batch_size must be of type int"),
    ({"batch_size": True}, "batch_size must be of type int"),
    ({"learning_rate": -0.001}, "learning_rate"),
    ({"epochs": 0}, "epochs"),
    ({"mode": "inductive-ish"}, "mode"),
    ({"hidden_dim": 0}, "hidden_dim"),
    ({"mode": "generalized"}, "mode"),  # a protocol chosen at evaluation only
    ({"reg_weight": np.nan}, "reg_weight"),
    ({"learning_rate": np.nan}, "learning_rate"),
    ({"nca_scale": np.inf}, "nca_scale"),
    ({"seed": -1}, "seed"),
    ({"seed": 2**64}, "seed"),
    ({"reg_weight": np.inf}, "reg_weight"),
    ({"learning_rate": np.inf}, "learning_rate"),
])
def test_train_config_rejects(kwargs, msg):
    with pytest.raises(ConfigError, match=msg):
        TrainConfig(**kwargs)


def test_train_config_allows_zero_learning_rate():
    assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


# --- real-batch sampler ---

def test_sample_real_single_row_repeats():
    x = np.arange(1.0, 7.0)
    data = dataset_from_rows([x], [0])
    feats, labels = sample_real_batch(data, 3, SeededRng(1))
    assert feats.shape == (3, 6)
    assert np.array_equal(feats, np.tile(x, (3, 1)))
    assert labels.tolist() == [0, 0, 0]


def test_sample_real_deterministic():
    rng = SeededRng(9)
    rows = rng.gaussian(60).reshape(10, 6)
    data = dataset_from_rows(rows, np.arange(10) % 3)
    a = sample_real_batch(data, 8, SeededRng(4))
    b = sample_real_batch(data, 8, SeededRng(4))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_sample_real_class_frequencies():
    # one row per class makes row frequency equal class frequency
    rows = np.eye(4, 6) + 1.0
    data = dataset_from_rows(rows, [0, 1, 2, 3])
    _, labels = sample_real_batch(data, 10_000, SeededRng(2))
    freq = np.bincount(labels, minlength=4) / 10_000
    assert freq.min() >= 0.23 and freq.max() <= 0.27


def test_sample_real_transductive_mixes_unlabeled():
    rows = np.eye(2, 6) + 1.0
    pool = np.eye(2, 6) + 3.0
    data = dataset_from_rows(rows, [0, 1], pool=pool)
    _, labels = sample_real_batch(data, 1000, SeededRng(3), transductive=True)
    frac = np.mean(labels == UNLABELED)
    assert 0.4 < frac < 0.6
    _, labels = sample_real_batch(data, 1000, SeededRng(3), transductive=False)
    assert not np.any(labels == UNLABELED)


def reference_sample_real_batch(data, b, rng, transductive=False):
    """The sampler that stacked the seen and unlabeled pools on every call,
    kept as the reference for the draws."""
    feats, labels = data.split("seen_train")
    if transductive:
        pool = data.split("unseen_unlabeled")[0]
        feats = np.vstack([feats, pool])
        labels = np.concatenate([labels, np.full(pool.shape[0], UNLABELED, dtype=np.int64)])
    idx = rng.integers(feats.shape[0], b)
    return feats[idx], labels[idx]


@pytest.mark.parametrize("transductive", [False, True])
def test_sample_real_matches_stacked_reference(desk_dataset, transductive):
    _, data, _ = desk_dataset
    for seed in range(5):
        got = sample_real_batch(data, 64, SeededRng(seed), transductive)
        want = reference_sample_real_batch(data, 64, SeededRng(seed), transductive)
        assert np.array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
        assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    if transductive:
        assert np.any(got[1] == UNLABELED) and np.any(got[1] != UNLABELED)


def test_sample_real_transductive_copies_only_the_batch(desk_dataset):
    _, data, _ = desk_dataset
    (batch, _), peak = traced_peak(sample_real_batch, data, 8, SeededRng(0), True)
    assert peak <= 2 * batch.nbytes + 4096  # not the seen and unlabeled pools stacked


@pytest.mark.parametrize("transductive", [False, True])
def test_sample_real_without_unlabeled_rows_draws_seen_rows(transductive):
    """A pool that lists no rows, as load_dataset leaves it when training
    reads no pool, adds no rows in either mode: the batch is the seen rows
    at the drawn indices, with their labels and dtypes."""
    rows = SeededRng(6).gaussian(30).reshape(5, 6)
    data = dataset_from_rows(rows, [0, 1, 0, 1, 1])
    feats, labels = sample_real_batch(data, 7, SeededRng(2), transductive)
    idx = SeededRng(2).integers(5, 7)
    assert feats.dtype == np.float64 and np.array_equal(feats, rows[idx])
    assert labels.dtype == np.int64 and labels.tolist() == np.array([0, 1, 0, 1, 1])[idx].tolist()


def test_sample_real_empty_pool_errors():
    data = dataset_of(6, unseen_test=(np.ones((1, 6)), [0]))
    with pytest.raises(ValueError, match="empty pool"):
        sample_real_batch(data, 4, SeededRng(0))


# --- synthetic-batch sampler ---

def draws(n):
    """A class row that draws every one of its n ids from the pool."""
    return np.full(n, UNLABELED)


def test_sample_synth_mirror_copies_classes():
    attrs = four_class_attrs()
    classes, _ = sample_synth_batch(attrs, attrs.seen_ids, [1, 1, 0, 0], SeededRng(0))
    assert classes.tolist() == [1, 1, 0, 0]


def test_sample_synth_singleton_pool():
    attrs = four_class_attrs()
    classes, _ = sample_synth_batch(attrs, [1], draws(5), SeededRng(0))
    assert classes.tolist() == [1] * 5


def test_sample_synth_deterministic():
    attrs = four_class_attrs()
    a = sample_synth_batch(attrs, attrs.unseen_ids, draws(6), SeededRng(11))
    b = sample_synth_batch(attrs, attrs.unseen_ids, draws(6), SeededRng(11))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_sample_synth_draws_classes_then_noises():
    # the order the training module's docstring promises: hole draws, then noises
    attrs = four_class_attrs()
    mirror = [0, UNLABELED, 1, UNLABELED, UNLABELED]
    classes, noises = sample_synth_batch(attrs, attrs.seen_ids, mirror, SeededRng(7))
    rng = SeededRng(7)
    holes = np.asarray(attrs.seen_ids)[rng.integers(2, 3)]
    assert classes.tolist() == [0, holes[0], 1, holes[1], holes[2]]
    np.testing.assert_array_equal(noises, rng.gaussian(5 * 4).reshape(5, 4))
    classes, noises = sample_synth_batch(attrs, attrs.unseen_ids, draws(3), SeededRng(8))
    rng = SeededRng(8)
    assert classes.tolist() == np.asarray(attrs.unseen_ids)[rng.integers(2, 3)].tolist()
    np.testing.assert_array_equal(noises, rng.gaussian(3 * 4).reshape(3, 4))


def test_sample_synth_fills_unlabeled_holes_from_pool():
    attrs = four_class_attrs()
    mirror = [0, UNLABELED, 1, UNLABELED, UNLABELED]
    classes, _ = sample_synth_batch(attrs, attrs.seen_ids, mirror, SeededRng(5))
    assert classes[0] == 0 and classes[2] == 1
    assert set(classes[[1, 3, 4]].tolist()) <= set(attrs.seen_ids)


@pytest.mark.parametrize("pool,classes,msg", [
    ((), draws(2), "class pool is empty"),
    ((9,), draws(2), "outside"),
    ((0, 1), (7, 0), "unknown class id"),
])
def test_sample_synth_rejects(pool, classes, msg):
    attrs = four_class_attrs()
    with pytest.raises(ValueError, match=msg):
        sample_synth_batch(attrs, pool, classes, SeededRng(0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=12),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_mirrored_batches_satisfy_transition_precondition(labels, seed):
    # mirroring copies the class multiset, so the label-derived coupling
    # never hits its not-a-permutation error
    attrs = AttributeMatrix(np.eye(4), seen_ids=(0, 1, 2, 3), unseen_ids=())
    real = np.asarray(labels, dtype=np.int64)
    synth, _ = sample_synth_batch(attrs, attrs.seen_ids, real, SeededRng(seed))
    plan = transition_plan(real, synth)
    np.testing.assert_allclose(plan.sum(axis=1), 1.0 / len(labels),
                               rtol=0, atol=1e-12)


# --- training loop ---

def quick_cfg(**kwargs):
    base = dict(batch_size=4, hidden_dim=8, epochs=1, seed=0, reg_weight=0.05)
    base.update(kwargs)
    return TrainConfig(**base)


def test_train_p_one_never_takes_transition(tiny_dataset):
    attrs, data, _ = tiny_dataset
    _, trace = train(data, attrs, quick_cfg(ot_prob=1.0))
    assert [row.branch for row in trace].count("transition") == 0
    assert len(trace) == math.ceil(data.rows["seen_train"].size / 4)


def test_train_p_zero_all_transition(tiny_dataset):
    attrs, data, _ = tiny_dataset
    _, trace = train(data, attrs, quick_cfg(ot_prob=0.0))
    assert {row.branch for row in trace} == {"transition"}


@pytest.mark.parametrize("n_seen, n_pool, mode, batch_size, steps", [
    (10, 0, "standard", 3, 4),
    (9, 0, "standard", 3, 3),
    (1, 0, "standard", 128, 1),
    (9, 5, "standard", 3, 3),  # the pool is not sampled, so it adds no step
    (4, 5, "transductive", 3, 3),
    (1, 1, "transductive", 128, 1),
])
def test_train_epoch_steps_cover_the_sampled_pool_once(n_seen, n_pool, mode, batch_size, steps):
    """An epoch is ceil(pool / batch_size) steps, the pool being the seen rows
    plus, in transductive mode, the unlabeled rows."""
    rng = SeededRng(4)
    data = dataset_from_rows(rng.gaussian(6 * n_seen), np.arange(n_seen) % 2,
                             pool=rng.gaussian(6 * n_pool).reshape(n_pool, 6) if n_pool else None)
    _, trace = train(data, four_class_attrs(),
                     quick_cfg(mode=mode, batch_size=batch_size, epochs=2))
    assert len(trace) == 2 * steps


@pytest.mark.parametrize("ot_prob", [0.0, 0.5, 1.0])
def test_train_draws_one_branch_coin_per_step_after_its_batches(tiny_dataset, monkeypatch,
                                                                 ot_prob):
    """Each standard step draws from the batch stream its real rows, its seen
    and unseen generator inputs, then one uniform, whatever the branch; the
    step takes the OT branch when ot_prob > 0 and that uniform is at most
    ot_prob. Replaying the stream with the samplers gives each step's real
    batch and branch, so a coin skipped at ot_prob 0 or 1 shifts every later
    batch and fails here."""
    attrs, data, _ = tiny_dataset
    drawn, sample = [], training.sample_real_batch
    monkeypatch.setattr(training, "sample_real_batch",
                        lambda *args: drawn.append(sample(*args)) or drawn[-1])
    cfg = quick_cfg(ot_prob=ot_prob, epochs=4)
    _, trace = train(data, attrs, cfg)
    rng = SeededRng(cfg.seed).split(3)
    assert len(drawn) == len(trace)
    for (feats, classes), row in zip(drawn, trace):
        want_feats, want_classes = sample(data, cfg.batch_size, rng)
        assert np.array_equal(feats, want_feats) and np.array_equal(classes, want_classes)
        sample_synth_batch(attrs, attrs.seen_ids, want_classes, rng)
        sample_synth_batch(attrs, attrs.unseen_ids, draws(cfg.batch_size), rng)
        coin = rng.uniform(1)[0]
        assert row.branch == ("ot" if ot_prob > 0 and coin <= ot_prob else "transition")
    assert {row.branch for row in trace} == {0.0: {"transition"}, 0.5: {"ot", "transition"},
                                             1.0: {"ot"}}[ot_prob]


def test_train_double_run_bit_identical(tiny_dataset):
    attrs, data, _ = tiny_dataset
    cfg = quick_cfg(epochs=2, ot_prob=0.9)
    (g_a, trace_a), (g_b, trace_b) = train(data, attrs, cfg), train(data, attrs, cfg)
    for x, y in zip(g_a.net.blocks(), g_b.net.blocks()):
        assert np.array_equal(x, y)
    assert [row.total_loss for row in trace_a] == [row.total_loss for row in trace_b]
    assert [row.branch for row in trace_a] == [row.branch for row in trace_b]


def test_train_trace_bookkeeping(tiny_dataset, monkeypatch):
    attrs, data, _ = tiny_dataset
    steps, adam_step = [], training.adam_step
    monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(adam_step(*args)))
    _, trace = train(data, attrs, quick_cfg(epochs=3))
    iters = math.ceil(data.rows["seen_train"].size / 4)
    assert len(trace) == 3 * iters
    assert len(steps) == 3 * iters
    assert all(np.isfinite([row.total_loss for row in trace]))


@pytest.mark.parametrize("mode", ["standard", "transductive"])
@pytest.mark.parametrize("ot_prob", [0.0, 1.0])
def test_train_runs_the_generator_once_per_step(tiny_dataset, monkeypatch, mode, ot_prob):
    # every mlp forward the generator module can call is spied on, and only
    # passes of the network train builds for the generator are counted; a
    # one-row unlabeled pool leaves transductive batches without it now and then
    attrs, data, _ = tiny_dataset
    data = dataclasses.replace(data, rows={**data.rows,
                                           "unseen_unlabeled": data.rows["unseen_unlabeled"][:1]})
    made, rows = [], []
    init = training.init_generator

    def init_and_keep(*args):
        made.append(init(*args))
        return made[0]

    monkeypatch.setattr(training, "init_generator", init_and_keep)
    for name in [n for n in vars(generator) if n.startswith("mlp_forward")]:
        def spy(params, x, forward=getattr(generator, name)):
            if params is made[0].net:
                rows.append(np.shape(x)[0])
            return forward(params, x)
        monkeypatch.setattr(generator, name, spy)
    cfg = quick_cfg(ot_prob=ot_prob, mode=mode, epochs=2)
    _, trace = train(data, attrs, cfg)
    assert rows == [2 * cfg.batch_size] * len(trace)
    assert {row.branch for row in trace} == (
        {"ot"} if ot_prob == 1.0 else {"ot", "transition"} if mode == "transductive"
        else {"transition"})  # both branches in both modes


def start_from(monkeypatch, g, f):
    """Make train start from the given networks (it trains their arrays in place)."""
    monkeypatch.setattr(training, "init_generator", lambda *args: g)
    monkeypatch.setattr(training, "init_mlp", lambda *args: f)


def test_train_frozen_generator_constant_transport_cost(monkeypatch):
    # W1 = 0 makes synthetic features the constant b2 row, and a single-row
    # pool makes every real batch identical, so each iteration solves the
    # same OT instance; lr = 0 keeps it that way
    attrs = AttributeMatrix(np.eye(4)[:2], seen_ids=(0,), unseen_ids=(1,))
    data = dataset_from_rows([np.arange(1.0, 7.0)], [0])
    g = constant_generator(4, 6, 0.3)
    W2, b2 = g.net.W2.copy(), g.net.b2.copy()
    start_from(monkeypatch, g, init_mlp(6, 4, 4, SeededRng(8)))
    cfg = quick_cfg(ot_prob=1.0, learning_rate=0.0, epochs=3, hidden_dim=4)
    trained, trace = train(data, attrs, cfg)
    costs = [row.transport_cost for row in trace]
    assert len(costs) == 3
    assert max(costs) - min(costs) <= 1e-12
    assert trained is g
    assert np.array_equal(g.net.W2, W2)
    assert np.array_equal(g.net.b2, b2)


@pytest.mark.parametrize("cfg, keywords", [
    (quick_cfg(ot_prob=1.0), (0.5, 25, 0.0)),
    (quick_cfg(ot_prob=1.0, ipot_reg=0.3, ipot_max_outer_iters=200), (0.3, 200, 0.0)),
], ids=["default", "200"])
def test_train_passes_its_ipot_budget_to_the_solver(cfg, keywords, tiny_dataset, monkeypatch):
    """Every batch solve gets the config's ipot_reg and ipot_max_outer_iters
    as the solver's reg and iterations, and stop_tol 0, so it runs them all."""
    attrs, data, _ = tiny_dataset
    calls, used, solve = [], set(), training.ipot_solve

    def spy(cost, marginals, **kwargs):
        calls.append(tuple(sorted(kwargs.items())))
        plan = solve(cost, marginals, **kwargs)
        used.add((plan.iterations_used, plan.converged))
        return plan

    monkeypatch.setattr(training, "ipot_solve", spy)
    _, trace = train(data, attrs, cfg)
    assert calls and len(calls) == len(trace)
    assert set(calls) == {tuple(sorted(zip(("reg", "iterations", "stop_tol"), keywords)))}
    assert used == {(cfg.ipot_max_outer_iters, False)}


def test_train_transductive_forces_ot_on_unlabeled(tiny_dataset):
    # pool much larger than the labeled set: batches nearly always contain
    # an unlabeled row, which overrides the transition branch
    attrs, _, _ = tiny_dataset
    rng = SeededRng(31)
    row = rng.gaussian(8).reshape(1, 8)
    pool = rng.gaussian(63 * 8).reshape(63, 8)
    data = dataset_from_rows([row[0]], [0], feature_dim=8, pool=pool)
    cfg = quick_cfg(ot_prob=0.0, mode="transductive", batch_size=8)
    _, trace = train(data, attrs, cfg)
    assert {row.branch for row in trace} == {"ot"}


def test_train_transductive_needs_pool(tiny_dataset):
    attrs, _, _ = tiny_dataset
    data = dataset_from_rows([np.arange(1.0, 9.0)], [0], feature_dim=8)
    with pytest.raises(DataFormatError, match="unlabeled pool"):
        train(data, attrs, quick_cfg(mode="transductive"))


def test_train_needs_labeled_samples(tiny_dataset):
    attrs, _, _ = tiny_dataset
    data = dataset_of(8, unseen_test=(np.ones((1, 8)), [0]))
    with pytest.raises(DataFormatError, match="labeled seen samples"):
        train(data, attrs, quick_cfg())


def test_train_needs_unseen_classes(tiny_dataset):
    attrs, data, _ = tiny_dataset
    everything_seen = AttributeMatrix(attrs.attrs, seen_ids=range(attrs.n_classes), unseen_ids=())
    with pytest.raises(DataFormatError, match="at least one unseen class"):
        train(data, everything_seen, quick_cfg())


def test_train_wraps_errors_with_iteration_context(monkeypatch):
    # a zero-bias all-zero generator emits zero-norm features, which the
    # cosine cost rejects; train should name the failing step
    attrs = AttributeMatrix(np.eye(4)[:2], seen_ids=(0,), unseen_ids=(1,))
    data = dataset_from_rows([np.arange(1.0, 7.0)], [0])
    start_from(monkeypatch, constant_generator(4, 6, 0.0),
               init_mlp(6, 4, 4, SeededRng(8)))
    cfg = quick_cfg(ot_prob=1.0, hidden_dim=4)
    with pytest.raises(SolverError, match=r"iteration 0 \(epoch 0\)"):
        train(data, attrs, cfg)


def test_train_names_the_step_of_an_attribute_row_that_overflows(tiny_dataset):
    """The attribute matrix takes a row whose sum of squares overflows; the
    first step that normalizes it raises SolverError, as any failing step does."""
    _, data, _ = tiny_dataset
    rows = np.eye(5, 6)
    rows[4, 0] = 1e300  # an unseen class: its generated features and its unit row overflow
    attrs = AttributeMatrix(rows, seen_ids=(0, 1, 2), unseen_ids=(3, 4))
    with pytest.raises(SolverError, match=r"^iteration 0 \(epoch 0\): .* too large"):
        train(data, attrs, quick_cfg(ot_prob=0.0))


def test_train_non_finite_plan_names_the_step(tiny_dataset, monkeypatch):
    attrs, data, _ = tiny_dataset
    calls = []

    def poisoned(real_classes, synth_classes):
        plan = transition_plan(real_classes, synth_classes)
        calls.append(plan)
        if len(calls) == 3:
            plan[0, 0] = np.nan
        return plan

    monkeypatch.setattr(training, "transition_plan", poisoned)
    with pytest.raises(SolverError, match=r"^iteration 2 \(epoch 0\): W1 contains a non-finite"):
        train(data, attrs, quick_cfg(ot_prob=0.0))


@pytest.mark.parametrize("ot_prob, per_step", [(0.0, 6), (1.0, 9)], ids=["transition", "ot"])
def test_train_step_checks_vectors_not_blocks(tiny_dataset, monkeypatch, ot_prob, per_step):
    """A training step checks finiteness once per vector: the gradients of
    the generator, the predictor's two batches and their sum (4), the Adam
    update of each network (2), and on the OT branch the cost's two inputs
    and the cost (3). Checking the eight parameter blocks one by one took
    24 checks a step, and the count grew with the blocks."""
    attrs, data, _ = tiny_dataset
    checked = count_finiteness_checks(monkeypatch)
    train(data, attrs, quick_cfg(ot_prob=ot_prob, epochs=1))
    one_epoch = len(checked)
    train(data, attrs, quick_cfg(ot_prob=ot_prob, epochs=2))
    steps = math.ceil(data.rows["seen_train"].size / 4)
    assert len(checked) - 2 * one_epoch == per_step * steps  # the setup checks cancel out


@pytest.mark.parametrize("ot_prob", [0.0, 1.0])
def test_train_blow_up_raises_without_warnings(tiny_dataset, ot_prob):
    # warnings are errors in this suite, so a leaked overflow warning fails here
    attrs, data, _ = tiny_dataset
    with pytest.raises(SolverError, match=r"^iteration 1 \(epoch 0\): "):
        train(data, attrs, quick_cfg(ot_prob=ot_prob, learning_rate=1e300))


def test_train_loss_decreases(desk_dataset):
    attrs, data, _ = desk_dataset
    cfg = TrainConfig(reg_weight=0.05, batch_size=32, hidden_dim=32, epochs=10, seed=0)
    _, trace = train(data, attrs, cfg)
    iters = math.ceil(data.rows["seen_train"].size / 32)
    per_epoch = np.asarray([row.total_loss for row in trace]).reshape(10, iters).mean(axis=1)
    assert per_epoch[-1] <= 0.8 * per_epoch[0]


# --- synthesis for the downstream classifier (in the generator module) ---

def test_synthesize_labels_and_shape():
    attrs = four_class_attrs()
    g = constant_generator(4, 6, 0.5)
    feats, labels = synthesize_class_features(g, attrs, [2, 3], 3, SeededRng(0))
    assert feats.shape == (6, 6)
    assert labels.tolist() == [2, 2, 2, 3, 3, 3]


def test_synthesize_zero_weight_generator_constant():
    attrs = four_class_attrs()
    g = constant_generator(4, 6, 0.25)
    feats, _ = synthesize_class_features(g, attrs, [0, 1], 4, SeededRng(1))
    assert np.array_equal(feats, np.full((8, 6), 0.25))


def test_synthesize_deterministic():
    attrs = four_class_attrs()
    rng = SeededRng(13)
    net = MlpParams(rng.gaussian(mlp_size(8, 3, 6)), 8, 3, 6)
    net.b2 += 0.1
    g = GeneratorParams(net=net)
    a = synthesize_class_features(g, attrs, [0, 2], 5, SeededRng(2))
    b = synthesize_class_features(g, attrs, [0, 2], 5, SeededRng(2))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_synthesize_peak_memory_is_its_output():
    """Each class's rows go straight into the output array: no list of
    per-class arrays is stacked at the end."""
    attrs, _, _ = make_synthetic_dataset(SyntheticSpec(seen_classes=16, unseen_classes=4,
                                                       attr_dim=8, samples_per_class=4))
    g = init_generator(8, 512, 32, SeededRng(3))
    (feats, labels), peak = traced_peak(synthesize_class_features, g, attrs, range(20), 50,
                                        SeededRng(4))
    assert feats.shape == (1000, 512)
    assert peak <= 1.2 * (feats.nbytes + labels.nbytes)


def test_synthesize_rejects_bad_args():
    attrs = four_class_attrs()
    g = constant_generator(4, 6, 0.5)
    with pytest.raises(ValueError, match="per_class"):
        synthesize_class_features(g, attrs, [0], 0, SeededRng(0))
    for per_class in (2.5, True):
        with pytest.raises(ConfigError, match="per_class must be of type int"):
            synthesize_class_features(g, attrs, [0], per_class, SeededRng(0))
    with pytest.raises(ValueError, match="outside"):
        synthesize_class_features(g, attrs, [99], 1, SeededRng(0))


# --- trace export ---

def test_write_trace_csv_round_trip(tmp_path):
    trace = [TraceRow("ot", 0.125, 1.5, 1.625), TraceRow("transition", 0.25, 0.5, 0.75)]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,branch,transport_cost,reg_loss,total_loss"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "ot"
    assert float(first[2]) == 0.125 and float(first[4]) == 1.625


def test_write_trace_csv_header_is_the_row_fields(tmp_path):
    """trace.csv's columns are declared once, as TraceRow's fields; perfbench
    reads the branch from the second column."""
    path = tmp_path / "trace.csv"
    write_trace_csv([], str(path))
    header = path.read_text().splitlines()[0]
    assert header == "iteration," + ",".join(TraceRow._fields)
    assert header.startswith("iteration,branch,")


def reference_write_trace_csv(trace, path):
    """The per-row f-string writer that data.write_csv replaced for trace.csv."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,branch,transport_cost,reg_loss,total_loss\n")
        for i in range(len(trace)):
            fh.write(f"{i},{trace[i].branch},{trace[i].transport_cost:.17g},"
                     f"{trace[i].reg_loss:.17g},{trace[i].total_loss:.17g}\n")


def test_write_trace_csv_matches_reference(tmp_path, tiny_dataset):
    attrs, data, _ = tiny_dataset
    _, trained = train(data, attrs, quick_cfg(epochs=2))
    edges = [TraceRow(("ot", "transition")[i % 2], v, -v, 2 * v)
             for i, v in enumerate([0.0, -0.0, 5e-324, 1e300, -1e300, 2.0**53, 0.1, 1 / 3, 7])]
    for k, trace in enumerate([trained, edges, []]):
        new, ref = tmp_path / f"new{k}.csv", tmp_path / f"ref{k}.csv"
        write_trace_csv(trace, str(new))
        reference_write_trace_csv(trace, ref)
        assert new.read_bytes() == ref.read_bytes()


def test_dataclasses_that_hold_arrays_compare_and_hash_by_identity(tiny_dataset):
    """`==` between arrays has no truth value, so these classes compare, and
    hash, by identity; a deep copy is another object."""
    attrs, data, _ = tiny_dataset
    g, _ = train(data, attrs, TrainConfig(epochs=1, batch_size=8, hidden_dim=4))
    f = init_mlp(g.feature_dim, 4, g.attr_dim, SeededRng(1))
    feats, labels = (x[:2] for x in data.split("seen_train"))
    plan = TransportPlan(transition_plan(labels, labels), converged=True, iterations_used=0)
    generated = generator_forward(g, attrs.attrs[labels],
                                  SeededRng(2).gaussian(2 * g.attr_dim).reshape(2, -1))
    grads = backward(plan.values, feats, labels, generated, labels, g, f, attrs.attrs, 1.0, 0.5)
    objects = [attrs, data, Marginals.uniform(3, 3), plan, g.net, adam_init([g.net.flat], 0.001), g,
               grads, ClassifierParams(np.zeros((2, 3)), np.zeros(2), (0, 1))]
    assert len({type(obj) for obj in objects}) == 9
    for obj in objects:
        twin = copy.deepcopy(obj)
        assert obj == obj and obj != twin
        assert len({obj, twin, obj}) == 2
