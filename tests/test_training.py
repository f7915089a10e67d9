import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otzsl import generator, training
from otzsl.data import (UNLABELED, AttributeMatrix, FeatureDataset, SyntheticSpec,
                        make_synthetic_dataset)
from otzsl.errors import ConfigError, DataFormatError, SolverError
from otzsl.generator import GeneratorParams, init_generator, init_predictor
from otzsl.mlp import MlpParams
from otzsl.ot import IpotConfig, transition_plan
from otzsl.rng import SeededRng
from otzsl.training import (TrainConfig, TrainTrace, iterations_per_epoch,
                            ot_branch_coin, sample_real_batch,
                            sample_synth_batch, synthesize_class_features,
                            train, write_trace_csv)
from tests.conftest import count_finiteness_checks, traced_peak


def four_class_attrs():
    return AttributeMatrix(np.eye(4), seen_ids=(0, 1), unseen_ids=(2, 3))


def dataset_from_rows(rows, labels, feature_dim=6, pool=None):
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, feature_dim)
    labels = np.asarray(labels, dtype=np.int64)
    empty = (np.zeros((0, feature_dim)), np.zeros(0, dtype=np.int64))
    if pool is None:
        pool = np.zeros((0, feature_dim))
    return FeatureDataset(seen_train=(rows, labels), seen_test=empty,
                          unseen_test=(rows[:1], labels[:1]),
                          unseen_unlabeled=pool)


def constant_generator(attr_dim, feature_dim, value):
    """All-zero weights, so every output row equals the b2 bias."""
    hidden = 2
    net = MlpParams(np.zeros((hidden, 2 * attr_dim)), np.zeros(hidden),
                    np.zeros((feature_dim, hidden)),
                    np.full(feature_dim, float(value)))
    return GeneratorParams(net=net)


# --- config validation ---

def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.ot_prob == 0.9
    assert cfg.reg_weight == 1.0
    assert cfg.batch_size == 32
    assert cfg.learning_rate == 0.001
    assert cfg.epochs == 30
    assert cfg.ipot.max_outer_iters == 25


@pytest.mark.parametrize("kwargs,msg", [
    ({"ot_prob": -0.1}, "ot_prob"),
    ({"ot_prob": 1.5}, "ot_prob"),
    ({"reg_weight": -1.0}, "reg_weight"),
    ({"nca_scale": 0.0}, "nca_scale"),
    ({"batch_size": 1}, "batch_size"),
    ({"learning_rate": -0.001}, "learning_rate"),
    ({"epochs": 0}, "epochs"),
    ({"mode": "inductive-ish"}, "mode"),
    ({"hidden_dim": 0}, "hidden_dim"),
    ({"mode": "generalized"}, "mode"),  # a protocol chosen at evaluation only
    ({"reg_weight": np.nan}, "reg_weight"),
    ({"learning_rate": np.nan}, "learning_rate"),
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
    feats, labels = data.seen_train
    if transductive and data.unseen_unlabeled.shape[0]:
        feats = np.vstack([feats, data.unseen_unlabeled])
        labels = np.concatenate([
            labels, np.full(data.unseen_unlabeled.shape[0], UNLABELED, dtype=np.int64)])
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


def test_sample_real_empty_pool_errors():
    empty = (np.zeros((0, 6)), np.zeros(0, dtype=np.int64))
    data = FeatureDataset(seen_train=empty, seen_test=empty,
                          unseen_test=(np.ones((1, 6)), np.zeros(1, dtype=np.int64)),
                          unseen_unlabeled=np.zeros((0, 6)))
    with pytest.raises(ValueError, match="empty pool"):
        sample_real_batch(data, 4, SeededRng(0))


# --- synthetic-batch sampler ---

def test_sample_synth_mirror_copies_classes():
    attrs = four_class_attrs()
    classes, _ = sample_synth_batch(attrs, attrs.seen_ids, 4, SeededRng(0),
                                    mirror_classes=[1, 1, 0, 0])
    assert classes.tolist() == [1, 1, 0, 0]


def test_sample_synth_singleton_pool():
    attrs = four_class_attrs()
    classes, _ = sample_synth_batch(attrs, [1], 5, SeededRng(0))
    assert classes.tolist() == [1] * 5


def test_sample_synth_deterministic():
    attrs = four_class_attrs()
    a = sample_synth_batch(attrs, attrs.unseen_ids, 6, SeededRng(11))
    b = sample_synth_batch(attrs, attrs.unseen_ids, 6, SeededRng(11))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_sample_synth_draws_classes_then_noises():
    # the order the training module's docstring promises: hole draws, then noises
    attrs = four_class_attrs()
    mirror = [0, UNLABELED, 1, UNLABELED, UNLABELED]
    classes, noises = sample_synth_batch(attrs, attrs.seen_ids, 5, SeededRng(7),
                                         mirror_classes=mirror)
    rng = SeededRng(7)
    holes = np.asarray(attrs.seen_ids)[rng.integers(2, 3)]
    assert classes.tolist() == [0, holes[0], 1, holes[1], holes[2]]
    np.testing.assert_array_equal(noises, rng.gaussian(5 * 4).reshape(5, 4))
    classes, noises = sample_synth_batch(attrs, attrs.unseen_ids, 3, SeededRng(8))
    rng = SeededRng(8)
    assert classes.tolist() == np.asarray(attrs.unseen_ids)[rng.integers(2, 3)].tolist()
    np.testing.assert_array_equal(noises, rng.gaussian(3 * 4).reshape(3, 4))


def test_sample_synth_fills_unlabeled_holes_from_pool():
    attrs = four_class_attrs()
    mirror = [0, UNLABELED, 1, UNLABELED, UNLABELED]
    classes, _ = sample_synth_batch(attrs, attrs.seen_ids, 5, SeededRng(5),
                                    mirror_classes=mirror)
    assert classes[0] == 0 and classes[2] == 1
    assert set(classes[[1, 3, 4]].tolist()) <= set(attrs.seen_ids)


@pytest.mark.parametrize("pool,mirror,msg", [
    ((), None, "class pool is empty"),
    ((9,), None, "outside"),
    ((0, 1), (7, 0), "unknown class id"),
])
def test_sample_synth_rejects(pool, mirror, msg):
    attrs = four_class_attrs()
    with pytest.raises(ValueError, match=msg):
        sample_synth_batch(attrs, pool, 2, SeededRng(0), mirror_classes=mirror)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=12),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_mirrored_batches_satisfy_transition_precondition(labels, seed):
    # mirroring copies the class multiset, so the label-derived coupling
    # never hits its proportion-mismatch error
    attrs = AttributeMatrix(np.eye(4), seen_ids=(0, 1, 2, 3), unseen_ids=())
    real = np.asarray(labels, dtype=np.int64)
    synth, _ = sample_synth_batch(attrs, attrs.seen_ids, len(labels),
                                  SeededRng(seed), mirror_classes=real)
    plan = transition_plan(real, synth)
    np.testing.assert_allclose(plan.values.sum(axis=1), 1.0 / len(labels),
                               rtol=0, atol=1e-12)


# --- branch coin ---

def test_branch_coin_frequency():
    rng = SeededRng(17)
    hits = sum(ot_branch_coin(rng, 0.9) for _ in range(10_000))
    assert 0.88 <= hits / 10_000 <= 0.92


def test_branch_coin_extremes():
    rng = SeededRng(3)
    assert all(ot_branch_coin(rng, 1.0) for _ in range(100))
    assert not any(ot_branch_coin(rng, 0.0) for _ in range(100))


def test_branch_coin_always_advances_stream():
    a, b = SeededRng(5), SeededRng(5)
    ot_branch_coin(a, 0.0)
    b.uniform(1)
    assert a.uniform(1)[0] == b.uniform(1)[0]


def test_iterations_per_epoch():
    assert iterations_per_epoch(10, 3) == 4
    assert iterations_per_epoch(9, 3) == 3
    assert iterations_per_epoch(1, 128) == 1
    assert iterations_per_epoch(0, 4) == 1


# --- training loop ---

def quick_cfg(**kwargs):
    base = dict(batch_size=4, hidden_dim=8, epochs=1, seed=0, reg_weight=0.05)
    base.update(kwargs)
    return TrainConfig(**base)


def test_train_p_one_never_takes_transition(tiny_dataset):
    attrs, data, _ = tiny_dataset
    res = train(data, attrs, quick_cfg(ot_prob=1.0))
    assert res.trace.branch.count("transition") == 0
    assert len(res.trace) == iterations_per_epoch(data.seen_train[0].shape[0], 4)


def test_train_p_zero_all_transition(tiny_dataset):
    attrs, data, _ = tiny_dataset
    res = train(data, attrs, quick_cfg(ot_prob=0.0))
    assert set(res.trace.branch) == {"transition"}


def test_train_double_run_bit_identical(tiny_dataset):
    attrs, data, _ = tiny_dataset
    cfg = quick_cfg(epochs=2, ot_prob=0.9)
    a = train(data, attrs, cfg)
    b = train(data, attrs, cfg)
    for x, y in zip(a.g.net.blocks(), b.g.net.blocks()):
        assert np.array_equal(x, y)
    assert a.trace.total_loss == b.trace.total_loss
    assert a.trace.branch == b.trace.branch


def test_train_trace_bookkeeping(tiny_dataset, monkeypatch):
    attrs, data, _ = tiny_dataset
    steps, adam_step = [], training.adam_step
    monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(adam_step(*args)))
    res = train(data, attrs, quick_cfg(epochs=3))
    iters = iterations_per_epoch(data.seen_train[0].shape[0], 4)
    assert len(res.trace) == 3 * iters
    assert len(steps) == 3 * iters
    assert all(np.isfinite(res.trace.total_loss))


@pytest.mark.parametrize("mode", ["standard", "transductive"])
@pytest.mark.parametrize("ot_prob", [0.0, 1.0])
def test_train_runs_the_generator_once_per_step(tiny_dataset, monkeypatch, mode, ot_prob):
    # every mlp forward the generator module can call is spied on, and only
    # passes of the network train builds for the generator are counted; a
    # one-row unlabeled pool leaves transductive batches without it now and then
    attrs, data, _ = tiny_dataset
    data = dataclasses.replace(data, unseen_unlabeled=data.unseen_unlabeled[:1])
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
    res = train(data, attrs, cfg)
    assert rows == [2 * cfg.batch_size] * len(res.trace)
    assert set(res.trace.branch) == (
        {"ot"} if ot_prob == 1.0 else {"ot", "transition"} if mode == "transductive"
        else {"transition"})  # both branches in both modes


def start_from(monkeypatch, g, f):
    """Make train start from the given networks (it trains their arrays in place)."""
    monkeypatch.setattr(training, "init_generator", lambda *args: g)
    monkeypatch.setattr(training, "init_predictor", lambda *args, **kwargs: f)


def test_train_frozen_generator_constant_transport_cost(monkeypatch):
    # W1 = 0 makes synthetic features the constant b2 row, and a single-row
    # pool makes every real batch identical, so each iteration solves the
    # same OT instance; lr = 0 keeps it that way
    attrs = AttributeMatrix(np.eye(4)[:2], seen_ids=(0,), unseen_ids=(1,))
    data = dataset_from_rows([np.arange(1.0, 7.0)], [0])
    g = constant_generator(4, 6, 0.3)
    W2, b2 = g.net.W2.copy(), g.net.b2.copy()
    start_from(monkeypatch, g, init_predictor(6, 4, 4, SeededRng(8), nca_scale=0.5))
    cfg = quick_cfg(ot_prob=1.0, learning_rate=0.0, epochs=3, hidden_dim=4)
    res = train(data, attrs, cfg)
    costs = res.trace.transport_cost
    assert len(costs) == 3
    assert max(costs) - min(costs) <= 1e-12
    assert res.g is g
    assert np.array_equal(res.g.net.W2, W2)
    assert np.array_equal(res.g.net.b2, b2)


@pytest.mark.parametrize("cfg, budget", [
    (quick_cfg(ot_prob=1.0), 25),
    (quick_cfg(ot_prob=1.0, ipot=IpotConfig(max_outer_iters=200, stop_tol=1e-7)), 200),
], ids=["default", "200"])
def test_train_passes_its_ipot_budget_to_the_solver(cfg, budget, tiny_dataset, monkeypatch):
    attrs, data, _ = tiny_dataset
    budgets, solve = [], training.ipot_solve

    def spy(cost, marginals, ipot_cfg):
        budgets.append(ipot_cfg.max_outer_iters)
        return solve(cost, marginals, ipot_cfg)

    monkeypatch.setattr(training, "ipot_solve", spy)
    res = train(data, attrs, cfg)
    assert budgets and len(budgets) == len(res.trace)
    assert set(budgets) == {budget}


def test_train_transductive_forces_ot_on_unlabeled(tiny_dataset):
    # pool much larger than the labeled set: batches nearly always contain
    # an unlabeled row, which overrides the transition branch
    attrs, _, _ = tiny_dataset
    rng = SeededRng(31)
    row = rng.gaussian(8).reshape(1, 8)
    pool = rng.gaussian(63 * 8).reshape(63, 8)
    data = dataset_from_rows([row[0]], [0], feature_dim=8, pool=pool)
    cfg = quick_cfg(ot_prob=0.0, mode="transductive", batch_size=8)
    res = train(data, attrs, cfg)
    assert set(res.trace.branch) == {"ot"}


def test_train_transductive_needs_pool(tiny_dataset):
    attrs, _, _ = tiny_dataset
    data = dataset_from_rows([np.arange(1.0, 9.0)], [0], feature_dim=8)
    with pytest.raises(DataFormatError, match="unlabeled pool"):
        train(data, attrs, quick_cfg(mode="transductive"))


def test_train_needs_labeled_samples(tiny_dataset):
    attrs, _, _ = tiny_dataset
    empty = (np.zeros((0, 8)), np.zeros(0, dtype=np.int64))
    data = FeatureDataset(seen_train=empty, seen_test=empty,
                          unseen_test=(np.ones((1, 8)), np.zeros(1, dtype=np.int64)),
                          unseen_unlabeled=np.zeros((0, 8)))
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
               init_predictor(6, 4, 4, SeededRng(8), nca_scale=0.5))
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
            plan.values[0, 0] = np.nan
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
    steps = iterations_per_epoch(data.seen_train[0].shape[0], 4)
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
    res = train(data, attrs, cfg)
    iters = iterations_per_epoch(data.seen_train[0].shape[0], 32)
    per_epoch = np.asarray(res.trace.total_loss).reshape(10, iters).mean(axis=1)
    assert per_epoch[-1] <= 0.8 * per_epoch[0]


# --- synthesis for the downstream classifier ---

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
    net = MlpParams(rng.gaussian(3 * 8).reshape(3, 8), rng.gaussian(3),
                    rng.gaussian(6 * 3).reshape(6, 3), rng.gaussian(6) + 0.1)
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
    with pytest.raises(ValueError, match="outside"):
        synthesize_class_features(g, attrs, [99], 1, SeededRng(0))


# --- trace export ---

def test_write_trace_csv_round_trip(tmp_path):
    trace = TrainTrace()
    trace.record("ot", 0.125, 1.5, 1.625)
    trace.record("transition", 0.25, 0.5, 0.75)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,branch,transport_cost,reg_loss,total_loss"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "ot"
    assert float(first[2]) == 0.125 and float(first[4]) == 1.625


def reference_write_trace_csv(trace, path):
    """The per-row f-string writer that data.write_csv replaced for trace.csv."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,branch,transport_cost,reg_loss,total_loss\n")
        for i in range(len(trace)):
            fh.write(f"{i},{trace.branch[i]},{trace.transport_cost[i]:.17g},"
                     f"{trace.reg_loss[i]:.17g},{trace.total_loss[i]:.17g}\n")


def test_write_trace_csv_matches_reference(tmp_path, tiny_dataset):
    attrs, data, _ = tiny_dataset
    trained = train(data, attrs, quick_cfg(epochs=2)).trace
    edges = TrainTrace()
    for i, v in enumerate([0.0, -0.0, 5e-324, 1e300, -1e300, 2.0**53, 0.1, 1 / 3, 7]):
        edges.record(("ot", "transition")[i % 2], v, -v, 2 * v)
    for k, trace in enumerate([trained, edges, TrainTrace()]):
        new, ref = tmp_path / f"new{k}.csv", tmp_path / f"ref{k}.csv"
        write_trace_csv(trace, str(new))
        reference_write_trace_csv(trace, ref)
        assert new.read_bytes() == ref.read_bytes()
