import dataclasses
import importlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otzsl.data import SyntheticSpec, make_synthetic_dataset
from otzsl.errors import ConfigError, DataFormatError
from otzsl.evaluate import (PROTOCOLS, ClassifierConfig, ClassifierParams, EvalConfig,
                            EvalReport, classify_scores, evaluate,
                            harmonic_mean, per_class_top1, per_class_topk, predict_ids,
                            report_json_dict, save_report, train_softmax)
from otzsl.generator import GeneratorParams, init_generator
from otzsl.mlp import MlpParams
from otzsl.rng import SeededRng
from otzsl.training import synthesize_class_features

from conftest import TINY_SPEC, count_finiteness_checks, reference_write_json

CLEAN_SPEC = dataclasses.replace(TINY_SPEC, noise_sigma=0.0)

# the tiny set fits in one minibatch, so the default 50 Adam steps underfit;
# give the separable-oracle tests enough steps to actually converge
STRONG_CLF = ClassifierConfig(learning_rate=0.01, epochs=300)


def oracle_generator(hidden_map, noise_gain=0.0):
    """relu(a) - relu(-a) = a, so the net emits the true class prototype
    hidden_map @ a for any attribute and ignores its noise half; a nonzero
    noise_gain g feeds g * noise into both halves and blurs the prototypes."""
    feature_dim, d = hidden_map.shape
    eye, noise = np.eye(d), noise_gain * np.eye(d)
    w1 = np.vstack([np.hstack([eye, noise]), np.hstack([-eye, noise])])
    w2 = np.hstack([hidden_map, -hidden_map])
    net = MlpParams(w1, np.zeros(2 * d), w2, np.zeros(feature_dim))
    return GeneratorParams(net=net)


@pytest.fixture(scope="module")
def clean_dataset():
    return make_synthetic_dataset(CLEAN_SPEC)


# --- classifier ---

def separable_clusters(n_per=20, gap=5.0, seed=0):
    rng = SeededRng(seed)
    jitter = rng.gaussian(2 * n_per * 2).reshape(2 * n_per, 2) * 0.1
    feats = np.vstack([np.tile([gap, 0.0], (n_per, 1)),
                       np.tile([-gap, 0.0], (n_per, 1))]) + jitter
    labels = np.repeat([0, 1], n_per)
    return feats, labels


def test_classifier_config_rejects():
    with pytest.raises(ConfigError, match="learning_rate"):
        ClassifierConfig(learning_rate=0.0)
    with pytest.raises(ConfigError, match="at least 1"):
        ClassifierConfig(epochs=0)
    with pytest.raises(ConfigError, match="at least 1"):
        ClassifierConfig(batch_size=0)


def test_classifier_params_validation():
    with pytest.raises(ValueError, match="duplicates"):
        ClassifierParams(W=np.zeros((2, 3)), b=np.zeros(2), class_id_map=(1, 1))
    with pytest.raises(ValueError, match="inconsistent"):
        ClassifierParams(W=np.zeros((2, 3)), b=np.zeros(3), class_id_map=(0, 1))


def test_softmax_separates_clusters():
    feats, labels = separable_clusters()
    clf = train_softmax(feats, labels, (0, 1), ClassifierConfig(), SeededRng(1))
    assert np.array_equal(predict_ids(clf, feats), labels)


def test_softmax_single_class_is_trivially_right():
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    clf = train_softmax(feats, [7, 7], (7,), ClassifierConfig(epochs=1), SeededRng(0))
    assert predict_ids(clf, [[9.0, 9.0]]).tolist() == [7]


def test_softmax_duplication_keeps_accuracy():
    feats, labels = separable_clusters()
    cfg = ClassifierConfig(epochs=20)
    clf1 = train_softmax(feats, labels, (0, 1), cfg, SeededRng(2))
    clf2 = train_softmax(np.vstack([feats, feats]), np.concatenate([labels, labels]),
                         (0, 1), cfg, SeededRng(2))
    acc1 = np.mean(predict_ids(clf1, feats) == labels)
    acc2 = np.mean(predict_ids(clf2, feats) == labels)
    assert acc1 == acc2 == 1.0


def test_softmax_deterministic():
    feats, labels = separable_clusters()
    a = train_softmax(feats, labels, (0, 1), ClassifierConfig(epochs=5), SeededRng(3))
    b = train_softmax(feats, labels, (0, 1), ClassifierConfig(epochs=5), SeededRng(3))
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def test_softmax_rejects_bad_labels():
    feats, labels = separable_clusters(n_per=3)
    with pytest.raises(ValueError, match="no training samples"):
        train_softmax(feats, labels, (0, 1, 2), ClassifierConfig(), SeededRng(0))
    with pytest.raises(ValueError, match="missing from the class list"):
        train_softmax(feats, labels, (0,), ClassifierConfig(), SeededRng(0))
    with pytest.raises(ValueError, match="labels"):
        train_softmax(feats, labels[:-1], (0, 1), ClassifierConfig(), SeededRng(0))


def test_predict_ids_maps_argmax_to_class_ids():
    clf = ClassifierParams(W=np.eye(2), b=np.zeros(2), class_id_map=(3, 7))
    assert predict_ids(clf, [[2.0, 1.0], [0.0, 5.0]]).tolist() == [3, 7]
    scores = classify_scores(clf, [[2.0, 1.0]])
    assert scores.tolist() == [[2.0, 1.0]]


# --- metrics ---

def test_per_class_top1_hand_cases():
    per, mean = per_class_top1([0, 0, 1, 2], [0, 0, 1, 1], (0, 1))
    assert per == {0: 1.0, 1: 0.5}
    assert mean == 0.75

    preds = [0] * 99 + [0]
    labels = [0] * 99 + [1]
    _, mean = per_class_top1(preds, labels, (0, 1))
    assert mean == 0.5

    _, mean = per_class_top1([2, 3], [2, 3], (2, 3))
    assert mean == 1.0


def test_per_class_top1_skips_empty_classes():
    per, mean = per_class_top1([0, 1], [0, 1], (0, 1, 5))
    assert mean == 1.0 and 5 not in per


def test_per_class_top1_shape_mismatch():
    with pytest.raises(ValueError, match="predictions vs"):
        per_class_top1([0, 1], [0], (0, 1))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30))
def test_per_class_top1_duplication_invariant(pairs):
    preds = [p for p, _ in pairs]
    labels = [t for _, t in pairs]
    base = per_class_top1(preds, labels, (0, 1, 2, 3))
    doubled = per_class_top1(preds * 2, labels * 2, (0, 1, 2, 3))
    assert base == doubled


def test_per_class_topk_hand_case():
    scores = np.array([[0.9, 0.5, 0.1]])
    _, top1 = per_class_topk(scores, (0, 1, 2), [1], (1,), 1)
    _, top2 = per_class_topk(scores, (0, 1, 2), [1], (1,), 2)
    assert top1 == 0.0 and top2 == 1.0
    with pytest.raises(ValueError, match="k must be"):
        per_class_topk(scores, (0, 1, 2), [1], (1,), 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 20))
def test_topk_dominates_top1(seed, n_classes, n):
    rng = SeededRng(seed)
    scores = rng.gaussian(n * n_classes).reshape(n, n_classes)
    labels = rng.integers(n_classes, n)
    ids = tuple(range(n_classes))
    preds = np.asarray(ids)[scores.argmax(axis=1)]
    _, top1 = per_class_top1(preds, labels, ids)
    _, top1_scores = per_class_topk(scores, ids, labels, ids, 1)
    _, topk = per_class_topk(scores, ids, labels, ids, n_classes)
    assert top1_scores == top1
    assert topk >= top1
    assert topk == 1.0


def test_harmonic_mean_identities():
    assert harmonic_mean(0.6, 0.3) == 0.4
    assert harmonic_mean(0.3, 0.6) == 0.4
    assert harmonic_mean(0.0, 0.0) == 0.0
    assert harmonic_mean(0.7, 0.0) == 0.0
    for x in (0.0, 0.1, 0.25, 0.37, 0.5, 0.99, 1.0):
        assert harmonic_mean(x, x) == x
    with pytest.raises(ValueError, match="outside"):
        harmonic_mean(-0.1, 0.5)
    with pytest.raises(ValueError, match="outside"):
        harmonic_mean(0.5, 1.1)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_harmonic_le_arithmetic(a, b):
    # both bounds are exact in real arithmetic; allow an ulp of rounding.
    # accuracies are k/n fractions, so values between 0 and 1e-9 (where the
    # product a*b would go subnormal and lose the bounds) are out of domain
    assume(a == 0.0 or a >= 1e-9)
    assume(b == 0.0 or b >= 1e-9)
    h = harmonic_mean(a, b)
    assert 0.0 <= h <= 1.0
    assert h <= (a + b) / 2.0 * (1.0 + 1e-12)
    assert h <= 2.0 * min(a, b) * (1.0 + 1e-12)


# --- evaluation protocols ---

def test_eval_config_rejects():
    with pytest.raises(ConfigError, match="n_synth_per_class"):
        EvalConfig(n_synth_per_class=0)
    with pytest.raises(ConfigError, match="top_k"):
        EvalConfig(top_k=0)


def test_evaluate_oracle_generator_is_perfect(clean_dataset):
    attrs, data, hidden_map = clean_dataset
    g = oracle_generator(hidden_map)
    rep = evaluate("standard", g, attrs, data, EvalConfig(n_synth_per_class=20, seed=1))
    assert rep.A_u == 1.0
    assert rep.A_s is None and rep.H is None
    assert set(rep.per_class) == set(attrs.unseen_ids)


def test_evaluate_generalized_oracle(clean_dataset):
    attrs, data, hidden_map = clean_dataset
    g = oracle_generator(hidden_map)
    rep = evaluate("generalized", g, attrs, data,
                   EvalConfig(n_synth_per_class=20, seed=1, classifier=STRONG_CLF))
    assert rep.A_s == 1.0 and rep.A_u == 1.0 and rep.H == 1.0
    assert set(rep.per_class) == set(attrs.seen_ids) | set(attrs.unseen_ids)


def test_evaluate_without_real_seen(clean_dataset):
    # the default classifier learns from generated rows only, seen classes too
    attrs, data, hidden_map = clean_dataset
    g = oracle_generator(hidden_map)
    rep = evaluate("generalized", g, attrs, data, EvalConfig(n_synth_per_class=20, seed=1))
    assert rep.A_u == 1.0 and rep.A_s == 1.0


def test_evaluate_gzsl_h_consistent(tiny_dataset):
    # an untrained generator gives a nontrivial (A_s, A_u) pair; the headline
    # number must be their harmonic mean bit-exactly
    attrs, data, _ = tiny_dataset
    g = init_generator(attrs.attr_dim, data.feature_dim, 8, SeededRng(4))
    rep = evaluate("generalized", g, attrs, data, EvalConfig(n_synth_per_class=10, seed=2))
    assert rep.H == harmonic_mean(rep.A_s, rep.A_u)


def test_evaluate_random_generator_near_chance(tiny_dataset):
    attrs, data, _ = tiny_dataset
    chance = 1.0 / len(attrs.unseen_ids)
    accs = []
    for seed in (10, 11, 12):
        g = init_generator(attrs.attr_dim, data.feature_dim, 8, SeededRng(seed))
        rep = evaluate("standard", g, attrs, data, EvalConfig(n_synth_per_class=20, seed=seed))
        accs.append(rep.A_u)
    assert abs(np.mean(accs) - chance) <= 0.15


def test_evaluate_transductive_matches_standard_protocol(clean_dataset):
    attrs, data, hidden_map = clean_dataset
    g = oracle_generator(hidden_map)
    cfg = EvalConfig(n_synth_per_class=20, seed=3)
    rep_s = evaluate("standard", g, attrs, data, cfg)
    rep_t = evaluate("transductive", g, attrs, data, cfg)
    assert rep_t.A_u == rep_s.A_u
    assert rep_t.mode == "transductive"


def test_evaluate_deterministic(tiny_dataset):
    attrs, data, _ = tiny_dataset
    g = init_generator(attrs.attr_dim, data.feature_dim, 8, SeededRng(5))
    cfg = EvalConfig(n_synth_per_class=15, seed=6)
    a = evaluate("standard", g, attrs, data, cfg)
    b = evaluate("standard", g, attrs, data, cfg)
    assert a.A_u == b.A_u
    assert a.per_class == b.per_class


def test_evaluate_top_k(clean_dataset):
    attrs, data, hidden_map = clean_dataset
    g = oracle_generator(hidden_map)
    u = len(attrs.unseen_ids)
    rep = evaluate("standard", g, attrs, data,
                   EvalConfig(n_synth_per_class=20, seed=1, top_k=u))
    assert rep.top_k == 1.0
    rep1 = evaluate("standard", g, attrs, data,
                    EvalConfig(n_synth_per_class=20, seed=1, top_k=1))
    assert rep1.top_k == rep1.A_u


def test_evaluate_rejects_bad_inputs(clean_dataset):
    attrs, data, hidden_map = clean_dataset
    g = oracle_generator(hidden_map)
    with pytest.raises(ConfigError, match="unknown evaluation mode"):
        evaluate("zero-shot", g, attrs, data, EvalConfig())
    empty = dataclasses.replace(
        data, unseen_test=(np.zeros((0, data.feature_dim)), np.zeros(0, dtype=np.int64)))
    with pytest.raises(DataFormatError, match="unseen test split"):
        evaluate("standard", g, attrs, empty, EvalConfig())
    no_seen = dataclasses.replace(
        data, seen_test=(np.zeros((0, data.feature_dim)), np.zeros(0, dtype=np.int64)))
    with pytest.raises(DataFormatError, match="seen test split"):
        evaluate("generalized", g, attrs, no_seen, EvalConfig())


# --- report serialization ---

def test_report_json_omits_seen_keys_in_standard(clean_dataset, tmp_path):
    attrs, data, hidden_map = clean_dataset
    g = oracle_generator(hidden_map)
    rep = evaluate("standard", g, attrs, data, EvalConfig(n_synth_per_class=20, seed=1))
    d = report_json_dict(rep)
    assert "A_s" not in d and "H" not in d
    assert d["mode"] == "standard" and d["A_u"] == 1.0

    gz = evaluate("generalized", g, attrs, data,
                  EvalConfig(n_synth_per_class=20, seed=1, classifier=STRONG_CLF))
    dz = report_json_dict(gz)
    assert dz["A_s"] == 1.0 and dz["H"] == 1.0

    path = tmp_path / "report.json"
    save_report(gz, str(path))
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(dz))
    for report in (rep, gz):
        save_report(report, str(path))
        reference_write_json(report_json_dict(report), tmp_path / "ref.json")
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


# --- the one evaluation path against the two branches it replaced ---

def reference_evaluate(mode, g, attrs, data, cfg):
    """evaluate() as it was, with one branch for the unseen-only protocols and
    one for generalized; kept as the reference the one path must equal."""
    rng = SeededRng(cfg.seed)
    synth_rng, clf_rng = rng.split(1), rng.split(2)

    if mode in ("standard", "transductive"):
        classes = attrs.unseen_ids
        feats, labels = synthesize_class_features(g, attrs, classes,
                                                  cfg.n_synth_per_class, synth_rng)
        clf = train_softmax(feats, labels, classes, cfg.classifier, clf_rng)
        test_feats, test_labels = data.unseen_test
        pred = predict_ids(clf, test_feats)
        per_class, a_u = per_class_top1(pred, test_labels, classes)
        top_k = None
        if cfg.top_k is not None:
            scores = classify_scores(clf, test_feats)
            _, top_k = per_class_topk(scores, clf.class_id_map, test_labels,
                                      classes, cfg.top_k)
        return EvalReport(
            mode=mode, per_class=per_class, A_u=a_u, A_s=None, H=None, top_k=top_k,
            n_synth_per_class=cfg.n_synth_per_class, seed=cfg.seed,
        )

    classes = tuple(range(attrs.n_classes))
    feats, labels = synthesize_class_features(g, attrs, classes,
                                              cfg.n_synth_per_class, synth_rng)
    clf = train_softmax(feats, labels, classes, cfg.classifier, clf_rng)

    seen_feats, seen_labels = data.seen_test
    unseen_feats, unseen_labels = data.unseen_test
    pred_seen = predict_ids(clf, seen_feats)
    pred_unseen = predict_ids(clf, unseen_feats)
    per_seen, a_s = per_class_top1(pred_seen, seen_labels, attrs.seen_ids)
    per_unseen, a_u = per_class_top1(pred_unseen, unseen_labels, attrs.unseen_ids)
    top_k = None
    if cfg.top_k is not None:
        scores = np.vstack([classify_scores(clf, seen_feats), classify_scores(clf, unseen_feats)])
        all_labels = np.concatenate([seen_labels, unseen_labels])
        _, top_k = per_class_topk(scores, clf.class_id_map, all_labels, classes, cfg.top_k)
    return EvalReport(
        mode=mode, per_class={**per_seen, **per_unseen}, A_u=a_u, A_s=a_s,
        H=harmonic_mean(a_s, a_u), top_k=top_k,
        n_synth_per_class=cfg.n_synth_per_class, seed=cfg.seed,
    )


@pytest.fixture(scope="module")
def noisy_dataset():
    """Noisy enough that a blurred oracle generator scores strictly between 0
    and 1 on most classes under every protocol, and differently for different
    synthesis and classifier streams, so a mixed-up class, split or stream shows."""
    return make_synthetic_dataset(dataclasses.replace(TINY_SPEC, noise_sigma=1.0))


@pytest.mark.parametrize("top_k", [None, 1, "all"])
@pytest.mark.parametrize("mode", PROTOCOLS)
def test_evaluate_matches_two_branch_reference(noisy_dataset, mode, top_k):
    attrs, data, hidden_map = noisy_dataset
    g = oracle_generator(hidden_map, noise_gain=0.5)
    if top_k == "all":
        top_k = attrs.n_classes if mode == "generalized" else len(attrs.unseen_ids)
    # minibatches smaller than the training set, so the classifier's stream matters
    cfg = EvalConfig(n_synth_per_class=12, seed=3, top_k=top_k,
                     classifier=ClassifierConfig(batch_size=8, epochs=20))
    got = evaluate(mode, g, attrs, data, cfg)
    want = reference_evaluate(mode, g, attrs, data, cfg)
    for field in ("mode", "per_class", "A_u", "A_s", "H", "top_k",
                  "n_synth_per_class", "seed"):
        assert getattr(got, field) == getattr(want, field), field
    assert (got.top_k is None) == (top_k is None)


def test_generalized_classifier_learns_from_generated_rows_only(noisy_dataset, monkeypatch):
    """The real seen training rows never reach the classifier: it sees
    exactly n_synth_per_class generated rows per class, and swapping the
    seen training features for other rows leaves the report as it was."""
    attrs, data, hidden_map = noisy_dataset
    g = oracle_generator(hidden_map, noise_gain=0.5)
    cfg = EvalConfig(n_synth_per_class=12, seed=3,
                     classifier=ClassifierConfig(batch_size=8, epochs=20))
    rows = []

    def spy(features, *args):
        rows.append(np.asarray(features).shape[0])
        return train_softmax(features, *args)

    # the package's `evaluate` attribute is the function, so fetch the module itself
    monkeypatch.setattr(importlib.import_module("otzsl.evaluate"), "train_softmax", spy)
    feats, labels = data.seen_train
    swapped = dataclasses.replace(data, seen_train=(-feats[::-1], labels))
    got = evaluate("generalized", g, attrs, data, cfg)
    assert evaluate("generalized", g, attrs, swapped, cfg) == got
    assert rows == [attrs.n_classes * cfg.n_synth_per_class] * 2


def test_train_softmax_checks_one_vector_a_batch(monkeypatch):
    """W and b are one vector, so each minibatch update makes one finiteness
    check of the whole classifier, not one per block."""
    rng = SeededRng(6)
    feats, labels = rng.gaussian(40 * 5).reshape(40, 5), np.repeat([3, 7], 20)
    checked = count_finiteness_checks(monkeypatch)
    train_softmax(feats, labels, (3, 7), ClassifierConfig(epochs=3, batch_size=16), rng)
    assert checked == [2 * 5 + 2] * (3 * 3)  # 3 epochs of 3 batches
