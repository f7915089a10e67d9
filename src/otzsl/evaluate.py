"""Classifier training on generated features and the three test protocols.

standard / transductive: a U-way linear softmax classifier is trained purely
on features generated for the unseen classes and scored on the real unseen
test split by mean per-class top-1 accuracy.

generalized: an (S+U)-way classifier is trained on features generated for all
classes and scored on both test splits; the headline number is the harmonic
mean of the seen and unseen per-class accuracies (Xian et al. 2017, arXiv
1707.00600).

Every protocol scores top-1 only, as the paper does; report.json still holds
a "top_k" key, always null, so that its key set stays what readers of earlier
reports expect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AttributeMatrix, FeatureDataset, write_json
from .errors import DataFormatError, SolverError, check_fields, check_value, knob
from .generator import GeneratorParams, synthesize_class_features
from .linalg import log_softmax_rows
from .mlp import adam_init, adam_step
from .rng import SEED_BOUNDS, SeededRng

PROTOCOLS = ("standard", "generalized", "transductive")
# The test splits that each protocol scores, the seen split first; the CLI
# loads only these.
PROTOCOL_SPLITS = {"standard": ("unseen_test",), "generalized": ("seen_test", "unseen_test"),
                   "transductive": ("unseen_test",)}


@dataclass(frozen=True)
class ClassifierConfig:
    learning_rate: float = knob(0.001, above=0)
    epochs: int = knob(50, at_least=1)
    batch_size: int = knob(128, at_least=1)

    __post_init__ = check_fields


@dataclass(eq=False)
class ClassifierParams:
    """Linear softmax classifier; row c of W scores class class_id_map[c]."""

    W: np.ndarray
    b: np.ndarray
    class_id_map: tuple[int, ...]

    def __post_init__(self):
        self.class_id_map = tuple(int(c) for c in self.class_id_map)
        if len(set(self.class_id_map)) != len(self.class_id_map):
            raise ValueError("class_id_map has duplicates")
        if self.W.shape[0] != len(self.class_id_map) or self.b.shape != (self.W.shape[0],):
            raise ValueError(
                f"inconsistent classifier shapes: W {self.W.shape}, b {self.b.shape}, "
                f"{len(self.class_id_map)} classes"
            )


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def train_softmax(features, labels, classes, cfg: ClassifierConfig,
                  rng: SeededRng) -> ClassifierParams:
    """Minimize mean cross-entropy with Adam from a zero initialization;
    minibatch order is reshuffled each epoch from the given stream. A blow-up
    is a SolverError naming its epoch and batch, never a numpy warning."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    classes = tuple(int(c) for c in classes)
    n, dim = features.shape
    if labels.shape[0] != n:
        raise ValueError(f"{n} rows but {labels.shape[0]} labels")
    local = {c: i for i, c in enumerate(classes)}
    for i, c in enumerate(classes):
        if c in classes[:i]:
            raise ValueError(f"class {c} is listed twice in the class list")
        if not np.any(labels == c):
            raise ValueError(f"class {c} has no training samples")
    unknown = set(labels.tolist()) - set(classes)
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} missing from the class list")
    y = np.array([local[int(c)] for c in labels], dtype=np.int64)

    k = len(classes)
    params, grad = np.zeros(k * dim + k), np.empty(k * dim + k)  # one vector each: one Adam pass
    (W, b), (dW, db) = ((v[:k * dim].reshape(k, dim), v[k * dim:]) for v in (params, grad))
    state = adam_init([params], cfg.learning_rate)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            x = features[idx]
            log_p = log_softmax_rows(x @ W.T + b)
            grad_logits = np.exp(log_p)
            grad_logits[np.arange(idx.size), y[idx]] -= 1.0
            grad_logits /= idx.size
            np.matmul(grad_logits.T, x, out=dW)
            grad_logits.sum(axis=0, out=db)
            try:
                adam_step([params], [grad], state)
            except ValueError as exc:
                raise SolverError(f"classifier epoch {epoch} batch {batch}: {exc}") from None
    return ClassifierParams(W=W, b=b, class_id_map=classes)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite score raises below instead
def predict_ids(clf: ClassifierParams, features) -> np.ndarray:
    """The class id of the top score of each feature row; a row with a score
    that is not finite is a SolverError naming the first such row."""
    scores = np.atleast_2d(np.asarray(features, dtype=np.float64)) @ clf.W.T + clf.b
    if not np.isfinite(scores).all():
        row = int(np.flatnonzero(~np.isfinite(scores).all(axis=1))[0])
        raise SolverError(f"the classifier's scores of row {row} are not finite")
    return np.asarray(clf.class_id_map, dtype=np.int64)[scores.argmax(axis=1)]


def per_class_top1(predictions, labels, classes):
    """Within-class accuracies and their unweighted mean, as (per-class dict,
    mean); a class with no test samples gets no entry and no weight."""
    predictions = np.asarray(predictions, dtype=np.int64).reshape(-1)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if predictions.shape != labels.shape:
        raise ValueError(f"{predictions.shape[0]} predictions vs {labels.shape[0]} labels")
    hits, per_class = predictions == labels, {}
    for c in classes:
        mask = labels == c
        if mask.any():
            per_class[int(c)] = float(hits[mask].mean())
    mean = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, mean


def harmonic_mean(a_s: float, a_u: float) -> float:
    """2 a b / (a + b), with the both-zero case defined as 0."""
    for name, v in (("seen accuracy", a_s), ("unseen accuracy", a_u)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} {v} outside [0, 1]")
    if a_s == a_u:
        # exact by definition; also covers the 0/0 case, and the formula
        # below would drift an ulp for some equal inputs
        return a_s
    return 2.0 * a_s * a_u / (a_s + a_u)


@dataclass(frozen=True)
class EvalConfig:
    n_synth_per_class: int = knob(100, at_least=1)
    seed: int = knob(0, **SEED_BOUNDS)
    classifier: ClassifierConfig = ClassifierConfig()

    __post_init__ = check_fields


def protocol(mode: str, attrs: AttributeMatrix, data: FeatureDataset):
    """What protocol `mode` varies: the class ids its classifier ranks, and
    the names of the test splits it scores, each paired with the class ids
    it is scored on. Generalized takes every class and both splits, the seen
    split first; the others take the unseen ones. A mode outside PROTOCOLS
    is a ConfigError, an empty test split a DataFormatError."""
    check_value("mode", mode, str, PROTOCOLS)
    classes = tuple(range(attrs.n_classes)) if mode == "generalized" else attrs.unseen_ids
    if data.rows["unseen_test"].size == 0:
        raise DataFormatError("unseen test split is empty; nothing to evaluate")
    if mode == "generalized" and data.rows["seen_test"].size == 0:
        raise DataFormatError("seen test split is empty; generalized mode needs it")
    ids = {"seen_test": attrs.seen_ids, "unseen_test": attrs.unseen_ids}
    return classes, [(name, ids[name]) for name in PROTOCOL_SPLITS[mode]]


def evaluate(mode: str, g: GeneratorParams, attrs: AttributeMatrix,
             data: FeatureDataset, cfg: EvalConfig) -> dict:
    """Train a classifier on generated features only, n_synth_per_class for
    each class the protocol ranks, and score it under one of PROTOCOLS. The
    protocol picks only the classes and the test splits (each scored on its
    own class ids); the rest is one path for all three. Returns what
    report.json holds: mode, per_class (keyed by class id string), A_u,
    top_k (always None), n_synth_per_class, seed and, in generalized mode
    only, A_s and H."""
    classes, tests = protocol(mode, attrs, data)
    rng = SeededRng(cfg.seed)
    feats, labels = synthesize_class_features(g, attrs, classes, cfg.n_synth_per_class,
                                              rng.split(1))
    clf = train_softmax(feats, labels, classes, cfg.classifier, rng.split(2))
    del feats, labels  # the generated rows, freed before a test split is copied out

    # one prediction call per test split: a stacked matmul can differ in the low bits
    scored = []
    for name, ids in tests:
        x, y = data.split(name)
        try:
            preds = predict_ids(clf, x)
        except SolverError as exc:
            raise SolverError(f"{name}: {exc}") from None
        scored.append(per_class_top1(preds, y, ids))
    report = {"mode": mode, "per_class": {str(c): v for per, _ in scored for c, v in per.items()},
              "A_u": scored[-1][1], "top_k": None, "n_synth_per_class": cfg.n_synth_per_class,
              "seed": cfg.seed}
    if len(tests) == 2:  # the seen split comes first
        report["A_s"] = scored[0][1]
        report["H"] = harmonic_mean(report["A_s"], report["A_u"])
    return report


def save_report(report: dict, path: str) -> None:
    write_json(report, path)
