"""Classifier training on generated features and the three test protocols.

standard / transductive: a U-way linear softmax classifier is trained purely
on features generated for the unseen classes and scored on the real unseen
test split (mean per-class top-1, optionally top-k).

generalized: an (S+U)-way classifier is trained on features generated for all
classes and scored on both test splits; the headline number is the harmonic
mean of the seen and unseen per-class accuracies (Xian et al. 2017, arXiv
1707.00600).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AttributeMatrix, FeatureDataset, write_json
from .errors import ConfigError, DataFormatError, SolverError
from .generator import GeneratorParams
from .linalg import log_softmax_rows
from .mlp import adam_init, adam_step
from .rng import SeededRng
from .training import synthesize_class_features

PROTOCOLS = ("standard", "generalized", "transductive")
# The test splits that each protocol scores, the seen split first; the CLI
# loads only these.
PROTOCOL_SPLITS = {"standard": ("unseen_test",), "generalized": ("seen_test", "unseen_test"),
                   "transductive": ("unseen_test",)}


@dataclass(frozen=True)
class ClassifierConfig:
    learning_rate: float = 0.001
    epochs: int = 50
    batch_size: int = 128

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be at least 1")


@dataclass
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
    for c in classes:
        if not np.any(labels == c):
            raise ValueError(f"class {c} has no training samples")
    unknown = set(labels.tolist()) - set(classes)
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} missing from the class list")
    y = np.array([local[int(c)] for c in labels], dtype=np.int64)

    k = len(classes)
    params, grad = np.zeros(k * dim + k), np.empty(k * dim + k)  # one vector each: one Adam pass
    (W, b), (dW, db) = ((v[:k * dim].reshape(k, dim), v[k * dim:]) for v in (params, grad))
    state = adam_init([W, b], learning_rate=cfg.learning_rate)
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


def classify_scores(clf: ClassifierParams, features) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return features @ clf.W.T + clf.b


def predict_ids(clf: ClassifierParams, features) -> np.ndarray:
    scores = classify_scores(clf, features)
    ids = np.asarray(clf.class_id_map, dtype=np.int64)
    return ids[scores.argmax(axis=1)]


def _per_class_mean(hits: np.ndarray, labels: np.ndarray, classes):
    """Within-class means of per-sample hits, packed as per_class_top1 returns them."""
    per_class = {}
    for c in classes:
        mask = labels == c
        if mask.any():
            per_class[int(c)] = float(hits[mask].mean())
    mean = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, mean


def per_class_top1(predictions, labels, classes):
    """Within-class accuracies and their unweighted mean, as (per-class dict,
    mean); a class with no test samples gets no entry and no weight."""
    predictions = np.asarray(predictions, dtype=np.int64).reshape(-1)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if predictions.shape != labels.shape:
        raise ValueError(f"{predictions.shape[0]} predictions vs {labels.shape[0]} labels")
    return _per_class_mean(predictions == labels, labels, classes)


def per_class_topk(scores, class_id_map, labels, classes, k: int):
    """Like per_class_top1 but a sample counts as correct when its label is
    among its k highest-scoring classes."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    ids = np.asarray(class_id_map, dtype=np.int64)
    if not 1 <= k <= ids.size:
        raise ValueError(f"k must be in 1..{ids.size}, got {k}")
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return _per_class_mean((ids[order] == labels[:, None]).any(axis=1), labels, classes)


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
    n_synth_per_class: int = 100
    seed: int = 0
    top_k: int | None = None
    classifier: ClassifierConfig = ClassifierConfig()

    def __post_init__(self):
        if self.n_synth_per_class < 1:
            raise ConfigError(f"n_synth_per_class must be positive, got {self.n_synth_per_class}")
        if self.top_k is not None and self.top_k < 1:
            raise ConfigError(f"top_k must be positive, got {self.top_k}")


@dataclass
class EvalReport:
    mode: str
    per_class: dict[int, float]
    A_u: float
    A_s: float | None
    H: float | None
    top_k: float | None
    n_synth_per_class: int
    seed: int


def protocol(mode: str, attrs: AttributeMatrix, data: FeatureDataset,
             top_k: int | None = None):
    """What protocol `mode` varies: the class ids its classifier ranks, and
    the test splits it scores, each paired with the class ids it is scored
    on. Generalized takes every class and both splits, the seen split first;
    the others take the unseen ones. A mode outside PROTOCOLS or a top_k
    above the class count is a ConfigError, an empty test split a
    DataFormatError."""
    if mode not in PROTOCOLS:
        raise ConfigError(f"unknown evaluation mode {mode!r}")
    classes = tuple(range(attrs.n_classes)) if mode == "generalized" else attrs.unseen_ids
    if top_k is not None and top_k > len(classes):
        raise ConfigError(f"top_k must be at most {len(classes)}, the class count of "
                          f"{mode} evaluation, got {top_k}")
    if data.unseen_test[0].shape[0] == 0:
        raise DataFormatError("unseen test split is empty; nothing to evaluate")
    if mode == "generalized" and data.seen_test[0].shape[0] == 0:
        raise DataFormatError("seen test split is empty; generalized mode needs it")
    ids = {"seen_test": attrs.seen_ids, "unseen_test": attrs.unseen_ids}
    return classes, [(getattr(data, name), ids[name]) for name in PROTOCOL_SPLITS[mode]]


def evaluate(mode: str, g: GeneratorParams, attrs: AttributeMatrix,
             data: FeatureDataset, cfg: EvalConfig) -> EvalReport:
    """Train a classifier on generated features only, n_synth_per_class for
    each class the protocol ranks, and score it under one of PROTOCOLS. The
    protocol picks only the classes and the test splits (each scored on its
    own class ids); the rest is one path for all three."""
    classes, tests = protocol(mode, attrs, data, cfg.top_k)
    rng = SeededRng(cfg.seed)
    feats, labels = synthesize_class_features(g, attrs, classes, cfg.n_synth_per_class,
                                              rng.split(1))
    clf = train_softmax(feats, labels, classes, cfg.classifier, rng.split(2))

    # one prediction call per test split: a stacked matmul can differ in the low bits
    preds = [predict_ids(clf, x) for (x, _), _ in tests]
    scored = [per_class_top1(p, y, ids) for p, ((_, y), ids) in zip(preds, tests)]
    top_k = None
    if cfg.top_k is not None:
        true = np.concatenate([y for (_, y), _ in tests])
        scores = np.vstack([classify_scores(clf, x) for (x, _), _ in tests])
        _, top_k = per_class_topk(scores, clf.class_id_map, true, classes, cfg.top_k)
    a_u = scored[-1][1]
    a_s = scored[0][1] if len(tests) == 2 else None  # the seen split comes first
    return EvalReport(
        mode=mode, per_class={c: v for per, _ in scored for c, v in per.items()},
        A_u=a_u, A_s=a_s, H=None if a_s is None else harmonic_mean(a_s, a_u), top_k=top_k,
        n_synth_per_class=cfg.n_synth_per_class, seed=cfg.seed,
    )


def report_json_dict(report: EvalReport) -> dict:
    """JSON form of a report; seen-side keys appear only when measured."""
    out = {
        "mode": report.mode,
        "per_class": {str(c): v for c, v in sorted(report.per_class.items())},
        "A_u": report.A_u,
        "top_k": report.top_k,
        "n_synth_per_class": report.n_synth_per_class,
        "seed": report.seed,
    }
    if report.A_s is not None:
        out["A_s"] = report.A_s
        out["H"] = report.H
    return out


def save_report(report: EvalReport, path: str) -> None:
    write_json(report_json_dict(report), path)
