"""Dataset containers, the synthetic benchmark generator, and file I/O.

On disk a dataset directory holds attributes.csv (one row per class),
features.csv (one row per sample), and split.json (seen/unseen class ids plus
row indices for each split). Floats are written with 17 significant digits so
save/load round-trips are bit-exact. All files are UTF-8 with LF endings.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .rng import SeededRng

UNLABELED = -1

SPLIT_KEYS = (
    "seen",
    "unseen",
    "seen_train_rows",
    "seen_test_rows",
    "unseen_test_rows",
    "unseen_unlabeled_rows",
)


@dataclass
class AttributeMatrix:
    """Per-class attribute vectors (row c describes class c) with the
    seen/unseen partition."""

    attrs: np.ndarray
    seen_ids: tuple[int, ...]
    unseen_ids: tuple[int, ...]

    def __post_init__(self):
        self.attrs = np.asarray(self.attrs, dtype=np.float64)
        self.seen_ids = tuple(int(c) for c in self.seen_ids)
        self.unseen_ids = tuple(int(c) for c in self.unseen_ids)
        if self.attrs.ndim != 2 or self.attrs.shape[0] < 1:
            raise DataFormatError(f"attribute matrix must be 2-D, got shape {self.attrs.shape}")
        if not np.all(np.isfinite(self.attrs)):
            raise DataFormatError("attribute matrix has a non-finite entry")
        n = self.attrs.shape[0]
        seen, unseen = set(self.seen_ids), set(self.unseen_ids)
        if seen & unseen:
            raise DataFormatError(f"classes {sorted(seen & unseen)} are both seen and unseen")
        if seen | unseen != set(range(n)):
            raise DataFormatError(
                f"seen+unseen ids must cover classes 0..{n - 1}, got {sorted(seen | unseen)}"
            )
        norms = np.linalg.norm(self.attrs, axis=1)
        if np.any(norms == 0.0):
            bad = int(np.flatnonzero(norms == 0.0)[0])
            raise DataFormatError(f"class {bad} has a zero-norm attribute vector")
        for i in range(n):
            for j in range(i + 1, n):
                if np.array_equal(self.attrs[i], self.attrs[j]):
                    raise DataFormatError(f"classes {i} and {j} have identical attributes")

    @property
    def attr_dim(self) -> int:
        return self.attrs.shape[1]

    @property
    def n_classes(self) -> int:
        return self.attrs.shape[0]


def _check_split(features: np.ndarray, labels: np.ndarray, what: str):
    if features.ndim != 2:
        raise DataFormatError(f"{what} features must be 2-D, got shape {features.shape}")
    if labels.shape != (features.shape[0],):
        raise DataFormatError(
            f"{what} has {features.shape[0]} rows but {labels.shape[0]} labels"
        )
    if not np.all(np.isfinite(features)):
        raise DataFormatError(f"{what} features contain a non-finite value")
    if features.shape[0]:
        norms = np.linalg.norm(features, axis=1)
        if np.any(norms == 0.0):
            bad = int(np.flatnonzero(norms == 0.0)[0])
            raise DataFormatError(f"{what} row {bad} has zero norm")


@dataclass
class FeatureDataset:
    """Labeled splits plus the optional unlabeled pool used by transductive
    training. Each labeled split is a (features, class ids) pair."""

    seen_train: tuple[np.ndarray, np.ndarray]
    seen_test: tuple[np.ndarray, np.ndarray]
    unseen_test: tuple[np.ndarray, np.ndarray]
    unseen_unlabeled: np.ndarray

    def __post_init__(self):
        splits = {}
        for name in ("seen_train", "seen_test", "unseen_test"):
            feats, labels = getattr(self, name)
            feats = np.asarray(feats, dtype=np.float64)
            labels = np.asarray(labels, dtype=np.int64).reshape(-1)
            _check_split(feats, labels, name)
            if feats.shape[0] and labels.min() < 0:
                raise DataFormatError(f"{name} has a negative class id")
            splits[name] = (feats, labels)
            setattr(self, name, (feats, labels))
        pool = np.asarray(self.unseen_unlabeled, dtype=np.float64)
        if pool.size == 0:
            pool = pool.reshape(0, self.feature_dim_of(splits))
        elif pool.ndim == 1:
            pool = pool[None, :]
        _check_split(pool, np.zeros(pool.shape[0], dtype=np.int64), "unseen_unlabeled")
        self.unseen_unlabeled = pool
        dims = {splits[n][0].shape[1] for n in splits if splits[n][0].size} | (
            {pool.shape[1]} if pool.size else set()
        )
        if len(dims) > 1:
            raise DataFormatError(f"splits disagree on feature dimension: {sorted(dims)}")

    @staticmethod
    def feature_dim_of(splits) -> int:
        for feats, _ in splits.values():
            if feats.size:
                return feats.shape[1]
        return 0

    @property
    def feature_dim(self) -> int:
        return self.seen_train[0].shape[1]


def check_dataset(attrs: AttributeMatrix, data: FeatureDataset) -> None:
    """Cross-validate labels against the class partition."""
    seen, unseen = set(attrs.seen_ids), set(attrs.unseen_ids)
    for name, allowed in (("seen_train", seen), ("seen_test", seen), ("unseen_test", unseen)):
        labels = getattr(data, name)[1]
        extra = set(labels.tolist()) - allowed
        if extra:
            raise DataFormatError(f"{name} labels {sorted(extra)} fall outside the expected classes")


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale benchmark: binary class attributes, a hidden linear map to
    prototypes, isotropic gaussian samples around each prototype."""

    seen_classes: int = 8
    unseen_classes: int = 4
    attr_dim: int = 16
    feature_dim: int = 32
    samples_per_class: int = 60
    noise_sigma: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.seen_classes < 2:
            raise ValueError("need at least 2 seen classes")
        if self.unseen_classes < 1:
            raise ValueError("need at least 1 unseen class")
        if self.samples_per_class < 4:
            raise ValueError("need at least 4 samples per class")
        if min(self.attr_dim, self.feature_dim) < 1:
            raise ValueError("dimensions must be positive")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")


def make_synthetic_dataset(spec: SyntheticSpec) -> tuple[AttributeMatrix, FeatureDataset, np.ndarray]:
    """Build the benchmark; also returns the hidden map (feature_dim, attr_dim)
    whose columns define class prototypes, for oracle-style tests."""
    rng = SeededRng(spec.seed)
    attr_rng, map_rng, noise_rng, split_rng = (rng.split(i) for i in (1, 2, 3, 4))
    n_classes = spec.seen_classes + spec.unseen_classes

    rows = []
    for _ in range(n_classes):
        for attempt in range(101):
            cand = (attr_rng.uniform(spec.attr_dim) < 0.5).astype(np.float64)
            fresh = cand.sum() > 0 and not any(np.array_equal(cand, r) for r in rows)
            if fresh:
                break
        if not fresh:
            raise DataFormatError("could not draw distinct attribute vectors after 100 redraws")
        rows.append(cand)
    attr_rows = np.stack(rows)

    hidden_map = map_rng.gaussian(spec.feature_dim * spec.attr_dim).reshape(
        spec.feature_dim, spec.attr_dim
    ) / np.sqrt(spec.attr_dim)
    prototypes = attr_rows @ hidden_map.T

    feats, labels = [], []
    for c in range(n_classes):
        noise = noise_rng.gaussian(spec.samples_per_class * spec.feature_dim).reshape(
            spec.samples_per_class, spec.feature_dim
        )
        feats.append(prototypes[c] + spec.noise_sigma * noise)
        labels.append(np.full(spec.samples_per_class, c, dtype=np.int64))
    feats = np.vstack(feats)
    labels = np.concatenate(labels)

    seen_ids = tuple(range(spec.seen_classes))
    unseen_ids = tuple(range(spec.seen_classes, n_classes))
    train_idx, test_idx, unseen_idx = [], [], []
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        if c in seen_ids:
            order = idx[split_rng.permutation(idx.size)]
            cut = int(0.7 * idx.size)
            train_idx.extend(order[:cut].tolist())
            test_idx.extend(order[cut:].tolist())
        else:
            unseen_idx.extend(idx.tolist())
    train_idx = np.asarray(train_idx, dtype=np.int64)
    test_idx = np.asarray(test_idx, dtype=np.int64)
    unseen_idx = np.asarray(unseen_idx, dtype=np.int64)

    attrs = AttributeMatrix(attr_rows, seen_ids, unseen_ids)
    dataset = FeatureDataset(
        seen_train=(feats[train_idx], labels[train_idx]),
        seen_test=(feats[test_idx], labels[test_idx]),
        unseen_test=(feats[unseen_idx], labels[unseen_idx]),
        unseen_unlabeled=feats[unseen_idx],
    )
    check_dataset(attrs, dataset)
    return attrs, dataset, hidden_map


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def export_features_csv(features, labels, path: str) -> None:
    """Write `class_id,x_1,...,x_D` rows; lossless float round-trip."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if features.shape[0] != labels.shape[0]:
        raise ValueError(f"{features.shape[0]} rows but {labels.shape[0]} labels")
    dim = features.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("class_id," + ",".join(f"x_{j + 1}" for j in range(dim)) + "\n")
        for lab, row in zip(labels, features):
            fh.write(str(int(lab)) + "," + ",".join(_fmt(v) for v in row) + "\n")


def _read_csv_rows(path: str, expected_prefix: str):
    if not os.path.isfile(path):
        raise DataFormatError(f"missing file: {path}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(expected_prefix):
        raise DataFormatError(f"{path}: expected header starting with '{expected_prefix}'")
    width = len(lines[0].split(","))
    out = []
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise DataFormatError(f"{path}:{i}: expected {width} columns, got {len(parts)}")
        try:
            out.append((int(parts[0]), [float(p) for p in parts[1:]]))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{i}: {exc}") from None
    return out


def save_dataset(dir_path: str, attrs: AttributeMatrix, data: FeatureDataset) -> None:
    os.makedirs(dir_path, exist_ok=True)
    with open(os.path.join(dir_path, "attributes.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("class_id," + ",".join(f"a_{j + 1}" for j in range(attrs.attr_dim)) + "\n")
        for c in range(attrs.n_classes):
            fh.write(str(c) + "," + ",".join(_fmt(v) for v in attrs.attrs[c]) + "\n")

    blocks = [data.seen_train, data.seen_test, data.unseen_test]
    feats = [b[0] for b in blocks]
    labels = [b[1] for b in blocks]
    pool_is_test = data.unseen_unlabeled.shape == data.unseen_test[0].shape and np.array_equal(
        data.unseen_unlabeled, data.unseen_test[0]
    )
    if not pool_is_test and data.unseen_unlabeled.shape[0]:
        feats.append(data.unseen_unlabeled)
        labels.append(np.full(data.unseen_unlabeled.shape[0], UNLABELED, dtype=np.int64))
    all_feats = np.vstack(feats)
    all_labels = np.concatenate(labels)
    export_features_csv(all_feats, all_labels, os.path.join(dir_path, "features.csv"))

    sizes = [b[0].shape[0] for b in blocks]
    offsets = np.cumsum([0] + sizes)
    unseen_rows = list(range(offsets[2], offsets[3]))
    if pool_is_test:
        pool_rows = unseen_rows
    else:
        pool_rows = list(range(offsets[3], offsets[3] + data.unseen_unlabeled.shape[0]))
    split = {
        "seen": list(attrs.seen_ids),
        "unseen": list(attrs.unseen_ids),
        "seen_train_rows": list(range(offsets[0], offsets[1])),
        "seen_test_rows": list(range(offsets[1], offsets[2])),
        "unseen_test_rows": unseen_rows,
        "unseen_unlabeled_rows": pool_rows,
    }
    with open(os.path.join(dir_path, "split.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(split, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(dir_path: str) -> tuple[AttributeMatrix, FeatureDataset]:
    """Read and fully validate a dataset directory; no partially valid object
    ever escapes this function."""
    attr_rows = _read_csv_rows(os.path.join(dir_path, "attributes.csv"), "class_id,a_1")
    ids = [r[0] for r in attr_rows]
    if sorted(ids) != list(range(len(ids))):
        raise DataFormatError(f"attributes.csv class ids must be 0..{len(ids) - 1}, got {ids}")
    attr_matrix = np.zeros((len(ids), len(attr_rows[0][1])))
    for cid, vals in attr_rows:
        attr_matrix[cid] = vals

    feat_rows = _read_csv_rows(os.path.join(dir_path, "features.csv"), "class_id,x_1")
    features = np.array([r[1] for r in feat_rows]) if feat_rows else np.zeros((0, 0))
    labels = np.array([r[0] for r in feat_rows], dtype=np.int64)

    split_path = os.path.join(dir_path, "split.json")
    if not os.path.isfile(split_path):
        raise DataFormatError(f"missing file: {split_path}")
    with open(split_path, encoding="utf-8") as fh:
        try:
            split = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{split_path}: {exc}") from None
    if set(split) != set(SPLIT_KEYS):
        raise DataFormatError(
            f"{split_path}: expected keys {sorted(SPLIT_KEYS)}, got {sorted(split)}"
        )

    n_rows = features.shape[0]
    arrays = {}
    for key in SPLIT_KEYS[2:]:
        idx = np.asarray(split[key], dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
            raise DataFormatError(f"{split_path}: {key} references rows outside 0..{n_rows - 1}")
        arrays[key] = idx

    unknown = (set(split["seen"]) | set(split["unseen"])) - set(range(len(ids)))
    if unknown:
        raise DataFormatError(f"{split_path}: classes {sorted(unknown)} absent from attributes.csv")

    attrs = AttributeMatrix(attr_matrix, tuple(split["seen"]), tuple(split["unseen"]))
    for key in ("seen_train_rows", "seen_test_rows", "unseen_test_rows"):
        bad = np.flatnonzero(labels[arrays[key]] == UNLABELED)
        if bad.size:
            raise DataFormatError(f"{split_path}: {key} includes unlabeled row {arrays[key][bad[0]]}")
    dataset = FeatureDataset(
        seen_train=(features[arrays["seen_train_rows"]], labels[arrays["seen_train_rows"]]),
        seen_test=(features[arrays["seen_test_rows"]], labels[arrays["seen_test_rows"]]),
        unseen_test=(features[arrays["unseen_test_rows"]], labels[arrays["unseen_test_rows"]]),
        unseen_unlabeled=features[arrays["unseen_unlabeled_rows"]],
    )
    check_dataset(attrs, dataset)
    return attrs, dataset


def save_matrix_csv(matrix, path: str) -> None:
    """Generic dense-matrix CSV: a `rows,cols` header line, a dimension line,
    then the row-major values."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rows,cols\n")
        fh.write(f"{matrix.shape[0]},{matrix.shape[1]}\n")
        for row in matrix:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def load_matrix_csv(path: str) -> np.ndarray:
    if not os.path.isfile(path):
        raise DataFormatError(f"missing file: {path}")
    with open(path, encoding="utf-8") as fh:
        lines = [(i, ln) for i, ln in enumerate(fh.read().splitlines(), start=1) if ln]
    if len(lines) < 2 or lines[0][1] != "rows,cols":
        raise DataFormatError(f"{path}:1: expected 'rows,cols' header")
    try:
        n, m = (int(p) for p in lines[1][1].split(","))
    except ValueError:
        raise DataFormatError(f"{path}:{lines[1][0]}: expected two integer dimensions") from None
    rows = lines[2:]
    if len(rows) != n:
        raise DataFormatError(f"{path}: expected {n} data rows, found {len(rows)}")
    out = np.zeros((n, m))
    for r, (i, line) in enumerate(rows):
        parts = line.split(",")
        if len(parts) != m:
            raise DataFormatError(f"{path}:{i}: expected {m} columns, got {len(parts)}")
        try:
            out[r] = [float(p) for p in parts]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{i}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        r, col = divmod(int(bad[0]), m)
        raise DataFormatError(f"{path}:{rows[r][0]}: column {col + 1} is not a finite number")
    return out
