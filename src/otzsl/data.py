"""Dataset containers, the synthetic benchmark generator, and file I/O.

On disk a dataset directory holds attributes.csv (one row per class),
features.csv (one row per sample), and split.json (seen/unseen class ids plus
row indices for each split). These CSVs and the matrix CSVs share one codec:
it writes each float as `%.17g`, so round-trips are bit-exact, and reads every
cell in one `np.loadtxt(..., comments=None)` call, so a cell like `2#3` is an
error rather than 2. All files are UTF-8 with LF endings.
"""

from __future__ import annotations

import json
import os
import re
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


def _write_csv(path: str, header: str, values: np.ndarray, ids=None) -> None:
    """Write `header`, then each row of `values` as `%.17g` floats (a lossless
    round-trip), led by the row's integer id when `ids` is given."""
    fmt = ",".join(["%.17g"] * values.shape[1]) + "\n"
    lead = [""] * len(values) if ids is None else [f"{i}," for i in ids.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(p + fmt % tuple(row.tolist()) for p, row in zip(lead, values))


def _read_lines(path: str) -> list[tuple[int, str]]:
    """The non-blank lines of a text file, each with its 1-based number."""
    if not os.path.isfile(path):
        raise DataFormatError(f"missing file: {path}")
    with open(path, encoding="utf-8") as fh:
        return [(i, ln) for i, ln in enumerate(fh.read().splitlines(), start=1) if ln]


def _parse_rows(path: str, rows: list[tuple[int, str]], width: int) -> np.ndarray:
    """Parse numbered CSV lines of `width` cells each into a finite float64
    array with one numpy call; every failure names its `path:line`."""
    for i, line in rows:
        if line.count(",") + 1 != width:
            raise DataFormatError(f"{path}:{i}: expected {width} columns, got {line.count(',') + 1}")
    if not rows:  # loadtxt would warn and return shape (0, 1)
        return np.zeros((0, width))
    try:  # comments=None, or loadtxt reads the cell `2#3` as 2
        values = np.loadtxt([ln for _, ln in rows], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        for i, line in rows:  # only to name the first line that does not parse
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError as exc:  # numpy counts rows from 0 within the one line it got
                raise DataFormatError(f"{path}:{i}: {exc}".replace("at row 0, ", "at ")) from None
        raise
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, col = bad[0]
        raise DataFormatError(f"{path}:{rows[r][0]}: column {col + 1} is not a finite number")
    return values


def _read_labeled_csv(path: str, header_prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """The class ids and the values of an attributes.csv or features.csv."""
    lines = _read_lines(path)
    if not lines or not lines[0][1].startswith(header_prefix):
        raise DataFormatError(f"{path}: expected header starting with '{header_prefix}'")
    values = _parse_rows(path, lines[1:], lines[0][1].count(",") + 1)
    for i, line in lines[1:]:
        cid = line[:line.index(",")]
        if not re.fullmatch(r"\s*[+-]?[0-9]{1,15}\s*", cid):  # 15 digits stay exact as floats
            raise DataFormatError(f"{path}:{i}: class id {cid!r} is not an integer")
    return values[:, 0].astype(np.int64), values[:, 1:]


def export_features_csv(features, labels, path: str) -> None:
    """Write `class_id,x_1,...,x_D` rows; lossless float round-trip."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if features.shape[0] != labels.shape[0]:
        raise ValueError(f"{features.shape[0]} rows but {labels.shape[0]} labels")
    header = "class_id," + ",".join(f"x_{j + 1}" for j in range(features.shape[1]))
    _write_csv(path, header, features, labels)


def save_dataset(dir_path: str, attrs: AttributeMatrix, data: FeatureDataset) -> None:
    os.makedirs(dir_path, exist_ok=True)
    header = "class_id," + ",".join(f"a_{j + 1}" for j in range(attrs.attr_dim))
    _write_csv(os.path.join(dir_path, "attributes.csv"), header, attrs.attrs,
               np.arange(attrs.n_classes))

    blocks = [data.seen_train, data.seen_test, data.unseen_test]
    pool = data.unseen_unlabeled
    if not np.array_equal(pool, data.unseen_test[0]):  # else the test rows double as the pool
        blocks.append((pool, np.full(len(pool), UNLABELED)))
    feats, labels = zip(*blocks)
    export_features_csv(np.vstack(feats), np.concatenate(labels),
                        os.path.join(dir_path, "features.csv"))

    ends = np.cumsum([f.shape[0] for f in feats]).tolist()
    rows = [list(range(start, end)) for start, end in zip([0] + ends, ends)]
    split = dict(zip(SPLIT_KEYS, [list(attrs.seen_ids), list(attrs.unseen_ids), *rows[:3], rows[-1]]))
    with open(os.path.join(dir_path, "split.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(split, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(dir_path: str) -> tuple[AttributeMatrix, FeatureDataset]:
    """Read and fully validate a dataset directory; no partially valid object
    ever escapes this function."""
    ids, attr_values = _read_labeled_csv(os.path.join(dir_path, "attributes.csv"), "class_id,a_1")
    if sorted(ids.tolist()) != list(range(ids.size)):
        raise DataFormatError(
            f"attributes.csv class ids must be 0..{ids.size - 1}, got {ids.tolist()}")
    attr_matrix = attr_values[np.argsort(ids)]
    labels, features = _read_labeled_csv(os.path.join(dir_path, "features.csv"), "class_id,x_1")

    split_path = os.path.join(dir_path, "split.json")
    if not os.path.isfile(split_path):
        raise DataFormatError(f"missing file: {split_path}")
    with open(split_path, encoding="utf-8") as fh:
        try:
            split = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{split_path}: {exc}") from None
    if not isinstance(split, dict) or set(split) != set(SPLIT_KEYS):
        got = sorted(split) if isinstance(split, dict) else f"a JSON {type(split).__name__}"
        raise DataFormatError(f"{split_path}: expected keys {sorted(SPLIT_KEYS)}, got {got}")
    n_rows = len(features)
    for key in SPLIT_KEYS:  # bool is an int subclass, and JSON true is no index
        if not isinstance(split[key], list) or not all(type(v) is int for v in split[key]):
            raise DataFormatError(f"{split_path}: {key} must be a list of integers")
        if key.endswith("_rows") and not all(0 <= v < n_rows for v in split[key]):
            raise DataFormatError(f"{split_path}: {key} references rows outside 0..{n_rows - 1}")
    arrays = {key: np.asarray(split[key], dtype=np.int64) for key in SPLIT_KEYS[2:]}

    unknown = (set(split["seen"]) | set(split["unseen"])) - set(range(ids.size))
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
    _write_csv(path, f"rows,cols\n{matrix.shape[0]},{matrix.shape[1]}", matrix)


def load_matrix_csv(path: str) -> np.ndarray:
    lines = _read_lines(path)
    if len(lines) < 2 or lines[0][1] != "rows,cols":
        raise DataFormatError(f"{path}:1: expected 'rows,cols' header")
    try:
        n, m = (int(p) for p in lines[1][1].split(","))
    except ValueError:
        raise DataFormatError(f"{path}:{lines[1][0]}: expected two integer dimensions") from None
    if len(lines) - 2 != n:
        raise DataFormatError(f"{path}: expected {n} data rows, found {len(lines) - 2}")
    return _parse_rows(path, lines[2:], m)
