"""Dataset containers, the synthetic benchmark generator, and file I/O.

On disk a dataset directory holds attributes.csv (one row per class),
features.csv (one row per sample), and split.json (seen/unseen class ids plus
row indices for each split). This module owns both artifact formats. Every
float CSV the package writes (the dataset CSVs, the matrix CSVs, exported
features, trace.csv, curves.csv) goes through `write_csv`, which writes each
float as `%.17g`, so round-trips are bit-exact. One reader, `_read_csv`,
parses the body of every float CSV with one streaming `np.loadtxt(...,
comments=None)` call (so a cell like `2#3` is an error rather than 2), and
walks the lines, which break at LF, CRLF and CR, only when that fails, to
name the first line with a defect. Every JSON artifact (config.json,
report.json, split.json) goes through `write_json`. All files are UTF-8
with LF endings; a file that is not valid UTF-8 is a data error.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, check_fields, knob
from .rng import SEED_BOUNDS, SeededRng

UNLABELED = -1

# The splits of a FeatureDataset, the three labeled ones first; split.json
# lists the rows of split s under the key s_rows.
SPLITS = ("seen_train", "seen_test", "unseen_test", "unseen_unlabeled")
LABELED_SPLITS = SPLITS[:3]
SPLIT_KEYS = ("seen", "unseen", *(f"{name}_rows" for name in SPLITS))


def _zero_norm_rows(features: np.ndarray) -> np.ndarray:
    """Which rows of a finite 2-D array have norm zero; a row sum of squares,
    with no temporary as large as the array."""
    with np.errstate(over="ignore"):  # an inf sum is still not zero
        return np.einsum("ij,ij->i", features, features) == 0.0


@dataclass(eq=False)
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
        if len(listed := self.seen_ids + self.unseen_ids) > len(seen | unseen):
            twice = sorted({c for c in listed if listed.count(c) > 1})
            raise DataFormatError(f"classes {twice} are listed more than once")
        if seen | unseen != set(range(n)):
            raise DataFormatError(
                f"seen+unseen ids must cover classes 0..{n - 1}, got {sorted(seen | unseen)}"
            )
        if (zero_norm := _zero_norm_rows(self.attrs)).any():
            raise DataFormatError(
                f"class {int(np.flatnonzero(zero_norm)[0])} has a zero-norm attribute vector")
        first = {}  # finite rows + 0.0 (-0.0 as 0.0) match in bytes exactly as in np.array_equal
        pairs = [(first.setdefault((r + 0.0).tobytes(), j), j) for j, r in enumerate(self.attrs)]
        dup = min(((i, j) for i, j in pairs if i != j), default=None)  # met first by all-pairs
        if dup:
            raise DataFormatError(f"classes {dup[0]} and {dup[1]} have identical attributes")

    @property
    def attr_dim(self) -> int:
        return self.attrs.shape[1]

    @property
    def n_classes(self) -> int:
        return self.attrs.shape[0]


def _check_rows(what: str, zero_norm: np.ndarray, labels: np.ndarray | None) -> None:
    """The checks of a split's finite rows, in order: no row has norm zero,
    and (given the labels) no class id is negative."""
    if zero_norm.any():
        raise DataFormatError(f"{what} row {int(np.flatnonzero(zero_norm)[0])} has zero norm")
    if labels is not None and labels.size and labels.min() < 0:
        raise DataFormatError(f"{what} has a negative class id")


@dataclass(eq=False)
class FeatureDataset:
    """Labeled splits plus the optional unlabeled pool used by transductive
    training. Each labeled split is a (features, class ids) pair; the pool is
    a split without labels. Splits are checked in SPLITS order."""

    seen_train: tuple[np.ndarray, np.ndarray]
    seen_test: tuple[np.ndarray, np.ndarray]
    unseen_test: tuple[np.ndarray, np.ndarray]
    unseen_unlabeled: np.ndarray

    def __post_init__(self):
        dims = set()
        for name in SPLITS:
            split = getattr(self, name)
            feats, labels = split if name in LABELED_SPLITS else (split, None)
            feats = np.asarray(feats, dtype=np.float64)
            if labels is not None:
                labels = np.asarray(labels, dtype=np.int64).reshape(-1)
            if feats.ndim != 2:
                raise DataFormatError(f"{name} features must be 2-D, got shape {feats.shape}")
            if labels is not None and labels.shape != feats.shape[:1]:
                raise DataFormatError(
                    f"{name} has {feats.shape[0]} rows but {labels.shape[0]} labels")
            if not np.all(np.isfinite(feats)):
                raise DataFormatError(f"{name} features contain a non-finite value")
            _check_rows(name, _zero_norm_rows(feats), labels)
            setattr(self, name, feats if labels is None else (feats, labels))
            dims |= {feats.shape[1]} if feats.size else set()
        if len(dims) > 1:
            raise DataFormatError(f"splits disagree on feature dimension: {sorted(dims)}")

    @property
    def feature_dim(self) -> int:
        return self.seen_train[0].shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale benchmark: binary class attributes, a hidden linear map to
    prototypes, isotropic gaussian samples around each prototype."""

    seen_classes: int = knob(8, at_least=2)
    unseen_classes: int = knob(4, at_least=1)
    attr_dim: int = knob(16, at_least=1)
    feature_dim: int = knob(32, at_least=1)
    samples_per_class: int = knob(60, at_least=4)
    noise_sigma: float = knob(0.3, at_least=0)
    seed: int = knob(0, **SEED_BOUNDS)

    __post_init__ = check_fields


@np.errstate(over="ignore")  # a sample that overflows is a DataFormatError, not a warning
def make_synthetic_dataset(spec: SyntheticSpec) -> tuple[AttributeMatrix, FeatureDataset, np.ndarray]:
    """Build the benchmark; also returns the hidden map (feature_dim, attr_dim)
    whose columns define class prototypes, for oracle-style tests."""
    rng = SeededRng(spec.seed)
    attr_rng, map_rng, noise_rng, split_rng = (rng.split(i) for i in (1, 2, 3, 4))
    n_classes = spec.seen_classes + spec.unseen_classes

    rows, keys = [], set()
    for _ in range(n_classes):
        for attempt in range(101):
            cand = (attr_rng.uniform(spec.attr_dim) < 0.5).astype(np.float64)
            fresh = cand.sum() > 0 and cand.tobytes() not in keys  # entries are 0.0 or 1.0
            if fresh:
                break
        if not fresh:
            raise DataFormatError("could not draw distinct attribute vectors after 100 redraws")
        rows.append(cand)
        keys.add(cand.tobytes())
    attr_rows = np.stack(rows)

    hidden_map = map_rng.gaussian(spec.feature_dim * spec.attr_dim).reshape(
        spec.feature_dim, spec.attr_dim
    ) / np.sqrt(spec.attr_dim)
    prototypes = attr_rows @ hidden_map.T

    # Each class's rows are drawn straight into its split: a seen class's
    # rows in the order of its split permutation, the first 70% to train.
    n, d = spec.samples_per_class, spec.feature_dim
    cut = int(0.7 * n)
    train = np.empty((spec.seen_classes, cut, d))
    test = np.empty((spec.seen_classes, n - cut, d))
    unseen = np.empty((spec.unseen_classes, n, d))
    for c in range(n_classes):
        feats = noise_rng.gaussian(n * d).reshape(n, d)
        feats *= spec.noise_sigma
        feats += prototypes[c]
        if c < spec.seen_classes:
            order = split_rng.permutation(n)
            train[c], test[c] = feats[order[:cut]], feats[order[cut:]]
        else:
            unseen[c - spec.seen_classes] = feats

    train, test, unseen = (x.reshape(-1, d) for x in (train, test, unseen))

    seen_ids = tuple(range(spec.seen_classes))
    unseen_ids = tuple(range(spec.seen_classes, n_classes))
    attrs = AttributeMatrix(attr_rows, seen_ids, unseen_ids)
    dataset = FeatureDataset(
        seen_train=(train, np.repeat(seen_ids, cut)),
        seen_test=(test, np.repeat(seen_ids, n - cut)),
        unseen_test=(unseen, np.repeat(unseen_ids, n)),
        unseen_unlabeled=unseen,  # the test rows double as the pool
    )
    return attrs, dataset, hidden_map


def write_csv(path: str, header: str, blocks, leads=itertools.repeat("")) -> None:
    """Write `header`, then each row of the 2-D arrays in `blocks` (all of one
    width) as `%.17g` floats (a lossless round-trip), each row preceded by its
    text from `leads`, which ends in a comma when it is not empty. Every float
    CSV the package writes goes here."""
    fmt = ",".join(["%.17g"] * blocks[0].shape[1]) + "\n"
    rows = itertools.chain.from_iterable(blocks)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(lead + fmt % tuple(row.tolist()) for lead, row in zip(leads, rows))


def write_json(obj, path: str) -> None:
    """Write `obj` as JSON with 2-space indents, sorted keys and a final
    newline; config.json, report.json and split.json all go here."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def unique_keys(pairs) -> dict:
    """The object_pairs_hook of every JSON read (a config, split.json): the
    object's pairs as a dict, or ValueError naming a key that repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


# A class id is an integer of at most 15 digits, which stay exact as a float.
_CLASS_ID = re.compile(r"\s*[+-]?[0-9]{1,15}\s*")


def _class_id(cell: str) -> float:
    """The value of a class id cell; one that is not an integer is a ValueError."""
    if not _CLASS_ID.fullmatch(cell):
        raise ValueError(f"class id {cell!r} is not an integer")
    return float(cell.strip())  # float() keeps some whitespace that \s matches


def _lines(path: str):
    """Yield each non-blank line of a text file with its 1-based number.
    Lines break at LF, CRLF and CR, as numpy and universal newlines read a
    file. A byte that is not UTF-8 raises, at its offset in the file, once
    the lines before its own are yielded."""
    if not os.path.isfile(path):
        raise DataFormatError(f"missing file: {path}")
    number = offset = 0
    # latin-1 reads each byte as one character, and newline="" ends a line at
    # LF, CRLF or CR, so each line is bytes.splitlines' line, read one at a time
    with open(path, encoding="latin-1", newline="") as fh:
        for text in fh:
            raw = text.encode("latin-1")
            try:  # with its line end, so a bad byte reads as in the whole text
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                start, end = exc.start + offset, exc.end + offset
                where = (f"byte 0x{raw[exc.start]:02x} in position {start}"
                         if end == start + 1 else f"bytes in position {start}-{end - 1}")
                raise DataFormatError(f"{path}: '{exc.encoding}' codec can't decode "
                                      f"{where}: {exc.reason}") from None
            number, offset = number + 1, offset + len(raw)
            if line:
                yield number, line


def _line_error(path: str, number: int, line: str, width: int, class_ids: bool):
    """The error for one line of a CSV body, or None. The checks run in this
    order: `width` cells, each parses, each is finite, and (with class_ids)
    the first cell is an integer."""
    if (got := line.count(",") + 1) != width:
        return DataFormatError(f"{path}:{number}: expected {width} columns, got {got}")
    try:
        row = np.loadtxt([line], delimiter=",", comments=None)
    except ValueError as exc:  # numpy counts rows from 0 within the one line it got
        return DataFormatError(f"{path}:{number}: {exc}".replace("at row 0, ", "at "))
    bad = np.flatnonzero(~np.isfinite(row))
    if bad.size:
        return DataFormatError(f"{path}:{number}: column {bad[0] + 1} is not a finite number")
    if class_ids and not _CLASS_ID.fullmatch(cid := line[:line.index(",")]):
        return DataFormatError(f"{path}:{number}: class id {cid!r} is not an integer")
    return None


def _read_csv(path: str, n_head: int, check_head, class_ids: bool = False,
              first_only: bool = False) -> np.ndarray:
    """The rows after the first n_head non-blank lines of a CSV file, as a
    finite float64 array (no rows with first_only, which reads only those
    lines). check_head(the head lines) returns the row width and the row
    count it demands (None for any), and raises DataFormatError for a bad
    or short head. If the one `np.loadtxt` call over the body fails, a line
    walk raises the error of the file's first bad line, naming its
    `path:line`. A wrong row count is found at the end."""
    with contextlib.closing(_lines(path)) as lines:
        head = list(itertools.islice(lines, n_head))
        width, expected = check_head(head)
        if first_only or (first := next(lines, None)) is None:
            values = np.empty((0, width))  # loadtxt would warn on a body with no rows
        else:
            try:  # comments=None, or loadtxt reads the cell `2#3` as 2
                with open(path, encoding="utf-8") as fh:  # by name, numpy also opens URLs
                    values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                        skiprows=head[-1][0],
                                        converters={0: _class_id} if class_ids else None)
                if values.shape[1] != width or not np.isfinite(values).all():
                    raise ValueError("a row of another width, or a non-finite cell")
            except ValueError:  # a UnicodeDecodeError too; each is a defect the walk finds
                for number, line in itertools.chain([first], lines):
                    if error := _line_error(path, number, line, width, class_ids):
                        raise error
                raise AssertionError(f"{path}: numpy rejected the body, but no line has a defect")
    if expected is not None and len(values) != expected:
        raise DataFormatError(f"{path}: expected {expected} data rows, found {len(values)}")
    return values


def _read_labeled_csv(path: str, header_prefix: str,
                      first_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The class ids and the values of an attributes.csv or features.csv; with
    first_only, only the header line is read, so the values have no rows."""
    def check_header(head):
        if not head or not head[0][1].startswith(header_prefix):
            raise DataFormatError(f"{path}: expected header starting with '{header_prefix}'")
        return head[0][1].count(",") + 1, None

    values = _read_csv(path, 1, check_header, class_ids=True, first_only=first_only)
    return values[:, 0].astype(np.int64), values[:, 1:]


def export_features_csv(features, labels, path: str) -> None:
    """Write `class_id,x_1,...,x_D` rows; lossless float round-trip."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if features.shape[0] != labels.shape[0]:
        raise ValueError(f"{features.shape[0]} rows but {labels.shape[0]} labels")
    header = "class_id," + ",".join(f"x_{j + 1}" for j in range(features.shape[1]))
    write_csv(path, header, [features], [f"{i}," for i in labels.tolist()])


def save_dataset(dir_path: str, attrs: AttributeMatrix, data: FeatureDataset) -> None:
    os.makedirs(dir_path, exist_ok=True)
    header = "class_id," + ",".join(f"a_{j + 1}" for j in range(attrs.attr_dim))
    write_csv(os.path.join(dir_path, "attributes.csv"), header, [attrs.attrs],
              [f"{i}," for i in range(attrs.n_classes)])

    blocks = [data.seen_train, data.seen_test, data.unseen_test]
    pool = data.unseen_unlabeled
    if not np.array_equal(pool, data.unseen_test[0]):  # else the test rows double as the pool
        blocks.append((pool, np.full(len(pool), UNLABELED)))
    feats, labels = zip(*blocks)  # written split by split, never stacked
    header = "class_id," + ",".join(f"x_{j + 1}" for j in range(data.feature_dim))
    write_csv(os.path.join(dir_path, "features.csv"), header, feats,
              [f"{i}," for i in np.concatenate(labels).tolist()])

    ends = np.cumsum([f.shape[0] for f in feats]).tolist()
    rows = [list(range(start, end)) for start, end in zip([0] + ends, ends)]
    split = dict(zip(SPLIT_KEYS, [list(attrs.seen_ids), list(attrs.unseen_ids), *rows[:3], rows[-1]]))
    write_json(split, os.path.join(dir_path, "split.json"))


def load_dataset(dir_path: str, splits=SPLITS) -> tuple[AttributeMatrix, FeatureDataset]:
    """Read and validate a dataset directory. `splits` names the splits (of
    SPLITS) that the caller reads. With any split named, the whole directory
    is validated and no partially valid object escapes: every row of
    features.csv is parsed and every split checked, in the same order
    whatever the selection, so a defect in a split left out raises the error
    that loading them all raises. A split left out is never copied out of
    the file's rows and comes back empty, (0, D). With no split named (as
    export reads), only attributes.csv, split.json's keys, the types of its
    values and its class ids, and features.csv's header are read; a defect
    in features.csv's rows or in split.json's row indices goes unseen, and
    every split is empty."""
    if extra := set(splits) - set(SPLITS):
        raise ValueError(f"unknown splits {sorted(extra)}")
    ids, attr_values = _read_labeled_csv(os.path.join(dir_path, "attributes.csv"), "class_id,a_1")
    if sorted(ids.tolist()) != list(range(ids.size)):
        raise DataFormatError(
            f"attributes.csv class ids must be 0..{ids.size - 1}, got {ids.tolist()}")
    attr_matrix = attr_values[np.argsort(ids)]
    labels, features = _read_labeled_csv(os.path.join(dir_path, "features.csv"), "class_id,x_1",
                                         first_only=not splits)

    split_path = os.path.join(dir_path, "split.json")
    if not os.path.isfile(split_path):
        raise DataFormatError(f"missing file: {split_path}")
    with open(split_path, encoding="utf-8") as fh:
        try:
            split = json.load(fh, object_pairs_hook=unique_keys)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a repeated key, deep nesting
            raise DataFormatError(f"{split_path}: {exc}") from None
    if not isinstance(split, dict) or set(split) != set(SPLIT_KEYS):
        got = sorted(split) if isinstance(split, dict) else f"a JSON {type(split).__name__}"
        raise DataFormatError(f"{split_path}: expected keys {sorted(SPLIT_KEYS)}, got {got}")
    n_rows = len(features)
    for key in SPLIT_KEYS:  # bool is an int subclass, and JSON true is no index
        if not isinstance(split[key], list) or not all(type(v) is int for v in split[key]):
            raise DataFormatError(f"{split_path}: {key} must be a list of integers")
        if splits and key.endswith("_rows") and not all(0 <= v < n_rows for v in split[key]):
            raise DataFormatError(f"{split_path}: {key} references rows outside 0..{n_rows - 1}")
    rows = {name: np.asarray(split[f"{name}_rows"] if splits else [], dtype=np.int64)
            for name in SPLITS}

    unknown = (set(split["seen"]) | set(split["unseen"])) - set(range(ids.size))
    if unknown:
        raise DataFormatError(f"{split_path}: classes {sorted(unknown)} absent from attributes.csv")

    attrs = AttributeMatrix(attr_matrix, tuple(split["seen"]), tuple(split["unseen"]))
    for name in LABELED_SPLITS:
        bad = np.flatnonzero(labels[rows[name]] == UNLABELED)
        if bad.size:
            raise DataFormatError(
                f"{split_path}: {name}_rows includes unlabeled row {rows[name][bad[0]]}")
    for a, b in itertools.combinations(LABELED_SPLITS, 2):  # a row is in one labeled split at most
        # sets, not np.intersect1d, whose first call imports numpy.ma (about 15 ms)
        if shared := set(rows[a].tolist()) & set(rows[b].tolist()):
            raise DataFormatError(f"{split_path}: {a}_rows and {b}_rows share row {min(shared)}")
    # FeatureDataset's checks that finite rows can fail, in its order, on every split
    zero_norm = _zero_norm_rows(features)
    for name in SPLITS:
        _check_rows(name, zero_norm[rows[name]],
                    labels[rows[name]] if name in LABELED_SPLITS else None)
    for name in LABELED_SPLITS:  # each labeled split's class ids lie in its side of the partition
        allowed = attrs.unseen_ids if name == "unseen_test" else attrs.seen_ids
        if extra := set(labels[rows[name]].tolist()) - set(allowed):
            raise DataFormatError(f"{name} labels {sorted(extra)} fall outside the expected classes")

    rows = {name: r if name in splits else r[:0] for name, r in rows.items()}  # left out: no rows
    kept = {name: (features[rows[name]], labels[rows[name]]) for name in LABELED_SPLITS}
    # the pool that save_dataset folds into the test rows shares their array
    pool = (kept["unseen_test"][0] if np.array_equal(rows["unseen_unlabeled"], rows["unseen_test"])
            else features[rows["unseen_unlabeled"]])
    del features  # all of the file's rows, freed before the kept splits are checked
    return attrs, FeatureDataset(**kept, unseen_unlabeled=pool)


def save_matrix_csv(matrix, path: str) -> None:
    """Generic dense-matrix CSV: a `rows,cols` header line, a dimension line,
    then the row-major values."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    write_csv(path, f"rows,cols\n{matrix.shape[0]},{matrix.shape[1]}", [matrix])


def load_matrix_csv(path: str) -> np.ndarray:
    def check_dims(head):
        if len(head) < 2 or head[0][1] != "rows,cols":
            raise DataFormatError(f"{path}:1: expected 'rows,cols' header")
        try:
            n, m = (int(p) for p in head[1][1].split(","))
        except ValueError:
            raise DataFormatError(f"{path}:{head[1][0]}: expected two integer dimensions") from None
        if n < 1 or m < 1:
            raise DataFormatError(f"{path}:{head[1][0]}: dimensions must be at least 1, got {n},{m}")
        return m, n

    return _read_csv(path, 2, check_dims)
