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


def _squared_norms(features: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, with no temporary as large as the 2-D
    array: zero only for a zero-norm row, and inf or nan for a row with a
    non-finite value or whose sum overflows."""
    with np.errstate(over="ignore"):
        return np.einsum("ij,ij->i", features, features)


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
        if (zero_norm := _squared_norms(self.attrs) == 0.0).any():
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


@dataclass(eq=False)
class FeatureDataset:
    """One real feature set, held as a dataset directory stores it: the N x D
    `features` (the rows of features.csv), their N class ids `labels`
    (UNLABELED for a row that is only in the pool), and `rows`, each split
    of SPLITS mapped to its row indices (split.json's lists). A row is in
    one labeled split at most; the unlabeled pool may list labeled rows too
    (gen-data's pool is the unseen test rows), whose ids training ignores.
    Checked once, in SPLITS order: the row lists first, then each split's
    rows."""

    features: np.ndarray
    labels: np.ndarray
    rows: dict

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.features.ndim != 2:
            raise DataFormatError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != self.features.shape[:1]:
            raise DataFormatError(
                f"{self.features.shape[0]} feature rows but {self.labels.shape[0]} labels")
        if set(self.rows) != set(SPLITS):
            raise ValueError(f"rows must map each of {SPLITS}, got {sorted(self.rows)}")
        n = self.features.shape[0]
        # a JSON index past int64 stays a Python int, in an object array
        rows = {name: np.asarray(self.rows[name]).reshape(-1) for name in SPLITS}
        for name, r in rows.items():
            if not ((r >= 0) & (r < n)).all():
                raise DataFormatError(f"{name}_rows references rows outside 0..{n - 1}")
        self.rows = rows = {name: r.astype(np.int64) for name, r in rows.items()}
        for name in LABELED_SPLITS:
            if (bad := np.flatnonzero(self.labels[rows[name]] == UNLABELED)).size:
                raise DataFormatError(f"{name}_rows includes unlabeled row {rows[name][bad[0]]}")
        for a, b in itertools.combinations(LABELED_SPLITS, 2):
            # sets, not np.intersect1d, whose first call imports numpy.ma (about 15 ms)
            if shared := set(rows[a].tolist()) & set(rows[b].tolist()):
                raise DataFormatError(f"{a}_rows and {b}_rows share row {min(shared)}")
        norms = _squared_norms(self.features)
        finite = np.isfinite(norms)  # then each row whose sum is not finite, exactly
        finite[~finite] = np.isfinite(self.features[~finite]).all(axis=1)
        for name, r in rows.items():
            if not finite[r].all():
                raise DataFormatError(f"{name} features contain a non-finite value")
            if (zero := np.flatnonzero(norms[r] == 0.0)).size:
                raise DataFormatError(f"{name} row {zero[0]} has zero norm")
            if name in LABELED_SPLITS and (self.labels[r] < 0).any():
                raise DataFormatError(f"{name} has a negative class id")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """A copy of the features and class ids of split `name`, its rows in list order."""
        return self.features[self.rows[name]], self.labels[self.rows[name]]


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

    # Each class's rows are drawn straight into one matrix, through a view of
    # each split's rows: the seen classes' training rows, their test rows,
    # then the unseen rows, which double as the pool. A seen class's rows go
    # in the order of its split permutation, the first 70% to train.
    n, d, s = spec.samples_per_class, spec.feature_dim, spec.seen_classes
    cut = int(0.7 * n)
    features = np.empty((n_classes * n, d))
    train = features[:s * cut].reshape(s, cut, d)
    test = features[s * cut:s * n].reshape(s, n - cut, d)
    unseen = features[s * n:].reshape(-1, n, d)
    for c in range(n_classes):
        feats = noise_rng.gaussian(n * d).reshape(n, d)
        feats *= spec.noise_sigma
        feats += prototypes[c]
        if c < s:
            order = split_rng.permutation(n)
            train[c], test[c] = feats[order[:cut]], feats[order[cut:]]
        else:
            unseen[c - s] = feats

    seen_ids, unseen_ids = tuple(range(s)), tuple(range(s, n_classes))
    attrs = AttributeMatrix(attr_rows, seen_ids, unseen_ids)
    labels = np.concatenate([np.repeat(seen_ids, cut), np.repeat(seen_ids, n - cut),
                             np.repeat(unseen_ids, n)])
    unseen_rows = np.arange(s * n, n_classes * n)
    rows = [np.arange(s * cut), np.arange(s * cut, s * n), unseen_rows, unseen_rows]
    dataset = FeatureDataset(features, labels, dict(zip(SPLITS, rows)))
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


def _open(path: str, **kwargs):
    """open(path, **kwargs), a file to read; one that cannot be opened is a
    DataFormatError naming it."""
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror or exc}") from None


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
    with _open(path, encoding="latin-1", newline="") as fh:
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
                with _open(path, encoding="utf-8") as fh:  # by name, numpy also opens URLs
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
    export_features_csv(data.features, data.labels, os.path.join(dir_path, "features.csv"))
    rows = [data.rows[name].tolist() for name in SPLITS]
    split = dict(zip(SPLIT_KEYS, [list(attrs.seen_ids), list(attrs.unseen_ids), *rows]))
    write_json(split, os.path.join(dir_path, "split.json"))


def load_dataset(dir_path: str, splits=SPLITS) -> tuple[AttributeMatrix, FeatureDataset]:
    """Read and validate a dataset directory, keeping the rows of the splits
    (of SPLITS) that `splits` names. With any split named, every row of
    features.csv is parsed and the whole directory checked, as one
    FeatureDataset of all the file's rows, so a defect in a split left out
    raises the error that loading them all raises. One copy then keeps the
    rows of the named splits in file order, a row that two of them list
    once; a split left out lists no rows. With no split named (as export
    reads), only attributes.csv, split.json's keys, the types of its values
    and its class ids, and features.csv's header are read; a defect in
    features.csv's rows or in split.json's row indices goes unseen, and the
    dataset has no rows."""
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
    with _open(split_path, encoding="utf-8") as fh:
        try:
            split = json.load(fh, object_pairs_hook=unique_keys)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a repeated key, deep nesting
            raise DataFormatError(f"{split_path}: {exc}") from None
    if not isinstance(split, dict) or set(split) != set(SPLIT_KEYS):
        got = sorted(split) if isinstance(split, dict) else f"a JSON {type(split).__name__}"
        raise DataFormatError(f"{split_path}: expected keys {sorted(SPLIT_KEYS)}, got {got}")
    for key in SPLIT_KEYS:  # bool is an int subclass, and JSON true is no index
        if not isinstance(split[key], list) or not all(type(v) is int for v in split[key]):
            raise DataFormatError(f"{split_path}: {key} must be a list of integers")

    unknown = (set(split["seen"]) | set(split["unseen"])) - set(range(ids.size))
    if unknown:
        raise DataFormatError(f"{split_path}: classes {sorted(unknown)} absent from attributes.csv")

    attrs = AttributeMatrix(attr_matrix, tuple(split["seen"]), tuple(split["unseen"]))
    data = FeatureDataset(features, labels,
                          {name: split[f"{name}_rows"] if splits else [] for name in SPLITS})
    for name in LABELED_SPLITS:  # each labeled split's class ids lie in its side of the partition
        allowed = attrs.unseen_ids if name == "unseen_test" else attrs.seen_ids
        if extra := set(labels[data.rows[name]].tolist()) - set(allowed):
            raise DataFormatError(f"{name} labels {sorted(extra)} fall outside the expected classes")

    keep = np.zeros(len(labels), dtype=bool)
    for name in splits:
        keep[data.rows[name]] = True
    index = np.cumsum(keep) - 1  # a kept row's index among the kept rows
    kept = (data.features[keep], labels[keep],
            {name: index[r] if name in splits else r[:0] for name, r in data.rows.items()})
    del data, features  # all of the file's rows, freed before the kept rows are checked
    return attrs, FeatureDataset(*kept)


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
