import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import otzsl.data as data_module
from otzsl.data import (
    AttributeMatrix,
    FeatureDataset,
    SyntheticSpec,
    export_features_csv,
    load_dataset,
    load_matrix_csv,
    make_synthetic_dataset,
    save_dataset,
    save_matrix_csv,
)
from otzsl.errors import DataFormatError
from otzsl.rng import SeededRng
from tests.conftest import (
    TINY_SPEC,
    dataset_of,
    deny_open,
    reference_write_json,
    split_rows,
    traced_peak,
)


# ----------------------------------------------------------- attribute matrix


def test_attribute_matrix_partition_must_cover():
    attrs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DataFormatError, match="cover"):
        AttributeMatrix(attrs, (0,), (1,))


def test_attribute_matrix_partition_must_be_disjoint():
    attrs = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DataFormatError, match="both seen and unseen"):
        AttributeMatrix(attrs, (0, 1), (1,))


@pytest.mark.parametrize("seen, unseen", [((0, 0, 1), (2,)), ((0,), (1, 2, 1))])
def test_attribute_matrix_rejects_a_class_listed_twice(seen, unseen):
    with pytest.raises(DataFormatError, match=r"classes \[\d\] are listed more than once"):
        AttributeMatrix(np.eye(3), seen, unseen)


def test_attribute_matrix_rejects_zero_row():
    attrs = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DataFormatError, match="zero-norm"):
        AttributeMatrix(attrs, (0,), (1,))


def test_attribute_matrix_rejects_duplicates():
    attrs = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DataFormatError, match="identical"):
        AttributeMatrix(attrs, (0,), (1,))


def test_attribute_matrix_names_the_pair_a_scan_of_all_pairs_meets_first():
    # rows 1 and 2 are equal, and so are rows 0 and 4; comparing every pair
    # (i, j) in order meets (0, 4) before (1, 2)
    a, b, c = [1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [3.0, 1.0, 1.0]
    attrs = np.array([a, b, b, c, a])
    with pytest.raises(DataFormatError, match=r"^classes 0 and 4 have identical attributes$"):
        AttributeMatrix(attrs, (0, 1, 2), (3, 4))


def test_class_distinctness_is_not_checked_pair_by_pair(monkeypatch):
    # at SUN's 717 classes and 102 attributes, comparing every pair of rows
    # took 0.66 s in AttributeMatrix and 1.4 s in make_synthetic_dataset
    def compared(*args):
        raise AssertionError("rows compared pair by pair")

    monkeypatch.setattr(np, "array_equal", compared)
    spec = SyntheticSpec(seen_classes=645, unseen_classes=72, attr_dim=102, feature_dim=2,
                         samples_per_class=4, seed=1)
    attrs, _, _ = make_synthetic_dataset(spec)
    assert attrs.n_classes == 717


def test_attribute_rows_differing_in_the_sign_of_a_zero_are_identical():
    # np.array_equal(-0.0, 0.0) holds, so such rows are duplicates
    attrs = np.array([[1.0, 0.0], [2.0, 1.0], [1.0, -0.0]])
    with pytest.raises(DataFormatError, match=r"^classes 0 and 2 have identical attributes$"):
        AttributeMatrix(attrs, (0, 1), (2,))


def test_norm_checks_take_huge_rows_without_warnings():
    # warnings are errors in this suite: a row norm that overflows to inf is
    # still not zero, and must not leak an overflow warning
    attrs = AttributeMatrix([[1e300, 0.0], [0.0, 1.0]], (0,), (1,))
    assert attrs.attrs[0, 0] == 1e300
    rows = np.array([[1e300, -1e300, 0.0], [1.0, 2.0, 3.0], [-1e300, 1.0, 1e300]])
    data = FeatureDataset(rows, [0, 1, 2], split_rows(seen_train=[0], seen_test=[1],
                                                      unseen_test=[2], unseen_unlabeled=[2, 0]))
    assert data.features[0, 1] == -1e300


def test_attribute_matrix_accessors():
    am = AttributeMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), (0,), (1,))
    assert am.n_classes == 2
    assert am.attr_dim == 2


@pytest.mark.parametrize("attrs, message", [
    (np.ones(2), r"attribute matrix must be 2-D, got shape \(2,\)"),
    (np.zeros((0, 2)), r"attribute matrix must be 2-D, got shape \(0, 2\)"),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "attribute matrix has a non-finite entry"),
], ids=["1-D", "no-rows", "non-finite"])
def test_attribute_matrix_must_be_a_finite_matrix_of_one_row_or_more(attrs, message):
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        AttributeMatrix(attrs, (0,), (1,))


# ------------------------------------------------------------ feature dataset


def test_dataset_label_length_mismatch():
    with pytest.raises(DataFormatError, match=r"^2 feature rows but 1 labels$"):
        FeatureDataset(np.ones((2, 2)), [0], split_rows())


def test_dataset_features_must_be_2d():
    for features in (np.ones(2), np.zeros(0)):  # 2-D even when empty
        with pytest.raises(DataFormatError, match=r"^features must be 2-D"):
            FeatureDataset(features, np.zeros(len(features)), split_rows())


def test_dataset_rows_must_name_every_split():
    with pytest.raises(ValueError, match="rows must map each of"):
        FeatureDataset(np.ones((1, 2)), [0], {"seen_train": [0]})


def test_dataset_without_a_pool_lists_no_pool_rows():
    data = FeatureDataset(np.ones((2, 3)), [0, 1], split_rows(seen_train=[0], unseen_test=[1]))
    assert data.rows["unseen_unlabeled"].dtype == np.int64
    assert data.rows["unseen_unlabeled"].shape == (0,)
    assert data.feature_dim == 3


@pytest.mark.parametrize("index", [-1, 3, 2**70])
def test_dataset_rejects_a_row_index_out_of_range(index):
    """A JSON index past int64 is out of range too, not an OverflowError."""
    with pytest.raises(DataFormatError, match=r"^seen_test_rows references rows outside 0\.\.2$"):
        FeatureDataset(np.ones((3, 2)), [0, 0, 1], split_rows(seen_train=[0], seen_test=[1, index]))


@pytest.mark.parametrize("a, b", [("seen_train", "seen_test"), ("seen_train", "unseen_test"),
                                  ("seen_test", "unseen_test")])
def test_dataset_rejects_a_row_in_two_labeled_splits(a, b):
    """The pool may list labeled rows; two labeled splits may not share one."""
    rows = split_rows(**{a: [0, 2, 3], b: [1, 3, 2]}, unseen_unlabeled=[0, 1, 2, 3])
    with pytest.raises(DataFormatError, match=rf"^{a}_rows and {b}_rows share row 2$"):
        FeatureDataset(np.ones((4, 2)), [0, 0, 0, 0], rows)


@pytest.mark.parametrize("name", data_module.LABELED_SPLITS)
def test_dataset_rejects_an_unlabeled_row_in_a_labeled_split(name):
    rows = split_rows(**{name: [0, 2, 1]}, unseen_unlabeled=[2, 1])
    with pytest.raises(DataFormatError, match=rf"^{name}_rows includes unlabeled row 2$"):
        FeatureDataset(np.ones((3, 2)), [0, -1, -1], rows)
    FeatureDataset(np.ones((3, 2)), [0, -1, -1], split_rows(**{name: [0]}, unseen_unlabeled=[2, 1]))


def test_dataset_rejects_negative_label():
    with pytest.raises(DataFormatError, match=r"^seen_train has a negative class id$"):
        FeatureDataset(np.ones((2, 2)), [-2, 1], split_rows(seen_train=[0], unseen_test=[1]))
    # a pool row's class id is not checked
    FeatureDataset(np.ones((2, 2)), [0, -2], split_rows(seen_train=[0], unseen_unlabeled=[1]))


def test_dataset_checks_the_row_lists_before_any_split_rows():
    features = np.array([[np.nan, 1.0], [1.0, 1.0]])
    with pytest.raises(DataFormatError, match=r"^unseen_test_rows references rows outside"):
        FeatureDataset(features, [0, 1], split_rows(seen_train=[0], unseen_test=[2]))


@pytest.mark.parametrize("defect, error", [
    ([0.0, 0.0], "seen_test row 1 has zero norm"),
    ([np.inf, 1.0], "seen_test features contain a non-finite value"),
    ([1.0, 1.0], "unseen_unlabeled features contain a non-finite value"),
])
def test_dataset_names_the_first_split_in_splits_order_with_a_bad_row(defect, error):
    """Each split is checked whole, in SPLITS order, whatever the order of
    its rows in the matrix: a bad seen_test row is found before a non-finite
    pool row, though the pool's row comes first; the pool is checked as a
    split without labels."""
    features = np.array([[np.nan, 1.0], [1.0, 2.0], [1.0, 1.0], defect, [3.0, 1.0]])
    rows = split_rows(seen_train=[2], seen_test=[1, 3], unseen_test=[4], unseen_unlabeled=[0])
    with pytest.raises(DataFormatError, match=f"^{re.escape(error)}$"):
        FeatureDataset(features, [-1, 0, 0, 0, 1], rows)


def test_dataset_split_copies_its_rows_in_list_order():
    features = np.arange(10.0).reshape(5, 2) + 1.0
    data = FeatureDataset(features, [0, 1, 0, 2, -1],
                          split_rows(seen_train=[3, 0, 2], unseen_test=[1], unseen_unlabeled=[4, 1]))
    x, y = data.split("seen_train")
    np.testing.assert_array_equal(x, features[[3, 0, 2]])
    assert y.tolist() == [2, 0, 0]
    x[:] = 0.0
    assert data.features[3, 0] == 7.0
    x, y = data.split("unseen_unlabeled")
    np.testing.assert_array_equal(x, features[[4, 1]])
    assert y.tolist() == [-1, 1]
    assert data.split("seen_test")[0].shape == (0, 2)


# ----------------------------------------------------------------- synthetic


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(unseen_classes=0)
    with pytest.raises(ValueError):
        SyntheticSpec(seen_classes=1)
    with pytest.raises(ValueError):
        SyntheticSpec(samples_per_class=3)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_sigma=-0.1)
    for seed in (-1, 2**64):  # a seed names its own stream, never another one modulo 2^64
        with pytest.raises(ValueError, match="seed"):
            SyntheticSpec(seed=seed)


def test_synthetic_classes_need_distinct_attribute_vectors():
    """One binary attribute gives one nonzero vector, too few for three classes."""
    spec = SyntheticSpec(seen_classes=2, unseen_classes=1, attr_dim=1)
    with pytest.raises(DataFormatError,
                       match="^could not draw distinct attribute vectors after 100 redraws$"):
        make_synthetic_dataset(spec)


def test_synthetic_shapes_and_split_sizes():
    attrs, data, hidden = make_synthetic_dataset(TINY_SPEC)
    s = TINY_SPEC
    assert attrs.n_classes == s.seen_classes + s.unseen_classes
    assert attrs.attr_dim == s.attr_dim
    assert hidden.shape == (s.feature_dim, s.attr_dim)
    per = s.samples_per_class
    cut = int(0.7 * per)
    assert data.features.shape == (attrs.n_classes * per, s.feature_dim)
    assert data.split("seen_train")[0].shape == (s.seen_classes * cut, s.feature_dim)
    assert data.split("seen_test")[0].shape == (s.seen_classes * (per - cut), s.feature_dim)
    assert data.split("unseen_test")[0].shape == (s.unseen_classes * per, s.feature_dim)
    np.testing.assert_array_equal(data.rows["unseen_unlabeled"], data.rows["unseen_test"])


def test_synthetic_attributes_are_binary_and_distinct():
    attrs, _, _ = make_synthetic_dataset(TINY_SPEC)
    vals = np.unique(attrs.attrs)
    assert set(vals.tolist()) <= {0.0, 1.0}
    for i in range(attrs.n_classes):
        for j in range(i + 1, attrs.n_classes):
            assert not np.array_equal(attrs.attrs[i], attrs.attrs[j])


def test_synthetic_sigma_zero_gives_exact_prototypes():
    spec = SyntheticSpec(seen_classes=2, unseen_classes=1, attr_dim=4,
                         feature_dim=5, samples_per_class=4, noise_sigma=0.0, seed=3)
    attrs, data, hidden = make_synthetic_dataset(spec)
    prototypes = attrs.attrs @ hidden.T
    for name in data_module.LABELED_SPLITS:
        for row, lab in zip(*data.split(name)):
            np.testing.assert_array_equal(row, prototypes[lab])


def test_synthetic_deterministic():
    a1, d1, h1 = make_synthetic_dataset(TINY_SPEC)
    a2, d2, h2 = make_synthetic_dataset(TINY_SPEC)
    np.testing.assert_array_equal(a1.attrs, a2.attrs)
    np.testing.assert_array_equal(h1, h2)
    np.testing.assert_array_equal(d1.features, d2.features)
    np.testing.assert_array_equal(d1.labels, d2.labels)


def test_synthetic_distinct_seeds_distinct_maps():
    import dataclasses

    _, _, h1 = make_synthetic_dataset(TINY_SPEC)
    _, _, h2 = make_synthetic_dataset(dataclasses.replace(TINY_SPEC, seed=6))
    assert not np.array_equal(h1, h2)


def test_synthetic_nearest_prototype_oracle_is_perfect():
    """At sigma small relative to prototype separation, the hidden map
    classifies unseen test samples perfectly."""
    attrs, data, hidden = make_synthetic_dataset(SyntheticSpec())
    prototypes = attrs.attrs @ hidden.T
    feats, labels = data.split("unseen_test")
    dists = ((feats[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(np.argmin(dists, axis=1), labels)


# ------------------------------------------------------------------- file i/o


def test_export_features_header_only_for_empty(tmp_path):
    path = str(tmp_path / "f.csv")
    export_features_csv(np.zeros((0, 3)), np.zeros(0, dtype=int), path)
    lines = Path(path).read_text().splitlines()
    assert lines == ["class_id,x_1,x_2,x_3"]


def test_export_features_row_count_and_roundtrip(tmp_path):
    from otzsl.rng import SeededRng

    path = str(tmp_path / "f.csv")
    feats = SeededRng(7).gaussian(6).reshape(2, 3) * 1e-7
    export_features_csv(feats, [4, 2], path)
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 3
    back = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[1:]])
    np.testing.assert_array_equal(back, feats)
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [4, 2]


def test_export_features_length_mismatch(tmp_path):
    with pytest.raises(ValueError, match="labels"):
        export_features_csv(np.ones((2, 2)), [0], str(tmp_path / "f.csv"))


def test_dataset_roundtrip_bit_exact(tmp_path):
    attrs, data, _ = make_synthetic_dataset(TINY_SPEC)
    save_dataset(str(tmp_path), attrs, data)
    attrs2, data2 = load_dataset(str(tmp_path))
    np.testing.assert_array_equal(attrs.attrs, attrs2.attrs)
    assert attrs.seen_ids == attrs2.seen_ids
    assert attrs.unseen_ids == attrs2.unseen_ids
    np.testing.assert_array_equal(data.features, data2.features)
    np.testing.assert_array_equal(data.labels, data2.labels)
    for name in data_module.SPLITS:
        np.testing.assert_array_equal(data.rows[name], data2.rows[name])


def test_save_twice_is_byte_identical(tmp_path):
    attrs, data, _ = make_synthetic_dataset(TINY_SPEC)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_dataset(str(d1), attrs, data)
    save_dataset(str(d2), attrs, data)
    for name in ("attributes.csv", "features.csv", "split.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_load_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="missing file"):
        load_dataset(str(tmp_path))


def saved_dataset(tmp_path):
    attrs, data, _ = make_synthetic_dataset(TINY_SPEC)
    save_dataset(str(tmp_path), attrs, data)
    return attrs, data


def test_load_requires_split_json(tmp_path):
    saved_dataset(tmp_path)
    (tmp_path / "split.json").unlink()
    with pytest.raises(DataFormatError,
                       match=f"^missing file: {re.escape(str(tmp_path / 'split.json'))}$"):
        load_dataset(str(tmp_path))


def test_load_rejects_attribute_class_ids_other_than_0_to_n(tmp_path):
    attrs, _ = saved_dataset(tmp_path)
    path = tmp_path / "attributes.csv"
    lines = path.read_text().splitlines()
    lines[2] = "7" + lines[2][lines[2].index(","):]  # class 1's row, now class 7
    path.write_text("\n".join(lines) + "\n")
    ids = [0, 7, *range(2, attrs.n_classes)]
    with pytest.raises(DataFormatError, match=re.escape(
            f"attributes.csv class ids must be 0..{attrs.n_classes - 1}, got {ids}")):
        load_dataset(str(tmp_path))


# The opens of each dataset file: a CSV is opened by the line reader and then
# again for the one parse of its body; split.json once.
@pytest.mark.parametrize("name, nth", [("attributes.csv", 1), ("attributes.csv", 2),
                                       ("features.csv", 1), ("features.csv", 2),
                                       ("split.json", 1)])
def test_load_reports_a_file_it_cannot_open_as_a_data_error(tmp_path, monkeypatch, name, nth):
    saved_dataset(tmp_path)
    deny_open(monkeypatch, os.path.join(str(tmp_path), name), nth)
    with pytest.raises(DataFormatError,
                       match=f"^cannot read {re.escape(str(tmp_path / name))}: Permission denied$"):
        load_dataset(str(tmp_path))


def test_load_rejects_wrong_column_count(tmp_path):
    saved_dataset(tmp_path)
    path = tmp_path / "features.csv"
    lines = path.read_text().splitlines()
    lines[3] = lines[3] + ",0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"features\.csv:4"):
        load_dataset(str(tmp_path))


def test_load_rejects_non_numeric(tmp_path):
    saved_dataset(tmp_path)
    path = tmp_path / "attributes.csv"
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[1] = "banana"
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=r"attributes\.csv:3"):
        load_dataset(str(tmp_path))


def test_load_rejects_missing_split_key(tmp_path):
    saved_dataset(tmp_path)
    path = tmp_path / "split.json"
    split = json.loads(path.read_text())
    del split["unseen_test_rows"]
    path.write_text(json.dumps(split))
    with pytest.raises(DataFormatError, match="expected keys"):
        load_dataset(str(tmp_path))


def test_load_rejects_out_of_range_row(tmp_path):
    saved_dataset(tmp_path)
    path = tmp_path / "split.json"
    split = json.loads(path.read_text())
    split["seen_train_rows"][0] = 10_000
    path.write_text(json.dumps(split))
    with pytest.raises(DataFormatError, match="outside"):
        load_dataset(str(tmp_path))


def test_load_rejects_unknown_class_id(tmp_path):
    saved_dataset(tmp_path)
    path = tmp_path / "split.json"
    split = json.loads(path.read_text())
    split["unseen"] = split["unseen"] + [99]
    path.write_text(json.dumps(split))
    with pytest.raises(DataFormatError, match="absent"):
        load_dataset(str(tmp_path))


def test_load_rejects_unlabeled_row_in_labeled_split(tmp_path):
    attrs, data = saved_dataset(tmp_path)
    fpath = tmp_path / "features.csv"
    lines = fpath.read_text().splitlines()
    first_train_row = json.loads((tmp_path / "split.json").read_text())["seen_train_rows"][0]
    parts = lines[1 + first_train_row].split(",")
    parts[0] = "-1"
    lines[1 + first_train_row] = ",".join(parts)
    fpath.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError,
                       match=rf"^seen_train_rows includes unlabeled row {first_train_row}$"):
        load_dataset(str(tmp_path))


def test_load_rejects_bad_json(tmp_path):
    saved_dataset(tmp_path)
    (tmp_path / "split.json").write_text("{not json")
    with pytest.raises(DataFormatError, match="split.json"):
        load_dataset(str(tmp_path))


def test_load_rejects_a_repeated_split_key(tmp_path):
    """A second "seen" key is an error, not its last value winning."""
    saved_dataset(tmp_path)
    path = tmp_path / "split.json"
    path.write_text(path.read_text().replace("{", '{"seen": [0],', 1))
    with pytest.raises(DataFormatError) as info:
        load_dataset(str(tmp_path))
    assert str(info.value) == f"{path}: repeated key 'seen'"


def test_separate_pool_rows_roundtrip(tmp_path):
    """A pool that is not the unseen test set gets its own unlabeled rows."""
    feats = np.arange(16, dtype=np.float64).reshape(8, 2) + 1.0
    attrs = AttributeMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), (0,), (1,))
    data = dataset_of(2, seen_train=(feats[:3], [0, 0, 0]), seen_test=(feats[3:5], [0, 0]),
                      unseen_test=(feats[5:7], [1, 1]), unseen_unlabeled=feats[7:])
    save_dataset(str(tmp_path), attrs, data)
    split = json.loads((tmp_path / "split.json").read_text())
    assert split["unseen_unlabeled_rows"] == [7]
    _, data2 = load_dataset(str(tmp_path))
    np.testing.assert_array_equal(data2.split("unseen_unlabeled")[0], feats[7:])
    lines = (tmp_path / "features.csv").read_text().splitlines()
    assert lines[-1].startswith("-1,")


# ------------------------------------------------------------- kept splits


@pytest.mark.parametrize("splits", [
    ("seen_train",), ("seen_train", "unseen_unlabeled"), ("seen_test", "unseen_test"),
    ("unseen_test", "unseen_unlabeled"), ("unseen_unlabeled",),
], ids="+".join)
def test_load_dataset_keeps_only_the_named_splits(tmp_path, splits):
    """A named split has the bits of the full load; any other lists no rows.
    The features hold the rows of the named splits and no others."""
    saved_dataset(tmp_path)
    _, full = load_dataset(str(tmp_path))
    _, data = load_dataset(str(tmp_path), splits)
    for name in data_module.SPLITS:
        if name in splits:
            for got, want in zip(data.split(name), full.split(name)):
                assert got.size and got.dtype == want.dtype
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        else:
            assert data.rows[name].shape == (0,)
    kept = sorted(set().union(*(full.rows[name].tolist() for name in splits)))
    np.testing.assert_array_equal(data.features.view(np.uint64),
                                  full.features[kept].view(np.uint64))


def test_subset_load_holds_each_kept_row_once(tmp_path):
    """The pool that gen-data folds into the unseen test rows is not copied twice."""
    attrs, _ = saved_dataset(tmp_path)
    _, data = load_dataset(str(tmp_path), ("unseen_test", "unseen_unlabeled"))
    n_unseen = len(attrs.unseen_ids) * TINY_SPEC.samples_per_class
    assert data.features.shape == (n_unseen, TINY_SPEC.feature_dim)
    assert data.rows["unseen_test"].tolist() == list(range(n_unseen))
    assert data.rows["unseen_unlabeled"].tolist() == list(range(n_unseen))


def test_load_dataset_rejects_an_unknown_split_name(tmp_path):
    saved_dataset(tmp_path)
    with pytest.raises(ValueError, match=r"unknown splits \['seen'\]"):
        load_dataset(str(tmp_path), ("seen_train", "seen"))


def edit_rows(tmp_path, key, edits):
    """Set the class id (col 0) or every feature (col None) of the rows at
    the given positions of split.json's `key` list; the file rows edited."""
    rows = json.loads((tmp_path / "split.json").read_text())[key]
    path = tmp_path / "features.csv"
    lines = path.read_text().splitlines()
    for position, col, cell in edits:
        parts = lines[1 + rows[position]].split(",")
        if col is None:
            parts[1:] = [cell] * (len(parts) - 1)
        else:
            parts[col] = cell
        lines[1 + rows[position]] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    return [rows[position] for position, _, _ in edits]


@pytest.mark.parametrize("edits, splits, message", [
    ([("seen_test_rows", 1, None, "0")], ("seen_train",), "seen_test row 1 has zero norm"),
    ([("unseen_test_rows", 2, 0, "-1")], ("seen_train",),
     "unseen_test_rows includes unlabeled row {0}"),
    ([("seen_test_rows", 0, 0, "-2")], ("seen_train", "unseen_unlabeled"),
     "seen_test has a negative class id"),
    ([("seen_test_rows", 0, 0, "4")], ("unseen_test",),
     "seen_test labels [4] fall outside the expected classes"),
    ([("unseen_test_rows", 1, 0, "0")], ("seen_train",),
     "unseen_test labels [0] fall outside the expected classes"),
    ([("seen_train_rows", 3, None, "0"), ("seen_test_rows", 0, None, "0")], ("seen_test",),
     "seen_train row 3 has zero norm"),
    ([("unseen_test_rows", 0, None, "0"), ("seen_test_rows", 2, None, "0")], ("unseen_test",),
     "seen_test row 2 has zero norm"),
], ids=["zero-norm-seen-test", "unlabeled-in-unseen-test", "negative-id-seen-test",
        "unseen-class-in-seen-test", "seen-class-in-unseen-test", "unread-split-first",
        "unread-split-first-of-two"])
def test_subset_load_raises_the_full_loads_error(tmp_path, edits, splits, message):
    """Every split is checked, read or not, in one order: a defect in a split
    left out raises what the full load raises, and of two defects the one
    the full load meets first."""
    saved_dataset(tmp_path)
    rows = [row for key, *edit in edits for row in edit_rows(tmp_path, key, [tuple(edit)])]
    errors = []
    for selection in (data_module.SPLITS, splits):
        with pytest.raises(DataFormatError) as err:
            load_dataset(str(tmp_path), selection)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert errors[0].endswith(message.format(*rows))


@pytest.mark.parametrize("a, b", [("seen_train", "seen_test"), ("seen_train", "unseen_test"),
                                  ("seen_test", "unseen_test")])
def test_load_rejects_labeled_splits_that_share_a_row(tmp_path, a, b):
    """A row in two labeled splits, such as a training row that is also
    scored as a test row, is a data error naming both keys and the first
    shared row, whichever splits are read."""
    saved_dataset(tmp_path)
    path = tmp_path / "split.json"
    split = json.loads(path.read_text())
    shared = split[f"{a}_rows"][-2:]
    split[f"{b}_rows"] = shared[::-1] + split[f"{b}_rows"]
    path.write_text(json.dumps(split))
    message = f"{a}_rows and {b}_rows share row {min(shared)}"
    for splits in (data_module.SPLITS, (b,)):
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            load_dataset(str(tmp_path), splits)


# ---------------------------------------------------------------- matrix csv


def test_matrix_roundtrip(tmp_path):
    from otzsl.rng import SeededRng

    path = str(tmp_path / "m.csv")
    m = SeededRng(9).gaussian(12).reshape(3, 4)
    save_matrix_csv(m, path)
    np.testing.assert_array_equal(load_matrix_csv(path), m)


@pytest.mark.parametrize("nth", [1, 2])
def test_matrix_a_file_that_cannot_be_opened_is_a_data_error(tmp_path, monkeypatch, nth):
    path = tmp_path / "m.csv"
    save_matrix_csv(np.eye(2), str(path))
    deny_open(monkeypatch, str(path), nth)
    with pytest.raises(DataFormatError,
                       match=f"^cannot read {re.escape(str(path))}: Permission denied$"):
        load_matrix_csv(str(path))


def test_matrix_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("cols,rows\n2,2\n1,2\n3,4\n")
    with pytest.raises(DataFormatError, match=":1"):
        load_matrix_csv(str(path))


def test_matrix_bad_dims_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("rows,cols\ntwo,2\n")
    with pytest.raises(DataFormatError, match=":2"):
        load_matrix_csv(str(path))


def test_matrix_wrong_row_count(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("rows,cols\n2,2\n1,2\n")
    with pytest.raises(DataFormatError, match="expected 2 data rows"):
        load_matrix_csv(str(path))


def test_matrix_bad_cell(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("rows,cols\n1,2\n1,x\n")
    with pytest.raises(DataFormatError, match=":3"):
        load_matrix_csv(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_matrix_nonfinite_cell(tmp_path, cell):
    path = tmp_path / "m.csv"
    path.write_text(f"rows,cols\n2,2\n1,2\n3,{cell}\n")
    with pytest.raises(DataFormatError, match=r"m\.csv:4: column 2 is not a finite number"):
        load_matrix_csv(str(path))


def test_matrix_errors_count_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("rows,cols\n2,2\n\n1,2\n3,nan\n")
    with pytest.raises(DataFormatError, match=r"m\.csv:5: column 2"):
        load_matrix_csv(str(path))
    path.write_text("rows,cols\n\n2,2\n1,2\n\n3,x\n")
    with pytest.raises(DataFormatError, match=r"m\.csv:6: "):
        load_matrix_csv(str(path))


@pytest.mark.parametrize("dims", ["0,-1", "0,3", "-1,2"])
def test_matrix_dimensions_must_be_positive(tmp_path, dims):
    path = tmp_path / "m.csv"
    path.write_text(f"rows,cols\n\n{dims}\n")
    message = rf"m\.csv:3: dimensions must be at least 1, got {dims}"
    with pytest.raises(DataFormatError, match=message):
        load_matrix_csv(str(path))


def test_matrix_rejects_non_utf8(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"rows,cols\n1,2\n1,\xff\n")
    with pytest.raises(DataFormatError, match=r"m\.csv: 'utf-8' codec can't decode byte 0xff"):
        load_matrix_csv(str(path))


@pytest.mark.parametrize("name", ["attributes.csv", "features.csv", "split.json"])
def test_load_rejects_non_utf8(tmp_path, name):
    saved_dataset(tmp_path)
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b"\xff")
    with pytest.raises(DataFormatError, match=rf"{name}: 'utf-8' codec can't decode byte 0xff"):
        load_dataset(str(tmp_path))


def test_split_json_matches_reference(tmp_path):
    saved_dataset(tmp_path)
    path = tmp_path / "split.json"
    reference_write_json(json.loads(path.read_text()), tmp_path / "ref.json")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_load_rejects_header_only_attributes(tmp_path):
    saved_dataset(tmp_path)
    path = tmp_path / "attributes.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with pytest.raises(DataFormatError, match="attributes.csv"):
        load_dataset(str(tmp_path))


@pytest.mark.parametrize("key, value, message", [
    ("seen_train_rows", [0, 12.5], "seen_train_rows must be a list of integers"),
    ("seen", 3, "seen must be a list of integers"),
    ("unseen_test_rows", None, "unseen_test_rows must be a list of integers"),
    ("unseen", [True], "unseen must be a list of integers"),
    (None, None, r"expected keys \['seen', 'seen_test_rows'.*got a JSON list"),
])
def test_load_rejects_malformed_split(tmp_path, key, value, message):
    """Key None replaces the whole object with a list of its values."""
    saved_dataset(tmp_path)
    path = tmp_path / "split.json"
    split = json.loads(path.read_text())
    if key is None:
        split = list(split.values())
    else:
        split[key] = value
    path.write_text(json.dumps(split))
    with pytest.raises(DataFormatError, match=rf"split\.json: {message}"):
        load_dataset(str(tmp_path))


# --------------------------------------------------------------- csv codec
# The per-float writer and reader that the one CSV codec in otzsl.data
# replaced, kept as the reference it must match byte for byte and bit for bit.


def reference_write(path, header, values, ids=None):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for r, row in enumerate(values):
            lead = "" if ids is None else str(int(ids[r])) + ","
            fh.write(lead + ",".join(f"{v:.17g}" for v in row) + "\n")


def reference_read(path, header_lines):
    """Every cell after the header lines, parsed with float()."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln]
    return np.array([[float(c) for c in ln.split(",")] for ln in lines[header_lines:]])


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308,
               1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0, 2.0**53, 0.1, 1 / 3]


def edge_matrix(rows, cols, seed):
    """The edge floats, then finite floats drawn from random bit patterns."""
    bits = SeededRng(seed).next_uint64(4 * rows * cols).view(np.float64)
    values = np.concatenate([EDGE_FLOATS, bits[np.isfinite(bits)]])[: rows * cols]
    return values.reshape(rows, cols)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def test_matrix_codec_matches_reference(tmp_path):
    m = edge_matrix(40, 9, seed=11)
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    reference_write(ref, f"rows,cols\n{m.shape[0]},{m.shape[1]}", m)
    save_matrix_csv(m, str(new))
    assert new.read_bytes() == ref.read_bytes()
    assert_same_bits(load_matrix_csv(str(new)), reference_read(new, 2))
    assert_same_bits(load_matrix_csv(str(new)), m)


def test_export_features_codec_matches_reference(tmp_path):
    feats = edge_matrix(30, 5, seed=12)
    labels = np.array([-1, 0, 7, 123456789] * 7 + [2, -1])
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    reference_write(ref, "class_id,x_1,x_2,x_3,x_4,x_5", feats, labels)
    export_features_csv(feats, labels, str(new))
    assert new.read_bytes() == ref.read_bytes()


def test_dataset_codec_matches_reference(tmp_path):
    attr_values = np.array([
        [-0.0, 5e-324, 1e300, 1.0],
        [0.0, -1e300, 2.0**53, 0.1],
        [-2.2250738585072009e-308, 1 / 3, -3.0, 7.0],
        [1.0, 2.0, 3.0, -0.0],
    ])
    # The last column keeps every row norm away from zero.
    feats = np.column_stack([edge_matrix(16, 3, seed=13), np.arange(1.0, 17.0)])
    attrs_header = "class_id,a_1,a_2,a_3,a_4"
    attrs = AttributeMatrix(attr_values, (0, 1, 2), (3,))
    labels = np.array([0, 1, 2, 0, 1, 2, 2, 1, 0, 3, 3, 3, 3, -1, -1, -1])
    data = FeatureDataset(feats, labels, split_rows(
        seen_train=range(6), seen_test=range(6, 9), unseen_test=range(9, 13),
        unseen_unlabeled=range(13, 16)))
    save_dataset(str(tmp_path), attrs, data)
    attrs2, data2 = load_dataset(str(tmp_path))
    reference_write(tmp_path / "ref_attrs.csv", attrs_header, attr_values, np.arange(4))
    assert (tmp_path / "attributes.csv").read_bytes() == (tmp_path / "ref_attrs.csv").read_bytes()
    reference_write(tmp_path / "ref_feats.csv", "class_id,x_1,x_2,x_3,x_4", feats, labels)
    assert (tmp_path / "features.csv").read_bytes() == (tmp_path / "ref_feats.csv").read_bytes()

    assert_same_bits(attrs2.attrs, reference_read(tmp_path / "attributes.csv", 1)[:, 1:])
    assert_same_bits(attrs2.attrs, attr_values)
    assert_same_bits(reference_read(tmp_path / "features.csv", 1)[:, 1:], feats)
    assert_same_bits(data2.features, feats)
    np.testing.assert_array_equal(data2.labels, labels)


@pytest.mark.parametrize("name, line, col, cell, message", [
    ("features.csv", 3, 2, "2#3", "'2#3'"),
    ("features.csv", 4, 1, "1_0", "'1_0'"),
    ("attributes.csv", 3, 4, "", "''"),
    ("attributes.csv", 2, 0, "0.0", "class id '0.0' is not an integer"),
    ("features.csv", 5, 0, "1.5", "class id '1.5' is not an integer"),
    ("features.csv", 6, 3, "nan", "column 4 is not a finite number"),
    ("features.csv", 2, 8, "-inf", "column 9 is not a finite number"),
])
def test_load_names_the_line_of_a_bad_cell(tmp_path, name, line, col, cell, message):
    saved_dataset(tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    parts = lines[line - 1].split(",")
    parts[col] = cell
    lines[line - 1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=rf"{name}:{line}: .*{message}"):
        load_dataset(str(tmp_path))


# ---------------------------------------------------------------- csv reader
# The CSV reader parses a file's body with one np.loadtxt call and walks its
# lines only to name the first defect. Each case pins the arrays or the
# message that a plain reading of the whole file gives.


@pytest.mark.parametrize("text", [
    "rows,cols\r\n2,2\r\n1,2\r\n3,-4.5\r\n",
    "rows,cols\r2,2\r1,2\r3,-4.5\r",
    "rows,cols\r\n2,2\r1,2\n3,-4.5",
    "\n\nrows,cols\n\n2,2\r\n\r\n1,2\n\n\n3,-4.5\n\n\r",
    "rows,cols\n2,2\n1,\x0c2\n3,-4.5\n",
    "rows,cols\n2,2\n1,\x1c2\n3,-4.5\n",
    "rows,cols\n2,2\n1,\u20282\n3,-4.5\n",
], ids=["crlf", "cr", "mixed-no-final-newline", "blank-lines", "form-feed", "file-separator",
        "line-separator"])
def test_block_reader_line_breaks(tmp_path, text):
    """Lines break at LF, CRLF and CR only: \\x0c, \\x1c and \\u2028 are
    cell content, here whitespace before a number."""
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same_bits(load_matrix_csv(str(path)), np.array([[1.0, 2.0], [3.0, -4.5]]))


@pytest.mark.parametrize("text, message", [
    ("rows,cols\r\n3,2\r\n1,2\r\n\r\n3,x\r\n5,6\r\n",
     "m.csv:5: could not convert string 'x' to float64 at column 2."),
    ("rows,cols\r3,2\r1,2\r\r3,4\r5,nan\r", "m.csv:6: column 2 is not a finite number"),
    ("rows,cols\n3,2\n1,2\x0c3,4\u20285\n", "m.csv:3: expected 2 columns, got 3"),
    ("rows,cols\n\x1c\n2,2\n1,2\n", "m.csv:2: expected two integer dimensions"),
    ("rows,cols\x0c2,x\n1,2\n", "m.csv:1: expected 'rows,cols' header"),
], ids=["crlf", "cr", "form-feed-and-line-separator", "file-separator", "form-feed-head"])
def test_block_reader_numbers_lines_as_splitlines(tmp_path, text, message):
    """Lines are numbered as bytes.splitlines numbers them, at LF, CRLF and
    CR; a line that holds \\x0c, \\x1c or \\u2028 is one line."""
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(DataFormatError) as err:
        load_matrix_csv(str(path))
    assert str(err.value) == f"{path.parent}/{message}"


def damage(path, edits):
    """Set cell `col` of 1-based line `line` to `cell` for each edit; col None
    appends the cell."""
    lines = path.read_text().splitlines()
    for line, col, cell in edits:
        parts = lines[line - 1].split(",")
        if col is None:
            parts.append(cell)
        else:
            parts[col] = cell
        lines[line - 1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edits, message", [
    ([(4, 0, "1.5"), (30, 3, "nan")], "4: class id '1.5' is not an integer"),
    ([(4, 3, "nan"), (30, 2, "x")], "4: column 4 is not a finite number"),
    ([(4, 2, "x"), (30, None, "0.5")], "4: could not convert string 'x' to float64 at column 3."),
    ([(4, None, "0.5"), (30, None, "0.5")], "4: expected 9 columns, got 10"),
    ([(4, 0, "1.5"), (30, 0, "2.5")], "4: class id '1.5' is not an integer"),
    ([(4, 1, "inf"), (30, 5, "nan")], "4: column 2 is not a finite number"),
    ([(4, 1, "x"), (30, 5, "y")], "4: could not convert string 'x' to float64 at column 2."),
], ids=["nan-after-class-id", "parse-after-nan", "columns-after-parse", "two-column-counts",
        "two-class-ids", "two-nans", "two-parse-errors"])
def test_block_reader_reports_what_the_whole_file_check_meets_first(tmp_path, edits, message):
    """Defects far apart: a check of the whole file, line by line, meets the
    first bad line first, whatever the kind of each defect."""
    saved_dataset(tmp_path)
    path = tmp_path / "features.csv"
    damage(path, edits)
    with pytest.raises(DataFormatError) as err:
        load_dataset(str(tmp_path))
    assert str(err.value) == f"{path}:{message}"


@pytest.mark.parametrize("edits, message", [
    ([(4, 0, "1.5"), (5, None, "0.5")], "4: class id '1.5' is not an integer"),
    ([(4, 3, "nan"), (5, 2, "x")], "4: column 4 is not a finite number"),
    ([(5, 3, "nan"), (4, 0, "x")], "4: could not convert string 'x' to float64 at column 1."),
    ([(4, 0, "1.5"), (4, 3, "inf")], "4: column 4 is not a finite number"),
    ([(4, 3, "nan"), (4, 2, "x")], "4: could not convert string 'x' to float64 at column 3."),
    ([(4, 2, "x"), (4, None, "0.5")], "4: expected 9 columns, got 10"),
], ids=["class-id-then-columns", "nan-then-parse", "parse-then-nan", "nan-and-class-id-on-a-line",
        "parse-and-nan-on-a-line", "columns-and-parse-on-a-line"])
def test_block_reader_reports_the_first_bad_line_of_a_block(tmp_path, edits, message):
    """Defects on nearby lines: the first bad line is reported, and within a
    line a wrong column count beats a cell that does not parse, which beats
    a non-finite cell, which beats a bad class id."""
    saved_dataset(tmp_path)
    path = tmp_path / "features.csv"
    damage(path, edits)
    with pytest.raises(DataFormatError) as err:
        load_dataset(str(tmp_path))
    assert str(err.value) == f"{path}:{message}"


@pytest.mark.parametrize("cell", ["1.0", "1e0", "+1.", " 2.0 "])
def test_a_class_id_that_numpy_reads_as_a_float_goes_to_the_walk(tmp_path, cell):
    """numpy parses each cell as a whole float; the class-id converter
    rejects it, so the parse fails and the walk names the line."""
    with pytest.raises(ValueError, match="is not an integer"):
        data_module._class_id(cell)
    saved_dataset(tmp_path)
    path = tmp_path / "features.csv"
    damage(path, [(5, 0, cell)])
    with pytest.raises(DataFormatError) as err:
        load_dataset(str(tmp_path))
    assert str(err.value) == f"{path}:5: class id {cell!r} is not an integer"


@pytest.mark.parametrize("bad, reason", [
    (b"\xff", "byte 0xff in position {}: invalid start byte"),
    (b"\xe2\x80", "bytes in position {}-{}: invalid continuation byte"),
])
def test_block_reader_reports_bad_utf8_after_a_parse_error(tmp_path, bad, reason):
    """A parse error at line 4 comes before a byte that is not UTF-8 at line
    30. Alone, the byte is reported at its offset in the whole file, as
    decoding it all at once reports it."""
    saved_dataset(tmp_path)
    path = tmp_path / "features.csv"
    intact = path.read_bytes()
    damage(path, [(4, 2, "x")])
    for raw, message in ((path.read_bytes(), ":4: could not convert string 'x' to float64 at column 3."),
                         (intact, ": 'utf-8' codec can't decode " + reason)):
        at = sum(len(line) for line in raw.splitlines(keepends=True)[:29]) + 5
        path.write_bytes(raw[:at] + bad + raw[at:])
        with pytest.raises(DataFormatError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value) == f"{path}" + message.format(at, at + 1)


def test_header_read_reports_a_bad_byte_at_its_offset_in_the_file(tmp_path):
    """Read up to its header only (as export reads features.csv) or whole, a
    file with a byte that is not UTF-8 past the first 8 KB of a 2048-column
    header gives the same message, with the byte's offset in the file."""
    saved_dataset(tmp_path)
    path = tmp_path / "features.csv"
    header = ("class_id," + ",".join(f"x_{j + 1}" for j in range(2048))).encode()
    raw, at = path.read_bytes(), 13237
    path.write_bytes(header[:at] + b"\xff" + header[at:] + raw[raw.index(b"\n"):])
    messages = []
    for splits in (data_module.SPLITS, ()):
        with pytest.raises(DataFormatError) as err:
            load_dataset(str(tmp_path), splits)
        messages.append(str(err.value))
    message = f"{path}: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
    assert messages == [message, message]


CLASS_ID = re.compile(r"\s*[+-]?[0-9]{1,15}\s*")


def reference_read_labeled(path, prefix):
    """The first-bad-line rule, read plainly: the whole file decoded at once,
    split at LF, CRLF and CR, then checked one line at a time. The rows
    (class id first), or the message of the first defect."""
    raw = Path(path).read_bytes()
    try:
        text, utf8 = raw.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, utf8 = raw[:exc.start].decode("utf-8"), f"{path}: {exc}"
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if utf8:
        lines.pop()  # the start of the line that holds the bad byte
    width, rows = None, []
    for number, line in enumerate(lines, start=1):
        if not line:
            continue
        if width is None:
            if not line.startswith(prefix):
                return f"{path}: expected header starting with '{prefix}'"
            width = len(line.split(","))
            continue
        cells = line.split(",")
        if len(cells) != width:
            return f"{path}:{number}: expected {width} columns, got {len(cells)}"
        try:
            row = np.loadtxt([line], delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            return f"{path}:{number}: {exc}".replace("at row 0, ", "at ")
        for col, value in enumerate(row.tolist()):
            if not math.isfinite(value):
                return f"{path}:{number}: column {col + 1} is not a finite number"
        if not CLASS_ID.fullmatch(cells[0]):
            return f"{path}:{number}: class id {cells[0]!r} is not an integer"
        rows.append(row)
    if utf8:
        return utf8
    if width is None:
        return f"{path}: expected header starting with '{prefix}'"
    return np.array(rows).reshape(-1, width)


CELLS = ["x", "nan", "-inf", "1e999", "1.5", "2#3", "", " 7 ", "+3", "1_0", "0x10", "9" * 16,
         "1.0", "\x1c3", "\x00", " "]
BREAKS = ["\n", "\n\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028", "\n \n"]
# (kind, line, cell index or byte offset, text)
DAMAGE = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 11), st.integers(0, 8), st.sampled_from(CELLS)),
    st.tuples(st.just("extra"), st.integers(0, 11), st.just(None), st.just("0.5")),
    st.tuples(st.just("drop"), st.integers(0, 11), st.just(None), st.just(None)),
    st.tuples(st.just("break"), st.integers(0, 11), st.just(None), st.sampled_from(BREAKS)),
    st.tuples(st.just("byte"), st.integers(0, 11), st.integers(0, 200),
              st.sampled_from(["\xff", "\xe2\x80", "\xc3"])),
)


@settings(max_examples=150, deadline=None)
@example(name="features.csv",  # a bad line that ends in \r, then a bad byte before the \n
         damages=[("cell", 3, 2, "x"), ("break", 3, None, "\r"), ("byte", 4, 5, "\xff")])
@given(name=st.sampled_from(["attributes.csv", "features.csv"]),
       damages=st.lists(DAMAGE, min_size=1, max_size=3))
def test_block_reader_matches_a_plain_line_by_line_reading(name, damages):
    """A damaged dataset file gives the plain reading's rows or message: one
    numpy parse of the body and a line walk on failure agree with checking
    each line in turn."""
    prefix = {"attributes.csv": "class_id,a_1", "features.csv": "class_id,x_1"}[name]
    with tempfile.TemporaryDirectory() as tmp:
        attrs, data, _ = make_synthetic_dataset(TINY_SPEC)
        save_dataset(tmp, attrs, data)
        path = os.path.join(tmp, name)
        lines = Path(path).read_text().splitlines()[:12]
        ends, bad_bytes = ["\n"] * len(lines), {}
        for kind, line, col, value in damages:
            line %= len(lines)
            cells = lines[line].split(",")
            if kind == "cell":
                cells[col % len(cells)] = value
            elif kind == "extra":
                cells.append(value)
            elif kind == "drop" and len(cells) > 1:
                cells.pop()
            elif kind == "break":
                ends[line] = value
            elif kind == "byte":
                bad_bytes[line] = (col, value.encode("latin-1"))
            lines[line] = ",".join(cells)
        raw = b""
        for line, (text, end) in enumerate(zip(lines, ends)):
            text = text.encode("utf-8")
            if line in bad_bytes:
                at, bad = bad_bytes[line]
                text = text[:at % (len(text) + 1)] + bad + text[at % (len(text) + 1):]
            raw += text + end.encode("utf-8")
        Path(path).write_bytes(raw)
        expected = reference_read_labeled(path, prefix)
        try:
            ids, values = data_module._read_labeled_csv(path, prefix)
        except DataFormatError as exc:
            assert str(exc) == expected
            return
        assert not isinstance(expected, str), expected
        np.testing.assert_array_equal(ids, expected[:, 0].astype(np.int64))
        assert_same_bits(values, expected[:, 1:])


def test_load_dataset_peak_memory_is_about_twice_its_arrays(tmp_path):
    """The body is parsed into one array of the file's rows, which lives
    until the splits are copied out of it: the peak is about twice the
    arrays returned, where holding the text of the file took four times."""
    attrs, data, _ = make_synthetic_dataset(SyntheticSpec(feature_dim=256, samples_per_class=40))
    save_dataset(str(tmp_path), attrs, data)
    (attrs2, data2), peak = traced_peak(load_dataset, str(tmp_path))
    arrays = [attrs2.attrs, data2.features, data2.labels, *data2.rows.values()]
    returned = sum(x.nbytes for x in arrays)
    assert peak <= 2.5 * returned


def test_a_file_whose_lines_end_in_cr_is_read_a_line_at_a_time(tmp_path):
    """Lines that end in CR alone are read one at a time, as LF lines are:
    the header-only read that export makes holds no copy of the file."""
    attrs, data, _ = make_synthetic_dataset(SyntheticSpec(feature_dim=256, samples_per_class=40))
    save_dataset(str(tmp_path), attrs, data)
    path = tmp_path / "features.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    (attrs2, _), peak = traced_peak(load_dataset, str(tmp_path), ())
    assert attrs2.attrs.tobytes() == attrs.attrs.tobytes()
    assert peak <= 0.1 * path.stat().st_size


def test_check_split_makes_no_temporary_of_the_split_size():
    """FeatureDataset's checks sum each row's squares in place, and test
    element by element only the rows whose sum is not finite: no temporary
    of the features' size, not even a boolean one."""
    features = SeededRng(3).gaussian(2000 * 2048).reshape(2000, 2048)
    labels, rows = np.zeros(2000, dtype=np.int64), split_rows(seen_train=np.arange(2000))
    data, peak = traced_peak(FeatureDataset, features, labels, rows)
    assert data.features is features
    assert peak <= 0.2 * features.nbytes


def reference_synthetic_splits(spec):
    """The generator's feature splits built the plain way: every class's
    rows stacked, then each split indexed out of the stack."""
    attrs, _, hidden = make_synthetic_dataset(spec)
    rng = SeededRng(spec.seed)
    noise_rng, split_rng = rng.split(3), rng.split(4)
    n, d = spec.samples_per_class, spec.feature_dim
    prototypes = attrs.attrs @ hidden.T
    feats = np.vstack([prototypes[c] + spec.noise_sigma * noise_rng.gaussian(n * d).reshape(n, d)
                       for c in range(attrs.n_classes)])
    train, test = [], []
    for c in attrs.seen_ids:
        order = c * n + split_rng.permutation(n)
        train.extend(order[:int(0.7 * n)])
        test.extend(order[int(0.7 * n):])
    return feats[train], feats[test], feats[len(attrs.seen_ids) * n:]


@pytest.mark.parametrize("spec", [TINY_SPEC, SyntheticSpec(samples_per_class=7, noise_sigma=0.0)])
def test_synthetic_splits_match_reference(spec):
    _, data, _ = make_synthetic_dataset(spec)
    got = (data.split(name)[0] for name in data_module.LABELED_SPLITS)
    for a, b in zip(got, reference_synthetic_splits(spec)):
        assert a.tobytes() == b.tobytes()


def test_synthetic_rows_are_drawn_straight_into_their_splits():
    """No second copy of the rows and none of the unseen rows: the
    unlabeled pool lists the unseen test rows, and the peak stays near the
    size of the one feature matrix."""
    spec = SyntheticSpec(seen_classes=40, unseen_classes=10, feature_dim=256, samples_per_class=40)
    (_, data, _), peak = traced_peak(make_synthetic_dataset, spec)
    np.testing.assert_array_equal(data.rows["unseen_unlabeled"], data.rows["unseen_test"])
    held = data.features.nbytes
    assert peak <= 1.5 * held


def test_save_dataset_writes_the_splits_without_stacking_them(tmp_path):
    """features.csv is written from the one feature matrix as it is held:
    the peak holds no copy of its rows."""
    attrs, data, _ = make_synthetic_dataset(SyntheticSpec(feature_dim=256, samples_per_class=40))
    _, peak = traced_peak(save_dataset, str(tmp_path), attrs, data)
    written = data.features.nbytes
    assert peak <= 0.25 * written
