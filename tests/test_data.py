import json
import os
from pathlib import Path

import numpy as np
import pytest

from otzsl.data import (
    AttributeMatrix,
    FeatureDataset,
    SyntheticSpec,
    check_dataset,
    export_features_csv,
    load_dataset,
    load_matrix_csv,
    make_synthetic_dataset,
    save_dataset,
    save_matrix_csv,
)
from otzsl.errors import DataFormatError
from otzsl.rng import SeededRng
from tests.conftest import TINY_SPEC


# ----------------------------------------------------------- attribute matrix


def test_attribute_matrix_partition_must_cover():
    attrs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DataFormatError, match="cover"):
        AttributeMatrix(attrs, (0,), (1,))


def test_attribute_matrix_partition_must_be_disjoint():
    attrs = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DataFormatError, match="both seen and unseen"):
        AttributeMatrix(attrs, (0, 1), (1,))


def test_attribute_matrix_rejects_zero_row():
    attrs = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DataFormatError, match="zero-norm"):
        AttributeMatrix(attrs, (0,), (1,))


def test_attribute_matrix_rejects_duplicates():
    attrs = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DataFormatError, match="identical"):
        AttributeMatrix(attrs, (0,), (1,))


def test_attribute_matrix_accessors():
    am = AttributeMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), (0,), (1,))
    assert am.n_classes == 2
    assert am.attr_dim == 2


# ------------------------------------------------------------ feature dataset


def two_class_dataset(pool_rows=0):
    feats = np.arange(12, dtype=np.float64).reshape(6, 2) + 1.0
    return FeatureDataset(
        seen_train=(feats[:2], np.array([0, 0])),
        seen_test=(feats[2:4], np.array([0, 0])),
        unseen_test=(feats[4:], np.array([1, 1])),
        unseen_unlabeled=feats[4:4 + pool_rows],
    )


def test_dataset_label_length_mismatch():
    with pytest.raises(DataFormatError, match="labels"):
        FeatureDataset(
            seen_train=(np.ones((2, 2)), np.array([0])),
            seen_test=(np.ones((1, 2)), np.array([0])),
            unseen_test=(np.ones((1, 2)), np.array([1])),
            unseen_unlabeled=np.zeros((0, 2)),
        )


def test_dataset_dimension_mismatch():
    with pytest.raises(DataFormatError, match="dimension"):
        FeatureDataset(
            seen_train=(np.ones((2, 2)), np.array([0, 0])),
            seen_test=(np.ones((1, 3)), np.array([0])),
            unseen_test=(np.ones((1, 2)), np.array([1])),
            unseen_unlabeled=np.zeros((0, 2)),
        )


def test_dataset_empty_pool_gets_shaped():
    data = two_class_dataset(pool_rows=0)
    assert data.unseen_unlabeled.shape == (0, 2)
    assert data.feature_dim == 2


def test_dataset_rejects_negative_label():
    with pytest.raises(DataFormatError, match="negative"):
        FeatureDataset(
            seen_train=(np.ones((1, 2)), np.array([-1])),
            seen_test=(np.ones((1, 2)), np.array([0])),
            unseen_test=(np.ones((1, 2)), np.array([1])),
            unseen_unlabeled=np.zeros((0, 2)),
        )


def test_check_dataset_catches_crossed_labels():
    am = AttributeMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), (0,), (1,))
    data = two_class_dataset()
    check_dataset(am, data)  # fine
    swapped = FeatureDataset(
        seen_train=data.seen_train,
        seen_test=data.seen_test,
        unseen_test=(data.unseen_test[0], np.array([0, 0])),
        unseen_unlabeled=data.unseen_unlabeled,
    )
    with pytest.raises(DataFormatError, match="unseen_test"):
        check_dataset(am, swapped)


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


def test_synthetic_shapes_and_split_sizes():
    attrs, data, hidden = make_synthetic_dataset(TINY_SPEC)
    s = TINY_SPEC
    assert attrs.n_classes == s.seen_classes + s.unseen_classes
    assert attrs.attr_dim == s.attr_dim
    assert hidden.shape == (s.feature_dim, s.attr_dim)
    per = s.samples_per_class
    cut = int(0.7 * per)
    assert data.seen_train[0].shape == (s.seen_classes * cut, s.feature_dim)
    assert data.seen_test[0].shape == (s.seen_classes * (per - cut), s.feature_dim)
    assert data.unseen_test[0].shape == (s.unseen_classes * per, s.feature_dim)
    np.testing.assert_array_equal(data.unseen_unlabeled, data.unseen_test[0])


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
    for feats, labels in (data.seen_train, data.seen_test, data.unseen_test):
        for row, lab in zip(feats, labels):
            np.testing.assert_array_equal(row, prototypes[lab])


def test_synthetic_deterministic():
    a1, d1, h1 = make_synthetic_dataset(TINY_SPEC)
    a2, d2, h2 = make_synthetic_dataset(TINY_SPEC)
    np.testing.assert_array_equal(a1.attrs, a2.attrs)
    np.testing.assert_array_equal(h1, h2)
    np.testing.assert_array_equal(d1.seen_train[0], d2.seen_train[0])


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
    feats, labels = data.unseen_test
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
    for name in ("seen_train", "seen_test", "unseen_test"):
        np.testing.assert_array_equal(getattr(data, name)[0], getattr(data2, name)[0])
        np.testing.assert_array_equal(getattr(data, name)[1], getattr(data2, name)[1])
    np.testing.assert_array_equal(data.unseen_unlabeled, data2.unseen_unlabeled)


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
    with pytest.raises(DataFormatError, match="unlabeled"):
        load_dataset(str(tmp_path))


def test_load_rejects_bad_json(tmp_path):
    saved_dataset(tmp_path)
    (tmp_path / "split.json").write_text("{not json")
    with pytest.raises(DataFormatError, match="split.json"):
        load_dataset(str(tmp_path))


def test_separate_pool_rows_roundtrip(tmp_path):
    """A pool that is not the unseen test set gets its own unlabeled rows."""
    feats = np.arange(16, dtype=np.float64).reshape(8, 2) + 1.0
    attrs = AttributeMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), (0,), (1,))
    data = FeatureDataset(
        seen_train=(feats[:3], np.array([0, 0, 0])),
        seen_test=(feats[3:5], np.array([0, 0])),
        unseen_test=(feats[5:7], np.array([1, 1])),
        unseen_unlabeled=feats[7:],
    )
    save_dataset(str(tmp_path), attrs, data)
    split = json.loads((tmp_path / "split.json").read_text())
    assert split["unseen_unlabeled_rows"] != split["unseen_test_rows"]
    _, data2 = load_dataset(str(tmp_path))
    np.testing.assert_array_equal(data2.unseen_unlabeled, feats[7:])
    lines = (tmp_path / "features.csv").read_text().splitlines()
    assert lines[-1].startswith("-1,")


# ---------------------------------------------------------------- matrix csv


def test_matrix_roundtrip(tmp_path):
    from otzsl.rng import SeededRng

    path = str(tmp_path / "m.csv")
    m = SeededRng(9).gaussian(12).reshape(3, 4)
    save_matrix_csv(m, path)
    np.testing.assert_array_equal(load_matrix_csv(path), m)


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
    # The norm checks square entries near 1e300 to inf; that is not the codec's concern.
    with np.errstate(over="ignore"):
        attrs = AttributeMatrix(attr_values, (0, 1, 2), (3,))
        data = FeatureDataset(
            seen_train=(feats[:6], np.array([0, 1, 2, 0, 1, 2])),
            seen_test=(feats[6:9], np.array([2, 1, 0])),
            unseen_test=(feats[9:13], np.full(4, 3)),
            unseen_unlabeled=feats[13:],
        )
        save_dataset(str(tmp_path), attrs, data)
        attrs2, data2 = load_dataset(str(tmp_path))
    reference_write(tmp_path / "ref_attrs.csv", attrs_header, attr_values, np.arange(4))
    assert (tmp_path / "attributes.csv").read_bytes() == (tmp_path / "ref_attrs.csv").read_bytes()
    labels = np.concatenate([data.seen_train[1], data.seen_test[1], data.unseen_test[1], [-1, -1, -1]])
    reference_write(tmp_path / "ref_feats.csv", "class_id,x_1,x_2,x_3,x_4", feats, labels)
    assert (tmp_path / "features.csv").read_bytes() == (tmp_path / "ref_feats.csv").read_bytes()

    assert_same_bits(attrs2.attrs, reference_read(tmp_path / "attributes.csv", 1)[:, 1:])
    assert_same_bits(attrs2.attrs, attr_values)
    assert_same_bits(reference_read(tmp_path / "features.csv", 1)[:, 1:], feats)
    for name in ("seen_train", "seen_test", "unseen_test"):
        assert_same_bits(getattr(data2, name)[0], getattr(data, name)[0])
        np.testing.assert_array_equal(getattr(data2, name)[1], getattr(data, name)[1])
    assert_same_bits(data2.unseen_unlabeled, data.unseen_unlabeled)


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
