import ast
import builtins
import errno
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from otzsl.data import SPLITS, UNLABELED, FeatureDataset, SyntheticSpec, make_synthetic_dataset

PERFBENCH_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

TINY_SPEC = SyntheticSpec(seen_classes=3, unseen_classes=2, attr_dim=6,
                          feature_dim=8, samples_per_class=8,
                          noise_sigma=0.2, seed=5)


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small synthetic dataset shared by fast tests (3 seen / 2 unseen)."""
    return make_synthetic_dataset(TINY_SPEC)


@pytest.fixture(scope="session")
def desk_dataset():
    """The default desk-scale dataset (8 seen / 4 unseen, D=32)."""
    return make_synthetic_dataset(SyntheticSpec())


def split_rows(**lists) -> dict:
    """Each split of SPLITS mapped to its row list in `lists`, or to none."""
    return {name: lists.get(name, []) for name in SPLITS}


def dataset_of(feature_dim, **splits) -> FeatureDataset:
    """A FeatureDataset whose rows are the given splits' rows, stacked in
    SPLITS order: a labeled split is a (features, class ids) pair, the pool
    an array of features, each row of it UNLABELED; a split not given lists
    no rows."""
    feats, labels, rows, start = [], [], {}, 0
    for name in SPLITS:
        split = splits.get(name, np.zeros((0, feature_dim)))
        x, y = split if isinstance(split, tuple) else (split, np.full(len(split), UNLABELED))
        feats.append(np.asarray(x, dtype=np.float64).reshape(-1, feature_dim))
        labels.append(np.asarray(y, dtype=np.int64).reshape(-1))
        rows[name] = np.arange(start, start + len(feats[-1]))
        start += len(feats[-1])
    return FeatureDataset(np.vstack(feats), np.concatenate(labels), rows)


def random_cost(rng, n, m):
    """Random cosine-cost matrix between unit-free gaussian clouds."""
    from otzsl.ot import cosine_cost_matrix
    x = rng.gaussian(n * 5).reshape(n, 5)
    y = rng.gaussian(m * 5).reshape(m, 5)
    return cosine_cost_matrix(x, y)


def scipy_oracle_cost(cost):
    """Independent reference: optimal assignment scaled to uniform marginals."""
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / cost.shape[0]


def assert_allclose(a, b, tol=1e-12):
    np.testing.assert_allclose(a, b, rtol=0, atol=tol)


def reference_write_json(obj, path):
    """The JSON writer that otzsl.data.write_json replaced, kept as the
    reference for config.json, report.json and split.json bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def perfbench_report_keys() -> set:
    """REPORT_KEYS of perfbench/run.py, the keys its run check expects in
    every report.json, read from the source without running it."""
    tree = ast.parse(PERFBENCH_RUN.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["REPORT_KEYS"])


def traced_peak(fn, *args):
    """fn(*args) and the most memory held at once while it ran, its result
    included, in bytes as tracemalloc counts them (numpy arrays included)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_finiteness_checks(monkeypatch) -> list[int]:
    """Patch np.isfinite, the one finiteness test the package uses, to record
    the size of every array it checks; returns the list of sizes."""
    sizes, isfinite = [], np.isfinite

    def counting(x, *args, **kwargs):
        sizes.append(np.size(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    return sizes


def deny_open(monkeypatch, path, nth: int = 1) -> None:
    """Make the nth and every later open of `path` raise PermissionError, as
    on a file its reader may not read (root ignores chmod, so open is patched)."""
    opened, real_open = [], builtins.open

    def fake(file, *args, **kwargs):
        if os.fspath(file) == os.fspath(path):
            opened.append(file)
            if len(opened) >= nth:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", fake)
