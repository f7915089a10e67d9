import json
import tracemalloc

import numpy as np
import pytest

from otzsl.data import SyntheticSpec, make_synthetic_dataset

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


def random_cost(rng, n, m):
    """Random cosine-cost matrix between unit-free gaussian clouds."""
    from otzsl.ot import cosine_cost_matrix
    x = rng.gaussian(n * 5).reshape(n, 5)
    y = rng.gaussian(m * 5).reshape(m, 5)
    return cosine_cost_matrix(x, y)


def assert_allclose(a, b, tol=1e-12):
    np.testing.assert_allclose(a, b, rtol=0, atol=tol)


def reference_write_json(obj, path):
    """The JSON writer that otzsl.data.write_json replaced, kept as the
    reference for config.json, report.json and split.json bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
