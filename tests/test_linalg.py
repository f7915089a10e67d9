import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otzsl.linalg import log_softmax_rows, unit_rows
from otzsl.ot import cosine_cost_matrix
from otzsl.rng import SeededRng

finite_rows = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(-1e4, 1e4, allow_nan=False),
)


def softmax_rows(m):
    """Reference row softmax, stabilized by per-row max subtraction."""
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cosine(x, y) -> float:
    """The one entry of cosine_cost_matrix for a single pair of vectors."""
    return float(cosine_cost_matrix(np.atleast_2d(x), np.atleast_2d(y))[0, 0])


def test_cosine_identical_direction_is_zero():
    assert cosine(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == pytest.approx(0.0, abs=1e-15)


def test_cosine_orthogonal_is_one():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_cosine_opposite_is_two():
    assert cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(2.0)


def test_cosine_zero_vector_errors():
    with pytest.raises(ValueError, match="zero norm"):
        cosine(np.zeros(3), np.ones(3))


@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_cosine_scale_invariance(a, b, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=4), rng.normal(size=4)
    if np.linalg.norm(x) < 1e-9 or np.linalg.norm(y) < 1e-9:
        return
    d1 = cosine(x, y)
    d2 = cosine(a * x, b * y)
    assert d1 == pytest.approx(d2, abs=1e-9)
    assert 0.0 <= d1 <= 2.0


def test_unit_rows_norms():
    x = np.array([[3.0, 4.0], [0.0, 2.0]])
    unit, norms = unit_rows(x, "features")
    np.testing.assert_allclose(norms, [5.0, 2.0])
    np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0)


def test_unit_rows_zero_row_names_index():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="row 1"):
        unit_rows(x, "features")


def test_unit_rows_norms_keep_np_linalg_norm_bits():
    x = SeededRng(3).gaussian(40 * 7).reshape(40, 7) * 1e3
    unit, norms = unit_rows(x)
    expected = np.linalg.norm(x, axis=1)
    assert np.array_equal(norms, expected)
    assert np.array_equal(unit, x / expected[:, None])


def test_overflowing_row_raises_without_a_warning():
    # warnings are errors in this suite: np.linalg.norm squared 1e200 into an
    # overflow warning (and an infinite norm, so all-zero unit rows)
    with pytest.raises(ValueError, match="real features row 1 is too large"):
        cosine_cost_matrix(np.array([[1.0, 0.0, 0.0], [1e200, 1e200, 1e200]]), np.ones((2, 3)))
    with pytest.raises(ValueError, match="generated features row 0 is too large"):
        cosine_cost_matrix(np.ones((2, 3)), np.full((2, 3), 1e200))


def test_softmax_uniform_on_equal_logits():
    np.testing.assert_allclose(np.exp(log_softmax_rows(np.zeros((1, 2)))), [[0.5, 0.5]])


def test_softmax_no_overflow_on_large_logits():
    out = np.exp(log_softmax_rows(np.array([[1000.0, 1000.0]])))
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def test_softmax_known_ratio():
    out = np.exp(log_softmax_rows(np.array([[0.0, np.log(3.0)]])))
    np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)


@given(finite_rows)
@settings(max_examples=120, deadline=None)
def test_softmax_rows_sum_to_one(logits):
    out = np.exp(log_softmax_rows(logits))
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out >= 0.0)


@given(finite_rows)
@settings(max_examples=80, deadline=None)
def test_log_softmax_matches_softmax(logits):
    np.testing.assert_allclose(np.exp(log_softmax_rows(logits)), softmax_rows(logits),
                               atol=1e-12)
