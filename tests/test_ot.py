import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otzsl.errors import ConfigError, SolverError
from otzsl.ot import (
    _BLOCK_BYTES,
    _BLOCK_SWEEPS,
    FEASIBILITY_TOL,
    Marginals,
    _round_to_polytope,
    check_marginals,
    cosine_cost_matrix,
    ipot_solve,
    sinkhorn_solve,
    transition_plan,
    transport_cost,
)
from otzsl.rng import SeededRng
from tests.conftest import random_cost, scipy_oracle_cost

# ---------------------------------------------------------------- cost matrix


def test_cost_single_pair_identical_direction():
    np.testing.assert_allclose(
        cosine_cost_matrix([[1.0, 0.0]], [[2.0, 0.0]]), [[0.0]], atol=1e-15
    )


def test_cost_orthogonal_pairs():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(cosine_cost_matrix(x, x), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def cosine_distance(x, y) -> float:
    """Scalar reference for one entry of cosine_cost_matrix: 1 - cos(x, y)."""
    return 1.0 - float(np.dot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y))


def test_cost_matches_scalar_loop():
    rng = SeededRng(17)
    x = rng.gaussian(4 * 6).reshape(4, 6)
    y = rng.gaussian(3 * 6).reshape(3, 6)
    C = cosine_cost_matrix(x, y)
    for n in range(4):
        for m in range(3):
            assert C[n, m] == pytest.approx(cosine_distance(x[n], y[m]), abs=1e-12)


def test_cost_zero_norm_row_errors_with_index():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="row 1"):
        cosine_cost_matrix(x, np.ones((2, 2)))


def test_cost_range_and_shape():
    rng = SeededRng(3)
    C = random_cost(rng, 7, 5)
    assert C.shape == (7, 5)
    assert C.min() >= 0.0 and C.max() <= 2.0


def test_cost_dimension_mismatch_errors():
    with pytest.raises(ValueError, match="dimensions differ"):
        cosine_cost_matrix(np.ones((2, 3)), np.ones((2, 4)))


def test_cost_invariant_under_row_scaling():
    """Scaling one generated feature by c > 0 leaves its cost column unchanged."""
    rng = SeededRng(8)
    x = rng.gaussian(3 * 4).reshape(3, 4)
    y = rng.gaussian(3 * 4).reshape(3, 4)
    scaled = y.copy()
    scaled[1] *= 37.5
    np.testing.assert_allclose(cosine_cost_matrix(x, y), cosine_cost_matrix(x, scaled),
                               atol=1e-12)


# ------------------------------------------------------------------ marginals


def test_marginals_uniform():
    marg = Marginals.uniform(4, 2)
    np.testing.assert_allclose(marg.row, 0.25)
    np.testing.assert_allclose(marg.col, 0.5)


@pytest.mark.parametrize("n_rows, n_cols, error", [
    (2.5, 2, "n_rows must be of type int, got 2.5"),
    (True, 2, "n_rows must be of type int, got True"),
    (2, np.float64(3.0), "n_cols must be of type int, got 3.0"),
    (0, 2, "n_rows must be at least 1, got 0"),
])
def test_marginals_uniform_counts_are_ints(n_rows, n_cols, error):
    """A count that is no positive int is a ConfigError, also a ValueError,
    not numpy's TypeError; a numpy integer is an int."""
    with pytest.raises(ConfigError, match=f"^{error}$") as info:
        Marginals.uniform(n_rows, n_cols)
    assert isinstance(info.value, ValueError)
    assert Marginals.uniform(np.int64(2), 4).row.tolist() == [0.5, 0.5]


@pytest.mark.parametrize(
    "row, col",
    [
        ([0.5, -0.5, 1.0], [1.0]),
        ([0.5, 0.5], [0.3, 0.3]),
        ([1.0, 0.0], [0.5, 0.5]),
        ([], [1.0]),
    ],
)
def test_marginals_rejects_invalid(row, col):
    with pytest.raises(ValueError):
        Marginals(np.asarray(row, dtype=float), np.asarray(col, dtype=float))


@pytest.mark.parametrize("row, col, name", [([0.5, np.nan, 0.5], [1.0], "row"),
                                             ([1.0], [np.inf, 0.5], "col")], ids=["row", "col"])
def test_marginals_rejects_a_non_finite_mass(row, col, name):
    with pytest.raises(ValueError, match=f"^{name} marginal has a non-finite entry$"):
        Marginals(np.array(row), np.array(col))


# ----------------------------------------------------------------------- ipot


def test_ipot_single_point():
    out = ipot_solve(np.array([[0.37]]))
    np.testing.assert_allclose(out.values, [[1.0]], atol=1e-9)
    assert transport_cost(out.values, [[0.37]]) == pytest.approx(0.37, abs=1e-9)


def test_ipot_zero_cost_stays_feasible():
    out = ipot_solve(np.zeros((2, 2)))
    assert check_marginals(out.values, Marginals.uniform(2, 2), tol=1e-9).passed
    assert transport_cost(out.values, np.zeros((2, 2))) == pytest.approx(0.0)


def test_ipot_matches_oracle_on_random_instances():
    rng = SeededRng(101)
    for trial in range(12):
        n = 2 + trial % 5
        C = random_cost(rng, n, n)
        best = scipy_oracle_cost(C)
        got = transport_cost(ipot_solve(C).values, C)
        assert got == pytest.approx(best, rel=1e-4, abs=1e-9), f"trial {trial}"


def test_ipot_trace_cost_descends():
    rng = SeededRng(5)
    C = random_cost(rng, 6, 6)
    out = ipot_solve(C, record_trace=True)
    costs = out.trace[:, 1]
    assert np.all(np.diff(costs) <= 1e-8)
    assert out.trace.shape[0] == out.iterations_used


def test_ipot_respects_nonuniform_marginals():
    rng = SeededRng(9)
    C = random_cost(rng, 3, 4)
    marg = Marginals(np.array([0.5, 0.25, 0.25]), np.array([0.1, 0.2, 0.3, 0.4]))
    out = ipot_solve(C, marg)
    assert check_marginals(out.values, marg, tol=1e-6).passed


def test_ipot_marginal_length_mismatch():
    with pytest.raises(ValueError, match="marginal lengths"):
        ipot_solve(np.zeros((2, 3)), Marginals.uniform(3, 2))


def test_ipot_rejects_nonfinite_cost():
    with pytest.raises(ValueError, match="non-finite"):
        ipot_solve(np.array([[0.0, np.inf], [1.0, 0.0]]))


# Each bad solver argument with its ConfigError; stop_tol is IPOT's alone.
BAD_ARGUMENTS = [
    ({"reg": 0}, "reg must be greater than 0, got 0"),
    ({"reg": -0.1}, "reg must be greater than 0, got -0.1"),
    ({"reg": True}, "reg must be of type float, got True"),
    ({"reg": float("nan")}, "reg must be a finite number, got nan"),
    ({"iterations": 0}, "iterations must be at least 1, got 0"),
    ({"iterations": 2.5}, "iterations must be of type int, got 2.5"),
]
BAD_STOP_TOLS = [
    ({"stop_tol": -1e-9}, "stop_tol must be at least 0, got -1e-09"),
    ({"stop_tol": float("nan")}, "stop_tol must be a finite number, got nan"),
    ({"stop_tol": float("inf")}, "stop_tol must be a finite number, got inf"),
]


@pytest.mark.parametrize("solve, kwargs, message", [
    *((ipot_solve, kwargs, message) for kwargs, message in BAD_ARGUMENTS + BAD_STOP_TOLS),
    *((sinkhorn_solve, kwargs, message) for kwargs, message in BAD_ARGUMENTS),
])
def test_solvers_reject_bad_arguments(solve, kwargs, message):
    """Both solvers check their keywords by one rule, a ConfigError (also a
    ValueError) naming the keyword."""
    with pytest.raises(ConfigError) as info:
        solve(np.zeros((2, 2)), **kwargs)
    assert str(info.value) == message and isinstance(info.value, ValueError)


def test_ipot_reports_convergence_flag():
    rng = SeededRng(2)
    C = random_cost(rng, 4, 4)
    full = ipot_solve(C)
    assert full.converged
    starved = ipot_solve(C, iterations=3)
    assert not starved.converged
    assert starved.iterations_used == 3


@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(2, 7))
@settings(max_examples=60, deadline=None)
def test_ipot_plans_are_feasible(seed, n, m):
    C = random_cost(SeededRng(seed), n, m)
    marg = Marginals.uniform(n, m)
    out = ipot_solve(C, marg, iterations=400)
    assert check_marginals(out.values, marg, tol=1e-6).passed


def test_ipot_permutation_equivariance():
    """Relabeling rows permutes the plan rows and keeps the cost."""
    rng = SeededRng(77)
    C = random_cost(rng, 5, 5)
    perm = np.array([3, 0, 4, 1, 2])
    base = ipot_solve(C)
    permuted = ipot_solve(C[perm])
    np.testing.assert_allclose(permuted.values, base.values[perm], atol=1e-9)
    assert transport_cost(permuted.values, C[perm]) == pytest.approx(
        transport_cost(base.values, C), abs=1e-9)


def ipot_reference(cost, marg=None, flush=True, reg=0.5, iterations=100_000, stop_tol=1e-9):
    """Plain IPOT loop that tests the stop rule and finiteness after every
    sweep and builds each trace row from its own plan; ipot_solve, which
    tests them once per block, must match it bit for bit. With flush=False
    subnormal plan entries are kept."""
    marg = marg or Marginals.uniform(*cost.shape)
    G = np.exp(-cost / reg)
    a = marg.row.copy()
    plan = np.outer(marg.row, marg.col)
    trace = []
    converged = False
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in range(1, iterations + 1):
            K = G * plan
            b = marg.col / (K.T @ a)
            a = marg.row / (K @ b)
            new_plan = (a[:, None] * K) * b[None, :]
            if flush:
                new_plan[new_plan < np.finfo(np.float64).tiny] = 0.0
            if not np.all(np.isfinite(new_plan)):
                raise SolverError(
                    f"ipot_solve hit non-finite scalings at outer iteration {t}; "
                    "the kernel row/column mass collapsed"
                )
            delta = np.max(np.abs(new_plan - plan))
            plan = new_plan
            dev = max(np.max(np.abs(plan.sum(axis=1) - marg.row)),
                      np.max(np.abs(plan.sum(axis=0) - marg.col)))
            trace.append((t, np.sum(plan * cost), dev))
            if delta < stop_tol and dev <= FEASIBILITY_TOL:
                converged = True
                break
    return _round_to_polytope(plan, marg), converged, t, np.asarray(trace)


def assert_matches_reference(cost, record_trace, marg=None, **kwargs):
    values, converged, iterations, trace = ipot_reference(cost, marg, **kwargs)
    out = ipot_solve(cost, marg, record_trace=record_trace, **kwargs)
    assert np.array_equal(out.values, values)
    assert out.converged == converged
    assert out.iterations_used == iterations
    if record_trace:
        assert np.array_equal(out.trace, trace)
    else:
        assert out.trace is None
    return out


# Every IPOT step is one sweep; the "-1" in these ids names that sweep count,
# as it did when the count was a setting, so the case ids stay the same.
@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize("shape", [(7, 7), (6, 11)])
@pytest.mark.parametrize("budget", [1, 15, 16, 17, 33, 200], ids=lambda b: f"{b}-1")
def test_ipot_budget_capped_matches_reference(budget, shape, record_trace):
    cost = random_cost(SeededRng(0), *shape)
    out = assert_matches_reference(cost, record_trace, iterations=budget)
    assert not out.converged and out.iterations_used == budget


# The last four are the solver benchmark's cost shapes at its 2000-sweep budget,
# each with a seed whose stop rule fires inside a block.
@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize("seed, shape, budget", [
    (1, (7, 7), 5000), (1, (6, 11), 5000), (1, (16, 16), 2000), (7, (32, 32), 2000),
    (5, (24, 40), 2000), (7, (48, 48), 2000),
], ids=["shape0-1", "shape1-1", "16x16-2000", "32x32-2000", "24x40-2000", "48x48-2000"])
def test_ipot_stop_inside_a_block_matches_reference(seed, shape, budget, record_trace):
    cost = random_cost(SeededRng(seed), *shape)
    out = assert_matches_reference(cost, record_trace, iterations=budget)
    assert out.converged and out.iterations_used % _BLOCK_SWEEPS != 0


def test_ipot_trace_of_short_blocks_matches_reference():
    """At 200 x 200 a block holds fewer than _BLOCK_SWEEPS sweeps and a plan
    more than 8192 entries, numpy's reduction buffer: the batched trace
    rows still equal those of one plan at a time."""
    cost = random_cost(SeededRng(4), 200, 200)
    assert (_BLOCK_BYTES // cost.nbytes - 1) // 2 < _BLOCK_SWEEPS
    out = assert_matches_reference(cost, True, iterations=20)
    assert out.iterations_used == 20


@pytest.mark.parametrize("budget", [40, 5000])
def test_ipot_nonuniform_marginals_match_reference(budget):
    rng = SeededRng(6)
    row, col = rng.uniform(9) + 0.1, rng.uniform(13) + 0.1
    marg = Marginals(row / row.sum(), col / col.sum())
    out = assert_matches_reference(random_cost(rng, 9, 13), True, marg, iterations=budget)
    assert out.converged == (budget == 5000)


def test_ipot_flushes_subnormal_plan_entries():
    """A 2000-sweep solve drives off-support entries below the smallest
    normal float: they come back as 0, and the sweeps, flags and trace are
    those of the unflushed iteration."""
    rng = SeededRng(3)
    cost = cosine_cost_matrix(rng.gaussian(48 * 16).reshape(48, 16),
                              rng.gaussian(48 * 16).reshape(48, 16))
    values, converged, iterations, trace = ipot_reference(cost, flush=False, iterations=2000)
    out = ipot_solve(cost, iterations=2000, record_trace=True)
    tiny = np.finfo(np.float64).tiny
    assert np.any((values > 0.0) & (values < tiny))
    assert (out.converged, out.iterations_used) == (converged, iterations)
    assert np.array_equal(out.trace, trace)
    moved = out.values != values
    assert np.all(values[moved] < tiny) and np.all(out.values[moved] == 0.0)
    assert not np.any((out.values > 0.0) & (out.values < tiny))


def test_ipot_blow_up_matches_reference_without_warnings():
    """A tiny proximal weight drives the scalings to overflow mid-block: the
    error names the first non-finite sweep, and no RuntimeWarning escapes."""
    cost = random_cost(SeededRng(0), 16, 16)
    with pytest.raises(SolverError) as expected:
        ipot_reference(cost, reg=0.002, iterations=5000)
    assert "outer iteration 713;" in str(expected.value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as got:
            ipot_solve(cost, reg=0.002, iterations=5000)
    assert str(got.value) == str(expected.value)


# ------------------------------------------------------------------- sinkhorn


def test_sinkhorn_closed_form_two_point():
    """C = [[0,1],[1,0]], lambda = 0.1: diagonal mass 0.5/(1+e^-10)."""
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = sinkhorn_solve(C, reg=0.1, iterations=200)
    diag = 0.5 / (1.0 + np.exp(-10.0))
    off = 0.5 - diag
    np.testing.assert_allclose(out.values, [[diag, off], [off, diag]], atol=1e-12)
    assert transport_cost(out.values, C) == pytest.approx(2 * off, abs=1e-12)
    assert transport_cost(out.values, C) == pytest.approx(4.5398e-5, rel=1e-3)


def test_sinkhorn_constant_cost_gives_product_coupling():
    marg = Marginals(np.array([0.7, 0.3]), np.array([0.2, 0.8]))
    out = sinkhorn_solve(np.full((2, 2), 0.4), marg, reg=0.05)
    np.testing.assert_allclose(out.values, np.outer(marg.row, marg.col), atol=1e-12)


def test_sinkhorn_large_reg_approaches_product_coupling():
    rng = SeededRng(21)
    C = random_cost(rng, 3, 3)
    out = sinkhorn_solve(C, reg=100.0, iterations=500)
    np.testing.assert_allclose(out.values, np.full((3, 3), 1 / 9), atol=1e-2)


def test_sinkhorn_underflow_raises_solver_error():
    C = np.array([[2.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SolverError, match="regularization"):
        sinkhorn_solve(C, reg=0.002)


def test_sinkhorn_overflow_raises_without_warnings():
    """The kernel's rows are subnormal but nonzero, so the first column
    scaling overflows: a SolverError, and no RuntimeWarning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="non-finite at iteration 1;"):
            sinkhorn_solve(np.array([[0.5, 1.0], [1.0, 0.5]]), reg=0.0007)


@pytest.mark.parametrize("shape", [(6, 11), (100, 100)])
def test_sinkhorn_trace_matches_reference(shape):
    """Each trace row equals np.sum(plan * cost) and the max marginal
    deviation of that iteration's plan, bit for bit."""
    cost = random_cost(SeededRng(8), *shape)
    marg = Marginals.uniform(*shape)
    K = np.exp(-cost / 0.1)
    a = marg.row.copy()
    expected = []
    for t in range(1, 31):
        b = marg.col / (K.T @ a)
        a = marg.row / (K @ b)
        plan = (a[:, None] * K) * b
        dev = max(np.max(np.abs(plan.sum(axis=1) - marg.row)),
                  np.max(np.abs(plan.sum(axis=0) - marg.col)))
        expected.append((t, np.sum(plan * cost), dev))
    out = sinkhorn_solve(cost, marg, reg=0.1, iterations=30, record_trace=True)
    assert np.array_equal(out.trace, np.asarray(expected))


def sinkhorn_reference(cost, marg, reg, iterations):
    """Plain Sinkhorn loop that tests finiteness after every sweep and builds
    each trace row from its own plan; sinkhorn_solve, which does both once
    per block of sweeps, must match it bit for bit."""
    K = np.exp(-cost / reg)
    a = marg.row.copy()
    trace = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for t in range(1, iterations + 1):
            b = marg.col / (K.T @ a)
            a = marg.row / (K @ b)
            plan = (a[:, None] * K) * b
            if not np.all(np.isfinite(plan)):
                raise SolverError(f"sinkhorn_solve scalings became non-finite at iteration {t}; "
                                  "increase the regularization weight")
            dev = max(np.max(np.abs(plan.sum(axis=1) - marg.row)),
                      np.max(np.abs(plan.sum(axis=0) - marg.col)))
            trace.append((t, np.sum(plan * cost), dev))
    return (_round_to_polytope(plan, marg), check_marginals(plan, marg).passed,
            np.asarray(trace))


@pytest.mark.parametrize("record_trace", [False, True])
@pytest.mark.parametrize("shape, reg", [((7, 7), 0.1), ((6, 11), 0.02), ((200, 200), 0.1),
                                        ((16, 16), 0.1), ((32, 32), 0.1), ((24, 40), 0.1),
                                        ((48, 48), 0.1)])
@pytest.mark.parametrize("iterations", [1, 15, 16, 17, 33, 200])
def test_sinkhorn_blocks_match_reference(iterations, shape, reg, record_trace):
    """Any budget, whole blocks or not, and blocks cut short by a large plan
    (200 x 200): the plan, flag and trace of checking after every sweep. The
    last four shapes are the solver benchmark's, whose runs use 200 sweeps at
    reg 0.1, the defaults."""
    cost = random_cost(SeededRng(2), *shape)
    marg = Marginals.uniform(*shape)
    values, converged, trace = sinkhorn_reference(cost, marg, reg, iterations)
    out = sinkhorn_solve(cost, marg, reg=reg, iterations=iterations, record_trace=record_trace)
    assert np.array_equal(out.values, values)
    assert (out.converged, out.iterations_used) == (converged, iterations)
    if record_trace:
        assert np.array_equal(out.trace, trace)
    else:
        assert out.trace is None


@pytest.mark.parametrize("seed, shape", [(23, (5, 3)), (34, (4, 6))])
def test_sinkhorn_blow_up_raises_at_the_reference_iteration(seed, shape):
    """Scalings that overflow at sweep 45, inside the sixth block of
    _BLOCK_SWEEPS = 8: the error names sweep 45, not the end of its block,
    and no RuntimeWarning escapes."""
    cost = 2.0 * SeededRng(seed).uniform(shape[0] * shape[1]).reshape(shape)
    marg = Marginals.uniform(*shape)
    with pytest.raises(SolverError) as expected:
        sinkhorn_reference(cost, marg, 0.0015, 400)
    assert "at iteration 45;" in str(expected.value) and 45 % _BLOCK_SWEEPS
    for record_trace in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError) as got:
                sinkhorn_solve(cost, marg, reg=0.0015, iterations=400, record_trace=record_trace)
        assert str(got.value) == str(expected.value)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_sinkhorn_plans_are_feasible(seed, n, m):
    C = random_cost(SeededRng(seed), n, m)
    marg = Marginals.uniform(n, m)
    out = sinkhorn_solve(C, marg, reg=0.5, iterations=300)
    assert check_marginals(out.values, marg, tol=1e-6).passed


def test_ipot_cost_never_above_sinkhorn_same_reg():
    rng = SeededRng(31)
    for _ in range(10):
        C = random_cost(rng, 6, 6)
        ipot_c = transport_cost(ipot_solve(C).values, C)
        sink_c = transport_cost(sinkhorn_solve(C, reg=0.5, iterations=2000).values, C)
        assert ipot_c <= sink_c + 1e-6


# ------------------------------------------------------------- transport cost


def test_transport_cost_examples():
    assert transport_cost(np.zeros((2, 2)), np.ones((2, 2))) == 0.0
    assert transport_cost(np.array([[1.0]]), np.array([[0.7]])) == pytest.approx(0.7)


def test_transport_cost_matches_scalar_loop():
    rng = SeededRng(4)
    plan = rng.uniform(12).reshape(3, 4)
    cost = rng.uniform(12).reshape(3, 4)
    expected = sum(plan[i, j] * cost[i, j] for i in range(3) for j in range(4))
    assert transport_cost(plan, cost) == pytest.approx(expected, abs=1e-12)


def test_transport_cost_shape_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        transport_cost(np.zeros((2, 2)), np.zeros((2, 3)))


# ------------------------------------------------------------ transition plan


def test_transition_single_pair():
    out = transition_plan([4], [4])
    np.testing.assert_array_equal(out, [[1.0]])


def test_transition_two_classes_balanced():
    real = [0, 0, 1, 1]
    synth = [0, 0, 1, 1]
    out = transition_plan(real, synth)
    expected = np.array(
        [
            [0.125, 0.125, 0.0, 0.0],
            [0.125, 0.125, 0.0, 0.0],
            [0.0, 0.0, 0.125, 0.125],
            [0.0, 0.0, 0.125, 0.125],
        ]
    )
    np.testing.assert_allclose(out, expected)
    np.testing.assert_allclose(out.sum(axis=1), 0.25)
    np.testing.assert_allclose(out.sum(axis=0), 0.25)


def test_transition_order_follows_labels():
    out = transition_plan([0, 1], [1, 0])
    np.testing.assert_allclose(out, [[0.0, 0.5], [0.5, 0.0]])


@pytest.mark.parametrize("real, synth", [
    ([0, 1], [0, 0, 1, 1]),  # same class proportions, another batch size
    ([0, 0, 1, 1], [0, 1]),
    ([0, 0, 1], [0, 1, 1]),  # same size and class set, other counts
    ([0, 1], [0, 2]),  # other class sets
    ([0, 1], [0]),
])
def test_transition_rejects_a_batch_that_is_not_a_permutation(real, synth):
    with pytest.raises(ValueError, match="must be a non-empty permutation of the real ones"):
        transition_plan(real, synth)


def test_transition_rejects_empty():
    with pytest.raises(ValueError, match="non-empty"):
        transition_plan([], [])


def reference_transition_plan(real_classes, synth_classes) -> np.ndarray:
    """The coupling by the formula transition_plan used when it also took a
    generated batch of another size with the same class proportions: mass
    1/(N * count_synth(c)) on same-class pairs, each column's weight looked
    up in a dict of the generated class counts."""
    real = np.asarray(real_classes, dtype=np.int64).reshape(-1)
    synth = np.asarray(synth_classes, dtype=np.int64).reshape(-1)
    synth_ids, synth_counts = np.unique(synth, return_counts=True)
    synth_count_of = dict(zip(synth_ids.tolist(), synth_counts.tolist()))
    col_weight = np.array([1.0 / (real.size * synth_count_of[c]) for c in synth.tolist()])
    return (real[:, None] == synth[None, :]) * col_weight[None, :]


@given(st.lists(st.integers(-3, 10), min_size=1, max_size=60), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_transition_on_permuted_batches_matches_the_reference_and_is_feasible(labels, seed):
    """On a generated batch that permutes the real one, the plan is the
    reference formula's bit for bit, and inside the coupling polytope to 1e-12."""
    real = np.asarray(labels, dtype=np.int64)
    synth = real[SeededRng(seed).permutation(real.size)]
    out = transition_plan(real, synth)
    want = reference_transition_plan(real, synth)
    assert (out.dtype, out.shape, out.tobytes()) == (want.dtype, want.shape, want.tobytes())
    report = check_marginals(out, Marginals.uniform(real.size, real.size), tol=1e-12)
    assert report.passed, report


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12),
       st.lists(st.integers(0, 4), min_size=0, max_size=12))
@settings(max_examples=300, deadline=None)
def test_transition_rejects_every_other_class_multiset(real, synth):
    """Unequal sizes, or equal sizes with other class counts, raise."""
    if sorted(real) == sorted(synth):
        synth = synth + [0]  # one extra generated sample makes any permutation a mismatch
    with pytest.raises(ValueError, match="permutation"):
        transition_plan(real, synth)


# ------------------------------------------------------------ check_marginals


def test_check_marginals_product_coupling():
    marg = Marginals(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
    plan = np.outer(marg.row, marg.col)
    assert check_marginals(plan, marg, tol=1e-12).passed


def test_check_marginals_detects_violation():
    marg = Marginals(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
    report = check_marginals(np.full((2, 2), 0.25), marg, tol=1e-6)
    assert not report.passed
    assert report.max_row_dev == pytest.approx(0.25)


def test_check_marginals_shape_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        check_marginals(np.zeros((2, 2)), Marginals.uniform(3, 2))
