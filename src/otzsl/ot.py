"""Discrete optimal transport between real and generated feature batches.

Rows index real samples, columns index generated ones. `ipot_solve` targets
the unregularized optimum through proximal steps, each approximated by one
Sinkhorn sweep on a reweighted kernel, so its plans sharpen toward permutation
solutions that fixed-entropy Sinkhorn smooths away. `transition_plan` is the
label-derived coupling used on the supervised branch of training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, check_value
from .linalg import as_float_matrix, unit_rows

# Largest marginal deviation a plan may show and still count as feasible:
# IPOT's stop rule, Sinkhorn's converged flag and check_marginals' default.
FEASIBILITY_TOL = 1e-6

# ipot_solve and sinkhorn_solve check finiteness (and IPOT its stop rule)
# once per block of up to _BLOCK_SWEEPS sweeps; the block's plans and as many
# again of scratch take at most about _BLOCK_BYTES, so a large problem checks
# after every sweep or every few. A 32x64 batch's buffers (144 and 128 KiB) are
# reused across solves; at 16 sweeps each solve faulted them in anew.
_BLOCK_SWEEPS = 8
_BLOCK_BYTES = 4 << 20

# ipot_solve's default proximal weight and sinkhorn_solve's default entropic
# weight; compare-solvers runs Sinkhorn at both
IPOT_REG = 0.5
SINKHORN_REG = 0.1


@dataclass(frozen=True, eq=False)
class Marginals:
    """Probability masses of the row (real) and column (generated) samples."""

    row: np.ndarray
    col: np.ndarray

    def __post_init__(self):
        for name in ("row", "col"):
            vec = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if vec.size == 0:
                raise ValueError(f"{name} marginal is empty")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{name} marginal has a non-finite entry")
            if np.any(vec <= 0.0):
                raise ValueError(f"{name} marginal has a zero or negative mass entry")
            with np.errstate(over="ignore"):  # masses past the float range sum to inf
                total = float(vec.sum())
            # fsum, exact, runs only on masses near 1, which cannot overflow it
            if abs(total - 1.0) > 1e-9 or abs(math.fsum(vec.tolist()) - 1.0) > 1e-12:
                raise ValueError(f"{name} marginal sums to {total!r}, expected 1")
            object.__setattr__(self, name, vec)

    @staticmethod
    def uniform(n_rows: int, n_cols: int) -> "Marginals":
        n_rows = check_value("n_rows", n_rows, int, at_least=1)
        n_cols = check_value("n_cols", n_cols, int, at_least=1)
        return Marginals(np.full(n_rows, 1.0 / n_rows), np.full(n_cols, 1.0 / n_cols))


@dataclass(eq=False)
class TransportPlan:
    """A coupling with convergence diagnostics.

    `trace`, when recorded, has one row per iteration:
    (iteration index, transport cost, max marginal deviation).
    """

    values: np.ndarray
    converged: bool
    iterations_used: int
    trace: np.ndarray | None = None


@dataclass(frozen=True)
class FeasibilityReport:
    max_row_dev: float
    max_col_dev: float
    min_entry: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.max_row_dev <= self.tol
            and self.max_col_dev <= self.tol
            and self.min_entry >= -self.tol
        )


def cosine_cost_matrix(real_features, synth_features) -> np.ndarray:
    """Pairwise cosine distances, C[n, m] = 1 - cos(x_n, xhat_m), all in [0, 2]."""
    real = as_float_matrix(real_features, "real features")
    synth = as_float_matrix(synth_features, "generated features")
    if real.shape[1] != synth.shape[1]:
        raise ValueError(
            f"feature dimensions differ: {real.shape[1]} vs {synth.shape[1]}"
        )
    ru, _ = unit_rows(real, "real features")
    su, _ = unit_rows(synth, "generated features")
    return np.clip(1.0 - ru @ su.T, 0.0, 2.0)


def _trace_rows(plans: np.ndarray, cost: np.ndarray, marg: Marginals,
                scratch: np.ndarray) -> list[tuple[float, float]]:
    """(transport cost, max marginal deviation) of each plan in a stack, as
    trace rows record them. Each reduction adds in the order that
    np.sum(plan * cost) and check_marginals use on one plan, so the values
    are theirs bit for bit. `scratch`, of the stack's shape, is overwritten."""
    costs = np.multiply(plans, cost, out=scratch).reshape(len(plans), -1).sum(axis=1)
    row_dev = np.abs(plans.sum(axis=2) - marg.row).max(axis=1)
    col_dev = np.abs(plans.sum(axis=1) - marg.col).max(axis=1)
    return list(zip(costs.tolist(), np.maximum(row_dev, col_dev).tolist()))


def _kernel(cost: np.ndarray, reg: float) -> np.ndarray:
    """exp(-C/reg), the kernel both solvers scale; an entry of C/reg that
    overflows gives 0 (or inf) with no warning. A kernel with an all-zero
    row or column raises SolverError."""
    with np.errstate(over="ignore"):
        K = np.exp(-cost / reg)
    if not (K.any(axis=1).all() and K.any(axis=0).all()):
        raise SolverError(f"kernel exp(-C/reg) at reg {reg} underflowed to an all-zero row or "
                          "column; increase the regularization weight")
    return K


def _sweep(K: np.ndarray, a: np.ndarray, marg: Marginals, out: np.ndarray) -> np.ndarray:
    """One Sinkhorn sweep on kernel K from the row scaling a: fit the column
    scaling b to the rows, then the rows to b. Writes the plan diag(a) K
    diag(b) into `out` and returns the new row scaling."""
    b = marg.col / (K.T @ a)
    a = marg.row / (K @ b)
    np.multiply(a[:, None], K, out=out)
    out *= b
    return a


def _round_to_polytope(plan: np.ndarray, marg: Marginals) -> np.ndarray:
    """Snap a nonnegative matrix onto the coupling polytope.

    Rows and then columns are scaled down wherever they exceed their target
    mass, leaving a componentwise deficit that a rank-one patch fills, so both
    marginals come out exact to roundoff. The objective moves by at most the
    patched mass times the largest cost entry, negligible for a near-feasible
    iterate, and this bounds the feasibility error of a budget-capped run by
    machine precision instead of by the iteration budget.
    """
    tiny = np.finfo(np.float64).tiny
    out = plan * np.minimum(1.0, marg.row / np.maximum(plan.sum(axis=1), tiny))[:, None]
    out *= np.minimum(1.0, marg.col / np.maximum(out.sum(axis=0), tiny))[None, :]
    missing_row = np.maximum(marg.row - out.sum(axis=1), 0.0)
    missing_col = np.maximum(marg.col - out.sum(axis=0), 0.0)
    total = float(missing_row.sum())
    if total > 0.0:
        out += np.outer(missing_row, missing_col) / total
    return out


def ipot_solve(cost, marg: Marginals | None = None, *, reg: float = IPOT_REG,
               iterations: int = 100_000, stop_tol: float = 1e-9,
               record_trace: bool = False) -> TransportPlan:
    """Proximal-point solve of min tr(T'C) over couplings of the marginals.

    Kernel G = exp(-C/reg) is fixed; every outer step reweights it by the
    current plan (K = G * T), runs one Sinkhorn sweep, and rescales. `reg` is
    the proximal weight: it shapes the step kernel, not the objective, so
    unlike the entropic solver the final plan does not inherit its blur. Each
    proximal step is one Sinkhorn sweep, deliberately inexact, as in Xie et
    al. 2018 (arXiv 1802.04307).

    Stops once the max-abs change of the plan drops below `stop_tol` AND the
    marginal deviation is within FEASIBILITY_TOL; a converged plan is always
    feasible at that tolerance. The change criterion alone can fire while mass
    is still crawling along a near-tied edge of the polytope, so a run that
    exhausts `iterations` outer steps comes back with converged=False and
    whatever iterate it reached (useful for convergence curves). Either way
    the returned values are rounded onto the marginal polytope, so every
    result is a valid coupling; trace rows record the raw iterates. The
    default cap is generous: typical instances stop within a few hundred
    steps, but near-tied instances converge linearly with rate close to 1 and
    need tens of thousands. Training runs each batch solve for all of its
    25 steps instead (stop_tol 0, TrainConfig).

    Right after each sweep, every plan entry below the smallest normal
    float64 (`np.finfo(np.float64).tiny`, about 2.2e-308) is set to zero.
    Off-support entries decay geometrically, and once subnormal they would
    slow every later sweep several-fold. Each plan row sums to its marginal,
    so a subnormal addend lies below half an ulp of every sum it enters:
    the scalings, the stop rule and the trace are those of the unflushed
    iteration, and only entries that were subnormal differ, now exactly 0.
    NaN is not below tiny, so a collapsed sweep still raises.
    """
    return _run_sweeps(cost, marg, reg, iterations, record_trace, stop_tol)


def sinkhorn_solve(cost, marg: Marginals | None = None, *, reg: float = SINKHORN_REG,
                   iterations: int = 200, record_trace: bool = False) -> TransportPlan:
    """Entropic-regularized solve: fixed kernel K = exp(-C/reg), alternating
    row/column scalings for a fixed iteration count.

    The converged flag reports whether the raw final iterate is feasible
    within FEASIBILITY_TOL; the returned values are then rounded onto the
    marginal polytope like ipot_solve's."""
    return _run_sweeps(cost, marg, reg, iterations, record_trace)


def _run_sweeps(cost, marg: Marginals | None, reg: float, budget: int, record_trace: bool,
                stop_tol: float | None = None) -> TransportPlan:
    """Up to `budget` Sinkhorn sweeps on G = exp(-C/reg) from the product
    coupling, under marginals that are uniform when none are given: the
    validation and loop of both solvers. `reg` must be a float above 0,
    `budget` an int of at least 1 and a given `stop_tol` a float of at least
    0, or ConfigError names the solver's keyword. With a `stop_tol`
    (ipot_solve) each sweep scales G reweighted by the previous plan and
    flushes the new plan's subnormal entries, and the first plan that meets
    the stop rule returns as converged. Without one (sinkhorn_solve) each
    sweep scales G itself, every sweep runs, and converged says whether the
    raw final iterate is feasible.

    The plans of a block of up to _BLOCK_SWEEPS sweeps go into consecutive
    slots of one buffer, after the plan the block started from, and the
    stop and finiteness rules are applied once per block: one subtract, abs
    and max give every sweep's change, walked in sweep order. Plans are
    nonnegative, and the plan a sweep started from is finite whenever the
    walk reaches it, so a non-finite change is exactly a non-finite new
    plan; the first such sweep raises, and the first sweep that meets the
    stop rule returns its own plan. Sweeps run past either point within the
    block are discarded, so the result, `iterations_used`, the trace and
    the error are those of checking after every sweep.
    """
    reg = check_value("reg", reg, float, above=0)
    budget = check_value("iterations", budget, int, at_least=1)
    if stop_tol is not None:
        stop_tol = check_value("stop_tol", stop_tol, float, at_least=0)
    cost = as_float_matrix(cost, "cost matrix")
    if marg is None:
        marg = Marginals.uniform(*cost.shape)
    if (marg.row.size, marg.col.size) != cost.shape:
        raise ValueError(
            f"marginal lengths ({marg.row.size}, {marg.col.size}) do not match cost shape {cost.shape}"
        )
    proximal = stop_tol is not None
    G = _kernel(cost, reg)
    K = np.empty_like(G) if proximal else None
    block = max(1, min(_BLOCK_SWEEPS, (_BLOCK_BYTES // G.nbytes - 1) // 2))
    plans = np.empty((block + 1,) + G.shape)
    changes = np.empty((block,) + G.shape)
    slots = list(plans)
    np.outer(marg.row, marg.col, out=slots[0])
    a = marg.row.copy()
    trace = [] if record_trace else None
    tiny = np.finfo(np.float64).tiny
    t = 0

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while t < budget:
            k = min(block, budget - t)
            for j in range(1, k + 1):
                if proximal:
                    a = _sweep(np.multiply(G, slots[j - 1], out=K), a, marg, slots[j])
                    np.putmask(slots[j], slots[j] < tiny, 0.0)
                else:
                    a = _sweep(G, a, marg, slots[j])
            np.subtract(plans[1:k + 1], plans[:k], out=changes[:k])
            deltas = np.abs(changes[:k], out=changes[:k]).max(axis=(1, 2)).tolist()
            if trace is not None:
                rows = _trace_rows(plans[1:k + 1], cost, marg, changes[:k])
            for i, (plan, delta) in enumerate(zip(slots[1:], deltas)):
                t += 1
                if not math.isfinite(delta):
                    raise SolverError(
                        f"ipot_solve hit non-finite scalings at outer iteration {t}; "
                        "the kernel row/column mass collapsed" if proximal else
                        f"sinkhorn_solve scalings became non-finite at iteration {t}; "
                        "increase the regularization weight")
                if trace is not None:
                    trace.append((t, *rows[i]))
                if proximal and delta < stop_tol and check_marginals(plan, marg).passed:
                    return _result(plan, marg, True, t, trace)
            slots[0][...] = slots[k]

    converged = not proximal and check_marginals(slots[0], marg).passed
    return _result(slots[0], marg, converged, t, trace)


def _result(plan: np.ndarray, marg: Marginals, converged: bool, iterations: int,
            trace: list | None) -> TransportPlan:
    return TransportPlan(
        values=_round_to_polytope(plan, marg),
        converged=converged,
        iterations_used=iterations,
        trace=np.asarray(trace) if trace is not None else None,
    )


@np.errstate(over="ignore", invalid="ignore")  # a sum past the float range is inf or nan
def transport_cost(plan, cost) -> float:
    """tr(T'C), the objective value of the coupling array `plan` (a
    TransportPlan's `.values`)."""
    values = np.asarray(plan, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if values.shape != cost.shape:
        raise ValueError(f"plan shape {values.shape} does not match cost shape {cost.shape}")
    return float(np.sum(values * cost))


def transition_plan(real_classes, synth_classes) -> np.ndarray:
    """Label-derived coupling array: mass 1/(N * count(c)) on same-class pairs.

    The generated class ids must be a permutation of the N real ones (the
    supervised branch of training mirrors the real batch), or ValueError.
    Each real sample's mass spreads uniformly over the generated samples of
    its class, so every row and every column sums to 1/N exactly.
    """
    real = np.asarray(real_classes, dtype=np.int64).reshape(-1)
    synth = np.asarray(synth_classes, dtype=np.int64).reshape(-1)
    if real.size == 0 or sorted(real.tolist()) != sorted(synth.tolist()):
        raise ValueError("the generated class ids must be a non-empty permutation of the real "
                         f"ones: {real.tolist()} vs {synth.tolist()}")
    _, inverse, counts = np.unique(synth, return_inverse=True, return_counts=True)
    col_weight = 1.0 / (real.size * counts[inverse])
    return (real[:, None] == synth[None, :]) * col_weight[None, :]


@np.errstate(over="ignore", invalid="ignore")  # sums past the float range fail the report
def check_marginals(plan, marg: Marginals, tol: float = FEASIBILITY_TOL) -> FeasibilityReport:
    """Measure how far the coupling array `plan` (a TransportPlan's
    `.values`) sits from the coupling polytope of `marg`."""
    values = np.asarray(plan, dtype=np.float64)
    if values.shape != (marg.row.size, marg.col.size):
        raise ValueError(
            f"plan shape {values.shape} does not match marginal lengths "
            f"({marg.row.size}, {marg.col.size})"
        )
    return FeasibilityReport(
        max_row_dev=float(np.max(np.abs(values.sum(axis=1) - marg.row))),
        max_col_dev=float(np.max(np.abs(values.sum(axis=0) - marg.col))),
        min_entry=float(values.min()),
        tol=tol,
    )
