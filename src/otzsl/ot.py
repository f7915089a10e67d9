"""Discrete optimal transport between real and generated feature batches.

Rows index real samples, columns index generated ones. `ipot_solve` targets
the unregularized optimum through proximal steps, each approximated by one
Sinkhorn sweep on a reweighted kernel, so its plans sharpen toward permutation
solutions that fixed-entropy Sinkhorn smooths away. `transition_plan` is the
label-derived coupling used on the supervised branch of training.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
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


@dataclass(frozen=True)
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
            if abs(math.fsum(vec.tolist()) - 1.0) > 1e-12:
                raise ValueError(f"{name} marginal sums to {float(vec.sum())!r}, expected 1")
            object.__setattr__(self, name, vec)

    @staticmethod
    def uniform(n_rows: int, n_cols: int) -> "Marginals":
        if n_rows < 1 or n_cols < 1:
            raise ValueError("marginals need at least one point on each side")
        return Marginals(np.full(n_rows, 1.0 / n_rows), np.full(n_cols, 1.0 / n_cols))


@dataclass(frozen=True)
class IpotConfig:
    """Proximal-step solver settings.

    `reg` is the proximal weight: it shapes the step kernel, not the objective,
    so unlike the entropic solver the final plan does not inherit its blur.
    Each proximal step is one Sinkhorn sweep, deliberately inexact, as in Xie
    et al. 2018 (arXiv 1802.04307). The outer cap is generous: typical
    instances stop within a few hundred steps, but near-tied instances
    converge linearly with rate close to 1 and need tens of thousands.
    Training does not use this default: `TrainConfig.ipot` caps each batch
    solve at 25 steps, and the train config `{"ipot_max_outer_iters": 200}`
    restores the earlier 200-step budget.
    """

    reg: float = 0.5
    max_outer_iters: int = 100_000
    stop_tol: float = 1e-9

    def __post_init__(self):
        if not (self.reg > 0.0 and math.isfinite(self.reg)):
            raise ValueError(f"reg must be positive, got {self.reg}")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if not self.stop_tol >= 0.0:  # NaN included
            raise ValueError("stop_tol must be non-negative")


@dataclass
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


def _plan_values(plan) -> np.ndarray:
    return plan.values if isinstance(plan, TransportPlan) else np.asarray(plan, dtype=np.float64)


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


def _problem(cost, marg: Marginals | None) -> tuple[np.ndarray, Marginals]:
    """The validated cost matrix and its marginals, uniform when none are given."""
    cost = as_float_matrix(cost, "cost matrix")
    if marg is None:
        marg = Marginals.uniform(*cost.shape)
    if (marg.row.size, marg.col.size) != cost.shape:
        raise ValueError(
            f"marginal lengths ({marg.row.size}, {marg.col.size}) do not match cost shape {cost.shape}"
        )
    return cost, marg


def _marginal_deviation(plan: np.ndarray, marg: Marginals) -> float:
    row_dev = float(np.max(np.abs(plan.sum(axis=1) - marg.row)))
    col_dev = float(np.max(np.abs(plan.sum(axis=0) - marg.col)))
    return max(row_dev, col_dev)


def _trace_rows(plans: np.ndarray, cost: np.ndarray, marg: Marginals,
                scratch: np.ndarray | None = None) -> list[tuple[float, float]]:
    """(transport cost, max marginal deviation) of each plan in a stack, as
    trace rows record them. Each reduction adds in the order that
    np.sum(plan * cost) and _marginal_deviation use on one plan, so the
    values are theirs bit for bit. `scratch`, if given, has the stack's
    shape and is overwritten."""
    costs = np.multiply(plans, cost, out=scratch).reshape(len(plans), -1).sum(axis=1)
    row_dev = np.abs(plans.sum(axis=2) - marg.row).max(axis=1)
    col_dev = np.abs(plans.sum(axis=1) - marg.col).max(axis=1)
    return list(zip(costs.tolist(), np.maximum(row_dev, col_dev).tolist()))


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


def ipot_solve(
    cost,
    marg: Marginals | None = None,
    cfg: IpotConfig = IpotConfig(),
    record_trace: bool = False,
) -> TransportPlan:
    """Proximal-point solve of min tr(T'C) over couplings of the marginals.

    Kernel G = exp(-C/reg) is fixed; every outer step reweights it by the
    current plan (K = G * T), runs one Sinkhorn sweep, and rescales.
    Stops once the max-abs change of the plan drops below `stop_tol` AND the
    marginal deviation is within FEASIBILITY_TOL; a converged plan is always
    feasible at that tolerance. The change criterion alone can fire while mass
    is still crawling along a near-tied edge of the polytope, so a run that
    exhausts `max_outer_iters` comes back with converged=False and whatever
    iterate it reached (useful for convergence curves). Either way the
    returned values are rounded onto the marginal polytope, so every result
    is a valid coupling; trace rows record the raw iterates.

    Right after each sweep, every plan entry below the smallest normal
    float64 (`np.finfo(np.float64).tiny`, about 2.2e-308) is set to zero.
    Off-support entries decay geometrically, and once subnormal they would
    slow every later sweep several-fold. Each plan row sums to its marginal,
    so a subnormal addend lies below half an ulp of every sum it enters:
    the scalings, the stop rule and the trace are those of the unflushed
    iteration, and only entries that were subnormal differ, now exactly 0.
    NaN is not below tiny, so a collapsed sweep still raises.

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
    cost, marg = _problem(cost, marg)
    G = np.exp(-cost / cfg.reg)
    K = np.empty_like(G)
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
        while t < cfg.max_outer_iters:
            k = min(block, cfg.max_outer_iters - t)
            for j in range(1, k + 1):
                np.multiply(G, slots[j - 1], out=K)
                a = _sweep(K, a, marg, slots[j])
                np.putmask(slots[j], slots[j] < tiny, 0.0)
            np.subtract(plans[1:k + 1], plans[:k], out=changes[:k])
            deltas = np.abs(changes[:k], out=changes[:k]).max(axis=(1, 2)).tolist()
            if trace is not None:
                rows = _trace_rows(plans[1:k + 1], cost, marg, changes[:k])
            for i, (plan, delta) in enumerate(zip(slots[1:], deltas)):
                t += 1
                if not math.isfinite(delta):
                    raise SolverError(
                        f"ipot_solve hit non-finite scalings at outer iteration {t}; "
                        "the kernel row/column mass collapsed"
                    )
                if trace is not None:
                    trace.append((t, *rows[i]))
                if delta < cfg.stop_tol and _marginal_deviation(plan, marg) <= FEASIBILITY_TOL:
                    return _result(plan, marg, True, t, trace)
            slots[0][...] = slots[k]

    return _result(slots[0], marg, False, t, trace)


def _result(plan: np.ndarray, marg: Marginals, converged: bool, iterations: int,
            trace: list | None) -> TransportPlan:
    return TransportPlan(
        values=_round_to_polytope(plan, marg),
        converged=converged,
        iterations_used=iterations,
        trace=np.asarray(trace) if trace is not None else None,
    )


def sinkhorn_solve(
    cost,
    marg: Marginals | None = None,
    reg: float = 0.1,
    iterations: int = 200,
    record_trace: bool = False,
) -> TransportPlan:
    """Entropic-regularized solve: fixed kernel K = exp(-C/reg), alternating
    row/column scalings for a fixed iteration count.

    As in ipot_solve, a block of sweeps writes its plans into consecutive
    slots of one buffer, and finiteness is checked and trace rows are built
    once per block; each plan depends only on the scalings, so the first
    non-finite plan of a block raises at its own iteration, as a check
    after every sweep would.

    The converged flag reports whether the raw final iterate is feasible
    within FEASIBILITY_TOL; the returned values are then rounded onto the
    marginal polytope like ipot_solve's."""
    cost, marg = _problem(cost, marg)
    if not (reg > 0.0 and math.isfinite(reg)):
        raise ValueError(f"reg must be positive, got {reg}")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")

    K = np.exp(-cost / reg)
    if np.any(K.sum(axis=1) == 0.0) or np.any(K.sum(axis=0) == 0.0):
        raise SolverError(
            "sinkhorn_solve kernel underflowed to an all-zero row or column; "
            "increase the regularization weight"
        )

    a = marg.row.copy()
    block = max(1, min(_BLOCK_SWEEPS, iterations, _BLOCK_BYTES // K.nbytes // 2))
    plans = np.empty((block,) + K.shape)
    trace = [] if record_trace else None
    t = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while t < iterations:
            k = min(block, iterations - t)
            for j in range(k):
                a = _sweep(K, a, marg, plans[j])
            finite = np.isfinite(plans[:k]).all(axis=(1, 2))
            if not finite.all():
                raise SolverError(
                    f"sinkhorn_solve scalings became non-finite at iteration "
                    f"{t + int(np.argmin(finite)) + 1}; increase the regularization weight"
                )
            if trace is not None:
                rows = _trace_rows(plans[:k], cost, marg)
                trace += [(t + j, *row) for j, row in enumerate(rows, start=1)]
            t += k

    plan = plans[k - 1]
    return _result(plan, marg, check_marginals(plan, marg).passed, iterations, trace)


def transport_cost(plan, cost) -> float:
    """tr(T'C), the objective value of a coupling."""
    values = _plan_values(plan)
    cost = np.asarray(cost, dtype=np.float64)
    if values.shape != cost.shape:
        raise ValueError(f"plan shape {values.shape} does not match cost shape {cost.shape}")
    return float(np.sum(values * cost))


def exact_assignment_oracle(cost) -> tuple[TransportPlan, float]:
    """Brute-force optimum for square, uniform-marginal problems.

    Valid because such problems attain their optimum at a permutation matrix
    scaled by 1/N. Enumerates all N! permutations, so N is capped at 8. Ties
    keep the first permutation in lexicographic order.
    """
    cost = as_float_matrix(cost, "cost matrix")
    n, m = cost.shape
    if n != m:
        raise ValueError(f"oracle needs a square cost matrix, got {cost.shape}")
    if n > 8:
        raise ValueError(f"oracle enumerates permutations; N = {n} exceeds the cap of 8")

    best_perm = None
    best_cost = math.inf
    rows = np.arange(n)
    for perm in itertools.permutations(range(n)):
        c = float(cost[rows, perm].sum()) / n
        if c < best_cost:
            best_cost = c
            best_perm = perm

    values = np.zeros((n, n))
    values[rows, best_perm] = 1.0 / n
    return TransportPlan(values=values, converged=True, iterations_used=0), best_cost


def transition_plan(real_classes, synth_classes) -> TransportPlan:
    """Label-derived coupling: mass 1/(N * count_synth(c)) on same-class pairs.

    Spreads each real sample's mass uniformly over the generated samples of its
    class. Row sums are 1/N and column sums 1/M exactly, provided each class
    holds the same proportion of both batches; anything else is rejected
    because the result would leave the coupling polytope.
    """
    real = np.asarray(real_classes, dtype=np.int64).reshape(-1)
    synth = np.asarray(synth_classes, dtype=np.int64).reshape(-1)
    n, m = real.size, synth.size
    if n == 0 or m == 0:
        raise ValueError("both batches must be non-empty")

    real_ids, real_counts = np.unique(real, return_counts=True)
    synth_ids, synth_counts = np.unique(synth, return_counts=True)
    if real_ids.tolist() != synth_ids.tolist():
        raise ValueError(
            f"class sets differ between batches: {real_ids.tolist()} vs {synth_ids.tolist()}"
        )
    if np.any(real_counts * m != synth_counts * n):
        raise ValueError(
            "class proportions differ between real and generated batches; "
            "the transition plan would violate the marginals"
        )

    synth_count_of = dict(zip(synth_ids.tolist(), synth_counts.tolist()))
    col_weight = np.array([1.0 / (n * synth_count_of[c]) for c in synth.tolist()])
    values = (real[:, None] == synth[None, :]) * col_weight[None, :]
    return TransportPlan(values=values, converged=True, iterations_used=0)


def check_marginals(plan, marg: Marginals, tol: float = FEASIBILITY_TOL) -> FeasibilityReport:
    """Measure how far a plan sits from the coupling polytope of `marg`."""
    values = _plan_values(plan)
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
