"""Acceptance gate: every shipped guarantee, one test and one printed verdict
per criterion. Run with `pytest tests/test_acceptance.py -v -s` to see the
lines; tolerances are stated inline next to each check.
"""

import json
import math
import time

import numpy as np
import pytest

from otzsl import cli
from otzsl import ot
from otzsl.errors import SolverError
from otzsl.evaluate import EvalConfig, evaluate, harmonic_mean, per_class_top1
from otzsl.generator import backward, generator_forward, init_generator
from otzsl.mlp import init_mlp
from otzsl.rng import SeededRng
from otzsl.training import TrainConfig, train

from conftest import random_cost, scipy_oracle_cost

TINY_GEN = {
    "seen_classes": 3,
    "unseen_classes": 2,
    "attr_dim": 6,
    "feature_dim": 8,
    "samples_per_class": 8,
    "noise_sigma": 0.2,
    "seed": 5,
}


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def trained_runs(desk_dataset):
    """Three tuned 30-epoch generators on the default dataset, shared by
    criteria 5 and 6: one standard-mode generator scored under both the
    standard and the generalized protocol, one transductive, and one
    standard at p = 1.0 for the ablation."""
    attrs, data, _ = desk_dataset
    t0 = time.perf_counter()
    out = {}
    for mode, p, protocols in (("standard", 0.9, {"standard": "standard",
                                                  "generalized": "generalized"}),
                               ("transductive", 0.9, {"transductive": "transductive"}),
                               ("standard", 1.0, {"standard_p1": "standard"})):
        cfg = TrainConfig(ot_prob=p, reg_weight=1.0, nca_scale=0.5, batch_size=32,
                          epochs=30, seed=0, mode=mode, hidden_dim=128)
        g, _ = train(data, attrs, cfg)
        for key, protocol in protocols.items():
            out[key] = evaluate(protocol, g, attrs, data, EvalConfig(seed=1))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_1_ipot_matches_assignment_oracle():
    # >= 50 random square instances, N in 2..6, uniform marginals; IPOT cost
    # within 1e-4 relative of the exact assignment optimum; < 10 s
    rng = SeededRng(101)
    t0 = time.perf_counter()
    worst = 0.0
    n_cases = 60
    for i in range(n_cases):
        n = 2 + int(rng.integers(5, 1)[0])
        cost = random_cost(rng, n, n)
        plan = ot.ipot_solve(cost)
        got = ot.transport_cost(plan.values, cost)
        want = scipy_oracle_cost(cost)
        rel = abs(got - want) / max(abs(want), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    verdict(1, worst <= 1e-4 and elapsed < 10.0,
            f"{n_cases} instances, worst relative error {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_feasibility_over_randomized_cases():
    # every converged plan passes check_marginals: 1e-6 for the iterative
    # solvers, 1e-12 for the label-derived coupling; >= 1000 cases total
    rng = SeededRng(202)
    checked = 0
    capped = 0
    worst_solver = 0.0
    worst_transition = 0.0

    def random_marginals(n, m):
        if int(rng.integers(2, 1)[0]):
            return ot.Marginals.uniform(n, m)
        w = 1.0 + rng.uniform(n)
        v = 1.0 + rng.uniform(m)
        return ot.Marginals(w / math.fsum(w), v / math.fsum(v))

    for _ in range(400):
        n = 2 + int(rng.integers(7, 1)[0])
        m = 2 + int(rng.integers(7, 1)[0])
        marg = random_marginals(n, m)
        plan = ot.ipot_solve(random_cost(rng, n, m), marg)
        # near-tied instances may exhaust the sweep budget before the
        # stationarity test clears; the plan must still be feasible
        capped += not plan.converged
        rep = ot.check_marginals(plan.values, marg, tol=1e-6)
        worst_solver = max(worst_solver, rep.max_row_dev, rep.max_col_dev)
        assert rep.passed
        checked += 1

    for _ in range(300):
        n = 2 + int(rng.integers(7, 1)[0])
        m = 2 + int(rng.integers(7, 1)[0])
        marg = random_marginals(n, m)
        plan = ot.sinkhorn_solve(random_cost(rng, n, m), marg, reg=0.5, iterations=400)
        rep = ot.check_marginals(plan.values, marg, tol=1e-6)
        worst_solver = max(worst_solver, rep.max_row_dev, rep.max_col_dev)
        assert rep.passed
        checked += 1

    for _ in range(320):
        n = 2 + int(rng.integers(10, 1)[0])
        labels = rng.integers(1 + int(rng.integers(4, 1)[0]), n)
        synth = labels[rng.permutation(n)]
        plan = ot.transition_plan(labels, synth)
        rep = ot.check_marginals(plan, ot.Marginals.uniform(n, n), tol=1e-12)
        worst_transition = max(worst_transition, rep.max_row_dev, rep.max_col_dev)
        assert rep.passed
        checked += 1

    verdict(2, checked >= 1000,
            f"{checked} cases, worst solver dev {worst_solver:.3e}, "
            f"worst transition dev {worst_transition:.3e}, "
            f"{capped} budget-capped ipot runs (all feasible)")


def test_criterion_3_convergence_curves(tmp_path):
    # 20 random 32x32 instances via the comparison command: (a) IPOT's final
    # cost <= Sinkhorn(0.5)'s + 1e-6 on every instance; (b) IPOT reaches 1%
    # of the assignment optimum in <= the iterations Sinkhorn(0.1) needs for
    # 5%, on >= 80% of instances
    instances, iters, seed = 20, 500, 0
    out = tmp_path / "curves"
    assert cli.main(["compare-solvers", "--size", "32",
                     "--instances", str(instances), "--iters", str(iters),
                     "--seed", str(seed), "--out", str(out)]) == 0

    curves = {}
    lines = (out / "curves.csv").read_text().splitlines()
    for line in lines[1:]:
        name, reg, inst, it, tc, _ = line.split(",")
        curves.setdefault((name, float(reg), int(inst)), []).append(
            (int(it), float(tc)))

    rng = SeededRng(seed)
    dominated = wins = 0
    for inst in range(instances):
        feat_rng = rng.split(inst + 1)
        real = feat_rng.gaussian(32 * 16).reshape(32, 16)
        synth = feat_rng.gaussian(32 * 16).reshape(32, 16)
        oracle = scipy_oracle_cost(ot.cosine_cost_matrix(real, synth))

        ipot = sorted(curves[("ipot", 0.5, inst)])
        sink = sorted(curves[("sinkhorn", 0.1, inst)])
        coarse = sorted(curves[("sinkhorn", 0.5, inst)])
        if ipot[-1][1] <= coarse[-1][1] + 1e-6:
            dominated += 1

        def first_hit(curve, target):
            for it, tc in curve:
                if tc <= target:
                    return it
            return None

        ipot_hit = first_hit(ipot, oracle * 1.01)
        sink_hit = first_hit(sink, oracle * 1.05)
        if ipot_hit is not None and (sink_hit is None or ipot_hit <= sink_hit):
            wins += 1

    verdict(3, dominated == instances and wins >= 0.8 * instances,
            f"final-cost dominance {dominated}/{instances}, "
            f"faster-to-threshold {wins}/{instances}")


def test_criterion_4_gradients_match_finite_differences():
    # analytic gradients vs central differences, relative error <= 1e-4,
    # over >= 10 random small shapes for each regularizer weight; < 30 s
    t0 = time.perf_counter()
    rng = SeededRng(404)
    worst = 0.0
    shapes = 0
    for rep in range(12):
        hidden = 2 + int(rng.integers(7, 1)[0])
        d = 2 + int(rng.integers(3, 1)[0])
        feat = 2 + int(rng.integers(5, 1)[0])
        n = 2 + int(rng.integers(3, 1)[0])
        m = n
        n_classes = 3
        class_attrs = rng.gaussian(n_classes * d).reshape(n_classes, d)

        g = init_generator(d, feat, hidden, rng.split(rep * 7 + 1))
        f = init_mlp(feat, hidden, d, rng.split(rep * 7 + 2))
        g.net.b2 += 0.05  # keep tiny nets off the zero-output ray
        f.b2 += 0.05
        real = rng.gaussian(n * feat).reshape(n, feat)
        real_classes = rng.integers(n_classes, n)
        synth_classes = rng.integers(n_classes, m)
        synth_attrs = class_attrs[synth_classes]
        noises = rng.gaussian(m * d).reshape(m, d)
        plan = np.full((n, m), 1.0 / (n * m))
        shapes += 1

        for beta in (0.0, 0.05, 1.0):
            def loss_terms():  # a fresh generator forward at the current weights
                return backward(plan, real, real_classes,
                                generator_forward(g, synth_attrs, noises), synth_classes,
                                g, f, class_attrs, beta, nca_scale=0.5)

            res = loss_terms()
            grads = res.g_grads.blocks() + res.f_grads.blocks()
            blocks = g.net.blocks() + f.blocks()
            eps = 1e-5
            for block, grad in zip(blocks, grads):
                flat = block.reshape(-1)
                for j in range(flat.size):
                    keep = flat[j]
                    flat[j] = keep + eps
                    up = loss_terms().total
                    flat[j] = keep - eps
                    down = loss_terms().total
                    flat[j] = keep
                    fd = (up - down) / (2.0 * eps)
                    an = grad.reshape(-1)[j]
                    worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-4))
    elapsed = time.perf_counter() - t0
    verdict(4, worst <= 1e-4 and elapsed < 30.0 and shapes >= 10,
            f"{shapes} shapes x three reg weights, worst relative error "
            f"{worst:.3e}, {elapsed:.1f}s")


def test_criterion_5_end_to_end_zero_shot(trained_runs):
    # default synthetic dataset, <= 30 epochs: standard accuracy >= 0.60,
    # generalized harmonic mean >= 0.40, transductive within 0.05 of
    # standard or better, everything < 5 min
    a_u = trained_runs["standard"]["A_u"]
    h = trained_runs["generalized"]["H"]
    trans = trained_runs["transductive"]["A_u"]
    elapsed = trained_runs["elapsed"]
    ok = a_u >= 0.60 and h >= 0.40 and trans >= a_u - 0.05 and elapsed < 300.0
    verdict(5, ok, f"A_u {a_u:.3f} (>=0.60), H {h:.3f} (>=0.40), "
            f"transductive {trans:.3f} (>= A_u-0.05), {elapsed:.1f}s (<300s)")


def test_criterion_6_transition_plan_ablation(trained_runs):
    # sampling the label-derived plan 10% of the time must not move the
    # final accuracy by more than 0.10
    diff = abs(trained_runs["standard"]["A_u"] - trained_runs["standard_p1"]["A_u"])
    verdict(6, diff <= 0.10,
            f"A_u(p=0.9) {trained_runs['standard']['A_u']:.3f} vs "
            f"A_u(p=1.0) {trained_runs['standard_p1']['A_u']:.3f}, diff {diff:.3f}")


def test_criterion_7_cli_runs_are_byte_identical(tmp_path):
    # two train+eval command pairs with one config and seed produce
    # byte-identical checkpoints and reports
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps(TINY_GEN))
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(gen_cfg), "--out", str(data)]) == 0
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"hidden_dim": 8, "batch_size": 4, "epochs": 2}))

    outputs = []
    for name in ("a", "b"):
        run_dir = tmp_path / name
        assert cli.main(["train", "--config", str(train_cfg), "--data", str(data),
                         "--out", str(run_dir)]) == 0
        assert cli.main(["eval", "--data", str(data),
                         "--checkpoint", str(run_dir / "checkpoint.bin"),
                         "--seed", "1", "--out", str(run_dir)]) == 0
        outputs.append((
            (run_dir / "checkpoint.bin").read_bytes(),
            (run_dir / "report.json").read_bytes(),
            (run_dir / "trace.csv").read_bytes(),
        ))
    same = outputs[0] == outputs[1]
    verdict(7, same, f"checkpoint {len(outputs[0][0])} bytes and report "
            f"{len(outputs[0][1])} bytes identical across runs: {same}")


def test_criterion_8_metric_identities():
    checks = [
        harmonic_mean(0.6, 0.3) == 0.4,
        harmonic_mean(0.3, 0.6) == 0.4,
        harmonic_mean(0.7, 0.0) == 0.0,
        harmonic_mean(0.0, 0.55) == 0.0,
        all(harmonic_mean(x, x) == x for x in (0.0, 0.1, 0.2, 0.37, 0.5, 0.9, 1.0)),
        per_class_top1([0, 0, 1, 2], [0, 0, 1, 1], (0, 1))[1] == 0.75,
        per_class_top1([0] * 99 + [0], [0] * 99 + [1], (0, 1))[1] == 0.5,
        per_class_top1([3, 4], [3, 4], (3, 4))[1] == 1.0,
    ]
    verdict(8, all(checks),
            f"{sum(checks)}/{len(checks)} bit-exact identities hold")
