#!/usr/bin/env python3
"""Convergence comparison of the proximal-point solver against Sinkhorn.

On random cosine-cost instances, records transport cost per iteration for
IPOT (reg 0.5) and Sinkhorn (reg 0.1 and 0.5), prints how quickly each gets
near the brute-force optimum, and leaves curves.csv behind for plotting.

    python3 scripts/compare_ot_solvers.py --size 32 --instances 20 --out /tmp/curves
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from otzsl import cli, ot
from otzsl.rng import SeededRng


def first_hit(curve, target):
    for it, cost in curve:
        if cost <= target:
            return it
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for key, default in cli.COMPARE_DEFAULTS.items():  # size, instances, iters, seed
        ap.add_argument(f"--{key}", type=int, default=default)
    ap.add_argument("--out", default="curves_out")
    args = ap.parse_args()

    rc = cli.main(["compare-solvers", "--size", str(args.size),
                   "--instances", str(args.instances), "--iters", str(args.iters),
                   "--seed", str(args.seed), "--out", args.out])
    if rc != 0:
        return rc

    curves = {}
    with open(f"{args.out}/curves.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            name, reg, inst, it, cost, _ = line.split(",")
            curves.setdefault((name, float(reg), int(inst)), []).append(
                (int(it), float(cost)))

    # how many sweeps each solver needs to get within 1% of the exact optimum
    rng = SeededRng(args.seed)
    rows = []
    for inst in range(args.instances):
        feat_rng = rng.split(inst + 1)
        real = feat_rng.gaussian(args.size * 16).reshape(args.size, 16)
        synth = feat_rng.gaussian(args.size * 16).reshape(args.size, 16)
        cost = ot.cosine_cost_matrix(real, synth)
        _, oracle = ot.exact_assignment_oracle(cost) if args.size <= 8 else (None, None)
        if oracle is None:
            # past the brute-force cap, use the best cost any solver reached
            oracle = min(min(c for _, c in curve)
                         for key, curve in curves.items() if key[2] == inst)
        rows.append(tuple(first_hit(sorted(curves[(name, reg, inst)]), oracle * 1.01)
                          for name, reg in (("ipot", 0.5), ("sinkhorn", 0.1),
                                            ("sinkhorn", 0.5))))

    print(f"{'instance':>8}{'ipot(0.5)':>12}{'sink(0.1)':>12}{'sink(0.5)':>12}"
          "   sweeps to reach optimum*1.01")
    for inst, (a, b, c) in enumerate(rows):
        fmt = lambda v: f"{v:>12}" if v is not None else f"{'never':>12}"
        print(f"{inst:>8}{fmt(a)}{fmt(b)}{fmt(c)}")
    hit = [r[0] for r in rows if r[0] is not None]
    if hit:
        print(f"ipot median {int(np.median(hit))} sweeps over {len(hit)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
