#!/usr/bin/env python3
"""Train and evaluate on the synthetic benchmark in all three protocols.

Runs the full desk-scale pipeline in one process: generate the dataset,
train one standard and one transductive generator, and print an accuracy
table. The standard generator is scored under both the standard and the
generalized protocol, which differ only in the classifier that evaluation
trains. The last row is the plan-sampling ablation (p = 1.0 disables the
label-derived transition plan). With the defaults this takes well under a
minute.

    python3 scripts/run_zsl_benchmark.py --epochs 30 --seed 0
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from otzsl.data import SyntheticSpec, make_synthetic_dataset
from otzsl.evaluate import EvalConfig, evaluate
from otzsl.training import TrainConfig, train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    ap.add_argument("--hidden-dim", type=int, default=TrainConfig.hidden_dim)
    ap.add_argument("--reg-weight", type=float, default=TrainConfig.reg_weight)
    args = ap.parse_args()

    attrs, data, _ = make_synthetic_dataset(SyntheticSpec(seed=args.seed))
    print(f"dataset: {len(attrs.seen_ids)} seen / {len(attrs.unseen_ids)} unseen classes, "
          f"{data.seen_train[0].shape[0]} training samples, D={data.feature_dim}")

    # (training mode, ot_prob, protocols that score the trained generator)
    runs = [("standard", 0.9, ("standard", "generalized")),
            ("transductive", 0.9, ("transductive",)),
            ("standard", 1.0, ("standard",))]
    print(f"{'mode':<14}{'p':>5}{'A_u':>8}{'A_s':>8}{'H':>8}{'train_s':>9}")
    for mode, p, protocols in runs:
        cfg = TrainConfig(ot_prob=p, reg_weight=args.reg_weight, batch_size=args.batch_size,
                          epochs=args.epochs, seed=args.seed, mode=mode,
                          hidden_dim=args.hidden_dim)
        t0 = time.perf_counter()
        result = train(data, attrs, cfg)
        dt = time.perf_counter() - t0
        for protocol in protocols:
            rep = evaluate(protocol, result.g, attrs, data, EvalConfig(seed=args.seed + 1))
            a_s = f"{rep.A_s:8.3f}" if rep.A_s is not None else f"{'-':>8}"
            h = f"{rep.H:8.3f}" if rep.H is not None else f"{'-':>8}"
            print(f"{protocol:<14}{p:>5.1f}{rep.A_u:>8.3f}{a_s}{h}{dt:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
