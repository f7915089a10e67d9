#!/usr/bin/env python3
"""Accuracy table of the synthetic benchmark over several training seeds.

Runs the full desk-scale pipeline in one process: generate the dataset once,
then for each training seed train one standard and one transductive
generator and print a row of accuracies. The standard generator is scored
under both the standard and the generalized protocol, which differ only in
the classifier that evaluation trains. The dataset seed and the evaluation
config (its defaults, seed 0) stay fixed, so the rows differ only in the
training seed. The last two rows are the mean and the min of each column
over the seeds. With the defaults this takes well under a minute. --spec
sets the dataset's shape, for instance to the AwA2-sized one of perfbench's
paper workload.

    python3 scripts/run_zsl_benchmark.py --seeds 0 1 2 3 4
    python3 scripts/run_zsl_benchmark.py --config '{"ipot_max_outer_iters": 200}'
    python3 scripts/run_zsl_benchmark.py --epochs 2 \
        --spec '{"seen_classes": 40, "unseen_classes": 10, "attr_dim": 85, "feature_dim": 2048, "samples_per_class": 50}' \
        --config '{"hidden_dim": 512, "batch_size": 128}'
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from otzsl.cli import flat_fields, from_flat
from otzsl.data import SyntheticSpec, make_synthetic_dataset
from otzsl.evaluate import EvalConfig, evaluate
from otzsl.training import TrainConfig, train

COLUMNS = ("std_A_u", "gzsl_A_u", "gzsl_A_s", "gzsl_H", "trans_A_u")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4],
                    help="training seeds, one row each")
    ap.add_argument("--data-seed", type=int, default=0, help="SyntheticSpec seed")
    ap.add_argument("--spec", type=json.loads, default={},
                    help="JSON object of SyntheticSpec keys other than seed, as `otzsl gen-data` reads them")
    ap.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    ap.add_argument("--config", type=json.loads, default={},
                    help="JSON object of train config keys, as `otzsl train` reads them")
    args = ap.parse_args()

    template = TrainConfig(epochs=args.epochs)
    base = flat_fields(template)
    overrides = args.config
    if not isinstance(overrides, dict):
        ap.error("--config must be a JSON object")
    unknown = set(overrides) - set(base) | set(overrides) & {"seed", "mode", "epochs"}
    if unknown:
        ap.error(f"train config keys {sorted(unknown)} are unknown or set by the script")

    spec_base = flat_fields(SyntheticSpec(seed=args.data_seed))
    if not isinstance(args.spec, dict):
        ap.error("--spec must be a JSON object")
    unknown = set(args.spec) - set(spec_base) | set(args.spec) & {"seed"}
    if unknown:
        ap.error(f"dataset spec keys {sorted(unknown)} are unknown or set by the script")
    spec = from_flat(SyntheticSpec(), {**spec_base, **args.spec})

    attrs, data, _ = make_synthetic_dataset(spec)
    print(f"dataset: {len(attrs.seen_ids)} seen / {len(attrs.unseen_ids)} unseen classes, "
          f"{data.seen_train[0].shape[0]} training samples, D={data.feature_dim}")
    print(f"train config overrides {json.dumps(overrides)}, {args.epochs} epochs")

    print(f"{'seed':<6}" + "".join(f"{c:>11}" for c in COLUMNS) + f"{'train_s':>9}")
    rows = []
    for seed in args.seeds:
        row, train_s = [], 0.0
        for mode, protocols in (("standard", ("standard", "generalized")),
                                ("transductive", ("transductive",))):
            cfg = from_flat(template, {**base, **overrides, "seed": seed, "mode": mode})
            t0 = time.perf_counter()
            g = train(data, attrs, cfg).g
            train_s += time.perf_counter() - t0
            for protocol in protocols:
                rep = evaluate(protocol, g, attrs, data, EvalConfig())
                row += [rep.A_u] if rep.H is None else [rep.A_u, rep.A_s, rep.H]
        rows.append(row)
        print(f"{seed:<6}" + "".join(f"{v:>11.3f}" for v in row) + f"{train_s:>9.1f}")
    table = np.array(rows)
    for name, stat in (("mean", table.mean(axis=0)), ("min", table.min(axis=0))):
        print(f"{name:<6}" + "".join(f"{v:>11.3f}" for v in stat))
    return 0


if __name__ == "__main__":
    sys.exit(main())
