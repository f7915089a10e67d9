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
import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from otzsl.cli import flat_fields, from_flat, read_value
from otzsl.data import SyntheticSpec, make_synthetic_dataset, unique_keys
from otzsl.errors import ConfigError
from otzsl.evaluate import EvalConfig, evaluate
from otzsl.rng import check_seed
from otzsl.training import TrainConfig, train

COLUMNS = ("std_A_u", "gzsl_A_u", "gzsl_A_s", "gzsl_H", "trans_A_u")


def json_value(text: str):
    """A flag's JSON text, decoded; bad JSON, a repeated key or too deep a
    nesting is a usage error."""
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4],
                    help="training seeds, one row each")
    ap.add_argument("--data-seed", type=int, default=0, help="SyntheticSpec seed")
    ap.add_argument("--spec", type=json_value, default={},
                    help="JSON object of SyntheticSpec keys other than seed, as `otzsl gen-data` reads them")
    ap.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    ap.add_argument("--config", type=json_value, default={},
                    help="JSON object of train config keys, as `otzsl train` reads them")
    args = ap.parse_args()

    def from_json(template, given, set_here, flag, what):
        """template with the keys of `given`, flag's JSON object, read as otzsl reads them."""
        keys = flat_fields(template)
        if not isinstance(given, dict):
            ap.error(f"{flag} must be a JSON object")
        if unknown := set(given) - set(keys) | set(given) & set_here:
            ap.error(f"{what} keys {sorted(unknown)} are unknown or set by the script")
        return from_flat(template, {k: read_value(k, v, keys[k]) for k, v in given.items()})
    try:
        for seed in args.seeds:  # every seed is checked before any work
            check_seed(seed, "--seeds value")
        template = from_json(TrainConfig(epochs=args.epochs), args.config,
                             {"seed", "mode", "epochs"}, "--config", "train config")
        spec = from_json(SyntheticSpec(seed=args.data_seed), args.spec, {"seed"}, "--spec",
                         "dataset spec")
    except ConfigError as exc:
        ap.error(str(exc))

    attrs, data, _ = make_synthetic_dataset(spec)
    print(f"dataset: {len(attrs.seen_ids)} seen / {len(attrs.unseen_ids)} unseen classes, "
          f"{data.rows['seen_train'].size} training samples, D={data.feature_dim}")
    print(f"train config overrides {json.dumps(args.config)}, {args.epochs} epochs")

    print(f"{'seed':<6}" + "".join(f"{c:>11}" for c in COLUMNS) + f"{'train_s':>9}")
    rows = []
    for seed in args.seeds:
        row, train_s = [], 0.0
        for mode, protocols in (("standard", ("standard", "generalized")),
                                ("transductive", ("transductive",))):
            cfg = dataclasses.replace(template, seed=seed, mode=mode)
            t0 = time.perf_counter()
            g, _ = train(data, attrs, cfg)
            train_s += time.perf_counter() - t0
            for protocol in protocols:
                rep = evaluate(protocol, g, attrs, data, EvalConfig())
                row += [rep[k] for k in ("A_u", "A_s", "H") if k in rep]
        rows.append(row)
        print(f"{seed:<6}" + "".join(f"{v:>11.3f}" for v in row) + f"{train_s:>9.1f}")
    table = np.array(rows)
    for name, stat in (("mean", table.mean(axis=0)), ("min", table.min(axis=0))):
        print(f"{name:<6}" + "".join(f"{v:>11.3f}" for v in stat))
    return 0


if __name__ == "__main__":
    sys.exit(main())
