"""Command-line interface: dataset generation, training, evaluation,
standalone transport solves, solver comparison curves, and feature export.

A JSON config file is the source of truth. Every flag other than --config and
--out overrides the config key its argparse dest names (--batch-size sets
batch_size). Each command declares its keys once, as knobs in its key table
(see key_rule), and a value from the file or a flag is read by one rule (see
read_value). The keys of gen-data, train and eval, their defaults and their
rules are the fields of SyntheticSpec, TrainConfig and EvalConfig, a nested
config field x spelled x_<field> (classifier_epochs). `main` calls a
command with its resolved config as cmd(cfg, out, stage); only a command that
succeeds has its stage moved into --out (see staged), and the result lines it
returns are printed once they are. Exit codes: 0 success, 1 runtime failure, 2
usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from . import checkpoint as ckpt
from . import data as dataio
from . import ot
from .errors import ConfigError, DataFormatError, OtzslError, check_value, knob
from .evaluate import PROTOCOL_SPLITS, PROTOCOLS, EvalConfig, evaluate, save_report
from .generator import synthesize_class_features
from .rng import SEED_BOUNDS, SeededRng
from .training import MODE_SPLITS, TrainConfig, train, write_trace_csv


def flat_fields(config, prefix: str = "") -> dict:
    """The fields of a config dataclass as key table entries of flat config
    keys, a nested config field x spelled x_<field>: each a knob of the
    field's value and the field's rule."""
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            out.update(flat_fields(value, f"{prefix}{field.name}_"))
        else:
            out[prefix + field.name] = knob(value, **field.metadata)
    return out


def from_flat(template, cfg: dict, prefix: str = ""):
    """A config dataclass of template's type with each field read from its
    flat key (see flat_fields) in cfg, or else kept from template; it
    rejects a bad value with ConfigError."""
    kwargs = {}
    for field in dataclasses.fields(template):
        value = getattr(template, field.name)
        key = prefix + field.name
        kwargs[field.name] = (from_flat(value, cfg, key + "_") if dataclasses.is_dataclass(value)
                              else cfg.get(key, value))
    return type(template)(**kwargs)


# Each command's key table declares each of its config keys once, a knob (see key_rule).
GEN_DATA_KEYS = flat_fields(dataio.SyntheticSpec())
INPUTS = {"data": knob(str, required="dataset directory"),
          "checkpoint": knob(str, required="checkpoint path")}
TRAIN_KEYS = {"data": INPUTS["data"], **flat_fields(TrainConfig())}
EVAL_KEYS = {**INPUTS, "mode": knob("standard", choices=PROTOCOLS), **flat_fields(EvalConfig())}
SOLVE_OT_KEYS = {"cost": knob(str, required="cost matrix CSV"),
                 "solver": knob("ipot", choices=("ipot", "sinkhorn")),
                 "lambda": knob(float, above=0), "iters": knob(int, at_least=1),
                 "stop_tol": knob(float, at_least=0)}
COMPARE_KEYS = {"size": knob(32, at_least=2), "instances": knob(20, at_least=1),
                "iters": knob(500, at_least=1), "seed": knob(0, **SEED_BOUNDS)}
EXPORT_KEYS = {**INPUTS, "classes": knob("unseen", choices=("unseen", "seen", "all")),
               "per_class": knob(100, at_least=1), "seed": knob(0, **SEED_BOUNDS)}


def key_rule(entry) -> tuple:
    """The (default, type, rule) of key table entry `entry`, a knob
    (errors.knob): a default that is a type is a null default of that type,
    and the rule is the knob's choices or bounds (required= is resolve_config's)."""
    rule = {name: value for name, value in entry.metadata.items() if name != "required"}
    if isinstance(entry.default, type):
        return None, entry.default, rule
    return entry.default, type(entry.default), rule


def read_value(key: str, value, entry, text: bool = False):
    """`value` for config key `key`, read by the rule of its key table entry:
    a flag's text (text=True) is read by the key's type, and then a value
    from either is null for a key whose default is null, or else it must
    pass check_value with the key's type, choices and bounds (json reads
    NaN, Infinity, 1e999 and an int past the float range, none of them
    finite), or ConfigError names the key."""
    default, kind, rule = key_rule(entry)
    shown = value if text else json.dumps(value)
    if text and kind is not str:
        with contextlib.suppress(ValueError):
            value = kind(value)
    if value is None and default is None:
        return value
    return check_value(f"config key {key!r}", value, kind, shown=shown, **rule)


def resolve_config(keys: dict, args) -> dict:
    """The config of a command with key table `keys`: each key's default,
    replaced by its value in the config file of --config, then by its flag
    if given, each value read by read_value; a required key (errors.knob)
    then null or empty is a ConfigError. main resolves a command's config
    before it stages the command."""
    cfg = {key: key_rule(entry)[0] for key, entry in keys.items()}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh, object_pairs_hook=dataio.unique_keys)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a repeated key, deep nesting
            raise ConfigError(f"{args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: top level must be a JSON object")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ConfigError(f"{args.config}: unknown keys {sorted(unknown)}")
        cfg.update((key, read_value(key, value, keys[key])) for key, value in loaded.items())
    cfg.update((key, read_value(key, text, keys[key], text=True))
               for key, text in vars(args).items() if key in keys and text is not None)
    for key, entry in keys.items():
        if not cfg[key] and (what := entry.metadata.get("required")):
            raise ConfigError(f"{what} is required (config key {key!r} or the matching flag)")
    return cfg


@contextlib.contextmanager
def staged(out: str, cfg: dict):
    """A new stage directory in `out`, which is made with any missing parents
    (one that cannot be made is a usage error). When the body returns, cfg
    joins the stage as config.json and every file moves into `out` by
    os.replace, config.json last; on an error, KeyboardInterrupt or a
    directory in `out` with a file's name (a usage error) none does, and the
    directories made here go too. The stage goes either way."""
    made, path = None, os.path.abspath(out)
    while not os.path.lexists(path):  # the outermost directory makedirs creates
        made, path = path, os.path.dirname(path)
    try:
        os.makedirs(out, exist_ok=True)
        stage = tempfile.mkdtemp(prefix=".stage-", dir=out)
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {out}: {exc.strerror or exc}") from None
    try:
        yield stage
        dataio.write_json(cfg, os.path.join(stage, "config.json"))
        names = sorted(os.listdir(stage), key=lambda name: (name == "config.json", name))
        for target in (os.path.join(out, name) for name in names):  # os.replace fails on a
            if os.path.isdir(target) and not os.path.islink(target):  # directory, not a link
                raise ConfigError(f"cannot write output directory {out}: {target} is a directory")
        for name in names:
            os.replace(os.path.join(stage, name), os.path.join(out, name))
        made = None
    finally:
        shutil.rmtree(made or stage, ignore_errors=True)


def _load_dataset_and_generator(cfg: dict, splits):
    """The dataset, holding only the named splits (see load_dataset), and the
    checkpoint's generator that eval and export read, checked to agree in
    dimension; the generator, the smaller read, loads first."""
    data_dir, ckpt_path = cfg["data"], cfg["checkpoint"]
    g = ckpt.load_checkpoint(ckpt_path)
    attrs, dataset = dataio.load_dataset(data_dir, splits)
    if (g.attr_dim, g.feature_dim) != (attrs.attr_dim, dataset.feature_dim):
        raise DataFormatError(f"{ckpt_path} holds a generator for (attributes, features) = "
                              f"({g.attr_dim}, {g.feature_dim}), but dataset {data_dir} has "
                              f"({attrs.attr_dim}, {dataset.feature_dim})")
    return attrs, dataset, g


def cmd_gen_data(cfg: dict, out: str, stage: str) -> list[str]:
    spec = from_flat(dataio.SyntheticSpec(), cfg)
    attrs, dataset, _ = dataio.make_synthetic_dataset(spec)
    dataio.save_dataset(stage, attrs, dataset)
    n = sum(dataset.rows[name].size for name in dataio.LABELED_SPLITS)
    return [f"wrote dataset to {out}: {attrs.n_classes} classes, {n} samples"]


def cmd_train(cfg: dict, out: str, stage: str) -> list[str]:
    tc = from_flat(TrainConfig(), cfg)
    attrs, dataset = dataio.load_dataset(cfg["data"], MODE_SPLITS[tc.mode])
    g, tr = train(dataset, attrs, tc)
    ckpt.save_checkpoint(os.path.join(stage, "checkpoint.bin"), g)
    write_trace_csv(tr, os.path.join(stage, "trace.csv"))
    final = " ".join(f"{k} {v:.6g}" for k, v in zip(tr[-1]._fields[1:], tr[-1][1:]))
    return [f"trained {len(tr)} iterations ({tc.epochs} epochs, mode {tc.mode})", f"final {final}",
            f"wrote {os.path.join(out, 'checkpoint.bin')} and trace.csv"]


def cmd_eval(cfg: dict, out: str, stage: str) -> list[str]:
    ec = from_flat(EvalConfig(), cfg)
    attrs, dataset, g = _load_dataset_and_generator(cfg, PROTOCOL_SPLITS[cfg["mode"]])
    report = evaluate(cfg["mode"], g, attrs, dataset, ec)
    save_report(report, os.path.join(stage, "report.json"))
    # A_s and H only in generalized mode
    return [*(f"{key:<4} {report[key]:.4f}" for key in ("A_s", "A_u", "H") if key in report),
            f"wrote {os.path.join(out, 'report.json')}"]


def cmd_solve_ot(cfg: dict, out: str, stage: str) -> list[str]:
    solver = cfg["solver"]
    if solver == "sinkhorn" and cfg["stop_tol"] is not None:
        raise ConfigError("stop_tol applies only to the ipot solver; sinkhorn has no stop rule")
    cost = dataio.load_matrix_csv(cfg["cost"])
    marg = ot.Marginals.uniform(*cost.shape)
    solve = ot.ipot_solve if solver == "ipot" else ot.sinkhorn_solve
    given = {"reg": cfg["lambda"], "iterations": cfg["iters"], "stop_tol": cfg["stop_tol"]}
    plan = solve(cost, marg, record_trace=True,  # an unset key keeps the solver's default
                 **{k: v for k, v in given.items() if v is not None})
    dataio.save_matrix_csv(plan.values, os.path.join(stage, "plan.csv"))
    dataio.save_matrix_csv(plan.trace, os.path.join(stage, "solver_trace.csv"))
    report = ot.check_marginals(plan.values, marg)
    return [f"solver {solver}: cost {ot.transport_cost(plan.values, cost):.10g} "
            f"iterations {plan.iterations_used} converged {plan.converged}",
            f"feasibility: max row dev {report.max_row_dev:.3e}, "
            f"max col dev {report.max_col_dev:.3e}, min entry {report.min_entry:.3e}"]


def cmd_compare_solvers(cfg: dict, out: str, stage: str) -> list[str]:
    rng = SeededRng(cfg["seed"])
    n, iters = cfg["size"], cfg["iters"]
    leads, curves, finals = [], [], {}
    for inst in range(cfg["instances"]):
        feat_rng = rng.split(inst + 1)
        real = feat_rng.gaussian(n * 16).reshape(n, 16)
        synth = feat_rng.gaussian(n * 16).reshape(n, 16)
        cost = ot.cosine_cost_matrix(real, synth)
        # IPOT at its default λ, Sinkhorn at its own default and at IPOT's
        runs = [("ipot", ot.IPOT_REG, ot.ipot_solve(cost, iterations=iters, stop_tol=0.0,
                                                    record_trace=True))]
        runs += [("sinkhorn", reg, ot.sinkhorn_solve(cost, reg=reg, iterations=iters,
                                                     record_trace=True))
                 for reg in (ot.SINKHORN_REG, ot.IPOT_REG)]
        for name, reg, plan in runs:  # trace columns: iteration, cost, feasibility error
            leads += [f"{name},{reg},{inst},{int(it)}," for it in plan.trace[:, 0]]
            curves.append(plan.trace[:, 1:])
            finals.setdefault((name, reg), []).append(plan.trace[-1, 1])
    dataio.write_csv(os.path.join(stage, "curves.csv"),
                     "solver,lambda,instance,iteration,transport_cost,feasibility_error",
                     curves, leads)
    return [*(f"{name} (lambda={reg}): mean final cost {float(np.mean(costs)):.6f}"
              for (name, reg), costs in sorted(finals.items())),
            f"wrote {os.path.join(out, 'curves.csv')}"]


def cmd_export(cfg: dict, out: str, stage: str) -> list[str]:
    attrs, _, g = _load_dataset_and_generator(cfg, ())  # attributes and the feature width only
    pool = {"seen": attrs.seen_ids, "unseen": attrs.unseen_ids,
            "all": tuple(range(attrs.n_classes))}[cfg["classes"]]
    if not pool:
        raise DataFormatError(f"dataset {cfg['data']} has no {cfg['classes']} classes to export")
    feats, labels = synthesize_class_features(g, attrs, pool, cfg["per_class"],
                                              SeededRng(cfg["seed"]))
    dataio.export_features_csv(feats, labels, os.path.join(stage, "generated_features.csv"))
    return [f"wrote {feats.shape[0]} generated features to "
            f"{os.path.join(out, 'generated_features.csv')}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otzsl",
        description="Zero-shot recognition via primal optimal transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name, function (looked up here, so a wrapper set on this module's
    # attribute is the one called), summary, key table, flags and their help
    for name, func, summary, keys, flags in [
        ("gen-data", cmd_gen_data, "write a synthetic dataset directory", GEN_DATA_KEYS, {}),
        ("train", cmd_train, "train the feature generator", TRAIN_KEYS,
         {"--data": "dataset directory", "--mode": None, "--epochs": None, "--batch-size": None}),
        ("eval", cmd_eval, "evaluate a trained generator", EVAL_KEYS,
         {"--data": "dataset directory", "--checkpoint": "checkpoint file from train",
          "--mode": None, "--n-synth-per-class": None}),
        ("solve-ot", cmd_solve_ot, "solve one transport instance from a cost CSV", SOLVE_OT_KEYS,
         {"--cost": "cost matrix CSV path", "--solver": None,
          "--lambda": "solver regularization weight", "--iters": "iteration budget"}),
        ("compare-solvers", cmd_compare_solvers, "record convergence curves on random instances",
         COMPARE_KEYS, {"--size": "instance size N (square problems)",
                        "--instances": "number of random instances",
                        "--iters": "iterations per solver"}),
        ("export", cmd_export, "export generated features for external plotting", EXPORT_KEYS,
         {"--data": "dataset directory", "--checkpoint": "checkpoint file from train",
          "--classes": None, "--per-class": None}),
    ]:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file")
        if "seed" in keys:
            p.add_argument("--seed", help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        for flag, help_text in flags.items():  # resolve_config reads the text by its key's rule
            action = p.add_argument(flag, help=help_text)
            if choices := key_rule(keys[action.dest])[2].get("choices"):
                action.metavar = "{" + ",".join(choices) + "}"
        p.set_defaults(func=func, keys=keys)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.keys, args)
        with staged(args.out, cfg) as stage:
            lines = args.func(cfg, args.out, stage)
        sys.stdout.writelines(f"{line}\n" for line in lines)
        return 0
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OtzslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The program's entry point (the installed `otzsl` command, `python -m
    otzsl`): exit with main's code. Interpreter teardown skips frozen objects
    in its final collection, a walk over every object numpy and argparse made;
    every output file is already closed, and the process exit returns the
    memory. main itself keeps a normal GC for in-process callers."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
