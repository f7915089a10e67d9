"""Command-line interface: dataset generation, training, evaluation,
standalone transport solves, solver comparison curves, and feature export.

A JSON config file is the source of truth. Every flag other than --config and
--out overrides the config key its argparse dest names (--batch-size sets
batch_size), and the fully resolved config is echoed into the output directory
as config.json. The config keys of gen-data, train and eval and their defaults
are the fields of SyntheticSpec, TrainConfig and EvalConfig, a nested config
field x spelled x_<field> (ipot_reg, classifier_epochs). Exit codes: 0
success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import data as dataio
from . import ot
from .errors import ConfigError, DataFormatError, OtzslError
from .evaluate import PROTOCOL_SPLITS, PROTOCOLS, EvalConfig, evaluate, protocol, save_report
from .rng import SeededRng, check_seed
from .training import (MODE_SPLITS, MODES, TrainConfig, require_training_rows,
                       synthesize_class_features, train, write_trace_csv)

SOLVE_OT_DEFAULTS = {
    "cost": None,
    "solver": "ipot",
    "lambda": None,
    "iters": None,
    "stop_tol": None,
}

COMPARE_DEFAULTS = {
    "size": 32,
    "instances": 20,
    "iters": 500,
    "seed": 0,
}

EXPORT_DEFAULTS = {
    "data": None,
    "checkpoint": None,
    "classes": "unseen",
    "per_class": 100,
    "seed": 0,
}

# The type of each config key whose default is None; JSON null stays allowed.
NULLABLE_KEY_TYPES = {"data": str, "checkpoint": str, "cost": str, "top_k": int,
                      "lambda": float, "iters": int, "stop_tol": float}


def flat_fields(config, prefix: str = "") -> dict:
    """The field values of a config dataclass as flat config keys, a nested
    config field x spelled x_<field>."""
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            out.update(flat_fields(value, f"{prefix}{field.name}_"))
        else:
            out[prefix + field.name] = value
    return out


def from_flat(template, cfg: dict, prefix: str = ""):
    """A config dataclass of template's type with every field read from the
    flat keys that flat_fields gives for it; it rejects a bad value with
    ConfigError."""
    kwargs = {}
    for field in dataclasses.fields(template):
        value = getattr(template, field.name)
        key = prefix + field.name
        kwargs[field.name] = (from_flat(value, cfg, key + "_") if dataclasses.is_dataclass(value)
                              else cfg[key])
    return type(template)(**kwargs)


def resolve_config(defaults: dict, args) -> dict:
    """`defaults`, updated by the config file of --config, then by every parsed
    flag that was given and whose dest is a key of `defaults`. A config value
    must have its default's type, or for a None default its NULLABLE_KEY_TYPES
    type or null (an int may stand for a float, a bool for nothing else), and be
    finite: json reads NaN, Infinity and 1e999, and NaN passes every `x < 0` check.
    A seed, from the file or --seed, must lie in 0..MAX_SEED."""
    cfg = dict(defaults)
    config_path = args.config

    def finite(text: str) -> float:
        if not math.isfinite(value := float(text)):
            raise ConfigError(f"{config_path}: {text} is not a finite number")
        return value

    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                loaded = json.load(fh, parse_float=finite, parse_constant=finite)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except ValueError as exc:  # a JSON syntax error, or a byte that is not UTF-8
            raise ConfigError(f"{config_path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_path}: top level must be a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigError(f"{config_path}: unknown keys {sorted(unknown)}")
        for key, value in loaded.items():
            kind = NULLABLE_KEY_TYPES[key] if defaults[key] is None else type(defaults[key])
            if not (type(value) is kind or kind is float and type(value) is int
                    or value is None and defaults[key] is None):
                raise ConfigError(f"{config_path}: key {key!r} must be of type "
                                  f"{kind.__name__}, got {json.dumps(value)}")
        cfg.update(loaded)
    cfg.update((k, v) for k, v in vars(args).items() if k in defaults and v is not None)
    check_seed(cfg.get("seed", 0), "config key 'seed'")
    return cfg


def echo_config(cfg: dict, out_dir: str) -> None:
    """Create out_dir and write config.json there, every command's first write;
    an out_dir that cannot be created or written is a usage error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        dataio.write_json(cfg, os.path.join(out_dir, "config.json"))
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {out_dir}: "
                          f"{exc.strerror or exc}") from None


def _given(**kwargs) -> dict:
    """The keyword arguments that are set; unset ones keep the callee's defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _require(cfg: dict, key: str, what: str) -> str:
    if not cfg.get(key):
        raise ConfigError(f"{what} is required (config key {key!r} or the matching flag)")
    return cfg[key]


def _load_dataset_and_generator(cfg: dict, splits):
    """The dataset, holding only the named splits (see load_dataset), and the
    checkpoint's generator that eval and export read, checked to agree in
    dimension; the generator, the smaller read, loads first."""
    data_dir = _require(cfg, "data", "dataset directory")
    ckpt_path = _require(cfg, "checkpoint", "checkpoint path")
    g = ckpt.load_checkpoint(ckpt_path)
    attrs, dataset = dataio.load_dataset(data_dir, splits)
    if (g.attr_dim, g.feature_dim) != (attrs.attr_dim, dataset.feature_dim):
        raise DataFormatError(f"{ckpt_path} holds a generator for (attributes, features) = "
                              f"({g.attr_dim}, {g.feature_dim}), but dataset {data_dir} has "
                              f"({attrs.attr_dim}, {dataset.feature_dim})")
    return attrs, dataset, g


def cmd_gen_data(args) -> int:
    template = dataio.SyntheticSpec()
    cfg = resolve_config(flat_fields(template), args)
    spec = from_flat(template, cfg)
    attrs, dataset, _ = dataio.make_synthetic_dataset(spec)
    echo_config(cfg, args.out)
    dataio.save_dataset(args.out, attrs, dataset)
    n = sum(s[0].shape[0] for s in (dataset.seen_train, dataset.seen_test, dataset.unseen_test))
    print(f"wrote dataset to {args.out}: {attrs.n_classes} classes, {n} samples")
    return 0


def cmd_train(args) -> int:
    template = TrainConfig()
    cfg = resolve_config({"data": None, **flat_fields(template)}, args)
    data_dir = _require(cfg, "data", "dataset directory")
    # an unknown mode reads every split, and from_flat rejects it where it always did
    attrs, dataset = dataio.load_dataset(data_dir, MODE_SPLITS.get(cfg["mode"], dataio.SPLITS))
    tc = from_flat(template, cfg)
    require_training_rows(attrs, dataset, tc.mode)
    echo_config(cfg, args.out)
    result = train(dataset, attrs, tc)
    ckpt.save_checkpoint(os.path.join(args.out, "checkpoint.bin"), result.g)
    write_trace_csv(result.trace, os.path.join(args.out, "trace.csv"))
    tr = result.trace
    print(f"trained {len(tr)} iterations ({tc.epochs} epochs, mode {tc.mode})")
    print(f"final transport_cost {tr.transport_cost[-1]:.6g} "
          f"reg_loss {tr.reg_loss[-1]:.6g} total_loss {tr.total_loss[-1]:.6g}")
    print(f"wrote {os.path.join(args.out, 'checkpoint.bin')} and trace.csv")
    return 0


def cmd_eval(args) -> int:
    template = EvalConfig()
    cfg = resolve_config({"data": None, "checkpoint": None, "mode": "standard",
                          **flat_fields(template)}, args)
    # an unknown mode reads every split, and protocol() rejects it where it always did
    attrs, dataset, g = _load_dataset_and_generator(
        cfg, PROTOCOL_SPLITS.get(cfg["mode"], dataio.SPLITS))
    ec = from_flat(template, cfg)
    protocol(cfg["mode"], attrs, dataset, ec.top_k)  # rejects bad inputs before writing
    echo_config(cfg, args.out)
    report = evaluate(cfg["mode"], g, attrs, dataset, ec)
    save_report(report, os.path.join(args.out, "report.json"))
    if report.A_s is not None:
        print(f"A_s  {report.A_s:.4f}")
    print(f"A_u  {report.A_u:.4f}")
    if report.H is not None:
        print(f"H    {report.H:.4f}")
    if report.top_k is not None:
        print(f"top{cfg['top_k']} {report.top_k:.4f}")
    print(f"wrote {os.path.join(args.out, 'report.json')}")
    return 0


def cmd_solve_ot(args) -> int:
    cfg = resolve_config(SOLVE_OT_DEFAULTS, args)
    cost_path = _require(cfg, "cost", "cost matrix CSV")
    cost = dataio.load_matrix_csv(cost_path)
    solver = cfg["solver"]
    if solver not in ("ipot", "sinkhorn"):
        raise ConfigError(f"solver must be 'ipot' or 'sinkhorn', got {solver!r}")
    if solver == "sinkhorn" and cfg["stop_tol"] is not None:
        raise ConfigError("stop_tol applies only to the ipot solver; sinkhorn has no stop rule")
    marg = ot.Marginals.uniform(*cost.shape)
    if solver == "ipot":
        ipot_cfg = ot.IpotConfig(**_given(reg=cfg["lambda"], max_outer_iters=cfg["iters"],
                                          stop_tol=cfg["stop_tol"]))
        plan = ot.ipot_solve(cost, marg, ipot_cfg, record_trace=True)
    else:
        plan = ot.sinkhorn_solve(cost, marg, record_trace=True,
                                 **_given(reg=cfg["lambda"], iterations=cfg["iters"]))
    echo_config(cfg, args.out)  # after the solve, whose parameter checks raise ConfigError
    dataio.save_matrix_csv(plan.values, os.path.join(args.out, "plan.csv"))
    if plan.trace is not None:
        dataio.save_matrix_csv(plan.trace, os.path.join(args.out, "solver_trace.csv"))
    report = ot.check_marginals(plan, marg)
    print(f"solver {solver}: cost {ot.transport_cost(plan, cost):.10g} "
          f"iterations {plan.iterations_used} converged {plan.converged}")
    print(f"feasibility: max row dev {report.max_row_dev:.3e}, "
          f"max col dev {report.max_col_dev:.3e}, min entry {report.min_entry:.3e}")
    return 0


def cmd_compare_solvers(args) -> int:
    cfg = resolve_config(COMPARE_DEFAULTS, args)
    if cfg["size"] < 2 or cfg["instances"] < 1 or cfg["iters"] < 1:
        raise ConfigError("size must be >= 2 and instances/iters >= 1")
    echo_config(cfg, args.out)
    rng = SeededRng(cfg["seed"])
    n = cfg["size"]
    # IPOT at its default λ, Sinkhorn at its own default and at IPOT's
    ipot = ot.IpotConfig(max_outer_iters=cfg["iters"], stop_tol=0.0)
    leads, curves, finals = [], [], {}
    for inst in range(cfg["instances"]):
        feat_rng = rng.split(inst + 1)
        real = feat_rng.gaussian(n * 16).reshape(n, 16)
        synth = feat_rng.gaussian(n * 16).reshape(n, 16)
        cost = ot.cosine_cost_matrix(real, synth)
        runs = [
            ("ipot", ipot.reg, ot.ipot_solve(cost, cfg=ipot, record_trace=True)),
            ("sinkhorn", ot.SINKHORN_REG, ot.sinkhorn_solve(
                cost, reg=ot.SINKHORN_REG, iterations=cfg["iters"], record_trace=True)),
            ("sinkhorn", ipot.reg, ot.sinkhorn_solve(
                cost, reg=ipot.reg, iterations=cfg["iters"], record_trace=True)),
        ]
        for name, reg, plan in runs:  # trace columns: iteration, cost, feasibility error
            leads += [f"{name},{reg},{inst},{int(it)}," for it in plan.trace[:, 0]]
            curves.append(plan.trace[:, 1:])
            finals.setdefault((name, reg), []).append(plan.trace[-1, 1])
    out_path = os.path.join(args.out, "curves.csv")
    dataio.write_csv(out_path, "solver,lambda,instance,iteration,transport_cost,feasibility_error",
                     curves, leads)
    for (name, reg), costs in sorted(finals.items()):
        print(f"{name} (lambda={reg}): mean final cost {float(np.mean(costs)):.6f}")
    print(f"wrote {out_path}")
    return 0


def cmd_export(args) -> int:
    cfg = resolve_config(EXPORT_DEFAULTS, args)
    if cfg["classes"] not in ("seen", "unseen", "all"):
        raise ConfigError(f"classes must be seen, unseen, or all, got {cfg['classes']!r}")
    if cfg["per_class"] < 1:
        raise ConfigError(f"per_class must be positive, got {cfg['per_class']}")
    attrs, _, g = _load_dataset_and_generator(cfg, ())  # attributes and the feature width only
    pool = {"seen": attrs.seen_ids, "unseen": attrs.unseen_ids,
            "all": tuple(range(attrs.n_classes))}[cfg["classes"]]
    if not pool:
        raise DataFormatError(f"dataset {cfg['data']} has no {cfg['classes']} classes to export")
    echo_config(cfg, args.out)
    feats, labels = synthesize_class_features(g, attrs, pool, cfg["per_class"],
                                              SeededRng(cfg["seed"]))
    out_path = os.path.join(args.out, "generated_features.csv")
    dataio.export_features_csv(feats, labels, out_path)
    print(f"wrote {feats.shape[0]} generated features to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otzsl",
        description="Zero-shot recognition via primal optimal transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, seed=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(func=func)
        return p

    command("gen-data", cmd_gen_data, "write a synthetic dataset directory")

    p = command("train", cmd_train, "train the feature generator")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)

    p = command("eval", cmd_eval, "evaluate a trained generator")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--checkpoint", help="checkpoint file from train")
    p.add_argument("--mode", choices=PROTOCOLS)
    p.add_argument("--n-synth-per-class", dest="n_synth_per_class", type=int)
    p.add_argument("--top-k", dest="top_k", type=int)

    p = command("solve-ot", cmd_solve_ot, "solve one transport instance from a cost CSV",
                seed=False)
    p.add_argument("--cost", help="cost matrix CSV path")
    p.add_argument("--solver", choices=["ipot", "sinkhorn"])
    p.add_argument("--lambda", type=float, help="solver regularization weight")
    p.add_argument("--iters", type=int, help="iteration budget")

    p = command("compare-solvers", cmd_compare_solvers,
                "record convergence curves on random instances")
    p.add_argument("--size", type=int, help="instance size N (square problems)")
    p.add_argument("--instances", type=int, help="number of random instances")
    p.add_argument("--iters", type=int, help="iterations per solver")

    p = command("export", cmd_export, "export generated features for external plotting")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--checkpoint", help="checkpoint file from train")
    p.add_argument("--classes", choices=["seen", "unseen", "all"])
    p.add_argument("--per-class", dest="per_class", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
