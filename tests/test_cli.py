import argparse
import dataclasses
import errno
import functools
import gc
import json
import math
import os
import re
import runpy
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from otzsl import cli, ot
from otzsl.data import SyntheticSpec, load_matrix_csv, save_matrix_csv
from otzsl.errors import ConfigError
from otzsl.evaluate import ClassifierConfig, EvalConfig
from otzsl.rng import MAX_SEED, SeededRng
from otzsl.training import TrainConfig

from conftest import deny_open, random_cost, reference_write_json

TINY_GEN = {
    "seen_classes": 3,
    "unseen_classes": 2,
    "attr_dim": 6,
    "feature_dim": 8,
    "samples_per_class": 8,
    "noise_sigma": 0.2,
    "seed": 5,
}


def run(argv):
    return cli.main(argv)


def edited_dataset(workspace, tmp_path, **split_changes):
    """A copy of the workspace dataset with split.json keys replaced."""
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    split = json.loads((data / "split.json").read_text())
    (data / "split.json").write_text(json.dumps({**split, **split_changes}))
    return data


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus a short training run shared by the tests."""
    root = tmp_path_factory.mktemp("cliws")
    data_dir = root / "data"
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps(TINY_GEN))
    assert run(["gen-data", "--config", str(gen_cfg), "--out", str(data_dir)]) == 0

    run_dir = root / "run"
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps({"hidden_dim": 8, "batch_size": 4, "epochs": 2}))
    assert run(["train", "--config", str(train_cfg), "--data", str(data_dir),
                "--out", str(run_dir)]) == 0
    return {"root": root, "data": data_dir, "run": run_dir,
            "gen_cfg": gen_cfg, "train_cfg": train_cfg,
            "ckpt": run_dir / "checkpoint.bin"}


def test_cli_imports_no_test_only_package(tmp_path):
    """The runtime needs numpy alone: a fresh interpreter with only src/ on
    its path imports the CLI without scipy, hypothesis or pytest."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, "PYTHONPATH": str(src)}
    code = ("import sys, otzsl.cli; print(sorted({'scipy', 'hypothesis', 'pytest'} & "
            "{m.partition('.')[0] for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_python_m_otzsl_exit_path(tmp_path):
    """`python -m otzsl` returns main's exit code and flushes its output."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, "PYTHONPATH": str(src)}
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), str(cost))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "otzsl", *argv, "--cost", str(cost)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)

    proc = python_m("solve-ot", "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("solver ipot: cost ") and lines[1].startswith("feasibility: ")
    np.testing.assert_allclose(load_matrix_csv(str(tmp_path / "o" / "plan.csv")),
                               [[0.5, 0.0], [0.0, 0.5]], atol=1e-9)

    proc = python_m("solve-ot", "--config", str(bad), "--out", str(tmp_path / "p"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


def test_installed_command_runs_the_python_m_entry_point(monkeypatch):
    """pyproject.toml's `otzsl` script names the function `python -m otzsl`
    runs, so both freeze the GC before teardown and exit with main's code."""
    pyproject = (Path(cli.__file__).resolve().parents[2] / "pyproject.toml").read_text()
    target = re.search(r'^\[project\.scripts\]\notzsl = "otzsl\.cli:(\w+)"$', pyproject, re.M)
    assert target is not None
    entry = getattr(cli, target[1])
    assert entry is cli.run
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    runpy.run_module("otzsl", run_name="__main__")
    assert calls == ["run"]
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exit_info:
        entry()
    assert exit_info.value.code == 3
    assert calls == ["run", "main", "freeze"]


# --- config plumbing ---

def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seen_classes": 3, "bogus_knob": 1}))
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_repeated_config_key_rejected(workspace, tmp_path, capsys):
    """A key given twice is a config error, not its last value winning."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 1, "epochs": 2}')
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--data", str(workspace["data"]),
                "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {cfg}: repeated key 'epochs'\n")
    assert not out.exists()


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "top level" in capsys.readouterr().err


def test_config_bad_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("fresh", [True, False], ids=["fresh-out", "existing-out"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_config_that_cannot_be_read_is_a_usage_error(kind, fresh, tmp_path, capsys):
    """--config naming a missing file or a directory exits 2 before any
    work, and --out stays as it was."""
    cfg = tmp_path / "cfg.json"
    if kind == "directory":
        cfg.mkdir()
    out = tmp_path / "runs" / "run"
    if not fresh:
        out.mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
    before = snapshot(tmp_path)
    assert run(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    code = errno.ENOENT if kind == "missing" else errno.EISDIR
    assert capsys.readouterr() == (
        "", f"error: cannot read config: [Errno {code}] {os.strerror(code)}: {str(cfg)!r}\n")
    assert snapshot(tmp_path) == before


# Each input file of train and solve-ot and the open that fails: a CSV is
# opened by the line reader and then again for the parse of its body.
@pytest.mark.parametrize("command, name, nth", [
    ("train", "attributes.csv", 1), ("train", "features.csv", 2), ("train", "split.json", 1),
    ("solve-ot", "cost.csv", 1), ("solve-ot", "cost.csv", 2)])
def test_an_input_that_cannot_be_opened_is_a_data_error(command, name, nth, workspace, tmp_path,
                                                         monkeypatch, capsys):
    """An input file that exists but cannot be opened exits 2 with an error
    that names it, not as an unexpected error, and writes no --out."""
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    if command == "solve-ot":
        path, argv = cost, ["solve-ot", "--cost", str(cost)]
    else:
        path, argv = workspace["data"] / name, ["train", "--data", str(workspace["data"]),
                                                "--epochs", "1"]
    deny_open(monkeypatch, str(path), nth)
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot read {path}: Permission denied\n")
    assert not out.exists()


def test_config_echoed(workspace):
    echoed = json.loads((workspace["run"] / "config.json").read_text())
    assert echoed["epochs"] == 2 and echoed["hidden_dim"] == 8


# The config keys each command accepts. gen-data, train and eval derive theirs
# from the library dataclasses; this list keeps a key from appearing or
# vanishing unnoticed.
CONFIG_KEYS = {
    "gen-data": {"seen_classes", "unseen_classes", "attr_dim", "feature_dim",
                 "samples_per_class", "noise_sigma", "seed"},
    "train": {"data", "ot_prob", "reg_weight", "nca_scale", "batch_size", "learning_rate",
              "epochs", "seed", "mode", "hidden_dim", "ipot_reg", "ipot_max_outer_iters"},
    "eval": {"data", "checkpoint", "mode", "n_synth_per_class", "seed",
             "classifier_learning_rate", "classifier_epochs", "classifier_batch_size"},
    "solve-ot": {"cost", "solver", "lambda", "iters", "stop_tol"},
    "compare-solvers": {"size", "instances", "iters", "seed"},
    "export": {"data", "checkpoint", "classes", "per_class", "seed"},
}


def short_run(command, workspace, tmp_path) -> list:
    """The arguments, but --out, of a short successful run of `command`."""
    data, ckpt = str(workspace["data"]), str(workspace["ckpt"])
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    return [command, *{
        "gen-data": [],
        "train": ["--data", data, "--epochs", "1"],
        "eval": ["--data", data, "--checkpoint", ckpt, "--n-synth-per-class", "2"],
        "solve-ot": ["--cost", str(cost)],
        "compare-solvers": ["--size", "2", "--instances", "1", "--iters", "2"],
        "export": ["--data", data, "--checkpoint", ckpt, "--per-class", "1"],
    }[command]]


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_keys_pinned(command, workspace, tmp_path):
    """The echoed config holds every key the command accepts, and only those."""
    out = tmp_path / "out"
    assert run([*short_run(command, workspace, tmp_path), "--out", str(out)]) == 0
    assert set(json.loads((out / "config.json").read_text())) == CONFIG_KEYS[command]


def test_every_flag_names_a_config_key():
    """A flag reaches the config through its dest, so each dest other than
    --config and --out must be a config key of its command."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(CONFIG_KEYS)
    for command, p in sub.choices.items():
        dests = {a.dest for a in p._actions} - {"help", "config", "out"}
        assert dests <= CONFIG_KEYS[command], (command, dests - CONFIG_KEYS[command])


def bound_words(at_least=None, above=None, at_most=None) -> str:
    """Bounds in check_value's wording: "at least 0 and at most 1"."""
    return " and ".join(f"{words} {bound}" for words, bound in (
        ("at least", at_least), ("greater than", above), ("at most", at_most)) if bound is not None)


def test_readme_table_lists_each_rule_of_the_key_tables():
    """README's "key | choices or bound" table is built from the key tables:
    a row for each key with choices or bounds, the commands that share a key
    and its rule listed together, in the order the tables declare them."""
    tables = {"gen-data": cli.GEN_DATA_KEYS, "train": cli.TRAIN_KEYS, "eval": cli.EVAL_KEYS,
              "solve-ot": cli.SOLVE_OT_KEYS, "compare-solvers": cli.COMPARE_KEYS,
              "export": cli.EXPORT_KEYS}
    rows = {}
    for command, keys in tables.items():
        for key, entry in keys.items():
            rule = cli.key_rule(entry)[2]
            text = (", ".join(f"`{c}`" for c in rule["choices"]) if "choices" in rule
                    else bound_words(**rule))
            if text:
                rows.setdefault((key, text), []).append(command)
    want = ["| key | choices or bound |", "|---|---|"] + [
        f"| {' '.join(f'`{c}`' for c in commands)} `{key}` | {text} |"
        for (key, text), commands in rows.items()]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = readme.index(want[0])
    assert readme[start:start + len(want) + 1] == [*want, ""]


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_flags_reach_the_config_by_name(command, workspace, tmp_path):
    data, ckpt = str(workspace["data"]), str(workspace["ckpt"])
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    argv, want = {
        "gen-data": (["--seed", "9"], {"seed": 9}),
        "train": (["--data", data, "--mode", "transductive", "--epochs", "1",
                   "--batch-size", "5", "--seed", "3"],
                  {"data": data, "mode": "transductive", "epochs": 1, "batch_size": 5,
                   "seed": 3}),
        "eval": (["--data", data, "--checkpoint", ckpt, "--mode", "generalized",
                  "--n-synth-per-class", "2", "--seed", "4"],
                 {"data": data, "checkpoint": ckpt, "mode": "generalized",
                  "n_synth_per_class": 2, "seed": 4}),
        "solve-ot": (["--cost", str(cost), "--solver", "sinkhorn", "--lambda", "0.25",
                      "--iters", "3"],
                     {"cost": str(cost), "solver": "sinkhorn", "lambda": 0.25, "iters": 3}),
        "compare-solvers": (["--size", "2", "--instances", "1", "--iters", "2", "--seed", "6"],
                            {"size": 2, "instances": 1, "iters": 2, "seed": 6}),
        "export": (["--data", data, "--checkpoint", ckpt, "--classes", "all",
                    "--per-class", "1", "--seed", "8"],
                   {"data": data, "checkpoint": ckpt, "classes": "all", "per_class": 1,
                    "seed": 8}),
    }[command]
    out = tmp_path / "out"
    assert run([command, *argv, "--out", str(out)]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert {k: echoed[k] for k in want} == want
    reference_write_json(echoed, tmp_path / "ref.json")
    assert (out / "config.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


# A bad and a good text for each flag; in a config file the key holds the JSON
# value of the text, or the text itself as a string where it is not JSON. The
# bad ones span the key rule (type, finiteness, choices), the dataclass
# checks, a command's own checks and the required inputs; "" stands for the
# workspace path a required key names.
FLAG_TEXTS = {
    "seed": ("2.5", "7"), "data": ("", None), "checkpoint": ("", None), "cost": ("", None),
    "mode": ("bogus", "transductive"), "epochs": ("true", "1"), "batch_size": ("1", "5"),
    "n_synth_per_class": ("0", "3"), "solver": ("simplex", "sinkhorn"),
    "lambda": ("NaN", "0.25"), "iters": ("2.5", "2"), "size": ("1", "3"),
    "instances": ("Infinity", "2"), "classes": ("everything", "all"), "per_class": ("0", "2"),
}


def command_flags():
    """Each (command, flag, dest) of the parser but --config and --out."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, a.option_strings[0], a.dest) for command, p in sub.choices.items()
            for a in p._actions if a.dest not in ("help", "config", "out")]


@pytest.mark.parametrize("command, flag, key", command_flags())
def test_a_flag_and_its_config_key_are_read_alike(command, flag, key, workspace, tmp_path,
                                                  capsys):
    """A bad value gives the same one-line error and exit 2 and writes
    nothing, and a good one the same config.json, whether it comes as the
    flag or as the key in --config."""
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), str(cost))
    paths = {"data": str(workspace["data"]), "checkpoint": str(workspace["ckpt"]),
             "cost": str(cost)}
    base = {"gen-data": {k: v for k, v in TINY_GEN.items() if k != "seed"},
            "train": {"data": paths["data"], "epochs": 1},
            "eval": {"data": paths["data"], "checkpoint": paths["checkpoint"],
                     "n_synth_per_class": 2},
            "solve-ot": {"cost": paths["cost"]},
            "compare-solvers": {"size": 2, "instances": 1, "iters": 2},
            "export": {"data": paths["data"], "checkpoint": paths["checkpoint"],
                       "per_class": 1}}[command]
    for kind, text in zip(("bad", "good"), FLAG_TEXTS[key]):
        text = paths[key] if text is None else text
        try:
            value = json.loads(text)
        except ValueError:
            value = text
        results = []
        for given_by in ("flag", "config"):
            cfg, out = tmp_path / f"{kind}-{given_by}.json", tmp_path / f"{kind}-{given_by}"
            if given_by == "flag":
                cfg.write_text(json.dumps({k: v for k, v in base.items() if k != key}))
                extra = [flag, text]
            else:
                cfg.write_text(json.dumps({**base, key: value}))
                extra = []
            code = run([command, "--config", str(cfg), *extra, "--out", str(out)])
            err = capsys.readouterr().err
            if kind == "bad":
                assert code == 2 and not out.exists(), (given_by, err)
                results.append(err)
            else:
                assert code == 0, (given_by, err)
                results.append((out / "config.json").read_bytes())
        assert results[0] == results[1], (kind, results)
        if kind == "bad":
            assert results[0].startswith("error: ") and results[0].count("\n") == 1


def test_main_calls_the_command_functions_of_the_module(monkeypatch, tmp_path):
    """The parser looks each command function up when it is built, so a
    wrapper set on the module attribute, as perfbench sets its timers, is
    the function main calls."""
    calls = []
    for attr, name in [("cmd_gen_data", "gen-data"), ("cmd_solve_ot", "solve-ot")]:
        monkeypatch.setattr(cli, attr, lambda cfg, out, stage, name=name:
                            calls.append((name, cfg, out, stage)) or [])
    assert run(["gen-data", "--out", str(tmp_path / "a")]) == 0
    # a required key is checked before the command: the patched one reads no --cost
    assert run(["solve-ot", "--cost", "c.csv", "--out", str(tmp_path / "b"), "--iters", "7"]) == 0
    assert [call[0] for call in calls] == ["gen-data", "solve-ot"]
    # each command gets the config main resolved by its own key table, --out,
    # and a stage directory inside --out that is gone once main returns
    defaults = {key: cli.key_rule(entry)[0] for key, entry in cli.GEN_DATA_KEYS.items()}
    assert calls[0][1:3] == (defaults, str(tmp_path / "a"))
    assert calls[1][1]["iters"] == 7 and set(calls[1][1]) == set(cli.SOLVE_OT_KEYS)
    assert calls[1][2] == str(tmp_path / "b")
    for _, _, out, stage in calls:
        assert os.path.dirname(stage) == out and not os.path.exists(stage)
        assert os.listdir(out) == ["config.json"]


WRONG_TYPE_VALUES = [
    ("gen-data", {"seen_classes": 2.5}),
    ("train", {"epochs": "2"}),
    ("eval", {"n_synth_per_class": "100"}),
    ("solve-ot", {"solver": 1}),
    ("compare-solvers", {"size": "4"}),
    ("export", {"per_class": True}),
    ("solve-ot", {"lambda": "0.5"}),
    ("solve-ot", {"iters": 2.5}),
    ("solve-ot", {"stop_tol": True}),
    ("train", {"data": 5}),
    ("eval", {"checkpoint": 1}),
    ("export", {"data": ["d"]}),
    ("solve-ot", {"cost": 0}),
]


# ids name the command and the key, so a row that goes renames no other case
@pytest.mark.parametrize("command, bad", WRONG_TYPE_VALUES,
                         ids=[f"{command}-{key}" for command, bad in WRONG_TYPE_VALUES
                              for key in bad])
def test_config_value_must_have_the_default_type(command, bad, workspace, tmp_path, capsys):
    data, ckpt = str(workspace["data"]), str(workspace["ckpt"])
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    argv = {"train": ["--data", data], "eval": ["--data", data, "--checkpoint", ckpt],
            "solve-ot": ["--cost", str(cost)],
            "export": ["--data", data, "--checkpoint", ckpt]}.get(command, [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), *argv, "--out", str(out)]) == 2
    ((key, value),) = bad.items()
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r} must be of type "), err
    assert err.endswith(f", got {json.dumps(value)}\n"), err
    assert not out.exists()


def test_config_int_stands_for_float_and_bool_for_nothing_else(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY_GEN, "noise_sigma": 1}))
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert json.loads((tmp_path / "a" / "config.json").read_text())["noise_sigma"] == 1
    cfg.write_text(json.dumps({**TINY_GEN, "seed": True}))
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    assert "key 'seed' must be of type int, got true" in capsys.readouterr().err
    # a key whose default is None takes its own type, an int for a float, or null
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), str(cost))
    cfg.write_text(json.dumps({"lambda": 1, "iters": None, "stop_tol": None}))
    assert run(["solve-ot", "--config", str(cfg), "--cost", str(cost),
                "--out", str(tmp_path / "c")]) == 0
    echoed = json.loads((tmp_path / "c" / "config.json").read_text())
    assert (echoed["lambda"], echoed["iters"], echoed["stop_tol"]) == (1, None, None)


@pytest.mark.parametrize("command, key, literal", [
    ("train", "learning_rate", "NaN"),
    ("train", "reg_weight", "NaN"),
    ("eval", "classifier_learning_rate", "Infinity"),
    ("solve-ot", "stop_tol", "NaN"),
    ("gen-data", "noise_sigma", "-Infinity"),
    ("gen-data", "noise_sigma", "1e999"),
])
def test_config_rejects_nonfinite_numbers(command, key, literal, workspace, tmp_path, capsys):
    """json reads NaN, Infinity, -Infinity and an overflowing literal; the
    config reader rejects each, naming the key once, before anything is
    written."""
    data, ckpt = str(workspace["data"]), str(workspace["ckpt"])
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), str(cost))
    argv = {"train": ["--data", data], "eval": ["--data", data, "--checkpoint", ckpt],
            "solve-ot": ["--cost", str(cost)]}.get(command, [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": {literal}}}')
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: config key {key!r} must be a finite number, "
                                       f"got {json.dumps(float(literal))}\n")
    assert not out.exists()


@pytest.mark.parametrize("given_by", ["flag", "config"])
def test_an_int_past_the_float_range_is_not_a_finite_number(given_by, tmp_path, capsys):
    """A float key takes an int, but not one that no float can hold."""
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), str(cost))
    cfg = tmp_path / "cfg.json"
    huge = 10**400
    cfg.write_text(json.dumps({"lambda": huge} if given_by == "config" else {}))
    flags = ["--lambda", str(huge)] if given_by == "flag" else []
    out = tmp_path / "o"
    assert run(["solve-ot", "--config", str(cfg), "--cost", str(cost), *flags,
                "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == f"error: config key 'lambda' must be a finite number, got {huge}\n")
    assert not out.exists()


def test_config_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": 1}\xff')
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "cfg.json: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


DEEP_JSON = "[" * 100_000  # nested deeper than the JSON decoder recurses
TOO_DEEP = "maximum recursion depth exceeded"


def test_config_nested_too_deep_is_a_config_error(tmp_path, capsys):
    cfg, out = tmp_path / "deep.json", tmp_path / "o"
    cfg.write_text(DEEP_JSON)
    assert run(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {TOO_DEEP}")
    assert not out.exists()


def seeded_argv(command, workspace):
    """The arguments of a small run of each command that takes a seed."""
    data, ckpt = str(workspace["data"]), str(workspace["ckpt"])
    return {"gen-data": [],
            "train": ["--data", data, "--epochs", "1"],
            "eval": ["--data", data, "--checkpoint", ckpt, "--n-synth-per-class", "2"],
            "compare-solvers": ["--size", "2", "--instances", "1", "--iters", "2"],
            "export": ["--data", data, "--checkpoint", ckpt, "--per-class", "1"]}[command]


SEEDED_COMMANDS = sorted(c for c, keys in CONFIG_KEYS.items() if "seed" in keys)


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("given_by", ["flag", "config"])
@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_seed_outside_64_bits_is_rejected_before_writing(command, given_by, seed, workspace,
                                                         tmp_path, capsys):
    """SeededRng keeps a seed modulo 2^64: -1 would run seed 2^64 - 1's stream
    and 2^64 seed 0's, each under its own number in config.json."""
    if given_by == "flag":
        extra = ["--seed", str(seed)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        extra = ["--config", str(cfg)]
    out = tmp_path / "out"
    assert run([command, *seeded_argv(command, workspace), *extra, "--out", str(out)]) == 2
    assert (f"config key 'seed' must be at least 0 and at most {2**64 - 1}, got {seed}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_largest_seed_is_accepted(command, workspace, tmp_path):
    out = tmp_path / "out"
    argv = [command, *seeded_argv(command, workspace), "--seed", str(2**64 - 1)]
    assert run([*argv, "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["seed"] == 2**64 - 1


@pytest.mark.parametrize("command, given, message", [
    ("train", {"ipot_reg": 0}, "config key 'ipot_reg' must be greater than 0, got 0"),
    ("eval", {"classifier_epochs": 0}, "config key 'classifier_epochs' must be at least 1, got 0"),
    ("gen-data", {"seen_classes": 1}, "config key 'seen_classes' must be at least 2, got 1"),
    ("compare-solvers", ["--size", "1"], "config key 'size' must be at least 2, got 1"),
    ("export", ["--per-class", "0"], "config key 'per_class' must be at least 1, got 0"),
], ids=["train-nested", "eval-nested", "gen-data", "compare-solvers", "export"])
def test_a_bound_error_names_the_key_the_user_set(command, given, message, workspace, tmp_path,
                                                  capsys):
    """A value past its key's bound, from the config file or a flag, exits 2
    naming the key as the user spelled it, nested ones too, before writing."""
    extra = given
    if isinstance(given, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(given))
        extra = ["--config", str(cfg)]
    out = tmp_path / "out"
    assert run([command, *seeded_argv(command, workspace), *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_an_out_that_cannot_be_made_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    assert run(["gen-data", "--out", str(blocker)]) == 2
    assert (capsys.readouterr().err
            == f"error: cannot write output directory {blocker}: {os.strerror(errno.EEXIST)}\n")
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    assert run(["solve-ot", "--cost", str(cost), "--out", str(blocker / "x")]) == 2
    assert (capsys.readouterr().err == f"error: cannot write output directory {blocker / 'x'}: "
            f"{os.strerror(errno.ENOTDIR)}\n")
    assert blocker.read_text() == "keep"


# The files a successful run of each command writes into --out (README).
OUTPUT_FILES = {
    "gen-data": {"attributes.csv", "features.csv", "split.json"},
    "train": {"checkpoint.bin", "trace.csv"},
    "eval": {"report.json"},
    "solve-ot": {"plan.csv", "solver_trace.csv"},
    "compare-solvers": {"curves.csv"},
    "export": {"generated_features.csv"},
}


@pytest.mark.parametrize("command", sorted(OUTPUT_FILES))
def test_a_run_leaves_its_files_and_no_stage(command, workspace, tmp_path):
    """Exactly the command's files and config.json: a stage left behind
    would be one more entry."""
    out = tmp_path / "out"
    assert run([*short_run(command, workspace, tmp_path), "--out", str(out)]) == 0
    assert set(os.listdir(out)) == OUTPUT_FILES[command] | {"config.json"}


def refuse(*_, **__):
    raise AssertionError("the command did work before its output directory was made")


@pytest.mark.parametrize("command", sorted(OUTPUT_FILES))
def test_an_out_through_a_file_is_a_usage_error_before_any_work(command, workspace, tmp_path,
                                                                monkeypatch, capsys):
    argv = short_run(command, workspace, tmp_path)
    for module, name in [(cli.dataio, "make_synthetic_dataset"), (cli.dataio, "load_dataset"),
                         (cli.dataio, "load_matrix_csv"), (cli.ckpt, "load_checkpoint"),
                         (cli.ot, "ipot_solve"), (cli, "train")]:
        monkeypatch.setattr(module, name, refuse)
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    assert run([*argv, "--out", str(blocker / "x")]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write output directory {blocker / 'x'}: "
                                       f"{os.strerror(errno.ENOTDIR)}\n")
    assert blocker.read_text() == "keep"


def snapshot(path) -> dict:
    """Every file under `path` with its bytes, and every directory with
    None, keyed by relative path (hidden ones, such as a stage, included)."""
    return {p.relative_to(path).as_posix(): p.read_bytes() if p.is_file() else None
            for p in Path(path).rglob("*")}


def test_a_failed_rerun_leaves_the_old_run_as_it_was(workspace, tmp_path, capsys):
    """A rerun of train into the directory of an earlier run that blows up
    (exit 1) keeps that run's config.json, checkpoint.bin and trace.csv."""
    out = tmp_path / "run"
    shutil.copytree(workspace["run"], out)
    before = snapshot(out)
    assert set(before) == {"config.json", "checkpoint.bin", "trace.csv"}
    blow_up = tmp_path / "lr.json"
    blow_up.write_text(json.dumps({"learning_rate": 1e300}))
    assert run(["train", "--config", str(blow_up), "--data", str(workspace["data"]),
                "--out", str(out)]) == 1
    assert "iteration 1" in capsys.readouterr().err
    assert snapshot(out) == before


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
@pytest.mark.parametrize("writer", ["write_trace_csv", "write_json"])
@pytest.mark.parametrize("fresh", [True, False], ids=["fresh-out", "existing-out"])
def test_a_writer_that_raises_leaves_out_as_it_was(error, writer, fresh, workspace, tmp_path,
                                                   monkeypatch):
    """train writes checkpoint.bin, then trace.csv, then main writes
    config.json; a writer that raises at either of the last two leaves no
    file, no stage, and no --out that was not there before."""
    out = tmp_path / "runs" / "run"
    if not fresh:
        out.mkdir(parents=True)
        (out / "trace.csv").write_text("an older trace\n")
        (out / "notes.txt").write_text("kept\n")
    before = snapshot(tmp_path)

    def broken(*args, **kwargs):
        raise error(f"{writer} failed")

    module = cli if writer == "write_trace_csv" else cli.dataio
    monkeypatch.setattr(module, writer, broken)
    argv = ["train", "--data", str(workspace["data"]), "--epochs", "1", "--out", str(out)]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            run(argv)
    else:
        assert run(argv) == 1
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("clash", ["solver_trace.csv", "config.json"])
def test_a_directory_in_the_way_of_an_output_moves_no_file(clash, tmp_path, capsys):
    """os.replace cannot put a file over a directory: a directory in --out
    named like any output file is a usage error before the first file
    moves, so --out keeps no plan.csv without its config.json."""
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), str(cost))
    out = tmp_path / "out"
    (out / clash).mkdir(parents=True)
    (out / clash / "kept.txt").write_text("kept\n")
    before = snapshot(out)
    assert run(["solve-ot", "--cost", str(cost), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write output directory {out}: "
                                       f"{out / clash} is a directory\n")
    assert snapshot(out) == before


@pytest.mark.parametrize("command", sorted(OUTPUT_FILES))
def test_a_run_that_fails_to_publish_prints_no_result(command, workspace, tmp_path, capsys):
    """A command's result lines, `wrote ...` among them, are printed only
    once its files are in --out, so a publish that fails prints none."""
    out = tmp_path / "out"
    (out / "config.json").mkdir(parents=True)
    assert run([*short_run(command, workspace, tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write output directory {out}: "
                                       f"{out / 'config.json'} is a directory\n")


def test_a_link_to_a_directory_is_replaced_like_a_file(tmp_path):
    """A symlink named like an output is replaced, the directory it points
    to untouched, as os.replace replaces the link itself."""
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    elsewhere.mkdir()
    out.mkdir()
    (out / "plan.csv").symlink_to(elsewhere, target_is_directory=True)
    assert run(["solve-ot", "--cost", str(cost), "--out", str(out)]) == 0
    assert (out / "plan.csv").is_file() and not (out / "plan.csv").is_symlink()
    assert list(elsewhere.iterdir()) == []


# The required inputs of each command, and what the error calls them.
REQUIRED_KEYS = [("train", "data", "dataset directory"),
                 ("eval", "data", "dataset directory"), ("eval", "checkpoint", "checkpoint path"),
                 ("export", "data", "dataset directory"),
                 ("export", "checkpoint", "checkpoint path"),
                 ("solve-ot", "cost", "cost matrix CSV")]


@pytest.mark.parametrize("given", ["missing", "null", "empty"])
@pytest.mark.parametrize("command, key, what", REQUIRED_KEYS,
                         ids=[f"{command}-{key}" for command, key, _ in REQUIRED_KEYS])
def test_a_missing_required_key_is_a_usage_error_before_staging(command, key, what, given,
                                                                  workspace, tmp_path,
                                                                  monkeypatch, capsys):
    """A required key that is missing, null in --config or an empty flag is
    the one-line exit-2 error of resolve_config, before main stages the
    command (and so before --out exists or any input is read)."""
    def refuse_to_stage(*_):
        raise AssertionError("main staged a command that lacks a required key")

    monkeypatch.setattr(cli, "staged", refuse_to_stage)
    argv = short_run(command, workspace, tmp_path)
    at = argv.index(f"--{key}")
    del argv[at:at + 2]
    if given == "null":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        argv += ["--config", str(cfg)]
    elif given == "empty":
        argv += [f"--{key}", ""]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {what} is required (config key {key!r} or the matching flag)\n")
    assert not out.exists()


# --- gen-data ---

def test_gen_data_writes_dataset_files(workspace, capsys):
    for name in ("attributes.csv", "features.csv", "split.json", "config.json"):
        assert (workspace["data"] / name).is_file()


def test_gen_data_idempotent(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(TINY_GEN))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gen-data", "--config", str(cfg), "--out", str(a)]) == 0
    assert run(["gen-data", "--config", str(cfg), "--out", str(b)]) == 0
    for name in ("attributes.csv", "features.csv", "split.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_data_invalid_spec(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"unseen_classes": 0}))
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_data_huge_noise_is_a_data_error_without_a_warning(tmp_path, capsys):
    """Samples that overflow are rejected as data, and no numpy warning
    escapes (the test suite turns warnings into errors)."""
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"noise_sigma": 1e308}))
    out = tmp_path / "o"
    assert run(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seen_train features contain a non-finite value\n"
    assert not out.exists()


@pytest.mark.parametrize("make", [
    lambda: SyntheticSpec(noise_sigma=-0.1), lambda: SyntheticSpec(noise_sigma=math.nan),
    lambda: SyntheticSpec(noise_sigma=math.inf), lambda: TrainConfig(ipot_reg=0.0),
    lambda: TrainConfig(batch_size=1), lambda: ClassifierConfig(epochs=0),
    lambda: EvalConfig(n_synth_per_class=0),
], ids=["dataset", "dataset-nan-noise", "dataset-inf-noise", "ipot", "train", "classifier",
        "eval"])
def test_every_config_dataclass_rejects_a_bad_value_with_config_error(make):
    """from_flat passes these errors on as they are, so each must be a
    ConfigError, and a library caller can still catch ValueError."""
    with pytest.raises(ConfigError) as info:
        make()
    assert isinstance(info.value, ValueError)


CONFIG_CLASSES = (SyntheticSpec, TrainConfig, ClassifierConfig, EvalConfig)


def wrong_type_rows():
    """A row for each field of each config dataclass (read from its fields, so
    a field added later has rows too) and each value of a wrong type for it:
    True, nan, inf, a string and, for an int field, a fraction; rows for
    the solver parameters that are not config fields; and a longdouble, a
    numpy scalar with no Python number to keep."""
    for cls in CONFIG_CLASSES:
        for field in dataclasses.fields(cls):
            bad = {"true": True, "nan": math.nan, "inf": math.inf, "string": "x"}
            if field.type.startswith("int"):  # "int" or "int | None"
                bad["fraction"] = 2.5
            for label, value in bad.items():
                yield pytest.param(functools.partial(cls, **{field.name: value}),
                                   id=f"{cls.__name__}.{field.name}-{label}")
    cost = np.ones((3, 3))
    yield pytest.param(lambda: ot.sinkhorn_solve(cost, iterations=2.5), id="sinkhorn-iterations")
    yield pytest.param(lambda: ot.sinkhorn_solve(cost, reg=True), id="sinkhorn-reg-true")
    yield pytest.param(lambda: ot.ipot_solve(cost, iterations=2.5), id="ipot-budget")
    yield pytest.param(lambda: TrainConfig(reg_weight=np.longdouble(1.5)), id="longdouble")


@pytest.mark.parametrize("make", wrong_type_rows())
def test_a_library_value_of_the_wrong_type_is_a_config_error(make, monkeypatch):
    """The library checks a value's type by the rule that the CLI reads a
    config key by: an int is never a bool or a fraction, a float is finite,
    a string is no number and a number no string or nested config. A bad
    solver budget raises before any sweep runs, not from range()."""
    def no_sweep(*args):
        raise AssertionError("a sweep ran")
    monkeypatch.setattr(ot, "_sweep", no_sweep)
    with pytest.raises(ConfigError):
        make()


NUMPY_SCALARS = {"int": np.int32, "int | None": np.int64, "float": np.float32, "str": np.str_}


@pytest.mark.parametrize("cls", CONFIG_CLASSES)
def test_a_config_field_takes_a_numpy_scalar(cls):
    """Each field but a nested config takes a numpy scalar of a valid value,
    its default or 1 for a default of None, and keeps its Python number."""
    for field in dataclasses.fields(cls):
        if field.type in NUMPY_SCALARS:
            default = getattr(cls(), field.name)
            value = NUMPY_SCALARS[field.type](1 if default is None else default)
            got = getattr(cls(**{field.name: value}), field.name)
            assert got == value and type(got) is type(value.item())
    assert {f.type for f in dataclasses.fields(cls)} - set(NUMPY_SCALARS) <= {"ClassifierConfig"}


TINY = 5e-324  # the smallest positive float
SEEDS = ([0, MAX_SEED], [-1, MAX_SEED + 1])
# Each field of each config dataclass but a nested config: the values at its
# bound, which construct, and the nearest values past it, which do not. A
# float field also rejects NaN and both infinities (added below).
BOUND_TABLE = {
    (SyntheticSpec, "seen_classes"): ([2], [1]),
    (SyntheticSpec, "unseen_classes"): ([1], [0]),
    (SyntheticSpec, "attr_dim"): ([1], [0]),
    (SyntheticSpec, "feature_dim"): ([1], [0]),
    (SyntheticSpec, "samples_per_class"): ([4], [3]),
    (SyntheticSpec, "noise_sigma"): ([0.0], [-TINY]),
    (SyntheticSpec, "seed"): SEEDS,
    (TrainConfig, "ot_prob"): ([0.0, 1.0], [-TINY, math.nextafter(1.0, 2.0)]),
    (TrainConfig, "reg_weight"): ([0.0], [-TINY]),
    (TrainConfig, "nca_scale"): ([TINY], [0.0]),
    (TrainConfig, "ipot_reg"): ([TINY], [0.0]),
    (TrainConfig, "ipot_max_outer_iters"): ([1], [0]),
    (TrainConfig, "batch_size"): ([2], [1]),
    (TrainConfig, "learning_rate"): ([0.0], [-TINY]),
    (TrainConfig, "epochs"): ([1], [0]),
    (TrainConfig, "seed"): SEEDS,
    (TrainConfig, "mode"): (["standard", "transductive"], ["generalized"]),
    (TrainConfig, "hidden_dim"): ([1], [0]),
    (ClassifierConfig, "learning_rate"): ([TINY], [0.0]),
    (ClassifierConfig, "epochs"): ([1], [0]),
    (ClassifierConfig, "batch_size"): ([1], [0]),
    (EvalConfig, "n_synth_per_class"): ([1], [0]),
    (EvalConfig, "seed"): SEEDS,
}


def bound_rows(accepted: bool):
    """BOUND_TABLE's accepted values, or its rejected ones, as test params."""
    for (cls, name), (good, bad) in BOUND_TABLE.items():
        if not accepted and isinstance(good[0], float):
            bad = [*bad, math.nan, math.inf, -math.inf]
        for value in good if accepted else bad:
            yield pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")


def test_bound_table_has_a_row_for_every_config_field():
    assert set(BOUND_TABLE) == {(cls, f.name) for cls in CONFIG_CLASSES
                                for f in dataclasses.fields(cls)
                                if f.type != "ClassifierConfig"}


@pytest.mark.parametrize("cls, name, value", bound_rows(accepted=True))
def test_a_value_at_its_bound_constructs(cls, name, value):
    assert getattr(cls(**{name: value}), name) == value


@pytest.mark.parametrize("cls, name, value", bound_rows(accepted=False))
def test_a_value_past_its_bound_is_a_config_error(cls, name, value):
    with pytest.raises(ConfigError):
        cls(**{name: value})


# --- train ---

def test_train_requires_data(tmp_path, capsys):
    assert run(["train", "--out", str(tmp_path)]) == 2
    assert "dataset directory is required" in capsys.readouterr().err


def test_train_outputs(workspace):
    assert workspace["ckpt"].is_file()
    trace = (workspace["run"] / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,branch,transport_cost,reg_loss,total_loss"
    # 3 seen classes x 5 train rows each, batch 4 -> 4 iterations x 2 epochs
    assert len(trace) == 1 + 2 * math.ceil(15 / 4)
    assert all(line.split(",")[1] in ("ot", "transition") for line in trace[1:])


def test_train_flag_overrides_config(workspace, tmp_path):
    out = tmp_path / "one_epoch"
    assert run(["train", "--config", str(workspace["train_cfg"]),
                "--data", str(workspace["data"]), "--epochs", "1",
                "--out", str(out)]) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + math.ceil(15 / 4)


def test_train_transductive_mode(workspace, tmp_path, capsys):
    out = tmp_path / "trans"
    assert run(["train", "--config", str(workspace["train_cfg"]),
                "--data", str(workspace["data"]), "--mode", "transductive",
                "--epochs", "1", "--out", str(out)]) == 0
    assert "mode transductive" in capsys.readouterr().out


def test_train_defaults_are_the_library_defaults(workspace, tmp_path):
    out = tmp_path / "defaults"
    assert run(["train", "--data", str(workspace["data"]), "--out", str(out)]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed == {"data": str(workspace["data"]), **vars(TrainConfig())}


def test_train_rejects_generalized_mode(workspace, tmp_path, capsys):
    """generalized is an evaluation protocol; training has no such mode."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "generalized"}))
    for name, given in (("flag", ["--mode", "generalized"]), ("config", ["--config", str(cfg)])):
        assert run(["train", *given, "--data", str(workspace["data"]),
                    "--out", str(tmp_path / name)]) == 2
        assert capsys.readouterr().err == ("error: config key 'mode' must be one of "
                                           "('standard', 'transductive'), got 'generalized'\n")
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("key, mode, message", [
    ("seen_train_rows", "standard", "training requires labeled seen samples"),
    ("unseen_unlabeled_rows", "transductive",
     "transductive mode requires a non-empty unlabeled pool"),
], ids=["no-seen-train-rows", "no-unlabeled-pool"])
def test_train_rejects_an_empty_split(key, mode, message, workspace, tmp_path, capsys):
    data = edited_dataset(workspace, tmp_path, **{key: []})
    out = tmp_path / "o"
    assert run(["train", "--config", str(workspace["train_cfg"]), "--data", str(data),
                "--mode", mode, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_rejects_a_dataset_without_unseen_classes(workspace, tmp_path, capsys):
    # every step generates an unseen half, so no unseen class is an input error
    split = json.loads((workspace["data"] / "split.json").read_text())
    data = edited_dataset(workspace, tmp_path, seen=split["seen"] + split["unseen"], unseen=[],
                          unseen_test_rows=[], unseen_unlabeled_rows=[])
    out = tmp_path / "o"
    assert run(["train", "--config", str(workspace["train_cfg"]), "--data", str(data),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: training requires at least one unseen class\n"
    assert not out.exists()


def test_a_class_listed_twice_in_split_json_is_a_data_error(workspace, tmp_path, capsys):
    """train, eval and export all stop before writing anything."""
    split = json.loads((workspace["data"] / "split.json").read_text())
    data = edited_dataset(workspace, tmp_path, unseen=split["unseen"] + split["unseen"][:1])
    ckpt = ["--checkpoint", str(workspace["ckpt"])]
    for command, extra in (("train", []), ("eval", ckpt), ("export", ckpt)):
        out = tmp_path / command
        assert run([command, "--data", str(data), *extra, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: classes [{split['unseen'][0]}] "
                                           "are listed more than once\n")
        assert not out.exists()


def test_split_json_nested_too_deep_is_a_data_error(workspace, tmp_path, capsys):
    """Named before train echoes its config, so nothing is written."""
    data, out = tmp_path / "data", tmp_path / "o"
    shutil.copytree(workspace["data"], data)
    (data / "split.json").write_text(DEEP_JSON)
    assert run(["train", "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {data / 'split.json'}: {TOO_DEEP}")
    assert not out.exists()


def test_train_missing_dataset_dir(tmp_path, capsys):
    assert run(["train", "--data", str(tmp_path / "nowhere"),
                "--out", str(tmp_path / "o")]) == 2


# --- eval ---

def test_eval_standard_report(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    assert run(["eval", "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]),
                "--mode", "standard", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "standard"
    assert 0.0 <= report["A_u"] <= 1.0
    assert "A_s" not in report and "H" not in report
    assert "A_u" in capsys.readouterr().out


def test_eval_generalized_report(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    assert run(["eval", "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]),
                "--mode", "generalized", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert {"A_s", "A_u", "H"} <= set(report)
    stdout = capsys.readouterr().out
    assert "A_s" in stdout and "H" in stdout


def test_eval_deterministic(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["eval", "--data", str(workspace["data"]),
            "--checkpoint", str(workspace["ckpt"]), "--seed", "3"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_eval_requires_checkpoint(workspace, tmp_path, capsys):
    assert run(["eval", "--data", str(workspace["data"]),
                "--out", str(tmp_path)]) == 2
    assert "checkpoint path is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize("changed, dataset_pair", [
    ({"attr_dim": 7}, "(7, 8)"),
    ({"feature_dim": 9}, "(6, 9)"),
], ids=["attributes", "features"])
def test_checkpoint_and_dataset_dimensions_must_agree(command, changed, dataset_pair,
                                                      workspace, tmp_path, capsys):
    """The workspace checkpoint has 6 attributes and 8-D features."""
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({**TINY_GEN, **changed}))
    data = tmp_path / "data"
    assert run(["gen-data", "--config", str(gen_cfg), "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, "--data", str(data), "--checkpoint", str(workspace["ckpt"]),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.bin holds a generator for (attributes, features) = (6, 8)" in err
    assert f"but dataset {data} has {dataset_pair}" in err
    assert not out.exists()


def test_eval_classifier_blow_up_is_a_solver_error(workspace, tmp_path, capsys):
    """A classifier step that overflows raises, naming its epoch and batch,
    and no numpy warning escapes (the test suite turns warnings into errors)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"classifier_learning_rate": 1.7e308}))
    assert run(["eval", "--config", str(cfg), "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: classifier epoch \d+ batch \d+: parameter array \d "
                    r"contains a non-finite value", err), err


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """The default dataset and a one-epoch training run on it."""
    root = tmp_path_factory.mktemp("desk")
    assert run(["gen-data", "--out", str(root / "data")]) == 0
    assert run(["train", "--data", str(root / "data"), "--epochs", "1",
                "--out", str(root / "run")]) == 0
    return root


@pytest.mark.parametrize("mode", ["standard", "generalized"])
def test_eval_non_finite_test_scores_are_a_solver_error(mode, desk_run, tmp_path, capsys):
    """A finite test row near the float64 maximum overflows the classifier's
    scores: exit 1 naming the split and its row, nothing written, and no
    numpy warning (the test suite turns warnings into errors)."""
    data = tmp_path / "data"
    shutil.copytree(desk_run / "data", data)
    lines = (data / "features.csv").read_text().splitlines()
    row = json.loads((data / "split.json").read_text())["unseen_test_rows"][3]
    label, *values = lines[1 + row].split(",")
    lines[1 + row] = ",".join([label] + ["1.5e308"] * len(values))
    (data / "features.csv").write_text("\n".join(lines) + "\n")
    out, ckpt = tmp_path / "o", desk_run / "run" / "checkpoint.bin"
    assert run(["eval", "--data", str(data), "--checkpoint", str(ckpt), "--mode", mode,
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: unseen_test: the classifier's scores of row 3 are not finite\n")
    assert not out.exists()


def test_eval_rejects_nonfinite_generator_weight(workspace, tmp_path, capsys):
    bad = tmp_path / "c.bin"
    raw = bytearray(workspace["ckpt"].read_bytes())
    raw[24:32] = struct.pack("<d", math.inf)  # the generator's W1[0, 0]
    bad.write_bytes(bytes(raw))
    assert run(["eval", "--data", str(workspace["data"]), "--checkpoint", str(bad),
                "--out", str(tmp_path / "o")]) == 2
    assert f"error: {bad}: generator W1 contains a non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize("offset, value, message", [
    (8, 1, "unsupported checkpoint version 1"),
    (20, 0, "checkpoint dims (attributes, features, hidden) = (6, 8, 0) must each be at least 1"),
], ids=["version-1", "hidden-0"])
def test_bad_checkpoint_header_is_a_data_error(command, offset, value, message, workspace,
                                               tmp_path, capsys):
    """A version 1 file, the layout train wrote before version 2, is not read."""
    bad = tmp_path / "c.bin"
    raw = bytearray(workspace["ckpt"].read_bytes())
    raw[offset:offset + 4] = struct.pack("<I", value)
    bad.write_bytes(bytes(raw))
    out = tmp_path / "o"
    assert run([command, "--data", str(workspace["data"]), "--checkpoint", str(bad),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


def test_eval_has_no_include_real_seen_key(workspace, tmp_path, capsys):
    """The classifier learns from generated features only; the key that once
    put the real seen rows in front of them is unknown."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"include_real_seen": False}))
    out = tmp_path / "o"
    assert run(["eval", "--config", str(cfg), "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown keys ['include_real_seen']\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [None, 3])
def test_an_old_eval_config_with_top_k_is_an_unknown_key(value, workspace, tmp_path, capsys):
    """Evaluation scores top-1 only; an eval config written while top_k was a
    key, null or not, is rejected before anything is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "standard", "top_k": value}))
    out = tmp_path / "o"
    assert run(["eval", "--config", str(cfg), "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown keys ['top_k']\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [None, 1e-7])
def test_an_old_train_config_with_ipot_stop_tol_is_an_unknown_key(value, workspace, tmp_path,
                                                                  capsys):
    """Every training solve runs its whole IPOT budget; a train config written
    while ipot_stop_tol was a key is rejected before anything is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "ipot_stop_tol": value}))
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--data", str(workspace["data"]),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown keys ['ipot_stop_tol']\n"
    assert not out.exists()


def test_eval_has_no_top_k_flag(workspace, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--data", str(workspace["data"]), "--checkpoint", str(workspace["ckpt"]),
             "--top-k", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --top-k 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, mode, message", [
    ("unseen_test_rows", "standard", "unseen test split is empty; nothing to evaluate"),
    ("unseen_test_rows", "generalized", "unseen test split is empty; nothing to evaluate"),
    ("seen_test_rows", "generalized", "seen test split is empty; generalized mode needs it"),
], ids=["no-unseen-test-rows", "no-unseen-test-rows-generalized", "no-seen-test-rows"])
def test_eval_rejects_an_empty_test_split_before_writing(key, mode, message, workspace,
                                                         tmp_path, capsys):
    data = edited_dataset(workspace, tmp_path, **{key: []})
    out = tmp_path / "o"
    assert run(["eval", "--data", str(data), "--checkpoint", str(workspace["ckpt"]),
                "--mode", mode, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_eval_rejects_unknown_mode_before_writing(workspace, tmp_path, capsys):
    """A mode that no protocol knows is rejected before any split is read:
    a dataset defect in a split stays unreported."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "bogus"}))
    data = edited_dataset(workspace, tmp_path)
    lines = (data / "features.csv").read_text().splitlines()
    row = json.loads((data / "split.json").read_text())["seen_train_rows"][0]
    lines[1 + row] = "0," + ",".join(["0"] * TINY_GEN["feature_dim"])
    (data / "features.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert run(["eval", "--config", str(cfg), "--data", str(data),
                "--checkpoint", str(workspace["ckpt"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: config key 'mode' must be one of "
                                       "('standard', 'generalized', 'transductive'), got 'bogus'\n")
    assert not out.exists()


def test_train_and_eval_reject_a_test_row_that_is_a_training_row(workspace, tmp_path, capsys):
    """seen_test_rows that repeat seen_train_rows would let generalized eval
    score rows the generator trained on: exit 2 before config.json."""
    split = json.loads((workspace["data"] / "split.json").read_text())
    data = edited_dataset(workspace, tmp_path,
                          seen_test_rows=split["seen_test_rows"] + split["seen_train_rows"][:50])
    message = f"error: seen_train_rows and seen_test_rows share row {min(split['seen_train_rows'])}\n"
    for command, extra in (("train", []),
                           ("eval", ["--checkpoint", str(workspace["ckpt"]), "--mode", "generalized"])):
        out = tmp_path / command
        assert run([command, "--data", str(data), *extra, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


# --- solve-ot ---

def test_solve_ot_single_cell(tmp_path, capsys):
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.7]]), str(cost))
    out = tmp_path / "o"
    assert run(["solve-ot", "--cost", str(cost), "--out", str(out)]) == 0
    plan = load_matrix_csv(str(out / "plan.csv"))
    assert plan.tolist() == [[1.0]]
    assert "converged True" in capsys.readouterr().out


def test_solve_ot_sinkhorn_closed_form(tmp_path, capsys):
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), str(cost))
    out = tmp_path / "o"
    assert run(["solve-ot", "--cost", str(cost), "--solver", "sinkhorn",
                "--lambda", "0.1", "--iters", "200", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    printed = float(stdout.split("cost ")[1].split()[0])
    off = 0.5 / (1.0 + math.exp(10.0))
    assert abs(printed - 2.0 * off) < 1e-12
    plan = load_matrix_csv(str(out / "plan.csv"))
    np.testing.assert_allclose(np.diag(plan), 0.5 / (1.0 + math.exp(-10.0)),
                               rtol=0, atol=1e-12)
    assert (out / "solver_trace.csv").is_file()


def test_solve_ot_sinkhorn_rejects_stop_tol(tmp_path, capsys):
    """Sinkhorn has no stop rule, so a stop tolerance for it is a config error."""
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), str(cost))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": "sinkhorn", "stop_tol": 0.1}))
    out = tmp_path / "o"
    assert run(["solve-ot", "--config", str(cfg), "--cost", str(cost), "--out", str(out)]) == 2
    assert "error: stop_tol applies only to the ipot solver" in capsys.readouterr().err
    assert not out.exists()


def test_solve_ot_ipot_finds_permutation(tmp_path, capsys):
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), str(cost))
    out = tmp_path / "o"
    assert run(["solve-ot", "--cost", str(cost), "--solver", "ipot",
                "--out", str(out)]) == 0
    printed = float(capsys.readouterr().out.split("cost ")[1].split()[0])
    assert printed <= 1e-8


@pytest.mark.parametrize("solver, flags, stop_tol, used", [
    ("ipot", ["--lambda", "0.3", "--iters", "40"], 1e-6, 25),
    ("sinkhorn", ["--lambda", "0.3", "--iters", "40"], None, 40),
    ("ipot", [], None, 63),
    ("sinkhorn", [], None, 200),
], ids=["ipot-keys", "sinkhorn-keys", "ipot-defaults", "sinkhorn-defaults"])
def test_solve_ot_passes_its_keys_to_the_solver_it_names(tmp_path, solver, flags, stop_tol, used):
    """plan.csv and solver_trace.csv are the named solver's results with
    --lambda as reg, --iters as iterations and the stop_tol key; a key not
    given keeps the solver's default. On this cost IPOT's stop rule fires
    after 25 sweeps at stop_tol 1e-6 and 63 at its default, so each key
    shows in the sweeps `used`."""
    cost = random_cost(SeededRng(4), 4, 4)
    path = tmp_path / "cost.csv"
    save_matrix_csv(cost, str(path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": solver, "stop_tol": stop_tol}))
    out = tmp_path / "o"
    assert run(["solve-ot", "--config", str(cfg), "--cost", str(path), *flags,
                "--out", str(out)]) == 0
    solve = {"ipot": ot.ipot_solve, "sinkhorn": ot.sinkhorn_solve}[solver]
    keywords = {"reg": 0.3, "iterations": 40} if flags else {}
    keywords.update({"stop_tol": stop_tol} if stop_tol is not None else {})
    plan = solve(cost, record_trace=True, **keywords)
    assert plan.iterations_used == used
    for name, want in (("plan.csv", plan.values), ("solver_trace.csv", plan.trace)):
        save_matrix_csv(want, str(tmp_path / name))
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_solve_ot_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "cost.csv"
    bad.write_text("being,wrong\n1,2\n")
    assert run(["solve-ot", "--cost", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert ":1" in capsys.readouterr().err


def test_solve_ot_rejects_nonfinite_cost_before_writing(tmp_path, capsys):
    cost = tmp_path / "cost.csv"
    cost.write_text("rows,cols\n2,2\n0,nan\n1,0\n")
    out = tmp_path / "o"
    assert run(["solve-ot", "--cost", str(cost), "--out", str(out)]) == 2
    assert "cost.csv:3: column 2 is not a finite number" in capsys.readouterr().err
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("content, message", [
    (b"rows,cols\n0,-1\n", "cost.csv:2: dimensions must be at least 1"),
    (b"rows,cols\n0,3\n", "cost.csv:2: dimensions must be at least 1"),
    (b"rows,cols\n1,2\n1,\xff\n", "cost.csv: 'utf-8' codec can't decode byte 0xff"),
])
def test_solve_ot_rejects_bad_cost_file_before_writing(tmp_path, capsys, content, message):
    cost = tmp_path / "cost.csv"
    cost.write_bytes(content)
    out = tmp_path / "o"
    assert run(["solve-ot", "--cost", str(cost), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "config.json").exists()


def test_solve_ot_has_no_seed_flag(tmp_path):
    """solve-ot draws no random numbers, so --seed is a usage error."""
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    with pytest.raises(SystemExit) as exc:
        run(["solve-ot", "--cost", str(cost), "--seed", "99", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("solver", ["ipot", "sinkhorn"])
@pytest.mark.parametrize("flag,value", [("--lambda", "-0.5"), ("--iters", "0"),
                                        ("--lambda", "0"), ("--lambda", "-1")])
def test_solve_ot_rejects_bad_parameters(tmp_path, capsys, solver, flag, value):
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    out = tmp_path / "o"
    assert run(["solve-ot", "--cost", str(cost), "--solver", solver, flag, value,
                "--out", str(out)]) == 2
    message = (f"config key 'lambda' must be greater than 0, got {value}" if flag == "--lambda"
               else f"config key 'iters' must be at least 1, got {value}")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("solver, reg", [("ipot", 0.5), ("sinkhorn", 0.1)])
@pytest.mark.parametrize("cost, lam", [
    ([[0.5, 1.0], [1.0, 0.5]], 1e-310),
    ([[1e308, 1e3], [0.5, 0.2]], None),
], ids=["subnormal-lambda", "huge-cost-cell"])
def test_solve_ot_kernel_underflow_is_a_solver_error_without_warnings(tmp_path, capsys, solver,
                                                                      reg, cost, lam):
    """C/lambda overflows in some entries and every entry of a kernel row
    underflows: exit 1 with the kernel's message, and no RuntimeWarning."""
    path = tmp_path / "cost.csv"
    save_matrix_csv(np.array(cost), str(path))
    out = tmp_path / "o"
    flags = ["--lambda", str(lam)] if lam else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["solve-ot", "--cost", str(path), "--solver", solver, *flags,
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: kernel exp(-C/reg) at reg {lam or reg} underflowed to an all-zero row or "
        "column; increase the regularization weight\n")
    assert not (out / "config.json").exists()


def test_solve_ot_rejects_bad_solver(tmp_path, capsys):
    """An unknown solver is rejected before the cost file is read."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": "simplex"}))
    assert run(["solve-ot", "--config", str(cfg), "--cost", str(tmp_path / "missing.csv"),
                "--out", str(tmp_path / "o")]) == 2
    assert (capsys.readouterr().err
            == "error: config key 'solver' must be one of ('ipot', 'sinkhorn'), got 'simplex'\n")
    assert not (tmp_path / "o").exists()


# --- compare-solvers ---

def test_compare_solvers_output(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert run(["compare-solvers", "--size", "4", "--instances", "2",
                "--iters", "40", "--seed", "1", "--out", str(out)]) == 0
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[0] == "solver,lambda,instance,iteration,transport_cost,feasibility_error"
    finals = {}
    for line in lines[1:]:
        name, reg, inst, it, tc, feas = line.split(",")
        assert int(it) <= 40
        finals[(name, float(reg), int(inst))] = float(tc)
    for inst in range(2):
        assert ("ipot", 0.5, inst) in finals
        assert finals[("ipot", 0.5, inst)] <= finals[("sinkhorn", 0.5, inst)] + 1e-6
    assert "mean final cost" in capsys.readouterr().out


def test_compare_solvers_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["compare-solvers", "--size", "3", "--instances", "1", "--iters", "20",
            "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()


def reference_curves_csv(size, instances, iters, seed, path):
    """compare-solvers' solves with the per-row f-string writer that
    data.write_csv replaced for curves.csv."""
    rng = SeededRng(seed)
    rows = ["solver,lambda,instance,iteration,transport_cost,feasibility_error"]
    for inst in range(instances):
        feat_rng = rng.split(inst + 1)
        real = feat_rng.gaussian(size * 16).reshape(size, 16)
        synth = feat_rng.gaussian(size * 16).reshape(size, 16)
        cost = ot.cosine_cost_matrix(real, synth)
        runs = [
            ("ipot", 0.5, ot.ipot_solve(cost, reg=0.5, iterations=iters, stop_tol=0.0,
                                        record_trace=True)),
            ("sinkhorn", 0.1, ot.sinkhorn_solve(cost, reg=0.1, iterations=iters,
                                                record_trace=True)),
            ("sinkhorn", 0.5, ot.sinkhorn_solve(cost, reg=0.5, iterations=iters,
                                                record_trace=True)),
        ]
        for name, reg, plan in runs:
            for it, tc, feas in plan.trace:
                rows.append(f"{name},{reg},{inst},{int(it)},{tc:.17g},{feas:.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def test_compare_solvers_matches_reference(tmp_path):
    out = tmp_path / "cmp"
    assert run(["compare-solvers", "--size", "5", "--instances", "3", "--iters", "30",
                "--seed", "2", "--out", str(out)]) == 0
    reference_curves_csv(5, 3, 30, 2, tmp_path / "ref.csv")
    assert (out / "curves.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_compare_solvers_validates_size(tmp_path):
    assert run(["compare-solvers", "--size", "1", "--out", str(tmp_path)]) == 2


# --- export ---

def test_export_generated_features(workspace, tmp_path, capsys):
    out = tmp_path / "exp"
    assert run(["export", "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]),
                "--classes", "unseen", "--per-class", "3", "--out", str(out)]) == 0
    lines = (out / "generated_features.csv").read_text().splitlines()
    assert lines[0].startswith("class_id,x_1")
    assert len(lines) == 1 + 2 * 3  # two unseen classes
    assert "wrote 6 generated features" in capsys.readouterr().out


def overflowing_checkpoint(workspace, tmp_path):
    """The workspace generator with every weight times 1e300: still finite,
    so it loads, but its features overflow."""
    raw = workspace["ckpt"].read_bytes()
    weights = np.frombuffer(raw, "<f8", offset=24) * 1e300
    path = tmp_path / "huge.bin"
    path.write_bytes(raw[:24] + weights.astype("<f8").tobytes())
    return path


@pytest.mark.parametrize("command", ["export", "eval"])
def test_generated_features_that_overflow_are_a_solver_error(command, workspace, tmp_path,
                                                            capsys):
    """No inf row is written and no numpy warning escapes; the error names
    the first class generated."""
    out = tmp_path / "o"
    assert run([command, "--data", str(workspace["data"]), "--checkpoint",
                str(overflowing_checkpoint(workspace, tmp_path)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: the generator's features for class 3 are "
                                       "not finite\n")
    assert not out.exists()


def test_export_reads_only_the_header_of_features_csv(workspace, tmp_path):
    """A broken feature row stops eval, but export never reads it, and writes
    the same bytes as from the intact dataset."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("attributes.csv", "split.json"):
        (data / name).write_bytes((workspace["data"] / name).read_bytes())
    lines = (workspace["data"] / "features.csv").read_text().splitlines(keepends=True)
    (data / "features.csv").write_text(lines[0] + "0,not a row\n" + "".join(lines[2:]))
    argv = ["--checkpoint", str(workspace["ckpt"]), "--out"]
    assert run(["eval", "--data", str(data), *argv, str(tmp_path / "eval")]) == 2
    for name, source in (("a", workspace["data"]), ("b", data)):
        assert run(["export", "--data", str(source), *argv, str(tmp_path / name)]) == 0
    assert ((tmp_path / "a" / "generated_features.csv").read_bytes()
            == (tmp_path / "b" / "generated_features.csv").read_bytes())


def test_export_reports_a_bad_header_byte_at_its_offset_in_the_file(workspace, tmp_path, capsys):
    """A byte that is not UTF-8 past the first 8 KB of a 2048-column header is
    named by its offset in features.csv, as eval names it."""
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / "features.csv"
    header = ("class_id," + ",".join(f"x_{j + 1}" for j in range(2048))).encode()
    raw, at = path.read_bytes(), 13237
    path.write_bytes(header[:at] + b"\xff" + header[at:] + raw[raw.index(b"\n"):])
    message = f"error: {path}: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte\n"
    for command in ("export", "eval"):
        assert run([command, "--data", str(data), "--checkpoint", str(workspace["ckpt"]),
                    "--out", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err == message


def test_export_validates_per_class(workspace, tmp_path, capsys):
    assert run(["export", "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]),
                "--per-class", "0", "--out", str(tmp_path)]) == 2
    assert "per_class" in capsys.readouterr().err


def test_export_bad_classes_via_config(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"classes": "everything"}))
    assert run(["export", "--config", str(cfg), "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]),
                "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("error: config key 'classes' must be one of "
                                       "('unseen', 'seen', 'all'), got 'everything'\n")
    assert not (tmp_path / "o").exists()


def test_export_rejects_an_empty_class_list(workspace, tmp_path, capsys):
    split = json.loads((workspace["data"] / "split.json").read_text())
    data = edited_dataset(workspace, tmp_path, seen=[], unseen=split["seen"] + split["unseen"])
    out = tmp_path / "o"
    assert run(["export", "--data", str(data), "--checkpoint", str(workspace["ckpt"]),
                "--classes", "seen", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: dataset {data} has no seen classes to export\n"
    assert not out.exists()
