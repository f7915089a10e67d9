import argparse
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from otzsl import cli, ot
from otzsl.data import load_matrix_csv, save_matrix_csv
from otzsl.rng import SeededRng
from otzsl.training import TrainConfig

from conftest import reference_write_json

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


# --- config plumbing ---

def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seen_classes": 3, "bogus_knob": 1}))
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "top level" in capsys.readouterr().err


def test_config_bad_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{nope")
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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
              "epochs", "seed", "mode", "hidden_dim", "ipot_reg",
              "ipot_max_outer_iters", "ipot_stop_tol"},
    "eval": {"data", "checkpoint", "mode", "n_synth_per_class", "seed", "top_k",
             "classifier_learning_rate", "classifier_epochs", "classifier_batch_size"},
    "solve-ot": {"cost", "solver", "lambda", "iters", "stop_tol"},
    "compare-solvers": {"size", "instances", "iters", "seed"},
    "export": {"data", "checkpoint", "classes", "per_class", "seed"},
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_keys_pinned(command, workspace, tmp_path):
    """The echoed config holds every key the command accepts, and only those."""
    data, ckpt = str(workspace["data"]), str(workspace["ckpt"])
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    argv = {
        "gen-data": [],
        "train": ["--data", data, "--epochs", "1"],
        "eval": ["--data", data, "--checkpoint", ckpt, "--n-synth-per-class", "2"],
        "solve-ot": ["--cost", str(cost)],
        "compare-solvers": ["--size", "2", "--instances", "1", "--iters", "2"],
        "export": ["--data", data, "--checkpoint", ckpt, "--per-class", "1"],
    }[command]
    out = tmp_path / "out"
    assert run([command, *argv, "--out", str(out)]) == 0
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
                  "--n-synth-per-class", "2", "--top-k", "2", "--seed", "4"],
                 {"data": data, "checkpoint": ckpt, "mode": "generalized",
                  "n_synth_per_class": 2, "top_k": 2, "seed": 4}),
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


@pytest.mark.parametrize("command, bad", [
    ("gen-data", {"seen_classes": 2.5}),
    ("train", {"epochs": "2"}),
    ("eval", {"n_synth_per_class": "100"}),
    ("solve-ot", {"solver": 1}),
    ("compare-solvers", {"size": "4"}),
    ("export", {"per_class": True}),
    ("eval", {"top_k": "3"}),
    ("solve-ot", {"lambda": "0.5"}),
    ("solve-ot", {"iters": 2.5}),
    ("solve-ot", {"stop_tol": True}),
    ("train", {"data": 5}),
    ("eval", {"checkpoint": 1}),
    ("export", {"data": ["d"]}),
    ("solve-ot", {"cost": 0}),
])
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
    (key,) = bad
    assert f"{cfg}: key {key!r} must be of type" in capsys.readouterr().err
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
    config reader rejects each before anything is written."""
    data, ckpt = str(workspace["data"]), str(workspace["ckpt"])
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), str(cost))
    argv = {"train": ["--data", data], "eval": ["--data", data, "--checkpoint", ckpt],
            "solve-ot": ["--cost", str(cost)]}.get(command, [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": {literal}}}')
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), *argv, "--out", str(out)]) == 2
    assert f"{cfg}: {literal} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_config_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": 1}\xff')
    assert run(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "cfg.json: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


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
    tc = TrainConfig()
    want = {k: v for k, v in vars(tc).items() if k != "ipot"}
    want.update({f"ipot_{k}": v for k, v in vars(tc.ipot).items()})
    assert echoed == {"data": str(workspace["data"]), **want}


def test_train_rejects_generalized_mode(workspace, tmp_path, capsys):
    """generalized is an evaluation protocol; training has no such mode."""
    with pytest.raises(SystemExit) as exc:
        run(["train", "--data", str(workspace["data"]), "--mode", "generalized",
             "--out", str(tmp_path / "flag")])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "generalized"}))
    assert run(["train", "--config", str(cfg), "--data", str(workspace["data"]),
                "--out", str(tmp_path / "config")]) == 2
    assert "mode must be one of" in capsys.readouterr().err


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
    assert re.match(r"error: classifier epoch \d+ batch \d+: parameter block \d "
                    r"contains a non-finite value", err), err


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


def test_eval_top_k(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    assert run(["eval", "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]),
                "--top-k", "2", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["top_k"] >= report["A_u"]


@pytest.mark.parametrize("mode, n_classes", [("standard", 2), ("generalized", 5)])
def test_eval_top_k_up_to_the_class_count(mode, n_classes, workspace, tmp_path, capsys):
    """The workspace dataset has 3 seen and 2 unseen classes; generalized
    evaluation ranks all 5."""
    argv = ["eval", "--data", str(workspace["data"]), "--checkpoint", str(workspace["ckpt"]),
            "--mode", mode]
    out = tmp_path / "fits"
    assert run(argv + ["--top-k", str(n_classes), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["top_k"] == 1.0
    out = tmp_path / "too_large"
    assert run(argv + ["--top-k", str(n_classes + 1), "--out", str(out)]) == 2
    assert (f"error: top_k must be at most {n_classes}, the class count of {mode} evaluation, "
            f"got {n_classes + 1}") in capsys.readouterr().err
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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "bogus"}))
    out = tmp_path / "o"
    assert run(["eval", "--config", str(cfg), "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]), "--out", str(out)]) == 2
    assert "unknown evaluation mode 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_eval_unknown_mode_still_reads_every_split(workspace, tmp_path, capsys):
    """A mode from the config file that no protocol knows gets the one-line
    error and exit 2 it always got, after a dataset defect in a split that
    no protocol reads, as before: such a mode loads every split."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "bogus"}))
    argv = ["eval", "--config", str(cfg), "--checkpoint", str(workspace["ckpt"]), "--out"]
    assert run([*argv, str(tmp_path / "o"), "--data", str(workspace["data"])]) == 2
    assert capsys.readouterr().err == "error: unknown evaluation mode 'bogus'\n"
    data = edited_dataset(workspace, tmp_path)
    lines = (data / "features.csv").read_text().splitlines()
    row = json.loads((data / "split.json").read_text())["seen_train_rows"][0]
    lines[1 + row] = "0," + ",".join(["0"] * TINY_GEN["feature_dim"])
    (data / "features.csv").write_text("\n".join(lines) + "\n")
    assert run([*argv, str(tmp_path / "p"), "--data", str(data)]) == 2
    assert capsys.readouterr().err == "error: seen_train row 0 has zero norm\n"
    assert not (tmp_path / "o").exists() and not (tmp_path / "p").exists()


def test_train_and_eval_reject_a_test_row_that_is_a_training_row(workspace, tmp_path, capsys):
    """seen_test_rows that repeat seen_train_rows would let generalized eval
    score rows the generator trained on: exit 2 before config.json."""
    split = json.loads((workspace["data"] / "split.json").read_text())
    data = edited_dataset(workspace, tmp_path,
                          seen_test_rows=split["seen_test_rows"] + split["seen_train_rows"][:50])
    message = (f"error: {data / 'split.json'}: seen_train_rows and seen_test_rows share row "
               f"{min(split['seen_train_rows'])}\n")
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
@pytest.mark.parametrize("flag,value", [("--lambda", "-0.5"), ("--iters", "0")])
def test_solve_ot_rejects_bad_parameters(tmp_path, capsys, solver, flag, value):
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    out = tmp_path / "o"
    assert run(["solve-ot", "--cost", str(cost), "--solver", solver, flag, value,
                "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "config.json").exists()


def test_solve_ot_rejects_bad_solver(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    cfg.write_text(json.dumps({"solver": "simplex"}))
    assert run(["solve-ot", "--config", str(cfg), "--cost", str(cost),
                "--out", str(tmp_path / "o")]) == 2
    assert "solver must be" in capsys.readouterr().err


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
            ("ipot", 0.5, ot.ipot_solve(
                cost, cfg=ot.IpotConfig(reg=0.5, max_outer_iters=iters, stop_tol=0.0),
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
    assert "classes must be" in capsys.readouterr().err


def test_export_rejects_an_empty_class_list(workspace, tmp_path, capsys):
    split = json.loads((workspace["data"] / "split.json").read_text())
    data = edited_dataset(workspace, tmp_path, seen=[], unseen=split["seen"] + split["unseen"])
    out = tmp_path / "o"
    assert run(["export", "--data", str(data), "--checkpoint", str(workspace["ckpt"]),
                "--classes", "seen", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: dataset {data} has no seen classes to export\n"
    assert not out.exists()
