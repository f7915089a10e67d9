import json
import math

import numpy as np
import pytest

from otzsl import cli
from otzsl.data import load_matrix_csv, save_matrix_csv
from otzsl.training import TrainConfig

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
              "epochs", "seed", "mode", "hidden_dim", "ipot_reg", "ipot_inner_iters",
              "ipot_max_outer_iters", "ipot_stop_tol"},
    "eval": {"data", "checkpoint", "mode", "n_synth_per_class", "seed", "top_k",
             "include_real_seen", "classifier_learning_rate", "classifier_epochs",
             "classifier_batch_size"},
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


def test_eval_top_k(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    assert run(["eval", "--data", str(workspace["data"]),
                "--checkpoint", str(workspace["ckpt"]),
                "--top-k", "2", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["top_k"] >= report["A_u"]


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


@pytest.mark.parametrize("solver", ["ipot", "sinkhorn"])
@pytest.mark.parametrize("flag,value", [("--lambda", "-0.5"), ("--iters", "0")])
def test_solve_ot_rejects_bad_parameters(tmp_path, capsys, solver, flag, value):
    cost = tmp_path / "cost.csv"
    save_matrix_csv(np.array([[0.5]]), str(cost))
    assert run(["solve-ot", "--cost", str(cost), "--solver", solver, flag, value,
                "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


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
