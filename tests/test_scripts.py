"""The experiment scripts run from any working directory: they find the
package next to themselves, not on PYTHONPATH or under the current directory."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_zsl_benchmark_prints_per_seed_mean_and_min_rows(tmp_path):
    proc = run_script("run_zsl_benchmark.py", ["--seeds", "0", "1", "--epochs", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    firsts = [row[0] for row in rows if row]
    assert firsts[-4:] == ["0", "1", "mean", "min"]
    per_seed = [[float(v) for v in row[1:6]] for row in rows[-4:-2]]
    mean, low = ([float(v) for v in row[1:]] for row in rows[-2:])
    columns = list(zip(*per_seed))
    assert len(mean) == len(low) == len(columns) == 5
    # the printed rows are rounded to 3 places
    assert all(abs(m - sum(col) / 2) <= 1e-3 for m, col in zip(mean, columns))
    assert low == [min(col) for col in columns]


def test_zsl_benchmark_takes_a_dataset_spec(tmp_path):
    spec = '{"seen_classes": 3, "unseen_classes": 2, "feature_dim": 8, "samples_per_class": 10}'
    proc = run_script("run_zsl_benchmark.py", ["--seeds", "0", "--epochs", "1", "--spec", spec],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "dataset: 3 seen / 2 unseen classes, 21 training samples, D=8"
    for bad, keys in (('{"seed": 3}', "['seed']"), ('{"classes": 3, "attr_dim": 4}', "['classes']")):
        proc = run_script("run_zsl_benchmark.py", ["--seeds", "0", "--spec", bad], tmp_path)
        assert proc.returncode == 2
        assert f"dataset spec keys {keys} are unknown or set by the script" in proc.stderr
    proc = run_script("run_zsl_benchmark.py", ["--seeds", "0", "--spec", "[3]"], tmp_path)
    assert proc.returncode == 2 and "--spec must be a JSON object" in proc.stderr


def test_compare_ot_solvers_runs_outside_the_repo(tmp_path):
    proc = run_script("compare_ot_solvers.py",
                      ["--size", "4", "--instances", "2", "--iters", "20", "--out", "curves"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "curves" / "curves.csv").exists()
