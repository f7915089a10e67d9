"""The experiment scripts run from any working directory: they find the
package next to themselves, not on PYTHONPATH or under the current directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from otzsl import cli

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



@pytest.mark.parametrize("flag, given, message", [
    ("--config", '{"batch_size": "5"}', "config key 'batch_size' must be of type int, got \"5\""),
    ("--spec", '{"seen_classes": 2.5}', "config key 'seen_classes' must be of type int, got 2.5"),
    ("--config", '{"ipot_reg": NaN}', "config key 'ipot_reg' must be a finite number, got NaN"),
    ("--config", '{"batch_size": 1}', "config key 'batch_size' must be at least 2, got 1"),
    ("--config", '{"ipot_reg": 0}', "config key 'ipot_reg' must be greater than 0, got 0"),
], ids=["string-for-int", "float-for-int", "nan", "dataclass-check", "nested-bound"])
def test_zsl_benchmark_reads_its_keys_as_otzsl_reads_a_config_file(tmp_path, flag, given,
                                                                   message):
    """A value of the wrong type, a non-finite number or one its config
    dataclass rejects is a usage error naming the key, not a traceback."""
    proc = run_script("run_zsl_benchmark.py", ["--seeds", "0", flag, given], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.endswith(f"run_zsl_benchmark.py: error: {message}\n"), proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args, message", [
    (["--seeds", "0", "-1"],
     "--seeds value must be at least 0 and at most 18446744073709551615, got -1"),
    (["--spec", "[" * 100_000], "argument --spec: invalid JSON: maximum recursion depth exceeded"),
    (["--config", "[" * 100_000], "argument --config: invalid JSON: maximum recursion depth"),
    (["--config", '{"epochs": '], "argument --config: invalid JSON: Expecting value: line 1"),
    (["--config", '{"hidden_dim": 8, "hidden_dim": 16}'],
     "argument --config: invalid JSON: repeated key 'hidden_dim'"),
], ids=["negative-seed", "deep-spec", "deep-config", "bad-json", "repeated-key"])
def test_zsl_benchmark_rejects_a_bad_argument_before_any_work(tmp_path, args, message):
    """A bad seed, or flag JSON that cannot be decoded or repeats a key, is
    a usage error before the dataset is made, not a traceback after some
    rows."""
    proc = run_script("run_zsl_benchmark.py", ["--epochs", "1", *args], tmp_path)
    assert proc.returncode == 2
    assert f"run_zsl_benchmark.py: error: {message}" in proc.stderr, proc.stderr[-500:]
    assert proc.stdout == ""


def test_verify_ends_its_summary_with_the_package_line_count(monkeypatch, capsys):
    """After one line per suite, the last line counts src/otzsl/'s lines as
    `wc -l` does; it gates nothing, so failing suites still print it. Each
    module's count, then each command's number of config keys, come before
    the suite lines."""
    sys.path.insert(0, str(SCRIPTS))
    try:
        import verify
    finally:
        sys.path.remove(str(SCRIPTS))
    monkeypatch.setattr(verify, "pytest", lambda cwd, *args, **variables: 1)
    monkeypatch.setattr(verify, "perfbench_smoke", lambda: 0)
    assert verify.main() == 1
    lines = capsys.readouterr().out.splitlines()
    package = SCRIPTS.parent / "src" / "otzsl"
    counts = {path.name: len(path.read_text(encoding="utf-8").splitlines())
              for path in sorted(package.glob("*.py"))}
    count = sum(counts.values())
    assert lines[-5:] == ["tier-1: FAIL (pytest exit 1)", "acceptance: FAIL (pytest exit 1)",
                          "perfbench smoke: PASS",
                          "output digests, Haswell kernel: FAIL (pytest exit 1)",
                          f"src/otzsl: {count} lines"]
    modules = [f"src/otzsl/{name}: {n} lines" for name, n in counts.items()]
    tables = {"gen-data": cli.GEN_DATA_KEYS, "train": cli.TRAIN_KEYS, "eval": cli.EVAL_KEYS,
              "solve-ot": cli.SOLVE_OT_KEYS, "compare-solvers": cli.COMPARE_KEYS,
              "export": cli.EXPORT_KEYS}
    keys = [f"{command}: {len(table)} config keys" for command, table in tables.items()]
    assert lines[-5 - len(keys) - len(modules):-5] == modules + keys
