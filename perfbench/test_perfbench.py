"""Smoke tests of the benchmark at tiny shapes (--smoke): every workload's
command sequence, output checks and traced run, the digest check across runs,
and the refusal to run without the program's sources.

Run from the repository root: python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root, workload, trace=0, smoke=True, seed=3):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([sys.executable, str(Path(root) / "perfbench" / "run.py"), *args,
                           *(["--smoke"] if smoke else [])],
                          cwd=root, capture_output=True, text=True, timeout=170)


def result_of(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def checkout_copy(tmp_path, with_program=True):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    result = result_of(bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["bench.span_coverage"]["value"] > 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_changed_output_bytes_count_as_failures(tmp_path):
    root = checkout_copy(tmp_path)
    assert result_of(bench(root, "solver"))["failed"] == 0
    (store,) = (root / ".perfbench" / "digests").iterdir()
    digests = json.loads(store.read_text(encoding="utf-8"))
    store.write_text(json.dumps({k: "0" * 64 for k in digests}), encoding="utf-8")
    result = result_of(bench(root, "solver"))
    assert not result["correct"] and result["failed"] == len(digests)


def test_infeasible_plan_counts_as_a_failure(tmp_path):
    root = checkout_copy(tmp_path)
    with open(root / "src" / "otzsl" / "ot.py", "a", encoding="utf-8") as fh:
        fh.write("\n_exact_round = _round_to_polytope\n"
                 "def _round_to_polytope(plan, marg):\n"
                 "    return _exact_round(plan, marg) * 1.001\n")
    result = result_of(bench(root, "solver"))
    assert not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    root = checkout_copy(tmp_path, with_program=False)
    out = bench(root, WORKLOADS[0], smoke=False)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
