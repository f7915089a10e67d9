"""Benchmark of the otzsl command-line program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Each workload is a fixed sequence of CLI commands (a "pass"), every command in
a fresh interpreter through the real entry point. The workload seed derives
every input: dataset and training seeds for desk and paper, the cost matrices
for solver. A run repeats the pass until --seconds are used. Between commands
it times fresh interpreters that import otzsl (setup_s) or run a fixed
reference job (the machine's speed, which scales the reported times). It
checks every output and prints a summary followed by one JSON line.

--trace 0 reports the end-to-end metrics. --trace 1 runs the commands under
traced_cli.py, which wraps the calls into each module from outside, and
reports per-layer metrics: calls, total and self time per span, and counts
read from results, files and trace.csv. --smoke shrinks every shape so that a
whole run takes seconds.

Exit code 0 when a result was printed, 2 when the program's sources are not
in this checkout or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from sites import DATASET_FILES, SITES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0
PROBES = 6  # at least
PROBE_PERIOD_S = 3.0
# REFERENCE_JOB's wall time on the 2-vCPU Xeon virtual machine the baseline
# was measured on; it sets the scale of the reported times
REFERENCE_NOMINAL_S = 0.2
MARGINAL_TOL = 1e-6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
SPAN_NAMES = (["cli.process", "cli.startup", "cli.import", "cli.main", "cli.exit"]
              + list(dict.fromkeys(site[2] for site in SITES)))
COUNTS = {
    "ot.ipot_solve.sweeps": "count", "ot.ipot_solve.converged_ratio": "ratio",
    "ot.ipot_solve.sweep_us": "us", "ot.sinkhorn_solve.sweeps": "count",
    "training.train.steps": "count", "training.train.ot_branch_ratio": "ratio",
    "evaluate.train_softmax.steps": "count", "data.save_dataset.bytes": "B",
    "data.load_dataset.bytes": "B", "checkpoint.save_checkpoint.bytes": "B",
    "accuracy.A_u_mean": "ratio", "accuracy.H_mean": "ratio", "accuracy.H_min": "ratio",
    "accuracy.A_u_trans": "ratio", "bench.pipeline_s": "s", "bench.span_coverage": "ratio",
}
PER_LAYER = {**{f"{n}.{stat}": unit for n in SPAN_NAMES
                for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
             **COUNTS}

# Output files whose bytes must repeat exactly for the same inputs.
DIGESTED = {"gen-data": DATASET_FILES, "train": ("checkpoint.bin", "trace.csv"),
            "eval": ("report.json",), "solve-ot": ("plan.csv", "solver_trace.csv")}
REPORT_KEYS = {"mode", "per_class", "A_u", "top_k", "n_synth_per_class", "seed"}

# Config files for gen-data, train and eval ({} keeps the CLI defaults), the
# number of standard training seeds, the eval modes after each, and whether a
# transductive train/eval pair follows.
DATASET_WORKLOADS = {
    "desk": ({}, {}, {}, 3, ("standard", "generalized"), True),
    "paper": ({"seen_classes": 40, "unseen_classes": 10, "attr_dim": 85, "feature_dim": 2048,
               "samples_per_class": 50},
              {"hidden_dim": 512, "batch_size": 128, "epochs": 2}, {}, 1, ("generalized",), False),
}
SMOKE_CONFIGS = ({"seen_classes": 3, "unseen_classes": 2, "attr_dim": 6, "feature_dim": 8,
                  "samples_per_class": 8},
                 {"hidden_dim": 16, "epochs": 1, "batch_size": 8},
                 {"n_synth_per_class": 4, "classifier_epochs": 2})
# (shapes cycled over the instances, instances, IPOT sweep budget)
SOLVER = (((16, 16), (32, 32), (24, 40), (48, 48)), 48, 2000)
SMOKE_SOLVER = (((5, 5), (4, 7)), 2, 50)


class Command:
    def __init__(self, kind, args, out, cost=None):
        self.kind, self.args, self.out = kind, args, out
        self.cost = cost  # solve-ot: the cost matrix, for the marginal check


def derived_seeds(workload: str, seed: int, n: int) -> list[int]:
    rnd = random.Random(f"{workload}:{seed}")
    return [rnd.randrange(2**31) for _ in range(n)]


def cosine_cost(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """16-D gaussian clouds and their cosine distances, as compare-solvers builds them."""
    x, y = rng.standard_normal((n, 16)), rng.standard_normal((m, 16))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    return np.clip(1.0 - x @ y.T, 0.0, 2.0)


def write_matrix_csv(matrix: np.ndarray, path: Path) -> None:
    rows = "\n".join(",".join(f"{v:.17g}" for v in row) for row in matrix)
    path.write_text(f"rows,cols\n{matrix.shape[0]},{matrix.shape[1]}\n{rows}\n", encoding="utf-8")


def build_workload(workload: str, seed: int, smoke: bool, inputs: Path) -> list[Command]:
    """The command sequence of one pass. Inputs are written under `inputs`;
    commands run with a fresh pass directory as working directory."""
    inputs.mkdir(parents=True)

    def rel(name):
        return os.path.join("..", "inputs", name)

    def config(name, obj):
        (inputs / name).write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
        return ["--config", rel(name)]

    if workload == "solver":
        rng = np.random.default_rng(seed)
        shapes, count, iters = SMOKE_SOLVER if smoke else SOLVER
        cmds = []
        for i in range(count):
            cost = cosine_cost(rng, *shapes[i % len(shapes)])
            write_matrix_csv(cost, inputs / f"cost-{i}.csv")
            for solver, extra in (("ipot", ["--iters", str(iters)]), ("sinkhorn", [])):
                out = f"{solver}-{i}"
                cmds.append(Command("solve-ot", ["solve-ot", "--cost", rel(f"cost-{i}.csv"),
                                                 "--solver", solver, *extra, "--out", out],
                                    out, cost=cost))
        return cmds

    gen, train, ev, n_train, evals, transductive = DATASET_WORKLOADS[workload]
    if smoke:
        gen, train, ev, n_train = *SMOKE_CONFIGS, 1
    data_seed, eval_seed, trans_seed, *train_seeds = derived_seeds(workload, seed, 3 + n_train)
    gen_args = config("gen.json", gen)
    train_args, eval_args = config("train.json", train), config("eval.json", ev)
    cmds = [Command("gen-data", ["gen-data", *gen_args, "--seed", str(data_seed), "--out", "data"], "data")]

    def train_and_eval(tag, train_seed, mode, eval_modes):
        out = f"train-{tag}"
        cmds.append(Command("train", ["train", *train_args, "--data", "data", "--seed", str(train_seed),
                                      "--mode", mode, "--out", out], out))
        for m in eval_modes:
            cmds.append(Command("eval", ["eval", *eval_args, "--data", "data", "--checkpoint",
                                         f"{out}/checkpoint.bin", "--mode", m, "--seed", str(eval_seed),
                                         "--out", f"eval-{tag}-{m}"], f"eval-{tag}-{m}"))

    for i, train_seed in enumerate(train_seeds):
        train_and_eval(str(i), train_seed, "standard", evals)
    if transductive:
        train_and_eval("trans", trans_seed, "transductive", ("transductive",))
    return cmds


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config instead
        blas = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, BLAS {blas}, "
            f"{os.cpu_count()} CPUs, {'/'.join(THREAD_VARS)}=1")


def child_env() -> dict:
    """The program from this checkout's src/, every BLAS on one thread."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), **{var: "1" for var in THREAD_VARS}}


class Runner:
    """Starts child processes one at a time and keeps the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.timed_out = False

    def run(self, argv, cwd: Path, log_stem: str | None = None):
        """Returns (exit code, wall seconds, start ns, end ns, peak RSS in MB).

        The wait blocks in wait4, which also reports the child's peak RSS:
        Popen.wait(timeout) polls with sleeps of up to 50 ms, which would add
        a random share of that to every wall time. A timer kills the child
        instead once the run's deadline passes.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.timed_out = True
            return -1, 0.0, 0, 0, 0.0
        expired = threading.Event()
        with contextlib.ExitStack() as files:
            out = err = subprocess.DEVNULL
            if log_stem:
                out, err = (files.enter_context(open(cwd / f"{log_stem}.{stream}", "wb"))
                            for stream in ("stdout", "stderr"))
            start = time.monotonic_ns()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(remaining, lambda: (expired.set(), os.kill(proc.pid, signal.SIGKILL)))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                code = proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                end = time.monotonic_ns()
                timer.cancel()
                if proc.returncode is None:  # interrupted: stop the child before leaving
                    proc.kill()
                    proc.wait()
        if expired.is_set():
            self.timed_out = True
            code = -1
        return code, (end - start) / 1e9, start, end, usage.ru_maxrss / 1024.0


# A fixed job for a fresh interpreter: numpy import, small-matrix scaling
# sweeps, float formatting and parsing, JSON. It never touches otzsl, so its
# time changes only with the speed of the machine.
REFERENCE_JOB = """
import json
import numpy as np
g = np.exp(-np.linspace(0.0, 2.0, 1024).reshape(32, 32))
a, p = np.full(32, 1 / 32), np.full((32, 32), 1 / 1024)
for _ in range(300):
    k = g * p
    b = (1 / 32) / (k.T @ a)
    a = (1 / 32) / (k @ b)
    p = (a[:, None] * k) * b[None, :]
text = ",".join(f"{v:.17g}" for v in np.linspace(0.0, 1.0, 20000))
values = [float(v) for v in text.split(",")]
json.loads(json.dumps({str(i): [i, i * 0.5] for i in range(3000)}))
"""


class Probes:
    """Between commands, at most every PROBE_PERIOD_S: one fresh interpreter
    that only imports otzsl (setup time), then one that runs REFERENCE_JOB
    (machine speed). The speed of a shared machine drifts by tens of percent
    within seconds and across minutes, so the probes are spread over the
    whole run, and reported times are scaled by the ratio of nominal to
    measured speed (see summarize_e2e). Nothing else runs while a probe does,
    so the program cannot slow the reference down."""

    def __init__(self, runner: Runner, cwd: Path):
        self.runner, self.cwd = runner, cwd
        self.setup, self.reference, self.failed = [], [], 0
        self.last = -math.inf

    def probe(self):
        self.last = time.monotonic()
        for argv, walls in (([sys.executable, "-c", "import otzsl"], self.setup),
                            ([sys.executable, "-c", REFERENCE_JOB], self.reference)):
            code, wall, *_ = self.runner.run(argv, self.cwd)
            if self.runner.timed_out:
                return
            walls.append(wall)
            self.failed += code != 0

    def maybe_probe(self):
        if time.monotonic() - self.last >= PROBE_PERIOD_S:
            self.probe()

    def scale(self) -> float:
        """Nominal over measured speed of the machine during this run."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.reference)


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def check_command(cmd: Command, out: Path) -> str | None:
    """Problem with a finished command's outputs, or None when they are valid."""
    missing = [f for f in DIGESTED[cmd.kind] if not (out / f).is_file()]
    if missing:
        return f"missing {missing}"
    if cmd.kind == "train":
        lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
        if len(lines) < 2 or not lines[0].startswith("iteration,branch,"):
            return "trace.csv has no iterations"
    elif cmd.kind == "eval":
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        mode = cmd.args[cmd.args.index("--mode") + 1]
        expected = REPORT_KEYS | ({"A_s", "H"} if mode == "generalized" else set())
        if set(report) != expected or report["mode"] != mode:
            return f"report.json keys {sorted(report)} for mode {report.get('mode')}"
        values = [report[k] for k in ("A_u", "A_s", "H") if k in report]
        values += list(report["per_class"].values())
        if not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in values):
            return "report.json has an accuracy outside [0, 1]"
    elif cmd.kind == "solve-ot":
        plan = np.loadtxt(out / "plan.csv", delimiter=",", skiprows=2, ndmin=2)
        n, m = cmd.cost.shape
        if plan.shape != (n, m):
            return f"plan.csv shape {plan.shape}, cost {cmd.cost.shape}"
        row_dev = np.max(np.abs(plan.sum(axis=1) - 1.0 / n))
        col_dev = np.max(np.abs(plan.sum(axis=0) - 1.0 / m))
        if not (row_dev <= MARGINAL_TOL and col_dev <= MARGINAL_TOL and plan.min() >= -MARGINAL_TOL):
            return f"plan.csv infeasible: row dev {row_dev:.3g}, col dev {col_dev:.3g}"
    return None


def trace_rows(out: Path) -> tuple[int, int]:
    """(iterations, iterations on the solved-transport branch) from trace.csv."""
    rows = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    return len(rows), sum(1 for r in rows if r.split(",")[1] == "ot")


def layer_stats(commands: list[dict]) -> dict:
    """Aggregate one traced pass into calls / total / self time per span name."""
    spans = []
    for c in commands:
        base = len(spans)
        spans.append(["cli.process", c["start"], c["end"], -1, None])
        if c["spans"]:
            # interpreter start-up before the traced script's first line, and
            # its exit (writing the span file included) after main returned
            spans.append(["cli.startup", c["start"], c["spans"][0][1], base, None])
            spans.append(["cli.exit", c["end_ns"], c["end"], base, None])
        offset = len(spans)
        for name, start, end, parent, counters in c["spans"]:
            spans.append([name, start, end, base if parent < 0 else offset + parent, counters])
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
    extra = {"sweeps": {}, "converged": {}, "steps": {}, "bytes": {}}
    for i, (name, start, end, _, counters) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += (end - start) / 1e9
        s["self_s"] += (end - start - child_ns[i]) / 1e9
        for key, value in (counters or {}).items():
            extra[key][name] = extra[key].get(name, 0) + int(value)
    return {"spans": stats, **extra}


def run_pass(index, cmds, workdir, runner, traced, notes, probes=None):
    """Run every command of one pass, check outputs; returns the pass record."""
    pdir = workdir / f"pass-{index}"
    pdir.mkdir()
    records, wall0 = [], time.monotonic()
    for cmd in cmds:
        if probes is not None:
            probes.maybe_probe()
        spans_file = pdir / f"{cmd.out}.spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_file), *cmd.args]
        else:
            argv = [sys.executable, "-m", "otzsl", *cmd.args]
        code, wall, start, end, rss_mb = runner.run(argv, pdir, log_stem=cmd.out)
        rec = {"cmd": cmd, "code": code, "wall": wall, "start": start, "end": end, "rss_mb": rss_mb,
               "spans": [], "problem": None}
        records.append(rec)
        if runner.timed_out:
            rec["problem"] = "run deadline reached"
            break
        out = pdir / cmd.out
        if code != 0:
            err = (pdir / f"{cmd.out}.stderr").read_text(errors="replace").strip().splitlines()
            rec["problem"] = f"exit code {code}: {err[-1] if err else ''}"
        else:
            rec["problem"] = check_command(cmd, out)
        if rec["problem"] is None:
            rec["digest"] = file_digest([out / f for f in DIGESTED[cmd.kind]])
            if cmd.kind == "train":
                rec["steps"], rec["ot_steps"] = trace_rows(out)
                rec["batch"] = json.loads((out / "config.json").read_text(encoding="utf-8"))["batch_size"]
            elif cmd.kind == "eval":
                rec["report"] = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if traced and spans_file.is_file():
            traced_out = json.loads(spans_file.read_text(encoding="utf-8"))
            rec["spans"], rec["end_ns"] = traced_out["spans"], traced_out["end_ns"]
            notes.update(f"this otzsl has no {site} to trace" for site in traced_out["missing"])
    wall = time.monotonic() - wall0
    shutil.rmtree(pdir)
    return {"records": records, "wall": wall}


def percentile(values, q):
    """q-th percentile by statistics.quantiles' default (exclusive) method."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def stored_digests(key: str) -> tuple[Path, dict | None]:
    path = STATE_DIR / "digests" / f"{key}.json"
    return path, (json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None)


def summarize_e2e(passes, probes):
    records = [r for p in passes for r in p["records"]]
    per_pass = lambda f: statistics.median(f(p["records"]) for p in passes)  # noqa: E731
    setup, pipeline = statistics.median(probes.setup), per_pass(lambda rs: sum(r["wall"] for r in rs))
    # Control-variate weights: a setup probe runs right before a reference
    # job and is slowed alike, so it takes the whole speed ratio. A pass also
    # runs through moments no probe sees, so only the square root of the ratio
    # applies; over five seeds per workload that gave the smallest spreads.
    scale = probes.scale()
    speed = (f"raw {{:.4f}} s × {{:.3f}} (speed ratio {scale:.3f} from "
             f"{len(probes.reference)} reference jobs)")
    metrics = {
        "setup_s": (setup * scale, f"median of {len(probes.setup)} interpreters; "
                    + speed.format(setup, scale)),
        "pipeline_s": (pipeline * math.sqrt(scale), f"median of {len(passes)} passes; "
                       + speed.format(pipeline, math.sqrt(scale))),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), f"max over {len(records)} commands"),
    }
    info = {}
    kinds = {r["cmd"].kind for r in records}
    if "gen-data" in kinds:
        info["gen_data_s"] = (per_pass(lambda rs: sum(r["wall"] for r in rs if r["cmd"].kind == "gen-data")),
                              "s", f"median of {len(passes)} passes")
        info["eval_s"] = (per_pass(lambda rs: sum(r["wall"] for r in rs if r["cmd"].kind == "eval")),
                          "s", f"median of {len(passes)} passes")
        trains = [r for r in records if r["cmd"].kind == "train" and "steps" in r]
        samples = sum(r["steps"] * r["batch"] for r in trains)
        info["train_samples_per_s"] = (samples / max(sum(r["wall"] for r in trains), 1e-9), "1/s",
                                       f"{samples} samples in {len(trains)} train commands")
    for solver in ("ipot", "sinkhorn"):
        ms = [r["wall"] * 1e3 for r in records
              if r["cmd"].kind == "solve-ot" and r["cmd"].out.startswith(solver)]
        if ms:
            info[f"{solver}_solve_ms_p50"] = (statistics.median(ms), "ms", f"n={len(ms)}")
            # the highest percentile with at least ten samples beyond it
            for q in (90, 75):
                if len(ms) * (100 - q) / 100 >= 10:
                    info[f"{solver}_solve_ms_p{q}"] = (percentile(ms, q), "ms", f"n={len(ms)}")
                    break
    info.update({k: (v, "ratio", "first pass") for k, v in accuracy(passes[0]["records"]).items()})
    return metrics, info


def accuracy(records) -> dict:
    """A_u over the standard evaluations (the generalized ones where there are
    none), H over the generalized ones, and the transductive A_u."""
    reports = [r["report"] for r in records if "report" in r]
    general = [rep for rep in reports if rep["mode"] == "generalized"]
    out = {}
    a_u = [rep["A_u"] for rep in reports if rep["mode"] == "standard"] or [rep["A_u"] for rep in general]
    if a_u:
        out["A_u_mean"] = statistics.fmean(a_u)
    if general:
        out["H_mean"] = statistics.fmean(rep["H"] for rep in general)
        out["H_min"] = min(rep["H"] for rep in general)
    trans = [rep["A_u"] for rep in reports if rep["mode"] == "transductive"]
    if trans:
        out["A_u_trans"] = statistics.fmean(trans)
    return out


def summarize_layers(passes):
    per_pass = [layer_stats([r for r in p["records"] if r["end"]]) for p in passes]
    med = lambda f: statistics.median(f(s) for s in per_pass)  # noqa: E731
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = per_pass[0]["spans"][name]["calls"]
        for stat in ("total_s", "self_s"):
            metrics[f"{name}.{stat}"] = med(lambda s: s["spans"][name][stat])
    first = per_pass[0]
    ipot_calls = first["spans"]["ot.ipot_solve"]["calls"]
    sweeps = first["sweeps"].get("ot.ipot_solve", 0)
    metrics["ot.ipot_solve.sweeps"] = sweeps
    metrics["ot.ipot_solve.converged_ratio"] = first["converged"].get("ot.ipot_solve", 0) / max(ipot_calls, 1)
    metrics["ot.ipot_solve.sweep_us"] = (med(lambda s: s["spans"]["ot.ipot_solve"]["self_s"]) * 1e6
                                         / max(sweeps, 1))
    metrics["ot.sinkhorn_solve.sweeps"] = first["sweeps"].get("ot.sinkhorn_solve", 0)
    trains = [r for r in passes[0]["records"] if "steps" in r]
    steps = sum(r["steps"] for r in trains)
    metrics["training.train.steps"] = steps
    metrics["training.train.ot_branch_ratio"] = sum(r["ot_steps"] for r in trains) / max(steps, 1)
    metrics["evaluate.train_softmax.steps"] = first["steps"].get("evaluate.train_softmax", 0)
    for name in ("data.save_dataset", "data.load_dataset", "checkpoint.save_checkpoint"):
        metrics[f"{name}.bytes"] = first["bytes"].get(name, 0)
    acc = accuracy(passes[0]["records"])
    for key in ("A_u_mean", "H_mean", "H_min", "A_u_trans"):
        metrics[f"accuracy.{key}"] = acc.get(key, 0.0)
    pipeline = med(lambda s: s["spans"]["cli.process"]["total_s"])
    metrics["bench.pipeline_s"] = pipeline
    covered = med(lambda s: s["spans"]["cli.process"]["total_s"] - s["spans"]["cli.process"]["self_s"])
    metrics["bench.span_coverage"] = covered / pipeline if pipeline > 0 else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "paper", "solver"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for testing the benchmark")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "otzsl" / "cli.py").is_file():
        print(f"error: no otzsl sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    STATE_DIR.mkdir(exist_ok=True)
    workdir = STATE_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    problems: set[str] = set()  # each one is also counted in `failed`
    notes: set[str] = set()
    try:
        cmds = build_workload(args.workload, args.seed, args.smoke, workdir / "inputs")
        probes = None if args.trace else Probes(runner, workdir)
        passes, t_measure = [], time.monotonic()
        while True:
            passes.append(run_pass(len(passes), cmds, workdir, runner, args.trace == 1, notes, probes))
            elapsed = time.monotonic() - t_measure
            # stop at the pass boundary nearest to --seconds
            if runner.timed_out or elapsed + passes[-1]["wall"] / 2 > args.seconds:
                break
        while probes and len(probes.reference) < PROBES and not runner.timed_out:
            probes.probe()
        if probes and probes.failed:
            problems.add(f"{probes.failed} setup or reference interpreters failed")

        # Same inputs, same bytes: across the passes of this run and against
        # every earlier run of this workload and seed in this checkout.
        key_src = json.dumps([args.workload, args.seed, args.smoke, [c.args for c in cmds],
                              file_digest(sorted((workdir / "inputs").iterdir()))])
        store_path, reference = stored_digests(hashlib.sha256(key_src.encode()).hexdigest()[:24])
        reference = reference or {r["cmd"].out: r["digest"] for r in passes[0]["records"] if "digest" in r}
        for p in passes:
            for r in p["records"]:
                if "digest" in r and reference.get(r["cmd"].out) != r["digest"]:
                    r["problem"] = f"output bytes differ from an earlier run ({r['cmd'].out})"
        attempted = (len(probes.setup) + len(probes.reference) if probes else 0) + len(cmds) * len(passes)
        failed = (probes.failed if probes else 0)
        failed += sum(1 for p in passes for r in p["records"] if r["problem"])
        failed += sum(len(cmds) - len(p["records"]) for p in passes)
        if failed == 0 and not store_path.is_file():
            store_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = store_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(reference, sort_keys=True), encoding="utf-8")
            tmp.replace(store_path)

        for p in passes:
            for r in p["records"]:
                if r["problem"]:
                    problems.add(f"{' '.join(r['cmd'].args[:1])} {r['cmd'].out}: {r['problem']}")
        mode = "traced" if args.trace else "untraced"
        print(f"workload {args.workload} seed {args.seed}{' (smoke)' if args.smoke else ''}: "
              f"{len(passes)} {mode} passes of {len(cmds)} commands, "
              f"{failed} of {attempted} operations failed")
        print(f"  environment: {environment()}")
        for problem in sorted(problems):
            print(f"  problem: {problem}")
        for note in sorted(notes):
            print(f"  note: {note}")
        if args.trace:
            metrics = summarize_layers(passes)
            units = PER_LAYER
            pipeline = metrics["bench.pipeline_s"]
            top = sorted(SPAN_NAMES, key=lambda n: -metrics[f"{n}.self_s"])[:12]
            print(f"  traced pipeline_s {pipeline:.3f} s, span coverage "
                  f"{metrics['bench.span_coverage']:.3f}; largest self times:")
            for n in top:
                print(f"    {n:36s} {metrics[f'{n}.self_s']:9.3f} s  {metrics[f'{n}.self_s'] / pipeline:6.1%}"
                      f"  calls {metrics[f'{n}.calls']}")
        else:
            e2e, info = summarize_e2e(passes, probes)
            metrics = {k: v for k, (v, _) in e2e.items()}
            units = END_TO_END
            for k, (v, n) in e2e.items():
                print(f"  {k:24s} {v:12.4f} {END_TO_END[k]:5s} ({n})")
            for k, (v, unit, n) in info.items():
                print(f"  {k:24s} {v:12.4f} {unit:5s} ({n}; not gated)")
            print(f"  {'failed_ops':24s} {failed / attempted:12.4f} ratio ({failed} of {attempted})")
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
