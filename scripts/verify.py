"""Run every check of the repository and exit non-zero if any suite fails.

    python3 scripts/verify.py

The suites, in order, from the repository root:

1. the tier-1 suite: `python -m pytest -q --continue-on-collection-errors`
   with src/ on PYTHONPATH;
2. the acceptance gate, one verdict per criterion:
   `python -m pytest tests/test_acceptance.py -s`;
3. perfbench's smoke tests, `python -m pytest perfbench`, in a temporary
   copy of BENCHMARK.json, perfbench/ and src/. The smoke tests compare
   output bytes with the digest store `.perfbench/` in the checkout they run
   in, so a store left there by a run of other output bytes would fail them;
   the copy starts without one;
4. the output digests under another OpenBLAS kernel:
   `python -m pytest tests/test_output_digests.py` with OPENBLAS_CORETYPE=
   Haswell set for pytest. The test pins its commands' kernel, so the
   digests hold whatever the caller sets; a test that drops the pin fails
   here, on any machine whose default kernel is not Haswell's.

Each suite runs even when an earlier one failed. Then come the line count of
each module of src/otzsl/, the number of config keys of each command (read
from the CLI's key tables, so a change that adds or drops a knob shows it),
a summary line per suite, and the line count of src/otzsl/ (each as `wc -l`
counts it), the figure the ROADMAP's design aim tracks; the counts gate
nothing.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from otzsl import cli


def pytest(cwd, *args, **variables) -> int:
    """The exit code of `python -m pytest *args` run in `cwd` with its src/
    first on PYTHONPATH and the environment `variables` set."""
    env = {**os.environ, **variables}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cwd) / "src"),
                                                      env.get("PYTHONPATH")]))
    shown = "".join(f"{name}={value} " for name, value in variables.items())
    print(f"$ {shown}python -m pytest {' '.join(args)}  (in {cwd})", flush=True)
    return subprocess.run([sys.executable, "-m", "pytest", *args], cwd=cwd, env=env).returncode


def perfbench_smoke() -> int:
    """perfbench's smoke tests in a fresh copy of what the benchmark reads."""
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="otzsl-verify-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for name in ("perfbench", "src"):
            shutil.copytree(ROOT / name, Path(tmp) / name, ignore=ignore)
        return pytest(tmp, "-q", "-p", "no:cacheprovider", "perfbench")


def src_lines() -> dict:
    """The number of lines of each src/otzsl/*.py, by file name."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((ROOT / "src" / "otzsl").glob("*.py"))}


def config_key_counts() -> dict:
    """The number of config keys of each command of the CLI, by command name,
    in the order of its help."""
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions if action.dest == "command")
    return {name: len(parser.parse_args([name]).keys) for name in commands}


def main() -> int:
    results = [
        ("tier-1", pytest(ROOT, "-q", "--continue-on-collection-errors")),
        ("acceptance", pytest(ROOT, "tests/test_acceptance.py", "-s")),
        ("perfbench smoke", perfbench_smoke()),
        ("output digests, Haswell kernel", pytest(ROOT, "-q", "tests/test_output_digests.py",
                                                  OPENBLAS_CORETYPE="Haswell")),
    ]
    counts = src_lines()
    for name, count in counts.items():
        print(f"src/otzsl/{name}: {count} lines")
    for command, count in config_key_counts().items():
        print(f"{command}: {count} config keys")
    for name, code in results:
        print(f"{name}: {'PASS' if code == 0 else f'FAIL (pytest exit {code})'}")
    print(f"src/otzsl: {sum(counts.values())} lines")
    return 0 if all(code == 0 for _, code in results) else 1


if __name__ == "__main__":
    sys.exit(main())
