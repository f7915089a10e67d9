"""The package's import contract: what `import otzsl` loads and binds, and
the names and argument positions that perfbench's traced run wraps."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import otzsl
import otzsl.evaluate as evaluate_module
from otzsl import checkpoint, cli, data, errors, evaluate, training
from otzsl.generator import init_generator
from otzsl.rng import SeededRng

from conftest import perfbench_report_keys

SRC = Path(otzsl.__file__).resolve().parents[1]
SITES = SRC.parent / "perfbench" / "sites.py"
SCRIPTS = SRC.parent / "scripts"


def fresh_python(code: str) -> str:
    """stdout of `code` in a fresh interpreter with only src/ on its path."""
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_the_library_modules_and_not_the_cli():
    """`import otzsl` (what perfbench's setup probe times) loads the library
    modules, and leaves `cli` and `checkpoint` to the commands that use them."""
    out = fresh_python("import sys, otzsl; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'otzsl'))")
    assert out == str(["otzsl"] + [f"otzsl.{m}" for m in (
        "data", "errors", "evaluate", "generator", "linalg", "mlp", "ot", "rng", "training")]) + "\n"


def test_evaluation_and_checkpoints_import_nothing_from_training():
    """A command that evaluates or reads a checkpoint needs no training loop:
    no import statement of evaluate.py or checkpoint.py names the training
    module, in any form (`from .training import x`, `from . import training`,
    `import otzsl.training`)."""
    for name in ("evaluate", "checkpoint"):
        imported = set()
        tree = ast.parse((SRC / "otzsl" / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported |= {node.module or ""} | {f"{node.module}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {a.name for a in node.names}
        assert [m for m in imported if "training" in m.split(".")] == [], name


def test_package_names_are_its_modules():
    """`otzsl.evaluate` is the module, however it is imported; the function
    of the same name is one of its attributes."""
    assert isinstance(evaluate, types.ModuleType)
    assert evaluate is evaluate_module is otzsl.evaluate is sys.modules["otzsl.evaluate"]
    assert callable(evaluate.evaluate) and inspect.isclass(evaluate.EvalConfig)
    assert not hasattr(otzsl, "__all__")


def test_every_perfbench_trace_site_is_callable_after_importing_the_cli():
    """perfbench wraps each site of perfbench/sites.py after `import
    otzsl.cli` and only notes a site it cannot find, so a renamed or moved
    function would silently leave the traced run without its span."""
    out = fresh_python(
        "import runpy, sys, otzsl.cli\n"
        f"sites = runpy.run_path({str(SITES)!r})['SITES']\n"
        "print([f'{m}.{a}' for m, a, _, _ in sites"
        " if not callable(getattr(sys.modules.get(m), a, None))])\n")
    assert out == "[]\n"


def test_no_command_imports_numpy_ma(tmp_path):
    """The first call of np.unique, np.intersect1d or np.split imports
    numpy.ma, about 15 ms and 1 MB of resident memory a command: each
    command, run in a fresh interpreter, leaves it unimported."""
    (tmp_path / "gen.json").write_text(json.dumps({
        "seen_classes": 3, "unseen_classes": 2, "attr_dim": 6, "feature_dim": 8,
        "samples_per_class": 8}))
    (tmp_path / "cost.csv").write_text("rows,cols\n2,3\n0,1,2\n1,0,0.5\n")
    data_dir, small = str(tmp_path / "data"), ["--epochs", "1"]
    runs = {"data": ["gen-data", "--config", str(tmp_path / "gen.json")],
            "train": ["train", "--data", data_dir, *small],
            "trans": ["train", "--data", data_dir, *small, "--mode", "transductive"],
            **{mode: ["eval", "--data", data_dir, "--mode", mode, "--n-synth-per-class", "3",
                      "--checkpoint", str(tmp_path / ("trans" if mode == "transductive" else "train")
                                          / "checkpoint.bin")] for mode in evaluate.PROTOCOLS},
            "export": ["export", "--data", data_dir, "--checkpoint",
                       str(tmp_path / "train" / "checkpoint.bin")],
            "solve": ["solve-ot", "--cost", str(tmp_path / "cost.csv")],
            "compare": ["compare-solvers", "--size", "4", "--instances", "1", "--iters", "5"]}
    for out, argv in runs.items():
        argv = [*argv, "--out", str(tmp_path / out)]
        code = f"import sys\nfrom otzsl.cli import main\nprint(main({argv!r}), 'numpy.ma' in sys.modules)"
        assert fresh_python(code).splitlines()[-1] == "0 False", argv


def test_perfbench_counters_read_the_arguments_they_name():
    """perfbench's counters read these arguments by position."""
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(evaluate.train_softmax)[1] == "labels"
    assert params(evaluate.train_softmax)[3] == "cfg"
    assert params(data.save_dataset)[0] == "dir_path"
    assert params(data.load_dataset)[0] == "dir_path"
    assert params(checkpoint.save_checkpoint)[0] == "path"


def test_each_config_dataclass_checks_its_fields_by_their_declarations_alone():
    """A config field declares its type, choices and bounds beside its
    default, so no config class runs a check of its own after check_fields."""
    for cls in (data.SyntheticSpec, training.TrainConfig,
                evaluate.ClassifierConfig, evaluate.EvalConfig):
        assert cls.__post_init__ is errors.check_fields, cls.__name__


@pytest.mark.parametrize("mode", evaluate.PROTOCOLS)
def test_eval_writes_the_report_keys_perfbench_checks(mode, tiny_dataset, tmp_path, capsys):
    """perfbench's run check fails an eval whose report.json has other keys
    than REPORT_KEYS (read from perfbench/run.py without importing it), and
    A_s and H in generalized mode; so a key that appears or vanishes fails
    here first, not in every eval of the benchmark."""
    attrs, dataset, _ = tiny_dataset
    data.save_dataset(str(tmp_path / "data"), attrs, dataset)
    g = init_generator(attrs.attr_dim, dataset.feature_dim, 4, SeededRng(0))
    checkpoint.save_checkpoint(str(tmp_path / "g.bin"), g)
    out = tmp_path / "out"
    assert cli.main(["eval", "--data", str(tmp_path / "data"), "--checkpoint",
                     str(tmp_path / "g.bin"), "--mode", mode, "--n-synth-per-class", "2",
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    seen_side = {"A_s", "H"} if mode == "generalized" else set()
    assert set(report) == perfbench_report_keys() | seen_side
    assert report["mode"] == mode and report["top_k"] is None


def test_evaluation_takes_no_top_k():
    """Every protocol scores top-1 only: protocol takes the mode and the data
    alone, and EvalConfig has no top_k field to carry a k."""
    assert list(inspect.signature(evaluate.protocol).parameters) == ["mode", "attrs", "data"]
    assert "top_k" not in {f.name for f in dataclasses.fields(evaluate.EvalConfig)}
    assert not hasattr(evaluate, "per_class_topk")


def names_used(node) -> set:
    """Every name `node` reads or imports: an ast.Name, the attribute of an
    ast.Attribute, or an import alias."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rsplit(".", 1)[-1])
    return used


def test_every_library_function_and_class_is_used_outside_its_definition():
    """No library function exists only for its own tests: each top-level
    function and class of src/otzsl/ is named somewhere in src/otzsl/ or
    scripts/ outside its own definition (a recursive call does not count)."""
    defined, used = [], set()
    for path in sorted([*(SRC / "otzsl").glob("*.py"), *SCRIPTS.glob("*.py")]):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and path.parent.name == "otzsl":
                defined.append(f"{path.stem}.{node.name}")
            used |= names_used(node) - ({node.name} if is_def else set())
    assert len(defined) > 90
    assert [name for name in defined if name.split(".")[1] not in used] == []


def test_every_config_field_is_read_outside_its_class():
    """No knob is validated and then ignored: each field of each config
    dataclass is read as an attribute (`cfg.epochs`) somewhere in src/otzsl/
    outside its own class."""
    read = []  # (the top-level class the read is in, or None; the attribute read)
    for path in sorted((SRC / "otzsl").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = node.name if isinstance(node, ast.ClassDef) else None
            read += [(owner, sub.attr) for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)]
    classes = (data.SyntheticSpec, training.TrainConfig, evaluate.ClassifierConfig,
               evaluate.EvalConfig)
    fields = [(cls.__name__, f.name) for cls in classes for f in dataclasses.fields(cls)]
    assert len(fields) > 20
    assert [f"{cls}.{name}" for cls, name in fields
            if not any(owner != cls and attr == name for owner, attr in read)] == []
