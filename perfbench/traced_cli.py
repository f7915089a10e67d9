"""Run one otzsl CLI command with timing wrappers around the calls into each
module, and write the recorded spans to a JSON file when the command ends.

Usage: python traced_cli.py SPANS_JSON <otzsl cli arguments...>

The wrappers sit at the call sites listed in sites.py. A span is
[name, start_ns, end_ns, parent_index, counters]; start and end come from the
system-wide monotonic clock, so they line up with the clock of the benchmark
that started this process. Spans are kept in memory and written once, when
the command has returned, together with the time main ended. The otzsl
import and cli.main are the top-level spans (parent -1); the benchmark hangs
them under the process span it measures itself, next to the interpreter's
start-up before them and its exit after them.
"""

import time

T0 = time.monotonic_ns()

import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import otzsl.cli  # noqa: E402,F401  (imports every otzsl module)

T_IMPORT = time.monotonic_ns()

from sites import DATASET_FILES, SITES  # noqa: E402


def _plan_counts(plan, args, kwargs):
    return {"sweeps": int(plan.iterations_used), "converged": bool(plan.converged)}


def _softmax_steps(result, args, kwargs):
    labels, cfg = args[1], args[3]
    return {"steps": cfg.epochs * math.ceil(len(labels) / cfg.batch_size)}


def _dataset_bytes(result, args, kwargs):
    return {"bytes": sum(os.path.getsize(os.path.join(args[0], f)) for f in DATASET_FILES)}


def _file_bytes(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


COUNTERS = {"plan_counts": _plan_counts, "softmax_steps": _softmax_steps,
            "dataset_bytes": _dataset_bytes, "file_bytes": _file_bytes}


class Tracer:
    def __init__(self):
        self.spans = [["cli.import", T0, T_IMPORT, -1, None]]
        self.stack = []

    def wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(result, args, kwargs)
            return result

        return traced

    def install(self):
        """Patch every site; return the sites this version of otzsl lacks."""
        missing = []
        for module_name, attr, name, counter in SITES:
            # sys.modules, not `import otzsl.evaluate as m`: the package
            # re-exports the function `evaluate`, which shadows the submodule.
            module = sys.modules.get(module_name)
            if module is None or not callable(getattr(module, attr, None)):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(getattr(module, attr), name, COUNTERS.get(counter)))
        return missing


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = tracer.install()
    cli = sys.modules["otzsl.cli"]
    code = 1
    try:
        code = tracer.wrap(cli.main, "cli.main", None)(cli_args)
    finally:
        end_ns = time.monotonic_ns()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "missing": missing, "end_ns": end_ns}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
