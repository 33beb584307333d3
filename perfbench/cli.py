"""Run the ``repro`` command line exactly as ``python -m repro`` does, then report.

Usage (``run.py`` starts it; ``PYTHONPATH`` must hold the checkout's ``src``)::

    python3 perfbench/cli.py [--trace] ARGS...

ARGS are those of ``python -m repro``.  After the command returns, the
process prints ``perfbench cli {json}`` with its own peak resident set
(forked workers are not counted) and the command's exit code.  With
``--trace`` it first times ``import repro`` and wraps the scenario
loader, the lint preflight and model compilation from here (nothing in
``src`` is instrumented), and adds those timings under ``layers``.
"""

from __future__ import annotations

import functools
import json
import resource
import runpy
import sys
import time


def main(argv: list[str]) -> int:
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    spent = {"scenario": 0.0, "preflight": 0.0, "compile": 0.0}
    layers: dict[str, float] = {}
    if traced:
        n_mods = len(sys.modules)
        t0 = time.perf_counter()
        import repro  # noqa: F401  (the import is the measured layer)

        layers["import.repro_s"] = time.perf_counter() - t0
        layers["import.modules"] = len(sys.modules) - n_mods

        import repro.scenario
        import repro.scenario.compile
        from repro.core.model import Model

        def timed(fn, key):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t1 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent[key] += time.perf_counter() - t1

            return wrapper

        # the CLI and the orchestrator look these names up at call time
        repro.scenario.find_scenario = timed(
            repro.scenario.find_scenario, "scenario")
        repro.scenario.compile.lint_scenario = timed(
            repro.scenario.compile.lint_scenario, "preflight")
        Model.compile = timed(Model.compile, "compile")

    sys.argv = ["repro"] + argv
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    report: dict = {
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if traced:
        from repro.backends.cnative import cnative_self_check

        # the same check cnative runs at import time, repeated to time it
        t0 = time.perf_counter()
        cnative_self_check()
        layers["lint.cnative_selfcheck_s"] = time.perf_counter() - t0
        layers["scenario.compile_s"] = spent["scenario"]
        layers["lint.preflight_s"] = spent["preflight"]
        layers["core.compile_s"] = spent["compile"]
        report["layers"] = layers
    print("perfbench cli " + json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
