"""One in-process workload command: set up, run one timed segment, report.

Usage (``run.py`` starts it; ``PYTHONPATH`` must hold the checkout's ``src``)::

    python3 perfbench/workload.py KIND SEED WARM.npz OUT.npz [--trace]

KIND is ``pndca-serial``, ``rsm-dmc`` or ``pndca-parallel``.  The process
prints ``perfbench ready`` once the first trial can run, then one
``perfbench result {json}`` line; the end state goes to OUT.npz for the
harness to check.  With ``--trace`` it also times the calls into each
layer from here (wrapping public functions; nothing in ``src`` is
instrumented) and reports those timings and counts under ``layers``.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import sys
import time
import warnings


class Acc:
    """Time, calls and items of the wrapped calls into one layer."""

    __slots__ = ("s", "calls", "items")

    def __init__(self) -> None:
        self.s = 0.0
        self.calls = 0
        self.items = 0


def timed(fn, acc: Acc, items=None):
    """``fn`` wrapped to add its wall time (and ``items(args)``) to ``acc``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc.s += time.perf_counter() - t0
            acc.calls += 1
            if items is not None:
                acc.items += items(args)

    return wrapper


def proc_io() -> dict[str, int]:
    """This process's I/O counters (``wchar``, ``syscw``, ...) from /proc."""
    with open("/proc/self/io") as fh:
        return {k: int(v) for k, v in
                (line.split(":") for line in fh if ":" in line)}


def window_rates(marks: list[tuple[float, int]], size: int) -> list[float]:
    """Trials per second of consecutive windows of at least ``size`` trials.

    ``marks`` are ``(perf_counter, n_trials)`` pairs, the first taken when
    the segment starts and one after every step.  Windows end at the first
    step that completes ``size`` trials; a last, shorter window is dropped.
    Every process of a run simulates the same trials, so its windows hold
    the same work.
    """
    rates = []
    t0, n0 = marks[0]
    for t, n in marks[1:]:
        if n - n0 >= size:
            rates.append((n - n0) / (t - t0))
            t0, n0 = t, n
    return rates


def p90(values) -> float:
    """Nearest-rank 90th percentile (0 for no values)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[math.ceil(0.9 * len(s)) - 1]


def main(argv: list[str]) -> int:
    kind, seed, warm_path, out_path = argv[0], int(argv[1]), argv[2], argv[3]
    traced = "--trace" in argv[4:]

    n_mods = len(sys.modules)
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import is the measured layer)

    import_s = time.perf_counter() - t0
    import_modules = len(sys.modules) - n_mods

    import numpy as np

    import inputs
    from repro import Lattice, five_chunk_partition
    from repro.backends import BackendFallbackWarning
    from repro.core.model import Model
    from repro.core.state import Configuration
    from repro.lint import engine as lint_engine

    # a silent fallback to the numpy tier must fail the run, not time it
    warnings.simplefilter("error", BackendFallbackWarning)

    acc = {name: Acc() for name in (
        "compile", "preflight", "draw_types", "draw_sites", "batch",
        "sequential", "chunk")}
    from repro.obs.trace import NullTracer

    class StepClock(NullTracer):
        """Stamps the time and the engine's trial count after every step.

        A disabled tracer otherwise, so it adds one list append per step
        (every 0.5-6 ms) and nothing per chunk.
        """

        def __init__(self) -> None:
            self.engine = None
            self.marks: list[tuple[float, int]] = []

        def on_step(self, step_no: int, sim_time: float) -> None:
            self.marks.append((time.perf_counter(), self.engine.n_trials))

    clock = StepClock()
    executor_log = None
    if traced:
        import repro.ca.pndca
        import repro.core.rng
        import repro.dmc.rsm
        from repro.obs.metrics import MetricsCollector

        class SliceLog(MetricsCollector):
            """Keeps every executor observation in order (chunk, its slices)."""

            def __init__(self) -> None:
                super().__init__()
                self.log: list[tuple[str, float]] = []

            def observe(self, name: str, value: float) -> None:
                self.log.append((name, float(value)))

        Model.compile = timed(Model.compile, acc["compile"])
        for name in ("preflight_model", "preflight_partition"):
            setattr(lint_engine, name,
                    timed(getattr(lint_engine, name), acc["preflight"]))
        n_arg = (lambda a: int(a[2]))
        for mod in (repro.ca.pndca, repro.dmc.rsm, repro.core.rng):
            mod.draw_types = timed(mod.draw_types, acc["draw_types"], n_arg)
        repro.dmc.rsm.draw_sites = timed(repro.dmc.rsm.draw_sites,
                                         acc["draw_sites"], n_arg)
        executor_log = SliceLog()

    model = inputs.zgb()
    lint_engine.preflight_model(model)
    lattice = Lattice((inputs.SIDE, inputs.SIDE))
    warm = np.load(warm_path)
    initial = Configuration(lattice, model.species, warm["state"])
    partition = None
    partition_s = 0.0
    if kind != "rsm-dmc":
        t1 = time.perf_counter()
        partition = five_chunk_partition(lattice)
        partition_s = time.perf_counter() - t1
    executor = None
    spawn_s = 0.0
    if kind == "pndca-parallel":
        from repro.parallel.executor import ParallelChunkExecutor

        t1 = time.perf_counter()
        executor = ParallelChunkExecutor(
            model, lattice, n_workers=inputs.N_WORKERS,
            backend=inputs.BACKEND, metrics=executor_log)
        spawn_s = time.perf_counter() - t1
    try:
        engine = inputs.make_engine(
            kind, model, lattice, inputs.segment_rng(seed), initial,
            partition=partition, executor=executor, tracer=clock)
        clock.engine = engine
        if traced:
            ks = engine.kernels
            ks.run_trials_batch = timed(ks.run_trials_batch, acc["batch"],
                                        lambda a: len(a[2]))
            ks.run_trials_sequential = timed(
                ks.run_trials_sequential, acc["sequential"],
                lambda a: len(a[2]))
            if executor is not None:
                executor.execute_chunk = timed(executor.execute_chunk,
                                               acc["chunk"])
        print("perfbench ready", flush=True)

        io0 = proc_io() if traced else None
        t1 = time.perf_counter()
        clock.marks.append((t1, engine.n_trials))
        inputs.run_segment(kind, engine)
        segment_s = time.perf_counter() - t1
        io1 = proc_io() if traced else None

        trials = int(engine.n_trials)
        executed = int(engine.executed_per_type.sum())
        np.savez(out_path, state=engine.state.array.copy(),
                 executed=engine.executed_per_type.copy(),
                 n_trials=trials, time=float(engine.time))
    finally:
        if executor is not None:
            executor.close()

    result = {
        "segment_s": segment_s,
        "trials": trials,
        "rates": window_rates(clock.marks, inputs.WINDOW_TRIALS),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if traced:
        from repro.backends.cnative import cnative_self_check

        # the same check cnative runs at import time, repeated to time it
        t2 = time.perf_counter()
        cnative_self_check()
        selfcheck_s = time.perf_counter() - t2

        stamps = [t for t, _ in clock.marks]
        steps = len(stamps) - 1
        step_s = [b - a for a, b in zip(stamps, stamps[1:])]
        chunks: list[list[float]] = []
        for name, value in executor_log.log:
            if name == "executor.chunk.wall":
                chunks.append([])
            elif name == "executor.slice.wall" and chunks:
                chunks[-1].append(value)
        slice_s = sum(max(c) for c in chunks if c)
        kernel_s = acc["batch"].s + acc["sequential"].s
        kernel_trials = acc["batch"].items + acc["sequential"].items
        rng_s = acc["draw_types"].s + acc["draw_sites"].s
        draws = acc["draw_types"].items + acc["draw_sites"].items
        n_chunks = acc["chunk"].calls
        result["layers"] = {
            "import.repro_s": import_s,
            "import.modules": import_modules,
            "lint.preflight_s": acc["preflight"].s,
            "lint.cnative_selfcheck_s": selfcheck_s,
            "core.compile_s": acc["compile"].s,
            "partition.build_s": partition_s,
            "rng.draw_types_s": acc["draw_types"].s,
            "rng.draw_sites_s": acc["draw_sites"].s,
            "rng.ns_per_draw": 1e9 * rng_s / draws if draws else 0.0,
            "kernel.batch_s": acc["batch"].s,
            "kernel.sequential_s": acc["sequential"].s,
            "kernel.ns_per_trial": (1e9 * kernel_s / kernel_trials
                                    if kernel_trials else 0.0),
            "kernel.calls_per_step": (
                (acc["batch"].calls + acc["sequential"].calls) / steps
                if steps else 0.0),
            "kernel.acceptance": executed / trials if trials else 0.0,
            "engine.self_s": segment_s - rng_s - kernel_s - acc["chunk"].s,
            "engine.step_ms_p50": 1e3 * statistics.median(step_s),
            "engine.step_ms_p90": 1e3 * p90(step_s),
            "engine.steps": steps,
            "executor.trials_per_s": (trials / segment_s
                                      if executor is not None else 0.0),
            "executor.spawn_s": spawn_s,
            "executor.chunk_s": acc["chunk"].s,
            "executor.slice_s": slice_s,
            "executor.wait_s": acc["chunk"].s - slice_s if n_chunks else 0.0,
            "executor.ipc_bytes_per_trial": (io1["wchar"] - io0["wchar"]) / trials,
            "executor.writes_per_chunk": (
                (io1["syscw"] - io0["syscw"]) / n_chunks if n_chunks else 0.0),
        }
    print("perfbench result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
