"""Benchmark: CA vs DMC throughput, the chunk-parallel executor, CLI start-up.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

``pndca-serial``    serial PNDCA on a 400x400 reactive ZGB lattice
``zoo-sweep``       ``python -m repro sweep`` over a 12-point zoo grid
``rsm-dmc``         RSM (the DMC baseline) on the same model and lattice
``pndca-parallel``  ParallelPNDCA on a 2-worker ParallelChunkExecutor

The last two are not gated (too unsteady on a shared host, see
README.md); the traced ``pndca-serial`` run traces one process of each
on its own warm state, so their layers are measured in every traced run.

Each workload runs as a closed loop with one caller: the harness starts
one fresh workload process, waits for it to end, and starts the next,
until another one would not end within ``--seconds``.  Before that it
builds the cnative library into its own cache and, for the in-process
workloads, runs the seed's warm-up from the empty lattice to the
reactive steady state that every timed segment starts from.  After the
loop it checks every process's output against properties of the
method.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Every value
is the median over the run's processes, except the in-process
``trials_per_s``: the median over fixed-size windows of trials pooled
from all the run's processes.

With ``--trace 1`` the processes alternate between traced and untraced;
the traced ones give the per-layer numbers and both together give the
tracing overhead.

Everything is written under ``.bench_build/perfbench`` in the checkout.
The harness exits non-zero without a result when the checkout has no
``src/repro`` or the cnative tier cannot be built.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

#: one workload process may take this long before it is killed
CHILD_TIMEOUT = 90.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "import.repro_s": "s",
    "import.modules": "count",
    "scenario.compile_s": "s",
    "lint.preflight_s": "s",
    "lint.cnative_selfcheck_s": "s",
    "core.compile_s": "s",
    "partition.build_s": "s",
    "rng.draw_types_s": "s",
    "rng.draw_sites_s": "s",
    "rng.ns_per_draw": "ns",
    "kernel.batch_s": "s",
    "kernel.sequential_s": "s",
    "kernel.ns_per_trial": "ns",
    "kernel.calls_per_step": "count",
    "kernel.acceptance": "ratio",
    "engine.self_s": "s",
    "engine.step_ms_p50": "ms",
    "engine.step_ms_p90": "ms",
    "engine.steps": "count",
    "executor.trials_per_s": "1/s",
    "executor.spawn_s": "s",
    "executor.chunk_s": "s",
    "executor.slice_s": "s",
    "executor.wait_s": "s",
    "executor.ipc_bytes_per_trial": "B/trial",
    "executor.writes_per_chunk": "count",
    "dmc.trials_per_s": "1/s",
    "dmc.rng.draw_types_s": "s",
    "dmc.rng.ns_per_draw": "ns",
    "dmc.kernel.ns_per_trial": "ns",
    "dmc.kernel.acceptance": "ratio",
    "dmc.engine.self_s": "s",
    "dmc.engine.step_ms_p50": "ms",
    "jobs.point_s_p50": "s",
    "jobs.journal_appends": "count",
    "jobs.journal_bytes": "B",
    "trace.overhead_pct": "%",
}


class Fatal(Exception):
    """The benchmark cannot run here at all: exit without a result."""


class Run:
    """Operation accounting of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, ok: bool) -> None:
        """Count one simulation run or sweep point."""
        self.attempted += 1
        self.failed += not ok

    def check(self, error: str | None) -> None:
        """Count one property check; a failed check marks the run incorrect."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.correct = False
            print(f"perfbench: check failed: {error}", file=sys.stderr)


class Child:
    """One finished workload process and what it printed."""

    def __init__(self, wall: float, code: int, lines: list, stderr: str,
                 kind: str, traced: bool):
        self.wall = wall
        self.code = code
        self.lines = lines  # (seconds since start, text)
        self.stderr = stderr
        self.kind = kind
        self.traced = traced
        self.journal = b""  # the sweep's write-ahead journal, when it has one
        self.result: dict | None = None
        for _, text in lines:
            for tag in ("perfbench result ", "perfbench cli "):
                if text.startswith(tag):
                    self.result = json.loads(text[len(tag):])

    def stamp(self, prefix: str) -> float | None:
        """When the first line starting with ``prefix`` arrived."""
        for t, text in self.lines:
            if text.startswith(prefix):
                return t
        return None

    @property
    def ok(self) -> bool:
        return (self.code == 0 and self.result is not None
                and "BackendFallbackWarning" not in self.stderr)


def environment() -> dict[str, str]:
    """Environment of the harness and its processes: the checkout's code only."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise Fatal(f"no src/repro under {ROOT}: nothing to benchmark")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {
        "PYTHONPATH": str(src),
        # the compiled library lives in the benchmark's own cache, built
        # before any timing so a compile never lands in setup_s
        "REPRO_CNATIVE_CACHE": str(WORK / "cnative"),
        "TMPDIR": str(tmp),
    }
    os.environ.update(env)
    os.environ.pop("REPRO_NATIVE_LINT_SKIP", None)
    sys.path.insert(0, str(src))
    return dict(os.environ)


def prepare() -> None:
    """Import the code under test from the checkout and build cnative."""
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise Fatal(f"repro resolves to {repro.__file__}, not this checkout")
    from repro.backends.cnative import cnative_available

    if not cnative_available():
        raise Fatal("the cnative tier cannot be built here (no C compiler?); "
                    "refusing to time the numpy tier in its place")
    # write the bytecode of everything the workload processes import
    import repro.__main__  # noqa: F401
    import repro.jobs.cli  # noqa: F401
    import repro.jobs.orchestrator  # noqa: F401
    import repro.parallel.executor  # noqa: F401
    import repro.scenario.runner  # noqa: F401


def run_child(cmd: list[str], env: dict[str, str], kind: str, traced: bool,
              errpath: Path) -> Child:
    """Start one workload process, timestamp its lines, wait for its end.

    It runs in its own process group, so a hung process and any workers
    it forked are killed together at the timeout.
    """
    with open(errpath, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        lines = []
        try:
            for line in proc.stdout:
                lines.append((time.perf_counter() - t0, line.rstrip("\n")))
            code = proc.wait()
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        err.seek(0)
        stderr = err.read()
    child = Child(wall, code, lines, stderr, kind, traced)
    if not child.ok:
        print(f"perfbench: {cmd[1]} exited {code}:\n{stderr[-2000:]}",
              file=sys.stderr)
    return child


def closed_loop(seconds: float, trace: bool, start) -> list[Child]:
    """Start processes one after another until the next would overrun.

    With tracing, every other process is traced (the first one is), and
    at least one of each kind runs.
    """
    children: list[Child] = []
    t0 = time.perf_counter()
    while True:
        children.append(start(len(children), trace and len(children) % 2 == 0))
        elapsed = time.perf_counter() - t0
        print(f"perfbench: process {len(children)} ended after "
              f"{children[-1].wall:.3f} s at {elapsed:.1f} s", file=sys.stderr)
        typical = statistics.median(c.wall for c in children)
        if len(children) >= (2 if trace else 1) and elapsed + typical > seconds:
            return children


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
def in_process(kind: str, seed: int, seconds: float, trace: bool,
               env: dict[str, str], tmp: Path, run: Run) -> list[Child]:
    import numpy as np

    model = inputs.zgb()
    warm = inputs.warm_up(kind, seed)
    run.op(True)
    run.check(inputs.check_species_balance(model, warm["state"], warm["executed"]))
    run.check(inputs.check_reactive(model, warm["state"]))
    if kind == "rsm-dmc":
        run.check(inputs.check_rsm_trials(model, warm["n_trials"], warm["time"]))
    else:
        run.check(inputs.check_pndca_trials(warm["n_trials"], warm["steps"]))
    warm_path = tmp / "warm.npz"
    np.savez(warm_path, state=warm["state"])

    def start(i: int, traced: bool, which: str = kind) -> Child:
        cmd = [sys.executable, str(HERE / "workload.py"), which, str(seed),
               str(warm_path), str(tmp / f"out-{i}.npz")]
        return run_child(cmd + ["--trace"] * traced, env, which, traced,
                         tmp / f"err-{i}.txt")

    children = closed_loop(seconds, trace, start)
    if trace and kind == "pndca-serial":
        # the executor and DMC layers, traced from the same warm state
        # (pndca-parallel warms up with serial PNDCA anyway; RSM from a
        # PNDCA steady state stays reactive, and the species balance
        # holds for any sequence of executed events)
        for extra in ("pndca-parallel", "rsm-dmc"):
            children.append(start(len(children), True, extra))

    references: dict[str, dict] = {}
    for i, child in enumerate(children):
        if not child.ok:  # its run and its four checks fail with it
            run.attempted += 5
            run.failed += 5
            continue
        run.op(True)
        with np.load(tmp / f"out-{i}.npz") as out:
            got = {k: out[k] for k in ("state", "executed", "n_trials", "time")}
        run.check(inputs.check_species_balance(
            model, got["state"], warm["executed"] + got["executed"]))
        run.check(inputs.check_reactive(model, got["state"]))
        if child.kind == "rsm-dmc":
            run.check(inputs.check_rsm_trials(model, int(got["n_trials"]),
                                              inputs.RSM_SEGMENT))
        else:
            run.check(inputs.check_pndca_trials(
                int(got["n_trials"]), inputs.SEGMENT_STEPS[child.kind]))
        # every process of a run simulates the same inputs: the outputs
        # must agree bit for bit (with serial PNDCA for pndca-parallel)
        if child.kind not in references:
            references[child.kind] = (
                serial_replay(seed, warm["state"])
                if child.kind == "pndca-parallel" else got)
        run.check(same_run(got, references[child.kind]))
    return children


def serial_replay(seed: int, state) -> dict:
    """Serial PNDCA over the pndca-parallel segment, from the same state."""
    from repro import Lattice, five_chunk_partition
    from repro.core.state import Configuration

    model = inputs.zgb()
    lattice = Lattice((inputs.SIDE, inputs.SIDE))
    engine = inputs.make_engine(
        "pndca-serial", model, lattice, inputs.segment_rng(seed),
        Configuration(lattice, model.species, state),
        partition=five_chunk_partition(lattice))
    engine.run(until=float("inf"), max_steps=inputs.SEGMENT_STEPS["pndca-parallel"])
    return {"state": engine.state.array.copy(),
            "executed": engine.executed_per_type.copy(),
            "n_trials": engine.n_trials, "time": engine.time}


def same_run(got: dict, want: dict) -> str | None:
    import numpy as np

    for key in ("state", "executed", "n_trials", "time"):
        if not np.array_equal(got[key], want[key]):
            return f"{key} differs from the reference run"
    return None


# ----------------------------------------------------------------------
# the sweep workload
# ----------------------------------------------------------------------
def zoo_sweep(seed: int, seconds: float, trace: bool, env: dict[str, str],
              tmp: Path, run: Run) -> list[Child]:
    toml = tmp / f"{inputs.SWEEP_SCENARIO}.toml"
    toml.write_text(inputs.sweep_toml(ROOT, seed))

    def start(i: int, traced: bool) -> Child:
        journal = tmp / f"journal-{i}"
        cmd = [sys.executable, str(HERE / "cli.py")] + ["--trace"] * traced + [
            "sweep", str(toml), "--jobs", str(inputs.N_WORKERS),
            "--journal", str(journal), "--backend", inputs.BACKEND,
            "--until", repr(inputs.SWEEP_UNTIL)]
        child = run_child(cmd, env, "zoo-sweep", traced, tmp / f"err-{i}.txt")
        log = journal / "journal.jsonl"
        if log.is_file():
            child.journal = log.read_bytes()
        return child

    children = closed_loop(seconds, trace, start)
    want = inputs.serial_sweep_lines(toml)
    for child in children:
        if not child.ok:  # its points and its check fail with it
            run.attempted += len(want) + 1
            run.failed += len(want) + 1
            continue
        got = [text for _, text in child.lines if text.startswith("sweep ")
               and " digest " in text]
        for line in want:
            run.op(line in got)
        journal = child.journal
        # one done record per point, and the serial runner's lines exactly
        done = journal.count(b'"event":"done"') + journal.count(b'"event": "done"')
        run.check(None if sorted(got) == sorted(want) and done == len(want)
                  else f"sweep output differs from the serial runner "
                       f"({len(got)} lines, {done} journaled)")
    return children


def sweep_numbers(child: Child) -> tuple[float, list[float]]:
    """(trials per second, gaps between digest lines) of one sweep process."""
    ready = child.stamp("sweep: ")
    points = [(t, text) for t, text in child.lines
              if text.startswith("sweep ") and " digest " in text]
    trials = sum(int(text.rsplit("trials=", 1)[1]) for _, text in points)
    stamps = [t for t, _ in points]
    rate = trials / (stamps[-1] - ready) if points and ready is not None else 0.0
    return rate, [b - a for a, b in zip(stamps, stamps[1:])]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def child_rates(child: Child) -> list[float]:
    """Trials per second of one process: per window in process, else whole."""
    if child.kind == "zoo-sweep":
        return [sweep_numbers(child)[0]]
    return child.result["rates"]


def child_rate(child: Child) -> float:
    return statistics.median(child_rates(child))


def end_to_end(children: list[Child]) -> dict[str, float]:
    med = statistics.median
    setup = [c.stamp("sweep: " if c.kind == "zoo-sweep" else "perfbench ready")
             for c in children]
    return {
        "wall_s": med(c.wall for c in children),
        "setup_s": med(s for s in setup if s is not None),
        "trials_per_s": med(r for c in children for r in child_rates(c)),
        "peak_rss_mb": med(c.result["maxrss_kb"] / 1024.0 for c in children),
    }


def per_layer(kind: str, traced: list[Child], plain: list[Child]) -> dict:
    med = statistics.median
    own = [c for c in traced if c.kind == kind]
    parallel = [c for c in traced if c.kind == "pndca-parallel"]
    dmc = [c for c in traced if c.kind == "rsm-dmc"]
    values: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        # layers only ParallelPNDCA or RSM runs come from their processes
        key, source = name, own
        if name.startswith("executor."):
            source = parallel
        elif name.startswith("dmc."):
            key, source = name[len("dmc."):], dmc
        elif name in ("kernel.sequential_s", "rng.draw_sites_s"):
            source = dmc
        got = [c.result["layers"][key] for c in source
               if key in c.result.get("layers", {})]
        if got:
            values[name] = med(got)
    if dmc:
        values["dmc.trials_per_s"] = med(child_rate(c) for c in dmc)
    if kind == "zoo-sweep":
        gaps = [med(g) for g in (sweep_numbers(c)[1] for c in own) if g]
        values["jobs.point_s_p50"] = med(gaps) if gaps else 0.0
        logs = [c.journal for c in own]
        values["jobs.journal_appends"] = med(log.count(b"\n") for log in logs)
        values["jobs.journal_bytes"] = med(len(log) for log in logs)
    values["trace.overhead_pct"] = 100.0 * (
        med(child_rate(c) for c in plain)
        / med(child_rate(c) for c in own) - 1.0)
    return values


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    tmp = WORK / f"run-{os.getpid()}"
    try:
        env = environment()
        prepare()
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        run = Run()
        if args.workload == "zoo-sweep":
            children = zoo_sweep(args.seed, args.seconds, bool(args.trace),
                                 env, tmp, run)
        else:
            children = in_process(args.workload, args.seed, args.seconds,
                                  bool(args.trace), env, tmp, run)
        good = [c for c in children if c.ok]
        traced = [c for c in good if c.traced]
        plain = [c for c in good if not c.traced]
        if not plain or (args.trace and not traced):
            raise Fatal("no workload process completed")
        if args.trace:
            values, units = per_layer(args.workload, traced, plain), PER_LAYER
        else:
            values, units = end_to_end(plain), END_TO_END
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
