"""Inputs and property checks shared by the harness and its workload processes.

Everything a workload simulates is made here from the ``--seed`` of the
run: the ZGB parameterisation, the 400x400 lattice, the reactive steady
state the timed segments start from, and the sweep scenario.  The
checks test properties of the methods (species balance, trial counts,
staying reactive), not stored output.

``repro`` is imported inside the functions, never at module level, so a
workload process can time ``import repro`` itself.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

#: lattice side; 400 is a multiple of 5, so the five-chunk partition has
#: five equal chunks of 32,000 sites
SIDE = 400
#: ZGB CO fraction and reaction rate that RSM and PNDCA both keep
#: reactive (theta_CO ~ 0.045, theta_O ~ 0.65, acceptance ~ 3 %)
Y_CO = 0.45
K_REACTION = 10.0
#: the transient ends by t ~ 50; timed segments start from this state
WARM_UNTIL = 50.0
#: timed segment length per workload: PNDCA steps, or RSM simulated time
SEGMENT_STEPS = {"pndca-serial": 400, "pndca-parallel": 150}
RSM_SEGMENT = 25.0
#: trials_per_s is the median rate over windows of this many trials
#: (10 PNDCA steps, about 195 RSM blocks; 0.05-0.2 s each), pooled over
#: the run's processes, so a burst of host slowdown shorter than half
#: the run moves it little
WINDOW_TRIALS = 10 * SIDE * SIDE
#: executor and orchestrator workers (the host has 2 CPUs)
N_WORKERS = 2
BACKEND = "cnative"
#: sweep scenario from the zoo; its seed axis is replaced from --seed,
#: and ``--until`` lengthens its points from t=5 so that the points, not
#: only start-up, take a measurable share of the command
SWEEP_SCENARIO = "ab2-desorption"
SWEEP_UNTIL = 100.0

#: the gated workloads first; the last two run by hand (README.md)
WORKLOADS = ("pndca-serial", "zoo-sweep", "rsm-dmc", "pndca-parallel")


def zgb():
    """The reactive ZGB model all in-process workloads simulate."""
    from repro.models import zgb_model

    return zgb_model(Y_CO, k_reaction=K_REACTION)


def warm_rng(seed: int) -> np.random.Generator:
    """Stream of the warm-up run (empty lattice to ``WARM_UNTIL``)."""
    return np.random.default_rng([seed, 0])


def segment_rng(seed: int) -> np.random.Generator:
    """Stream of every timed segment of a run (the same for each process)."""
    return np.random.default_rng([seed, 1])


def make_engine(kind, model, lattice, rng, initial, *, partition=None,
                executor=None, tracer=None):
    """The engine of one workload; ``pndca-parallel`` needs an executor."""
    from repro import PNDCA, RSM

    common = {"seed": rng, "initial": initial, "backend": BACKEND,
              "tracer": tracer}
    if kind == "rsm-dmc":
        return RSM(model, lattice, **common)
    if kind == "pndca-serial":
        return PNDCA(model, lattice, partition=partition,
                     strategy="random-order", **common)
    from repro.parallel.executor import ParallelPNDCA

    return ParallelPNDCA(model, lattice, partition=partition,
                         strategy="random-order", executor=executor, **common)


def run_segment(kind: str, engine) -> None:
    """Advance ``engine`` by one timed segment of its workload."""
    if kind == "rsm-dmc":
        engine.run(until=engine.time + RSM_SEGMENT)
    else:
        # the horizon never binds: the segment is exactly this many steps
        engine.run(until=math.inf, max_steps=SEGMENT_STEPS[kind])


def warm_up(kind: str, seed: int) -> dict:
    """Run from the empty lattice to ``WARM_UNTIL``; return the end state.

    ``pndca-parallel`` warms up with serial PNDCA, which is bit-identical
    to it by contract.
    """
    from repro import Lattice, five_chunk_partition
    from repro.obs.trace import Tracer

    model = zgb()
    lattice = Lattice((SIDE, SIDE))
    engine_kind = "rsm-dmc" if kind == "rsm-dmc" else "pndca-serial"
    partition = None if kind == "rsm-dmc" else five_chunk_partition(lattice)
    tracer = Tracer()
    engine = make_engine(engine_kind, model, lattice, warm_rng(seed), None,
                         partition=partition, tracer=tracer)
    engine.run(until=WARM_UNTIL)
    steps = sum(1 for e in tracer.events if e[0] == "step")
    return {
        "state": engine.state.array.copy(),
        "executed": engine.executed_per_type.copy(),
        "n_trials": int(engine.n_trials),
        "time": float(engine.time),
        "steps": steps,
    }


# ----------------------------------------------------------------------
# property checks: each returns an error message, or None when it holds
# ----------------------------------------------------------------------
def species_counts(model, state: np.ndarray) -> dict[str, int]:
    counts = np.bincount(state, minlength=len(model.species))
    return {name: int(counts[model.species.code(name)])
            for name in model.species.names}


def check_species_balance(model, state, executed) -> str | None:
    """From an empty lattice, CO and O counts follow from executed events."""
    names = [rt.name for rt in model.reaction_types]
    ex = dict(zip(names, (int(x) for x in executed)))
    coo = sum(v for k, v in ex.items() if k.startswith("CO+O"))
    o2 = sum(v for k, v in ex.items() if k.startswith("O2_ads"))
    co_ads = ex["CO_ads"]
    got = species_counts(model, state)
    want = {"CO": co_ads - coo, "O": 2 * o2 - coo}
    if got["CO"] != want["CO"] or got["O"] != want["O"]:
        return f"species balance: lattice holds {got}, events give {want}"
    return None


def check_reactive(model, state) -> str | None:
    """The run ended in the reactive window, not an absorbing state."""
    n = state.size
    c = species_counts(model, state)
    if c["*"] == 0 or c["CO"] == n or c["O"] == n:
        return f"not reactive at the end: {c}"
    return None


def check_pndca_trials(n_trials: int, steps: int) -> str | None:
    """PNDCA makes exactly one trial per site per step."""
    if n_trials != steps * SIDE * SIDE:
        return f"PNDCA trials {n_trials} != {steps} steps x {SIDE * SIDE} sites"
    return None


def check_rsm_trials(model, n_trials: int, elapsed: float) -> str | None:
    """RSM trials over a time span are Poisson with mean N*K*T."""
    mean = SIDE * SIDE * model.total_rate * elapsed
    if abs(n_trials - mean) > 5.0 * math.sqrt(mean):
        return f"RSM trials {n_trials} outside 5 sigma of N*K*T = {mean:.0f}"
    return None


# ----------------------------------------------------------------------
# the sweep workload
# ----------------------------------------------------------------------
def sweep_toml(root: Path, seed: int) -> str:
    """The zoo sweep scenario with its seed axis made from ``seed``."""
    src = root / "src" / "repro" / "scenario" / "zoo" / f"{SWEEP_SCENARIO}.toml"
    text = src.read_text()
    seeds = ", ".join(str(3 * seed + i) for i in range(3))
    new, n = re.subn(r"(?m)^seed = \[[0-9, ]*\]$", f"seed = [{seeds}]", text)
    if n != 1:
        raise RuntimeError(f"{src}: no single sweep seed axis to replace")
    return new


def serial_sweep_lines(toml_path: Path) -> list[str]:
    """Digest lines of the in-process serial runner for every grid point."""
    from repro.scenario import load_scenario
    from repro.scenario.runner import run_sweep_point

    spec = load_scenario(toml_path)
    return [run_sweep_point(spec, point, until=SWEEP_UNTIL, backend=BACKEND)
            for point in spec.sweep.grid()]
