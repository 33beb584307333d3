"""The per-layer counts a later change may rest a claim on repeat exactly.

Runs the traced benchmark twice per workload with one seed and compares
the counts.  Takes about two minutes; run it from the checkout root::

    python3 -m pytest perfbench/test_exact_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"

#: counts that must not move between two runs of one commit with one seed
EXACT = ("import.modules", "kernel.calls_per_step",
         "executor.ipc_bytes_per_trial", "executor.writes_per_chunk",
         "jobs.journal_appends")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {k: v["value"] for k, v in result["metrics"].items()}


# the traced pndca-serial run also traces the executor (pndca-parallel) and
# RSM; rsm-dmc is not gated but its own traced run must repeat as well
@pytest.mark.parametrize("workload", ["pndca-serial", "rsm-dmc", "zoo-sweep"])
def test_counts_repeat_exactly(workload):
    first = traced_run(workload, 7)
    second = traced_run(workload, 7)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
