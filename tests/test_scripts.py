"""The scripts under scripts/, and one pass of each benchmark workload, run end to end."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, folder="scripts"):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / folder / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_equation_audit_battery_is_clean():
    proc = run_script("equation_audit.py", "--count", "2", "--n", "8", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("ok ") for line in lines[:2])
    assert lines[2].startswith("2/2 systems clean")


def test_reproduce_outputs_prints_the_pinned_equations(golden_equations):
    proc = run_script("reproduce_outputs.py")
    assert proc.returncode == 0, proc.stderr
    # each line is: job name, wall time, then the output after two spaces
    outputs = {m[1] for m in re.finditer(r" \d+\.\d\ds  (.*)", proc.stdout)}
    for spec, want in golden_equations:
        assert want in outputs, spec


@pytest.mark.parametrize("workload, trace", [
    ("derive", "0"), ("count", "0"), ("guess", "0"), ("crosscheck", "0"), ("derive", "1"),
])
def test_benchmark_worker_runs_each_workload(workload, trace):
    # the benchmark imports names from the package; a pass that cannot find
    # one fails here instead of only when the benchmark runs
    proc = run_script("worker.py", "--workload", workload, "--seed", "1", "--trace", trace,
                      folder="bench")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0 and result["failed"] == 0, proc.stderr
    assert (result["layers"] is not None) == (trace == "1")
    if workload == "derive" and trace == "1":
        # the tracer wraps DPTable.__init__(spec) and DPTable.ensure(m); a
        # renamed hook would read 0 here instead of failing
        assert result["layers"]["numeric_dp.tables_built"] > 0
        assert result["layers"]["numeric_dp.rows_requested"] > 0
