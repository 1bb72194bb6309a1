"""The scripts under scripts/ run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
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
