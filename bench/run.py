"""Benchmark of motzkin-autocount: one workload, one seed, one JSON result.

    python3 bench/run.py --workload derive --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Closed loop, one client.  Each pass is a fresh single-threaded interpreter
(worker.py) that imports the package, builds the seeded job list and issues
the jobs one after another; passes run one at a time until the next one
would end more than half a pass after --seconds (at least one pass; with
--trace 1 at least one untraced and one traced pass, alternating).

End-to-end metrics (--trace 0), medians over the untraced passes:
wall_ref_s and cpu_ref_s, the wall and CPU time of one pass over the job
list at reference machine speed (speed.py), peak_rss_mb of the pass's
process, and setup_s, the time from starting a fresh interpreter to the
package imported and the job list generated, at reference speed (median
of at least fifteen fresh starts).  The raw wall_s and cpu_s, and fail_frac, the share of jobs
whose exit code or stdout differs from bench/expected.json, are printed
with them; fail_frac is the failed/attempted pair of the result line.  With
--trace 1 the result holds the per-layer metrics of tracer.py instead,
medians over the traced passes, plus speed.scale and trace.overhead_s.  The
last line of stdout is the JSON result; the lines before it say what ran
where.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

HASH_SEED = "0"
SETUP_SAMPLES = 15
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the package comes from the checkout only, with bytecode caching on as
    # for an installed copy
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({"PYTHONHASHSEED": HASH_SEED, "PYTHONNOUSERSITE": "1"})
    return env


def start_worker(workload: str, seed: int, trace: int, deadline: float,
                 setup_only: bool = False) -> tuple[float, dict]:
    """Run worker.py once; returns (spawn time, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    try:
        return spawned, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError("worker printed no result") from e


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # a discarded first start fills the bytecode cache, which installed
    # copies of the package have too
    start_worker(workload, seed, 0, deadline, setup_only=True)
    passes: list[tuple[int, dict]] = []
    setups: list[float] = []  # raw set-up times
    setup_scales: list[float] = []
    begin = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        spawned, res = start_worker(workload, seed, int(traced), deadline)
        setups.append(res["ready"] - spawned)
        setup_scales.append(res["setup_scale"])
        passes.append((int(traced), res))
        elapsed = time.monotonic() - begin
        per_pass = elapsed / len(passes)
        if len(passes) >= 1 + trace and elapsed + per_pass / 2 > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        spawned, res = start_worker(workload, seed, 0, deadline, setup_only=True)
        setups.append(res["ready"] - spawned)
        setup_scales.append(res["setup_scale"])

    for _, r in passes:
        r["wall_ref_s"] = r["wall_s"] * r["speed_scale"]
        r["cpu_ref_s"] = r["cpu_s"] * r["speed_scale"]
    plain = [r for t, r in passes if not t]
    traced_runs = [r for t, r in passes if t]

    def median(key: str, runs: list[dict] = plain) -> float:
        return statistics.median(r[key] for r in runs)

    summary = {
        "attempted": sum(r["attempted"] for _, r in passes),
        "failed": sum(r["failed"] for _, r in passes),
        "passes": len(plain),
        "traced_passes": len(traced_runs),
        "end_to_end": {
            "wall_ref_s": median("wall_ref_s"),
            "cpu_ref_s": median("cpu_ref_s"),
            "setup_s": statistics.median(t * k for t, k in zip(setups, setup_scales)),
            "peak_rss_mb": median("peak_rss_mb"),
        },
        "raw": {"wall_s": median("wall_s"), "cpu_s": median("cpu_s"),
                "speed_scale": median("speed_scale"),
                "raw_setup_s": statistics.median(setups)},
        "pass_wall_s": [round(r["wall_s"], 3) for r in plain],
        "pass_wall_ref_s": [round(r["wall_ref_s"], 3) for r in plain],
        "setup_samples_s": [round(s, 4) for s in setups],
    }
    if trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced_runs)
            for name in traced_runs[0]["layers"]
        }
        layers["speed.scale"] = median("speed_scale", traced_runs)
        # each traced pass against the untraced pass just before it, both at
        # reference speed, so that host speed between passes cancels
        layers["trace.overhead_s"] = statistics.median(
            traced["wall_ref_s"] - untraced["wall_ref_s"]
            for (_, untraced), (_, traced) in zip(passes[0::2], passes[1::2])
        )
        summary["per_layer"] = layers
    return summary


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # git would search the parent directories
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metrics_of(summary: dict, trace: int, units: dict, prefix: str = "") -> dict:
    values = summary["per_layer"] if trace else summary["end_to_end"]
    return {prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "motzkin_autocount" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
        "pythonhashseed": HASH_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update(metrics_of(summary, args.trace, units, prefix))
        shown = metrics_of(summary, args.trace, units)
        shown["fail_frac"] = {"value": summary["failed"] / summary["attempted"],
                              "unit": "ratio"}
        for metric, value in summary["raw"].items():
            shown[metric] = {"value": value,
                             "unit": "ratio" if metric == "speed_scale" else "s"}
        print(f"{name}: {summary['passes']} untraced and {summary['traced_passes']} "
              f"traced passes; pass wall_s {summary['pass_wall_s']}; pass wall_ref_s "
              f"{summary['pass_wall_ref_s']}; setup samples {summary['setup_samples_s']}")
        for metric, m in shown.items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
