"""One pass of a workload in a fresh interpreter; prints one JSON line.

Started by run.py (and by selftest.py).  The pass imports the package from the
checkout's ``src``, generates the job list from the seed (that is the
set-up), then issues the jobs one after another as in-process
``cli.main(argv)`` calls and times them, sampling the machine's speed
meanwhile (speed.py).  Outputs are checked after the timed interval, with
tracing already removed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from motzkin_autocount import cli

    # refuse an installed copy of the package: only the checkout is measured
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"error: imported {cli.__file__}, not the checkout's src", file=sys.stderr)
        return 2
    import workloads
    from speed import Sampler, spot_scale

    expected = workloads.load_expected()
    jobs = workloads.jobs(args.workload, args.seed, expected)
    ready = time.time()
    setup_scale = spot_scale()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    sampler = Sampler()
    sampler.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except Exception:
            rc = "exception"
            print(f"job {' '.join(argv)} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
        results.append((argv, rc, out.getvalue()))
    wall = time.perf_counter() - t0 - sampler.spent_wall
    cpu = time.process_time() - cpu0 - sampler.spent_cpu
    sampler.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
    failed = workloads.check(args.workload, results, expected)
    for i, why in sorted(failed.items()):
        print(f"FAILED {' '.join(results[i][0])}: {why}", file=sys.stderr)
    print(json.dumps({
        "ready": ready,
        "setup_scale": setup_scale,
        "wall_s": wall,
        "cpu_s": cpu,
        "speed_scale": sampler.scale(),
        "speed_samples": len(sampler.samples),
        "peak_rss_mb": peak_kb / 1024,
        "attempted": len(results),
        "failed": len(failed),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
