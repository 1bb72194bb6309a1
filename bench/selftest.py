"""Self-test of the tracer; run from the repository root (about two minutes):

    python3 bench/selftest.py

1. Untraced calls leave every attribute of every package module, and of
   the instrumented classes, identical (``is``) to what it was at import;
   so does installing and then removing the tracer.
2. While installed, no package module still holds an original traced
   function under any name: the ``from .algebra import ...`` copies in
   ``symbolic`` and ``cli`` are wrapped, and so is the ``reference_series``
   that ``verify_guess`` imports when it is called.
3. One traced pass of each workload shows nonzero work in the layers that
   workload is meant to load, and no failed job.
4. The speed sampler takes samples while started and puts the previous
   SIGALRM handler back when stopped.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from motzkin_autocount import algebra, cli, numeric_dp, stepset  # noqa: E402

import tracer as T  # noqa: E402

HEAVY = {
    "derive": ["algebra.eliminate_s", "algebra.mul_calls", "algebra.exact_div_calls",
               "algebra.linear_solve_s", "algebra.series_vanishes_s",
               "algebra.eliminant_deg_p", "symbolic.grammar_s", "symbolic.states",
               "symbolic.solve_s", "symbolic.reference_calls", "guesser.guess_calls",
               "numeric_dp.tables_built", "cli.main_s"],
    "count": ["numeric_dp.table_s", "numeric_dp.tables_built",
              "numeric_dp.rows_requested", "stepset.contains_calls"],
    "guess": ["guesser.guess_s", "guesser.guess_calls", "guesser.found_ratio",
              "guesser.verify_s", "symbolic.reference_calls"],
    "crosscheck": ["oracle.sequence_s", "oracle.calls", "oracle.paths_scanned"],
}


def snapshot() -> dict:
    owners = [m for name, m in sys.modules.items()
              if m is not None and name.split(".")[0] == "motzkin_autocount"]
    owners += [algebra.MPoly, stepset.StepSet, numeric_dp.DPTable]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def assert_same(before: dict, after: dict, when: str) -> None:
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, f"{when}: {len(changed)} attributes replaced"


def quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_untraced_and_restored() -> None:
    before = snapshot()
    assert quiet(["fab", "--A", "{2*r+1}", "--B", "{2*r+1}"]) == 0
    assert quiet(["seq", "--N", "20"]) == 0
    assert_same(before, snapshot(), "untraced run")
    tr = T.Tracer()
    tr.install()
    tr.uninstall()
    assert_same(before, snapshot(), "after uninstall")


def test_every_binding_is_wrapped() -> None:
    originals = {}
    for mod_name, attr, _ in T.SPANS:
        mod = sys.modules[f"motzkin_autocount.{mod_name}"]
        originals[(mod_name, attr)] = getattr(mod, attr)
    tr = T.Tracer()
    tr.install()
    try:
        for owner in [m for n, m in sys.modules.items() if n.startswith("motzkin_autocount")]:
            for name, value in vars(owner).items():
                for key, fn in originals.items():
                    assert value is not fn, f"{owner.__name__}.{name} is the unwrapped {key}"
        from motzkin_autocount import symbolic

        for mod, name in [(symbolic, "exact_div"), (symbolic, "eliminate_to_root"),
                          (symbolic, "linear_solve"), (symbolic, "sqfree_part"),
                          (symbolic, "series_vanishes"), (cli, "series_vanishes"),
                          (cli, "guess_algebraic"), (cli, "reference_series")]:
            assert getattr(getattr(mod, name), "__wrapped__", None) is not None, name
        assert quiet(["guess", "--D", "{1}", "--E", "{1}", "--N", "40",
                      "--maxp", "3", "--maxx", "6"]) == 0
    finally:
        tr.uninstall()
    names = [s[0] for s in tr.spans]
    under_verify = [s for s in tr.spans if s[0] == "symbolic.reference"
                    and s[3] is not None and names[s[3]] == "guesser.verify"]
    assert under_verify, "reference_series called by verify_guess was not traced"


def test_layers_on_heavy_workloads() -> None:
    for workload, metrics in HEAVY.items():
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
             "--seed", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["failed"] == 0, (workload, proc.stderr)
        zero = [m for m in metrics if not res["layers"][m]]
        assert not zero, f"{workload}: no work recorded in {zero}"
        print(f"{workload}: " + ", ".join(f"{m}={res['layers'][m]:.4g}" for m in metrics))


def test_speed_sampler() -> None:
    import signal
    import time

    from speed import Sampler

    before = signal.getsignal(signal.SIGALRM)
    sampler = Sampler()
    sampler.start()
    end = time.perf_counter() + 1.0
    while time.perf_counter() < end:
        sum(range(1000))
    sampler.stop()
    assert len(sampler.samples) >= 3, sampler.samples
    assert sampler.spent_wall > 0 and sampler.scale() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def main() -> None:
    for test in (test_untraced_and_restored, test_every_binding_is_wrapped,
                 test_speed_sampler, test_layers_on_heavy_workloads):
        test()
        print(f"{test.__name__}: ok", flush=True)


if __name__ == "__main__":
    main()
