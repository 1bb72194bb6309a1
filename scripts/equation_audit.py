"""Audit the run grammar against brute force on a battery of random specs.

For every spec, every generated equation is checked as a counting
identity on brute-force counts of its states (audit_system, which reads
the run-state oracle oracle.state_series), the root series from rule
iteration is compared with the enumeration oracle, and the guess-and-prove
route is run on the spec's DP table: the line shows the degrees
(deg_P, deg_x) of the equation it proved, that it declined, or that it
found the root series inconsistent with the DP (the spec then counts as
BAD), and the wall time the spec took; `fcde` prints the same proved
equations and exits 3 on the declined specs.  The script exits 1 when
some spec is BAD.

    PYTHONPATH=src python scripts/equation_audit.py --count 30 --n 10 --seed 7
"""

from __future__ import annotations

import argparse
import random
import time

from motzkin_autocount import DPTable, RestrictionSpec, StepSet, oracle_sequence, parse_stepset
from motzkin_autocount.symbolic import (
    audit_system,
    build_run_system,
    guess_and_prove,
    iterate_series,
)

POOL = ["{}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2*r+1}", "{2*r+2}", "{r+2}"]


def random_sets(rng: random.Random) -> tuple[StepSet, StepSet, StepSet]:
    return tuple(parse_stepset(rng.choice(POOL)) for _ in range(3))


def battery(count: int, n: int, seed: int) -> int:
    rng = random.Random(seed)
    bad = proved = 0
    for i in range(count):
        start = time.perf_counter()
        C, D, E = random_sets(rng)
        system = build_run_system(C, D, E)
        spec = RestrictionSpec(up_runs=C, down_runs=D, flat_runs=E)
        violations = audit_system(system, min(n, 8))
        got = iterate_series(system, n)
        want = oracle_sequence(spec, n)
        ok = not violations and got == want
        try:
            F = guess_and_prove(system, DPTable(spec))
        except RuntimeError:
            # the root series left the DP past the n terms compared above
            ok, route = False, "inconsistent"
        else:
            proved += F is not None
            route = "declined" if F is None else f"proved ({F.degree('P')},{F.degree('x')})"
        bad += not ok
        tag = "ok " if ok else "BAD"
        print(f"{tag} C={C!r} D={D!r} E={E!r} states={system.size()} route {route}"
              + (f" violations={violations}" if violations else "")
              + f" time={time.perf_counter() - start:.2f}s", flush=True)
    print(f"{count - bad}/{count} systems clean, route proved {proved}/{count}")
    return bad


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=30, help="battery size")
    ap.add_argument("--n", type=int, default=10, help="series length checked")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    raise SystemExit(1 if battery(args.count, args.n, args.seed) else 0)


if __name__ == "__main__":
    main()
