"""Audit the run-grammar readings against brute force.

Two experiments:

  battery      random run specs; every generated equation is checked as a
               counting identity (audit_system), the root series from
               rule iteration is compared with the enumeration oracle, and
               the guess-and-prove route is run: the line shows the degrees
               (deg_P, deg_x) of the equation it proved, that it declined,
               or that it found the root series inconsistent with the DP
               (the spec then counts as BAD), and the wall time the spec
               took; `fcde` prints the same proved equations and exits 3
               on the declined specs.
  arbitration  the 2 x 2 x 2 grid of slot readings on one spec, with and
               without inactive-slot merging: state count, audit violations,
               and the first length where the root series leaves the oracle.

The arbitration table is how the shipped default readings were chosen; a
reading is wrong exactly when its column shows violations.
"""

from __future__ import annotations

import argparse
import random
import time

from motzkin_autocount import RestrictionSpec, StepSet, oracle_sequence, parse_stepset
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
            F = guess_and_prove(system, spec)
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


def arbitration(spec_literals: tuple[str, str, str], n: int) -> None:
    C, D, E = (parse_stepset(s) for s in spec_literals)
    want = oracle_sequence(RestrictionSpec(up_runs=C, down_runs=D, flat_runs=E), n)
    print(f"spec C={spec_literals[0]} D={spec_literals[1]} E={spec_literals[2]}"
          f"   oracle {','.join(str(v) for v in want)}")
    header = f"{'start_slot':10s} {'end_slot':8s} {'arch':6s} {'merge':5s} {'states':6s} {'viol':4s} {'first_div':9s}"
    print(header)
    for start_slot in ("carry", "reset"):
        for end_slot in ("reset", "carry"):
            for arch in ("reset", "carry"):
                for merge in (True, False):
                    system = build_run_system(
                        C, D, E,
                        strip_end_start_slot=start_slot,
                        strip_end_end_slot=end_slot,
                        arch_flat_slots=arch,
                        merge_inactive_slots=merge,
                    )
                    got = iterate_series(system, n)
                    div = next(
                        (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                        None,
                    )
                    viol = len(audit_system(system, min(n, 8)))
                    print(f"{start_slot:10s} {end_slot:8s} {arch:6s} {str(merge):5s} "
                          f"{system.size():6d} {viol:4d} {str(div):9s}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=30, help="battery size")
    ap.add_argument("--n", type=int, default=10, help="series length checked")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--spec", nargs=3, default=("{2}", "{}", "{1}"),
                    metavar=("C", "D", "E"),
                    help="set literals for the arbitration grid")
    ap.add_argument("--skip-battery", action="store_true")
    args = ap.parse_args()

    if not args.skip_battery:
        print("== battery ==")
        bad = battery(args.count, args.n, args.seed)
    else:
        bad = 0
    print("== arbitration grid ==")
    arbitration(tuple(args.spec), args.n)
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
