"""Regenerate every pinned sequence and equation, with wall times.

Runs the numeric counts, the symbolic derivations, and the guesser over the
full set of built-in jobs and prints what the test suite pins as goldens.

    PYTHONPATH=src python scripts/reproduce_outputs.py
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from motzkin_autocount import (
    GuessConfig,
    RestrictionSpec,
    fab,
    fcde,
    guess_algebraic,
    parse_stepset,
    poly_text,
    sequence,
)


@dataclass(frozen=True)
class Job:
    name: str
    kind: str                      # "seq" | "fab" | "fcde" | "guess"
    literals: tuple[str, ...]
    n: int = 0
    bounds: tuple[int, int] = (0, 0)


JOBS = [
    Job("motzkin numbers", "seq", ("{}",) * 5, n=10),
    Job("run lengths 1 banned", "seq", ("{}", "{}", "{1}", "{1}", "{1}"), n=11),
    Job("odd heights banned", "seq", ("{2*r+1}", "{2*r+1}", "{}", "{}", "{}"), n=11),
    Job("dyck reduction", "seq", ("{}", "{}", "{}", "{}", "{r+1}"), n=30),
    Job("fab finite {1,4}/{1,3}", "fab", ("{1,4}", "{1,3}")),
    Job("fab odd/odd", "fab", ("{2*r+1}", "{2*r+1}")),
    Job("fcde up {1,2,3}", "fcde", ("{1,2,3}", "{}", "{}")),
    Job("fcde down/flat {1}", "fcde", ("{}", "{1}", "{1}")),
    Job("fcde all odd", "fcde", ("{2*r+1}", "{2*r+1}", "{2*r+1}")),
    Job("fcde odd up, even flat", "fcde", ("{2*r+1}", "{}", "{2*r+2}")),
    Job("fcde all {1}", "fcde", ("{1}", "{1}", "{1}")),
    Job("guess motzkin", "guess", ("{}",) * 5, n=24, bounds=(2, 2)),
    Job("guess odd heights", "guess",
        ("{2*r+1}", "{2*r+1}", "{}", "{}", "{}"), n=39, bounds=(2, 4)),
    Job("guess all {1}", "guess", ("{}", "{}", "{1}", "{1}", "{1}"), n=125, bounds=(4, 20)),
]


def run(job: Job) -> str:
    sets = tuple(parse_stepset(s) for s in job.literals)
    if job.kind == "seq":
        return ",".join(str(v) for v in sequence(RestrictionSpec(*sets), job.n))
    if job.kind == "fab":
        return poly_text(fab(*sets))
    if job.kind == "fcde":
        return poly_text(fcde(*sets))
    values = sequence(RestrictionSpec(*sets), job.n)
    F = guess_algebraic(values, GuessConfig(*job.bounds))
    return poly_text(F) if F is not None else "NOT_FOUND"


def main() -> None:
    total = time.perf_counter()
    for job in JOBS:
        t0 = time.perf_counter()
        out = run(job)
        dt = time.perf_counter() - t0
        print(f"{job.name:28s} {dt:7.2f}s  {out}")
    print(f"{'total':28s} {time.perf_counter() - total:7.2f}s")


if __name__ == "__main__":
    main()
