"""Job lists of the four workloads and the checks on their outputs.

A job is the argv of one ``motzkin_autocount.cli.main`` call.  The seed
decides the order of the jobs and, for ``crosscheck``, which specs are
drawn; it never changes the amount of work in a pass by much, so the
timings of different seeds are comparable.  See ``README.md`` for why each
workload was chosen and which layer it is meant to load.

run.py imports this module without importing the package, so the package
is imported inside the functions that need it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("derive", "count", "guess", "crosscheck")

# the pinned fab/fcde goldens; `fcde --C {1,2,3}` (about 21 s) and
# `fcde --C {1} --D {1} --E {1}` (about 97 s) are left out, see README.md
DERIVE = [
    ["fab", "--A", "{1,4}", "--B", "{1,3}"],
    ["fab", "--A", "{2*r+1}", "--B", "{2*r+1}"],
    ["fcde", "--D", "{1}", "--E", "{1}"],
    ["fcde", "--C", "{2*r+1}", "--D", "{2*r+1}", "--E", "{2*r+1}"],
    ["fcde", "--C", "{2*r+1}", "--E", "{2*r+2}"],
]

# the eight specs whose equation is pinned
COUNT_SPECS = [
    [],
    ["--E", "{r+1}"],
    ["--A", "{1,4}", "--B", "{1,3}"],
    ["--A", "{2*r+1}", "--B", "{2*r+1}"],
    ["--C", "{1,2,3}"],
    ["--D", "{1}", "--E", "{1}"],
    ["--C", "{2*r+1}", "--D", "{2*r+1}", "--E", "{2*r+1}"],
    ["--C", "{2*r+1}", "--E", "{2*r+2}"],
]
COUNT_N = 100
# count outputs must agree with the brute-force oracle on a(0..ORACLE_N)
ORACLE_N = 12

ALL_ONES = ["--C", "{1}", "--D", "{1}", "--E", "{1}"]
GUESS = [
    ["guess", *ALL_ONES, "--N", "125", "--maxp", "4", "--maxx", "20"],
    ["guess", *ALL_ONES, "--N", "125", "--maxp", "3", "--maxx", "24"],
    ["guess", "--C", "{1,2,3}", "--N", "80", "--maxp", "5", "--maxx", "9"],
    ["guess", "--D", "{1}", "--E", "{1}", "--N", "40", "--maxp", "3", "--maxx", "6"],
    ["guess", "--A", "{2*r+1}", "--B", "{2*r+1}", "--N", "39", "--maxp", "2", "--maxx", "4"],
    ["guess", "--A", "{1,4}", "--B", "{1,3}", "--N", "60", "--maxp", "2", "--maxx", "10"],
]

# crosscheck specs are drawn from a fixed pool of specs whose parts come
# from the scripts/equation_audit.py set pool; the pool and its counts are
# stored in expected.json.  With a plain random draw of 40 the pass time
# depended on the seed: the oracle makes from 0.09 to 0.6 million set
# membership tests per spec, and its time per spec follows that count
CROSSCHECK_N = 13
CROSSCHECK_SPECS = 40
SET_POOL = ["{}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2*r+1}", "{2*r+2}", "{r+2}"]


def key(argv: list[str]) -> str:
    return " ".join(argv)


def load_expected() -> dict:
    with open(EXPECTED) as f:
        return json.load(f)


def jobs(workload: str, seed: int, expected: dict) -> list[list[str]]:
    """The argv list of one pass of the workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "derive":
        out = [list(j) for j in DERIVE]
    elif workload == "count":
        out = [["seq", *flags, "--N", str(COUNT_N)] for flags in COUNT_SPECS]
    elif workload == "guess":
        out = [list(j) for j in GUESS]
    elif workload == "crosscheck":
        # one spec from each group of neighbours in the pool, which
        # certify.py orders by the oracle's work per spec, so that the draws
        # of all seeds cost about the same
        pool = expected["crosscheck_pool"]
        size = len(pool) // CROSSCHECK_SPECS
        specs = [rng.choice(pool[i:i + size]) for i in range(0, len(pool), size)]
        rng.shuffle(specs)
        return [
            [cmd, *flags, "--N", str(CROSSCHECK_N)]
            for flags in specs
            for cmd in ("oracle", "seq")
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def spec_of(flags: list[str]):
    from motzkin_autocount import RestrictionSpec, parse_stepset

    parts = dict(zip(flags[0::2], flags[1::2]))
    return RestrictionSpec(
        *(parse_stepset(parts.get(f"--{name}", "{}")) for name in "ABCDE")
    )


def poly_from_terms(terms: list[dict]):
    from fractions import Fraction

    from motzkin_autocount.algebra import MPoly, make_ring

    ring = make_ring("P", "x")
    return MPoly(ring, {
        tuple(t["exponents"].get(v, 0) for v in ring): Fraction(t["coeff"])
        for t in terms
    })


def check(workload: str, results: list[tuple[list[str], object, str]],
          expected: dict) -> dict[int, str]:
    """Failed jobs of one pass, by index; results are (argv, exit code, stdout).

    Every job must reproduce its expected exit code and stdout exactly.
    On top of that, each count sequence must be annihilated by its spec's
    pinned equation and start with the oracle's counts.  A crosscheck spec's
    ``oracle`` and ``seq`` jobs share one expected line, so both matching it
    means they agree, and a wrong output fails only the job that printed it.
    """
    failed: dict[int, str] = {}
    for i, (argv, rc, out) in enumerate(results):
        want = expected["jobs"].get(key(argv))
        if want is None:
            failed[i] = "no expected output"
        elif (rc, out) != (want["rc"], want["stdout"]):
            failed[i] = f"got rc={rc!r} stdout={out[:80]!r}"
    if workload == "count":
        from motzkin_autocount import Series, oracle_sequence, series_vanishes

        for i, (argv, rc, out) in enumerate(results):
            flags = argv[1:-2]
            try:
                values = [int(v) for v in out.split(",")]
            except ValueError:
                failed[i] = "output is not a sequence"
                continue
            F = poly_from_terms(expected["count_equations"][key(flags)]["terms"])
            if not series_vanishes(F, Series.from_values(values)):
                failed[i] = "pinned equation does not vanish"
            elif values[:ORACLE_N + 1] != oracle_sequence(spec_of(flags), ORACLE_N):
                failed[i] = "prefix differs from the oracle"
    return failed
