"""Write bench/expected.json: the exact stdout and exit code of every job.

Run once from the repository root (takes a few minutes):

    python3 bench/certify.py

Outputs the test suite already pins are copied from tests/conftest.py and
tests/test_acceptance.py (tests/test_cli.py pins the same texts).  The others are certified
here by a route other than the one the benchmark times, and the route is
stored next to each output:

* count sequences: the pinned equation F of the spec, solved as a power
  series (algebra.series_solve) from the oracle's a(0..12); the Dyck
  sequence is also checked against the Catalan numbers;
* the all-{1} quartic found by `guess`: it must annihilate 141 terms from
  symbolic.iterate_series, the rule-iteration route that shares no code
  with the DP;
* the all-{1} miss at bounds (3, 24): the fit matrix on those iterated
  terms has full column rank modulo 2^31 - 1 (a different prime from the
  guesser's sieve), so no relation within the bounds exists over Q;
* crosscheck counts: oracle and DP agree, and for run-only specs
  iterate_series agrees as well.  The pool is stored in order of the
  oracle's set membership tests per spec (counted with tracer.py), from
  which workloads.jobs draws.

Finally every job is run once through the CLI and must reproduce its
expected output.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import sys
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from motzkin_autocount import (  # noqa: E402
    Series,
    cli,
    fab,
    fcde,
    oracle_sequence,
    poly_text,
    sequence,
    series_vanishes,
)
from motzkin_autocount.algebra import poly_json_terms, series_solve  # noqa: E402
from motzkin_autocount.symbolic import build_run_system, iterate_series  # noqa: E402

import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

MISS_PRIME = (1 << 31) - 1
ITERATED_TERMS = 140
POOL_SIZE = 160


def _load_test_module(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tests" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def line(values) -> str:
    return ",".join(str(int(v)) for v in values) + "\n"


def symbolic_equation(flags: list[str]):
    s = W.spec_of(flags)
    if s.peaks or s.valleys:
        return fab(s.peaks, s.valleys)
    return fcde(s.up_runs, s.down_runs, s.flat_runs)


def modular_rank(rows: list[list[int]], p: int) -> int:
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        top = [v * inv % p for v in mat[rank]]
        mat[rank] = top
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], top)]
        rank += 1
    return rank


def fit_matrix(values: list[int], max_p: int, max_x: int) -> list[list[int]]:
    """Rows of the guesser's fit system at bounds (max_p, max_x).

    Row `order` holds [x^(order-j)] S^i for the columns (i, j), i <= max_p,
    j <= max_x, over the orders the guesser fits: n - max_p - HOLDOUT rows
    for n terms.  Smaller bounds use a subset of these columns and at least
    these rows, so full column rank here rules out every pair it tries.
    """
    from motzkin_autocount.guesser import HOLDOUT

    n = len(values)
    powers = [[1] + [0] * (n - 1)]
    for _ in range(max_p):
        prev = powers[-1]
        powers.append([
            sum(prev[k] * values[t - k] for k in range(t + 1)) for t in range(n)
        ])
    nfit = n - max_p - HOLDOUT
    cols = [(i, j) for i in range(max_p + 1) for j in range(max_x + 1)]
    return [
        [powers[i][order - j] if order >= j else 0 for (i, j) in cols]
        for order in range(nfit)
    ]


def main() -> None:
    conftest = _load_test_module("conftest")
    accept = _load_test_module("test_acceptance")
    jobs: dict[str, dict] = {}

    def put(argv, stdout, rc, route):
        jobs[W.key(argv)] = {"stdout": stdout, "rc": rc, "route": route}

    # spec flags -> (where its equation is pinned, the equation's text)
    pinned = {
        W.key([]): ("tests/test_acceptance.py MOTZKIN_TEXT", accept.MOTZKIN_TEXT),
        W.key(["--E", "{r+1}"]): (
            "Catalan equation C = 1 + x*C^2 at x^2; series checked against "
            "binomial(2k,k)/(k+1)",
            "x^2*P^2 - P + 1",
        ),
    }
    for table_name, names in (("FAB_GOLDENS", "AB"), ("FCDE_GOLDENS", "CDE")):
        for name, (literals, text) in getattr(conftest, table_name).items():
            flags = [x for n, lit in zip(names, literals) if lit != "{}"
                     for x in (f"--{n}", lit)]
            pinned[W.key(flags)] = (f"tests/conftest.py {table_name}[{name!r}]", text)

    # derive ---------------------------------------------------------------
    for argv in W.DERIVE:
        source, text = pinned[W.key(argv[1:])]
        put(argv, text + "\n", 0, f"pinned: {source}")

    # count ----------------------------------------------------------------
    count_equations = {}
    for flags in W.COUNT_SPECS:
        source, text = pinned[W.key(flags)]
        F = symbolic_equation(flags)
        assert poly_text(F) == text, flags
        prefix = oracle_sequence(W.spec_of(flags), W.ORACLE_N)
        values = list(series_solve(F, prefix, W.COUNT_N + 1).coeffs)
        assert all(v.denominator == 1 for v in values), flags
        if flags == ["--E", "{r+1}"]:
            assert values[0::2] == [comb(2 * k, k) // (k + 1) for k in range(len(values[0::2]))]
            assert not any(values[1::2])
        count_equations[W.key(flags)] = {
            "text": text, "terms": poly_json_terms(F), "route": f"pinned: {source}",
        }
        put(["seq", *flags, "--N", str(W.COUNT_N)], line(values), 0,
            "certified: algebra.series_solve of the pinned equation from the "
            f"oracle's a(0..{W.ORACLE_N})")
        print(f"count {W.key(flags) or '(motzkin)'}: certified", flush=True)

    # guess ----------------------------------------------------------------
    hit, miss = W.GUESS[0], W.GUESS[1]
    ones = W.spec_of(W.ALL_ONES)
    iterated = iterate_series(build_run_system(ones.up_runs, ones.down_runs, ones.flat_runs),
                              ITERATED_TERMS)
    rc, out = run_cli([*hit, "--format", "json"])
    payload = json.loads(out)
    quartic = W.poly_from_terms(payload["polynomial"]["terms"])
    assert rc == 0 and series_vanishes(quartic, Series.from_values(iterated))
    put(hit, payload["polynomial"]["text"] + "\n", 0,
        "certified: annihilates symbolic.iterate_series a(0..140)")
    n_terms = int(miss[miss.index("--N") + 1]) + 1
    maxp, maxx = int(miss[miss.index("--maxp") + 1]), int(miss[miss.index("--maxx") + 1])
    rows = fit_matrix([int(v) for v in iterated[:n_terms]], maxp, maxx)
    assert modular_rank(rows, MISS_PRIME) == (maxp + 1) * (maxx + 1)
    put(miss, "NOT_FOUND\n", 3,
        "certified: fit matrix on symbolic.iterate_series terms has full column "
        "rank modulo 2^31-1, so no relation exists within the bounds")
    for argv in W.GUESS[2:]:
        source, text = pinned[W.key(argv[1:argv.index("--N")])]
        put(argv, text + "\n", 0, f"pinned: {source}")
    print("guess: certified", flush=True)

    # crosscheck -----------------------------------------------------------
    rng = random.Random("crosscheck-pool")
    pool: list[list[str]] = []
    seen: set[str] = set()
    oracle_tests: dict[str, int] = {}  # set membership tests of the oracle
    while len(pool) < POOL_SIZE:
        flags = []
        for name in "ABCDE":
            literal = rng.choice(W.SET_POOL)
            if literal != "{}":
                flags += [f"--{name}", literal]
        if W.key(flags) in seen:
            continue
        seen.add(W.key(flags))
        s = W.spec_of(flags)
        counter = Tracer()
        counter.install()
        try:
            want = oracle_sequence(s, W.CROSSCHECK_N)
        finally:
            counter.uninstall()
        oracle_tests[W.key(flags)] = counter.counts["stepset.contains_calls"]
        assert sequence(s, W.CROSSCHECK_N) == want, flags
        route = "certified: oracle and DP agree"
        if not (s.peaks or s.valleys):
            system = build_run_system(s.up_runs, s.down_runs, s.flat_runs)
            assert iterate_series(system, W.CROSSCHECK_N) == want, flags
            route += ", and so does symbolic.iterate_series"
        for cmd in ("oracle", "seq"):
            put([cmd, *flags, "--N", str(W.CROSSCHECK_N)], line(want), 0, route)
        pool.append(flags)
    # membership tests are the part of the oracle's work that differs between
    # specs; workloads.jobs draws from neighbours in this order, so that every
    # seed's draw costs about the same
    pool.sort(key=lambda flags: (oracle_tests[W.key(flags)], W.key(flags)))
    pool_jobs = {W.key([cmd, *flags, "--N", str(W.CROSSCHECK_N)])
                 for flags in pool for cmd in ("oracle", "seq")}
    print("crosscheck: certified", flush=True)

    # every job reproduces its expected output at this commit
    for argv, want in jobs.items():
        if argv in pool_jobs:
            continue  # computed through the same functions just above
        got = run_cli(argv.split(" "))
        assert got == (want["rc"], want["stdout"]), argv
    print("all jobs reproduce", flush=True)

    W.EXPECTED.write_text(json.dumps({
        "about": "Expected stdout and exit code of every benchmark job; "
                 "written by bench/certify.py, see its docstring.",
        "jobs": jobs,
        "count_equations": count_equations,
        "crosscheck_pool": pool,
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
