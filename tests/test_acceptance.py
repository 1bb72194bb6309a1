"""Acceptance gate: ten pinned criteria with explicit runtime budgets.

Each test prints one PASS line with its measured wall time; a failure of
either the value check or the budget fails the test.  The slow symbolic
derivations come from session fixtures so their cost is paid once.
Criterion 10 checks the algebra kernel end to end: each golden equation,
solved for its series root from a short prefix, gives back the reference
series.
"""

import random
import time

from motzkin_autocount import (
    EMPTY,
    GuessConfig,
    RestrictionSpec,
    Series,
    StepSet,
    guess_algebraic,
    motzkin_numbers,
    oracle_sequence,
    parse_stepset,
    poly_text,
    reference_series,
    sequence,
)
from motzkin_autocount.algebra import series_solve, series_vanishes

MOTZKIN_TEXT = "x^2*P^2 + (x-1)*P + 1"
ODD_HEIGHT_TEXT = "x^4*P^2 + (x^3-3*x^2+3*x-1)*P + x^2 - 2*x + 1"


def report(k, elapsed, budget, detail=""):
    assert elapsed < budget, f"criterion {k} took {elapsed:.2f}s, budget {budget}s"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {k}: PASS ({elapsed:.2f}s < {budget}s){suffix}")


def spec(A="{}", B="{}", C="{}", D="{}", E="{}"):
    return RestrictionSpec(*(parse_stepset(s) for s in (A, B, C, D, E)))


def test_criterion_01_unrestricted_sequence():
    t0 = time.perf_counter()
    got = sequence(RestrictionSpec(), 10)
    assert got == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
    report(1, time.perf_counter() - t0, 1)


def test_criterion_02_run_avoidance_sequence():
    t0 = time.perf_counter()
    got = sequence(spec(C="{1}", D="{1}", E="{1}"), 11)
    assert got == [1, 0, 1, 1, 2, 1, 5, 4, 12, 13, 34, 38]
    report(2, time.perf_counter() - t0, 1)


def test_criterion_03_odd_height_sequence():
    t0 = time.perf_counter()
    got = sequence(spec(A="{2*r+1}", B="{2*r+1}"), 11)
    assert got == [1, 1, 1, 1, 2, 6, 16, 36, 73, 145, 301, 661]
    report(3, time.perf_counter() - t0, 1)


def test_criterion_04_dyck_reduction():
    t0 = time.perf_counter()
    got = sequence(spec(E="{r+1}"), 30)
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786,
               208012, 742900, 2674440, 9694845]
    assert got[0::2] == catalan
    assert all(v == 0 for v in got[1::2])
    report(4, time.perf_counter() - t0, 2)


def test_criterion_05_symbolic_peak_valley_equations(fab_goldens):
    worst = 0.0
    for name, (F, elapsed, want, _) in fab_goldens.items():
        assert poly_text(F) == want, name
        worst = max(worst, elapsed)
    report(5, worst, 10, f"{len(fab_goldens)} equations, slowest case")


def test_criterion_06_symbolic_run_length_equations(fcde_goldens):
    worst = 0.0
    for name, (F, elapsed, want, _) in fcde_goldens.items():
        assert poly_text(F) == want, name
        assert elapsed < 60, f"{name} took {elapsed:.2f}s"
        worst = max(worst, elapsed)
    report(6, worst, 60, f"{len(fcde_goldens)} equations, slowest case")


def test_criterion_07_guesser_reproduces_known_equations():
    t0 = time.perf_counter()
    F = guess_algebraic(motzkin_numbers(24), GuessConfig(2, 2))
    assert poly_text(F) == MOTZKIN_TEXT
    t1 = time.perf_counter() - t0
    assert t1 < 5

    t0 = time.perf_counter()
    odd = spec(A="{2*r+1}", B="{2*r+1}")
    G = guess_algebraic(sequence(odd, 39), GuessConfig(2, 4))
    assert poly_text(G) == ODD_HEIGHT_TEXT
    t2 = time.perf_counter() - t0
    assert t2 < 5
    report(7, max(t1, t2), 5, "slower of the two guesses")


def test_criterion_08_oracle_equivalence_battery():
    t0 = time.perf_counter()
    rng = random.Random(20260817)
    finite = ["{}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}"]
    infinite = ["{2*r+1}", "{2*r+2}", "{r+2}", "{3*r+1}"]
    height_pool = finite + infinite
    run_pool = finite + infinite
    mismatches = 0
    for _ in range(50):
        s = spec(
            rng.choice(height_pool), rng.choice(height_pool),
            rng.choice(run_pool), rng.choice(run_pool), rng.choice(run_pool),
        )
        if sequence(s, 12) != oracle_sequence(s, 12):
            mismatches += 1
    assert mismatches == 0
    report(8, time.perf_counter() - t0, 60, "50 specs, n <= 12")


def test_criterion_09_route_agreement(fab_goldens, fcde_goldens):
    t0 = time.perf_counter()
    for name, (F, _, _, literals) in fab_goldens.items():
        s = RestrictionSpec(
            peaks=parse_stepset(literals[0]), valleys=parse_stepset(literals[1])
        )
        series = Series.from_values(reference_series(s, 24))
        assert series_vanishes(F, series), name
        cfg = GuessConfig(F.degree("P"), F.degree("x"))
        seq = reference_series(s, cfg.min_terms() + 6)
        G = guess_algebraic(seq, cfg)
        assert G is not None and poly_text(G) == poly_text(F), name
    for name, (F, _, _, literals) in fcde_goldens.items():
        s = RestrictionSpec(
            up_runs=parse_stepset(literals[0]),
            down_runs=parse_stepset(literals[1]),
            flat_runs=parse_stepset(literals[2]),
        )
        series = Series.from_values(sequence(s, 24))
        assert series_vanishes(F, series), name
        cfg = GuessConfig(F.degree("P"), F.degree("x"))
        seq = sequence(s, cfg.min_terms() + 6)
        G = guess_algebraic(seq, cfg)
        assert G is not None and poly_text(G) == poly_text(F), name
    report(9, time.perf_counter() - t0, 60, "6 golden specs, both routes")


def test_criterion_10_algebra_kernel_properties(fab_goldens, fcde_goldens):
    t0 = time.perf_counter()
    goldens = {**fab_goldens, **fcde_goldens}

    # series round trip: solve each golden equation from a short prefix and
    # feed the series back in
    for name, (F, _, _, literals) in goldens.items():
        if name in fab_goldens:
            s = RestrictionSpec(
                peaks=parse_stepset(literals[0]),
                valleys=parse_stepset(literals[1]),
            )
        else:
            s = RestrictionSpec(
                up_runs=parse_stepset(literals[0]),
                down_runs=parse_stepset(literals[1]),
                flat_runs=parse_stepset(literals[2]),
            )
        ref = reference_series(s, 24)
        # the finite-height equation needs the longer prefix: its derivative
        # vanishes to high order on the branch
        sol = series_solve(F, ref[:8], 25)
        assert list(sol.coeffs) == ref, name
        assert series_vanishes(F, sol), name
    report(10, time.perf_counter() - t0, 30, "series round trip")
