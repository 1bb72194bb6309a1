"""Dynamic-programming counter: pinned sequences and oracle equivalence."""

import random
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from motzkin_autocount import (
    DPTable,
    MPoly,
    RestrictionSpec,
    Series,
    StepSet,
    motzkin_numbers,
    oracle_sequence,
    parse_stepset,
    poly_text,
    sequence,
    series_vanishes,
)
from motzkin_autocount.algebra import make_ring

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786,
           208012, 742900, 2674440, 9694845]


def spec(A="{}", B="{}", C="{}", D="{}", E="{}"):
    return RestrictionSpec(*(parse_stepset(s) for s in (A, B, C, D, E)))


def test_unrestricted_is_motzkin():
    assert motzkin_numbers(10) == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


def test_run_length_one_banned_everywhere():
    got = sequence(spec(C="{1}", D="{1}", E="{1}"), 11)
    assert got == [1, 0, 1, 1, 2, 1, 5, 4, 12, 13, 34, 38]


def test_odd_peak_and_valley_heights_banned():
    got = sequence(spec(A="{2*r+1}", B="{2*r+1}"), 11)
    assert got == [1, 1, 1, 1, 2, 6, 16, 36, 73, 145, 301, 661]


def test_banning_all_flat_runs_leaves_dyck_paths():
    got = sequence(spec(E="{r+1}"), 30)
    assert got[0::2] == CATALAN
    assert all(v == 0 for v in got[1::2])


def test_table_boundary_counts():
    t = DPTable(spec())
    assert [t.count(n) for n in range(3)] == [1, 1, 2]  # the empty walk; F; UD and FF
    assert DPTable(spec(E="{1}")).count(1) == 0  # no down step ends a walk of length 1 at 0
    assert DPTable(spec(E="{r+1}")).count(2) == 1  # UD alone
    assert DPTable(spec(A="{2}")).count(4) == 8  # UUDD is the one path of length 4 peaking at 2


def test_no_path_has_a_negative_length():
    assert DPTable(spec()).count(-1) == 0  # a fresh table, with no count kept
    t = DPTable(spec(A="{0}"))
    t.ensure(5)
    assert [t.count(n) for n in (-1, -6, -7)] == [0, 0, 0]  # not read from the end


def test_peak_filter_counts():
    # UD peaks at the forbidden height 1, so only the flat path survives at length 2
    t = DPTable(spec(A="{1}"))
    assert [t.count(n) for n in range(3)] == [1, 1, 1]
    assert DPTable(spec(A="{2}")).count(2) == 2


def test_table_keeps_one_count_per_length():
    # a table holds its running-sum windows, two masks and one count per
    # length, and no row per length
    for s in (spec(), spec(A="{1,4}", B="{1,3}", C="{3*r+1,2}", E="{4*r+2,1,5}")):
        tracemalloc.start()
        try:
            table = DPTable(s)
            table.ensure(300)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1_500_000, (s.describe(), held)


def _text(values) -> str:
    return "{" + ",".join(map(str, sorted(values))) + "}"


HEIGHTS = st.one_of(st.frozensets(st.integers(0, 4), max_size=3).map(_text),
                    st.sampled_from(["{2*r}", "{2*r+1}", "{r+2}"]))
ZERO_HEIGHTS = st.one_of(st.frozensets(st.integers(1, 4), max_size=2).map(lambda v: _text(v | {0})),
                         st.sampled_from(["{2*r}", "{0,2*r+1}", "{r}"]))
RUNS = st.frozensets(st.integers(1, 3), max_size=2).map(_text)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(ZERO_HEIGHTS, HEIGHTS), st.tuples(HEIGHTS, ZERO_HEIGHTS)),
       RUNS, RUNS, RUNS)
@example(("{0}", "{}"), "{}", "{}", "{1}")
@example(("{}", "{0}"), "{1}", "{}", "{}")
@example(("{0}", "{0}"), "{}", "{}", "{2}")
@example(("{0,1}", "{}"), "{}", "{}", "{}")
@example(("{2}", "{2*r}"), "{}", "{}", "{}")
def test_height_zero_specs_match_oracle(heights, c, d, e):
    # the path start forms no valley, and the flat-only path is the one
    # whose peak lies at height 0
    s = spec(*heights, c, d, e)
    assert sequence(s, 10) == oracle_sequence(s, 10), s.describe()


def test_height_one_peak_ban_counts_only_flat_paths_at_small_length():
    # UD, UDF, UFD, and FUD all peak at height 1; only all-flat paths survive
    s = spec(A="{1}")
    assert sequence(s, 3) == oracle_sequence(s, 3) == [1, 1, 1, 1]


def test_counts_never_negative_and_bounded_by_motzkin():
    cap = motzkin_numbers(12)
    for s in (spec(A="{2}"), spec(C="{2}", E="{1,3}"), spec(B="{1}", D="{r+1}")):
        got = sequence(s, 12)
        assert all(0 <= v <= m for v, m in zip(got, cap))


def test_seeded_battery_matches_oracle():
    rng = random.Random(99)
    # the last five exercise each term of the running-sum identity: finite
    # elements beside a stride-2/3/4 progression, a large offset, and every
    # run length forbidden
    pool = ["{}", "{1}", "{2}", "{1,2}", "{3}", "{2*r+1}", "{2*r+2}", "{r+2}",
            "{3*r+1,2}", "{4*r+2,1,5}", "{2*r+1,4}", "{r+3}", "{r+1}"]
    run_sets = set()
    for _ in range(20):
        A, B = rng.choice(pool), rng.choice(pool)
        C, D, E = (rng.choice(pool) for _ in range(3))
        run_sets |= {C, D, E}
        s = spec(A, B, C, D, E)
        assert sequence(s, 10) == oracle_sequence(s, 10), s.describe()
    assert run_sets == set(pool)


def test_long_sequences_satisfy_the_pinned_equations(golden_equations):
    # checks the fill far past the oracle's reach (about length 18), where
    # every look-back window is full and the slots have been widened often
    ring = make_ring("P", "x")
    names = {"P": MPoly.var(ring, "P"), "x": MPoly.var(ring, "x")}
    pinned = [(spec(), "x^2*P^2 + (x-1)*P + 1"), (spec(E="{r+1}"), "x^2*P^2 - P + 1")]
    for s, text in pinned + golden_equations:
        F = eval(text.replace("^", "**"), names)
        assert poly_text(F) == text
        assert series_vanishes(F, Series.from_values(sequence(s, 400))), s.describe()


def test_motzkin_numbers_satisfy_their_recurrence():
    # the unrestricted spec has the widest cells, so it tests the slot width
    # (n+2)*M(n) = (2n+1)*M(n-1) + 3(n-1)*M(n-2)
    M = motzkin_numbers(500)
    assert M[:3] == [1, 1, 2]
    for n in range(2, 501):
        assert (n + 2) * M[n] == (2 * n + 1) * M[n - 1] + 3 * (n - 1) * M[n - 2], n


def test_a_table_grown_in_uneven_steps_matches_one_grown_at_once():
    # a progression and a finite element in every slot, so every look-back
    # of the running-sum identity crosses the widenings of the slots
    s = spec(A="{3*r+2,0}", B="{2*r+1,4}", C="{3*r+1,2}", D="{2*r+2,1}", E="{4*r+2,1,5}")
    assert all(v.finite and v.aps for v in (s.peaks, s.valleys, s.up_runs, s.down_runs,
                                              s.flat_runs))
    t = DPTable(s)
    t.ensure(17)
    t.count(40)
    t.ensure(300)
    assert [t.count(n) for n in range(301)] == sequence(s, 300)
    assert sequence(s, 12) == oracle_sequence(s, 12)


@settings(max_examples=25, deadline=None)
@given(
    st.frozensets(st.integers(1, 4), max_size=2),
    st.frozensets(st.integers(1, 4), max_size=2),
    st.frozensets(st.integers(1, 3), max_size=2),
    st.frozensets(st.integers(1, 3), max_size=2),
    st.frozensets(st.integers(1, 3), max_size=2),
)
def test_random_specs_match_oracle(a, b, c, d, e):
    s = RestrictionSpec(*(StepSet(tuple(v)) for v in (a, b, c, d, e)))
    assert sequence(s, 8) == oracle_sequence(s, 8)
