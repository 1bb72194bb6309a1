"""Brute-force enumeration: path validity, feature extraction, guard."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motzkin_autocount import (
    EMPTY,
    RestrictionSpec,
    RunState,
    count_restricted,
    enumerate_motzkin,
    features,
    list_restricted,
    oracle,
    oracle_sequence,
    parse_stepset,
)
from motzkin_autocount.oracle import (
    DEFAULT_GUARD,
    OracleGuardError,
    admits,
    class_tables,
    feature_masks,
    forbidden_masks,
    is_motzkin,
    motzkin_paths,
    oracle_guard,
    state_series,
)

ODD = parse_stepset("{2*r+1}")
MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


def spec(A="{}", B="{}", C="{}", D="{}", E="{}"):
    return RestrictionSpec(*(parse_stepset(s) for s in (A, B, C, D, E)))


def test_is_motzkin():
    assert is_motzkin("")
    assert is_motzkin("UFDFF")
    assert not is_motzkin("DU")      # dips below the axis
    assert not is_motzkin("UUD")     # ends above the axis
    assert not is_motzkin("UdD")


def test_enumeration_counts_match_motzkin_numbers():
    for n, m in enumerate(MOTZKIN):
        if n <= 10:
            assert len(enumerate_motzkin(n)) == m


def test_enumeration_is_lexicographic_u_d_f():
    assert enumerate_motzkin(0) == ("",)
    assert enumerate_motzkin(1) == ("F",)
    assert enumerate_motzkin(2) == ("UD", "FF")
    rank = {"U": 0, "D": 1, "F": 2}
    paths = enumerate_motzkin(6)
    keys = [[rank[c] for c in p] for p in paths]
    assert keys == sorted(keys)
    assert len(set(paths)) == len(paths)


def test_features_reads_peaks_across_flats():
    ft = features("UDUFDF")
    assert ft.peaks == (1, 1)
    assert ft.valleys == (0,)
    assert ft.up_runs == (1, 1)
    assert ft.down_runs == (1, 1)
    assert ft.flat_runs == (1, 1)
    assert not ft.is_flat_only


def test_features_interrupted_descent_is_no_peak():
    # the U at height 2 is followed by F then U, so only the top is a peak
    ft = features("UUFUDDD")
    assert ft.peaks == (3,)
    assert ft.valleys == ()
    assert ft.up_runs == (2, 1)
    assert ft.down_runs == (3,)
    assert ft.flat_runs == (1,)


def test_features_flat_only():
    for p in ("", "F", "FFFF"):
        ft = features(p)
        assert ft.is_flat_only
        assert ft.peaks == ()
        assert ft.valleys == ()


def test_flat_only_paths_carry_a_height_zero_peak():
    banned = spec(A="{0}")
    assert not admits(banned, "")
    assert not admits(banned, "FFF")
    assert admits(banned, "UD")
    assert count_restricted(0, banned) == 0
    assert count_restricted(0, spec(A="{1}")) == 1


def test_single_flat_step_is_a_run_of_length_one():
    assert list_restricted(1, spec(E="{1}")) == []


def test_pinned_run_length_golden():
    got = list_restricted(7, spec(C="{1}", D="{1}", E="{1}"))
    assert got == ["UUDDFFF", "UUFFFDD", "FFFUUDD", "FFFFFFF"]


def test_pinned_odd_height_golden():
    got = list_restricted(5, spec(A="{2*r+1}", B="{2*r+1}"))
    assert got == ["UUDDF", "UUDFD", "UUFDD", "UFUDD", "FUUDD", "FFFFF"]


def test_height_one_peak_ban_leaves_only_the_flat_path():
    # UFD and UD both top out at height 1, so length 3 keeps just FFF
    assert list_restricted(3, spec(A="{1}")) == ["FFF"]
    assert count_restricted(3, spec(A="{1}")) == 1


def _sets(values):
    finite = st.frozensets(values, max_size=3).map(
        lambda vals: "{" + ",".join(map(str, sorted(vals))) + "}"
    )
    return st.one_of(finite, st.sampled_from(["{2*r+1}", "{2*r+2}", "{r+2}"]))


HEIGHTS, RUNS = _sets(st.integers(0, 4)), _sets(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.builds(spec, HEIGHTS, HEIGHTS, RUNS, RUNS, RUNS))
@example(9, spec(A="{0}", B="{0}", E="{2}"))
@example(9, spec(A="{0,2*r+1}", B="{2*r+2}", C="{r+2}"))
def test_count_agrees_with_list(n, s):
    # the class count against the path filter; peak height 0
    # reaches the flat-only paths, which carry no other peak
    assert count_restricted(n, s) == len(list_restricted(n, s))


def test_oracle_sequence_prefix():
    assert oracle_sequence(spec(), 10) == MOTZKIN


def test_guard_default_and_override(monkeypatch):
    monkeypatch.delenv("MOTZKIN_ORACLE_GUARD", raising=False)
    assert oracle_guard() == DEFAULT_GUARD
    with pytest.raises(OracleGuardError):
        count_restricted(DEFAULT_GUARD + 1, spec())
    monkeypatch.setenv("MOTZKIN_ORACLE_GUARD", "5")
    assert oracle_guard() == 5
    with pytest.raises(OracleGuardError):
        list_restricted(6, spec())
    assert count_restricted(5, spec()) == MOTZKIN[5]


def test_oracle_sequence_checks_the_guard_before_enumerating(monkeypatch, refuse_paths):
    monkeypatch.setenv("MOTZKIN_ORACLE_GUARD", "5")
    before = enumerate_motzkin.cache_info(), class_tables.cache_info()
    with pytest.raises(OracleGuardError):
        oracle_sequence(spec(), 12)
    assert (enumerate_motzkin.cache_info(), class_tables.cache_info()) == before


def test_state_series_checks_the_guard_before_enumerating(monkeypatch, refuse_paths):
    monkeypatch.setenv("MOTZKIN_ORACLE_GUARD", "5")
    sets = (parse_stepset("{2}"), parse_stepset("{1}"), EMPTY)
    root = RunState("h", *sets, EMPTY)
    before = enumerate_motzkin.cache_info()
    with pytest.raises(OracleGuardError):
        state_series(sets, root, 6)
    assert enumerate_motzkin.cache_info() == before


def test_oracle_sequence_builds_every_length_in_one_sweep(monkeypatch):
    def no_strings(n):
        raise AssertionError(f"path strings of length {n} generated")

    monkeypatch.setattr(oracle, "motzkin_paths", no_strings)
    class_tables.cache_clear()
    before = enumerate_motzkin.cache_info()
    assert oracle_sequence(spec(), 12) == MOTZKIN + [5798, 15511]
    assert oracle_sequence(spec(C="{1}"), 12)[12] == count_restricted(12, spec(C="{1}"))
    # no tuple of paths is kept; one build serves every length 0..12
    assert enumerate_motzkin.cache_info() == before
    info = class_tables.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_sweep_tallies_the_features_of_every_path():
    # the per-path scan is the reference; tables of lengths m < N are tallied
    # mid-sweep, from the prefixes at height 0, and lengths 0..2 hold the
    # empty and flat-only paths (peak bit 0) and paths ending in a flat run
    for N in range(13):
        tables = class_tables(N)
        assert len(tables) == N + 1
        for m in range(N + 1):
            scanned = Counter(feature_masks(features(p), N) for p in motzkin_paths(m))
            assert dict(tables[m]) == scanned, (N, m)


def test_packed_masks_keep_one_slot_per_feature():
    w = 8  # slot width for lengths <= 7
    assert feature_masks(features("UDUFDF"), 7) == (
        1 << 1 | 1 << w | 1 << 2 * w + 1 | 1 << 3 * w + 1 | 1 << 4 * w + 1)
    assert feature_masks(features(""), 7) == 1  # the flat-only peak at 0
    assert forbidden_masks(spec(A="{0}", E="{2*r+1}"), 7) == sum(
        [1] + [1 << 4 * w + v for v in (1, 3, 5, 7)])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.integers(0, 4),
       st.builds(spec, HEIGHTS, HEIGHTS, RUNS, RUNS, RUNS))
@example(12, 0, spec(A="{0}"))
@example(0, 4, spec(A="{0,2*r+1}", B="{2*r+2}", C="{r+2}"))
def test_count_is_the_sequence_term(m, extra, s):
    # one length's table packed for n = m against the same length in a
    # longer sweep, packed for n = m + extra
    assert count_restricted(m, s) == oracle_sequence(s, m + extra)[m]


@settings(max_examples=40)
@given(st.integers(0, 8), st.data())
def test_admitted_paths_avoid_every_forbidden_feature(n, data):
    small = st.frozensets(st.integers(0, 4), max_size=2)
    run = st.frozensets(st.integers(1, 4), max_size=2)
    s = RestrictionSpec(*(
        parse_stepset("{" + ",".join(map(str, sorted(data.draw(strat)))) + "}")
        for strat in (small, small, run, run, run)
    ))
    for p in list_restricted(n, s):
        ft = features(p)
        assert not any(h in s.peaks for h in ft.peaks)
        assert not any(h in s.valleys for h in ft.valleys)
        assert not any(r in s.up_runs for r in ft.up_runs)
        assert not any(r in s.down_runs for r in ft.down_runs)
        assert not any(r in s.flat_runs for r in ft.flat_runs)
        if ft.is_flat_only:
            assert 0 not in s.peaks
