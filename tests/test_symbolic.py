"""Symbolic grammar expansion, reading arbitration, and equation solving."""

import hashlib

import pytest

from motzkin_autocount import (
    EMPTY,
    PVState,
    RestrictionSpec,
    Series,
    fab,
    fcde,
    oracle_sequence,
    parse_stepset,
    poly_text,
    reference_series,
    sequence,
)
from motzkin_autocount.algebra import content, poly_series_eval, series_vanishes
from motzkin_autocount import symbolic
from motzkin_autocount.symbolic import (
    BASE,
    ROOT,
    RunState,
    SystemBuildError,
    audit_system,
    build_peak_valley_system,
    build_run_system,
    iterate_series,
    state_series,
)

ONE = parse_stepset("{1}")
TWO = parse_stepset("{2}")
ODD = parse_stepset("{2*r+1}")
EVEN_POS = parse_stepset("{2*r+2}")


def run_spec(C, D, E):
    return RestrictionSpec(up_runs=C, down_runs=D, flat_runs=E)


# peak/valley systems ---------------------------------------------------------


def test_unrestricted_system_is_the_motzkin_equation():
    system = build_peak_valley_system(EMPTY, EMPTY)
    assert system.size() == 1
    assert system.ring == (ROOT, BASE)
    # (1-x)P - 1 - x^2 P^2, keyed by (P-degree, x-degree)
    assert system.polys[0].terms == {
        (1, 0): 1, (1, 1): -1, (0, 0): -1, (2, 2): -1,
    }
    assert system.case_of == {ROOT: "first_return"}
    assert audit_system(system) == []


def test_odd_height_system_is_a_three_state_cycle():
    system = build_peak_valley_system(ODD, ODD)
    assert system.size() == 3
    even = parse_stepset("{2*r}")
    cases = {
        str(system.case_of[name]): state
        for state, name in system.var_of.items()
    }
    assert cases["first_return"] == PVState(ODD, ODD)
    assert cases["flat_carve"] == PVState(even, even)
    assert cases["single_arch"] == PVState(EVEN_POS, even)
    assert audit_system(system) == []


def test_fab_unrestricted_collapses_to_motzkin():
    assert poly_text(fab(EMPTY, EMPTY)) == "x^2*P^2 + (x-1)*P + 1"


def test_pv_systems_do_not_iterate():
    system = build_peak_valley_system(ODD, EMPTY)
    with pytest.raises(SystemBuildError):
        iterate_series(system, 6)


# run-length systems ----------------------------------------------------------


def test_run_system_shape_for_all_ones():
    system = build_run_system(ONE, ONE, ONE)
    assert system.size() == 35
    kinds = {}
    for rule in system.case_of.values():
        kinds[rule[0]] = kinds.get(rule[0], 0) + 1
    assert kinds == {"split": 5, "fork": 14, "step": 16}
    assert audit_system(system) == []
    assert iterate_series(system, 11) == sequence(run_spec(ONE, ONE, ONE), 11)


def test_fcde_unrestricted_collapses_to_motzkin():
    assert poly_text(fcde(EMPTY, EMPTY, EMPTY)) == "x^2*P^2 + (x-1)*P + 1"


def test_root_state_counts_exactly_the_restricted_paths():
    sets = (TWO, ONE, EMPTY)
    root = RunState("h", *sets, sets[2])
    got = state_series(sets, root, 8)
    assert got == oracle_sequence(run_spec(*sets), 8)


def test_legal_flag_combinations_and_rule_dispatch():
    """Start and end flags never conflict, and each state matches exactly
    one grammar case, which determines its generated rule."""
    systems = [
        build_run_system(ONE, ONE, ONE),
        build_run_system(TWO, EMPTY, ONE, merge_inactive_slots=False),
        build_run_system(ODD, EMPTY, EVEN_POS),
    ]
    seen_cases = set()
    for system in systems:
        for state, name in system.var_of.items():
            assert not (state.start_up and state.start_flat)
            assert not (state.end_down and state.end_flat)
            cases = {
                "lead_flat": state.start_flat,
                "trail_flat": state.end_flat and not state.start_flat,
                "arch": state.start_up and state.end_down,
                "open": not any((state.start_up, state.end_down,
                                 state.start_flat, state.end_flat)),
                "down_end": (state.end_down and not state.start_up
                             and not state.start_flat and not state.end_flat),
                "up_start": (state.start_up and not state.end_down
                             and not state.start_flat and not state.end_flat),
            }
            active = [k for k, v in cases.items() if v]
            assert len(active) == 1, (state, active)
            seen_cases.add(active[0])
            rule = system.case_of[name]
            if state.kind == "h":
                assert rule[0] == "split"
                continue
            if active[0] in ("lead_flat", "trail_flat"):
                assert rule[0] == "step" and rule[3] == 1
            elif active[0] == "arch":
                assert rule[0] == "step" and rule[3] == 2
            elif active[0] == "open":
                assert rule[0] == "fork" and rule[4] == 1
            else:
                assert rule[0] == "fork" and rule[4] == 0
    assert {"lead_flat", "arch", "open"} <= seen_cases


def test_state_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(symbolic, "STATE_CAP", 5)
    with pytest.raises(SystemBuildError):
        build_run_system(ONE, ONE, ONE)


# reading arbitration ---------------------------------------------------------
#
# Each keyword reading has one validated value; the alternative produces a
# system whose equations fail as counting identities.  The audits below pin
# both sides so a silent regression in either direction is caught.


def test_arch_flat_slots_must_reset():
    sets = (TWO, EMPTY, ONE)
    ref = oracle_sequence(run_spec(*sets), 10)
    assert ref == [1, 0, 2, 1, 5, 4, 15, 16, 55, 68, 222]

    good = build_run_system(*sets, arch_flat_slots="reset",
                            merge_inactive_slots=False)
    assert good.size() == 38
    assert iterate_series(good, 10) == ref
    assert audit_system(good) == []

    bad = build_run_system(*sets, arch_flat_slots="carry",
                           merge_inactive_slots=False)
    assert bad.size() == 53
    got = iterate_series(bad, 10)
    assert got[:9] == ref[:9]
    assert got[9] == 72 and ref[9] == 68
    assert audit_system(bad) == ["v21", "v34", "v46"]


def test_trailing_strip_must_carry_the_start_slot():
    sets = (ONE, ONE, ONE)
    ref = oracle_sequence(run_spec(*sets), 10)

    good = build_run_system(*sets, strip_end_start_slot="carry",
                            merge_inactive_slots=False)
    assert good.size() == 39
    assert iterate_series(good, 10) == ref
    assert audit_system(good) == []

    bad = build_run_system(*sets, strip_end_start_slot="reset",
                           merge_inactive_slots=False)
    got = iterate_series(bad, 10)
    assert got[2] != ref[2]
    assert set(audit_system(bad)) >= {"v7", "v11"}


def test_trailing_strip_must_reset_the_end_slot():
    sets = (ONE, ONE, ONE)
    ref = oracle_sequence(run_spec(*sets), 10)

    good = build_run_system(*sets, strip_end_end_slot="reset",
                            merge_inactive_slots=False)
    assert iterate_series(good, 10) == ref

    bad = build_run_system(*sets, strip_end_end_slot="carry",
                           merge_inactive_slots=False)
    got = iterate_series(bad, 10)
    assert got[:8] == ref[:8]
    assert got[8] != ref[8]
    assert audit_system(bad) == ["v35"]


def test_merging_inactive_slots_changes_nothing_but_the_state_count():
    sets = (TWO, EMPTY, ONE)
    merged = build_run_system(*sets)
    unmerged = build_run_system(*sets, merge_inactive_slots=False)
    assert merged.size() == 31
    assert merged.size() < unmerged.size()
    assert iterate_series(merged, 12) == iterate_series(unmerged, 12)
    assert audit_system(merged) == []


# solving ---------------------------------------------------------------------


def test_solved_equations_vanish_on_reference_series(fab_goldens, fcde_goldens):
    for name, (F, _, _, literals) in {**fab_goldens, **fcde_goldens}.items():
        if name in fab_goldens:
            spec = RestrictionSpec(
                peaks=parse_stepset(literals[0]),
                valleys=parse_stepset(literals[1]),
            )
        else:
            spec = RestrictionSpec(
                up_runs=parse_stepset(literals[0]),
                down_runs=parse_stepset(literals[1]),
                flat_runs=parse_stepset(literals[2]),
            )
        series = Series.from_values(reference_series(spec, 24))
        assert series_vanishes(F, series), name


def test_solve_output_is_primitive_with_positive_lead(fcde_goldens):
    for F, _, _, _ in fcde_goldens.values():
        assert F.ring == ("P", "x")
        _, lead_coeff = F.lt()
        assert lead_coeff > 0
        assert content(F) == 1


# (deg_P, deg_x, terms) of eliminate_to_root's result, before any stripping
# or certification, and a sha256 of its sorted terms; a change of elimination
# branch shows in the sizes first, any other change of a term in the digest
RAW_ELIMINANTS = [
    ("fab", ("{1,4}", "{1,3}"), (2, 16, 48),
     "fdbd6ba50531fc8a42aa133d5c48b081b2651602a2cb08bc1e1e2dae16a35a5f"),
    ("fab", ("{2*r+1}", "{2*r+1}"), (2, 5, 11),
     "ec5a8797cd7e3da346f31759d5444e750ce638b1bde64767ca69fc4685614f09"),
    ("fcde", ("{}", "{1}", "{1}"), (7, 85, 477),
     "1af372206d9e0c8d2e435376467cfe8dc3eb1dc7062a1bd9a7f194006031b0fb"),
    ("fcde", ("{2*r+1}", "{2*r+1}", "{2*r+1}"), (19, 408, 2327),
     "c5c0834797f86625781e1b119f76bf43a33941890619e76cbf246e01cacfce22"),
    ("fcde", ("{2*r+1}", "{}", "{2*r+2}"), (5, 56, 296),
     "6dc8a635f9c30f838724240ced8d8eb541fba4179f0a978e4761e2302b75b9c5"),
    ("fcde", ("{1,2,3}", "{}", "{}"), (17, 204, 1900),
     "5ca044d39e984b9ad6300958f703de104f77bfa2cd0ff40e9bd861331da20383"),
]


def test_raw_eliminants_are_pinned():
    sizes = []
    for kind, literals, want, digest in RAW_ELIMINANTS:
        sets = [parse_stepset(t) for t in literals]
        system = (build_peak_valley_system if kind == "fab" else build_run_system)(*sets)
        q, _ = symbolic.raw_eliminant(system)
        sizes.append((q.degree(ROOT), q.degree(BASE), len(q.terms)))
        assert sizes[-1] == want, (kind, literals)
        terms = repr(sorted(q.terms.items())).encode()
        assert hashlib.sha256(terms).hexdigest() == digest, (kind, literals)
    # the first five are the derive goldens of the benchmark
    assert sum(p for p, _, _ in sizes[:5]) == 35
    assert sum(x for _, x, _ in sizes[:5]) == 570


def test_one_dp_table_per_spec_in_a_derivation(monkeypatch):
    built = []

    class CountingTable(symbolic.DPTable):
        def __init__(self, spec):
            built.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(symbolic, "DPTable", CountingTable)
    F = fab(ODD, ODD)
    assert poly_text(F) == "x^4*P^2 + (x^3-3*x^2+3*x-1)*P + x^2 - 2*x + 1"
    assert built == [RestrictionSpec(peaks=ODD, valleys=ODD)]


def test_reference_series_grows_the_table_it_is_given():
    spec = run_spec(ONE, EMPTY, ONE)
    tables = {}
    assert reference_series(spec, 8, tables) == sequence(spec, 8)
    table = tables[spec]
    assert reference_series(spec, 20, tables) == sequence(spec, 20)
    assert tables == {spec: table}
    # a height-0 spec reduces to the relaxed spec, whose table is kept
    zero = RestrictionSpec(peaks=parse_stepset("{0}"))
    tables = {}
    assert reference_series(zero, 10, tables) == oracle_sequence(zero, 10)
    assert list(tables) == [RestrictionSpec()]


def test_iterate_series_matches_dp_on_mixed_examples():
    for sets in [(ONE, EMPTY, EMPTY), (EMPTY, ONE, ONE), (ODD, EMPTY, EVEN_POS)]:
        system = build_run_system(*sets)
        assert iterate_series(system, 12) == sequence(run_spec(*sets), 12)


# reference series routing ------------------------------------------------------


def test_reference_series_handles_height_zero_peaks():
    spec = RestrictionSpec(peaks=parse_stepset("{0}"))
    assert reference_series(spec, 10) == oracle_sequence(spec, 10)
    spec2 = RestrictionSpec(peaks=parse_stepset("{0,1}"))
    assert reference_series(spec2, 10) == oracle_sequence(spec2, 10)


def test_reference_series_handles_height_zero_valleys():
    spec = RestrictionSpec(valleys=parse_stepset("{0}"))
    assert reference_series(spec, 10) == oracle_sequence(spec, 10)
    spec2 = RestrictionSpec(peaks=parse_stepset("{2}"), valleys=parse_stepset("{2*r}"))
    assert reference_series(spec2, 10) == oracle_sequence(spec2, 10)


def test_reference_series_plain_case_is_the_dp():
    spec = run_spec(ONE, EMPTY, ONE)
    assert reference_series(spec, 12) == sequence(spec, 12)


def test_solve_system_rejects_nothing_but_failed_certificates(fcde_goldens):
    # the solver's certificate is internal; this pins the public contract
    # that every returned polynomial annihilates its own counting series
    F, _, _, _ = fcde_goldens["all_odd"]
    spec = run_spec(ODD, ODD, ODD)
    s = Series.from_values(sequence(spec, 30))
    assert poly_series_eval(F, s).is_zero()
