"""Symbolic grammar expansion, rule mutants, and equation solving."""

import random
from dataclasses import replace
from itertools import product
from math import isqrt

import pytest

from motzkin_autocount import (
    EMPTY,
    PVState,
    RestrictionSpec,
    Series,
    fab,
    fcde,
    motzkin_numbers,
    oracle_sequence,
    parse_stepset,
    poly_text,
    sequence,
)
from motzkin_autocount.algebra import (
    MPoly,
    _split_content,
    content,
    gens,
    make_ring,
    poly_series_eval,
    series_vanishes,
)
from motzkin_autocount.numeric_dp import DPTable
from motzkin_autocount.oracle import state_series
from motzkin_autocount import algebra, symbolic
from motzkin_autocount.symbolic import (
    BASE,
    ROOT,
    EquationSystem,
    GrammarSeries,
    RunState,
    StateCapError,
    SystemBuildError,
    audit_system,
    build_peak_valley_system,
    build_run_system,
    guess_and_prove,
    iterate_series,
    proof_holds,
)

ONE = parse_stepset("{1}")
TWO = parse_stepset("{2}")
ODD = parse_stepset("{2*r+1}")
EVEN_POS = parse_stepset("{2*r+2}")
R2 = parse_stepset("{r+2}")


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
    assert system.case_of == {ROOT: ("first_return", ROOT, ROOT)}
    assert audit_system(system) == []


def test_odd_height_system_is_a_three_state_cycle():
    system = build_peak_valley_system(ODD, ODD)
    assert system.size() == 3
    even = parse_stepset("{2*r}")
    cases = {
        system.case_of[name][0]: state
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
        build_run_system(TWO, EMPTY, ONE),
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
    assert seen_cases == {"lead_flat", "trail_flat", "arch", "open", "down_end", "up_start"}


def test_state_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(symbolic, "STATE_CAP", 5)
    with pytest.raises(StateCapError):
        build_run_system(ONE, ONE, ONE)
    with pytest.raises(StateCapError):
        build_peak_valley_system(parse_stepset("{9}"), EMPTY)


# slot readings and rule mutants ------------------------------------------------
#
# Each run rule reads the slots of its child one fixed way.  Under the
# merging of unreachable slots, the one reading with a real alternative is
# the initial slot when a trailing flat step is stripped; the first test
# below pins it on brute-force state series.  A mutant changes one rule
# tuple (and its polynomial): audit_system must flag it, GrammarSeries must
# follow it, and the route must refuse it when the root series leaves the
# DP.


def _mutant(system, rule):
    """The system with the rule of variable rule[1] replaced, polynomial too."""
    polys = list(system.polys)
    polys[list(system.case_of).index(rule[1])] = symbolic._equation(gens(system.ring), rule)
    return replace(system, polys=polys, case_of={**system.case_of, rule[1]: rule})


ALL_ONES = build_run_system(ONE, ONE, ONE)
RUN_MUTANTS = [
    ("step", "v5", "v9", 3),              # the arch power, 2 in the grammar
    ("step", "v4", "v12", 1),             # the child, v8 in the grammar
    ("fork", "v1", "v3", "v4", 0),        # the empty path dropped
    ("split", "v9", "v14", "v13", "v15"),  # same and left exchanged
]


def test_trailing_strip_must_carry_the_start_slot():
    sets = ALL_ONES.sets
    state_of = {v: s for s, v in ALL_ONES.var_of.items()}
    strips = [(s, state_of[ALL_ONES.case_of[v][2]]) for s, v in ALL_ONES.var_of.items()
              if s.kind == "H" and s.end_flat and not s.start_flat]
    assert strips

    def holds(parent, child):  # parent = x * child, on brute force
        return state_series(sets, parent, 8) == [0] + state_series(sets, child, 7)

    assert all(holds(parent, child) for parent, child in strips)
    # the forced up-start is carried; resetting the slot breaks the rule
    assert all(parent.start_up and child.start_up for parent, child in strips)
    assert not any(holds(parent, replace(child, first_up=ONE, start_up=False))
                   for parent, child in strips)


def test_audit_flags_exactly_the_mutated_variable():
    for rule in RUN_MUTANTS:
        assert audit_system(_mutant(ALL_ONES, rule)) == [rule[1]], rule
    odd = build_peak_valley_system(ODD, ODD)
    for rule in [("first_return", "v1", "v2"), ("flat_carve", "v2", "P"),
                 ("single_arch", "P", "v1")]:
        assert audit_system(_mutant(odd, rule)) == [rule[1]], rule


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
        series = Series.from_values(sequence(spec, 24))
        assert series_vanishes(F, series), name


def test_solve_output_is_primitive_with_positive_lead(fcde_goldens):
    for F, _, _, _ in fcde_goldens.values():
        assert F.ring == ("P", "x")
        assert F.terms[max(F.terms)] > 0
        assert content(F) == 1


# the battery pool of scripts/equation_audit.py
AUDIT_POOL = ["{}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2*r+1}", "{2*r+2}", "{r+2}"]


def test_collapse_by_blocks_matches_the_whole_matrix(monkeypatch):
    specs = list(product(AUDIT_POOL, repeat=3))
    random.Random(7).shuffle(specs)
    systems = []
    for literals in specs:
        system = build_run_system(*(parse_stepset(t) for t in literals))
        if system.size() <= 60:
            systems.append(system)
        if len(systems) == 30:
            break
    blocked = [symbolic._collapse_linear_layer(system) for system in systems]
    monkeypatch.setattr(symbolic, "linear_solve", algebra._gauss_jordan)
    for system, (polys, den) in zip(systems, blocked):
        whole, whole_den = symbolic._collapse_linear_layer(system)
        assert polys == whole  # term for term
        assert den in (whole_den, -whole_den)


def test_one_dp_table_per_spec_in_a_derivation(monkeypatch):
    built, filled = [], []

    class CountingTable(DPTable):
        def __init__(self, spec):
            built.append(spec)
            super().__init__(spec)

        def ensure(self, m):
            filled.append(m)
            super().ensure(m)

    monkeypatch.setattr(symbolic, "DPTable", CountingTable)
    # the chain reads DP terms only to pick a linear factor of a quadratic
    F = fab(ODD, ODD)
    assert poly_text(F) == "x^4*P^2 + (x^3-3*x^2+3*x-1)*P + x^2 - 2*x + 1"
    assert (built, filled) == ([RestrictionSpec(peaks=ODD, valleys=ODD)], [])
    built.clear()
    assert poly_text(fab(R2, R2)) == "(2*x-1)*P - x + 1"
    assert built == [RestrictionSpec(peaks=R2, valleys=R2)] and filled
    built.clear()
    assert poly_text(fcde(ODD, ODD, ODD)) == "x^4*P^2 + (x^2-1)*P + 1"
    assert built == [run_spec(ODD, ODD, ODD)]


def test_iterate_series_matches_dp_on_mixed_examples():
    for sets in [(ONE, EMPTY, EMPTY), (EMPTY, ONE, ONE), (ODD, EMPTY, EVEN_POS), (TWO, EMPTY, ONE)]:
        system = build_run_system(*sets)
        assert iterate_series(system, 12) == sequence(run_spec(*sets), 12)
        assert audit_system(system) == []


def test_solve_system_rejects_nothing_but_failed_certificates(fcde_goldens):
    # the solver's certificate is internal; this pins the public contract
    # that every returned polynomial annihilates its own counting series
    F, _, _, _ = fcde_goldens["all_odd"]
    spec = run_spec(ODD, ODD, ODD)
    s = Series.from_values(sequence(spec, 30))
    assert poly_series_eval(F, {ROOT: s}, s.order).is_zero()


# order-by-order grammar series -------------------------------------------------


def _fixpoint_series(system, n):
    """Every state's series by whole-series fixpoint sweeps of the rules:
    the former iterate_series, kept as the reference for GrammarSeries."""
    order = n + 1
    one = Series.from_values([1] + [0] * n)
    g = {name: Series.from_values([0] * order) for name in system.case_of}
    while True:
        changed = False
        for rule in system.case_of.values():
            kind, v = rule[0], rule[1]
            if kind == "step":
                new = g[rule[2]].shift(rule[3])
            elif kind == "fork":
                new = g[rule[2]] + g[rule[3]]
                if rule[4]:
                    new = new + one
            else:
                new = g[rule[2]] + g[rule[3]] * g[system.root] * g[rule[4]]
            if new != g[v]:
                g[v] = new
                changed = True
        if not changed:
            return {v: list(s.coeffs) for v, s in g.items()}


def test_grammar_series_of_every_state():
    got = GrammarSeries(ALL_ONES).extend(9).coeffs
    for state, name in ALL_ONES.var_of.items():
        assert got[name] == state_series(ALL_ONES.sets, state, 8), name
    # a mutant's rules do not count its states, but the series are still
    # the unique solution of those rules
    for rule in RUN_MUTANTS:
        bad = _mutant(ALL_ONES, rule)
        got = GrammarSeries(bad).extend(9).coeffs
        assert got == _fixpoint_series(bad, 8), rule
        for n in (0, 3, 8):
            assert GrammarSeries(bad).extend(n + 1).coeffs == {
                v: c[:n + 1] for v, c in got.items()
            }


def test_grammar_series_extends_in_steps():
    system = build_run_system(ODD, EMPTY, EVEN_POS)
    engine = GrammarSeries(system).extend(5).extend(5).extend(13)
    assert engine.coeffs == GrammarSeries(system).extend(13).coeffs
    assert engine.coeffs[ROOT] == sequence(run_spec(ODD, EMPTY, EVEN_POS), 12)


def _rule_system(rules):
    names = [r[1] for r in rules]
    ring = make_ring(*[v for v in names if v != ROOT], ROOT, BASE)
    return EquationSystem(ring, [], ROOT, case_of={r[1]: r for r in rules})


def test_grammar_series_when_the_left_factor_counts_the_empty_path():
    # P = s + l*P*r with s = 1 + x*P, l = 1, r = x^2*P: the Motzkin
    # equation, in a shape the run grammar never builds (its left factors
    # are nonempty), where the split reads order k of r
    system = _rule_system([
        ("split", ROOT, "s", "l", "r"),
        ("fork", "s", "a", "z", 1),
        ("step", "a", ROOT, 1),
        ("step", "z", "z", 1),
        ("fork", "l", "z", "z", 1),
        ("step", "r", ROOT, 2),
    ])
    engine = GrammarSeries(system).extend(13)
    assert engine.coeffs[ROOT] == motzkin_numbers(12)
    assert engine.coeffs == _fixpoint_series(system, 12)


def test_a_weight_zero_cycle_is_refused():
    cycle = _rule_system([
        ("fork", ROOT, "v1", "v2", 0),
        ("fork", "v1", ROOT, "v2", 0),
        ("step", "v2", ROOT, 1),
    ])
    with pytest.raises(SystemBuildError, match="cycle"):
        GrammarSeries(cycle)
    # the same fork through a step has weight one and is fine
    chain = _rule_system([
        ("fork", ROOT, "v1", "v2", 1),
        ("step", "v1", ROOT, 1),
        ("step", "v2", ROOT, 2),
    ])
    assert iterate_series(chain, 6) == [1, 1, 2, 3, 5, 8, 13]


# guess and prove ---------------------------------------------------------------

ALL_ONES_TEXT = (
    "x^16*P^4 + (2*x^16-3*x^15+2*x^14+x^13-3*x^12+3*x^11-3*x^10+2*x^9-x^8)*P^3"
    " + (-3*x^14+8*x^13-13*x^12+12*x^11-7*x^10+7*x^8-14*x^7+18*x^6-16*x^5"
    "+10*x^4-4*x^3+x^2)*P^2 + (2*x^12-7*x^11+14*x^10-16*x^9+9*x^8+5*x^7"
    "-18*x^6+24*x^5-23*x^4+17*x^3-10*x^2+4*x-1)*P + x^8 - 4*x^7 + 10*x^6"
    " - 16*x^5 + 19*x^4 - 16*x^3 + 10*x^2 - 4*x + 1"
)


def _route(literals):
    sets = [parse_stepset(t) for t in literals]
    return guess_and_prove(build_run_system(*sets), DPTable(run_spec(*sets)))


def test_route_proves_the_fcde_goldens(fcde_goldens):
    cases = [(literals, want) for _, _, want, literals in fcde_goldens.values()]
    cases += [
        (("{1}", "{1}", "{1}"), ALL_ONES_TEXT),
        (("{}", "{}", "{}"), "x^2*P^2 + (x-1)*P + 1"),
        (("{}", "{}", "{r+1}"), "x^2*P^2 - P + 1"),
    ]
    for literals, want in cases:
        F = _route(literals)
        assert F is not None, literals
        assert poly_text(F) == want, literals


def test_the_route_refuses_an_inconsistent_grammar():
    # the root series of this mutant leaves the DP at order 4, inside the
    # prefix the guess of F was made from
    bad = _mutant(ALL_ONES, RUN_MUTANTS[0])
    got, want = iterate_series(bad, 4), sequence(run_spec(ONE, ONE, ONE), 4)
    assert got[:4] == want[:4] and got[4] != want[4]
    with pytest.raises(RuntimeError, match="inconsistent"):
        guess_and_prove(bad, DPTable(run_spec(ONE, ONE, ONE)))


def test_the_route_declines_systems_without_series_before_guessing(monkeypatch):
    def no_guess(*args):
        raise AssertionError("guessed")

    monkeypatch.setattr(symbolic, "_guess_at", no_guess)
    pv = build_peak_valley_system(ODD, EMPTY)
    assert guess_and_prove(pv, DPTable(RestrictionSpec(peaks=ODD))) is None


def test_no_stage_is_guessed_twice(monkeypatch):
    stages = []
    guess = symbolic.guess_algebraic

    def counting(values, cfg):
        stages.append((cfg.max_p_degree, cfg.max_x_degree))
        return guess(values, cfg)

    monkeypatch.setattr(symbolic, "guess_algebraic", counting)
    monkeypatch.setattr(symbolic, "proof_holds", lambda *args: False)
    # a failed proof declines; nothing else is tried
    assert fcde(ODD, ODD, ODD) is None
    assert stages and len(stages) == len(set(stages))


def _proof_inputs(literals):
    """What guess_and_prove hands to proof_holds for one spec."""
    sets = [parse_stepset(t) for t in literals]
    system = build_run_system(*sets)
    F = _route(literals)
    engine = GrammarSeries(system)
    splits = [r[1] for r in system.case_of.values() if r[0] == "split" and r[1] != ROOT]
    relations = symbolic._split_relations(
        engine, system.ring, splits, F.degree(ROOT), F.degree(BASE)
    )
    polys, den = symbolic._collapse_linear_layer(system)
    const = {v: c[0] for v, c in engine.coeffs.items()}
    return polys, den, F, relations, const


def _bump(poly, exps):
    return poly + MPoly(poly.ring, {exps: 1})


def test_the_proof_refuses_mutants():
    polys, den, F, relations, const = _proof_inputs(("{}", "{1}", "{1}"))
    assert proof_holds(polys, den, F, relations, const)
    # F with one coefficient changed
    assert not proof_holds(polys, den, _bump(F, (1, 3)), relations, const)
    # one coefficient of one A_v changed: the term x^2 * P
    v, rel = next(iter(relations.items()))
    wrong = dict(relations)
    wrong[v] = rel + gens(rel.ring)[BASE] ** 2 * gens(rel.ring)[ROOT]
    assert not proof_holds(polys, den, F, wrong, const)
    # a linear layer whose denominator vanishes at x = 0
    x = gens(den.ring)[BASE]
    assert not proof_holds(polys, den * x, F, relations, const)
    # where D_v = x^k * D'_v with k > 0, a constant term of v that is not the
    # x^k coefficient of A_v(x, alpha) over D'_v(0)
    polys, den, F, relations, const = _proof_inputs(("{2*r+2}", "{2*r+2}", "{r+2}"))
    assert proof_holds(polys, den, F, relations, const)
    v = next(v for v, rel in relations.items()
             if 0 not in rel.as_coeff_map(v)[1].as_coeff_map(BASE))
    assert not proof_holds(polys, den, F, relations, {**const, v: const[v] + 1})


def test_the_proof_pins_the_series_root_at_the_origin():
    # (P - 1)^2 = x has no power series root through P(0) = 1, although the
    # system's only equation is F itself and every other check passes
    ring = make_ring(ROOT, BASE)
    g = gens(ring)
    F = (g[ROOT] - 1) ** 2 - g[BASE]
    one = MPoly.const(ring, 1)
    assert not proof_holds([F], one, F, {}, {ROOT: 1})
    G = (g[ROOT] - 1) * (g[ROOT] + 1) - g[BASE]
    assert proof_holds([G], one, G, {}, {ROOT: 1})
    assert not proof_holds([G], one, G, {}, {ROOT: 2})  # G(0, 2) != 0
    # v^2 = P^2 holds on both v = P and v = -P modulo F; only the branch
    # with v's constant term is the counting series
    F = g[BASE] * g[ROOT] ** 2 - g[ROOT] + 1
    big = make_ring("v", ROOT, BASE)
    h = gens(big)
    polys = [F.restrict(big), h["v"] ** 2 - h[ROOT] ** 2]
    const = {ROOT: 1, "v": 1}
    assert proof_holds(polys, one, F, {"v": h["v"] - h[ROOT]}, const)
    assert not proof_holds(polys, one, F, {"v": h["v"] + h[ROOT]}, const)
    # x*v = P holds on v = P/x, which is no power series: D_v(0) = 0
    polys = [F.restrict(big), h[BASE] * h["v"] - h[ROOT]]
    rel = h[BASE] ** 2 * h["v"] - h[BASE] * h[ROOT]
    assert not proof_holds(polys, one, F, {"v": rel}, const)


# the equations of specs where some split relation has D_v(0) = 0, which
# the route proves since proof_holds splits x^k off D_v
ZERO_AT_ORIGIN = {
    ("{2*r+1}", "{2*r+2}", "{1,2}"): (
        "(x^15-3*x^14+3*x^13-x^12)*P^6 + (x^17-2*x^16+3*x^14-3*x^13+x^12"
        "-x^11+3*x^10-3*x^9+x^8)*P^5 + (x^15-x^14-x^11+3*x^10-3*x^9"
        "+x^8)*P^4 + (3*x^15-3*x^14-7*x^13+12*x^12-2*x^11-10*x^10+7*x^9+x^8"
        "-6*x^6+6*x^5-2*x^4)*P^3 + (-x^13+x^11-x^10+x^9-2*x^8+3*x^6-3*x^5"
        "+x^4)*P^2 + (x^13-3*x^11+3*x^10+3*x^9-6*x^8+x^7+4*x^6-x^5-3*x^4"
        "+x^3+3*x^2-3*x+1)*P - x^9 + 3*x^7 - 3*x^6 - 3*x^5 + 6*x^4 - 2*x^3 "
        "- 3*x^2 + 3*x - 1"
    ),
    ("{2*r+2}", "{2*r+2}", "{r+2}"): (
        "x^8*P^4 + (-x^9+x^8+x^7-x^6-x^5-x^4)*P^3 + (x^10+2*x^9+x^8-4*x^7"
        "-7*x^6-2*x^5+3*x^4+4*x^3+2*x^2)*P^2 + (-x^7-x^6+2*x^5+2*x^4-2*x^3"
        "-4*x^2-3*x-1)*P + x^4 + 4*x^3 + 6*x^2 + 4*x + 1"
    ),
    ("{2*r+2}", "{2*r+2}", "{3}"): (
        "(x^12-4*x^11+6*x^10-4*x^9+x^8)*P^4 + (2*x^16-7*x^15+8*x^14+x^13"
        "-10*x^12+9*x^11-7*x^10+11*x^9-12*x^8+7*x^7-4*x^6+3*x^5-x^4)*P^3 "
        "+ (x^22-4*x^21+4*x^20+6*x^19-14*x^18+4*x^17+3*x^16+14*x^15-19*x^14"
        "-6*x^13+16*x^12-4*x^11+10*x^10-22*x^9+16*x^8-12*x^7+14*x^6-8*x^5"
        "+3*x^4-4*x^3+2*x^2)*P^2 + (2*x^18-7*x^17+8*x^16+x^15-6*x^14-x^13"
        "-x^12+19*x^11-22*x^10+10*x^9-12*x^8+21*x^7-13*x^6+5*x^5-7*x^4"
        "+6*x^3-x^2+x-1)*P + x^16 - 4*x^15 + 6*x^14 - 4*x^13 + 5*x^12 "
        "- 12*x^11 + 12*x^10 - 4*x^9 + 6*x^8 - 12*x^7 + 6*x^6 + 4*x^4 "
        "- 4*x^3 + 1"
    ),
    ("{2*r+2}", "{2*r+2}", "{2*r+2}"): (
        "(x^16-4*x^14+6*x^12-4*x^10+x^8)*P^4 + (-x^16+x^15+3*x^14-4*x^13"
        "-x^12+7*x^11-2*x^10-7*x^9-x^8+4*x^7+3*x^6-x^5-x^4)*P^3 + (2*x^14"
        "-4*x^13-5*x^12+14*x^11-x^10-18*x^9+8*x^8+18*x^7-x^6-14*x^5-5*x^4"
        "+4*x^3+2*x^2)*P^2 + (-x^12+3*x^11-7*x^9+6*x^8+3*x^7-8*x^6-3*x^5"
        "+6*x^4+7*x^3-3*x-1)*P + x^8 - 4*x^7 + 2*x^6 + 8*x^5 - 5*x^4 "
        "- 8*x^3 + 2*x^2 + 4*x + 1"
    ),
    ("{2*r+1}", "{2*r+2}", "{2*r+1}"): (
        "(x^18-3*x^16+3*x^14-x^12)*P^6 + (x^16-3*x^14+4*x^12-3*x^10"
        "+x^8)*P^5 + (2*x^12-3*x^10+x^8)*P^4 + (3*x^10-6*x^8+4*x^6"
        "-2*x^4)*P^3 + (-2*x^6+x^4)*P^2 + (x^4-x^2+1)*P - 1"
    ),
    ("{2*r+2}", "{2*r+1}", "{}"): (
        "(x^15-3*x^14+3*x^13-x^12)*P^6 + (x^14-2*x^13+x^12-x^11+3*x^10"
        "-3*x^9+x^8)*P^5 + (2*x^10-3*x^9+x^8)*P^4 + (3*x^9-3*x^8-3*x^6"
        "+4*x^5-2*x^4)*P^3 + (-2*x^5+x^4)*P^2 + (x^4-x+1)*P - 1"
    ),
    ("{2*r+1}", "{2*r+2}", "{3}"): (
        "(x^15-3*x^14+3*x^13-x^12)*P^6 + (x^18-3*x^17+3*x^16-x^15+x^14"
        "-2*x^13+x^12-x^11+3*x^10-3*x^9+x^8)*P^5 + (x^17-3*x^16+3*x^15+x^14"
        "-4*x^13+2*x^12+2*x^10-3*x^9+x^8)*P^4 + (3*x^17-10*x^16+12*x^15"
        "-6*x^14+5*x^13-9*x^12+6*x^11-4*x^10+8*x^9-7*x^8+2*x^7-3*x^6+4*x^5"
        "-2*x^4)*P^3 + (-x^16+3*x^15-3*x^14-x^13+3*x^12-x^10-4*x^9+5*x^8"
        "-x^7-2*x^5+x^4)*P^2 + (x^16-3*x^15+3*x^14-x^13+3*x^12-6*x^11"
        "+3*x^10-x^9+6*x^8-6*x^7+x^6-2*x^5+5*x^4-2*x^3-x+1)*P - x^12 "
        "+ 3*x^11 - 3*x^10 + x^9 - 3*x^8 + 6*x^7 - 3*x^6 - 3*x^4 + 3*x^3 "
        "- 1"
    ),
}


def test_the_route_proves_relations_whose_d_v_vanishes_at_the_origin(monkeypatch):
    seen = []
    holds = symbolic.proof_holds

    def spy(polys, den, F, relations, const):
        seen.append(relations)
        return holds(polys, den, F, relations, const)

    monkeypatch.setattr(symbolic, "proof_holds", spy)
    for literals, want in ZERO_AT_ORIGIN.items():
        F = _route(literals)
        assert F is not None and poly_text(F) == want, literals
        # some D_v has no constant term, which a check of D_v(0) != 0 refuses
        relations = seen.pop()
        assert any(0 not in rel.as_coeff_map(v)[1].as_coeff_map(BASE)
                   for v, rel in relations.items()), literals


# continued fractions ----------------------------------------------------------

# 0, small finite sets, progressions and {r}, {r+1}, {r+2}: 225 (A, B) pairs
PV_POOL = ["{}", "{0}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{1,4}", "{0,2}",
           "{2*r+1}", "{2*r+2}", "{r}", "{r+1}", "{r+2}", "{2*r}"]


def test_the_chain_gives_minimal_equations():
    quadratics = 0
    for A, B in product(PV_POOL, repeat=2):
        peaks, valleys = parse_stepset(A), parse_stepset(B)
        F = fab(peaks, valleys)
        n = 2 * F.degree(BASE) + 12
        spec = RestrictionSpec(peaks=peaks, valleys=valleys)
        series = Series.from_values(sequence(spec, n))
        assert series_vanishes(F, series), (A, B)
        assert _split_content(F, ROOT, BASE)[0].is_constant(), (A, B)  # content 1 in x
        assert F.degree(ROOT) in (1, 2), (A, B)
        if F.degree(ROOT) == 2:
            quadratics += 1
            a, b, c = (F.as_coeff_map(ROOT).get(i, MPoly.zero(F.ring)) for i in (2, 1, 0))
            disc = b * b - 4 * a * c
            # no square in Z[x], so F is irreducible: some value is no square
            values = [sum(k * t ** e[1] for e, k in disc.terms.items()) for t in range(1, 30)]
            assert any(v < 0 or isqrt(v) ** 2 != v for v in values), (A, B)
    assert quadratics == 144


def test_square_roots_in_z_x():
    ring = make_ring(ROOT, BASE)
    x = gens(ring)[BASE]
    assert symbolic._square_root((3 * x * x - x + 2) ** 2) == 3 * x * x - x + 2
    assert symbolic._square_root(4 * x * x + 1) is None
    assert symbolic._square_root(2 * x * x) is None  # a square in R[x] only
    assert symbolic._square_root(-x * x) is None
