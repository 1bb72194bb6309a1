"""Shared fixtures: the slow run-length equations are derived once per session.

Each golden entry records the equation text the derivation must reproduce and
the wall time it took, so the acceptance module can assert per-case budgets
without recomputing anything.
"""

from __future__ import annotations

import time

import pytest

from motzkin_autocount import (
    RestrictionSpec,
    cli,
    fab,
    fcde,
    oracle,
    parse_stepset,
    poly_text,
)

FAB_GOLDENS = {
    "odd_odd": (
        ("{2*r+1}", "{2*r+1}"),
        "x^4*P^2 + (x^3-3*x^2+3*x-1)*P + x^2 - 2*x + 1",
    ),
    "finite_14_13": (
        ("{1,4}", "{1,3}"),
        "(x^10-2*x^9-3*x^8+4*x^7+31*x^6-96*x^5+128*x^4-96*x^3+42*x^2-10*x+1)*P^2"
        " + (x^9-3*x^8+3*x^7-17*x^6+72*x^5-132*x^4+126*x^3-66*x^2+18*x-2)*P"
        " + x^8 - 2*x^7 + 5*x^6 - 12*x^5 + 29*x^4 - 38*x^3 + 25*x^2 - 8*x + 1",
    ),
}

FCDE_GOLDENS = {
    "up_123": (
        ("{1,2,3}", "{}", "{}"),
        "x^9*P^5 + x^8*P^4 + (-x^3+x^2)*P^2 + (-x^2+x-1)*P + 1",
    ),
    "down_flat_1": (
        ("{}", "{1}", "{1}"),
        "x^6*P^3 + (x^6-x^5+x^4-x^3+x^2)*P^2 + (-x^4+x^3-x^2+x-1)*P + x^2 - x + 1",
    ),
    "all_odd": (
        ("{2*r+1}", "{2*r+1}", "{2*r+1}"),
        "x^4*P^2 + (x^2-1)*P + 1",
    ),
    "up_odd_flat_even": (
        ("{2*r+1}", "{}", "{2*r+2}"),
        "(x^6-x^5-x^4)*P^3 + (-x^2+1)*P + x^2 - x - 1",
    ),
}


@pytest.fixture(scope="session")
def golden_equations():
    """(spec, expected equation text) of every golden, derived by nothing."""
    out = []
    for (A, B), want in FAB_GOLDENS.values():
        spec = RestrictionSpec(peaks=parse_stepset(A), valleys=parse_stepset(B))
        out.append((spec, want))
    for (C, D, E), want in FCDE_GOLDENS.values():
        spec = RestrictionSpec(up_runs=parse_stepset(C), down_runs=parse_stepset(D),
                               flat_runs=parse_stepset(E))
        out.append((spec, want))
    return out


@pytest.fixture(scope="session")
def fcde_goldens():
    """name -> (polynomial, wall seconds, expected text, set literals)."""
    out = {}
    for name, (literals, want) in FCDE_GOLDENS.items():
        sets = tuple(parse_stepset(s) for s in literals)
        t0 = time.perf_counter()
        F = fcde(*sets)
        out[name] = (F, time.perf_counter() - t0, want, literals)
    return out


@pytest.fixture(scope="session")
def fab_goldens():
    out = {}
    for name, (literals, want) in FAB_GOLDENS.items():
        sets = tuple(parse_stepset(s) for s in literals)
        t0 = time.perf_counter()
        F = fab(*sets)
        out[name] = (F, time.perf_counter() - t0, want, literals)
    return out


@pytest.fixture()
def run_cli(capsys):
    def run(*argv):
        rc = cli.main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return run


@pytest.fixture()
def refuse_paths(monkeypatch):
    """Make any generation of oracle paths or class tables during the test fail."""
    def refuse(n):
        raise AssertionError(f"paths of length {n} generated")

    monkeypatch.setattr(oracle, "motzkin_paths", refuse)
    monkeypatch.setattr(oracle, "class_tables", refuse)


def assert_golden_text(F, want):
    assert poly_text(F) == want
