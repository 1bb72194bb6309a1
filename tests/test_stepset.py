"""Set-literal parsing, canonical forms, and the boundary-set operators."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkin_autocount import EMPTY, StepSet, StepSetError, format_stepset, parse_stepset
from motzkin_autocount import stepset

step_sets = st.builds(
    StepSet,
    st.frozensets(st.integers(0, 12), max_size=4),
    st.lists(
        st.tuples(st.integers(1, 5), st.integers(0, 6)), max_size=2
    ).map(tuple),
)


def test_parse_round_trips():
    for text in ["{}", "{1}", "{1,4}", "{2*r+1}", "{2*r}", "{r+2}", "{3*r+1,7}"]:
        s = parse_stepset(text)
        assert parse_stepset(format_stepset(s)) == s


def test_parse_normalizes_order_and_whitespace():
    assert parse_stepset("{ 4 , 1 }") == parse_stepset("{1,4}")
    assert format_stepset(parse_stepset("{4,1}")) == "{1,4}"


def test_parse_rejects_malformed_literals():
    for bad in ["1,4", "{1,}", "{-2}", "{x}", "{r*2}", "{2r+1}", "{0*r+1}"]:
        with pytest.raises(StepSetError):
            parse_stepset(bad)


def test_membership():
    odd = parse_stepset("{2*r+1}")
    assert [n for n in range(8) if n in odd] == [1, 3, 5, 7]
    assert [n for n in range(7) if n in parse_stepset("{3*r}")] == [0, 3, 6]
    assert not EMPTY
    assert 0 not in EMPTY


def test_canonical_form_merges_overlapping_descriptions():
    # {1} union {2r+3} is exactly the odd numbers
    assert StepSet((1,), ((2, 3),)) == parse_stepset("{2*r+1}")
    # two interleaved progressions covering everything collapse to {r}
    assert StepSet((), ((2, 0), (2, 1))) == parse_stepset("{r}")
    assert format_stepset(StepSet((), ((2, 0), (2, 1)))) == "{r}"


def test_sets_covering_too_many_residues_are_refused(monkeypatch):
    # 10009 + 10007 residues modulo 10007 * 10009: refused from the strides
    for text in ["{10007*r+1,10009*r+2}", "{100003*r+1,100019*r+2}"]:
        with pytest.raises(StepSetError, match="residues"):
            parse_stepset(text)
    # one progression covers one residue, whatever its stride
    start = time.perf_counter()
    assert parse_stepset("{10000019*r+1}").aps == ((10000019, 1),)
    assert time.perf_counter() - start < 0.1
    # the limit counts the residues: {2*r, 3*r} covers 3 + 2 modulo 6
    monkeypatch.setattr(stepset, "MAX_RESIDUES", 5)
    assert StepSet((), ((2, 0), (3, 0))).aps == ((6, 0), (6, 2), (6, 3), (6, 4))
    with pytest.raises(StepSetError):
        StepSet((), ((2, 0), (3, 0), (5, 0)))


def elements_upto(s: StepSet, bound: int) -> list[int]:
    """All members <= bound, ascending, read off the canonical parts."""
    out = {v for v in s.finite if v <= bound}
    for stride, off in s.aps:
        out.update(range(off, bound + 1, stride))
    return sorted(out)


def test_elements_upto():
    s = parse_stepset("{2*r+1,6}")
    assert elements_upto(s, 9) == [1, 3, 5, 6, 7, 9]
    assert elements_upto(EMPTY, 100) == []
    for text in ["{r}", "{3*r+1,7}", "{0,2,r+5}"]:
        s = parse_stepset(text)
        assert elements_upto(s, 30) == [n for n in range(31) if n in s]


def test_remove_zero():
    assert parse_stepset("{r}").remove_zero() == parse_stepset("{r+1}")
    assert parse_stepset("{3*r}").remove_zero() == parse_stepset("{3*r+3}")
    assert parse_stepset("{0,2}").remove_zero() == parse_stepset("{2}")
    odd = parse_stepset("{2*r+1}")
    assert odd.remove_zero() == odd


def test_decrement():
    assert parse_stepset("{2*r+1}").decrement() == parse_stepset("{2*r}")
    assert parse_stepset("{1,4}").decrement() == parse_stepset("{0,3}")
    for text in ["{0}", "{r}", "{2*r}"]:
        with pytest.raises(StepSetError):
            parse_stepset(text).decrement()


@given(step_sets, st.integers(0, 40))
def test_decrement_shifts_membership(s, n):
    if 0 in s:
        return
    assert (n in s.decrement()) == ((n + 1) in s)


@given(step_sets, st.integers(0, 40))
def test_remove_zero_membership(s, n):
    assert (n in s.remove_zero()) == (n in s and n != 0)


@given(step_sets, st.integers(0, 40))
def test_shift_down_membership(s, n):
    # the boundary evolution: drop 0, then shift everything down by one
    assert (n in s.remove_zero().decrement()) == ((n + 1) in s)


@given(step_sets)
def test_format_parse_round_trip(s):
    assert parse_stepset(format_stepset(s)) == s


@given(step_sets)
def test_canonical_key_determines_equality(s):
    rebuilt = StepSet(s.finite, s.aps)
    assert rebuilt == s
    assert (rebuilt.finite, rebuilt.aps) == (s.finite, s.aps)
    assert hash(rebuilt) == hash(s)


@settings(max_examples=60)
@given(step_sets)
def test_shift_down_orbit_is_finite(s):
    """Repeated boundary evolution must cycle; the engines rely on this."""
    seen = {s}
    cur = s
    for _ in range(64):
        cur = cur.remove_zero().decrement()
        if cur in seen:
            return
        seen.add(cur)
    raise AssertionError(f"no cycle within 64 steps starting from {s!r}")


def test_immutability():
    s = parse_stepset("{1}")
    with pytest.raises(AttributeError):
        s.finite = (2,)
