"""Brute-force reference counts by explicit path enumeration.

Paths are step strings over the alphabet {U, D, F}.  Every restriction is
read off each path itself, with no sharing of logic with the
dynamic-programming or symbolic engines; this module is the ground truth
the faster routes are validated against.  A guard refuses lengths above
MOTZKIN_ORACLE_GUARD (default 18; any other value than a nonnegative
integer is an error) because the enumeration is exponential; counting,
listing and the run-state counts check it before they build a table or
generate a path.

Admission reads only bitmasks.  A path's features have five slots (peak
and valley heights, up-, down- and flat-run lengths), and bit v of a slot
is set when some feature of that kind has value v; for lengths <= n slot s
is bits s*(n+1) .. s*(n+1)+n of one int (``feature_masks``).  A spec's
forbidden values 0..n take the same form (``forbidden_masks``), and a path
is admitted when the two AND to zero.  A flat-only path (the empty one
included) sets peak bit 0: every real peak follows a U step.

A count sums the multiplicities of the admitted mask classes, since paths
with equal masks get equal verdicts.  ``class_tables(n)`` tallies the
classes of every length <= n in one spec-free forward sweep over depths.
A prefix's state is its height, the kind and length of its current run,
its last non-flat step and its masks so far.  A step of another kind
closes the run, as ``features`` splits maximal blocks; a D after a last
non-flat U ends a ``U F* D`` peaking at the height before that D, and a
valley ``D F* U`` likewise.  Prefixes with equal states are merged and
their multiplicities added.  This is exact: the suffixes that complete a
prefix depend only on its height, and the bits a suffix adds (its closing
of the pending run, a peak or valley against the last non-flat step, every
later feature) depend only on the state without the masks, so equal
states stay equal under every completion.  At depth d the states at
height 0 are the paths of length d; closing their run gives length d's
table.  The sweep prunes heights above n - d, which no prefix of a path of
length <= n reaches, so one sweep to n serves every shorter length.  Only
the tables are cached, never the paths: the 41,835 paths of length 13 fall
into 1,077 classes.  ``features`` and ``list_restricted`` (which filters
``enumerate_motzkin`` with ``admits``) are the per-path references.

The run-state oracle counts the paths of one state of the run-length
grammar on explicit paths, so each equation the grammar generates can be
checked as a counting identity (symbolic.audit_system) without trusting
the symbolic machinery: ``state_admits`` reads the state's kind, slot sets
and flags by attribute off the path's runs (``_runs``, the splitter of
``features`` too), and ``state_series`` counts the admitted paths of each
length up to n.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Iterator

from .stepset import RestrictionSpec

DEFAULT_GUARD = 18

# enumeration order at each position; gives lexicographic path order U < D < F
_STEP_ORDER = "UDF"
_DELTA = {"U": 1, "D": -1, "F": 0}


class OracleGuardError(ValueError):
    """Requested length exceeds the brute-force guard."""


def oracle_guard() -> int:
    raw = os.environ.get("MOTZKIN_ORACLE_GUARD", str(DEFAULT_GUARD))
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"MOTZKIN_ORACLE_GUARD must be a nonnegative integer, not {raw!r}")
    return int(raw)


def is_motzkin(path: str) -> bool:
    """True iff path stays non-negative and ends at height 0."""
    h = 0
    for step in path:
        if step not in _DELTA:
            return False
        h += _DELTA[step]
        if h < 0:
            return False
    return h == 0


def _gen(prefix: list[str], height: int, remaining: int) -> Iterator[str]:
    if remaining == 0:
        if height == 0:
            yield "".join(prefix)
        return
    for step in _STEP_ORDER:
        nh = height + _DELTA[step]
        # prune: must be able to return to the axis in the steps left
        if nh < 0 or nh > remaining - 1:
            continue
        prefix.append(step)
        yield from _gen(prefix, nh, remaining - 1)
        prefix.pop()


def motzkin_paths(n: int) -> Iterator[str]:
    """Stream the Motzkin paths of length n in lexicographic step order U < D < F."""
    if n < 0:
        raise ValueError("length must be non-negative")
    return _gen([], 0, n)


@lru_cache(maxsize=32)
def enumerate_motzkin(n: int) -> tuple[str, ...]:
    """All Motzkin paths of length n in lexicographic step order U < D < F."""
    return tuple(motzkin_paths(n))


@dataclass(frozen=True)
class PathFeatures:
    """Everything a restriction can look at, read off one path."""

    peaks: tuple[int, ...]       # heights of maximal U F* D occurrences, in order
    valleys: tuple[int, ...]     # heights of maximal D F* U occurrences, in order
    up_runs: tuple[int, ...]     # lengths of maximal U blocks, in order
    down_runs: tuple[int, ...]
    flat_runs: tuple[int, ...]
    is_flat_only: bool           # no U and no D steps (includes the empty path)


def _runs(path: str) -> list[tuple[str, int]]:
    """The maximal blocks of equal steps, as (step, length), in order."""
    return [(step, sum(1 for _ in block)) for step, block in groupby(path)]


def features(path: str) -> PathFeatures:
    heights = [0]
    for step in path:
        heights.append(heights[-1] + _DELTA[step])
    n = len(path)

    peaks = []
    valleys = []
    for i, step in enumerate(path):
        j = i + 1
        while j < n and path[j] == "F":
            j += 1
        if j < n:
            if step == "U" and path[j] == "D":
                peaks.append(heights[i + 1])
            elif step == "D" and path[j] == "U":
                valleys.append(heights[i + 1])

    up_runs, down_runs, flat_runs = [], [], []
    for step, length in _runs(path):
        {"U": up_runs, "D": down_runs, "F": flat_runs}[step].append(length)

    return PathFeatures(
        peaks=tuple(peaks),
        valleys=tuple(valleys),
        up_runs=tuple(up_runs),
        down_runs=tuple(down_runs),
        flat_runs=tuple(flat_runs),
        is_flat_only=not up_runs and not down_runs,
    )


def _slots(x) -> tuple:
    # one order for feature and spec slots alike
    return (x.peaks, x.valleys, x.up_runs, x.down_runs, x.flat_runs)


def feature_masks(ft: PathFeatures, n: int) -> int:
    """The packed masks of ``ft`` for lengths <= n; a flat-only path sets peak bit 0."""
    w = n + 1
    return sum({1 << (w * slot + v) for slot, vals in enumerate(_slots(ft)) for v in vals},
               int(ft.is_flat_only))


@lru_cache(maxsize=64)  # admits asks for the masks once per path
def forbidden_masks(spec: RestrictionSpec, n: int) -> int:
    """The values 0..n that the spec forbids, packed as ``feature_masks``."""
    w = n + 1
    return sum(1 << (w * slot + v) for slot, s in enumerate(_slots(spec))
               for v in range(w) if v in s)


def admits(spec: RestrictionSpec, path: str) -> bool:
    """Does the path avoid everything the spec forbids?  A flat-only path
    (the empty one included) has a peak at height 0."""
    n = len(path)
    return not feature_masks(features(path), n) & forbidden_masks(spec, n)


def _check_guard(n: int) -> None:
    if n > (guard := oracle_guard()):
        raise OracleGuardError(f"length {n} exceeds the brute-force guard {guard}; "
                               "set MOTZKIN_ORACLE_GUARD to override")


def _merge(target: dict, masks: dict, bits: int) -> None:
    for m, k in masks.items():
        m |= bits
        target[m] = target.get(m, 0) + k


@lru_cache(maxsize=32)
def class_tables(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry m <= n: the packed masks of the paths of length m, with multiplicities."""
    w = n + 1
    U, D, F = 0, 1, 2  # run kinds; the peak and valley slots are 0 and 1
    # (height, run kind, run length, last U/D step) -> {masks: paths}
    frontier: dict = {(0, F, 0, None): {0: 1}}
    tables = []
    for left in range(n - 1, -2, -1):  # steps left after the next one
        table: dict = {}
        nxt: dict = {}
        while frontier:  # consumed bucket by bucket, so merged ones are freed
            (h, kind, run, last), masks = frontier.popitem()
            closed = 1 << w * (2 + kind) + run if run else 0
            if not h:  # a path ends: close its run; the flat-only one peaks at 0
                _merge(table, masks, closed | (last is None))
            for step, nh in ((U, h + 1), (D, h - 1), (F, h)):
                if not 0 <= nh <= left:
                    continue
                key = (nh, step, run + 1 if step == kind else 1, last if step == F else step)
                if step == kind:  # only this bucket continues a run to length >= 2
                    nxt[key] = masks
                else:  # U F* D: a peak at h (slot U); D F* U: a valley at h (slot D)
                    turn = 1 << w * last + h if last == 1 - step else 0
                    _merge(nxt.setdefault(key, {}), masks, closed | turn)
        tables.append(tuple(table.items()))
        frontier = nxt
    return tuple(tables)


def list_restricted(n: int, spec: RestrictionSpec) -> list[str]:
    """All admitted paths of length n, lexicographic in U < D < F."""
    _check_guard(n)
    return [p for p in enumerate_motzkin(n) if admits(spec, p)]


def count_restricted(n: int, spec: RestrictionSpec) -> int:
    """The number of admitted paths of length n, summed over feature classes."""
    _check_guard(n)
    forbidden = forbidden_masks(spec, n)
    return sum(k for m, k in class_tables(n)[n] if not m & forbidden)


def oracle_sequence(spec: RestrictionSpec, n: int) -> list[int]:
    """Counts for lengths 0..n by direct enumeration."""
    _check_guard(n)
    forbidden = forbidden_masks(spec, n)
    return [sum(k for m, k in table if not m & forbidden) for table in class_tables(n)]


# run states -----------------------------------------------------------------


def _departures(path: str) -> int:
    """Number of times the path leaves the axis with an up-step."""
    h = 0
    out = 0
    for step in path:
        if step == "U":
            if h == 0:
                out += 1
            h += 1
        elif step == "D":
            h -= 1
    return out


def state_admits(sets: tuple, state, path: str) -> bool:
    """Does the path belong to the family the run state describes?

    ``sets`` holds the global forbidden up-, down- and flat-run lengths.
    The start flags force the kind of the initial run and the end flags the
    kind of the final run; the empty path therefore needs all four clear.
    The initial run answers to first_up/first_flat, the final run (when the
    path has more than one run) to last_down/last_flat, and every interior
    run to the global sets.
    """
    C, D, E = sets
    if state.kind == "H" and _departures(path) > 1:
        return False
    rs = _runs(path)
    if not rs:
        return not (state.start_up or state.start_flat or state.end_down or state.end_flat)
    first = rs[0]
    last = rs[-1]
    if state.start_up and first[0] != "U":
        return False
    if state.start_flat and first[0] != "F":
        return False
    if state.end_down and last[0] != "D":
        return False
    if state.end_flat and last[0] != "F":
        return False
    if first[0] == "U" and first[1] in state.first_up:
        return False
    if first[0] == "F" and first[1] in state.first_flat:
        return False
    if len(rs) > 1:
        if last[0] == "D" and last[1] in state.last_down:
            return False
        if last[0] == "F" and last[1] in state.last_flat:
            return False
    for kind, length in rs[1:-1]:
        if kind == "U" and length in C:
            return False
        if kind == "D" and length in D:
            return False
        if kind == "F" and length in E:
            return False
    return True


def state_series(sets: tuple, state, n: int) -> list[int]:
    """Counting series of the run state's path family, lengths 0..n."""
    _check_guard(n)
    return [
        sum(1 for p in enumerate_motzkin(k) if state_admits(sets, state, p))
        for k in range(n + 1)
    ]
