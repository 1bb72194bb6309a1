"""Brute-force reference counts by explicit path enumeration.

Paths are step strings over the alphabet {U, D, F}.  Every restriction is
read off each path itself, with no sharing of logic with the
dynamic-programming or symbolic engines; this module is the ground truth
the faster routes are validated against.  A guard refuses lengths above
MOTZKIN_ORACLE_GUARD (default 18) because the enumeration is exponential;
counting and listing check it before they generate or walk a path.

Admission reads only bitmasks.  A path's features have five slots (peak
and valley heights, up-, down- and flat-run lengths), and bit v of a slot
is set when some feature of that kind has value v (``feature_masks``).  A
spec's forbidden values 0..n take the same form (``forbidden_masks``, built
with ``StepSet`` membership), and a path is admitted when each slot ANDs to
zero with its forbidden slot.  A flat-only path (the empty one included)
sets peak bit 0: every real peak follows a U step, so has height >= 1.

A count sums the multiplicities of the admitted mask classes, since paths
with equal masks get equal verdicts.  ``feature_classes(n)`` tallies them in
one depth-first walk, spec-free, where each leaf is exactly one path.  The
walk keeps the height, the kind and length of the current run and the last
non-flat step.  A run is closed when a step of another kind starts or the
path ends, as ``features`` splits maximal blocks; a D after a last non-flat
U ends a ``U F* D`` whose peak height is the height before that D (flats
keep the height after the U), and a valley ``D F* U`` likewise.  So each
leaf tallies ``feature_masks(features(path))``, without a path string being
built or rescanned.  Only the per-length tables are cached, never the
paths: at length 13 the 15,511 paths fall into 1,077 classes.
``list_restricted`` filters the paths of ``enumerate_motzkin`` (whose cache
keeps them) with ``admits``; it and ``features`` are the references the
walk and the class count are tested against.
"""

from __future__ import annotations

import os
from collections import Counter
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
    return int(os.environ.get("MOTZKIN_ORACLE_GUARD", DEFAULT_GUARD))


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
    for step, block in groupby(path):
        length = sum(1 for _ in block)
        {"U": up_runs, "D": down_runs, "F": flat_runs}[step].append(length)

    return PathFeatures(
        peaks=tuple(peaks),
        valleys=tuple(valleys),
        up_runs=tuple(up_runs),
        down_runs=tuple(down_runs),
        flat_runs=tuple(flat_runs),
        is_flat_only=not up_runs and not down_runs,
    )


# bit v of a slot: value v among peak / valley heights, up / down / flat runs
Masks = tuple[int, int, int, int, int]


def feature_masks(ft: PathFeatures) -> Masks:
    """The mask form of ``ft``; a flat-only path sets peak bit 0."""
    masks = [sum({1 << v for v in vals}) for vals in (
        ft.peaks, ft.valleys, ft.up_runs, ft.down_runs, ft.flat_runs)]
    masks[0] |= ft.is_flat_only
    return tuple(masks)


@lru_cache(maxsize=64)  # admits asks for the masks once per path
def forbidden_masks(spec: RestrictionSpec, n: int) -> Masks:
    """The values 0..n that the spec forbids, slot by slot."""
    return tuple(
        sum(1 << v for v in range(n + 1) if v in s)
        for s in (spec.peaks, spec.valleys, spec.up_runs, spec.down_runs, spec.flat_runs)
    )


def _admitted(m: Masks, f: Masks) -> bool:
    # written out slot by slot: a generator over zip() took five times as long
    return not (m[0] & f[0] or m[1] & f[1] or m[2] & f[2] or m[3] & f[3] or m[4] & f[4])


def admits(spec: RestrictionSpec, path: str) -> bool:
    """Does the path avoid everything the spec forbids?

    A path consisting of flat steps only (the empty path included) counts as
    having a peak at height 0, so it is rejected exactly when 0 is a
    forbidden peak height.
    """
    return _admitted(feature_masks(features(path)), forbidden_masks(spec, len(path)))


def _check_guard(n: int) -> None:
    guard = oracle_guard()
    if n > guard:
        raise OracleGuardError(
            f"length {n} exceeds the brute-force guard {guard}; "
            "set MOTZKIN_ORACLE_GUARD to override"
        )


@lru_cache(maxsize=32)
def feature_classes(n: int) -> tuple[tuple[Masks, int], ...]:
    """The feature masks of the paths of length n, with multiplicities, by one walk."""
    w = n + 1  # run lengths share one int: bit w*kind + length, kind U/D/F = 0/1/2
    low = (1 << w) - 1
    tally: Counter = Counter()

    def walk(left, h, kind, run, last, peaks, valleys, runs):
        # kind, run: the current run; last: the last U (0) or D (1) step
        if not left:
            if run:
                runs |= 1 << (w * kind + run)
            tally[(peaks | (last is None), valleys,
                   runs & low, runs >> w & low, runs >> 2 * w)] += 1
            return
        left -= 1  # each branch keeps h >= 0 and h <= left, so the path can end at 0
        closed = runs | 1 << (w * kind + run) if run else runs
        if h < left:  # U; after D F*, a valley at height h
            if kind == 0:
                walk(left, h + 1, 0, run + 1, 0, peaks, valleys, runs)
            else:
                walk(left, h + 1, 0, 1, 0, peaks,
                     valleys | 1 << h if last == 1 else valleys, closed)
        if h:  # D; after U F*, a peak at height h
            if kind == 1:
                walk(left, h - 1, 1, run + 1, 1, peaks, valleys, runs)
            else:
                walk(left, h - 1, 1, 1, 1, peaks | 1 << h if last == 0 else peaks,
                     valleys, closed)
        if h <= left:  # F
            walk(left, h, 2, run + 1 if kind == 2 else 1, last, peaks, valleys,
                 runs if kind == 2 else closed)

    walk(n, 0, None, 0, None, 0, 0, 0)
    return tuple(tally.items())


def list_restricted(n: int, spec: RestrictionSpec) -> list[str]:
    """All admitted paths of length n, lexicographic in U < D < F."""
    _check_guard(n)
    return [p for p in enumerate_motzkin(n) if admits(spec, p)]


def _count(n: int, forbidden: Masks) -> int:
    return sum(mult for masks, mult in feature_classes(n) if _admitted(masks, forbidden))


def count_restricted(n: int, spec: RestrictionSpec) -> int:
    """The number of admitted paths of length n, summed over feature classes."""
    _check_guard(n)
    return _count(n, forbidden_masks(spec, n))


def oracle_sequence(spec: RestrictionSpec, n: int) -> list[int]:
    """Counts for lengths 0..n by direct enumeration."""
    _check_guard(n)
    # no feature of a path of length m <= n exceeds m, so the masks up to n serve every m
    forbidden = forbidden_masks(spec, n)
    return [_count(m, forbidden) for m in range(n + 1)]
