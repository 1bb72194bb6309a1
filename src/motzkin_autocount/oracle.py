"""Brute-force reference counts by explicit path enumeration.

Paths are step strings over the alphabet {U, D, F}.  Every restriction is
checked by direct pattern scanning on the finished path, with no sharing of
logic with the dynamic-programming or symbolic engines; this module is the
ground truth the faster routes are validated against.  A guard refuses
lengths above MOTZKIN_ORACLE_GUARD (default 18) because the enumeration is
exponential; counting and listing check it before they generate a path.

Counting sums over feature-set classes.  The admission rule (``_admits``)
reads each feature list of a path only as ``any(v in S for v in lst)``, and
``is_flat_only`` as a flag.  The first depends only on the set of values in
``lst``, so two paths whose feature lists have the same value sets and that
agree on ``is_flat_only`` get the same verdict under every spec.  For each
length the paths are streamed from the generator, scanned once with
``features`` and tallied by that key (``feature_classes``), and
``count_restricted(n, spec)`` is the sum of the multiplicities of the
classes the spec admits.  Counting caches only the per-length table of
(class, multiplicity) pairs, never the paths: at length 13 the 15,511 paths
fall into 1,077 classes.  ``list_restricted`` still filters every path of
``enumerate_motzkin`` (whose cache keeps the path tuples) with ``admits``,
and is the reference the class count is tested against.
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


def _admits(spec: RestrictionSpec, ft: PathFeatures) -> bool:
    if ft.is_flat_only and 0 in spec.peaks:
        return False
    if any(h in spec.peaks for h in ft.peaks):
        return False
    if any(h in spec.valleys for h in ft.valleys):
        return False
    if any(r in spec.up_runs for r in ft.up_runs):
        return False
    if any(r in spec.down_runs for r in ft.down_runs):
        return False
    if any(r in spec.flat_runs for r in ft.flat_runs):
        return False
    return True


def admits(spec: RestrictionSpec, path: str) -> bool:
    """Does the path avoid everything the spec forbids?

    A path consisting of flat steps only (the empty path included) counts as
    having a peak at height 0, so it is rejected exactly when 0 is a
    forbidden peak height.
    """
    return _admits(spec, features(path))


def _check_guard(n: int) -> None:
    guard = oracle_guard()
    if n > guard:
        raise OracleGuardError(
            f"length {n} exceeds the brute-force guard {guard}; "
            "set MOTZKIN_ORACLE_GUARD to override"
        )


@lru_cache(maxsize=32)
def feature_classes(n: int) -> tuple[tuple[PathFeatures, int], ...]:
    """The feature-set classes of the paths of length n, with multiplicities.

    A class is a ``PathFeatures`` whose lists hold the distinct values of a
    path's lists in increasing order; see the module docstring for why
    ``_admits`` gives every path of a class the verdict of its class.
    """
    tally = Counter(
        (frozenset(ft.peaks), frozenset(ft.valleys), frozenset(ft.up_runs),
         frozenset(ft.down_runs), frozenset(ft.flat_runs), ft.is_flat_only)
        for ft in map(features, motzkin_paths(n))
    )
    # tallied by plain tuples: a frozen dataclass per path made the tally
    # about four times slower
    return tuple(
        (PathFeatures(*(tuple(sorted(vals)) for vals in key[:5]), key[5]), mult)
        for key, mult in tally.items()
    )


def list_restricted(n: int, spec: RestrictionSpec) -> list[str]:
    """All admitted paths of length n, lexicographic in U < D < F."""
    _check_guard(n)
    return [p for p in enumerate_motzkin(n) if admits(spec, p)]


def count_restricted(n: int, spec: RestrictionSpec) -> int:
    """The number of admitted paths of length n, summed over feature-set classes."""
    _check_guard(n)
    return sum(mult for cls, mult in feature_classes(n) if _admits(spec, cls))


def oracle_sequence(spec: RestrictionSpec, n: int) -> list[int]:
    """Counts for lengths 0..n by direct enumeration."""
    _check_guard(n)
    return [count_restricted(m, spec) for m in range(n + 1)]
