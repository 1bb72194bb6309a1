"""Sets of forbidden values: finite elements plus arithmetic progressions.

A StepSet denotes a set of non-negative integers, given as finitely many
explicit elements together with arithmetic progressions.  A progression
(stride, offset) denotes {offset + stride*r : r >= 0}.  Construction
normalizes to a unique canonical form, so two StepSets denoting the same
integer set compare equal, hash equal, and produce the same key.

The canonical form is computed from the eventual period of the set: all
progressions are rewritten to share the minimal eventual period d, each
one starts at the earliest point from which its residue class is fully
covered (explicit elements may extend a progression downward), and the
finite part keeps only elements not covered by any progression.

>>> StepSet({2}, [(2, 4)]) == StepSet((), [(2, 2)])
True
>>> 7 in StepSet({1}, [(3, 2)])
False
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Iterator


class StepSetError(ValueError):
    """Invalid StepSet construction or operation."""


# The most residues modulo the period (the lcm of the strides) that the
# progressions of one set may cover, counted from the strides alone.  It
# bounds the work of canonicalization and the progressions of the canonical
# form; a set over it is refused before that work starts.
MAX_RESIDUES = 10_000


def _canonicalize(
    finite: Iterable[int], aps: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    fin = set(finite)
    for v in fin:
        if not isinstance(v, int) or v < 0:
            raise StepSetError(f"elements must be non-negative integers, got {v!r}")
    ap_list = []
    for stride, offset in aps:
        if not isinstance(stride, int) or not isinstance(offset, int):
            raise StepSetError("progressions must be integer (stride, offset) pairs")
        if stride < 1 or offset < 0:
            raise StepSetError(f"progression ({stride}, {offset}) needs stride >= 1, offset >= 0")
        ap_list.append((stride, offset))
    if not ap_list:
        return tuple(sorted(fin)), ()

    period = 1
    for stride, _ in ap_list:
        period = period * stride // gcd(period, stride)
    residues = sum(period // stride for stride, _ in ap_list)
    if residues > MAX_RESIDUES:
        raise StepSetError(
            f"the progressions cover up to {residues} residues modulo their period "
            f"{period}; at most {MAX_RESIDUES} are supported"
        )

    # earliest element of the progression union in each residue class mod period
    start: dict[int, int] = {}
    for stride, offset in ap_list:
        for k in range(period // stride):
            v = offset + k * stride
            r = v % period
            if r not in start or v < start[r]:
                start[r] = v

    covered = set(start)
    # minimal eventual period: the least d > 0 with covered + d == covered.
    # It divides period, and r0 + d is covered, so it is the least such
    # difference from r0 (period itself always qualifies).
    r0 = min(covered)
    for d in sorted({(r - r0) % period or period for r in covered}):
        if period % d == 0 and all((r + d) % period in covered for r in covered):
            break

    new_aps: list[tuple[int, int]] = []
    for s in sorted({r % d for r in covered}):
        rs = list(range(s, period, d))  # all residues of this class are covered
        lo = max(start[r] for r in rs)
        # walk the start of the fully-covered tail downward while elements stay covered
        while lo - d >= 0 and lo - d >= start[(lo - d) % period]:
            lo -= d
        # union elements below the tail start become explicit
        for r in rs:
            v = start[r]
            while v < lo:
                fin.add(v)
                v += period
        new_aps.append((d, lo))

    # absorb explicit elements into progressions, extending them downward
    changed = True
    while changed:
        changed = False
        fin = {
            v
            for v in fin
            if not any(v >= lo and (v - lo) % d == 0 for d, lo in new_aps)
        }
        for i, (d, lo) in enumerate(new_aps):
            while lo - d in fin:
                lo -= d
                fin.discard(lo)
                changed = True
            new_aps[i] = (d, lo)

    return tuple(sorted(fin)), tuple(sorted(new_aps))


class StepSet:
    """Immutable set of non-negative integers with a unique canonical form."""

    __slots__ = ("finite", "aps")

    def __init__(self, finite: Iterable[int] = (), aps: Iterable[tuple[int, int]] = ()):
        f, a = _canonicalize(finite, aps)
        object.__setattr__(self, "finite", f)
        object.__setattr__(self, "aps", a)

    def __setattr__(self, name, value):
        raise AttributeError("StepSet is immutable")

    def __contains__(self, n: int) -> bool:
        if n in self.finite:
            return True
        return any(n >= off and (n - off) % stride == 0 for stride, off in self.aps)

    def __bool__(self) -> bool:
        return bool(self.finite or self.aps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepSet):
            return NotImplemented
        return self.finite == other.finite and self.aps == other.aps

    def __hash__(self) -> int:
        return hash((self.finite, self.aps))

    def __repr__(self) -> str:
        return f"StepSet({format_stepset(self)!r})"

    def remove_zero(self) -> "StepSet":
        """The same set with 0 taken out."""
        fin = tuple(v for v in self.finite if v != 0)
        aps = tuple((d, off) if off != 0 else (d, d) for d, off in self.aps)
        return StepSet(fin, aps)

    def decrement(self) -> "StepSet":
        """{v - 1 : v in self}; rejects sets containing 0."""
        if 0 in self:
            raise StepSetError("cannot decrement a set containing 0")
        return StepSet(
            tuple(v - 1 for v in self.finite),
            tuple((d, off - 1) for d, off in self.aps),
        )


EMPTY = StepSet()


_AP_RE = re.compile(r"^(?:(\d+)\s*\*\s*)?r(?:\s*\+\s*(\d+))?$")


def parse_stepset(text: str) -> StepSet:
    """Parse a set literal like ``{}``, ``{1,4}``, or ``{2*r+1,6}``.

    Items are integer literals or progressions written a*r+b, r+b, a*r, or r,
    each denoting {a*r+b : r >= 0}.
    """
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise StepSetError(f"set literal must be brace-delimited, got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return StepSet()
    finite: list[int] = []
    aps: list[tuple[int, int]] = []
    for item in body.split(","):
        item = item.strip()
        if not item:
            raise StepSetError(f"empty item in set literal {text!r}")
        if item.lstrip("-").isdigit():
            v = int(item)
            if v < 0:
                raise StepSetError(f"negative element {v} in {text!r}")
            finite.append(v)
            continue
        m = _AP_RE.match(item)
        if not m:
            raise StepSetError(f"cannot parse item {item!r} in {text!r}")
        stride = int(m.group(1)) if m.group(1) else 1
        offset = int(m.group(2)) if m.group(2) else 0
        if stride < 1:
            raise StepSetError(f"stride must be positive in {item!r}")
        aps.append((stride, offset))
    return StepSet(finite, aps)


def format_stepset(s: StepSet) -> str:
    """Render the canonical set literal; parse_stepset round-trips it."""
    items = [str(v) for v in s.finite]
    for stride, off in s.aps:
        if stride == 1:
            items.append("r" if off == 0 else f"r+{off}")
        else:
            items.append(f"{stride}*r" if off == 0 else f"{stride}*r+{off}")
    return "{" + ",".join(items) + "}"


@dataclass(frozen=True)
class RestrictionSpec:
    """Which features a counted path must avoid.

    peaks / valleys are forbidden heights; up_runs / down_runs / flat_runs are
    forbidden maximal-run lengths.  Run-length sets must not contain 0 (a run
    has positive length by definition); height sets may contain 0, and a
    flat-only path (the empty one included) has its peak at height 0.
    """

    peaks: StepSet = field(default=EMPTY)
    valleys: StepSet = field(default=EMPTY)
    up_runs: StepSet = field(default=EMPTY)
    down_runs: StepSet = field(default=EMPTY)
    flat_runs: StepSet = field(default=EMPTY)

    def __post_init__(self):
        for name in ("up_runs", "down_runs", "flat_runs"):
            if 0 in getattr(self, name):
                raise StepSetError(f"{name} must contain only positive integers")

    def describe(self) -> dict[str, str]:
        return {
            "peaks": format_stepset(self.peaks),
            "valleys": format_stepset(self.valleys),
            "up_runs": format_stepset(self.up_runs),
            "down_runs": format_stepset(self.down_runs),
            "flat_runs": format_stepset(self.flat_runs),
        }
