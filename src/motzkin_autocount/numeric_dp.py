"""Polynomial-time counting of restricted paths, split by final-run type.

Rows are indexed by (length m, height n) and classified by how the walk
ends: up(m, n) and down(m, n) count non-negative walks from the origin to
(m, n) whose completed runs already satisfy the restrictions and which end
with the named step.  Two filtered rows enforce the height restrictions at
the moment a peak or valley closes: up_before_down zeroes a walk whose
pending up-run tops out at a forbidden peak height, and down_before_up
zeroes one whose pending down-run bottoms out at a forbidden valley height.
flat_before_up and flat_before_down count the walks that end with a flat
step and remember what preceded the flat block, so the peak or valley
formed across it is filtered with the right height.

Four recurrences, with r running over run lengths outside the relevant
forbidden set (empty walk: down(0, 0) = 1; everything is 0 for heights
above the length or below 0):

    down(m, n) = sum_r up_before_down(m-r, n+r) + flat_before_down(m-r, n+r)
    up(m, n)   = sum_r down_before_up(m-r, n-r) + flat_before_up(m-r, n-r)
    flat_before_up(m, n)   = sum_r up(m-r, n) + down_before_up(m-r, n)
    flat_before_down(m, n) = sum_r up_before_down(m-r, n) + down(m-r, n)

The seed down(0, 0) = 1 stands for the path start, so the valley filter
spares it: down_before_up(0, 0) = 1 even when 0 is a forbidden valley
height, since the start closes no down-run.

The walks of length n that end at height 0 end with a down step or with a
flat block.  No up-run ends at height 0 (one of length r would start at
height -r), so up(m, 0) = up_before_down(m, 0) = 0 for every m, and the
walks ending with a flat block at height 0 are flat_before_down(n, 0); no
separate sum over flat blocks is needed.  The count of restricted paths of
length n is down(n, 0) + flat_before_down(n, 0), less 1 when 0 is a
forbidden peak height and the flat-only path of length n is otherwise
admissible (n = 0 or n not a forbidden flat-run length): that path is the
one whose peak lies at height 0, and no up-run ends there for the filter to
catch.

Each recurrence is a run sum  T(m, n) = sum_{r >= 1, r not in R} g(m-r, n+s*r)
with slope s = +1 for down, -1 for up and 0 for the two flat sums.  The
fill does not add it up term by term.  With the running sums along the slope

    S_d(m, n) = g(m, n) + S_d(m-d, n+s*d)        (0 outside the table)

the sum over every r >= 1 is S_1(m-1, n+s), and the progression
{off + d*j : j >= 0} contributes S_d(m-off, n+s*off).  The canonical StepSet
form splits R into progressions that share one stride d and lie in distinct
residue classes mod d, plus finite elements that no progression covers, so
R is a disjoint union (of run lengths >= 1, since run-length sets exclude 0)
and

    T(m, n) = S_1(m-1, n+s) - sum_{(d, off)} S_d(m-off, n+s*off)
                            - sum_{f finite} g(m-f, n+s*f)

subtracts every forbidden run length exactly once.  A row costs
O(1 + |finite| + |progressions|) whole-row operations, so N rows cost
O(N^2 * (1 + |finite| + |progressions|)) digit work instead of the O(N^3)
of the direct sum.

Packed rows.  Row m of each table is one int, with the cell at height n in
slot n of a fixed width W bits: row = sum_n T(m, n) * 2^(n*W).  Reading
row m-k along the slope is then a shift: the row itself for s = 0,
row << k*W for s = -1 (height n-k moves to slot n), row >> k*W for s = +1
(height n+k moves to slot n, and the heights below k, which would land
below 0, drop out), and 0 when m-k < 0.  The running-sum identity becomes
whole-int adds and subtractions, and each height filter is one AND with a
mask of the allowed heights up to the cap (below), skipped when no height
up to the cap is banned.  A row holds no cell above its length, so the
heights above m that the mask covers change nothing.

Why the packed arithmetic is exact.  Every g row counts distinct walks of
length m (those ending with one kind of step, or the other), so each g cell
is at most 3^m.  A running sum adds rows m, m-d, m-2d, ..., so each S cell
is at most 3^m * (1 + 1/3 + 1/9 + ...) = 1.5 * 3^m, and each T cell, being
at most S_1(m-1, .), is below that.  So every cell of the rows 0..cap is
below 2 * 3^cap, and W = bit_length(3^cap) + 1, rounded up to whole bytes,
holds it.  The subtractions of a run sum may borrow across slots on the
way, but they are exact integer arithmetic on sum_n c_n * 2^(n*W), and the
final value equals sum_n T(m, n) * 2^(n*W) with every T(m, n) in
[0, 2^W); base-2^W digits are unique, so the result is the packed row.  The
shifts, the masks and the read of slot 0 act only on such finished rows,
so they are exact too.

Widening.  The width is set for a row cap, first 16, and grows
geometrically as rows are filled: when row m passes the cap, the cap
becomes cap * 5/4 (rounded down) and the
rows kept so far are copied slot by slot into the wider slots, by
byte-strided bytearray slices.  Early rows stay narrow, and only the few
rows of the windows are copied.  The banned heights up to the cap are kept
as one bit per slot, copied the same way and extended to the new cap, and
each mask is the all-ones row less those bits times the all-ones slot.
Only the last max(1, d, every offset) rows of each running sum and
the last max(finite) rows of each g are kept, and no other past row: a
table holds those windows, the banned-height masks and one count per
length.
"""

from __future__ import annotations

from collections import deque

from .stepset import RestrictionSpec, StepSet

FIRST_CAP = 16  # rows 0..FIRST_CAP share the first width


def _slot_bytes(cap: int) -> int:
    """Bytes per slot that hold every cell of the rows 0..cap."""
    return ((3**cap).bit_length() + 8) // 8


def _widen(row: int, old: int, new: int) -> int:
    """The packed row with each slot of `old` bytes moved to one of `new` bytes."""
    if not row:
        return 0
    slots = -(-row.bit_length() // (8 * old))
    src = row.to_bytes(slots * old, "little")
    dst = bytearray(slots * new)
    for i in range(old):
        dst[i::new] = src[i::old]
    return int.from_bytes(dst, "little")


class _RunSum:
    """Packed rows of T(m, n) = sum_{r >= 1, r not in R} g(m-r, n+slope*r).

    Call row() for the next row, then push the row of g, which may depend
    on that row of this and the other tables.
    """

    def __init__(self, runs: StepSet, slope: int):
        self.slope = slope
        self.finite = runs.finite
        self.aps = runs.aps
        window = max((1, *(v for ap in runs.aps for v in ap)))
        self.g: deque[int] = deque(maxlen=max(runs.finite, default=0))
        self.sums = {d: deque(maxlen=window) for d in {1, *(d for d, _ in runs.aps)}}
        self.strided = [(d, rows) for d, rows in self.sums.items() if d > 1]
        self.width = 0
        self.last = 0  # S_1 at row m-1 along the slope: read by row(), reused by push()

    def _back(self, rows: deque, k: int) -> int:
        """Row m-k read along the slope, slot-aligned with row m; rows ends at row m-1."""
        if k > len(rows):
            return 0
        bits = self.slope * k * self.width
        return rows[-k] >> bits if bits >= 0 else rows[-k] << -bits

    def row(self) -> int:
        acc = self.last = self._back(self.sums[1], 1)
        for d, off in self.aps:
            acc -= self._back(self.sums[d], off)
        for f in self.finite:
            acc -= self._back(self.g, f)
        return acc

    def push(self, g_row: int) -> None:
        self.sums[1].append(g_row + self.last)
        for d, rows in self.strided:
            rows.append(g_row + self._back(rows, d))
        self.g.append(g_row)

    def widen(self, old: int, new: int) -> None:
        for rows in (self.g, *self.sums.values()):
            for i, r in enumerate(rows):
                rows[i] = _widen(r, old, new)
        self.width = 8 * new


class DPTable:
    """Lazily grown counts for one restriction spec."""

    def __init__(self, spec: RestrictionSpec):
        self.spec = spec
        self._flat_peak = 0 in spec.peaks  # the flat-only path peaks at height 0
        self._counts: list[int] = []  # entry n: restricted paths of length n
        self._sum_down = _RunSum(spec.down_runs, 1)
        self._sum_up = _RunSum(spec.up_runs, -1)
        self._sum_flat_up = _RunSum(spec.flat_runs, 0)
        self._sum_flat_down = _RunSum(spec.flat_runs, 0)
        # slot n holds 1 when n <= cap is a forbidden peak / valley height
        self._peak_bits = self._valley_bits = 0
        self._cap, self._bytes = -1, 0
        self._set_cap(FIRST_CAP)

    def _set_cap(self, cap: int) -> None:
        """Widen the slots to hold the rows 0..cap, and mask the heights up to cap."""
        old, new = self._bytes, _slot_bytes(cap)
        for table in (self._sum_down, self._sum_up, self._sum_flat_up, self._sum_flat_down):
            table.widen(old, new)
        peaks = _widen(self._peak_bits, old, new)
        valleys = _widen(self._valley_bits, old, new)
        for n in range(self._cap + 1, cap + 1):
            peaks |= (n in self.spec.peaks) << 8 * new * n
            valleys |= (n in self.spec.valleys) << 8 * new * n
        self._cap, self._bytes = cap, new
        self._peak_bits, self._valley_bits = peaks, valleys
        self._ones = (1 << 8 * new) - 1
        every = (1 << 8 * new * (cap + 1)) - 1
        # the slots a filter keeps, or None when it bans no height up to cap
        self._keep_peak = every - peaks * self._ones if peaks else None
        self._keep_valley = every - valleys * self._ones if valleys else None

    def ensure(self, m: int) -> None:
        while len(self._counts) <= m:
            row = len(self._counts)
            if row > self._cap:
                self._set_cap(self._cap * 5 // 4)
            self._fill_row(row)

    def _fill_row(self, m: int) -> None:
        row_d = self._sum_down.row()
        row_u = self._sum_up.row()
        row_fu = self._sum_flat_up.row()
        row_fd = self._sum_flat_down.row()

        row_ud = row_u if self._keep_peak is None else row_u & self._keep_peak
        if m == 0:
            row_d = row_du = 1  # the empty walk, and the path start forms no valley
        else:
            row_du = row_d if self._keep_valley is None else row_d & self._keep_valley

        self._sum_down.push(row_ud + row_fd)
        self._sum_up.push(row_du + row_fu)
        self._sum_flat_up.push(row_u + row_du)
        self._sum_flat_down.push(row_ud + row_d)

        # flat(m, 0) = flat_before_down(m, 0), since no up-run ends at height 0
        total = (row_d & self._ones) + (row_fd & self._ones)
        if self._flat_peak and (m == 0 or m not in self.spec.flat_runs):
            total -= 1
        self._counts.append(total)

    def count(self, n: int) -> int:
        """Restricted paths of length n (end at height 0); none when n < 0."""
        if n < 0:
            return 0
        self.ensure(n)
        return self._counts[n]


def sequence(spec: RestrictionSpec, n: int) -> list[int]:
    """Counts for lengths 0..n."""
    table = DPTable(spec)
    table.ensure(n)
    return [table.count(m) for m in range(n + 1)]


def motzkin_numbers(n: int) -> list[int]:
    return sequence(RestrictionSpec(), n)
