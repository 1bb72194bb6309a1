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

subtracts every forbidden run length exactly once.  A cell costs
O(1 + |finite| + |progressions|), so N rows cost O(N^2 * (1 + |finite| +
|progressions|)) big-integer additions instead of the O(N^3) of the direct
sum.  The peak and valley filters are boolean masks over heights, grown with
the rows, so the fill tests set membership twice per row rather than per
cell.  Only the last max(1, d, every offset, every finite element) rows of
each running sum and of each g are kept, and no other past row: a table
holds those windows, the two masks and one count per length.
"""

from __future__ import annotations

from collections import deque
from operator import add, sub

from .stepset import RestrictionSpec, StepSet


def _back(rows: deque, k: int, slope: int, width: int) -> list[int] | None:
    """Row m-k of a table read along the slope, aligned with row m.

    rows ends at row m-1.  Entry n of the result is the cell
    (m-k, n + slope*k), or 0 where that height is outside 0..m-k; the result
    is None when m-k < 0.
    """
    if k > len(rows):
        return None
    row = rows[-k]
    if slope == 0:
        return row + [0] * k
    if slope < 0:
        return [0] * k + row
    tail = row[k:]
    return tail + [0] * (width - len(tail))


class _RunSum:
    """Rows of T(m, n) = sum_{r >= 1, r not in R} g(m-r, n+slope*r).

    Call row(m) for the next row, then push the row m of g, which may depend
    on row m of this and the other tables.
    """

    def __init__(self, runs: StepSet, slope: int):
        self.slope = slope
        self.finite = runs.finite
        self.aps = runs.aps
        window = max((1, *runs.finite, *(v for ap in runs.aps for v in ap)))
        self.g: deque[list[int]] = deque(maxlen=window)
        self.sums = {d: deque(maxlen=window) for d in {1, *(d for d, _ in runs.aps)}}

    def row(self, m: int) -> list[int]:
        width = m + 1
        acc = _back(self.sums[1], 1, self.slope, width) or [0] * width
        terms = [(self.sums[d], off) for d, off in self.aps]
        terms += [(self.g, f) for f in self.finite]
        for rows, k in terms:
            term = _back(rows, k, self.slope, width)
            if term is not None:
                acc = list(map(sub, acc, term))
        return acc

    def push(self, g_row: list[int]) -> None:
        width = len(g_row)
        for d, rows in self.sums.items():
            prev = _back(rows, d, self.slope, width)
            rows.append(g_row if prev is None else list(map(add, g_row, prev)))
        self.g.append(g_row)


class DPTable:
    """Lazily grown counts for one restriction spec."""

    def __init__(self, spec: RestrictionSpec):
        self.spec = spec
        self._flat_peak = 0 in spec.peaks  # the flat-only path peaks at height 0
        self._counts: list[int] = []  # entry n: restricted paths of length n
        # entry n: is n a forbidden peak / valley height
        self._peak: list[bool] = []
        self._valley: list[bool] = []
        self._sum_down = _RunSum(spec.down_runs, 1)
        self._sum_up = _RunSum(spec.up_runs, -1)
        self._sum_flat_up = _RunSum(spec.flat_runs, 0)
        self._sum_flat_down = _RunSum(spec.flat_runs, 0)

    def ensure(self, m: int) -> None:
        while len(self._counts) <= m:
            self._fill_row(len(self._counts))

    def _fill_row(self, m: int) -> None:
        row_d = self._sum_down.row(m)
        if m == 0:
            row_d[0] = 1  # the empty walk
        row_u = self._sum_up.row(m)
        row_fu = self._sum_flat_up.row(m)
        row_fd = self._sum_flat_down.row(m)

        self._peak.append(m in self.spec.peaks)
        self._valley.append(m in self.spec.valleys)
        row_ud = [0 if banned else v for banned, v in zip(self._peak, row_u)]
        row_du = [0 if banned else v for banned, v in zip(self._valley, row_d)]
        if m == 0:
            row_du[0] = 1  # the path start forms no valley

        self._sum_down.push(list(map(add, row_ud, row_fd)))
        self._sum_up.push(list(map(add, row_du, row_fu)))
        self._sum_flat_up.push(list(map(add, row_u, row_du)))
        self._sum_flat_down.push(list(map(add, row_ud, row_d)))

        # flat(m, 0) = flat_before_down(m, 0), since no up-run ends at height 0
        total = row_d[0] + row_fd[0]
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
