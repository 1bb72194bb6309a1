"""Guess a polynomial equation F(x, P) = 0 from a sequence prefix.

Searches degree pairs (dP, dX) in increasing (dP + dX, dP) order.  For each
pair the coefficients of F = sum q_i(x) P^i (deg q_i <= dX) are found as a
rational nullspace of the linear system demanding that the first terms of
F(x, S) vanish, where S is the prefix read as a truncated series.  The last
five available orders are withheld from the solve and used as a blind check,
so an underdetermined fit that merely interpolates noise is rejected.

Integer prefixes are reduced modulo the Mersenne prime SIEVE_PRIME =
2^61 - 1, one column reduction per P-degree (_ColumnSieve).  For a fixed dP
the fit rows (the orders below nfit = n - dP - HOLDOUT) do not depend on
dX, and the columns x^j S^i, i <= dP, j <= dX, only grow with dX; so the
columns of each new x-degree are reduced against the pivot columns already
stored for that dP, as far as the schedule has reached and no further.
Each column is one packed int, and all of its slots are reduced modulo the
prime at once by a few whole-int operations.  The reduction carries each
column's combination of the original columns, so a column that reduces to
zero on the fit rows leaves a null vector modulo the prime, and the pivots
persist past it for every larger dX of that dP.  A pair whose columns
leave no null vector has full column rank modulo the prime on its fit
rows: some maximal minor of its integer fit matrix is nonzero modulo the
prime, hence nonzero, so the matrix has full column rank over Q, its
nullspace is {0} and the pair holds no relation.  Such pairs cost no
per-pair work.  A rank-deficient pair lifts the null vectors of its
x-degrees by rational reconstruction and re-verifies them exactly on every
fit order.  If some entry does not lift or no vector survives, the pair is
skipped when its modular null vectors stay independent on the held-out
rows (_held_out_independent), which proves that no exact null vector can
pass them; otherwise its nullspace is computed over Q (_nullspace).
Acceptance never depends on the prime.

guess_linear reads null vectors off the same sieve on the columns x^j S_i
of several given series, for a linear relation among them with polynomial
coefficients.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import MPoly, ONE, Ring, Series, make_ring, primitive_part, series_vanishes
from .numeric_dp import DPTable

GUESS_RING: Ring = make_ring("P", "x")

HOLDOUT = 5

SAFETY_MARGIN = 5

SIEVE_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class GuessConfig:
    max_p_degree: int
    max_x_degree: int

    def __post_init__(self):
        if self.max_p_degree < 0 or self.max_x_degree < 0:
            raise ValueError("guess bounds must be nonnegative")

    def min_terms(self) -> int:
        return (self.max_p_degree + 1) * (self.max_x_degree + 1) + SAFETY_MARGIN

    def require_terms(self, n: int) -> None:
        """Raise ValueError unless ``n`` terms reach min_terms()."""
        if n < self.min_terms():
            raise ValueError(
                f"need at least {self.min_terms()} terms for bounds "
                f"({self.max_p_degree},{self.max_x_degree}), got {n}"
            )


def _series_powers(s: Series, top: int) -> list[tuple]:
    """Coefficients of the truncated powers S^0..S^top of the prefix series."""
    power = Series((1,) + (0,) * (s.order - 1))
    out = [power.coeffs]
    for _ in range(top):
        power = power * s
        out.append(power.coeffs)
    return out


def _fit_rows(
    powers: Sequence[Sequence], cols: list[tuple[int, int]], start: int, stop: int
) -> list[list]:
    """Rows ``start..stop-1`` of the fit system: the coefficient of x^order
    in x^j * S^i for each column (i, j)."""
    return [
        [powers[i][order - j] if order >= j else 0 for (i, j) in cols]
        for order in range(start, stop)
    ]


def _sieve_cols(dp: int, dx: int) -> list[tuple[int, int]]:
    """The columns (i, j), i <= dp, j <= dx, in the order _ColumnSieve adds
    them: x-degree by x-degree."""
    return [(i, j) for j in range(dx + 1) for i in range(dp + 1)]


def _nullspace(rows: list[list], ncols: int) -> list[list]:
    """Basis of the right nullspace over Q via reduced row echelon form:
    one vector per free column, 1 there."""
    mat = list(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = ONE / mat[r][c]
        row_r = mat[r] = [v * inv for v in mat[r]]
        # row r is zero left of column c, so only the rest of a row changes
        tail = row_r[c:]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                row = mat[i]
                mat[i] = row[:c] + [a - f * b for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    pivotset = set(pivots)
    for free in range(ncols):
        if free in pivotset:
            continue
        v = [0] * ncols
        v[free] = 1
        for pr_i, pc in enumerate(pivots):
            if mat[pr_i][free]:
                v[pc] = -mat[pr_i][free]
        basis.append(v)
    return basis


class _ColumnSieve:
    """Column reduction modulo p = SIEVE_PRIME of one P-degree's fit
    matrix, with the null vectors it finds.

    The rows are the dp's ``nfit`` fit orders; the columns (i, j) of each
    x-degree j are added as the schedule asks (_sieve_cols order).  A column
    is one int, row k in slot k of ``bits`` bits; the c-th column added also
    has a 1 in slot nfit + c, so the slots above the fit rows hold the
    combination of added columns it has become.  A stored pivot is 1 at its
    pivot row, 0 above it and at every earlier pivot's row, and keeps its
    slots from the pivot row on, each in [0, p).  A new column gains (p - f)
    times each pivot in turn, f being its residue at the pivot's row; with
    at most nfit pivots every slot stays below nfit*p^2 + p < 2^bits.  As
    p = 2^61 - 1, a fold v -> (v mod 2^61) + floor(v / 2^61) keeps v mod p;
    two ANDs with per-slot masks fold every slot at once.  Two folds take a
    slot below 2^bits to at most p + 2^(bits-122) < 2p, as bits - 122 <= 7 +
    (nfit + 1).bit_length() < 61; then p is subtracted where a slot plus 1
    reaches 2^61.  The pivot row is the lowest set bit of the fit slots; the
    pivot, shifted down to it, is multiplied by the inverse of its residue
    there (each slot stays below p^2) and reduced again.  Only a column free
    modulo p (0 on every fit row) is unpacked: its combination slots hold
    its reduced-row-echelon null vector.  The pivots persist past it."""

    def __init__(self, pow_mod: list[list[int]], dp: int, nfit: int):
        self.nfit = max(nfit, 0)
        self.bits = 8 * ((2 * SIEVE_PRIME.bit_length() + (self.nfit + 1).bit_length() + 7) // 8)
        self.series = [self._pack(row[:self.nfit]) for row in pow_mod[:dp + 1]]
        self.dx = -1
        self.pivots: list[tuple[int, int]] = []  # (shift of the pivot row, packed tail)
        self.nulls: list[tuple[int, list[int]]] = []  # (x-degree, combination residues)

    def _pack(self, residues: Sequence[int]) -> int:
        size = self.bits // 8
        return int.from_bytes(b"".join([a.to_bytes(size, "little") for a in residues]), "little")

    def null_vectors(self, dx: int) -> list[list[int]]:
        """Null vectors modulo p of the columns of x-degree <= ``dx`` on the
        fit rows, one per free column in column order, as residues over the
        columns added up to it; empty iff those columns are independent."""
        p, bits, nfit = SIEVE_PRIME, self.bits, self.nfit
        slot, fit_rows = (1 << bits) - 1, (1 << (bits * nfit)) - 1

        def reduced(col: int) -> int:
            for _ in range(2):
                col = (col & mods) + ((col >> 61) & highs)
            return col - p * (((col + ones) >> 61) & ones)

        while self.dx < dx:
            self.dx += 1
            own = nfit + len(self.pivots) + len(self.nulls)
            ones = ((1 << (bits * (own + len(self.series)))) - 1) // slot
            mods, highs = ones * p, ones * (slot >> 61)
            for own, packed in enumerate(self.series, own):
                col = ((packed << (bits * self.dx)) & fit_rows) | (1 << (bits * own))
                for shift, w in self.pivots:
                    f = ((col >> shift) & slot) % p
                    if f:
                        col += ((p - f) * w) << shift
                col = reduced(col)
                if low := col & fit_rows:
                    shift = ((low & -low).bit_length() - 1) // bits * bits
                    tail = col >> shift
                    self.pivots.append((shift, reduced(tail * pow(tail & slot, -1, p))))
                else:
                    comb = [col >> bits * k & slot for k in range(nfit, own + 1)]
                    self.nulls.append((self.dx, comb))
        return [v for j, v in self.nulls if j <= dx]


def _rational_from_residue(a: int, p: int) -> int | Fraction | None:
    """Smallest rational n/d with n = a*d mod p, |n|,d <= sqrt(p/2), or None;
    an int when d is 1."""
    bound = math.isqrt(p // 2)
    r0, r1 = p, a % p
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if (num - a * den) % p:
        return None
    return num if den == 1 else Fraction(num, den)


def _lifted(
    powers: Sequence[Sequence], cols: list[tuple[int, int]], residues: list[list[int]], nfit: int
) -> list[list] | None:
    """The sieve's null vectors ``residues`` lifted to rationals, padded to
    the columns ``cols`` and re-verified exactly on the fit orders
    0..nfit-1; None if some entry does not lift or no vector survives."""
    basis = []
    for res in residues:
        v = [_rational_from_residue(a, SIEVE_PRIME) if a else 0 for a in res]
        if None in v:
            return None
        v += [0] * (len(cols) - len(v))
        if _vanishes_through(powers, cols, v, nfit):
            basis.append(v)
    return basis or None


def _vanishes_through(
    powers: list[tuple], cols: list[tuple[int, int]], v: list, norders: int
) -> bool:
    support = [(i, j, v[k]) for k, (i, j) in enumerate(cols) if v[k]]
    for order in range(norders):
        acc = 0
        for i, j, c in support:
            if order >= j:
                acc += c * powers[i][order - j]
        if acc:
            return False
    return True


def _pair_schedule(max_p: int, max_x: int) -> list[tuple[int, int]]:
    pairs = [(dp, dx) for dp in range(1, max_p + 1) for dx in range(0, max_x + 1)]
    pairs.sort(key=lambda t: (t[0] + t[1], t[0]))
    return pairs


def guess_algebraic(seq: Sequence, cfg: GuessConfig) -> MPoly | None:
    """Minimal-order polynomial relation for the prefix, or None.

    The result, when found, is primitive with integer coefficients and a
    positive leading coefficient, on the ring (P, x).
    """
    series = Series.from_values(seq)
    n = series.order
    cfg.require_terms(n)
    powers = _series_powers(series, cfg.max_p_degree)
    sieves: dict[int, _ColumnSieve] | None = None
    if all(type(c) is int for c in series.coeffs):
        pow_mod = [[c % SIEVE_PRIME for c in row] for row in powers]
        sieves = {}

    for dp, dx in _pair_schedule(cfg.max_p_degree, cfg.max_x_degree):
        # truncation headroom: only orders below n - dp are trustworthy
        L = n - dp
        unknowns = (dp + 1) * (dx + 1)
        if L < unknowns + SAFETY_MARGIN:
            if sieves:
                sieves.pop(dp, None)  # every larger dx of this dp is skipped too
            continue
        nfit = L - HOLDOUT
        residues = None
        if sieves is not None:
            sieve = sieves.get(dp)
            if sieve is None:
                sieve = sieves[dp] = _ColumnSieve(pow_mod, dp, nfit)
            residues = sieve.null_vectors(dx)
            if dx == cfg.max_x_degree:
                del sieves[dp]
            if not residues:
                continue
        cols = _sieve_cols(dp, dx)
        basis = _lifted(powers, cols, residues, nfit) if residues else None
        if basis is None:
            if residues and _held_out_independent(powers, cols, residues, nfit, L):
                continue
            basis = _nullspace(_fit_rows(powers, cols, 0, nfit), len(cols))
        passing = _held_out(powers, cols, basis, nfit, L)
        if not passing:
            continue
        best = min(passing, key=lambda v: sum(1 for c in v if c != 0))
        terms = {}
        for (i, j), c in zip(cols, best):
            if c:
                terms[(i, j)] = c
        return primitive_part(MPoly(GUESS_RING, terms))
    return None


def _held_out(
    powers: list[Sequence], cols: list[tuple[int, int]], basis: list[list], nfit: int, L: int
) -> list[list]:
    """The vectors of ``basis`` that also vanish on the held-out orders
    nfit..L-1."""
    hold = _fit_rows(powers, cols, nfit, L)
    return [
        v for v in basis
        if all(sum(c * row[k] for k, c in enumerate(v)) == 0 for row in hold)
    ]


def _held_out_independent(
    powers: list[Sequence], cols: list[tuple[int, int]], residues: list[list[int]],
    nfit: int, L: int,
) -> bool:
    """True when the sieve's null vectors ``residues`` stay independent
    modulo p on the held-out orders nfit..L-1, which proves that no nonzero
    vector of the pair's exact nullspace passes the held-out check.

    Let A be the integer fit rows, H the held-out rows and B the residues,
    a basis of the nullspace of A modulo p; suppose H*B has full column
    rank modulo p.  A nonzero rational v with A*v = 0 and H*v = 0, scaled
    to a primitive integer vector, is nonzero modulo p and A*v = 0 modulo
    p, so v = B*c modulo p for some nonzero c; then H*B*c = H*v = 0
    modulo p, against the full column rank.  So every vector of the exact
    nullspace fails _held_out, and the pair can be skipped without
    computing it.  The test only rejects pairs, so acceptance still never
    depends on the prime.
    """
    hold = _fit_rows(powers, cols, nfit, L)
    images = [[sum(a * row[k] for k, a in enumerate(v)) % SIEVE_PRIME for row in hold]
              for v in residues]
    # with dx = 0 a sieve's columns are its given rows
    return not _ColumnSieve(images, len(images) - 1, len(hold)).null_vectors(0)


def guess_linear(series: Sequence[Sequence[int]]) -> list[list] | None:
    """Polynomials c_0(x), ..., c_m(x) of least common degree bound dx with
    sum_i c_i(x) S_i = 0 and c_m nonzero, for integer series S_0..S_m of
    one length n, or None when no dx with (m+1)(dx+1) + SAFETY_MARGIN <= n
    has one.  Each c_i comes as its x-coefficients, lowest first.

    The columns x^j S_i are sieved modulo SIEVE_PRIME one x-degree at a
    time (_ColumnSieve), and the null vectors of a rank-deficient dx are
    lifted and re-verified exactly as in guess_algebraic; as there, the
    last HOLDOUT orders are withheld from the fit as a blind check.  Unlike
    guess_algebraic there is no exact fallback: a relation whose
    coefficients do not reconstruct modulo the prime is not found, which
    only costs its caller the fast path.  The series are exact to n terms,
    so every order below n counts.
    """
    n = len(series[0])
    top = len(series) - 1
    nfit = n - HOLDOUT
    sieve = _ColumnSieve([[c % SIEVE_PRIME for c in s] for s in series], top, nfit)
    dx = 0
    while (top + 1) * (dx + 1) + SAFETY_MARGIN <= n:
        residues = sieve.null_vectors(dx)
        if residues:
            cols = _sieve_cols(top, dx)
            basis = _lifted(series, cols, residues, nfit) or []
            # column (m, j) sits at index m + j * (m + 1)
            passing = [v for v in _held_out(series, cols, basis, nfit, n) if any(v[top::top + 1])]
            if passing:
                best = min(passing, key=lambda v: sum(1 for c in v if c != 0))
                return [best[i::top + 1] for i in range(top + 1)]
        dx += 1
    return None


def verify_guess(F: MPoly, table: DPTable, extra: int, fitted: int = 0) -> bool:
    """Re-test vanishing on the counts of ``table`` that reach ``extra``
    terms past both the ``fitted`` terms the guess was made from and F's
    (dp+1)(dx+1) unknowns."""
    dp = max(F.degree("P"), 0)
    dx = max(F.degree("x"), 0)
    length = max((dp + 1) * (dx + 1), fitted) + extra
    return series_vanishes(F, Series.from_values(table.counts(length - 1)))
