"""Guess a polynomial equation F(x, P) = 0 from a sequence prefix.

Searches degree pairs (dP, dX) in increasing (dP + dX, dP) order.  For each
pair the coefficients of F = sum q_i(x) P^i (deg q_i <= dX) are found as a
rational nullspace of the linear system demanding that the first terms of
F(x, S) vanish, where S is the prefix read as a truncated series.  The last
five available orders are withheld from the solve and used as a blind check,
so an underdetermined fit that merely interpolates noise is rejected.

Integer prefixes are reduced modulo the Mersenne prime SIEVE_PRIME =
2^61 - 1, and one order basis is computed per P-degree (_OrderBasis,
after Beckermann and Labahn).  For a fixed dP the fit rows (the orders
below nfit = n - dP - HOLDOUT) do not depend on dX, so one pass over the
nfit orders of [S^0, ..., S^dP] settles every dX of that dP at once: the
basis rows are polynomial vectors of known degrees d_k, and the pair's
null vectors modulo the prime are exactly the span of x^t * b_k, t <= dX -
d_k.  Rows whose degree passes the largest dX the schedule can try for
that dP are dropped as they pass it, so a pass costs at most
(dP+1)^2 (maxX+1) updates of packed rows.  A pair with no basis row of
degree <= dX has full column rank modulo the prime on its fit rows, hence
over Q, and holds no relation; such a pair costs a look at the row
degrees.  A rank-deficient pair reads its reduced-row-echelon null
vectors off the basis by a small Gauss-Jordan, lifts them by rational
reconstruction and re-verifies them exactly on every fit order.  If some
entry does not lift or no vector survives, the pair is skipped when its
modular null vectors stay independent on the held-out rows
(_held_out_independent), which proves that no exact null vector can pass
them; otherwise its nullspace is computed over Q (_nullspace).
Acceptance never depends on the prime.

guess_linear reads null vectors off one such order basis of several given
series, for a linear relation among them with polynomial coefficients.
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

# _OrderBasis packs residues modulo SIEVE_PRIME into slots of SLOT_BITS
# bits, and a slot takes up to LAZY_FOLDS products below SIEVE_PRIME^2
# between two folds: (LAZY_FOLDS + 1) * SIEVE_PRIME^2 < 2^SLOT_BITS
SLOT_BITS = 128
LAZY_FOLDS = 60


@dataclass(frozen=True)
class GuessConfig:
    max_p_degree: int
    max_x_degree: int

    def __post_init__(self):
        if self.max_p_degree < 0 or self.max_x_degree < 0:
            raise ValueError("guess bounds must be nonnegative")

    def min_terms(self) -> int:
        """The terms the schedule needs to try the top pair: its unknowns
        plus SAFETY_MARGIN on the n - max_p_degree orders the truncated
        powers keep."""
        return (self.max_p_degree + 1) * (self.max_x_degree + 1) + SAFETY_MARGIN + self.max_p_degree

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


def _fit_cols(dp: int, dx: int) -> list[tuple[int, int]]:
    """The columns (i, j), i <= dp, j <= dx, x-degree by x-degree: the
    order in which _OrderBasis indexes its null vectors."""
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


class _OrderBasis:
    """An order basis modulo p = SIEVE_PRIME of the series f_0..f_dp (the
    rows of ``pow_mod``) at order ``nfit``, cut at x-degree ``max_dx``,
    with the null vectors it gives.

    An approximant of order k is a vector q = (q_0(x), ..., q_dp(x)) with
    sum_i q_i f_i = 0 mod x^k.  Its coefficients, x^j of q_i at index
    j*m + i (m = dp + 1, the order of _fit_cols), form a null vector of
    the fit rows 0..k-1 of the columns x^j f_i; so for k = nfit the
    approximants of degree <= dx are the null vectors of the pair (dp, dx).

    The basis starts as the unit vectors e_i, of degree 0, each with its
    residual f_i.  At order k, each row's residual coefficient c at x^k is
    read; the pivot is a row of least degree with c != 0 (least index among
    those); every other row with c != 0 takes -(c / c_pivot) times the
    pivot, and the pivot is multiplied by x and its degree raised by one.
    A pivot whose degree passes ``max_dx`` is dropped, and a row whose
    residual is 0 on the orders left is set aside, finished.  Why the rows
    left after nfit orders give exactly the null vectors of every pair
    (dp, dx <= max_dx):

    1. Invariant: after k orders every row's residual vanishes below x^k,
       and the rows generate every approximant of order k.  The updated
       rows vanish at x^k by the choice of their multiples.  An
       approximant q of order k + 1 is sum a_i b_i in the old rows; in the
       new rows the pivot's coefficient is a_pivot plus sum (c_i /
       c_pivot) a_i, whose constant term times c_pivot is the x^k
       coefficient of q's residual, 0; so that coefficient is a multiple
       of x and q is a combination of the new rows.
    2. Reducedness: let row i have tracked degree d_i and L_i its
       coefficient vector at x^(d_i).  The matrix L starts as the
       identity and changes only by a row operation (a row of lower
       degree added changes nothing, one of equal degree adds a multiple
       of its L_j) and by the pivot's multiplication by x, which keeps its
       L.  So L stays nonsingular, d_i is the true degree of row i, and
       the basis is row-reduced.
    3. Predictable degrees: for a row-reduced basis, deg(sum a_i b_i) is
       max(deg a_i + d_i), since the top coefficients sum to a nonzero
       combination of rows of L.  So the approximants of degree <= dx are
       exactly span{x^t b_i : t <= dx - d_i}, these vectors are
       independent, and the nullspace dimension is sum max(0, dx - d_i + 1).
    4. The bound is safe: a row of degree <= max_dx with c != 0 always
       beats one of larger degree as the pivot, so the rows above max_dx
       never change a row at or below it, and degrees never fall; by 3
       they take no part in an approximant of degree <= max_dx.  A
       finished row is never a pivot nor changed again.  Dropping or
       setting aside either changes no null vector of any dx <= max_dx.
    5. The read-off is exact: null_vectors(dx) reduces the span of 3 by
       Gauss-Jordan with each vector's last nonzero index as its pivot.
       Each vector is then the one null vector with 1 at its pivot c, 0 at
       the other pivots and nothing after c; the pivots are the free
       columns (a column is free iff some null vector ends there), and this
       vector is the reduced-row-echelon null vector of c, which has 1 at
       c, 0 at the other free columns and none after c; two such differ by
       a null vector on the pivot columns alone, which is 0.  The span is
       added x-degree by x-degree: the x^t b_i with t + d_i = j have degree
       exactly j (by 2), and one that left block j (indices j*m..j*m+m-1)
       under the reduction would be a null vector of degree below j, so
       in the span of the earlier blocks' vectors, with 0 at each of their
       pivots, hence 0.  So each new pivot lies in block j, a block never
       changes the vectors of an earlier one, and what is read off for dx
       stands for every larger dx.
    6. Soundness: if no row has degree <= dx, the pair's columns have full
       column rank modulo p on the fit rows, so some maximal minor of the
       integer fit matrix is nonzero modulo p, hence nonzero; the matrix has
       full column rank over Q and the pair holds no relation.

    Layout: a row is two ints of SLOT_BITS-bit slots, its vector with the
    coefficient at index j*m + i in slot j*m + i (so multiplying by x is a
    shift by m slots), and its residual from order k on, shifted down one
    slot per order (so c is the low slot; the pivot's residual only loses
    its top slot, past nfit, as multiplying by x undoes the shift).  Slots
    are folded lazily: a folded slot is below p, the pivot is folded
    before use, so each update adds a product below p^2 to a slot, and
    after LAZY_FOLDS of them the row is folded; a slot stays below p +
    LAZY_FOLDS * p^2 < 2^SLOT_BITS and never carries into the next.  As
    p = 2^61 - 1, v -> (v mod 2^61) + floor(v / 2^61) keeps v mod p; two
    such folds take a slot below 2p, and p is subtracted where a slot plus
    1 reaches 2^61, each by a few whole-int operations with per-slot masks
    cut to the int's length.  A row whose low slot is 0 modulo p but whose
    residual is a nonzero multiple of p slot by slot is folded before it
    is tested for being finished.

    Cost: at most m * (max_dx + 1) orders have a pivot, each with up to
    m - 1 row updates; the residuals hold at most nfit slots.  Each
    x-degree is read off once, by a Gauss-Jordan over its null vectors.
    """

    def __init__(self, pow_mod: list[list[int]], dp: int, nfit: int, max_dx: int):
        p, bits, m = SIEVE_PRIME, SLOT_BITS, dp + 1
        nfit = max(nfit, 0)
        slot = (1 << bits) - 1
        self.m = m
        self.size = max(nfit, m * (max_dx + 1), m)  # slots of the longest int
        ones = ((1 << (bits * self.size)) - 1) // slot
        self.masks = ones, ones * p, ones * (slot >> 61)
        fold = self._fold
        vec = [1 << (bits * i) for i in range(m)]
        res = [_pack(row[:nfit]) for row in pow_mod[:m]]
        deg, lazy = [0] * m, [0] * m
        kept = list(range(m))
        live = [i for i in kept if res[i]]
        for k in range(nfit):
            coef = {}
            for i in live:
                c = (res[i] & slot) % p
                if c:
                    coef[i] = c
                elif lazy[i]:
                    vec[i], res[i], lazy[i] = fold(vec[i]), fold(res[i]), 0
            live = [i for i in live if res[i]]
            if not live:
                break
            piv = min(coef, key=lambda i: (deg[i], i), default=None)
            if piv is not None:
                if lazy[piv]:
                    vec[piv], res[piv], lazy[piv] = fold(vec[piv]), fold(res[piv]), 0
                inv = pow(coef.pop(piv), -1, p)
                wv, wr = vec[piv], res[piv]
                for i, c in coef.items():
                    g = p - c * inv % p
                    vec[i] += g * wv
                    res[i] += g * wr
                    lazy[i] += 1
                    if lazy[i] == LAZY_FOLDS:
                        vec[i], res[i], lazy[i] = fold(vec[i]), fold(res[i]), 0
                deg[piv] += 1
                if deg[piv] > max_dx:
                    kept.remove(piv)
                    live.remove(piv)
                else:
                    vec[piv] = wv << (bits * m)
                    res[piv] = wr & ((1 << (bits * (nfit - k - 1))) - 1)
            for i in live:
                if i != piv:
                    res[i] >>= bits
        self.rows = [(deg[i], _unpack(fold(vec[i]), m * (deg[i] + 1))) for i in kept]
        self.read = -1  # the x-degree read off so far
        self.found: dict[int, list[int]] = {}  # pivot -> null vector, 1 there and none after

    def _fold(self, v: int) -> int:
        """``v`` with every slot reduced into [0, p)."""
        p, bits = SIEVE_PRIME, SLOT_BITS
        cut = bits * (self.size - -(-v.bit_length() // bits))
        ones, mods, highs = (mask >> cut for mask in self.masks)
        for _ in range(2):
            v = (v & mods) + ((v >> 61) & highs)
        return v - p * (((v + ones) >> 61) & ones)

    def null_vectors(self, dx: int) -> list[list[int]]:
        """Null vectors modulo p of the columns of x-degree <= ``dx``
        (dx <= max_dx) on the fit rows: the reduced-row-echelon basis,
        one vector per free column in column order, as residues over the
        columns up to it; empty iff those columns are independent."""
        p, m, found = SIEVE_PRIME, self.m, self.found
        while self.read < dx:  # x-degree by x-degree (point 5 above)
            self.read = j = self.read + 1
            for d, b in self.rows:
                if d > j:
                    continue
                v = [0] * ((j - d) * m) + b
                for h, w in found.items():
                    if f := v[h]:
                        v[:h + 1] = [(a - f * c) % p for a, c in zip(v, w)]
                h = max(k for k, a in enumerate(v) if a)
                inv = pow(v[h], -1, p)
                v = [a * inv % p for a in v[:h + 1]]
                for h2, w in found.items():
                    if h < h2 and (f := w[h]):
                        w[:h + 1] = [(a - f * c) % p for a, c in zip(w, v)]
                found[h] = v
        end = m * (dx + 1)
        return [list(found[h]) for h in sorted(found) if h < end]


def _pack(residues: Sequence[int]) -> int:
    size = SLOT_BITS // 8
    return int.from_bytes(b"".join([a.to_bytes(size, "little") for a in residues]), "little")


def _unpack(packed: int, nslots: int) -> list[int]:
    size = SLOT_BITS // 8
    raw = packed.to_bytes(size * nslots, "little")
    return [int.from_bytes(raw[k:k + size], "little") for k in range(0, len(raw), size)]


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
    """The modular null vectors ``residues`` lifted to rationals, padded to
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
    bases: dict[int, _OrderBasis] | None = None
    if all(type(c) is int for c in series.coeffs):
        pow_mod = [[c % SIEVE_PRIME for c in row] for row in powers]
        bases = {}

    for dp, dx in _pair_schedule(cfg.max_p_degree, cfg.max_x_degree):
        # truncation headroom: only orders below n - dp are trustworthy
        L = n - dp
        unknowns = (dp + 1) * (dx + 1)
        if L < unknowns + SAFETY_MARGIN:
            continue
        nfit = L - HOLDOUT
        residues = None
        if bases is not None:
            if dp not in bases:
                # the largest dx of this dp that the schedule tries
                top = min(cfg.max_x_degree, (L - SAFETY_MARGIN) // (dp + 1) - 1)
                bases[dp] = _OrderBasis(pow_mod, dp, nfit, top)
            residues = bases[dp].null_vectors(dx)
            if not residues:
                continue
        cols = _fit_cols(dp, dx)
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
    """True when the modular null vectors ``residues`` stay independent
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
    # an order basis cut at dx = 0 is Gaussian elimination of the given
    # rows, order by order: a plain independence test, one pass over the
    # held-out orders with at most len(images)^2 row updates
    return not _OrderBasis(images, len(images) - 1, len(hold), 0).null_vectors(0)


def guess_linear(series: Sequence[Sequence[int]]) -> list[list] | None:
    """Polynomials c_0(x), ..., c_m(x) of least common degree bound dx with
    sum_i c_i(x) S_i = 0 and c_m nonzero, for integer series S_0..S_m of
    one length n, or None when no dx with (m+1)(dx+1) + SAFETY_MARGIN <= n
    has one.  Each c_i comes as its x-coefficients, lowest first.

    One order basis of S_0..S_m modulo SIEVE_PRIME (_OrderBasis), cut at
    the largest dx the bound allows, settles every dx in one pass over the
    n - HOLDOUT fit orders, at most (m+1)^2 (dx+1) packed-row updates; each
    dx then costs one comparison of degrees, and the null vectors of a
    rank-deficient dx are lifted and re-verified exactly as in
    guess_algebraic; as there, the last HOLDOUT orders are withheld from
    the fit as a blind check.  Unlike
    guess_algebraic there is no exact fallback: a relation whose
    coefficients do not reconstruct modulo the prime is not found, which
    only costs its caller the fast path.  The series are exact to n terms,
    so every order below n counts.
    """
    n = len(series[0])
    top = len(series) - 1
    nfit = n - HOLDOUT
    max_dx = (n - SAFETY_MARGIN) // (top + 1) - 1
    basis = _OrderBasis([[c % SIEVE_PRIME for c in s] for s in series], top, nfit, max_dx)
    for dx in range(max_dx + 1):
        residues = basis.null_vectors(dx)
        if residues:
            cols = _fit_cols(top, dx)
            lifted = _lifted(series, cols, residues, nfit) or []
            # column (m, j) sits at index m + j * (m + 1)
            passing = [v for v in _held_out(series, cols, lifted, nfit, n) if any(v[top::top + 1])]
            if passing:
                best = min(passing, key=lambda v: sum(1 for c in v if c != 0))
                return [best[i::top + 1] for i in range(top + 1)]
    return None


def verify_guess(F: MPoly, table: DPTable, extra: int, fitted: int = 0) -> bool:
    """Re-test vanishing on the counts of ``table`` that reach ``extra``
    terms past both the ``fitted`` terms the guess was made from and F's
    (dp+1)(dx+1) unknowns."""
    dp = max(F.degree("P"), 0)
    dx = max(F.degree("x"), 0)
    length = max((dp + 1) * (dx + 1), fitted) + extra
    return series_vanishes(F, Series.from_values(table.counts(length - 1)))
