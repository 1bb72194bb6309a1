"""Guess a polynomial equation F(x, P) = 0 from a sequence prefix.

Searches degree pairs (dP, dX) in increasing (dP + dX, dP) order.  For each
pair the coefficients of F = sum q_i(x) P^i (deg q_i <= dX) are found as a
rational nullspace of the linear system demanding that the first terms of
F(x, S) vanish, where S is the prefix read as a truncated series.  The last
five available orders are withheld from the solve and used as a blind check,
so an underdetermined fit that merely interpolates noise is rejected.

Integer prefixes are first sieved modulo a fixed 61-bit prime: full column
rank modulo the prime already proves full rank over Q, so the expensive
rational elimination only runs for pairs that produce a candidate the modular
round cannot settle.  Candidates recovered by rational reconstruction are
re-verified exactly on every fit order, so acceptance never depends on the
prime.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import MPoly, Ring, ZERO, ONE, make_ring, primitive_part
from .stepset import RestrictionSpec

GUESS_RING: Ring = make_ring("P", "x")

HOLDOUT = 5

SIEVE_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class GuessConfig:
    max_p_degree: int
    max_x_degree: int
    safety_margin: int = 5

    def __post_init__(self):
        if self.max_p_degree < 0 or self.max_x_degree < 0 or self.safety_margin < 0:
            raise ValueError("guess bounds must be nonnegative")

    def min_terms(self) -> int:
        return (self.max_p_degree + 1) * (self.max_x_degree + 1) + self.safety_margin


def _series_powers(seq: Sequence[Fraction], top: int) -> list[list[Fraction]]:
    """Truncated powers S^0..S^top of the prefix series."""
    n = len(seq)
    powers = [[ONE] + [ZERO] * (n - 1)]
    for _ in range(top):
        prev = powers[-1]
        cur = [ZERO] * n
        for i, a in enumerate(prev):
            if a == 0:
                continue
            for j in range(n - i):
                b = seq[j]
                if b:
                    cur[i + j] += a * b
        powers.append(cur)
    return powers


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace via reduced row echelon form."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for pr, pc in enumerate(pivots):
            v[pc] = -mat[pr][free]
        basis.append(v)
    return basis


def _rational_from_residue(a: int, p: int) -> Fraction | None:
    """Smallest rational n/d with n = a*d mod p, |n|,d <= sqrt(p/2), or None."""
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
    return Fraction(num, den)


def _modular_candidates(
    pow_mod: list[list[int]], cols: list[tuple[int, int]], nfit: int, p: int
) -> list[list[Fraction]] | None:
    """Nullspace candidates of the fit system read modulo a prime.

    An empty list means the fit matrix has full column rank modulo p, which
    forces full rank over Q, so the pair is settled.  None means some entry
    would not reconstruct as a small rational and the exact path must run.
    Nonzero candidates still need exact re-verification by the caller.
    """
    mat = [
        [pow_mod[i][order - j] if order >= j else 0 for (i, j) in cols]
        for order in range(nfit)
    ]
    ncols = len(cols)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [v * inv % p for v in mat[r]]
        row_r = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out: list[list[Fraction]] = []
    pivotset = set(pivots)
    for free in range(ncols):
        if free in pivotset:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for pr_i, pc in enumerate(pivots):
            a = mat[pr_i][free]
            if a:
                val = _rational_from_residue(a, p)
                if val is None:
                    return None
                v[pc] = -val
        out.append(v)
    return out


def _vanishes_through(
    powers: list[list[Fraction]], cols: list[tuple[int, int]], v: list[Fraction], norders: int
) -> bool:
    support = [(i, j, v[k]) for k, (i, j) in enumerate(cols) if v[k]]
    for order in range(norders):
        acc = ZERO
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
    values = [Fraction(v) for v in seq]
    n = len(values)
    if n < cfg.min_terms():
        raise ValueError(
            f"need at least {cfg.min_terms()} terms for bounds "
            f"({cfg.max_p_degree},{cfg.max_x_degree}), got {n}"
        )
    powers = _series_powers(values, cfg.max_p_degree)
    pow_mod = None
    if all(v.denominator == 1 for v in values):
        pow_mod = [[int(c) % SIEVE_PRIME for c in row] for row in powers]

    for dp, dx in _pair_schedule(cfg.max_p_degree, cfg.max_x_degree):
        # truncation headroom: only orders below n - dp are trustworthy
        L = n - dp
        unknowns = (dp + 1) * (dx + 1)
        if L < unknowns + cfg.safety_margin:
            continue
        cols = [(i, j) for i in range(dp + 1) for j in range(dx + 1)]
        nfit = L - HOLDOUT
        basis = None
        if pow_mod is not None:
            sieve_rows = min(nfit, unknowns + cfg.safety_margin + 3)
            cand = _modular_candidates(pow_mod, cols, sieve_rows, SIEVE_PRIME)
            if cand is not None:
                if not cand:
                    continue
                good = [v for v in cand if _vanishes_through(powers, cols, v, nfit)]
                if good:
                    basis = good
        if basis is None:
            fit = [
                [powers[i][order - j] if order >= j else ZERO for (i, j) in cols]
                for order in range(nfit)
            ]
            basis = _nullspace(fit, len(cols))
        if not basis:
            continue
        hold = [
            [powers[i][order - j] if order >= j else ZERO for (i, j) in cols]
            for order in range(nfit, L)
        ]
        passing = [
            v for v in basis
            if all(sum(c * row[k] for k, c in enumerate(v)) == 0 for row in hold)
        ]
        if not passing:
            continue
        best = min(passing, key=lambda v: sum(1 for c in v if c != 0))
        terms = {}
        for (i, j), c in zip(cols, best):
            if c:
                terms[(i, j)] = c
        return primitive_part(MPoly(GUESS_RING, terms))
    return None


def verify_guess(F: MPoly, spec: RestrictionSpec, extra: int, tables: dict | None = None) -> bool:
    """Re-test vanishing on a longer reference series (``tables`` as in
    reference_series)."""
    from .algebra import Series, series_vanishes
    from .symbolic import reference_series

    dp = max(F.degree("P"), 0)
    dx = max(F.degree("x"), 0)
    length = (dp + 1) * (dx + 1) + extra
    values = reference_series(spec, length - 1, tables)
    return series_vanishes(F, Series.from_values(values))
