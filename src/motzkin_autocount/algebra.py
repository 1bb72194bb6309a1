"""Exact polynomial and power-series kernel on stdlib integers and rationals.

Provides sparse multivariate polynomials with a fixed variable tuple per
ring (pure lexicographic order, first name biggest), exact division, the
content in one variable by the primitive pseudo-remainder chain,
pseudo-remainders and linear substitution, exact linear solves block by
block (the strongly connected blocks of the sparsity pattern in dependency
order, each by fraction-free Gauss-Jordan), and truncated power-series
utilities including solving a polynomial equation for its unique series
root given a disambiguating prefix.

Coefficients, of polynomials and of truncated series alike, are Python ints
wherever they are integral, which covers every polynomial the symbolic
routes build; a Fraction appears only where a true rational does (rational
input, or a series coefficient that is not an integer).  Each exponent
vector is packed into one int of SLOT_BITS bits per variable, the first
ring variable in the most significant slot, so integer order on packed keys
is lex order on exponent tuples and multiplying monomials is adding keys.
The top bit of every slot is a guard bit: an exponent may be at most
MAX_EXP, a construction or product that would exceed it raises AlgebraError
instead of carrying into the next slot, and a key difference that is
negative or has a guard bit set marks a monomial that does not divide
another.  ``MPoly.terms`` is a read-only view of the terms keyed by
exponent tuples.

Canonical published form for a polynomial: integer coefficients, content 1,
and positive coefficient on the lexicographically leading term.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Ring = tuple[str, ...]
Exps = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

SLOT_BITS = 16
MAX_EXP = (1 << (SLOT_BITS - 1)) - 1
_SLOT_MASK = (1 << SLOT_BITS) - 1


class AlgebraError(ArithmeticError):
    pass


class BranchAmbiguityError(AlgebraError):
    """A series step could not be determined; supply a longer prefix."""


class EliminationError(AlgebraError):
    """A linear system to solve is singular or not square."""


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


def _coeff(c) -> int | Fraction:
    """A coefficient as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = _as_fraction(c)
    return c.numerator if c.denominator == 1 else c


# packed exponent vectors ----------------------------------------------------


def _guard(k: int) -> int:
    """The guard bit of each slot of a k-variable key."""
    return ((1 << (SLOT_BITS * k)) - 1) // _SLOT_MASK << (SLOT_BITS - 1)


def _shift(ring: Ring, name: str) -> int:
    return SLOT_BITS * (len(ring) - 1 - ring.index(name))


def _pack(exps: Exps, k: int) -> int:
    if len(exps) != k:
        raise AlgebraError(f"{len(exps)} exponents for a ring of {k} variables")
    key = 0
    for x in exps:
        if not 0 <= x <= MAX_EXP:
            raise AlgebraError(f"exponent {x} is outside 0..{MAX_EXP}")
        key = key << SLOT_BITS | x
    return key


def _unpack(key: int, k: int) -> Exps:
    return tuple(key >> s & _SLOT_MASK for s in range(SLOT_BITS * (k - 1), -1, -SLOT_BITS))


def _addmul(acc: dict, a: dict, b: dict) -> None:
    """acc += a*b on packed terms; acc may hold zeros until _finish.

    A square (a is b) visits each unordered pair of terms once and doubles
    the cross terms, about half the products of the general loop.
    """
    get = acc.get
    if a is b:
        terms = list(a.items())
        for i, (e1, c1) in enumerate(terms):
            e = e1 + e1
            acc[e] = get(e, 0) + c1 * c1
            c1 += c1
            for e2, c2 in terms[i + 1:]:
                e = e1 + e2
                acc[e] = get(e, 0) + c1 * c2
        return
    if len(a) > len(b):
        a, b = b, a
    items = b.items()
    for e1, c1 in a.items():
        for e2, c2 in items:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _finish(acc: dict, k: int) -> dict:
    """acc without zero coefficients; raises if a sum of keys overflowed.

    Valid keys leave every guard bit clear, so adding two of them cannot
    carry out of a slot, and an exponent above MAX_EXP shows as a guard bit.
    """
    spread = 0
    out = {}
    for e, c in acc.items():
        spread |= e
        if c:
            out[e] = c
    if spread & _guard(k):
        raise AlgebraError(f"an exponent exceeds the limit {MAX_EXP}")
    return out


def _make(ring: Ring, t: dict) -> "MPoly":
    """An MPoly over packed terms that are already valid and nonzero."""
    p = object.__new__(MPoly)
    p.ring = ring
    p._t = t
    return p


class MPoly:
    """Sparse polynomial over Q bound to an ordered variable tuple.

    The ring tuple lists variables from lexicographically biggest to
    smallest.  Terms are stored as {packed exponent key: coefficient};
    ``terms`` shows them keyed by exponent tuples, and the constructor
    takes that form.  Instances are treated as immutable.
    """

    __slots__ = ("ring", "_t")

    def __init__(self, ring: Ring, terms: Mapping[Exps, int | Fraction] | None = None):
        k = len(ring)
        packed = {}
        for e, c in (terms or {}).items():
            c = _coeff(c)
            if c:
                packed[_pack(e, k)] = c
        self.ring = ring
        self._t = packed

    # construction -------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "MPoly":
        return _make(ring, {})

    @staticmethod
    def const(ring: Ring, c) -> "MPoly":
        c = _coeff(c)
        return _make(ring, {0: c} if c else {})

    @staticmethod
    def var(ring: Ring, name: str) -> "MPoly":
        return _make(ring, {1 << _shift(ring, name): 1})

    # predicates and views -------------------------------------------------

    @property
    def terms(self) -> Mapping[Exps, int | Fraction]:
        """Read-only view keyed by exponent tuples; its len() is O(1)."""
        return _TermsView(self)

    def is_zero(self) -> bool:
        return not self._t

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def degree(self, name: str) -> int:
        if not self._t:
            return -1
        s = _shift(self.ring, name)
        return max(e >> s & _SLOT_MASK for e in self._t)

    def variables(self) -> set[str]:
        spread = 0
        for e in self._t:
            spread |= e
        return {v for v, x in zip(self.ring, _unpack(spread, len(self.ring))) if x}

    def as_coeff_map(self, name: str) -> dict[int, "MPoly"]:
        """Coefficients by degree in one variable; that slot is zeroed."""
        s = _shift(self.ring, name)
        out: dict[int, dict] = {}
        for e, c in self._t.items():
            d = e >> s & _SLOT_MASK
            out.setdefault(d, {})[e - (d << s)] = c
        return {d: _make(self.ring, t) for d, t in out.items()}

    def restrict(self, ring2: Ring) -> "MPoly":
        """Rebind onto another ring; fails if a dropped variable is used."""
        if ring2 == self.ring:
            return self
        k = len(self.ring)
        targets = [_shift(ring2, v) if v in ring2 else None for v in self.ring]
        terms = {}
        for e, c in self._t.items():
            key = 0
            for i, x in enumerate(_unpack(e, k)):
                if x:
                    if targets[i] is None:
                        raise AlgebraError(f"variable {self.ring[i]} is used but absent from target ring")
                    key |= x << targets[i]
            terms[key] = c
        return _make(ring2, terms)

    # arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.ring != self.ring:
                raise AlgebraError("ring mismatch")
            return other
        return MPoly.const(self.ring, other)

    def _plus(self, other, sign: int) -> "MPoly":
        t = dict(self._t)
        for e, c in self._coerce(other)._t.items():
            v = t.get(e, 0) + sign * c
            if v:
                t[e] = v
            else:
                del t[e]
        return _make(self.ring, t)

    def __add__(self, other) -> "MPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _make(self.ring, {e: -c for e, c in self._t.items()})

    def __sub__(self, other) -> "MPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "MPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            other = self._coerce(other)
            acc: dict = {}
            _addmul(acc, self._t, other._t)
            return _make(self.ring, _finish(acc, len(self.ring)))
        c = _coeff(other)
        if not c:
            return MPoly.zero(self.ring)
        return _make(self.ring, {e: c * v for e, v in self._t.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise AlgebraError("negative power")
        out = MPoly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # no square beyond the last bit, which could overflow
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.ring, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ring == other.ring and self._t == other._t

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self._t.items()))))

    def __repr__(self) -> str:
        if self.is_zero():
            return "MPoly<0>"
        bits = []
        for e in sorted(self._t, reverse=True):
            c = self._t[e]
            mono = "*".join(
                f"{v}^{x}" if x > 1 else v
                for v, x in zip(self.ring, _unpack(e, len(self.ring)))
                if x
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly<" + " + ".join(bits) + ">"


class _TermsView(Mapping):
    """The terms of one polynomial keyed by exponent tuples."""

    __slots__ = ("_poly",)

    def __init__(self, poly: MPoly):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._t)

    def __iter__(self):
        k = len(self._poly.ring)
        return (_unpack(e, k) for e in self._poly._t)

    def __getitem__(self, exps):
        try:
            key = _pack(exps, len(self._poly.ring))
        except (AlgebraError, TypeError):
            raise KeyError(exps) from None
        return self._poly._t[key]

    def items(self):
        k = len(self._poly.ring)
        return [(_unpack(e, k), c) for e, c in self._poly._t.items()]

    def values(self):
        return self._poly._t.values()

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def make_ring(*names: str) -> Ring:
    if len(set(names)) != len(names):
        raise AlgebraError("duplicate ring variable")
    return tuple(names)


def gens(ring: Ring) -> dict[str, MPoly]:
    return {name: MPoly.var(ring, name) for name in ring}


# polynomial arithmetic helpers ------------------------------------------


def _mul_sub(a: MPoly, b: MPoly, c: MPoly, d: MPoly) -> MPoly:
    """a*b - c*d over one ring, summed in one pass."""
    if len(c._t) > len(d._t):
        c, d = d, c
    acc: dict = {}
    _addmul(acc, a._t, b._t)
    _addmul(acc, {e: -v for e, v in c._t.items()}, d._t)
    return _make(a.ring, _finish(acc, len(a.ring)))


def exact_div(f: MPoly, g: MPoly) -> MPoly | None:
    """The quotient f/g when g divides f exactly, else None.

    The remainder is updated in place, one quotient term at a time.  If f
    has integer coefficients and g is primitive, Gauss's lemma makes an
    exact quotient integral, so the first quotient coefficient that is not
    an integer already proves that g does not divide f.  Other inputs are
    divided in that form, as primitive parts, once such a coefficient
    appears: a long division over Q of a miss can run for thousands of
    steps on growing coefficients.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return MPoly.zero(f.ring)
    if f.ring != g.ring:
        raise AlgebraError("ring mismatch")
    guard = _guard(len(f.ring))
    gt = g._t
    ge = max(gt)
    gc = gt[ge]
    tail = [(e - ge, c) for e, c in gt.items() if e != ge]
    # while g divides f, every quotient term times a term of g stays within
    # deg(f); otherwise a remainder key may hold a slot above MAX_EXP, but
    # never a carry (both summands are valid keys), and the guard test
    # rejects it once it leads
    rem = dict(f._t)
    q = {}
    while rem:
        fe = max(rem)
        fc = rem.pop(fe)
        de = fe - ge
        if de < 0 or de & guard:
            return None
        ints = type(fc) is int and type(gc) is int
        if ints and not fc % gc:
            c = fc // gc
        elif ints and content(g) == 1 and all(type(v) is int for v in f._t.values()):
            return None
        else:
            fp, gp = primitive_part(f), primitive_part(g)
            qp = exact_div(fp, gp)
            if qp is None:
                return None
            s = Fraction(f._t[max(f._t)], fp._t[max(fp._t)]) / Fraction(gc, gp._t[ge])
            return _make(f.ring, {e: _coeff(s * v) for e, v in qp._t.items()})
        q[de] = c
        for off, v in tail:
            e = fe + off
            nv = rem.get(e, 0) - c * v
            if nv:
                rem[e] = nv
            else:
                del rem[e]
    return _make(f.ring, q)


def content(f: MPoly) -> Fraction:
    """Positive rational c with f/c integer and coefficient gcd 1 (0 for 0)."""
    if f.is_zero():
        return ZERO
    num, den = _content(f._t)
    return Fraction(num, den)


def _content(t: dict) -> tuple[int, int]:
    # gcd of numerators and lcm of denominators of reduced coefficients
    num, den = 0, 1
    for c in t.values():
        if type(c) is int:
            num = gcd(num, c)
        else:
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
    return num, den


def primitive_part(f: MPoly) -> MPoly:
    """Integer-primitive scalar multiple with positive leading coefficient."""
    t = f._t
    if not t:
        return f
    num, den = _content(t)
    if t[max(t)] < 0:
        num = -num
    if den == 1:
        if num == 1 and all(type(c) is int for c in t.values()):
            return f
        return _make(f.ring, {e: c // num for e, c in t.items()})
    return _make(f.ring, {
        e: (c * den if type(c) is int else c.numerator * (den // c.denominator)) // num
        for e, c in t.items()
    })


# content in Z[base][main] ---------------------------------------------------


def _split_content(f: MPoly, main: str, base: str) -> tuple[MPoly, MPoly]:
    """(c, f/c) with c the primitive gcd of f's coefficients in main."""
    c = MPoly.zero(f.ring)
    for coeff in f.as_coeff_map(main).values():
        c = _gcd(c, coeff, base)
        if c.is_constant():
            return c, f
    q = exact_div(f, c)
    if q is None:
        raise AlgebraError("content division failed")
    return c, q


def _gcd(f: MPoly, g: MPoly, main: str) -> MPoly:
    """The primitive gcd of f and g in Z[main].

    The primitive prem chain: each pseudo-remainder is a Q-multiple of the
    Euclidean one, made primitive over Z by prem, so the last nonzero one
    is the gcd of the primitive parts of f and g.
    """
    if f.is_zero() or g.is_zero():
        return primitive_part(f + g)
    if f.degree(main) < g.degree(main):
        f, g = g, f
    while g.degree(main) > 0:
        f, g = g, prem(f, g, main)
    return primitive_part(f) if g.is_zero() else MPoly.const(f.ring, 1)


def _derivative(f: MPoly, name: str) -> MPoly:
    s = _shift(f.ring, name)
    return _make(f.ring, {
        e - (1 << s): c * (e >> s & _SLOT_MASK) for e, c in f._t.items() if e >> s & _SLOT_MASK
    })


# exact linear solves --------------------------------------------------------


def _blocks(mat: list[list[MPoly]]) -> list[tuple[int, ...]]:
    """Strongly connected blocks of mat's sparsity pattern (row i reaches
    column j when mat[i][j] != 0), each after every block it reaches.

    A block is reach(i) ∩ reachers(i); a block that reaches another has a
    strictly larger reach, so ordering by |reach| puts dependencies first.
    """
    adj = [[j for j, e in enumerate(row) if not e.is_zero()] for row in mat]
    reach = []
    for i in range(len(mat)):
        seen, todo = {i}, [i]
        while todo:
            for j in adj[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(seen)
    order = sorted(range(len(mat)), key=lambda i: len(reach[i]))
    return list(dict.fromkeys(tuple(sorted(j for j in reach[i] if i in reach[j])) for i in order))


def _gauss_jordan(mat: list[list[MPoly]], rhs: list[MPoly]) -> tuple[list[MPoly], MPoly]:
    """linear_solve on one dense block: fraction-free Gauss-Jordan.

    Each cross-multiplication step divides exactly by the previous pivot,
    so entries stay polynomial and the last pivot is the determinant up to
    sign.  Every diagonal entry ends equal to that last pivot: at step k a
    row i < k has a[k][i] = 0 (column i was cleared at step i), so its
    diagonal becomes a[i][i] * piv_k / piv_(k-1), which telescopes from
    piv_i to piv_k.  Hence the last column holds the numerators over it.
    """
    n = len(mat)
    ring = rhs[0].ring
    a = [list(mat[i]) + [rhs[i]] for i in range(n)]
    prev = MPoly.const(ring, 1)
    for k in range(n):
        pick = None
        for i in range(k, n):
            if not a[i][k].is_zero() and (pick is None or len(a[i][k]._t) < len(a[pick][k]._t)):
                pick = i
        if pick is None:
            raise EliminationError("singular linear system")
        if pick != k:
            a[k], a[pick] = a[pick], a[k]
        piv = a[k][k]
        for i in range(n):
            if i == k:
                continue
            row = a[i]
            low = row[k]
            for j in range(n + 1):
                if j == k or row[j].is_zero() and (low.is_zero() or a[k][j].is_zero()):
                    continue  # a zero entry with a zero cross term stays zero
                q = exact_div(_mul_sub(row[j], piv, low, a[k][j]), prev)
                assert q is not None, "fraction-free step must divide exactly"
                row[j] = q
            row[k] = MPoly.zero(ring)
        prev = piv
    return [row[n] for row in a], prev


def linear_solve(mat: list[list[MPoly]], rhs: list[MPoly]) -> tuple[list[MPoly], MPoly]:
    """Exact solution of mat * z = rhs as (numerators, shared denominator).

    The system is solved block by block: the strongly connected blocks of
    mat's sparsity pattern (_blocks) in dependency order, each by the
    fraction-free Gauss-Jordan kernel, after the numerators of the
    variables it depends on are substituted into its right-hand side.  The
    shared denominator is the product of the block determinants, which is
    det(mat) up to sign since mat is block triangular.  Raises
    EliminationError if the matrix is singular, i.e. if some block is.
    """
    n = len(mat)
    if n == 0 or len(rhs) != n or any(len(row) != n for row in mat):
        raise EliminationError("linear system must be square")
    ring = rhs[0].ring
    nums: list = [None] * n
    den = MPoly.const(ring, 1)
    for block in _blocks(mat):
        sub = []  # the block's right-hand side times den: known z_j = nums[j] / den
        for i in block:
            known = (a * z for a, z in zip(mat[i], nums) if z is not None and not a.is_zero())
            sub.append(rhs[i] * den - sum(known, MPoly.zero(ring)))
        part, d = _gauss_jordan([[mat[i][j] for j in block] for i in block], sub)
        if d != 1:
            nums = [z if z is None else z * d for z in nums]
            den = den * d
        for i, z in zip(block, part):
            nums[i] = z
    return nums, den


# substitution and pseudo-remainder ------------------------------------------


def _substitute_linear(q: MPoly, name: str, lin: MPoly) -> MPoly:
    """q(-c0/c1) * c1**deg_name(q) for lin = c1*name + c0: q at the root of
    lin, with the denominators cleared."""
    cm = q.as_coeff_map(name)
    k = max(cm)
    lm = lin.as_coeff_map(name)
    one = MPoly.const(q.ring, 1)
    pow0, pow1 = [one], [one]  # (-c0)**i and c1**i, each even power a square
    for pw, p, n in ((pow0, -lm.get(0, MPoly.zero(q.ring)), k), (pow1, lm[1], k - min(cm))):
        for i in range(1, n + 1):
            pw.append(pw[i // 2] * pw[i // 2] if i % 2 == 0 else pw[-1] * p)
    acc: dict = {}
    for i, qi in cm.items():
        _addmul(acc, (qi * pow0[i])._t, pow1[k - i]._t)
    return _make(q.ring, _finish(acc, len(q.ring)))


def prem(f: MPoly, g: MPoly, v: str) -> MPoly:
    """Pseudo-remainder of f by g with respect to v.

    Equals lc_v(g)^k * f modulo g for some k >= 0, so it stays in the
    ideal generated by f and g while dropping below deg_v(g).
    """
    if f.ring != g.ring:
        raise AlgebraError("ring mismatch")
    dg = g.degree(v)
    if dg == 0:
        raise AlgebraError("pseudo-division by a polynomial free of the variable")
    lc_g = g.as_coeff_map(v)[dg]._t
    s = _shift(f.ring, v)
    k = len(f.ring)
    r = f
    while not r.is_zero() and (dr := r.degree(v)) >= dg:
        # lc_g * r - lc_r * v**(dr - dg) * g, as one sum
        top = dr << s
        lc_r = {e - top: c for e, c in r._t.items() if e >> s & _SLOT_MASK == dr}
        up = (dr - dg) << s
        acc: dict = {}
        _addmul(acc, lc_g, r._t)
        _addmul(acc, lc_r, {e + up: -c for e, c in g._t.items()})
        r = primitive_part(_make(r.ring, _finish(acc, k)))
    return r


# truncated power series -----------------------------------------------------


@dataclass(frozen=True)
class Series:
    """Truncated power series: coefficient c_k of x^k for k < order.

    Coefficients are ints wherever they are integral; a Fraction appears
    only where a true rational does.
    """

    coeffs: tuple[int | Fraction, ...]

    @staticmethod
    def from_values(values: Iterable) -> "Series":
        return Series(tuple(_coeff(v) for v in values))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n)))

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series(tuple(out))

    def shift(self, k: int) -> "Series":
        """Multiply by x**k, keeping the order."""
        if k < 0:
            raise AlgebraError("negative shift")
        return Series((0,) * min(k, self.order) + self.coeffs[: max(0, self.order - k)])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def valuation(self) -> int | None:
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None


def _coeff_series(p: MPoly, base: str, order: int) -> Series:
    out = [0] * order
    s = _shift(p.ring, base)
    for e, c in p._t.items():
        d = e >> s
        if e != d << s:
            raise AlgebraError("coefficient involves a variable besides " + base)
        if d < order:
            out[d] += c
    return Series(tuple(out))


def poly_series_eval(p: MPoly, values: Mapping[str, Series], order: int, base: str = "x") -> Series:
    """p as a series truncated to ``order``: each variable of p other than
    base takes its series in ``values``, and the powers of base are read off
    as coefficient positions.

    Horner in each variable that p uses, in ring order, so a series for a
    variable p does not use costs nothing.  A used variable without a series
    raises AlgebraError.
    """
    used = p.variables()
    names = [v for v in p.ring if v != base and v in used]
    for v in names:
        if v not in values:
            raise AlgebraError(f"no series for the variable {v}")
    cut = {v: Series(values[v].coeffs[:order]) for v in names}

    def horner(q: MPoly, i: int) -> Series:
        if i == len(names) or not q._t:
            return _coeff_series(q, base, order)
        cm = q.as_coeff_map(names[i])
        top = max(cm)
        acc = horner(cm[top], i + 1)
        for d in range(top - 1, -1, -1):
            acc = acc * cut[names[i]]
            if d in cm:
                acc = acc + horner(cm[d], i + 1)
        return acc

    return horner(p, 0)


def series_vanishes(F: MPoly, s: Series, main: str = "P", base: str = "x") -> bool:
    """True iff F(x, s) is 0 through order s.order - deg_main(F).

    The headroom deg_main(F) guards the orders a truncated substitution
    cannot certify.
    """
    dp = F.degree(main)
    need = s.order - max(dp, 0)
    if need <= 0:
        raise AlgebraError("series too short for a meaningful vanishing check")
    value = poly_series_eval(F, {main: s}, s.order, base)
    return all(c == 0 for c in value.coeffs[:need])


def series_solve(
    F: MPoly, prefix: Sequence, order: int, main: str = "P", base: str = "x"
) -> Series:
    """The unique series root of F(x, P) = 0 extending the given prefix.

    Coefficients are produced one at a time from the lowest order at which
    the next unknown appears linearly; this handles vanishing derivative at
    the origin as long as the prefix is long enough to keep that order below
    the next unknown's index.  Raises BranchAmbiguityError otherwise.
    """
    known = [_coeff(v) for v in prefix]
    if not known:
        raise BranchAmbiguityError("an initial prefix of at least one term is required")
    if order < len(known):
        return Series(tuple(known[:order]))

    if F.is_zero():
        raise AlgebraError("zero polynomial")
    dF = _derivative(F, main)
    if dF.is_zero():
        raise AlgebraError("polynomial does not involve " + main)

    if not poly_series_eval(F, {main: Series(tuple(known))}, len(known), base).is_zero():
        raise AlgebraError("prefix does not satisfy the equation")

    while len(known) < order:
        k = len(known)
        pd = Series(tuple(known) + (0,) * k)
        deriv_val = poly_series_eval(dF, {main: pd}, pd.order, base)
        v = deriv_val.valuation()
        if v is None or v >= k:
            raise BranchAmbiguityError(
                "the linear step degenerates; supply a longer prefix"
            )
        pk = Series(tuple(known) + (0,) * (v + 1))
        value = poly_series_eval(F, {main: pk}, pk.order, base)
        if any(value.coeffs[t] != 0 for t in range(k, k + v)):
            raise AlgebraError("no series extension exists for this prefix")
        known.append(_coeff(-Fraction(value.coeffs[k + v]) / deriv_val.coeffs[v]))
    return Series(tuple(known[:order]))


# canonical rendering --------------------------------------------------------


def canonical_bivariate(F: MPoly, main: str = "P", base: str = "x") -> MPoly:
    """Primitive positive-leading form on the two-variable ring (main, base)."""
    ring = make_ring(main, base)
    return primitive_part(F.restrict(ring))


def _coeff_str(c: int | Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else str(c)


def poly_text(F: MPoly, main: str = "P", base: str = "x") -> str:
    """Canonical text: groups by descending main-degree, x-terms descending.

    A group whose coefficient has several terms is parenthesized with no
    inner spaces, e.g. ``x^2*P^2 + (x-1)*P + 1``.
    """
    if F.is_zero():
        return "0"
    if not F.variables() <= {main, base}:
        raise AlgebraError("text form supports only the two given variables")
    cm = F.as_coeff_map(main)

    def mono(c: int | Fraction, j: int, i: int) -> tuple[int, str]:
        sign = 1 if c > 0 else -1
        a = abs(c)
        factors = []
        if a != 1 or (j == 0 and i == 0):
            factors.append(_coeff_str(a))
        if j:
            factors.append(base if j == 1 else f"{base}^{j}")
        if i:
            factors.append(main if i == 1 else f"{main}^{i}")
        return sign, "*".join(factors)

    def xterms(p: MPoly) -> list[tuple[int, int | Fraction]]:
        s = _shift(p.ring, base)
        return sorted(((e >> s & _SLOT_MASK, c) for e, c in p._t.items()), reverse=True)

    parts: list[tuple[int, str]] = []
    for i in sorted(cm, reverse=True):
        items = xterms(cm[i])
        if i == 0:
            parts.extend(mono(c, j, 0) for j, c in items)
        elif len(items) == 1:
            j, c = items[0]
            parts.append(mono(c, j, i))
        else:
            inner = ""
            for j, c in items:
                s, body = mono(c, j, 0)
                if not inner:
                    inner = ("-" if s < 0 else "") + body
                else:
                    inner += ("-" if s < 0 else "+") + body
            pv = main if i == 1 else f"{main}^{i}"
            parts.append((1, f"({inner})*{pv}"))

    out = ""
    for sign, body in parts:
        if not out:
            out = ("-" if sign < 0 else "") + body
        else:
            out += (" - " if sign < 0 else " + ") + body
    return out


def poly_json_terms(F: MPoly) -> list[dict]:
    """JSON-ready term list: decimal-string coefficients, exponent maps."""
    out = []
    for e in sorted(F._t, reverse=True):
        exps = {v: x for v, x in zip(F.ring, _unpack(e, len(F.ring))) if x}
        out.append({"coeff": _coeff_str(F._t[e]), "exponents": exps})
    return out
