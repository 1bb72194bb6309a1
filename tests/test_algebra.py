"""Exact polynomial kernel: arithmetic, gcds, linear algebra, series operations."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motzkin_autocount.algebra import (
    MAX_EXP,
    AlgebraError,
    BranchAmbiguityError,
    EliminationError,
    MPoly,
    Series,
    _gauss_jordan,
    _gcd,
    _split_content,
    _substitute_linear,
    content,
    exact_div,
    gens,
    linear_solve,
    make_ring,
    poly_json_terms,
    poly_series_eval,
    poly_text,
    prem,
    primitive_part,
    series_solve,
    series_vanishes,
)

PX = make_ring("P", "x")
P = MPoly.var(PX, "P")
X = MPoly.var(PX, "x")
ONE_PX = MPoly.const(PX, 1)

MOTZKIN_F = X * X * P * P + (X - 1) * P + 1
MOTZKIN_SEQ = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]


def rand_polys(ring, max_terms=4):
    exps = st.tuples(*(st.integers(0, 3) for _ in ring))
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda t: MPoly(ring, t)
    )


# a naive reference: {exponent tuple: Fraction} dicts -------------------------

HALF = MAX_EXP // 2
# exponents from both ends of a slot; two HALF + 1 already overflow
WIDE = st.sampled_from([0, 0, 1, 2, 3, HALF - 1, HALF, HALF + 1, MAX_EXP])
UNDER_HALF = st.sampled_from([0, 0, 1, 2, 3, HALF - 1, HALF])
SMALL = st.integers(0, 3)
COEFFS = st.integers(-9, 9) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


class Overflow(Exception):
    pass


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if max(e) > MAX_EXP:
                raise Overflow
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_eval(f, i, t):
    """f at the point with variable i set to t and every other one to 1."""
    return sum(c * t ** e[i] for e, c in f.items())


def ref_div(f, g):
    # Scaled to an integer f and a primitive g, an exact quotient is integral
    # (Gauss's lemma), so g(a) divides f(a) at every integer point a.  A point
    # where it does not proves a miss at once; the long division of a miss
    # can run for thousands of steps on growing Fraction coefficients.
    k = len(next(iter(g)))
    den = lcm(*(c.denominator for c in f.values()))
    fi = {e: int(c * den) for e, c in f.items()}
    gp = {e: int(c) for e, c in ref_primitive(g).items()}
    for i in {0, k // 2, k - 1}:
        for t in (2, 3):
            gv = ref_eval(gp, i, t)
            if gv and ref_eval(fi, i, t) % gv:
                return None
    ge = max(g)
    q, rem = {}, dict(f)
    while rem:
        fe = max(rem)
        de = tuple(x - y for x, y in zip(fe, ge))
        if min(de) < 0:
            return None
        c = rem[fe] / g[ge]
        q[de] = c
        try:
            rem = ref_add(rem, ref_mul({de: c}, g), -1)
        except Overflow:
            # an exact quotient q never steps past MAX_EXP: each de is a term
            # of q, and deg q + deg g = deg f in every variable, so g does
            # not divide f
            return None
    return q


def ref_primitive(f):
    if not f:
        return f
    num, den = 0, 1
    for c in f.values():
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    scale = Fraction(den, num) * (1 if f[max(f)] > 0 else -1)
    return {e: c * scale for e, c in f.items()}


def ref_prem(f, g, i):
    def lead(p, d):
        return {e[:i] + (0,) + e[i + 1:]: c for e, c in p.items() if e[i] == d}

    k = len(next(iter(g)))
    dg = max(e[i] for e in g)
    r = f
    while r and (dr := max(e[i] for e in r)) >= dg:
        up = tuple(dr - dg if j == i else 0 for j in range(k))
        shifted = ref_mul({up: Fraction(1)}, g)
        r = ref_primitive(ref_add(ref_mul(lead(g, dg), r), ref_mul(lead(r, dr), shifted), -1))
    return r


@st.composite
def wide_case(draw, count, exps=WIDE, coeffs=COEFFS, max_terms=4):
    """A ring of 1-40 variables and `count` reference polynomials on it."""
    k = draw(st.integers(1, 40))
    ring = make_ring(*(f"v{i}" for i in range(k)))
    polys = [
        {e: Fraction(c) for e, c in draw(st.dictionaries(
            st.tuples(*(exps for _ in range(k))), coeffs, max_size=max_terms)).items() if c}
        for _ in range(count)
    ]
    return ring, polys


def expect(ref_fn, *args):
    try:
        return ref_fn(*args)
    except Overflow:
        return Overflow


# ring arithmetic ---------------------------------------------------------


def test_make_ring_rejects_duplicates():
    with pytest.raises(AlgebraError):
        make_ring("P", "P")


def test_gens_and_operators():
    g = gens(PX)
    f = (g["P"] + 1) * (g["P"] - 1)
    assert f == g["P"] * g["P"] - 1
    assert (g["x"] ** 3).degree("x") == 3
    assert (g["P"] - g["P"]).is_zero()


@settings(max_examples=60)
@given(rand_polys(PX), rand_polys(PX), rand_polys(PX))
def test_distributivity(f, g, h):
    assert (f + g) * h == f * h + g * h


@settings(max_examples=60)
@given(rand_polys(PX), rand_polys(PX))
def test_coeff_map_reconstructs(f, g):
    s = f * g
    rebuilt = MPoly.zero(PX)
    for d, c in s.as_coeff_map("P").items():
        rebuilt = rebuilt + c * P ** d
    assert rebuilt == s


def test_restrict_and_extend():
    big = make_ring("v1", "P", "x")
    f = MOTZKIN_F.restrict(big)
    assert f.restrict(PX) == MOTZKIN_F
    v1 = MPoly.var(big, "v1")
    with pytest.raises(AlgebraError):
        (f + v1).restrict(PX)


# the packed kernel against the naive reference --------------------------------


@settings(max_examples=80, deadline=None)
@given(wide_case(2))
def test_sum_and_difference_match_the_reference(case):
    ring, (f, g) = case
    F, G = MPoly(ring, f), MPoly(ring, g)
    assert (F + G).terms == ref_add(f, g)
    assert (F - G).terms == ref_add(f, g, -1)
    assert (-F).terms == ref_add({}, f, -1)


@settings(max_examples=80, deadline=None)
@given(wide_case(2))
# a square whose doubled exponent steps past MAX_EXP
@example((make_ring("v0", "v1"), [{(HALF + 1, 0): Fraction(3), (0, 1): Fraction(-1)}, {}]))
def test_product_matches_the_reference_or_overflows(case):
    ring, (f, g) = case
    F = MPoly(ring, f)
    # F * F, one object on both sides, takes the square kernel
    for G, g_ref in ((MPoly(ring, g), g), (F, f)):
        want = expect(ref_mul, f, g_ref)
        if want is Overflow:
            with pytest.raises(AlgebraError):
                F * G
        else:
            assert (F * G).terms == want


@settings(max_examples=80, deadline=None)
@given(wide_case(2))
def test_term_view_and_order_match_exponent_tuples(case):
    ring, (f, g) = case
    F, G = MPoly(ring, f), MPoly(ring, g)
    assert F.terms == f and len(F.terms) == len(f)
    assert sorted(F.terms) == sorted(f)
    # lex order on packed keys (sorted(p._t)) must be order on tuples
    keys, tuples = list(F._t), list(F.terms)
    assert sorted(range(len(keys)), key=keys.__getitem__) == sorted(
        range(len(tuples)), key=tuples.__getitem__)
    assert (sorted(F._t) < sorted(G._t)) == (sorted(f) < sorted(g))


SIX = make_ring(*(f"v{i}" for i in range(6)))


def _ends(a, b):
    return (a, 0, 0, 0, 0, b)


@settings(max_examples=80, deadline=None)
@given(wide_case(3, exps=UNDER_HALF))
# the long division of f*g + h by g would step past MAX_EXP: a miss
@example((SIX, [{_ends(1, 16383): Fraction(1), _ends(0, 16383): Fraction(1)},
                {_ends(1, 0): Fraction(1), _ends(0, 16382): Fraction(1)},
                {_ends(2, 16383): Fraction(-1)}]))
# misses with a term of degree 16382 whose long division in the reference
# runs thousands of steps (hypothesis seeds 5, 7 and 13)
@example((make_ring("v0", "v1", "v2", "v3"), [
    {}, {(16382, 2, 3, 3): Fraction(-7, 2), (16382, 0, 3, 0): Fraction(2),
         (1, 16382, 16383, 0): Fraction(4, 3)},
    {(16383, 16382, 3, 16383): Fraction(-2)}]))
@example((make_ring("v0", "v1"), [
    {(2, 0): Fraction(7), (2, 16383): Fraction(-1)},
    {(3, 0): Fraction(-7, 3), (0, 0): Fraction(3)},
    {(0, 3): Fraction(3), (3, 0): Fraction(3), (16382, 0): Fraction(-5), (1, 2): Fraction(3)}]))
@example((make_ring("v0"), [
    {(1,): Fraction(-9), (0,): Fraction(8), (3,): Fraction(4)},
    {(3,): Fraction(-2), (1,): Fraction(-1), (0,): Fraction(5)},
    {(16382,): Fraction(-5, 4), (2,): Fraction(5), (3,): Fraction(5, 2), (0,): Fraction(4)}]))
def test_exact_div_hits_and_misses_match_the_reference(case):
    ring, (f, g, h) = case
    if not g:
        return
    F, G, H = (MPoly(ring, p) for p in (f, g, h))
    fg = ref_mul(f, g)
    assert exact_div(F * G, G).terms == f
    got = exact_div(F * G + H, G)
    want = ref_div(ref_add(fg, h), g)
    assert (got is None and want is None) or got.terms == want
    # integer coefficients over a primitive divisor take the Gauss shortcut
    Fi, Gp, Hi = (primitive_part(p) for p in (F, G, H))
    assert exact_div(Fi * Gp, Gp) == Fi
    num = Fi * Gp + Hi
    got = exact_div(num, Gp)
    want = ref_div(ref_add({}, num.terms), ref_add({}, Gp.terms))
    assert (got is None and want is None) or got.terms == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prem_matches_the_reference(data):
    k = data.draw(st.integers(1, 40))
    i = data.draw(st.integers(0, k - 1))
    ring = make_ring(*(f"v{j}" for j in range(k)))
    # small degrees in the pseudo-division variable keep the chain short
    exps = st.tuples(*(SMALL if j == i else WIDE for j in range(k)))
    f, g = (
        {e: Fraction(c) for e, c in data.draw(st.dictionaries(exps, COEFFS, max_size=4)).items() if c}
        for _ in range(2)
    )
    if not g or max(e[i] for e in g) == 0:
        return
    want = expect(ref_prem, f, g, i)
    if want is Overflow:
        with pytest.raises(AlgebraError):
            prem(MPoly(ring, f), MPoly(ring, g), ring[i])
    else:
        assert prem(MPoly(ring, f), MPoly(ring, g), ring[i]).terms == want


def test_exponent_overflow_raises():
    big = X ** MAX_EXP
    with pytest.raises(AlgebraError):
        big * X  # would carry into P's slot
    with pytest.raises(AlgebraError):
        X ** (MAX_EXP + 1)
    with pytest.raises(AlgebraError):
        MPoly(PX, {(0, MAX_EXP + 1): 1})
    with pytest.raises(AlgebraError):
        MPoly(PX, {(0, -1): 1})
    assert (big * P).terms == {(1, MAX_EXP): 1}


def test_divisibility_uses_the_guard_bits():
    # P's key minus x's key is nonnegative but borrows across the slot
    assert exact_div(P, X) is None
    assert exact_div(P * X ** MAX_EXP, X ** MAX_EXP) == P
    assert exact_div(X ** MAX_EXP, X ** (MAX_EXP - 1) * P) is None
    # the first step leaves x^(MAX_EXP + 10) in the remainder
    assert exact_div(P * X ** MAX_EXP, P + X ** 10) is None


# divisibility and content -------------------------------------------------


def test_exact_div():
    assert exact_div(P * P - X * X, P - X) == P + X
    assert exact_div(P * P - X * X + 1, P - X) is None
    assert exact_div(MPoly.zero(PX), P) == MPoly.zero(PX)
    # rational coefficients, one of them an integral Fraction
    half = P * Fraction(1, 2)
    assert exact_div(2 * P, half * 2) == MPoly.const(PX, 2)
    assert exact_div(P * P - X * Fraction(1, 4), half - X) is None
    assert exact_div(half * half - X * X, half + X) == half - X
    with pytest.raises(ZeroDivisionError):
        exact_div(P, MPoly.zero(PX))


@settings(max_examples=60)
@given(rand_polys(PX), rand_polys(PX))
def test_exact_div_inverts_multiplication(f, g):
    if g.is_zero():
        return
    assert exact_div(f * g, g) == f


def test_content_and_primitive_part():
    f = 6 * P - 4 * X
    assert content(f) == 2
    assert primitive_part(f) == 3 * P - 2 * X
    assert primitive_part(-f) == 3 * P - 2 * X
    assert content(P * Fraction(2, 3) + ONE_PX * Fraction(4, 9)) == Fraction(2, 9)


def small_factor(names):
    # integer polynomials in the given variables, degree <= 2 in each
    exps = st.tuples(*(st.integers(0, 2) if v in names else st.just(0) for v in PX))
    return st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda t: MPoly(PX, t)).filter(lambda f: not f.is_zero())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("P", "x"), ("P",), ("x",)]).flatmap(
    lambda names: st.tuples(st.just(names), *(small_factor(names) for _ in range(3)))))
@example((("P", "x"), 2 * P + 4, X * X - 1, 3 * X))
def test_gcd_and_content_in_x(case):
    # the univariate draws (no x, or no P) test the gcd itself; every draw,
    # the bivariate one too, tests the content in x
    names, a, b, c = case
    f, g = a * b, a * c * c
    if len(names) == 1:
        h = _gcd(f, g, names[0])
        assert exact_div(f, h) is not None and exact_div(g, h) is not None
        assert exact_div(h, primitive_part(a)) is not None
    # the content in x times the cofactor is f, and the cofactor has none left
    cont, rest = _split_content(f, "P", "x")
    assert cont.degree("P") <= 0 and cont * rest == f
    assert _split_content(rest, "P", "x")[0].is_constant()


# linear systems ------------------------------------------------------------


def test_linear_solve():
    # (P)z0 + z1 = x ; z1 = 1  =>  z0 = (x - 1)/P
    mat = [[P, ONE_PX], [MPoly.zero(PX), ONE_PX]]
    rhs = [X, ONE_PX]
    nums, den = linear_solve(mat, rhs)
    assert not den.is_zero()
    for row, b in zip(mat, rhs):
        lhs = MPoly.zero(PX)
        for a, z in zip(row, nums):
            lhs = lhs + a * z
        assert lhs == b * den
    with pytest.raises(EliminationError):
        linear_solve([[P, P], [P, P]], [ONE_PX, X])


SMALL_ENTRY = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 2)), st.integers(-2, 2), max_size=2
).map(lambda t: MPoly(PX, t))


@st.composite
def block_triangular(draw):
    """(mat, rhs, singular): diagonal blocks of size 1-3, each row also
    reading earlier blocks, then one permutation of rows and columns.
    ``singular`` makes one diagonal block singular (a row of it a multiple
    of another, or a zero 1 x 1 block)."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    mat = [[MPoly.zero(PX)] * n for _ in range(n)]
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    for start, size in zip(starts, sizes):
        for i in range(start, start + size):
            mat[i][:start + size] = [draw(SMALL_ENTRY) for _ in range(start + size)]
            mat[i][i] = draw(SMALL_ENTRY.filter(lambda f: not f.is_zero()))
    singular = draw(st.booleans())
    if singular:
        b = draw(st.integers(0, len(sizes) - 1))
        start, size = starts[b], sizes[b]
        if size == 1:
            mat[start][start] = MPoly.zero(PX)
        else:
            factor = draw(SMALL_ENTRY)
            for j in range(start, start + size):
                mat[start][j] = mat[start + 1][j] * factor
    rhs = [draw(SMALL_ENTRY) for _ in range(n)]
    perm = draw(st.permutations(range(n)))
    return [[mat[i][j] for j in perm] for i in perm], [rhs[i] for i in perm], singular


@settings(max_examples=100, deadline=None)
@given(block_triangular())
def test_linear_solve_block_by_block_matches_the_whole_matrix(case):
    mat, rhs, singular = case
    try:
        whole, whole_den = _gauss_jordan(mat, rhs)
    except EliminationError:
        with pytest.raises(EliminationError):
            linear_solve(mat, rhs)
        return
    assert not singular
    nums, den = linear_solve(mat, rhs)
    for row, b in zip(mat, rhs):
        lhs = MPoly.zero(PX)
        for a, z in zip(row, nums):
            lhs = lhs + a * z
        assert lhs == b * den
    sign = 1 if den == whole_den else -1
    assert den == whole_den * sign
    assert nums == [z * sign for z in whole]


# pseudo-remainders and linear substitution ---------------------------------


def test_prem_reduces_degree():
    f = P ** 3 + X * P + 1
    g = X * P * P - 1
    r = prem(f, g, "P")
    assert r.degree("P") < g.degree("P")


VPX = make_ring("v", "P", "x")
V = MPoly.var(VPX, "v")
FREE_OF_V = rand_polys(PX).map(lambda p: p.restrict(VPX))
NONZERO_FREE_OF_V = FREE_OF_V.filter(lambda p: not p.is_zero())


@settings(max_examples=60, deadline=None)
@given(rand_polys(VPX).filter(lambda p: p.degree("v") > 0), FREE_OF_V, NONZERO_FREE_OF_V,
       NONZERO_FREE_OF_V, FREE_OF_V, st.booleans())
def test_linear_substitution_clears_the_root(f, g0, g1, c, l0, shared):
    # f at v = -g0/g1, times g1**deg_v(f): the sum of q_i * (-g0)**i * g1**(k - i)
    k = f.degree("v")
    want = MPoly.zero(VPX)
    for i, q in f.as_coeff_map("v").items():
        want = want + q * (-g0) ** i * g1 ** (k - i)
    assert _substitute_linear(f, "v", g1 * V + g0) == want
    # v + l0 is monic in v, so f shares a factor in v with c*(v + l0)
    # exactly when v + l0 divides f
    lin = V + l0
    if shared:
        f = f * lin
    zero = _substitute_linear(f, "v", c * lin).is_zero()
    assert zero == (exact_div(f, lin) is not None)


# series ---------------------------------------------------------------------


def test_series_basics():
    s = Series.from_values([1, 2, 3])
    t = Series.from_values([1, 1, 1])
    assert (s + t).coeffs == (2, 3, 4)
    assert (s * t).coeffs == (1, 3, 6)
    assert all(type(c) is int for c in (s * t).coeffs + Series.from_values([Fraction(4, 2)]).coeffs)
    assert s.shift(1).coeffs == (0, 1, 2)
    assert Series.from_values([0, 0, 5]).valuation() == 2
    assert Series.from_values([0, 0]).valuation() is None


def test_poly_series_eval_motzkin():
    s = Series.from_values(MOTZKIN_SEQ)
    assert poly_series_eval(MOTZKIN_F, s).is_zero()
    assert series_vanishes(MOTZKIN_F, s)
    assert not series_vanishes(P - 1, s)
    assert series_vanishes(P - 1, Series.from_values([1] + [0] * 7))


def test_series_solve_motzkin_branch():
    s = series_solve(MOTZKIN_F, [1], 11)
    assert list(s.coeffs) == MOTZKIN_SEQ


def test_series_solve_rational_case():
    F = (1 - X) * P - 1
    s = series_solve(F, [1], 6)
    assert list(s.coeffs) == [1] * 6


def test_series_solve_keeps_rationals_exact():
    # (2-x)P - 2 = 0 has the root sum (x/2)^k: integral only at x^0
    F = (2 - X) * P - 2
    s = series_solve(F, [1], 8)
    assert s.coeffs == tuple(Fraction(1, 2**k) for k in range(8))
    assert [type(c) for c in s.coeffs] == [int] + [Fraction] * 7
    assert series_vanishes(F, s)


def test_series_solve_branch_ambiguity():
    # P^2 - (2+x)P + 1 + x has two branches through P(0)=1
    F = P * P - (2 + X) * P + 1 + X
    with pytest.raises(BranchAmbiguityError):
        series_solve(F, [1], 6)
    s = series_solve(F, [1, 0], 6)
    assert list(s.coeffs) == [1, 0, 0, 0, 0, 0]
    t = series_solve(F, [1, 1], 6)
    assert list(t.coeffs) == [1, 1, 0, 0, 0, 0]
    assert series_vanishes(F, s) and series_vanishes(F, t)


def test_series_solve_round_trip_on_quadratic():
    F = X * X * X * X * P * P + (X * X - 1) * P + 1
    s = series_solve(F, [1], 20)
    assert series_vanishes(F, s)


# text and JSON renderings ----------------------------------------------------


def test_poly_text_canonical_forms():
    assert poly_text(MOTZKIN_F) == "x^2*P^2 + (x-1)*P + 1"
    assert poly_text(P - 1) == "P - 1"
    assert poly_text(MPoly.zero(PX)) == "0"
    assert poly_text(-P + X) == "-P + x"
    assert poly_text(2 * P * P - 3) == "2*P^2 - 3"


def test_poly_text_rejects_extra_variables():
    ring = make_ring("v1", "P", "x")
    with pytest.raises(AlgebraError):
        poly_text(MPoly.var(ring, "v1") + MPoly.var(ring, "P"))


def test_poly_json_terms():
    got = poly_json_terms(X * P - 2)
    assert got == [
        {"coeff": "1", "exponents": {"P": 1, "x": 1}},
        {"coeff": "-2", "exponents": {}},
    ]
