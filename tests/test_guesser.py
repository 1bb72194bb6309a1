"""Sequence-to-equation guessing: minimality, holdout, modular sieve and its null vectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkin_autocount import (
    GuessConfig,
    RestrictionSpec,
    guess_algebraic,
    motzkin_numbers,
    parse_stepset,
    poly_text,
    sequence,
    verify_guess,
)
from motzkin_autocount import guesser
from motzkin_autocount.guesser import (
    GUESS_RING,
    HOLDOUT,
    SAFETY_MARGIN,
    SIEVE_PRIME,
    _ColumnSieve,
    _fit_rows,
    _pair_schedule,
    _rational_from_residue,
    _sieve_cols,
    guess_linear,
)
from motzkin_autocount.algebra import MPoly

P = MPoly.var(GUESS_RING, "P")
X = MPoly.var(GUESS_RING, "x")
MOTZKIN_F = X * X * P * P + (X - 1) * P + 1


def test_motzkin_quadratic_from_25_terms():
    F = guess_algebraic(motzkin_numbers(24), GuessConfig(2, 2))
    assert F is not None
    assert poly_text(F) == "x^2*P^2 + (x-1)*P + 1"


def test_rational_sequence_gives_linear_relation():
    F = guess_algebraic([1] * 12, GuessConfig(1, 1))
    assert poly_text(F) == "(x-1)*P + 1"


def test_minimal_pair_wins_even_under_loose_bounds():
    # the schedule tries low (dP + dx) first, so the quadratic is found
    # before any cubic that also annihilates the prefix
    F = guess_algebraic(motzkin_numbers(29), GuessConfig(3, 3))
    assert poly_text(F) == "x^2*P^2 + (x-1)*P + 1"
    G = guess_algebraic([1] * 16, GuessConfig(2, 2))
    assert poly_text(G) == "(x-1)*P + 1"


def test_linear_relation_of_least_x_degree():
    m = motzkin_numbers(39)
    square = [sum(m[i] * m[k - i] for i in range(k + 1)) for k in range(40)]
    ones = [1] + [0] * 39
    rel = guess_linear([ones, m, square])
    # x^2 M^2 = (1 - x) M - 1, up to scale, found at x-degree 2
    assert [len(c) for c in rel] == [3, 3, 3]
    scale = Fraction(rel[2][2])
    assert [[Fraction(c) / scale for c in cs] for cs in rel] == [[1, 0, 0], [-1, 1, 0], [0, 0, 1]]
    # M is not rational: no relation with M as the last series takes part
    assert guess_linear([ones, m]) is None


def test_odd_height_spec_from_40_terms():
    spec = RestrictionSpec(
        peaks=parse_stepset("{2*r+1}"), valleys=parse_stepset("{2*r+1}")
    )
    F = guess_algebraic(sequence(spec, 39), GuessConfig(2, 4))
    assert poly_text(F) == "x^4*P^2 + (x^3-3*x^2+3*x-1)*P + x^2 - 2*x + 1"


def test_no_relation_within_bounds_returns_none():
    assert guess_algebraic(motzkin_numbers(24), GuessConfig(1, 8)) is None


def test_insufficient_terms_is_an_error():
    with pytest.raises(ValueError, match=r"need at least 30 terms for bounds \(4,4\), got 13"):
        guess_algebraic(motzkin_numbers(12), GuessConfig(4, 4))
    with pytest.raises(ValueError):
        GuessConfig(-1, 2)


def test_guess_is_stable_under_prefix_extension():
    a = guess_algebraic(motzkin_numbers(24), GuessConfig(2, 2))
    b = guess_algebraic(motzkin_numbers(34), GuessConfig(2, 2))
    assert a == b


def test_holdout_rejects_a_corrupted_tail():
    values = motzkin_numbers(24)
    values[18] += 1
    assert guess_algebraic(values, GuessConfig(2, 2)) is None


def test_held_out_rows_modulo_the_prime_reject_without_the_exact_nullspace():
    values = [10**(10 * k) for k in range(12)]
    reductions = []
    nullspace = guesser._nullspace

    def counting(*args):
        reductions.append((len(args[0]), args[1]))
        return nullspace(*args)

    def failing(*args):
        raise AssertionError("exact nullspace computed")

    with pytest.MonkeyPatch.context() as mp:
        # 10**10 does not lift from its residue, so the hit takes the exact path
        mp.setattr(guesser, "_nullspace", counting)
        F = guess_algebraic(values, GuessConfig(1, 1))
        assert poly_text(F) == "(10000000000*x-1)*P + 1"
        assert reductions == [(6, 4)]
        # a held-out term off by one leaves the modular null vector nonzero
        # on the held-out rows, which rules the pair out
        values[8] += 1
        mp.setattr(guesser, "_nullspace", failing)
        assert guess_algebraic(values, GuessConfig(1, 1)) is None


def test_non_integer_prefixes_take_the_exact_path():
    # halved geometric sequence: (2x-2)P + 1 = 0, unreachable by the sieve
    values = [Fraction(1, 2)] * 12
    F = guess_algebraic(values, GuessConfig(1, 1))
    assert poly_text(F) == "(2*x-2)*P + 1"


def test_verify_guess():
    assert verify_guess(MOTZKIN_F, RestrictionSpec(), 30)
    assert not verify_guess(P - 1, RestrictionSpec(), 10)


@settings(max_examples=80)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_reconstruction_round_trip(num, den):
    a = num * pow(den, SIEVE_PRIME - 2, SIEVE_PRIME) % SIEVE_PRIME
    got = _rational_from_residue(a, SIEVE_PRIME)
    assert got == Fraction(num, den)


def test_rational_reconstruction_rejects_oversized_values():
    # residues of rationals beyond the bound reconstruct to something else
    # or not at all; they must never silently round-trip
    big = SIEVE_PRIME // 2 + 12345
    got = _rational_from_residue(big % SIEVE_PRIME, SIEVE_PRIME)
    assert got is None or got != Fraction(big)


# incremental rank sieve -------------------------------------------------------


def full_rank_mod_p(rows, ncols):
    """From-scratch row reduction modulo SIEVE_PRIME: is the rank ncols?"""
    p, mat, rank = SIEVE_PRIME, [[a % SIEVE_PRIME for a in row] for row in rows], 0
    for c in range(ncols):
        pr = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] * inv % p
            mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank == ncols


def truncated_powers(values, top):
    powers = [[1] + [0] * (len(values) - 1)]
    for _ in range(top):
        prev = powers[-1]
        powers.append([sum(prev[k] * values[m - k] for k in range(m + 1))
                       for m in range(len(values))])
    return powers


def fit_matrix(values, dp, dx):
    """The pair's fit rows, orders below n - dp - HOLDOUT, built directly,
    with the columns in the sieve's order."""
    powers = truncated_powers(values, dp)
    cols = _sieve_cols(dp, dx)
    nfit = len(values) - dp - HOLDOUT
    return _fit_rows(powers, cols, 0, nfit), len(cols)


def spec_sequences():
    finite = st.frozensets(st.integers(1, 3), max_size=2).map(
        lambda s: "{" + ",".join(map(str, sorted(s))) + "}")
    literal = st.one_of(finite, st.sampled_from(["{2*r+1}", "{2*r+2}", "{r+2}"]))
    spec = st.builds(
        lambda c, d, e: RestrictionSpec(up_runs=parse_stepset(c), down_runs=parse_stepset(d),
                                        flat_runs=parse_stepset(e)),
        literal, literal, literal)
    return st.builds(lambda sp, n: sequence(sp, n), spec, st.integers(14, 40))


SEQUENCES = st.one_of(
    st.lists(st.integers(-3, 3), min_size=8, max_size=40),
    st.lists(st.integers(-10**20, 10**20), min_size=8, max_size=30),
    spec_sequences(),
)


def nullspace_mod_p(rows, ncols):
    """From-scratch reduced row echelon form modulo SIEVE_PRIME: the
    nullspace basis, one vector per free column, 1 there."""
    p, mat, pivots = SIEVE_PRIME, [[a % SIEVE_PRIME for a in row] for row in rows], []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [a * inv % p for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -mat[r][free] % p
        basis.append(v)
    return basis


@settings(max_examples=60, deadline=None)
@given(SEQUENCES, st.integers(1, 3), st.integers(0, 9))
def test_sieve_verdicts_match_a_from_scratch_rank(values, max_p, max_x):
    n = len(values)
    pow_mod = [[c % SIEVE_PRIME for c in row] for row in truncated_powers(values, max_p)]
    for dp in range(1, max_p + 1):
        sieve = _ColumnSieve(pow_mod, dp, n - dp - HOLDOUT)
        for dx in range(max_x + 1):
            got = sieve.null_vectors(dx)
            assert (not got) == full_rank_mod_p(*fit_matrix(values, dp, dx)), (dp, dx)
            ncols = (dp + 1) * (dx + 1)
            padded = [v + [0] * (ncols - len(v)) for v in got]
            assert padded == nullspace_mod_p(*fit_matrix(values, dp, dx)), (dp, dx)


EXTREME_RESIDUES = st.one_of(
    st.sampled_from([0, 1, SIEVE_PRIME - 1, SIEVE_PRIME - 2]),
    st.integers(0, SIEVE_PRIME - 1),
)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 3), st.integers(1, 150), st.data())
def test_sieve_null_vectors_on_extreme_residues_with_many_fit_rows(dp, nfit, data):
    # up to about nfit pivots, so a slot collects up to nfit updates near p^2
    rows = data.draw(st.lists(st.lists(EXTREME_RESIDUES, min_size=nfit, max_size=nfit),
                              min_size=dp + 1, max_size=dp + 1))
    max_dx = (nfit + 4) // (dp + 1)
    cols = _sieve_cols(dp, max_dx)
    # the reduced row echelon form of a prefix of the columns is the prefix
    # of the full one, so the basis at each dx is read off the full basis:
    # the vectors of the free columns below (dp+1)(dx+1), which have no
    # entry from there on, cut there
    full = nullspace_mod_p(_fit_rows(rows, cols, 0, nfit), len(cols))
    sieve = _ColumnSieve(rows, dp, nfit)
    for dx in range(max_dx + 1):
        ncols = (dp + 1) * (dx + 1)
        want = [v[:ncols] for v in full if not any(v[ncols:])]
        got = [v + [0] * (ncols - len(v)) for v in sieve.null_vectors(dx)]
        assert got == want, (dp, nfit, dx)


def test_sieve_slots_hold_the_longest_run_of_largest_updates():
    # with dx = 0 the sieve's columns are its rows as given: 149 pivot
    # columns e_k + (p - 1) e_149 on 150 fit rows, then their sum, which
    # is reduced to 0 by 149 updates of (p - 1)^2 each to its last fit row,
    # taking that slot past 128 bits; its null vector is (p - 1, ..., p - 1, 1)
    p, nfit = SIEVE_PRIME, 150
    rows = [[1 if r == k else p - 1 if r == nfit - 1 else 0 for r in range(nfit)]
            for k in range(nfit - 1)]
    rows.append([1] * (nfit - 1) + [p - (nfit - 1)])
    assert _ColumnSieve(rows, nfit - 1, nfit).null_vectors(0) == [[p - 1] * (nfit - 1) + [1]]


@settings(max_examples=60, deadline=None)
@given(SEQUENCES, st.integers(1, 3), st.integers(0, 6))
def test_only_rank_deficient_pairs_read_a_basis_from_the_sieve(values, max_p, max_x):
    cfg = GuessConfig(max_p, max_x)
    if len(values) < cfg.min_terms():
        return
    reached = []
    lifted = guesser._lifted

    def spy(powers, cols, residues, nfit):
        reached.append(cols[-1])
        return lifted(powers, cols, residues, nfit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guesser, "_lifted", spy)
        F = guess_algebraic(values, cfg)
    n = len(values)
    deficient = [
        (dp, dx) for dp, dx in _pair_schedule(max_p, max_x)
        if n - dp >= (dp + 1) * (dx + 1) + SAFETY_MARGIN
        and not full_rank_mod_p(*fit_matrix(values, dp, dx))
    ]
    # the search stops at its first hit; a miss visits every deficient pair
    assert reached == deficient[:len(reached)]
    assert F is not None or reached == deficient


def test_sieve_settles_the_pairs_without_a_relation():
    reductions = []
    nullspace = guesser._nullspace

    def counting(*args):
        reductions.append(args[1])
        return nullspace(*args)

    ones = RestrictionSpec(up_runs=parse_stepset("{1}"), down_runs=parse_stepset("{1}"),
                           flat_runs=parse_stepset("{1}"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guesser, "_nullspace", counting)
        # no relation within (3, 24): every pair has full rank mod the prime
        assert guess_algebraic(sequence(ones, 125), GuessConfig(3, 24)) is None
        # under loose bounds the quadratic's pair is rank deficient, and its
        # null vector comes lifted from the sieve
        F = guess_algebraic(motzkin_numbers(29), GuessConfig(3, 3))
        assert poly_text(F) == "x^2*P^2 + (x-1)*P + 1"
    assert reductions == []
