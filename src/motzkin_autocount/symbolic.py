"""Symbolic route: grammar decomposition to a polynomial system, then one
proved equation F(x, P) = 0, by one route per grammar.

Two grammars are implemented, and one expander (_expand) serves both: it
visits the states reachable from the root breadth first, names them P,
v1, v2, ..., stores one rule tuple (case, state, children..., extra) per
state, and turns each tuple into one polynomial (_equation).  The
peak/valley grammar expands states (A, B) of forbidden peak and valley
heights; each state relates to a single child state by a 2x2
linear-fractional map (_pv_maps), whose denominator is cleared.  The
run-length grammar expands states that track the global forbidden run
lengths C/D/E together with boundary slots: the constraint on the initial
run (if it is an up-run or a flat-run) and on the final run (if a
down-run or flat-run), plus four booleans forcing the initial/final run
kind.  Boundary slots apply only to the run actually touching that end;
for a one-run (all-flat) path the initial-slot constraint governs and the
final slot is vacuous.  Each run rule reads the slots of its child one
fixed way, stated at the rule, and a slot no path of a state reaches
holds its global set, so states differing only there merge.

Each built system admits the counting series of its root state as a
solution.  solve_system reads the equation of a peak/valley system off
its continued-fraction chain (continued_fraction), and proves that of a
run system by guess_and_prove: the equation is guessed from the counts of
the spec's DP table and proved on the grammar itself.  A run system the
route declines gets no equation (None).  Both routes read their counts
from the one DPTable the caller passes in.  audit_system checks a built
system on the brute-force counts of the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from graphlib import CycleError, TopologicalSorter
from math import isqrt
from operator import mul

from .algebra import (
    MPoly,
    _derivative,
    _split_content,
    _substitute_linear,
    Ring,
    Series,
    canonical_bivariate,
    gens,
    linear_solve,
    make_ring,
    poly_series_eval,
    prem,
    primitive_part,
    series_solve,
)
from .guesser import (
    HOLDOUT,
    SAFETY_MARGIN,
    GuessConfig,
    _series_powers,
    guess_algebraic,
    guess_linear,
)
from .numeric_dp import DPTable
from .oracle import oracle_sequence, state_series
from .stepset import RestrictionSpec, StepSet

ROOT = "P"
BASE = "x"
STATE_CAP = 10_000
# the rule tags of the run grammar; the peak/valley grammar has the others
RUN_CASES = ("step", "fork", "split")


class SystemBuildError(RuntimeError):
    pass


class StateCapError(ValueError):
    """A spec whose grammar has more than STATE_CAP states: a limit of the
    domain the program handles, not an inconsistency."""


# states --------------------------------------------------------------------


@dataclass(frozen=True)
class PVState:
    """Forbidden peak heights and valley heights."""

    peaks: StepSet
    valleys: StepSet


@dataclass(frozen=True)
class RunState:
    """One node of the run-length grammar.

    kind "h" counts paths with unrestricted returns to the axis, "H" those
    leaving the axis at most once.  first_up / first_flat constrain the
    initial run when it is an up-run / flat-run; last_down / last_flat
    constrain the final run likewise.  The four booleans force the
    initial or final run to be of the named kind (they play the role of a
    zero element in the corresponding slot).  All slot sets are positive.
    """

    kind: str
    first_up: StepSet
    last_down: StepSet
    first_flat: StepSet
    last_flat: StepSet
    start_up: bool = False
    start_flat: bool = False
    end_down: bool = False
    end_flat: bool = False

    def __post_init__(self):
        if self.kind not in ("h", "H"):
            raise ValueError("kind must be 'h' or 'H'")
        if self.start_up and self.start_flat:
            raise ValueError("a path cannot be forced to start with both run kinds")
        if self.end_down and self.end_flat:
            raise ValueError("a path cannot be forced to end with both run kinds")
        for s in (self.first_up, self.last_down, self.first_flat, self.last_flat):
            if 0 in s:
                raise ValueError("slot sets hold positive lengths; use the flags for 0")


@dataclass
class EquationSystem:
    """A finite polynomial system with one equation per state variable."""

    ring: Ring
    polys: list[MPoly]
    root: str
    var_of: dict = field(default_factory=dict)
    case_of: dict = field(default_factory=dict)
    sets: tuple = ()

    def size(self) -> int:
        return len(self.polys)


# the expander ---------------------------------------------------------------


def _expand(root, rule, sets: tuple) -> EquationSystem:
    """Expand the states reachable from root breadth first, one rule each.

    ``rule(state)`` returns (case, child states, *extra), stored as the
    rule tuple (case, v, child variables..., *extra).  The root is P and
    every other state is named v1, v2, ... in order of discovery; the ring
    is (..., v2, v1, P, x), and each rule tuple becomes one polynomial
    (_equation).  More than STATE_CAP states raise StateCapError.
    """
    var_of = {root: ROOT}
    queue = deque([root])
    rules = []

    def visit(state) -> str:
        if state not in var_of:
            if len(var_of) >= STATE_CAP:
                raise StateCapError("state expansion exceeded the hard cap")
            var_of[state] = f"v{len(var_of)}"
            queue.append(state)
        return var_of[state]

    while queue:
        state = queue.popleft()
        case, children, *extra = rule(state)
        rules.append((case, var_of[state], *map(visit, children), *extra))
    ring = make_ring(*reversed(list(var_of.values())[1:]), ROOT, BASE)
    g = gens(ring)
    polys = [_equation(g, r) for r in rules]
    return EquationSystem(ring, polys, ROOT, var_of, {r[1]: r for r in rules}, sets)


def _pv_maps(x: MPoly) -> dict[str, tuple]:
    """The rules of the peak/valley grammar as 2x2 matrices on the ring of
    x: [[a, b], [c, d]] is the rule V = (a*W + b) / (c*W + d) in the one
    child W, that is V = 1 / (1 - x - x^2*W) for first_return,
    V = (x^2*W + 1 - x) / (1-x)^2 for single_arch and
    V = ((1-x)*W - 1) / (1-x) for flat_carve.
    """
    one, zero = MPoly.const(x.ring, 1), MPoly.zero(x.ring)
    y = one - x
    return {
        "first_return": ((zero, one), (-x * x, y)),
        "single_arch": ((x * x, y), (zero, y * y)),
        "flat_carve": ((y, -one), (zero, y)),
    }


def _equation(g: dict[str, MPoly], rule: tuple) -> MPoly:
    """The polynomial of one rule tuple over the generators g of its ring.

    A peak/valley rule V = (a*W + b) / (c*W + d) becomes
    V*(c*W + d) - (a*W + b).
    """
    case, v, w = rule[:3]
    V, W = g[v], g[w]
    if case == "step":
        return V - g[BASE] ** rule[3] * W
    if case == "fork":
        return V - W - g[rule[3]] - rule[4]
    if case == "split":
        return V - W - g[rule[3]] * g[ROOT] * g[rule[4]]
    (a, b), (c, d) = _pv_maps(g[BASE])[case]
    return V * (c * W + d) - (a * W + b)


# peak/valley system ---------------------------------------------------------


def build_peak_valley_system(peaks: StepSet, valleys: StepSet) -> EquationSystem:
    """Expand (A, B) states; exactly one rule of _pv_maps fires per state.

    Rule precedence: if 0 is a forbidden peak the flat paths are carved
    out; else if 0 is a forbidden valley the path returns to the axis once
    and both sets shift down inside the single arch; else the first return
    splits the path into an arch (shifted sets) and an unrestricted tail
    (same state).  Denominators are cleared.
    """

    def rule(st: PVState) -> tuple:
        if 0 in st.peaks:
            return "flat_carve", [PVState(st.peaks.remove_zero(), st.valleys)]
        if 0 in st.valleys:
            child = PVState(st.peaks.decrement(), st.valleys.remove_zero().decrement())
            return "single_arch", [child]
        return "first_return", [PVState(st.peaks.decrement(), st.valleys.decrement())]

    return _expand(PVState(peaks, valleys), rule, (peaks, valleys))


# run-length system ----------------------------------------------------------


def _shift(s: StepSet) -> tuple[StepSet, bool]:
    """Decrement a positive set; the 0 it may produce becomes a flag."""
    dec = s.decrement()
    return dec.remove_zero(), 0 in dec


def build_run_system(up_runs: StepSet, down_runs: StepSet, flat_runs: StepSet) -> EquationSystem:
    """Expand run states from the unrestricted-boundary root.

    Each state fires one rule.  The comments on the rules give how each
    treats the slots of its child; audit_system checks every rule against
    brute-force counts of the states.
    """
    C, D, E = up_runs, down_runs, flat_runs
    for s in (C, D, E):
        if 0 in s:
            raise ValueError("run lengths are positive")

    def canon(st: RunState) -> RunState:
        # a slot no path of the state can reach holds its global set, so
        # states that differ only there merge; no series changes
        if st.start_up:
            st = replace(st, first_flat=E)
        if st.start_flat:
            st = replace(st, first_up=C)
        if st.end_down:
            st = replace(st, last_flat=E)
        if st.end_flat:
            st = replace(st, last_down=D)
        return st

    def rule(st: RunState) -> tuple:
        if st.kind == "h":
            # either the path leaves the axis at most once, or it splits at
            # the first axis return and the last axis departure; the middle
            # part carries no boundary constraints and is the root series
            assert not (st.start_flat or st.end_flat), "flat-forced states stay in the single-visit layer"
            same = replace(st, kind="H")
            left = replace(st, kind="H", last_down=D, end_down=True, end_flat=False)
            right = replace(st, kind="H", first_up=C, start_up=True, start_flat=False)
            out = "split", [same, left, right]
        elif st.start_flat:
            # strip the forced leading flat step
            rest, still = _shift(st.first_flat)
            child = replace(st, first_up=C, start_up=False, first_flat=rest, start_flat=still)
            out = "step", [child], 1
        elif st.end_flat:
            # strip the forced trailing flat step; only the up-start fork
            # forces a flat end, so the initial run is an up-run the strip
            # leaves alone and its slot is carried (resetting it breaks the
            # rule), and a down-run the strip exposes at the end was
            # interior before, so the final-down slot stays at D (canon)
            rest, still = _shift(st.last_flat)
            out = "step", [replace(st, last_flat=rest, end_flat=still)], 1
        elif st.start_up and st.end_down:
            # strip the forced outer up/down arch; the runs it exposes at
            # either end were interior before, so both flat slots are E
            cup, sup = _shift(st.first_up)
            cdn, sdn = _shift(st.last_down)
            out = "step", [RunState("h", cup, cdn, E, E, start_up=sup, end_down=sdn)], 2
        elif not (st.start_up or st.end_down):
            # split on the initial run kind; empty path allowed
            out = "fork", [replace(st, start_up=True), replace(st, start_flat=True)], 1
        elif st.end_down:
            # split on the initial run kind; a down-ending path is nonempty
            out = "fork", [replace(st, start_up=True), replace(st, start_flat=True)], 0
        else:
            # up-start forced: split on the final run kind
            out = "fork", [replace(st, end_down=True), replace(st, end_flat=True)], 0
        case, children, *extra = out
        return (case, [canon(c) for c in children], *extra)

    return _expand(RunState("h", C, D, E, E), rule, (C, D, E))


# audit against brute force ---------------------------------------------------


def audit_system(system: EquationSystem, n: int = 8) -> list[str]:
    """Variables whose materialized equation fails as a counting identity.

    Every state variable is replaced by the brute-force series of its state
    (lengths 0..n: oracle_sequence for a peak/valley state, the run-state
    oracle state_series for a run state) and each polynomial is evaluated;
    a sound construction returns the empty list.  Works for both grammars.
    """
    assign: dict[str, Series] = {}
    for state, name in system.var_of.items():
        if isinstance(state, PVState):
            spec = RestrictionSpec(peaks=state.peaks, valleys=state.valleys)
            values = oracle_sequence(spec, n)
        else:
            values = state_series(system.sets, state, n)
        assign[name] = Series.from_values(values)
    return [name for name, p in zip(system.case_of, system.polys)
            if not poly_series_eval(p, assign, n + 1).is_zero()]


class GrammarSeries:
    """Series of every state variable of a run system, order by order.

    The constant terms are the least fixpoint of the rules at x = 0.  At
    an order k >= 1 a step rule reads a lower order of its child, a fork
    reads order k of both children, and a split v = same + left*root*right
    reads order k of ``same`` and of each factor whose two partners both
    have a nonzero constant term; every other order-k term of the product
    has a zero factor.  These weight-zero dependencies are fixed by the
    constant terms, so one topological order of them serves every order,
    and a cycle among them raises SystemBuildError: the rules would not
    determine the series.  Each split keeps root*right as a running
    series, so one order costs O(k) per split.  A system with rules of the
    peak/valley grammar raises.
    """

    def __init__(self, system: EquationSystem):
        rules = list(system.case_of.values())
        if not all(r[0] in RUN_CASES for r in rules):
            raise SystemBuildError("series iteration needs a run-grammar system")
        self.root = root = system.root
        self.rules = {r[1]: r for r in rules}
        const = dict.fromkeys(self.rules, 0)
        for _ in range(len(rules) + 1):
            changed = False
            for r in rules:
                if r[0] == "step":
                    new = 0
                elif r[0] == "fork":
                    new = const[r[2]] + const[r[3]] + r[4]
                else:
                    new = const[r[2]] + const[r[3]] * const[root] * const[r[4]]
                if new != const[r[1]]:
                    const[r[1]] = new
                    changed = True
            if not changed:
                break
        else:
            raise SystemBuildError("constant terms of the rules did not stabilize")
        self.coeffs = {v: [c] for v, c in const.items()}
        # split name -> coefficients of root * right
        self._products = {
            r[1]: [const[root] * const[r[4]]] for r in rules if r[0] == "split"
        }
        self._schedule = self._weight_zero_order(const)

    def _weight_zero_order(self, const: dict) -> list[str]:
        deps = {}
        for v, r in self.rules.items():
            if r[0] == "step":
                deps[v] = ()
            elif r[0] == "fork":
                deps[v] = (r[2], r[3])
            else:
                _, _, same, left, right = r
                c_l, c_p, c_r = const[left], const[self.root], const[right]
                deps[v] = (same,) + tuple(
                    w for w, partners in ((left, c_p * c_r), (self.root, c_l * c_r), (right, c_l * c_p))
                    if partners
                )
        try:
            return list(TopologicalSorter(deps).static_order())
        except CycleError:
            raise SystemBuildError("the rules have a cycle of weight zero") from None

    def extend(self, n: int) -> "GrammarSeries":
        """Make every series hold the coefficients of orders 0..n-1."""
        g, root, products = self.coeffs, self.root, self._products
        P = g[root]
        for k in range(len(P), n):
            for series in g.values():
                series.append(0)  # read only through a zero factor until set
            for v in self._schedule:
                r = self.rules[v]
                if r[0] == "step":
                    g[v][k] = g[r[2]][k - r[3]] if k >= r[3] else 0
                elif r[0] == "fork":
                    g[v][k] = g[r[2]][k] + g[r[3]][k]
                else:
                    _, _, same, left, right = r
                    lft, prod = g[left], products[v]
                    if lft[0]:
                        # root and right are final at order k, see above
                        prod.append(sum(map(mul, P, reversed(g[right][:k + 1]))))
                    g[v][k] = g[same][k] + sum(map(mul, lft[1:k + 1], reversed(prod[:k])))
                    if lft[0]:
                        g[v][k] += lft[0] * prod[k]
            for v, prod in products.items():
                if len(prod) == k:
                    prod.append(sum(map(mul, P, reversed(g[self.rules[v][4]]))))
        return self


def iterate_series(system: EquationSystem, n: int) -> list:
    """Root coefficients 0..n from the rules alone (GrammarSeries).

    Independent of the DP and of the brute-force state oracle.
    """
    return GrammarSeries(system).extend(n + 1).coeffs[system.root][: n + 1]


# run systems: guess and prove -------------------------------------------------


def _collapse_linear_layer(system: EquationSystem) -> tuple[list[MPoly], MPoly]:
    """Solve the step/fork layer exactly and substitute into the splits.

    Step and fork equations are linear in the state variables with monomial
    coefficients, so together they form a square linear system over Q[x]
    whose inhomogeneous part is affine in the split variables.  Solving it
    fraction-free and clearing the shared denominator leaves one polynomial
    per split variable, mentioning only {x, root, split variables}.
    Returns (polynomials, cleared denominator) of a run system.
    """
    rules = list(system.case_of.values())
    ring = system.ring
    g = gens(ring)
    x = g[BASE]
    zero = MPoly.zero(ring)
    lin = [r for r in rules if r[0] != "split"]
    if not lin:
        return [primitive_part(p) for p in system.polys], MPoly.const(ring, 1)
    index = {r[1]: i for i, r in enumerate(lin)}
    n = len(lin)
    mat = [[zero] * n for _ in range(n)]
    rhs = [zero] * n
    for r in lin:
        row = index[r[1]]
        mat[row][row] = mat[row][row] + 1
        if r[0] == "step":
            _, _, w, power = r
            feeds = [(w, x ** power)]
        else:
            _, _, w1, w2, const = r
            one = MPoly.const(ring, 1)
            feeds = [(w1, one), (w2, one)]
            rhs[row] = rhs[row] + const
        for w, coef in feeds:
            if w in index:
                mat[row][index[w]] = mat[row][index[w]] - coef
            else:
                rhs[row] = rhs[row] + coef * g[w]
    nums, den = linear_solve(mat, rhs)
    sol = {r[1]: nums[index[r[1]]] for r in lin}
    out = []
    for r in rules:
        if r[0] != "split":
            continue
        _, v, same, left, right = r
        p = g[v] * den * den - sol[same] * den - sol[left] * g[system.root] * sol[right]
        out.append(primitive_part(p))
    return out, den


def _consistency_error() -> RuntimeError:
    return RuntimeError(
        "the grammar series of the root does not match the reference series; "
        "the generated system is inconsistent"
    )


def _grow(x: int) -> int:
    """The next x-degree bound of a geometric ladder."""
    return max(x * 3 // 2, x + 4)


def _stage_terms(stage: tuple[int, int]) -> int:
    """The terms guessed from at one route stage: the unknowns, plus
    SAFETY_MARGIN and two HOLDOUTs, which covers the stage's dP orders of
    truncation headroom."""
    dp, dx = stage
    return (dp + 1) * (dx + 1) + SAFETY_MARGIN + 2 * HOLDOUT


def _guess_at(stage: tuple[int, int], table: DPTable) -> MPoly | None:
    """guess_algebraic on the counts of the DP table at one route stage."""
    return guess_algebraic(table.counts(_stage_terms(stage) - 1), GuessConfig(*stage))


# the guess bounds of the route, a geometric ladder (the x-bound grows by
# _grow), so each stage's series stays cheap relative to the next and a
# low-degree answer never pays for a large bound; the answers of every fcde
# golden, and of 14 of the 30 specs of the equation audit battery, are
# found by the last stage
ROUTE_STAGES = ((2, 8), (3, 12), (4, 18), (5, 27), (6, 40))
ROUTE_LAST_STAGE = ROUTE_STAGES[-1]
# the x-degree at which the linear relations of the split variables are
# given up; those of the specs above have x-degree at most 26
RELATION_MAX_X = 60


def _at_origin(p: MPoly, point: dict[str, int]) -> int | Fraction:
    """p at x = 0, with the other variables at the values in ``point``."""
    total = 0
    for exps, c in p.terms.items():
        for name, e in zip(p.ring, exps):
            if e:
                c = c * (0 if name == BASE else point[name] ** e)
        total += c
    return total


def _split_relations(
    engine: GrammarSeries, ring: Ring, splits: list[str], d: int, dx_start: int
) -> dict[str, MPoly] | None:
    """For every split variable v, D_v(x) * v - A_v(x, P) on ``ring`` with
    deg_P A_v < d, guessed from the grammar series by guess_linear; or None
    when some v has no such relation of x-degree up to RELATION_MAX_X.

    The series grow along a geometric ladder of x-degree bounds that starts
    at dx_start, and the powers P^0..P^(d-1) are taken at each length.
    """
    found: dict[str, MPoly] = {}
    dx = dx_start
    while True:
        n = (d + 1) * (dx + 1) + 10
        engine.extend(n)
        powers = _series_powers(Series(tuple(engine.coeffs[engine.root][:n])), d - 1)
        for v in splits:
            if v in found:
                continue
            rel = guess_linear(powers + [engine.coeffs[v][:n]])
            if rel is not None:
                terms = {(0, i, j): c for i, cs in enumerate(rel[:-1]) for j, c in enumerate(cs)}
                terms.update({(1, 0, j): c for j, c in enumerate(rel[-1])})
                found[v] = primitive_part(MPoly(make_ring(v, ROOT, BASE), terms).restrict(ring))
        if len(found) == len(splits) or dx >= RELATION_MAX_X:
            return found if len(found) == len(splits) else None
        dx = min(_grow(dx), RELATION_MAX_X)


def proof_holds(
    polys: list[MPoly], den: MPoly, F: MPoly, relations: dict[str, MPoly], const: dict[str, int]
) -> bool:
    """Whether F(x, P) = 0 follows from the collapsed run system.

    ``polys`` and ``den`` are what _collapse_linear_layer returns, F is on
    the ring (P, x), ``relations`` maps each split variable v other than P
    to D_v(x) * v - A_v(x, P) on the ring of ``polys``, and ``const``
    holds the constant term of every state series.  The checks:

    - F(0, P(0)) = 0 and dF/dP(0, P(0)) != 0;
    - den(0) != 0;
    - for every v, with D_v = x^k * D'_v and D'_v(0) != 0, and alpha the
      series root of F through P(0) to order k + 1: A_v(x, alpha)
      vanishes below x^k, and its x^k coefficient over D'_v(0) equals v's
      constant term;
    - every polynomial of ``polys``, with each v := A_v / D_v and the D_v
      cleared, has pseudo-remainder 0 by F in P.

    Why they prove F(P) = 0, given that the weight-zero dependencies of
    the rules are acyclic (GrammarSeries raises otherwise).  By the
    implicit function theorem F has one series root alpha with
    alpha(0) = P(0).  Set v := A_v(x, alpha) / D_v(x): x^k divides
    A_v(x, alpha) in Q[[x]] and D'_v is a unit there, so v is a series,
    and its constant term is the checked one.  Solve the step/fork layer
    from these values; its solution is a quotient by den, again series
    since den(0) != 0.  The zero pseudo-remainders make every split
    equation hold (Q[[x]] is an integral domain and no D_v, nor the
    leading coefficient of F, is the zero polynomial), so the tuple
    (alpha, the splits, the linear layer) solves the system.  Its constant
    terms are those of the counting series: alpha's and the splits' are
    checked, and the linear layer's follow from them along the acyclic
    forks.  Along the acyclic weight-zero order the system fixes each
    order from the lower ones, so the tuple is the counting series, alpha
    = P, and hence F(P) = 0.
    """
    dF = _derivative(F, ROOT)
    if _at_origin(F, const) != 0 or _at_origin(dF, const) == 0 or _at_origin(den, const) == 0:
        return False
    lows = {}  # v -> (k, D'_v(0), A_v)
    for v, rel in relations.items():
        D = rel.as_coeff_map(v)[1]
        by_x = D.as_coeff_map(BASE)
        k = min(by_x)
        lows[v] = k, _at_origin(by_x[k], const), D * MPoly.var(rel.ring, v) - rel
    alpha = series_solve(F, [const[ROOT]], max((k for k, _, _ in lows.values()), default=0) + 1)
    for v, (k, d0, A) in lows.items():
        value = poly_series_eval(A, {ROOT: alpha}, alpha.order).coeffs
        if any(value[:k]) or value[k] != d0 * const[v]:
            return False
    d = F.degree(ROOT)
    F_big = F.restrict(polys[0].ring)
    for p in polys:
        for v, rel in relations.items():
            if p.degree(v) > 0:
                # v := A_v / D_v, cleared by D_v**deg_v(p)
                p = _substitute_linear(p, v, rel)
                if p.degree(ROOT) >= d:
                    p = prem(p, F_big, ROOT)
        if p.degree(ROOT) >= d:
            p = prem(p, F_big, ROOT)
        if not p.is_zero():
            return False
    return True


def guess_and_prove(system: EquationSystem, table: DPTable) -> MPoly | None:
    """The equation of a run system by guess and proof, or None.

    F is guessed from the counts of ``table``, the DP table of the system's
    spec, at each of ROUTE_STAGES in turn, each split variable v != P is
    guessed as a linear relation D_v(x) * v = A_v(x, P) from the grammar
    series (GrammarSeries), and proof_holds certifies F on the grammar
    itself, without an eliminant.  The root's grammar series must agree
    with the DP counts on their common prefix, else the construction-bug
    error is raised.  None means the route declines: a system GrammarSeries
    refuses (peak/valley rules or a weight-zero cycle), no guess up to
    ROUTE_LAST_STAGE, no relation up to RELATION_MAX_X, or a failed check.
    Each stage is guessed at most once.

    Why a proved F is minimal.  Let M be the minimal polynomial of P over
    Q(x), primitive in Z[x][P].  F(x, P) = 0, so M divides F in Q(x)[P],
    and by Gauss's lemma in Q[x][P]; degrees in P and in x add under
    products, so M's pair (deg_P M, deg_x M) is at most F's pair in both.
    guess_algebraic tries its pairs by dP + dX, so M's pair comes no later
    than F's at F's stage, and with at least F's headroom, so it was tried
    there.  The counts are exact, so M's coefficients are a nonzero null
    vector of that pair's fit rows and vanish on its held-out rows.  The
    pair was therefore not ruled out by full rank modulo the prime (which
    implies full rank over Q, nullspace {0}), nor by _held_out_independent
    (which proves that no nonzero exact null vector passes the held-out
    rows), nor, when its nullspace is one-dimensional, by its one vector
    failing the held-out rows, as that vector is a multiple of M.  So a
    guess was returned at M's pair or before it.  The route takes the
    first guess it is given and never moves past it: a false one fails
    proof_holds and the route declines.  So F's pair is M's pair, F is a
    rational multiple of M, and canonical_bivariate fixes the multiple.
    The argument leaves one case open: if M's pair has a nullspace of
    dimension 2 or more, guess_algebraic tests only the basis vectors it
    holds (and of the lifted ones, only those that re-verify), so when
    each of them fails the held-out rows the pair is passed over, though
    M, a combination of them, would pass.
    """
    try:
        engine = GrammarSeries(system)
    except SystemBuildError:
        return None
    for stage in ROUTE_STAGES:
        F = _guess_at(stage, table)
        if F is not None:
            break
    else:
        return None
    splits = [r[1] for r in system.case_of.values() if r[0] == "split" and r[1] != system.root]
    relations = _split_relations(engine, system.ring, splits, F.degree(ROOT), F.degree(BASE))
    root = engine.coeffs[system.root]
    used = _stage_terms(stage)
    if root[:used] != table.counts(min(len(root), used) - 1):
        raise _consistency_error()
    if relations is None:
        return None
    polys, den = _collapse_linear_layer(system)
    const = {v: c[0] for v, c in engine.coeffs.items()}
    if not proof_holds(polys, den, F, relations, const):
        return None
    return canonical_bivariate(F, ROOT, BASE)


# peak/valley systems: the continued-fraction chain ----------------------------


def _times(m: tuple, n: tuple) -> tuple:
    """The 2x2 product m*n: the map W -> m(n(W)) of two linear-fractional maps."""
    return tuple(tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in (0, 1)) for i in (0, 1))


def _square_root(f: MPoly) -> MPoly | None:
    """s in Z[x] with s*s = f, for f in Z[x] on the ring (P, x); or None.

    The coefficients of s are forced from the top down, so a coefficient
    that is no integer, or a failed final check, shows that f is no square
    in Z[x].  Nor is it one in Q[x]: if f = (r*s)^2 with s primitive, then
    r^2 is the content of f, an integer, so r is one.
    """
    if f.is_zero():
        return f
    cm = {x: c for (_, x), c in f.terms.items()}
    top = max(cm)
    if top % 2 or cm[top] < 0 or isqrt(cm[top]) ** 2 != cm[top]:
        return None
    s = [isqrt(cm[top])]  # coefficients of x^(top/2), x^(top/2 - 1), ...
    for i in range(1, top // 2 + 1):
        r = cm.get(top - i, 0) - sum(s[j] * s[i - j] for j in range(1, i))
        if r % (2 * s[0]):
            return None
        s.append(r // (2 * s[0]))
    root = MPoly(f.ring, {(0, top // 2 - i): c for i, c in enumerate(s)})
    return root if root * root == f else None


def continued_fraction(system: EquationSystem, table: DPTable) -> MPoly:
    """The minimal equation of a peak/valley system, read off its chain.

    Each rule of build_peak_valley_system is V = (a*W + b) / (c*W + d) in
    its one child W, with the matrix [[a, b], [c, d]] of _pv_maps that the
    system's polynomial of the rule is made of.  Following the children
    from the root gives a tail of states and then a cycle, so with T and C
    the matrix products along them, P = T(w) and w = C(w) for the series w
    of the cycle's first state (Flajolet's continued fractions for
    height-restricted paths).

    Why the equation is right.  The counting series satisfy every rule in
    Q[[x]], and every denominator c*W + d has constant term 1, so it is a
    unit there; a product of matrices composes the maps, and its
    denominator at the series is the product of the factors' denominators,
    again a unit.  So w*(c*w + d) = a*w + b for C = [[a, b], [c, d]],
    that is c*w^2 + (d-a)*w - b = 0, and w*(a' - c'*P) = d'*P - b' for
    T = [[a', b'], [c', d']].  Multiplying the quadratic by (a' - c'*P)^2
    and substituting gives G(x, P) = 0, with no division.  G is not the
    zero polynomial: T is invertible (every rule matrix has a nonzero
    determinant), and C is no scalar matrix.  The cycle holds a
    first_return or single_arch (the child of a flat_carve has 0 as no
    forbidden peak); those two maps change V by x^2 times a series times
    the change of W, and flat_carve passes the change on, so C(0) - C(1)
    is a multiple of x^2, where a scalar C would give -1.  The content of
    G in x is a nonzero polynomial, so its cofactor H has H(P) = 0 in the
    integral domain Q[[x]]; H has content 1 in x and P-degree 1 or 2 (no
    nonzero polynomial in x alone vanishes).  A quadratic
    a*P^2 + b*P + c whose discriminant is no square in Q[x] is
    irreducible, hence minimal.  Else the discriminant is s^2 with s in
    Z[x] (_square_root), and 4a*H = lo*hi for lo, hi = 2a*P + b -+ s, so
    lo(P) = 0 or hi(P) = 0.  The DP counts S of P (``table``) through
    order deg s decide which: every such order of a polynomial linear in P is
    exact, so if hi(S) has a nonzero coefficient, hi(P) != 0 and
    lo(P) = 0; if not, lo(S) differs from it by 2s, whose lowest nonzero
    order is at most deg s, so lo(P) != 0 and hi(P) = 0 (for s = 0 the
    two are one factor).  The chosen factor, with its content in x split
    off, is the equation.
    """
    ring = make_ring(ROOT, BASE)
    P, x = MPoly.var(ring, ROOT), MPoly.var(ring, BASE)
    one, zero = MPoly.const(ring, 1), MPoly.zero(ring)
    maps = _pv_maps(x)
    chain = [system.root]
    while (w := system.case_of[chain[-1]][2]) not in chain:
        chain.append(w)
    start = chain.index(w)
    identity = ((one, zero), (zero, one))
    (a, b), (c, d) = reduce(_times, (maps[system.case_of[v][0]] for v in chain[:start]), identity)
    (A, B), (C, D) = reduce(_times, (maps[system.case_of[v][0]] for v in chain[start:]), identity)
    u, t = d * P - b, a - c * P  # w * t = u
    H = _split_content(C * u * u + (D - A) * u * t - B * t * t, ROOT, BASE)[1]
    if H.degree(ROOT) == 2:
        q2, q1, q0 = (H.as_coeff_map(ROOT).get(i, zero) for i in (2, 1, 0))
        s = _square_root(q1 * q1 - 4 * q2 * q0)
        if s is not None:
            lo, hi = 2 * q2 * P + q1 - s, 2 * q2 * P + q1 + s
            S = Series.from_values(table.counts(s.degree(BASE)))
            H = lo if any(poly_series_eval(hi, {ROOT: S}, S.order).coeffs) else hi
            H = _split_content(H, ROOT, BASE)[1]
    return canonical_bivariate(H, ROOT, BASE)


# solving ----------------------------------------------------------------------


def solve_system(system: EquationSystem, table: DPTable) -> MPoly | None:
    """The proved equation of the system: continued_fraction for a
    peak/valley system, which always answers, and guess_and_prove for a
    run system, which may decline (None).  ``table`` is the DP table of the
    system's spec; both routes read their counts from it."""
    if system.case_of[system.root][0] in RUN_CASES:
        return guess_and_prove(system, table)
    return continued_fraction(system, table)


def fab(peaks: StepSet, valleys: StepSet) -> MPoly:
    """Equation for paths avoiding the given peak and valley heights."""
    system = build_peak_valley_system(peaks, valleys)
    return solve_system(system, DPTable(RestrictionSpec(peaks=peaks, valleys=valleys)))


def fcde(up_runs: StepSet, down_runs: StepSet, flat_runs: StepSet) -> MPoly | None:
    """Equation for paths avoiding the given run lengths, or None when
    guess_and_prove declines."""
    system = build_run_system(up_runs, down_runs, flat_runs)
    spec = RestrictionSpec(up_runs=up_runs, down_runs=down_runs, flat_runs=flat_runs)
    return solve_system(system, DPTable(spec))
