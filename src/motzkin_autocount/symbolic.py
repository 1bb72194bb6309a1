"""Symbolic route: grammar decomposition to a polynomial system, then
elimination down to one equation F(x, P) = 0.

Two grammars are implemented.  The peak/valley grammar expands states
(A, B) of forbidden peak and valley heights; each state contributes one
equation relating it to a single child state, with flat runs handled by
geometric-series factors whose denominators are cleared.  The run-length
grammar expands states that track the global forbidden run lengths C/D/E
together with boundary slots: the constraint on the initial run (if it is
an up-run or a flat-run) and on the final run (if a down-run or flat-run),
plus four booleans forcing the initial/final run kind.  Boundary slots
apply only to the run actually touching that end; for a one-run (all-flat)
path the initial-slot constraint governs and the final slot is vacuous.

Each built system admits the counting series of its root state as a
solution; solve_system eliminates, checks the result against an
independently computed reference series, and then searches for the minimal
vanishing factor with the guesser plus an exact-division certificate.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import groupby
from typing import Iterable

from .algebra import (
    MPoly,
    Ring,
    Series,
    canonical_bivariate,
    eliminate_to_root,
    exact_div,
    gens,
    linear_solve,
    make_ring,
    monomial_content_quotient,
    primitive_part,
    series_vanishes,
    sqfree_part,
)
from .guesser import HOLDOUT, GuessConfig, guess_algebraic
from .numeric_dp import DPTable
from .oracle import OracleGuardError, enumerate_motzkin, oracle_guard, oracle_sequence
from .stepset import EMPTY, RestrictionSpec, StepSet

ROOT = "P"
BASE = "x"
STATE_CAP = 10_000


class SystemBuildError(RuntimeError):
    pass


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


# peak/valley system ---------------------------------------------------------


def build_peak_valley_system(peaks: StepSet, valleys: StepSet) -> EquationSystem:
    """Expand (A, B) states; exactly one rule fires per state.

    Rule precedence: if 0 is a forbidden peak the flat paths are carved
    out; else if 0 is a forbidden valley the path returns to the axis once
    and both sets shift down inside the single arch; else the first return
    splits the path into an arch (shifted sets) and an unrestricted tail
    (same state).  Denominators (1-x) are cleared.
    """
    start = PVState(peaks, valleys)
    var_of: dict[PVState, str] = {start: ROOT}
    order = [start]
    eqs: list[tuple[str, str, str]] = []
    queue = deque([start])

    def visit(state: PVState) -> str:
        if state in var_of:
            return var_of[state]
        if len(var_of) >= STATE_CAP:
            raise SystemBuildError("state expansion exceeded the hard cap")
        name = f"v{len(var_of)}"
        var_of[state] = name
        order.append(state)
        queue.append(state)
        return name

    while queue:
        st = queue.popleft()
        v = var_of[st]
        if 0 in st.peaks:
            child = PVState(st.peaks.remove_zero(), st.valleys)
            eqs.append(("flat_carve", v, visit(child)))
        elif 0 in st.valleys:
            child = PVState(st.peaks.decrement(), st.valleys.remove_zero().decrement())
            eqs.append(("single_arch", v, visit(child)))
        else:
            child = PVState(st.peaks.decrement(), st.valleys.decrement())
            eqs.append(("first_return", v, visit(child)))

    aux = [var_of[s] for s in order if var_of[s] != ROOT]
    ring = make_ring(*reversed(aux), ROOT, BASE)
    g = gens(ring)
    x = g[BASE]
    one_minus_x = MPoly.const(ring, 1) - x

    polys = []
    case_of = {}
    for case, v, w in eqs:
        V, W = g[v], g[w]
        if case == "flat_carve":
            p = one_minus_x * (V - W) + 1
        elif case == "single_arch":
            p = one_minus_x * one_minus_x * V - one_minus_x - x * x * W
        else:
            p = one_minus_x * V - 1 - x * x * V * W
        polys.append(p)
        case_of[v] = case
    return EquationSystem(ring, polys, ROOT, dict(var_of), case_of, (peaks, valleys))


# run-length system ----------------------------------------------------------


def _shift(s: StepSet) -> tuple[StepSet, bool]:
    """Decrement a positive set; the 0 it may produce becomes a flag."""
    dec = s.decrement()
    return dec.remove_zero(), 0 in dec


def build_run_system(
    up_runs: StepSet,
    down_runs: StepSet,
    flat_runs: StepSet,
    *,
    strip_end_start_slot: str = "carry",
    strip_end_end_slot: str = "reset",
    arch_flat_slots: str = "reset",
    merge_inactive_slots: bool = True,
) -> EquationSystem:
    """Expand run states from the unrestricted-boundary root.

    The three keyword readings cover ambiguities in how the two
    strip-a-step rules and the arch rule treat slots that are inactive in
    the parent: ``strip_end_start_slot`` is the initial-run slot when the
    final flat step is stripped ("carry" keeps it, which is required when
    the state forces an up-start); ``strip_end_end_slot`` is the final-down
    slot in the same rule ("reset" restores the global set, which is
    required because the newly exposed down-run was interior before);
    ``arch_flat_slots`` is the pair of flat slots when an up/down arch is
    stripped ("reset" restores globals, as the exposed runs were interior).
    The defaults are the readings validated against brute-force counts;
    the alternatives exist so tests can demonstrate the comparison.
    ``merge_inactive_slots`` canonicalizes slots that cannot affect any
    path (for example the initial-flat slot when an up-start is forced),
    shrinking the state space without changing any series value.
    """
    C, D, E = up_runs, down_runs, flat_runs
    for s in (C, D, E):
        if 0 in s:
            raise ValueError("run lengths are positive")

    def canon(st: RunState) -> RunState:
        if not merge_inactive_slots:
            return st
        if st.start_up:
            st = replace(st, first_flat=E)
        if st.start_flat:
            st = replace(st, first_up=C)
        if st.end_down:
            st = replace(st, last_flat=E)
        if st.end_flat:
            st = replace(st, last_down=D)
        return st

    root = RunState("h", C, D, E, E)
    var_of: dict[RunState, str] = {root: ROOT}
    order = [root]
    eqs: list[tuple] = []
    queue = deque([root])

    def visit(state: RunState) -> str:
        state = canon(state)
        if state in var_of:
            return var_of[state]
        if len(var_of) >= STATE_CAP:
            raise SystemBuildError("state expansion exceeded the hard cap")
        name = f"v{len(var_of)}"
        var_of[state] = name
        order.append(state)
        queue.append(state)
        return name

    while queue:
        st = queue.popleft()
        v = var_of[st]
        if st.kind == "h":
            # either the path leaves the axis at most once, or it splits at
            # the first axis return and the last axis departure; the middle
            # part carries no boundary constraints and is the root series
            assert not (st.start_flat or st.end_flat), "flat-forced states stay in the single-visit layer"
            same = replace(st, kind="H")
            left = replace(st, kind="H", last_down=D, end_down=True, end_flat=False)
            right = replace(st, kind="H", first_up=C, start_up=True, start_flat=False)
            eqs.append(("split", v, visit(same), visit(left), visit(right)))
            continue
        if st.start_flat:
            # strip the forced leading flat step
            rest, still = _shift(st.first_flat)
            child = replace(
                st, first_up=C, start_up=False, first_flat=rest, start_flat=still
            )
            eqs.append(("step", v, visit(child), 1))
        elif st.end_flat:
            # strip the forced trailing flat step
            rest, still = _shift(st.last_flat)
            child = replace(st, last_flat=rest, end_flat=still)
            if strip_end_start_slot == "reset":
                child = replace(child, first_up=C, start_up=False)
            if strip_end_end_slot == "reset":
                child = replace(child, last_down=D)
            eqs.append(("step", v, visit(child), 1))
        elif st.start_up and st.end_down:
            # strip the forced outer up/down arch
            cup, sup = _shift(st.first_up)
            cdn, sdn = _shift(st.last_down)
            child = RunState(
                "h",
                cup,
                cdn,
                E if arch_flat_slots == "reset" else st.first_flat,
                E if arch_flat_slots == "reset" else st.last_flat,
                start_up=sup,
                end_down=sdn,
            )
            eqs.append(("step", v, visit(child), 2))
        elif not (st.start_up or st.end_down):
            # split on the initial run kind; empty path allowed
            up_child = replace(st, start_up=True, first_flat=E)
            flat_child = replace(st, start_flat=True)
            eqs.append(("fork", v, visit(up_child), visit(flat_child), 1))
        elif st.end_down:
            # split on the initial run kind; a down-ending path is nonempty
            up_child = replace(st, start_up=True, first_flat=E)
            flat_child = replace(st, start_flat=True)
            eqs.append(("fork", v, visit(up_child), visit(flat_child), 0))
        else:
            # up-start forced: split on the final run kind
            down_child = replace(st, end_down=True, first_flat=E)
            flat_child = replace(st, end_flat=True)
            eqs.append(("fork", v, visit(down_child), visit(flat_child), 0))

    aux = [var_of[s] for s in order if var_of[s] != ROOT]
    ring = make_ring(*reversed(aux), ROOT, BASE)
    g = gens(ring)
    x = g[BASE]

    polys = []
    case_of = {}
    for eq in eqs:
        tag, v = eq[0], eq[1]
        V = g[v]
        if tag == "step":
            _, _, w, power = eq
            p = V - (x ** power) * g[w]
        elif tag == "fork":
            _, _, w1, w2, const = eq
            p = V - g[w1] - g[w2] - const
        else:
            _, _, same, left, right = eq
            p = V - g[same] - g[left] * g[ROOT] * g[right]
        polys.append(p)
        case_of[v] = eq
    return EquationSystem(ring, polys, ROOT, dict(var_of), case_of, (C, D, E))


# state-level brute force ------------------------------------------------------

# The equation builders above encode the boundary-slot grammar; the
# functions below reimplement that grammar directly on explicit paths, so
# every generated equation can be checked as a counting identity without
# trusting any part of the symbolic machinery.


def _runs_of(path: str) -> list[tuple[str, int]]:
    return [(step, sum(1 for _ in block)) for step, block in groupby(path)]


def _departures(path: str) -> int:
    """Number of times the path leaves the axis with an up-step."""
    h = 0
    out = 0
    for step in path:
        if step == "U":
            if h == 0:
                out += 1
            h += 1
        elif step == "D":
            h -= 1
    return out


def state_admits(sets: tuple[StepSet, StepSet, StepSet], state: RunState, path: str) -> bool:
    """Does the path belong to the family the run state describes?

    The start flags force the kind of the initial run and the end flags the
    kind of the final run; the empty path therefore needs all four clear.
    The initial run answers to first_up/first_flat, the final run (when the
    path has more than one run) to last_down/last_flat, and every interior
    run to the global sets.
    """
    C, D, E = sets
    if state.kind == "H" and _departures(path) > 1:
        return False
    rs = _runs_of(path)
    if not rs:
        return not (state.start_up or state.start_flat or state.end_down or state.end_flat)
    first = rs[0]
    last = rs[-1]
    if state.start_up and first[0] != "U":
        return False
    if state.start_flat and first[0] != "F":
        return False
    if state.end_down and last[0] != "D":
        return False
    if state.end_flat and last[0] != "F":
        return False
    if first[0] == "U" and first[1] in state.first_up:
        return False
    if first[0] == "F" and first[1] in state.first_flat:
        return False
    if len(rs) > 1:
        if last[0] == "D" and last[1] in state.last_down:
            return False
        if last[0] == "F" and last[1] in state.last_flat:
            return False
    for kind, length in rs[1:-1]:
        if kind == "U" and length in C:
            return False
        if kind == "D" and length in D:
            return False
        if kind == "F" and length in E:
            return False
    return True


def state_series(sets: tuple, state: RunState, n: int) -> list[int]:
    """Counting series of the state's path family, lengths 0..n."""
    return [
        sum(1 for p in enumerate_motzkin(k) if state_admits(sets, state, p))
        for k in range(n + 1)
    ]


def _poly_on_series(p: MPoly, assign: dict[str, Series], order: int) -> Series:
    total = Series.from_values([0] * order)
    for exps, coeff in p.terms.items():
        term = Series.from_values([coeff] + [0] * (order - 1))
        for name, e in zip(p.ring, exps):
            for _ in range(e):
                term = term * assign[name]
        total = total + term
    return total


def audit_system(system: EquationSystem, n: int = 8) -> list[str]:
    """Variables whose materialized equation fails as a counting identity.

    Every state variable is replaced by the brute-force series of its state
    (lengths 0..n) and each polynomial is evaluated; a sound construction
    returns the empty list.  Works for both grammars.
    """
    order = n + 1
    x = Series.from_values([0, 1] + [0] * (order - 2)) if order > 1 else Series.from_values([0])
    assign: dict[str, Series] = {BASE: x}
    for state, name in system.var_of.items():
        if isinstance(state, PVState):
            spec = RestrictionSpec(peaks=state.peaks, valleys=state.valleys)
            values = oracle_sequence(spec, n)
        else:
            values = state_series(system.sets, state, n)
        assign[name] = Series.from_values(values)
    bad = []
    for name, p in zip(system.case_of, system.polys):
        if not _poly_on_series(p, assign, order).is_zero():
            bad.append(name)
    return bad


def iterate_series(system: EquationSystem, n: int) -> list:
    """Root coefficients 0..n obtained by fixpoint iteration of the rules.

    Independent of elimination and of the brute-force state oracle: the
    run-grammar rules are evaluated as truncated series until every
    variable stabilizes.  Weight-zero rule chains terminate, so each
    sweep is monotone and the fixpoint is reached in finitely many
    rounds.  Only run systems carry rule tuples; peak/valley systems
    raise.
    """
    rules = list(system.case_of.values())
    if not all(isinstance(r, tuple) for r in rules):
        raise SystemBuildError("series iteration needs a run-grammar system")
    order = n + 1
    zero = Series.from_values([0] * order)
    one = Series.from_values([1] + [0] * (n))
    g = {name: zero for name in system.case_of}
    for round_ in range(4 * order + 8):
        changed = False
        for rule in rules:
            kind, v = rule[0], rule[1]
            if kind == "step":
                new = g[rule[2]].shift(rule[3])
            elif kind == "fork":
                new = g[rule[2]] + g[rule[3]]
                if rule[4]:
                    new = new + one
            else:
                new = g[rule[2]] + g[rule[3]] * g[system.root] * g[rule[4]]
            if new.coeffs != g[v].coeffs:
                g[v] = new
                changed = True
        if not changed:
            return list(g[system.root].coeffs)
    raise SystemBuildError("series iteration did not stabilize")


# reference series ------------------------------------------------------------


def reference_series(
    spec: RestrictionSpec, n: int, tables: dict[RestrictionSpec, DPTable] | None = None
) -> list[int]:
    """Counts a(0..n), routed around the DP's two unsupported cases.

    A forbidden peak height 0 excludes exactly the admissible all-flat
    paths, so those specs reduce to the relaxed spec minus a 0/1
    correction.  A forbidden valley height 0 (with no run restrictions)
    forces a single axis return, reducing to a shifted spec under a double
    geometric factor.  Anything else runs the DP directly; the rare specs
    whose reductions cycle fall back to the brute-force oracle.

    ``tables`` holds the DP table of each spec counted so far; a caller
    that passes one dict to all its calls grows one table per spec instead
    of building a new one per call.
    """
    return _reference(spec, n, set(), {} if tables is None else tables)


def _reference(spec: RestrictionSpec, n: int, seen: set, tables: dict) -> list[int]:
    key = (spec.peaks, spec.valleys, spec.up_runs, spec.down_runs, spec.flat_runs)
    runs_restricted = bool(spec.up_runs or spec.down_runs or spec.flat_runs)

    def oracle_fallback() -> list[int]:
        if n > oracle_guard():
            raise OracleGuardError(
                "this spec needs the brute-force oracle beyond its guard; "
                "raise MOTZKIN_ORACLE_GUARD to proceed"
            )
        return oracle_sequence(spec, n)

    if key in seen:
        return oracle_fallback()
    seen = seen | {key}

    if 0 in spec.peaks:
        relaxed = RestrictionSpec(
            spec.peaks.remove_zero(),
            spec.valleys,
            spec.up_runs,
            spec.down_runs,
            spec.flat_runs,
        )
        sub = _reference(relaxed, n, seen, tables)
        out = []
        for k in range(n + 1):
            flat_ok = k == 0 or k not in spec.flat_runs
            out.append(sub[k] - (1 if flat_ok else 0))
        return out

    if 0 in spec.valleys:
        if runs_restricted:
            # the single-arch reduction merges boundary flat blocks with
            # interior runs, so it is unsound under run restrictions
            return oracle_fallback()
        inner = RestrictionSpec(
            spec.peaks.decrement(), spec.valleys.remove_zero().decrement()
        )
        sub = _reference(inner, n, seen, tables)
        out = []
        for k in range(n + 1):
            total = 1  # the all-flat path
            for j in range(k - 1):
                total += (k - 1 - j) * sub[j]
            out.append(total)
        return out

    table = tables.get(spec)
    if table is None:
        table = tables[spec] = DPTable(spec)
    return [table.count(k) for k in range(n + 1)]


# solving ----------------------------------------------------------------------


def _collapse_linear_layer(system: EquationSystem) -> tuple[list[MPoly], MPoly] | None:
    """Solve the step/fork layer exactly and substitute into the splits.

    Step and fork equations are linear in the state variables with monomial
    coefficients, so together they form a square linear system over Q[x]
    whose inhomogeneous part is affine in the split variables.  Solving it
    fraction-free and clearing the shared denominator leaves one polynomial
    per split variable, mentioning only {x, root, split variables}; a much
    smaller input for the generic sweep.  Returns (polynomials, cleared
    denominator), or None when the system does not carry step/fork/split
    rule descriptors.
    """
    rules = list(system.case_of.values())
    if not rules or not all(isinstance(r, tuple) and r and r[0] in ("step", "fork", "split") for r in rules):
        return None
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


# eliminants below this degree product get an exact squarefree reduction;
# larger ones rely on monomial/denominator stripping plus factor selection
SQFREE_CAP = 60


def _consistency_error() -> RuntimeError:
    return RuntimeError(
        "eliminated polynomial does not annihilate the reference series; "
        "the generated system is inconsistent"
    )


def _certified_divisor(q: MPoly, spec: RestrictionSpec, tables: dict) -> MPoly | None:
    """Smallest guessed divisor of q that annihilates the reference series.

    Guess bounds are staged upward so a low-degree minimal polynomial inside
    a bloated eliminant is found from a short series; the certificate series
    is then sized by the accepted polynomial, not the eliminant.  Raises the
    construction-bug error if q itself fails its certificate.
    """
    max_p = q.degree(ROOT)
    max_x = q.degree(BASE)
    # geometric ladder of bounds: each stage's series stays cheap relative
    # to the next, so a low-degree answer never pays for the eliminant size
    raw = [(2, 8)]
    cap_p, cap_x = 3, 12
    while cap_p < max_p or cap_x < max_x:
        raw.append((cap_p, cap_x))
        cap_p, cap_x = cap_p + 1, max(cap_x * 3 // 2, cap_x + 4)
    raw.append((max_p, max_x))
    stages = []
    for cap_p, cap_x in raw:
        stage = (max(min(cap_p, max_p), 1), max(min(cap_x, max_x), 1))
        if stage not in stages:
            stages.append(stage)
    stages.sort()
    for cap_p, cap_x in stages:
        cfg = GuessConfig(cap_p, cap_x)
        need = cfg.min_terms() + 2 * HOLDOUT
        values = reference_series(spec, need - 1, tables)
        guess = guess_algebraic(values, cfg)
        if guess is None:
            continue
        candidate = primitive_part(guess.restrict(q.ring))
        if exact_div(q, candidate) is None:
            continue
        dp = candidate.degree(ROOT)
        dx = candidate.degree(BASE)
        length = max(2 * dp * dx + 10, max_x + 15, 30)
        s = Series.from_values(reference_series(spec, length - 1, tables))
        if not series_vanishes(q, s):
            raise _consistency_error()
        if candidate == q:
            return q
        if series_vanishes(candidate, s):
            return canonical_bivariate(candidate, ROOT, BASE)
    return None


def raw_eliminant(system: EquationSystem) -> tuple[MPoly, MPoly | None]:
    """The system's eliminant in (x, P) before any stripping or
    certification, and the denominator the linear collapse cleared (None
    if the system has no step/fork layer to collapse)."""
    collapsed = _collapse_linear_layer(system)
    if collapsed is None:
        polys, den = list(system.polys), None
    else:
        polys, den = collapsed
    return eliminate_to_root(polys, system.root, BASE), den


def solve_system(
    system: EquationSystem,
    spec: RestrictionSpec,
    tables: dict[RestrictionSpec, DPTable] | None = None,
) -> MPoly:
    """Eliminate to (x, P), certify against the reference series, and
    return the minimal certified factor (the full eliminant if no proper
    divisor is certified).  ``tables`` is shared with reference_series."""
    tables = {} if tables is None else tables
    q, den = raw_eliminant(system)
    q = canonical_bivariate(q, ROOT, BASE)
    # denominator clearing and resultants leave predictable extraneous
    # factors; strip them before sizing the certificate, and let factor
    # selection remove whatever is left (integer content first, so the
    # divisions below run on small coefficients)
    q = primitive_part(monomial_content_quotient(q, (BASE,)))
    if den is not None and not den.is_constant():
        d = den.restrict(q.ring)
        # the cleared denominator can enter to a high power; peel it with
        # squared powers so the pass count stays logarithmic
        powers = [d]
        while powers[-1].degree(BASE) * 2 <= q.degree(BASE):
            powers.append(powers[-1] * powers[-1])
        for d_pow in reversed(powers):
            while d_pow.degree(BASE) <= q.degree(BASE):
                t = exact_div(q, d_pow)
                if t is None:
                    break
                q = primitive_part(monomial_content_quotient(t, (BASE,)))
    deg_p = q.degree(ROOT)
    deg_x = q.degree(BASE)
    if deg_p * deg_x <= SQFREE_CAP:
        q = canonical_bivariate(sqfree_part(q), ROOT, BASE)
        deg_p = q.degree(ROOT)
        deg_x = q.degree(BASE)
    if deg_p > 1:
        found = _certified_divisor(q, spec, tables)
        if found is not None:
            return found
        print(
            "warning: no proper certified divisor found; result may be non-minimal",
            file=sys.stderr,
        )
    length = max(2 * deg_p * deg_x + 10, 30)
    values = reference_series(spec, length - 1, tables)
    s = Series.from_values(values)
    if not series_vanishes(q, s):
        raise _consistency_error()
    return q


def fab(peaks: StepSet, valleys: StepSet) -> MPoly:
    """Equation for paths avoiding the given peak and valley heights."""
    system = build_peak_valley_system(peaks, valleys)
    spec = RestrictionSpec(peaks=peaks, valleys=valleys)
    return solve_system(system, spec)


def fcde(up_runs: StepSet, down_runs: StepSet, flat_runs: StepSet) -> MPoly:
    """Equation for paths avoiding the given run lengths."""
    system = build_run_system(up_runs, down_runs, flat_runs)
    spec = RestrictionSpec(
        up_runs=up_runs, down_runs=down_runs, flat_runs=flat_runs
    )
    return solve_system(system, spec)
