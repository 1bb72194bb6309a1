"""Span tracer that instruments the package from outside.

The tracer patches module attributes and class attributes of an already
imported ``motzkin_autocount``; it never edits the package's files.  A
function bound elsewhere with ``from .algebra import exact_div`` is a second
reference to the same object, so every loaded package module is scanned and
each attribute that *is* the original is replaced.  Functions that import a
name when they are called (``verify_guess`` reads ``reference_series`` from
``symbolic`` at call time) then see the wrapper too.  ``uninstall`` puts the
original objects back, so a later untraced call runs the unmodified code.

Spans are kept in memory as ``(name, start, end, parent, job)`` tuples.  A
call that re-enters a span of the same name (recursion) is counted but gets
no span of its own, so summing a name's spans never counts time twice.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter

PACKAGE = "motzkin_autocount"

# (module, attribute, span name): functions timed as spans
SPANS = [
    ("cli", "main", "cli.main"),
    ("algebra", "eliminate_to_root", "algebra.eliminate"),
    ("algebra", "exact_div", "algebra.exact_div"),
    ("algebra", "linear_solve", "algebra.linear_solve"),
    ("algebra", "sqfree_part", "algebra.sqfree"),
    ("algebra", "series_vanishes", "algebra.series_vanishes"),
    ("algebra", "groebner_reduced", "algebra.groebner"),
    ("symbolic", "build_peak_valley_system", "symbolic.grammar"),
    ("symbolic", "build_run_system", "symbolic.grammar"),
    ("symbolic", "reference_series", "symbolic.reference"),
    ("symbolic", "solve_system", "symbolic.solve"),
    ("guesser", "guess_algebraic", "guesser.guess"),
    ("guesser", "verify_guess", "guesser.verify"),
    ("oracle", "oracle_sequence", "oracle.sequence"),
    ("oracle", "count_restricted", "oracle.sequence"),
    ("oracle", "list_restricted", "oracle.sequence"),
]


class Tracer:
    """Spans and counters for one traced pass over a job list."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        # DP tables alive in this pass: table -> index into self._tables
        self._table_index: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._tables: list[list] = []  # [spec, rows requested]

    # patching -----------------------------------------------------------

    def _module(self, name: str):
        return sys.modules.get(f"{PACKAGE}.{name}")

    def _replace(self, original, wrapped, owners) -> None:
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrapped)

    @staticmethod
    def _package_modules() -> list:
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and name.split(".")[0] == PACKAGE
        ]

    def install(self) -> None:
        """Wrap every traced function and counted method; see module doc."""
        modules = self._package_modules()
        for mod_name, attr, span in SPANS:
            fn = getattr(self._module(mod_name), attr, None)
            if fn is not None:
                self._replace(fn, self._span(fn, span, _AFTER.get(span)), modules)
        admits = getattr(self._module("oracle"), "admits", None)
        if admits is not None:
            self._replace(admits, self._counter(admits, "oracle.paths_scanned"), modules)
        self._wrap_method("algebra", "MPoly", "__mul__", self._count_mul)
        self._wrap_method("stepset", "StepSet", "__contains__",
                          lambda fn: self._counter(fn, "stepset.contains_calls"))
        self._wrap_method("numeric_dp", "DPTable", "__init__", self._table_init)
        self._wrap_method("numeric_dp", "DPTable", "ensure",
                          lambda fn: self._span(fn, "numeric_dp.table", self._table_rows))

    def _wrap_method(self, mod_name: str, cls_name: str, attr: str, make) -> None:
        # operators and methods are looked up on the class; aliases such as
        # MPoly.__rmul__ = __mul__ are the same object and get wrapped too
        cls = getattr(self._module(mod_name), cls_name, None)
        fn = vars(cls).get(attr) if cls is not None else None
        if fn is not None:
            self._replace(fn, make(fn), [cls])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # wrappers -----------------------------------------------------------

    def _span(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            if tracer._active[name]:
                result = fn(*args, **kwargs)
            else:
                parent = tracer._stack[-1] if tracer._stack else None
                index = len(tracer.spans)
                tracer.spans.append((name, 0.0, 0.0, parent, tracer.job))
                tracer._stack.append(index)
                tracer._active[name] += 1
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._active[name] -= 1
                    tracer._stack.pop()
                    tracer.spans[index] = (name, start, end, parent, tracer.job)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(self_, other):
            counts["algebra.mul_calls"] += 1
            other_terms = getattr(other, "terms", None)
            counts["algebra.mul_term_pairs"] += len(self_.terms) * (
                len(other_terms) if other_terms is not None else 1
            )
            return fn(self_, other)

        return wrapper

    def _table_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_, spec, *args, **kwargs):
            fn(self_, spec, *args, **kwargs)
            tracer.counts["numeric_dp.tables_built"] += 1
            tracer._table_index[self_] = len(tracer._tables)
            tracer._tables.append([spec, 0])

        return wrapper

    @staticmethod
    def _table_rows(tracer, args, kwargs, result) -> None:
        table, m = args[0], args[1]
        index = tracer._table_index.get(table)
        if index is not None:
            entry = tracer._tables[index]
            entry[1] = max(entry[1], m + 1)

    # results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        total: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
        own: Counter = Counter()
        for (name, *_), t in zip(self.spans, self.self_times()):
            own[name] += t
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        rows_requested = sum(rows for _, rows in self._tables)
        longest: dict = {}
        for spec, rows in self._tables:
            longest[spec] = max(longest.get(spec, 0), rows)
        return {
            "algebra.eliminate_s": total["algebra.eliminate"],
            "algebra.mul_calls": c["algebra.mul_calls"],
            "algebra.mul_term_pairs": c["algebra.mul_term_pairs"],
            "algebra.exact_div_s": total["algebra.exact_div"],
            "algebra.exact_div_calls": c["algebra.exact_div.calls"],
            "algebra.exact_div_hit_ratio": ratio(
                c["algebra.exact_div.hits"], c["algebra.exact_div.calls"]
            ),
            "algebra.linear_solve_s": total["algebra.linear_solve"],
            "algebra.sqfree_s": total["algebra.sqfree"],
            "algebra.series_vanishes_s": total["algebra.series_vanishes"],
            "algebra.groebner_calls": c["algebra.groebner.calls"],
            "algebra.eliminant_deg_p": c["algebra.eliminant_deg_p"],
            "algebra.eliminant_deg_x": c["algebra.eliminant_deg_x"],
            "numeric_dp.table_s": total["numeric_dp.table"],
            "numeric_dp.tables_built": c["numeric_dp.tables_built"],
            "numeric_dp.rows_requested": rows_requested,
            "numeric_dp.reuse_ratio": ratio(sum(longest.values()), rows_requested),
            "stepset.contains_calls": c["stepset.contains_calls"],
            "guesser.guess_s": total["guesser.guess"],
            "guesser.guess_calls": c["guesser.guess.calls"],
            "guesser.found_ratio": ratio(c["guesser.found"], c["guesser.guess.calls"]),
            "guesser.verify_s": total["guesser.verify"],
            "symbolic.grammar_s": total["symbolic.grammar"],
            "symbolic.states": c["symbolic.states"],
            "symbolic.reference_s": total["symbolic.reference"],
            "symbolic.reference_calls": c["symbolic.reference.calls"],
            "symbolic.solve_s": total["symbolic.solve"],
            "symbolic.solve_self_s": own["symbolic.solve"],
            "oracle.sequence_s": total["oracle.sequence"],
            "oracle.calls": c["oracle.sequence.calls"],
            "oracle.paths_scanned": c["oracle.paths_scanned"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": own["cli.main"],
        }


# hooks run after a traced call returns: (tracer, args, kwargs, result)


def _after_eliminate(tracer, args, kwargs, result) -> None:
    tracer.counts["algebra.eliminant_deg_p"] += max(result.degree("P"), 0)
    tracer.counts["algebra.eliminant_deg_x"] += max(result.degree("x"), 0)


def _after_exact_div(tracer, args, kwargs, result) -> None:
    tracer.counts["algebra.exact_div.hits"] += result is not None


def _after_guess(tracer, args, kwargs, result) -> None:
    tracer.counts["guesser.found"] += result is not None


def _after_grammar(tracer, args, kwargs, result) -> None:
    tracer.counts["symbolic.states"] += result.size()


_AFTER = {
    "algebra.eliminate": _after_eliminate,
    "algebra.exact_div": _after_exact_div,
    "guesser.guess": _after_guess,
    "symbolic.grammar": _after_grammar,
}
