"""Command-line front end.

Subcommands: seq (DP counting), oracle (brute-force counts or path lists),
guess (sequence to polynomial), fab / fcde (symbolic derivation), verify
(cross-route agreement report).  Set-valued flags take literals like
``{1,4}`` or ``{2*r+1}``.  Exit codes: 0 success, 1 usage, parse or
domain error (a set literal or a grammar past its size limit), 2 internal
inconsistency, 3 nothing found (no guess within the bounds, or no equation
proved by the route).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import MPoly, Series, poly_json_terms, poly_text, series_vanishes
from .guesser import GuessConfig, guess_algebraic, verify_guess
from .numeric_dp import DPTable, sequence
from .oracle import OracleGuardError, list_restricted, oracle_guard, oracle_sequence
from .stepset import EMPTY, RestrictionSpec, StepSetError, parse_stepset
from .symbolic import (
    RELATION_MAX_X,
    ROUTE_LAST_STAGE,
    build_peak_valley_system,
    build_run_system,
    fab,
    fcde,
    iterate_series,
    reference_series,
    solve_system,
)

SCHEMA = "motzkin-autocount/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_NOT_FOUND = 3


def _set_arg(text: str):
    try:
        return parse_stepset(text)
    except StepSetError as e:
        raise argparse.ArgumentTypeError(str(e))


def _add_set_flags(p: argparse.ArgumentParser, names: str) -> None:
    help_of = {
        "A": "forbidden peak heights",
        "B": "forbidden valley heights",
        "C": "forbidden upward-run lengths",
        "D": "forbidden downward-run lengths",
        "E": "forbidden flat-run lengths",
    }
    for name in names:
        p.add_argument(
            f"--{name}", type=_set_arg, default=EMPTY, metavar="SET",
            help=f"{help_of[name]}, e.g. {{1,4}} or {{2*r+1}} (default empty)",
        )


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache  # once per process: a build takes 1.4 ms or more
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkin-autocount",
        description="Count restricted Motzkin paths and derive the algebraic "
        "equation satisfied by their generating function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="counting sequence a(0..N) via dynamic programming")
    _add_set_flags(p, "ABCDE")
    p.add_argument("--N", type=int, required=True)
    _add_format_flag(p)

    p = sub.add_parser("oracle", help="brute-force counts (or path list with --paths)")
    _add_set_flags(p, "ABCDE")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--paths", action="store_true", help="list the length-N paths")
    _add_format_flag(p)

    p = sub.add_parser("guess", help="guess a polynomial equation from the sequence")
    _add_set_flags(p, "ABCDE")
    p.add_argument("--N", type=int, required=True, help="number of terms to generate")
    p.add_argument("--maxp", type=int, default=3, help="max degree in P (default 3)")
    p.add_argument("--maxx", type=int, default=4, help="max degree in x (default 4)")
    _add_format_flag(p)

    p = sub.add_parser("fab", help="symbolic equation for peak/valley avoidance")
    _add_set_flags(p, "AB")
    _add_format_flag(p)

    p = sub.add_parser("fcde", help="symbolic equation for run-length avoidance")
    _add_set_flags(p, "CDE")
    _add_format_flag(p)

    p = sub.add_parser("verify", help="cross-check oracle, DP, and symbolic routes")
    _add_set_flags(p, "ABCDE")
    p.add_argument("--N", type=int, required=True)
    _add_format_flag(p)

    return parser


def _spec_of(args) -> RestrictionSpec:
    return RestrictionSpec(
        peaks=getattr(args, "A", EMPTY),
        valleys=getattr(args, "B", EMPTY),
        up_runs=getattr(args, "C", EMPTY),
        down_runs=getattr(args, "D", EMPTY),
        flat_runs=getattr(args, "E", EMPTY),
    )


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def _poly_payload(F: MPoly) -> dict:
    return {"text": poly_text(F), "terms": poly_json_terms(F)}


def _not_found(args) -> int:
    if args.format == "json":
        _emit_json({"command": args.command, "spec": _spec_of(args).describe(),
                    "found": False})
    else:
        print("NOT_FOUND")
    return EXIT_NOT_FOUND


def _cmd_seq(args) -> int:
    if args.N < 0:
        raise ValueError("N must be nonnegative")
    spec = _spec_of(args)
    values = sequence(spec, args.N)
    if args.format == "json":
        _emit_json({"command": "seq", "spec": spec.describe(), "N": args.N,
                    "values": values})
    else:
        print(",".join(str(v) for v in values))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.N < 0:
        raise ValueError("N must be nonnegative")
    spec = _spec_of(args)
    if args.paths:
        paths = list_restricted(args.N, spec)
        if args.format == "json":
            _emit_json({"command": "oracle", "spec": spec.describe(),
                        "N": args.N, "paths": paths})
        else:
            for p in paths:
                print(p)
        return EXIT_OK
    counts = oracle_sequence(spec, args.N)
    if args.format == "json":
        _emit_json({"command": "oracle", "spec": spec.describe(), "N": args.N,
                    "counts": counts})
    else:
        print(",".join(str(v) for v in counts))
    return EXIT_OK


def _cmd_guess(args) -> int:
    if args.N < 0:
        raise ValueError("N must be nonnegative")
    spec = _spec_of(args)
    cfg = GuessConfig(args.maxp, args.maxx)
    cfg.require_terms(args.N + 1)  # before the DP builds a single term
    tables: dict = {}
    values = reference_series(spec, args.N, tables)
    F = guess_algebraic(values, cfg)
    if F is not None and not verify_guess(F, spec, 10, tables, fitted=len(values)):
        print("note: a candidate fit the prefix but failed on fresh terms",
              file=sys.stderr)
        F = None
    if F is None:
        return _not_found(args)
    if args.format == "json":
        _emit_json({"command": "guess", "spec": spec.describe(), "found": True,
                    "polynomial": _poly_payload(F)})
    else:
        print(poly_text(F))
    return EXIT_OK


def _cmd_derive(args) -> int:
    if args.command == "fab":
        F = fab(args.A, args.B)
    else:
        F = fcde(args.C, args.D, args.E)
    if F is None:
        print(f"note: no equation proved within ROUTE_LAST_STAGE = {ROUTE_LAST_STAGE} "
              f"and RELATION_MAX_X = {RELATION_MAX_X}", file=sys.stderr)
        return _not_found(args)
    if args.format == "json":
        _emit_json({"command": args.command, "spec": _spec_of(args).describe(),
                    "polynomial": _poly_payload(F)})
    else:
        print(poly_text(F))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.N < 0:
        raise ValueError("N must be nonnegative")
    spec = _spec_of(args)
    pv = bool(spec.peaks or spec.valleys)
    runs = bool(spec.up_runs or spec.down_runs or spec.flat_runs)
    table = DPTable(spec)

    top = min(args.N, oracle_guard())
    agree = oracle_sequence(spec, top) == [table.count(n) for n in range(top + 1)]
    first = "PASS" if agree else "FAIL"

    F = None
    tables = {spec: table}
    if not (pv and runs):  # the symbolic engine handles one grammar at a time
        if runs:
            system = build_run_system(spec.up_runs, spec.down_runs, spec.flat_runs)
        else:
            system = build_peak_valley_system(spec.peaks, spec.valleys)
        F = solve_system(system, spec, tables)
    if F is None:  # a mixed spec, or a run spec the route proves nothing for
        second = "SKIP"
    else:
        need = max(args.N + 1, F.degree("P") + 10)
        # run systems are tested on the series of their grammar rules, a
        # route apart from the DP that F was guessed and certified on;
        # the continued fraction of a peak/valley system reads no series
        # but a few terms to pick a linear factor, so it keeps the DP series
        if runs:
            values = iterate_series(system, need - 1)
        else:
            values = reference_series(spec, need - 1, tables)
        second = "PASS" if series_vanishes(F, Series.from_values(values)) else "FAIL"

    report = f"{first},{second}"
    if args.format == "json":
        _emit_json({"command": "verify", "spec": spec.describe(), "N": args.N,
                    "checks": {"dp_vs_oracle": first, "symbolic_series": second}})
    else:
        print(report)
    return EXIT_INTERNAL if "FAIL" in report else EXIT_OK


_DISPATCH = {
    "seq": _cmd_seq,
    "oracle": _cmd_oracle,
    "guess": _cmd_guess,
    "fab": _cmd_derive,
    "fcde": _cmd_derive,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except (StepSetError, OracleGuardError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
