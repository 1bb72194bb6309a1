"""Exact counting of restricted Motzkin paths and derivation of the
algebraic equation satisfied by the counting generating function."""

from .algebra import (
    MPoly,
    Series,
    make_ring,
    poly_text,
    primitive_part,
    series_solve,
    series_vanishes,
)
from .guesser import GuessConfig, guess_algebraic, verify_guess
from .numeric_dp import DPTable, motzkin_numbers, sequence
from .oracle import (
    count_restricted,
    enumerate_motzkin,
    features,
    list_restricted,
    oracle_sequence,
)
from .stepset import (
    EMPTY,
    RestrictionSpec,
    StepSet,
    StepSetError,
    format_stepset,
    parse_stepset,
)
from .symbolic import (
    EquationSystem,
    PVState,
    RunState,
    build_peak_valley_system,
    build_run_system,
    fab,
    fcde,
    reference_series,
    solve_system,
)

__version__ = "0.1.0"

__all__ = [
    "DPTable",
    "EMPTY",
    "EquationSystem",
    "GuessConfig",
    "MPoly",
    "PVState",
    "RestrictionSpec",
    "RunState",
    "Series",
    "StepSet",
    "StepSetError",
    "build_peak_valley_system",
    "build_run_system",
    "count_restricted",
    "enumerate_motzkin",
    "fab",
    "fcde",
    "features",
    "format_stepset",
    "guess_algebraic",
    "list_restricted",
    "make_ring",
    "motzkin_numbers",
    "oracle_sequence",
    "parse_stepset",
    "poly_text",
    "primitive_part",
    "reference_series",
    "sequence",
    "series_solve",
    "series_vanishes",
    "solve_system",
    "verify_guess",
]
