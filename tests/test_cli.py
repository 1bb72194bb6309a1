"""Command-line interface: golden stdout, JSON payloads, exit codes."""

import json

import pytest

from motzkin_autocount import (
    cli,
    enumerate_motzkin,
    numeric_dp,
    symbolic,
)
from motzkin_autocount.oracle import class_tables

MOTZKIN_LINE = "1,1,2,4,9,21,51,127,323,835,2188"


def test_seq_unrestricted(run_cli):
    rc, out, err = run_cli("seq", "--N", "10")
    assert (rc, err) == (0, "")
    assert out == MOTZKIN_LINE + "\n"


def test_seq_run_avoidance(run_cli):
    rc, out, _ = run_cli("seq", "--C", "{1}", "--D", "{1}", "--E", "{1}",
                         "--N", "11")
    assert rc == 0
    assert out == "1,0,1,1,2,1,5,4,12,13,34,38\n"


def test_seq_odd_heights(run_cli):
    rc, out, _ = run_cli("seq", "--A", "{2*r+1}", "--B", "{2*r+1}", "--N", "11")
    assert rc == 0
    assert out == "1,1,1,1,2,6,16,36,73,145,301,661\n"


def test_seq_dyck_reduction(run_cli):
    rc, out, _ = run_cli("seq", "--E", "{r+1}", "--N", "30")
    assert rc == 0
    values = [int(v) for v in out.strip().split(",")]
    assert values[0::2] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796,
                            58786, 208012, 742900, 2674440, 9694845]
    assert set(values[1::2]) == {0}


def test_seq_json_payload(run_cli):
    rc, out, _ = run_cli("seq", "--N", "6", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == "motzkin-autocount/1"
    assert payload["command"] == "seq"
    assert payload["values"] == [1, 1, 2, 4, 9, 21, 51]
    assert payload["spec"]["peaks"] == "{}"


def test_seq_counts_height_zero_specs(run_cli):
    # only the flat-only paths peak at height 0
    rc, out, err = run_cli("seq", "--A", "{0}", "--N", "8")
    assert (rc, err) == (0, "")
    assert out == "0,0,1,3,8,20,50,126,322\n"


def test_seq_rejects_negative_length(run_cli):
    rc, _, err = run_cli("seq", "--N", "-3")
    assert rc == 1 and err.startswith("error:")


def test_oracle_counts(run_cli):
    rc, out, _ = run_cli("oracle", "--N", "10")
    assert rc == 0
    assert out == MOTZKIN_LINE + "\n"


def test_oracle_path_listing(run_cli):
    rc, out, _ = run_cli("oracle", "--N", "5", "--A", "{2*r+1}",
                         "--B", "{2*r+1}", "--paths")
    assert rc == 0
    assert out.splitlines() == ["UUDDF", "UUDFD", "UUFDD", "UFUDD",
                                "FUUDD", "FFFFF"]


def test_oracle_json_paths(run_cli):
    rc, out, _ = run_cli("oracle", "--N", "2", "--paths", "--format", "json")
    payload = json.loads(out)
    assert (rc, payload["paths"]) == (0, ["UD", "FF"])


def test_oracle_respects_the_guard(run_cli, monkeypatch, refuse_paths):
    monkeypatch.setenv("MOTZKIN_ORACLE_GUARD", "8")
    before = enumerate_motzkin.cache_info(), class_tables.cache_info()
    rc, _, err = run_cli("oracle", "--N", "25")
    assert rc == 1
    assert "MOTZKIN_ORACLE_GUARD" in err
    # refused before enumerating any length or building any table
    assert (enumerate_motzkin.cache_info(), class_tables.cache_info()) == before


@pytest.mark.parametrize("guard", ["abc", "-1"])
def test_a_guard_that_is_no_nonnegative_integer_is_refused(run_cli, monkeypatch,
                                                          refuse_paths, guard):
    monkeypatch.setenv("MOTZKIN_ORACLE_GUARD", guard)
    for argv in (("verify", "--N", "3"), ("oracle", "--N", "3")):
        rc, out, err = run_cli(*argv)
        assert (rc, out) == (1, "")  # not PASS,PASS after comparing no terms
        assert err == ("error: MOTZKIN_ORACLE_GUARD must be a nonnegative integer, "
                       f"not {guard!r}\n")


def test_one_parser_serves_every_call(run_cli):
    argvs = [("seq", "--N", "x"), ("--help",), ("seq", "--N", "5")]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(*argv))
    # the parser built for the last call now serves all three
    reused = [run_cli(*argv) for argv in argvs]
    assert reused == fresh
    assert [rc for rc, _, _ in reused] == [1, 0, 0]
    assert cli.build_parser.cache_info().currsize == 1


def test_guess_motzkin(run_cli):
    rc, out, _ = run_cli("guess", "--N", "30", "--maxp", "2", "--maxx", "2")
    assert rc == 0
    assert out == "x^2*P^2 + (x-1)*P + 1\n"


def test_guess_run_spec_cubic(run_cli):
    rc, out, _ = run_cli("guess", "--D", "{1}", "--E", "{1}", "--N", "40",
                         "--maxp", "3", "--maxx", "6")
    assert rc == 0
    assert out == ("x^6*P^3 + (x^6-x^5+x^4-x^3+x^2)*P^2"
                   " + (-x^4+x^3-x^2+x-1)*P + x^2 - x + 1\n")


def test_guess_not_found_exit_code(run_cli):
    rc, out, _ = run_cli("guess", "--C", "{1,2,3}", "--N", "30",
                         "--maxp", "2", "--maxx", "2")
    assert rc == 3
    assert out == "NOT_FOUND\n"


def test_guess_is_checked_past_the_fitted_prefix(run_cli, monkeypatch):
    # Motzkin numbers with a(33) corrupted: the quadratic fits a(0..30) and
    # must be refused on the fresh terms after them
    class Corrupted(numeric_dp.DPTable):
        def counts(self, n):
            values = super().counts(max(n, 33))
            values[33] += 1
            return values[:n + 1]

    monkeypatch.setattr(cli, "DPTable", Corrupted)
    rc, out, err = run_cli("guess", "--N", "30", "--maxp", "2", "--maxx", "2")
    assert (rc, out) == (3, "NOT_FOUND\n")
    assert "failed on fresh terms" in err


def test_guess_counts_height_zero_specs_without_the_oracle(run_cli, refuse_paths):
    # 30 terms lie past the oracle's guard; the DP counts them all
    rc, out, err = run_cli("guess", "--B", "{0}", "--C", "{1}", "--N", "30")
    assert (rc, out) == (3, "NOT_FOUND\n")
    assert "error" not in err


def test_guess_insufficient_terms(run_cli, monkeypatch):
    # refused before the DP: no table is built
    def refuse(*args, **kwargs):
        raise AssertionError("DP table built for impossible bounds")

    monkeypatch.setattr(cli, "DPTable", refuse)
    rc, _, err = run_cli("guess", "--N", "6", "--maxp", "4", "--maxx", "4")
    assert rc == 1
    assert "need at least 34 terms for bounds (4,4), got 7" in err


def test_guess_counts_the_truncation_headroom(run_cli):
    # the top pair (2, 2) is tried on the n - 2 orders the truncated P^2
    # keeps, so the Motzkin equation needs 9 + 5 + 2 = 16 terms
    for N in (13, 14):
        rc, out, err = run_cli("guess", "--N", str(N), "--maxp", "2", "--maxx", "2")
        assert (rc, out) == (1, "")
        assert f"need at least 16 terms for bounds (2,2), got {N + 1}" in err
    rc, out, _ = run_cli("guess", "--N", "15", "--maxp", "2", "--maxx", "2")
    assert (rc, out) == (0, "x^2*P^2 + (x-1)*P + 1\n")


def test_fab_default_is_motzkin(run_cli):
    rc, out, _ = run_cli("fab")
    assert rc == 0
    assert out == "x^2*P^2 + (x-1)*P + 1\n"


def test_fab_finite_sets_json(run_cli, fab_goldens):
    _, _, want, _ = fab_goldens["finite_14_13"]
    rc, out, _ = run_cli("fab", "--A", "{1,4}", "--B", "{1,3}",
                         "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == "motzkin-autocount/1"
    assert payload["spec"]["peaks"] == "{1,4}"
    assert payload["polynomial"]["text"] == want
    assert payload["polynomial"]["terms"][-1]["coeff"] == "1"


def test_fcde_quintic(run_cli, fcde_goldens):
    _, _, want, _ = fcde_goldens["up_123"]
    rc, out, _ = run_cli("fcde", "--C", "{1,2,3}")
    assert rc == 0
    assert out == want + "\n"


def test_fcde_progression_sets(run_cli, fcde_goldens):
    _, _, want, _ = fcde_goldens["up_odd_flat_even"]
    rc, out, _ = run_cli("fcde", "--C", "{2*r+1}", "--E", "{2*r+2}")
    assert rc == 0
    assert out == want + "\n"


def test_fab_prints_minimal_linear_equations(run_cli):
    rc, out, err = run_cli("fab", "--A", "{r+2}", "--B", "{r+2}")
    assert (rc, out, err) == (0, "(2*x-1)*P - x + 1\n", "")
    rc, out, err = run_cli("fab", "--A", "{r}", "--B", "{r}")
    assert (rc, out, err) == (0, "P\n", "")
    rc, out, _ = run_cli("fab", "--A", "{r}", "--B", "{r}", "--format", "json")
    payload = json.loads(out)
    assert rc == 0 and sorted(payload) == ["command", "polynomial", "schema", "spec"]
    assert payload["polynomial"] == {"text": "P", "terms": [
        {"coeff": "1", "exponents": {"P": 1}}]}


# no guess up to ROUTE_LAST_STAGE: the route declines in about a second
UNPROVED = ("--C", "{3}", "--D", "{2}", "--E", "{2*r+1}")


def test_fcde_exits_3_when_nothing_is_proved(run_cli):
    rc, out, err = run_cli("fcde", *UNPROVED)
    assert (rc, out) == (3, "NOT_FOUND\n")
    assert len(err.splitlines()) == 1
    assert "ROUTE_LAST_STAGE" in err and "RELATION_MAX_X" in err
    rc, out, err = run_cli("fcde", *UNPROVED, "--format", "json")
    assert rc == 3 and len(err.splitlines()) == 1
    payload = json.loads(out)
    assert payload["schema"] == "motzkin-autocount/1"
    assert (payload["command"], payload["found"]) == ("fcde", False)
    assert payload["spec"]["up_runs"] == "{3}"
    assert "polynomial" not in payload


def test_verify_skips_the_symbolic_check_when_nothing_is_proved(run_cli):
    rc, out, _ = run_cli("verify", *UNPROVED, "--N", "10")
    assert (rc, out) == (0, "PASS,SKIP\n")


def test_verify_unrestricted(run_cli):
    rc, out, _ = run_cli("verify", "--N", "10")
    assert (rc, out) == (0, "PASS,PASS\n")


def test_verify_height_zero_valleys(run_cli):
    rc, out, _ = run_cli("verify", "--B", "{0}", "--N", "10")
    assert (rc, out) == (0, "PASS,PASS\n")


def test_verify_odd_heights(run_cli):
    rc, out, _ = run_cli("verify", "--A", "{2*r+1}", "--B", "{2*r+1}",
                         "--N", "12")
    assert (rc, out) == (0, "PASS,PASS\n")


def test_verify_run_lengths(run_cli):
    rc, out, _ = run_cli("verify", "--C", "{1}", "--D", "{1}", "--E", "{1}",
                         "--N", "12")
    assert (rc, out) == (0, "PASS,PASS\n")


def test_verify_tests_run_systems_on_the_grammar_series(run_cli, monkeypatch):
    # the second check reads iterate_series, not the DP series that the
    # derivation already used: one wrong grammar term fails it
    iterate = cli.iterate_series

    def wrong(system, n):
        values = iterate(system, n)
        values[5] += 1
        return values

    monkeypatch.setattr(cli, "iterate_series", wrong)
    rc, out, _ = run_cli("verify", "--C", "{1,2,3}", "--N", "12")
    assert (rc, out) == (2, "PASS,FAIL\n")


def test_guess_and_verify_build_one_dp_table(run_cli, monkeypatch):
    built = []

    class CountingTable(numeric_dp.DPTable):
        def __init__(self, spec):
            built.append(spec)
            super().__init__(spec)

    monkeypatch.setattr(symbolic, "DPTable", CountingTable)
    monkeypatch.setattr(cli, "DPTable", CountingTable)
    rc, _, _ = run_cli("guess", "--D", "{1}", "--E", "{1}", "--N", "40",
                       "--maxp", "3", "--maxx", "6")
    assert rc == 0 and len(built) == 1
    built.clear()
    rc, out, _ = run_cli("verify", "--A", "{2*r+1}", "--B", "{2*r+1}", "--N", "12")
    assert (rc, out) == (0, "PASS,PASS\n") and len(built) == 1


def test_verify_mixed_spec_skips_the_symbolic_check(run_cli):
    rc, out, _ = run_cli("verify", "--A", "{1}", "--C", "{2}", "--N", "8")
    assert (rc, out) == (0, "PASS,SKIP\n")


def test_verify_reports_internal_inconsistency(run_cli, monkeypatch):
    monkeypatch.setattr(cli, "series_vanishes", lambda *a, **k: False)
    rc, out, _ = run_cli("verify", "--N", "6")
    assert rc == 2
    assert out == "PASS,FAIL\n"


def test_verify_json_check_names(run_cli):
    rc, out, _ = run_cli("verify", "--N", "6", "--format", "json")
    payload = json.loads(out)
    assert rc == 0
    assert payload["checks"] == {"dp_vs_oracle": "PASS",
                                 "symbolic_series": "PASS"}


def test_help_and_usage_exit_codes(run_cli, capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()
    rc, _, _ = run_cli("seq", "--A", "{oops}", "--N", "3")
    assert rc == 1


def test_domain_limits_exit_1(run_cli):
    # a grammar past the state cap, and set literals whose canonical form
    # would be too large, are refused as requests, not internal errors
    for args in [("fab", "--A", "{20000}"), ("fcde", "--C", "{20000}"),
                 ("verify", "--A", "{20000}", "--N", "5")]:
        rc, out, err = run_cli(*args)
        assert (rc, out) == (1, ""), args
        assert "hard cap" in err, args
    for literal in ["{10007*r+1,10009*r+2}", "{100003*r+1,100019*r+2}"]:
        rc, out, err = run_cli("seq", "--C", literal, "--N", "3")
        assert (rc, out) == (1, ""), literal
        assert "residues" in err, literal
