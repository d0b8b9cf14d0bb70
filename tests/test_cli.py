import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import permfib
from permfib import claims, oracle, permutations
from permfib.compositions import fib
from permfib.cli import TABLE_SCHEMA, main, render_tiling
from permfib.errors import ResourceLimitError
from permfib.tilings import word_to_tiling


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_theorem1_spec_invocation(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "theorem1", "--n-max", "8",
            "--m", "3,4,5", "--no-timestamp",
        )
        assert code == 0
        assert out.count("PASS") == 3

    def test_theorem4_reports_class_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "theorem4", "--n-max", "9", "--no-timestamp"
        )
        assert code == 0
        assert "classes=256" in out

    def test_prop7_compiles_a_long_padding_repetition(self, capsys):
        # b^{≤997} twice: the compiler must not recurse once per copy
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "prop7", "--m", "1000", "--n-max", "4", "--no-timestamp"
        )
        assert code == 0
        assert "PASS" in out

    def test_bound_guard_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--claim", "theorem4", "--n-max", "99")
        assert code == 2
        assert err == "usage error: theorem4: --n-max must be in 1..14, got 99\n"
        # Theorem 1 counts on an insertion automaton: its own cap, no override
        code, out, err = run_cli(capsys, "verify", "--claim", "theorem1", "--n-max", "301")
        assert (code, out) == (2, "")
        assert err == "usage error: theorem1: --n-max must be in 1..300, got 301\n"

    def test_prop6_runs_to_its_own_cap_without_the_s_n_override(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--claim", "prop6", "--n-max", "13", "--no-timestamp"
        )
        assert (code, err) == (0, "")
        assert out == "PASS  prop6  (m=3, n_max=13)\nresult: all claims pass\n"
        code, out, err = run_cli(capsys, "verify", "--claim", "prop6", "--n-max", "14")
        assert (code, out, err) == (2, "", "usage error: prop6: --n-max must be in 1..13, got 14\n")

    def test_eq1_n_max_is_bounded(self, capsys):
        """The identity sums run to 4 n_max, and their own cap is 60."""
        code, out, err = run_cli(capsys, "verify", "--claim", "eq1", "--n-max", "16")
        assert (code, out, err) == (2, "", "usage error: eq1: --n-max must be in 1..15, got 16\n")
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "eq1", "--n-max", "15", "--no-timestamp"
        )
        assert code == 0
        assert "PASS  identity-sums  (n_max=60)" in out

    def test_sweeping_claims_run_past_n_9_without_a_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "theorem2", "--n-max", "10", "--no-timestamp"
        )
        assert code == 0
        assert "PASS  theorem2  (n_max=10)" in out

    def test_theorem4_and_corollaries_run_to_their_own_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--claim", "theorem4,corollaries", "--n-max", "14", "--no-timestamp"
        )
        assert (code, err) == (0, "")
        assert "PASS  descent-uniqueness  (n=14, classes=8192)\n" in out
        assert out.endswith("PASS  corollaries  (n=14)\nresult: all claims pass\n")
        for claim in "theorem4", "corollaries":
            code, out, err = run_cli(capsys, "verify", "--claim", claim, "--n-max", "15")
            assert (code, out) == (2, "")
            assert err == f"usage error: {claim}: --n-max must be in 1..14, got 15\n"

    def test_gf_claims_are_checked_against_the_cap_up_front(self):
        """gf3 and gf5 sweep S_n up to their fixed x order, not --n-max, so
        the S_n cap needs no check when they are selected."""
        assert claims.GF_X_ORDER <= permutations.ENUMERATION_CAP

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--claim", "theorem2", "--n-max", "10"],
            ["table", "--kind", "counts-thm2", "--n-max", "10"],
        ],
    )
    def test_retired_unsafe_large_n_is_unrecognized(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--unsafe-large-n")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --unsafe-large-n" in err

    def test_env_cap_guard(self, capsys, monkeypatch):
        """PERMFIB_MAX_N once moved the S_n cap; nothing reads it now, so a
        cap of 5 set there changes no byte of a run past 5."""
        argv = ("verify", "--claim", "gf3,theorem4,corollaries", "--n-max", "9", "--no-timestamp")
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        monkeypatch.setenv("PERMFIB_MAX_N", "5")
        assert run_cli(capsys, *argv) == expected

    def test_unknown_claim(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--claim", "theoremX")
        assert code == 2
        assert "unknown claim" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--claim", "theorem1,theorem1", "--n-max", "3"],
                "--claim theorem1 is given more than once",
            ),
            (["--claim", "theorem1", "--m", "3,3"], "--m 3 is given more than once"),
            (["--claim", "prop6", "--m", "4 3 4"], "--m 4 is given more than once"),
            (
                ["--claim", "all,theorem1"],
                "--claim all names every claim and stands alone, got 'all,theorem1'",
            ),
            (
                ["--claim", "all,all"],
                "--claim all names every claim and stands alone, got 'all,all'",
            ),
        ],
    )
    def test_a_claim_or_m_given_twice_is_usage_error(self, capsys, argv, message):
        """Each would otherwise run, and print its reports, twice."""
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

    def test_invalid_claim_parameters_are_usage_errors(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--claim", "theorem1", "--m", "2")
        assert (code, out) == (2, "")
        assert "--m must be >= 3" in err
        # a width bound below 1 would check nothing and report PASS
        code, out, err = run_cli(capsys, "verify", "--claim", "prop8", "--k-max", "0")
        assert (code, out) == (2, "")
        assert "--k-max must be in 1..12" in err

    def test_m_read_by_no_selected_claim_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--claim", "theorem2", "--m", "4", "--n-max", "5"
        )
        assert (code, out) == (2, "")
        assert "--m is read only by" in err
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "all", "--m", "4", "--n-max", "4",
            "--no-timestamp",
        )
        assert code == 0
        assert "PASS  theorem1  (m=4, n_max=4)" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--claim", "theorem2", "--k-max", "-5", "--n-max", "3"], "--k-max is read only by"),
            (["--claim", "eq1,gf3", "--k-max", "4"], "--k-max is read only by prop8"),
            (
                ["--claim", "prop8,gf3", "--n-max", "50"],
                "--n-max is read only by theorem1, theorem2, theorem4, corollaries, "
                "prop6, prop7, eq1, gf-general",
            ),
        ],
    )
    def test_option_read_by_no_selected_claim_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_k_max_and_unsafe_large_n_need_one_selected_reader(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "prop8,theorem2", "--k-max", "3", "--n-max", "3",
            "--no-timestamp",
        )
        assert code == 0
        assert "PASS  prop8  (k_max=3," in out

    def test_n_max_needs_one_selected_reader(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "prop8,eq1", "--k-max", "3", "--n-max", "4",
            "--no-timestamp",
        )
        assert code == 0
        assert "PASS  eq1  (n_max=4)" in out

    def test_millis_measure_the_work(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "prop7", "--n-max", "9", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["millis"] > 0

    def test_json_reports_validate(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "prop8,eq1", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        for report in payload["reports"]:
            jsonschema.validate(report, oracle.REPORT_SCHEMA)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "prop8", "--format", "csv", "--no-timestamp"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "claim,pass,params"
        assert lines[1].startswith("prop8,true")

    def test_gf_claims(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "gf3,gf5", "--no-timestamp"
        )
        assert code == 0
        assert "gf3-substitution" in out
        # one substitution report, three pattern lengths for each identity
        assert out.count("PASS") == 7


class TestStats:
    def test_text_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--perm", "23568714", "--no-timestamp"
        )
        assert code == 0
        assert "ipk" in out and "ilpk" in out
        lines = dict(
            line.split(None, 1) for line in out.strip().splitlines() if " " in line
        )
        assert lines["ipk"] == "2"
        assert lines["ilpk"] == "3"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "--perm", "1 2 5 10 12 8 6 4 3 7 9 11",
            "--format", "json", "--no-timestamp",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lpk"] == 1
        assert payload["right_valley_positions"] == "9"

    def test_bad_permutation(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--perm", "1 2 2")
        assert code == 1
        assert "rearrangement" in err


class TestBiject:
    def test_composition_to_permutation(self, capsys):
        code, out, _ = run_cli(
            capsys, "biject", "--composition", "3,2,3,1", "--no-timestamp"
        )
        assert code == 0
        assert "4 5 6 3 7 2 8 9 1" in out

    def test_zero_part_is_named(self, capsys):
        code, _, err = run_cli(capsys, "biject", "--composition", "0,1")
        assert code == 1
        assert "parts must be >= 1" in err

    def test_permutation_outside_avoider_set(self, capsys):
        code, out, _ = run_cli(
            capsys, "biject", "--perm", "1 2 5 10 12 8 6 4 3 7 9 11",
            "--no-timestamp",
        )
        assert code == 0
        assert "aacbabcbcaca" in out
        assert "notice" in out

    def test_not_n_shaped_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "biject", "--perm", "1 2 3")
        assert code == 1
        assert "lpk != 1" in err

    def test_word_segmentation(self, capsys):
        code, out, _ = run_cli(
            capsys, "biject", "--word", "aacbcccaaabbcac", "--no-timestamp"
        )
        assert code == 0
        assert "aac|bc|c|c|aaab|bc|ac" in out
        assert "+" in out  # the ASCII rendering

    def test_full_word_chain(self, capsys):
        code, out, _ = run_cli(
            capsys, "biject", "--word", "aacbcccaaabbcacaaccc", "--no-timestamp"
        )
        assert code == 0
        assert "split_j" in out and "3" in out
        assert "split_k" in out and "15" in out
        assert "1 2 8 9 10 14 16 17 12 11 4 3 5 6 7 13 15 18 19 20" in out

    def test_unhandled_word(self, capsys):
        code, _, err = run_cli(capsys, "biject", "--word", "bbb")
        assert code == 1
        assert err == (
            "error: 'bbb' is not a block word, a full avoiding block word, or a core word\n"
        )

    def test_output_file_holds_the_tiling_picture(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        argv = ("biject", "--word", "aac", "--no-timestamp")
        code, out, _ = run_cli(capsys, *argv, "--output", str(target))
        assert (code, out) == (0, "")
        assert "+---+" in target.read_text()
        _, stdout, _ = run_cli(capsys, *argv)
        assert target.read_text() == stdout

    def test_csv_quotes_a_cell_holding_commas(self, capsys):
        code, out, _ = run_cli(
            capsys, "biject", "--word", "aacbbaca", "--format", "csv", "--no-timestamp"
        )
        assert code == 0
        records = list(csv.reader(out.splitlines()))
        assert all(len(record) == 2 for record in records)
        assert records[-1][0] == "notice" and "'bba', 'bbb'" in records[-1][1]

    def test_exactly_one_input_required(self, capsys):
        code, _, _ = run_cli(capsys, "biject")
        assert code == 2


class TestTable:
    def test_counts_thm2_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "counts-thm2", "--n-max", "6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,count,closed_form"
        counts = [line.split(",")[1] for line in lines[1:]]
        assert counts == ["0", "1", "4", "13", "37", "101"]

    def test_counts_past_n_9_need_no_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "counts-thm2", "--n-max", "10", "--format", "json"
        )
        assert code == 0
        expected = fib(2, 9) * fib(2, 10) - 5
        assert json.loads(out)["rows"][-1] == [10, expected, expected]

    def test_descent_matrix_bound_is_the_oracles(self, capsys):
        with pytest.raises(ResourceLimitError) as refused:
            oracle.descent_pair_matrix(9)
        code, out, err = run_cli(capsys, "table", "--kind", "descent-matrix", "--n-max", "9")
        assert (code, out, err) == (2, "", f"error: {refused.value}\n")

    def test_m_is_parsed_only_by_kinds_that_read_it(self, capsys):
        code, _, err = run_cli(capsys, "table", "--kind", "fib", "--m", "x", "--n-max", "3")
        assert (code, err) == (2, "usage error: --kind fib does not read --m\n")
        code, _, err = run_cli(capsys, "table", "--kind", "gf-coeffs", "--m", "x")
        assert code == 2
        assert "comma list of integers" in err

    def test_fib_row_with_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "fib", "--order", "2", "--n-max", "10",
            "--no-timestamp",
        )
        assert code == 0
        assert "note:" in out
        assert "89" in out  # value at n = 10

    def test_gf_coeffs(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "gf-coeffs", "--m", "4", "--order", "10",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,coefficient"
        assert lines[3] == "2,1"
        assert lines[4] == "3,5"

    def test_descent_matrix_csv_has_no_stray_commas(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "descent-matrix", "--n-max", "4",
            "--format", "csv",
        )
        assert code == 0
        for line in out.strip().splitlines():
            assert line.count(",") == 2

    def test_table_json_validates(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "fib", "--n-max", "5", "--format", "json",
            "--no-timestamp",
        )
        assert code == 0
        jsonschema.validate(json.loads(out), TABLE_SCHEMA)

    def test_unknown_kind_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--kind", "bogus")
        assert code == 2

    def test_negative_sizes_are_rejected(self, capsys):
        code, out, err = run_cli(capsys, "table", "--kind", "fib", "--n-max", "-5")
        assert (code, out) == (2, "")
        assert "--n-max must be >= 0" in err
        code, out, err = run_cli(capsys, "table", "--kind", "gf-coeffs", "--order", "-2")
        assert (code, out) == (2, "")
        assert "order must be >= 0" in err

    def test_fib_n_max_is_bounded_by_the_series_cap(self, capsys):
        code, out, err = run_cli(capsys, "table", "--kind", "fib", "--n-max", "5001")
        assert (code, out, err) == (
            2, "", "usage error: --kind fib: --n-max must be <= 5000, got 5001\n"
        )
        code, out, _ = run_cli(
            capsys, "table", "--kind", "fib", "--n-max", "5000", "--format", "csv",
            "--no-timestamp",
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("5000,")

    @pytest.mark.parametrize("kind", ["counts-thm1", "counts-thm2", "descent-matrix"])
    def test_n_max_zero_is_a_usage_error(self, capsys, kind):
        code, out, err = run_cli(capsys, "table", "--kind", kind, "--n-max", "0")
        assert (code, out) == (2, "")
        assert "--n-max must be >= 1" in err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "counts-thm2", "--m", "4"], "--kind counts-thm2 does not read --m"),
            (
                ["--kind", "descent-matrix", "--order", "5"],
                "--kind descent-matrix does not read --order",
            ),
            (["--kind", "counts-thm1", "--order", "3"], "--kind counts-thm1 does not read --order"),
            (["--kind", "gf-coeffs", "--m", "3,4"], "--kind gf-coeffs reads one --m, got '3,4'"),
            (["--kind", "gf-coeffs", "--m", "4,4"], "--m 4 is given more than once"),
            (["--kind", "counts-thm1", "--m", "3,4,3"], "--m 3 is given more than once"),
        ],
    )
    def test_options_the_kind_does_not_read_are_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "table", *argv, "--n-max", "3")
        assert (code, out, err) == (2, "", f"usage error: {message}\n")


class TestSeriesCommand:
    def test_m_is_rejected_where_unread_and_reported_where_read(self, capsys):
        code, out, err = run_cli(
            capsys, "series", "--kind", "substitution-inverse", "--m", "7", "--order", "2",
        )
        assert (code, out) == (2, "")
        assert err == "usage error: --kind substitution-inverse does not read --m\n"
        for kind, m in ("substitution-inverse", None), ("fib-ogf", 3), ("ilpk-ogf", 5):
            argv = ["--m", str(m)] if m is not None else []
            code, out, _ = run_cli(
                capsys, "series", "--kind", kind, *argv, "--order", "2", "--format", "json",
            )
            assert code == 0
            assert json.loads(out).get("m") == m

    def test_substitution_inverse_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--kind", "substitution-inverse", "--order", "3",
            "--no-timestamp",
        )
        assert code == 0
        assert "0 + 1/4*t + 1/8*t^2 + 5/64*t^3" in out

    def test_csv_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--kind", "fib-ogf", "--m", "3", "--order", "6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,coefficient"
        assert [line.split(",")[1] for line in lines[1:]] == [
            "1", "1", "2", "3", "5", "8", "13",
        ]

    def test_negative_order_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "series", "--kind", "ilpk-ogf", "--order", "-3")
        assert (code, out) == (2, "")
        assert "order must be >= 0" in err

    @pytest.mark.parametrize(
        "command, kind, least",
        [
            ("table", "fib", 1),
            ("table", "gf-coeffs", 0),
            ("series", "substitution-inverse", 1),
            ("series", "fib-ogf", 0),
            ("series", "ilpk-ogf", 0),
        ],
    )
    def test_order_below_its_least_is_a_usage_error(self, capsys, command, kind, least):
        code, out, err = run_cli(capsys, command, "--kind", kind, "--order", str(least - 1))
        assert (code, out) == (2, "")
        assert err == f"usage error: --kind {kind}: --order must be >= {least}, got {least - 1}\n"
        code, out, err = run_cli(capsys, command, "--kind", kind, "--order", str(least))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "--kind", "ilpk-ogf"],
            ["series", "--kind", "fib-ogf"],
            ["series", "--kind", "substitution-inverse"],
            ["table", "--kind", "gf-coeffs"],
        ],
    )
    def test_order_above_the_cap_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--order", "5001")
        assert (code, out) == (2, "")
        assert err == "error: series order 5001 exceeds the cap 5000\n"

    @pytest.mark.parametrize(
        "argv, low",
        [
            (["table", "--kind", "gf-coeffs", "--n-max", "3"], 3),
            (["table", "--kind", "counts-thm1", "--n-max", "3"], 3),
            (["series", "--kind", "ilpk-ogf"], 3),
            (["series", "--kind", "fib-ogf"], 2),
        ],
    )
    def test_m_below_the_domain_is_a_usage_error(self, capsys, argv, low):
        code, out, err = run_cli(capsys, *argv, "--m", str(low - 1))
        assert (code, out) == (2, "")
        assert err == f"usage error: --kind {argv[2]}: --m must be >= {low}, got {low - 1}\n"
        code, out, err = run_cli(capsys, *argv, "--m", str(low))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "kind, expected", [("fib-ogf", ["1", "1", "2", "4"]), ("ilpk-ogf", ["0", "0", "1", "5"])]
    )
    def test_work_does_not_grow_with_m(self, capsys, kind, expected):
        # The x^m terms lie beyond the order, leaving 1/(1-2x) and
        # x^2/((1-x)^2 (1-3x)); a list of length m would need gigabytes.
        code, out, err = run_cli(
            capsys, "series", "--kind", kind, "--m", "1000000000", "--order", "3",
            "--format", "csv",
        )
        assert (code, err) == (0, "")
        assert [row[1] for row in csv.reader(io.StringIO(out))][1:] == expected

    def test_order_at_the_cap_is_printed(self, capsys):
        code, out, err = run_cli(
            capsys, "series", "--kind", "ilpk-ogf", "--order", "5000", "--format", "csv"
        )
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 5002
        assert rows[-1] == ["5000", str(fib(2, 4999) * fib(2, 5000) - 2500)]


class TestDeterminismAndOutput:
    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(
            capsys, "verify", "--claim", "prop8,gf3", "--format", "json",
            "--no-timestamp",
        )
        _, second, _ = run_cli(
            capsys, "verify", "--claim", "prop8,gf3", "--format", "json",
            "--no-timestamp",
        )
        assert first == second

    def test_timestamp_present_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--claim", "prop8", "--format", "json")
        payload = json.loads(out)
        assert "timestamp" in payload

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "table", "--kind", "fib", "--n-max", "4", "--format", "csv",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,value")

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run_cli(
            capsys, "verify", "--n-max", "3", "--no-timestamp", "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"usage error: cannot write --output {target}: ")
        assert not target.parent.exists()


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "permfib", "verify", "--claim", "prop8", "--no-timestamp"],
        cwd=Path(permfib.__file__).resolve().parents[1],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_render_tiling_shape():
    # aac: top row monomino+domino, bottom row domino+monomino
    rendered = render_tiling(word_to_tiling("aac"))
    lines = rendered.splitlines()
    assert lines == [
        "+---+-------+",
        "|   |       |",
        "+---+---+---+",
        "|       |   |",
        "+-------+---+",
    ]
