"""Byte-identical ``--no-timestamp`` CLI output against fixed golden files.

Refactors must leave these outputs unchanged; edit a golden file only for a
deliberate change of output, never to make this test pass."""

from pathlib import Path

import pytest

from permfib import series
from permfib.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "verify_n7.txt": "verify --n-max 7",
    "verify_n7.csv": "verify --n-max 7 --format csv",
    "verify_n7.json": "verify --n-max 7 --format json",
    "verify_sweep_claims_n8.json": (
        "verify --claim theorem1,theorem2,theorem4,corollaries,prop6,gf-general "
        "--n-max 8 --format json"
    ),
    "table_counts_thm1_n8.txt": "table --kind counts-thm1 --n-max 8",
    "table_counts_thm2_n8.txt": "table --kind counts-thm2 --n-max 8",
    "table_descent_matrix_n5.txt": "table --kind descent-matrix --n-max 5",
    "table_gf_coeffs_m4_order12.txt": "table --kind gf-coeffs --m 4 --order 12",
    "series_ilpk_ogf_order30.txt": "series --kind ilpk-ogf --order 30",
    "stats_perm_23568714.txt": "stats --perm 23568714",
    "stats_perm_23568714.csv": "stats --perm 23568714 --format csv",
    "stats_perm_23568714.json": "stats --perm 23568714 --format json",
    "biject_composition_3231.csv": "biject --composition 3,2,3,1 --format csv",
    "biject_perm_23568714.txt": "biject --perm 2,3,5,6,8,7,1,4",
    "biject_perm_23568714.json": "biject --perm 2,3,5,6,8,7,1,4 --format json",
    "biject_perm_notice_n12.txt": "biject --perm 1,2,5,10,12,8,6,4,3,7,9,11",
    "biject_word_full_n20.json": "biject --word aacbcccaaabbcacaaccc --format json",
    "biject_word_n15.txt": "biject --word aacbcccaaabbcac",
    "biject_word_n15.csv": "biject --word aacbcccaaabbcac --format csv",
    "biject_word_notice_n8.txt": "biject --word aacbbaca",
    "table_fib_n10.csv": "table --kind fib --n-max 10 --format csv",
    "table_fib_n10.json": "table --kind fib --n-max 10 --format json",
    "table_descent_matrix_n4.json": "table --kind descent-matrix --n-max 4 --format json",
    "series_substitution_inverse_order6.json": (
        "series --kind substitution-inverse --order 6 --format json"
    ),
    "series_fib_ogf_m4_order10.csv": "series --kind fib-ogf --m 4 --order 10 --format csv",
    "verify_prop8_gf3.csv": "verify --claim prop8,gf3 --format csv",
    "verify_words_n11.txt": "verify --claim prop7,prop8,eq1 --n-max 11 --m 3,4,5 --k-max 12",
    "verify_prop7_n12.txt": "verify --claim prop7 --n-max 12 --m 3,4,5,6",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_file(name, capsys):
    assert main(COMMANDS[name].split() + ["--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "name", ["series_substitution_inverse_order6.json", "series_fib_ogf_m4_order10.csv"]
)
def test_non_text_formats_render_no_text(name, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("format_series ran for a format other than text")

    monkeypatch.setattr(series, "format_series", refuse)
    test_output_matches_golden_file(name, capsys)


def test_text_format_renders_the_series_once(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return format_series(*args, **kwargs)

    format_series = series.format_series
    monkeypatch.setattr(series, "format_series", counted)
    test_output_matches_golden_file("series_ilpk_ogf_order30.txt", capsys)
    assert len(calls) == 1
