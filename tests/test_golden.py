"""Byte-identical ``--no-timestamp`` CLI output against fixed golden files.

Refactors must leave these outputs unchanged; edit a golden file only for a
deliberate change of output, never to make this test pass."""

from pathlib import Path

import pytest

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
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_file(name, capsys):
    assert main(COMMANDS[name].split() + ["--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
