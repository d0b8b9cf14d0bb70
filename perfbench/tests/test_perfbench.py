"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``.

They run the real child interpreter on the small variant of each workload,
so they take a few seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fib(n: int) -> int:
    """f(0) = f(1) = 1, f(-1) = 0."""
    return 0 if n < 0 else workloads.fibonacci(n + 1)[n]


def core_words(k: int) -> int:
    """Core words of length k: f(k-1) f(k) for k >= 1 (prop8)."""
    return fib(k - 1) * fib(k) if k >= 1 else 0


def avoiding_block_words(n: int) -> int:
    """Avoiding block words of length n for m = 3 (eq1)."""
    return sum((n - k) * core_words(k) for k in range(1, n))


def block_words(n: int) -> int:
    """Words a^i c u a c^j of length n: (i + j + 1) choices per middle length."""
    return sum((k + 1) * 3 ** (n - 2 - k) for k in range(n - 1))


def sweep_sizes(n_max: int) -> int:
    return sum(math.factorial(n) for n in range(1, n_max + 1))


def words_up_to(n_max: int, start: int = 1) -> int:
    return sum(3**n for n in range(start, n_max + 1))


SMALL = workloads.SIZES["small"]
N, K = SMALL["perm_n_max"], SMALL["k_max"]
W, L, P = SMALL["word_n_max"], SMALL["match_max_len"], SMALL["parse_max_len"]
O, Q = SMALL["ogf_order"], SMALL["inverse_order"]

# Counters derived by hand from the claim runners in permfib.cli.
#
# perm-sweep, verify --n-max N: theorem1 sweeps S_n for three m, theorem2,
# theorem4, corollaries, prop6 and gf-general m = 4 once each (m = 3 is
# cached from theorem2): 8 sweeps of every S_n, n <= N.  gf3 and gf5 expand
# the ipk and ilpk polynomials for m = 2, 3, 4 and n = 1..7 regardless of N.
# prop7 tests every word up to N once for m = 3; prop6 checks every block
# word up to N; prop8 enumerates tilings up to the default k-max 10.
# DFAs: block_word_dfa(3) 12 states, core 11, block_word_dfa(4) 14.
EXPECTED = {
    "perm-sweep": {
        "permutations.sweeps": 8 * N + 6 * 7,
        "permutations.perms_enumerated": 8 * sweep_sizes(N) + 6 * sweep_sizes(7),
        "oracle.count_calls": 6 * N,
        "compositions.enumerated": 2**N - 1,
        "words.words_enumerated": words_up_to(N),
        "words.block_words_enumerated": sum(block_words(n) for n in range(1, N + 1)),
        "words.definition_checks": words_up_to(N)
        + sum(block_words(n) for n in range(1, N + 1)),
        "regex.accepts_calls": words_up_to(N),
        "regex.compile_calls": 3,
        "regex.dfa_states": 12 + 11 + 14,
        "tilings.enumerated": sum(core_words(k) for k in range(1, 11)),
    },
    # word-sweep: prop7 for m = 3, 4, 5; the matcher check on four
    # expressions for every word up to L (empty word included); the parse
    # check on the core and m = 3 languages up to P.  DFAs: prop7 compiles
    # m = 3, 4, 5 (12 + 14 + 15), prop8 the core (11); the checks compile
    # their expressions again (52 and 23 states).
    "word-sweep": {
        "permutations.sweeps": 0,
        "words.words_enumerated": 3 * words_up_to(W),
        "words.definition_checks": 3 * words_up_to(W),
        "regex.accepts_calls": 3 * words_up_to(W) + 4 * words_up_to(L, start=0),
        "regex.ast_matches_calls": 4 * words_up_to(L, start=0),
        "regex.count_parses_calls": sum(
            core_words(n) + avoiding_block_words(n) for n in range(P + 1)
        ),
        "regex.language_words": sum(
            core_words(n) + avoiding_block_words(n) for n in range(P + 1)
        ),
        "regex.compile_calls": 4 + 4 + 2,
        "regex.dfa_states": (12 + 14 + 15 + 11) + 52 + 23,
        "tilings.enumerated": sum(core_words(k) for k in range(1, K + 1)),
    },
    # series-exact: one product and one inverse of length O + 1, one square
    # root of length Q + 2.
    "series-exact": {
        "permutations.sweeps": 0,
        "series.mul_calls": 1,
        "series.invert_calls": 1,
        "series.coeff_ops": (O + 1) ** 2 + Q * (Q + 1) // 2,
    },
    # lookup: the first biject --word command compiles the m = 3 and core DFAs.
    "lookup": {
        "permutations.sweeps": 0,
        "regex.compile_calls": 2,
        "regex.dfa_states": 12 + 11,
    },
}


def traced_child(workload: str, seed: int = 3) -> dict:
    ops = workloads.build_job(workload, seed, "small")
    spans = run.OUT / f"test-spans-{workload}.jsonl"
    child = run.spawn({"ops": ops, "trace": True, "spans": str(spans)}, time.monotonic() + 120)
    assert child.ok, child.stderr
    assert all(not op["problems"] for op in child.payload["ops"])
    return child.payload


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly_and_match_hand_values(workload):
    first, second = traced_child(workload), traced_child(workload)
    counts = {
        name: value
        for name, (value, unit) in first["layers"].items()
        if unit == "count"
    }
    assert counts == {
        name: value for name, (value, unit) in second["layers"].items() if unit == "count"
    }
    for name, expected in EXPECTED[workload].items():
        assert counts[name] == expected, name


def test_every_per_module_metric_is_reported():
    layers = traced_child("lookup")["layers"]
    assert list(layers) == list(tracing.Tracer().metrics())
    for module in tracing.MODULES:
        assert f"{module}.errors" in layers


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [(name, unit) for name, (_, unit) in tracing.Tracer().metrics().items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers + [run.OVERHEAD]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spans_nest_inside_operations():
    traced_child("series-exact")
    spans = [
        json.loads(line)
        for line in (run.OUT / "test-spans-series-exact.jsonl").read_text().splitlines()
    ]
    roots = [s for s in spans if s["parent"] == -1]
    assert [s["name"] for s in roots] == ["op:ilpk-ogf", "op:substitution-inverse"]
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] != -1:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["request"] == span["request"]


def test_wrong_program_output_is_counted_as_failed():
    # ask the program for the m = 4 series while the check expects m = 3
    op = workloads.build_job("series-exact", 1, "small")[0]
    op["argv"][op["argv"].index("--m") + 1] = "4"
    child = run.spawn({"ops": [op], "trace": False}, time.monotonic() + 60)
    assert child.ok
    assert child.payload["ops"][0]["problems"]


def test_corrupted_outputs_are_detected():
    series = workloads.build_job("series-exact", 1, "small")[0]
    good = [str(c) for c in workloads.ilpk_ogf_reference(O)]
    assert workloads.check_cli_output(series, 0, json.dumps({"coefficients": good})) == []
    bad = list(good)
    bad[7] = str(Fraction(bad[7]) + 1)
    assert len(workloads.check_cli_output(series, 0, json.dumps({"coefficients": bad}))) == 1
    assert workloads.check_cli_output(series, 1, json.dumps({"coefficients": good}))

    verify = workloads.build_job("perm-sweep", 1, "small")[0]
    assert workloads.check_cli_output(verify, 0, '{"all_pass": true}') == []
    assert workloads.check_cli_output(verify, 0, '{"all_pass": false}')
    assert workloads.check_cli_output(verify, 1, '{"all_pass": true}')
    assert workloads.check_cli_output(verify, 0, "not json")

    stats = workloads._cli("stats", "stats", "--perm", "2,3,1,5,4")
    right = {"des": 2, "pk": 2, "ipk": 1}
    assert workloads.check_cli_output(stats, 0, json.dumps(right)) == []
    assert workloads.check_cli_output(stats, 0, json.dumps({**right, "ipk": 0}))


def test_references_agree_with_the_paper():
    assert workloads.decode_word("aacbabcbcaca") == [1, 2, 5, 10, 12, 8, 6, 4, 3, 7, 9, 11]
    assert workloads.substitution_inverse_reference(3) == [0, Fraction(1, 4), Fraction(1, 8),
                                                           Fraction(5, 64)]
    assert workloads.ilpk_ogf_reference(4) == [0, 0, 1, 4, 13]
    assert workloads.run_lengths([8, 5, 7, 1, 2, 6, 4, 3]) == [1, 2, 3, 1, 1]


def test_lookup_inputs_come_from_the_seed():
    assert workloads.build_job("lookup", 5) == workloads.build_job("lookup", 5)
    assert workloads.build_job("lookup", 5) != workloads.build_job("lookup", 6)
    assert workloads.build_job("perm-sweep", 5) == workloads.build_job("perm-sweep", 6)
    kinds = [op["check"] for op in workloads.build_job("lookup", 5)]
    assert {kinds.count(k) for k in set(kinds)} == {500}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
