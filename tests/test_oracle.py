import json
import math

import jsonschema
import pytest

from permfib import oracle, permutations, series
from permfib.compositions import fib
from permfib.errors import InvalidInputError, ResourceLimitError


class TestCounts:
    def test_peakless_inverse_counts(self):
        assert [oracle.count_ipk0_avoiders(n, 3) for n in range(1, 7)] == [1, 2, 3, 5, 8, 13]
        assert [oracle.count_ipk0_avoiders(n, 4) for n in range(1, 7)] == [1, 2, 4, 7, 13, 24]

    def test_long_pattern_counts_compositions(self):
        # no window long enough: every permutation avoids, so the count is
        # the number of descent classes
        for n in range(1, 7):
            m = max(n + 1, 3)
            assert oracle.count_ipk0_avoiders(n, m) == 2 ** (n - 1)

    def test_single_left_peak_counts(self):
        assert [oracle.count_ilpk1_avoiders(n, 3) for n in range(1, 7)] == [0, 1, 4, 13, 37, 101]
        assert oracle.count_ilpk1_avoiders(1, 3) == 0
        assert oracle.count_ilpk1_avoiders(2, 3) == 1

    def test_counts_respect_cap(self):
        with pytest.raises(ResourceLimitError):
            oracle.count_ipk0_avoiders(301, 3)
        with pytest.raises(InvalidInputError):
            oracle.count_ipk0_avoiders(0, 3)
        with pytest.raises(InvalidInputError):
            oracle.count_ilpk1_avoiders(3, 2)

    def test_documented_bounds(self):
        with pytest.raises(ResourceLimitError, match="n <= 300, got 301"):
            oracle.count_ilpk1_avoiders(301, 3)
        with pytest.raises(ResourceLimitError):
            oracle.descent_pair_matrix(9)


class TestAutomata:
    """The insertion automata count every n up to their cap, checked
    against the closed forms and the generating function."""

    def test_theorem1_fibonacci_numbers(self):
        for m in range(3, 7):
            for n in range(1, oracle.AUTOMATON_MAX_N + 1):
                assert oracle.count_ipk0_avoiders(n, m) == fib(m - 1, n), (n, m)

    def test_theorem2_closed_form(self):
        for n in range(1, oracle.AUTOMATON_MAX_N + 1):
            expected = fib(2, n - 1) * fib(2, n) - (n + 1) // 2
            assert oracle.count_ilpk1_avoiders(n, 3) == expected, n

    def test_ilpk_one_ogf_coefficients(self):
        for m in range(3, 7):
            expansion = series.ilpk_one_ogf(m, oracle.AUTOMATON_MAX_N)
            for n in range(1, oracle.AUTOMATON_MAX_N + 1):
                assert oracle.count_ilpk1_avoiders(n, m) == expansion.coeffs[n], (n, m)


_PAST_S_N = permutations.ENUMERATION_CAP + 1
_PAST_PEAKLESS = oracle.PEAKLESS_MAX_N + 1
_S_N_REFUSAL = f"^S_{_PAST_S_N} exceeds the cap of {permutations.ENUMERATION_CAP}$"
_PEAKLESS_REFUSAL = (
    f"^peakless inverses are built for n <= {oracle.PEAKLESS_MAX_N}, got {_PAST_PEAKLESS}$"
)

#: Every public entry point held to a fixed cap on n, called one past it,
#: and the refusal it meets.
CAPPED = {
    "sweep": (lambda: oracle.sweep(_PAST_S_N), _S_N_REFUSAL),
    "peakless": (lambda: oracle.peakless(_PAST_PEAKLESS), _PEAKLESS_REFUSAL),
    "triangulated_counts": (lambda: oracle.triangulated_counts(_PAST_S_N), _S_N_REFUSAL),
    "ipk_polynomial": (lambda: series.ipk_polynomial(3, _PAST_S_N), _S_N_REFUSAL),
    "ilpk_polynomial": (lambda: series.ilpk_polynomial(3, _PAST_S_N), _S_N_REFUSAL),
    "ipk_gf_sides": (lambda: series.ipk_gf_sides(3, _PAST_S_N, 5), _S_N_REFUSAL),
    "ilpk_gf_sides": (lambda: series.ilpk_gf_sides(3, _PAST_S_N, 5), _S_N_REFUSAL),
    "verify_descent_uniqueness": (
        lambda: oracle.verify_descent_uniqueness(_PAST_PEAKLESS), _PEAKLESS_REFUSAL
    ),
    "verify_corollaries": (lambda: oracle.verify_corollaries(_PAST_PEAKLESS), _PEAKLESS_REFUSAL),
}


@pytest.mark.parametrize("name", CAPPED)
def test_the_sweep_cap_is_the_only_bound(monkeypatch, name):
    """Each entry point has one fixed bound, the S_n cap of the sweep or,
    for the peakless tally and the two checks that read it,
    PEAKLESS_MAX_N, and refuses one past it before any work, on a warm
    cache too."""

    def refuse(*args):
        raise AssertionError("work started past the cap")

    oracle.sweep(6)
    oracle.peakless(6)
    monkeypatch.setattr(oracle, "_levels", refuse)
    monkeypatch.setattr(oracle, "peak_count", refuse)
    call, refusal = CAPPED[name]
    with pytest.raises(ResourceLimitError, match=refusal):
        call()


class TestDescentUniqueness:
    @pytest.mark.parametrize("n,classes", [(1, 1), (4, 8), (7, 64)])
    def test_passes_with_class_counts(self, n, classes):
        report = oracle.verify_descent_uniqueness(n)
        assert report.passed
        assert report.params["classes"] == classes


class TestCorollaries:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_pass(self, n):
        assert oracle.verify_corollaries(n).passed

    def test_specific_counts(self):
        # spot checks behind the aggregated report
        def count(n, predicate):
            from permfib.permutations import (
                inverse_letters,
                left_peak_count,
                letter_tuples,
                peak_count,
            )

            return sum(
                1
                for p in letter_tuples(n)
                if peak_count(inverse_letters(p)) == 0 and predicate(p)
            )

        from permfib.permutations import descents, left_peak_count, peak_count

        assert count(5, lambda p: len(descents(p)) == 2) == math.comb(4, 2)
        assert count(6, lambda p: peak_count(p) == 1) == math.comb(6, 3)
        for n in (3, 5, 6):
            assert count(n, lambda p: left_peak_count(p) == 0) == 1


class TestDescentPairMatrix:
    def test_symmetric(self):
        for n in range(1, 7):
            matrix = oracle.descent_pair_matrix(n)
            for (left, right), value in matrix.items():
                assert matrix[(right, left)] == value

    def test_row_sums_are_class_sizes(self):
        from permfib.permutations import increasing_run_lengths, letter_tuples

        n = 6
        matrix = oracle.descent_pair_matrix(n)
        class_sizes: dict[tuple[int, ...], int] = {}
        for p in letter_tuples(n):
            parts = increasing_run_lengths(p)
            class_sizes[parts] = class_sizes.get(parts, 0) + 1
        row_sums: dict[tuple[int, ...], int] = {}
        for (left, _right), value in matrix.items():
            row_sums[left] = row_sums.get(left, 0) + value
        assert row_sums == class_sizes

    @pytest.mark.parametrize("n", range(1, 8))
    def test_hook_rows(self, n):
        assert oracle.verify_hook_row_sums(n).passed


class TestIdentitySums:
    def test_small_values(self):
        assert sum(fib(2, k - 1) * fib(2, k) for i in range(1, 5) for k in range(1, i + 1)) == 37
        assert fib(2, 4) * fib(2, 5) - 3 == 37
        assert sum(math.comb(j, 2) for j in range(6)) == math.comb(6, 3) == 20

    def test_full_report(self):
        report = oracle.verify_identity_sums(60)
        assert report.passed
        with pytest.raises(InvalidInputError):
            oracle.verify_identity_sums(61)

    @pytest.mark.parametrize("n_max", [0, -5])
    def test_no_vacuous_pass(self, n_max):
        with pytest.raises(InvalidInputError, match="n_max must be in 1..60"):
            oracle.verify_identity_sums(n_max)


class TestTriangulation:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_four_pipelines_agree(self, n):
        counts = oracle.triangulated_counts(n)
        assert len(set(counts.values())) == 1
        assert set(counts) == {"permutations", "word_definition", "word_dfa", "tiling_sum"}

    def test_generalized_pipelines(self):
        for m in (4, 5):
            for n in range(1, 7):
                counts = oracle.triangulated_counts(n, m)
                assert counts["word_definition"] == counts["word_dfa"]
                assert counts["permutations"] == counts["word_dfa"]
                assert "tiling_sum" not in counts


class TestReports:
    def test_json_shape_validates(self):
        report = oracle.verify_identity_sums(5)
        payload = report.to_json_dict()
        jsonschema.validate(payload, oracle.REPORT_SCHEMA)
        json.dumps(payload)

    def test_millis_optional(self):
        report = oracle.verify_identity_sums(5)
        payload = report.to_json_dict(include_millis=False)
        assert "millis" not in payload
        jsonschema.validate(payload, oracle.REPORT_SCHEMA)

    def test_failure_carries_counterexample(self):
        report = oracle.VerificationReport(claim="demo", params={})
        report.passed = False
        report.counterexample = {"n": 3}
        payload = report.to_json_dict()
        assert payload["pass"] is False
        assert payload["counterexample"] == {"n": 3}
        jsonschema.validate(payload, oracle.REPORT_SCHEMA)
