import itertools

import oracles
import pytest
from hypothesis import given, strategies as st

from permfib.errors import InvalidInputError, ResourceLimitError
from permfib.permutations import (
    Permutation,
    StatReport,
    contains_ascending_run,
    contains_consecutive_letters,
    contains_descending_run,
    descent_composition,
    descents,
    enumerate_symmetric_group,
    increasing_run_lengths,
    inverse,
    left_peak_count,
    peak_count,
    reverse,
    right_peak_count,
    rise_word,
    standardize_letters,
    statistics,
)


def letter_tuples_up_to(n_max: int):
    """Every letter tuple of length at most n_max, the empty one included."""
    for n in range(n_max + 1):
        yield from itertools.permutations(range(1, n + 1))


def perm(text: str) -> Permutation:
    return Permutation.from_text(text)


def all_perms(n: int):
    return enumerate_symmetric_group(n)


class TestStandardize:
    def test_worked_example(self):
        assert standardize_letters((8, 3, 6, 1, 4)) == (5, 2, 4, 1, 3)

    def test_empty(self):
        assert standardize_letters(()) == ()

    def test_fixes_permutations(self):
        assert standardize_letters((5, 2, 4, 1, 3)) == (5, 2, 4, 1, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidInputError):
            standardize_letters((1, 1, 2))

    def test_idempotent_on_image(self):
        for p in all_perms(5):
            assert standardize_letters(p.letters) == p.letters


class TestInverse:
    def test_worked_example(self):
        assert inverse(perm("23568714")) == perm("71283465")

    def test_identity(self):
        ident = perm("1 2 3 4 5")
        assert inverse(ident) == ident

    def test_second_example(self):
        assert inverse(perm("964123578")) == perm("456372891")

    def test_involution_exhaustive(self):
        for n in range(7):
            for p in all_perms(n):
                assert inverse(inverse(p)) == p


class TestReverse:
    def test_examples(self):
        assert reverse(perm("123")) == perm("321")
        assert reverse(perm("23568714")) == perm("41786532")
        assert reverse(Permutation(())) == Permutation(())

    def test_involution(self):
        for p in all_perms(6):
            assert reverse(reverse(p)) == p


class TestStatistics:
    def test_inverse_peak_example(self):
        report = statistics(perm("23568714"))
        assert report.ipk == 2
        assert report.ilpk == 3

    def test_identity_all_zero(self):
        for n in (1, 2, 5):
            report = statistics(Permutation(tuple(range(1, n + 1))))
            assert (report.des, report.pk, report.lpk, report.ipk, report.ilpk) == (0,) * 5

    def test_n_shaped_example(self):
        report = statistics(perm("1 2 5 10 12 8 6 4 3 7 9 11"))
        assert report.lpk == 1
        assert report.right_valley_positions == (9,)
        assert report.right_valleys == 1

    def test_empty_permutation(self):
        report = statistics(Permutation(()))
        assert report.des == report.pk == report.lpk == report.rpk == 0
        assert report.descent_positions == ()

    def test_position_ranges_and_pk_lpk_bound(self):
        for p in all_perms(6):
            report = statistics(p)
            n = p.n
            assert all(2 <= i <= n - 1 for i in report.peak_positions)
            assert all(1 <= i <= n - 1 for i in report.left_peak_positions)
            assert all(1 <= i <= n - 1 for i in report.descent_positions)
            assert report.pk <= report.lpk <= report.pk + 1


class TestConsecutiveContainment:
    def test_window_example(self):
        assert contains_consecutive_letters(perm("85712643").letters, (1, 2, 3))

    def test_identity_avoids_descent(self):
        assert not contains_consecutive_letters((1, 2, 3, 4), (2, 1))

    def test_avoider_count_in_s4(self):
        # brute force over all 24 permutations
        count = sum(
            1 for p in all_perms(4) if not contains_consecutive_letters(p.letters, (1, 2, 3))
        )
        assert count == 17

    def test_empty_pattern_rejected(self):
        with pytest.raises(InvalidInputError):
            contains_consecutive_letters((1, 2, 3), ())

    def test_monotone_containment_matches_run_criterion(self):
        for m in (3, 4, 5):
            pattern = tuple(range(1, m + 1))
            for p in all_perms(6):
                parts = descent_composition(p).parts
                expected = any(part >= m for part in parts)
                assert contains_consecutive_letters(p.letters, pattern) == expected


class TestDescentComposition:
    def test_worked_example(self):
        assert descent_composition(perm("85712643")).parts == (1, 2, 3, 1, 1)

    def test_identity(self):
        assert descent_composition(perm("12345")).parts == (5,)

    def test_second_example(self):
        assert descent_composition(perm("456372891")).parts == (3, 2, 3, 1)

    def test_empty(self):
        assert descent_composition(Permutation(())).parts == ()

    def test_parts_sum_and_count(self):
        for p in all_perms(7):
            composition = descent_composition(p)
            assert composition.n == p.n
            assert len(composition.parts) == statistics(p).des + 1


class TestRunStatistics:
    def test_peak_counts_from_runs(self):
        # peaks: non-final increasing runs longer than 1;
        # right peaks: all increasing runs longer than 1
        for p in all_perms(7):
            runs = increasing_run_lengths(p.letters)
            report = statistics(p)
            assert report.pk == sum(1 for part in runs[:-1] if part > 1)
            assert right_peak_count(p.letters) == sum(1 for part in runs if part > 1)

    def test_reverse_swaps_left_and_right_peaks(self):
        for p in all_perms(7):
            assert left_peak_count(reverse(p).letters) == right_peak_count(p.letters)


class TestRiseWordReadings:
    """Each statistic read from the rise word against a plain definition, on
    all 5,914 letter tuples of length at most 7."""

    def test_rise_word(self):
        for letters in letter_tuples_up_to(7):
            bits = "".join("1" if rise else "0" for rise in oracles.rise_bits(letters))
            assert rise_word(letters) == bits

    def test_positions(self):
        """Every field of the statistics report, and the descents."""
        for letters in letter_tuples_up_to(7):
            inv = oracles.inverse(letters)
            positions = (
                oracles.descent_positions(letters),
                oracles.peak_positions(letters),
                oracles.left_peak_positions(letters),
                oracles.valley_positions(letters),
                oracles.right_valley_positions(letters),
            )
            des, _, _, valleys, right_valleys = map(len, positions)
            expected = StatReport(
                des, oracles.peaks(letters), oracles.left_peaks(letters),
                oracles.right_peaks(letters), valleys, right_valleys,
                oracles.peaks(inv), oracles.left_peaks(inv), *positions,
            )
            assert statistics(Permutation(letters)) == expected, letters
            assert descents(letters) == expected.descent_positions

    def test_counts_and_runs(self):
        for letters in letter_tuples_up_to(7):
            assert peak_count(letters) == oracles.peaks(letters)
            assert left_peak_count(letters) == oracles.left_peaks(letters)
            assert right_peak_count(letters) == oracles.right_peaks(letters)
            runs = oracles.ascending_runs(letters) if letters else ()
            assert increasing_run_lengths(letters) == runs


class TestMonotoneRuns:
    def test_match_the_window_test(self):
        # every letter tuple of length n <= 6, for every run length 1..n+1
        for letters in letter_tuples_up_to(6):
            for m in range(1, len(letters) + 2):
                up, down = tuple(range(1, m + 1)), tuple(range(m, 0, -1))
                assert contains_ascending_run(letters, m) == contains_consecutive_letters(letters, up)
                assert contains_descending_run(letters, m) == contains_consecutive_letters(
                    letters, down
                )

    @pytest.mark.parametrize("m", [0, -1])
    def test_run_length_below_one_rejected(self, m):
        for letters in ((), (1,), (1, 2), (2, 1)):
            with pytest.raises(InvalidInputError):
                contains_ascending_run(letters, m)
            with pytest.raises(InvalidInputError):
                contains_descending_run(letters, m)


class TestEnumeration:
    def test_zero_length(self):
        assert list(all_perms(0)) == [Permutation(())]

    def test_lexicographic_order(self):
        perms = list(all_perms(3))
        assert len(perms) == 6
        assert perms[0] == perm("123")
        assert perms[-1] == perm("321")
        assert perms == sorted(perms, key=lambda p: p.letters)

    def test_full_count(self):
        assert sum(1 for _ in all_perms(8)) == 40320

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match="^S_13 exceeds the cap of 12$"):
            enumerate_symmetric_group(13)
        enumerate_symmetric_group(12)  # iterator construction only


class TestParsing:
    def test_accepted_forms(self):
        expected = perm("23568714")
        assert Permutation.from_text("2 3 5 6 8 7 1 4") == expected
        assert Permutation.from_text("2,3,5,6,8,7,1,4") == expected
        assert Permutation.from_text("23568714") == expected

    def test_str_is_space_separated(self):
        assert str(perm("23568714")) == "2 3 5 6 8 7 1 4"

    def test_rejects_non_permutations(self):
        with pytest.raises(InvalidInputError):
            Permutation.from_text("1 2 2")
        with pytest.raises(InvalidInputError):
            Permutation.from_text("0 1 2")
        with pytest.raises(InvalidInputError):
            Permutation.from_text("abc")
        with pytest.raises(InvalidInputError, match=r"^not a rearrangement of 1..2: \(1, 1\)$"):
            Permutation((1, 1))


@given(st.integers(0, 20).flatmap(lambda n: st.permutations(tuple(range(1, n + 1)))))
def test_roundtrips_random(letters):
    p = Permutation(tuple(letters))
    assert inverse(inverse(p)) == p
    assert reverse(reverse(p)) == p
    assert standardize_letters(p.letters) == p.letters
