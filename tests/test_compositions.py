import math

import pytest

from permfib.bijections import zero_ipk_permutation
from permfib.compositions import (
    Composition,
    composition_reverse,
    count_parts_gt1,
    enumerate_compositions,
    fib,
)
from permfib.errors import InvalidInputError
from permfib.permutations import (
    descent_composition,
    enumerate_symmetric_group,
    left_peak_count,
    reverse,
    right_peak_count,
)


class TestFib:
    def test_order_two(self):
        assert [fib(2, n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_order_three(self):
        assert [fib(3, n) for n in range(7)] == [1, 1, 2, 4, 7, 13, 24]

    def test_negative_index(self):
        for k in (1, 2, 5):
            assert fib(k, -1) == 0

    def test_big_integers(self):
        assert fib(2, 90) == 4660046610375530309
        assert fib(2, 90) > 2**62

    def test_order_one(self):
        assert [fib(1, n) for n in range(5)] == [1, 1, 1, 1, 1]

    def test_invalid_order(self):
        with pytest.raises(InvalidInputError):
            fib(0, 3)


class TestEnumerateCompositions:
    def test_unbounded(self):
        got = [c.parts for c in enumerate_compositions(3)]
        assert got == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_bounded_counts_match_fibonacci(self):
        assert sum(1 for _ in enumerate_compositions(4, max_part=2)) == 5
        assert sum(1 for _ in enumerate_compositions(5, max_part=3)) == 13
        for k in (2, 3, 4):
            for n in range(1, 15):
                count = sum(1 for _ in enumerate_compositions(n, max_part=k))
                assert count == fib(k, n)

    def test_counts_by_length(self):
        for n in range(1, 11):
            by_length: dict[int, int] = {}
            for c in enumerate_compositions(n):
                by_length[len(c)] = by_length.get(len(c), 0) + 1
            for j in range(1, n + 1):
                assert by_length.get(j, 0) == math.comb(n - 1, j - 1)

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            list(enumerate_compositions(0))
        with pytest.raises(InvalidInputError):
            list(enumerate_compositions(3, max_part=0))
        with pytest.raises(InvalidInputError, match=r"^composition parts must be >= 1: \(0,\)$"):
            Composition((0,))

    def test_lexicographic(self):
        parts = [c.parts for c in enumerate_compositions(6)]
        assert parts == sorted(parts)
        assert len(parts) == 2**5


class TestCompositionReverse:
    def test_single_part(self):
        assert composition_reverse(Composition((4,))).parts == (1, 1, 1, 1)

    def test_worked_example(self):
        # independent check: reverse two distinct representatives by hand
        left = descent_composition(reverse(zero_ipk_permutation(Composition((1, 2, 3, 1, 1)))))
        from permfib.permutations import Permutation

        right = descent_composition(reverse(Permutation.from_text("85712643")))
        assert left.parts == right.parts == (3, 1, 2, 2)
        assert composition_reverse(Composition((1, 2, 3, 1, 1))).parts == (3, 1, 2, 2)

    def test_involution(self):
        for n in range(1, 10):
            for c in enumerate_compositions(n):
                assert composition_reverse(composition_reverse(c)) == c

    def test_representative_independence(self):
        for n in range(1, 8):
            expected: dict[tuple[int, ...], tuple[int, ...]] = {}
            for p in enumerate_symmetric_group(n):
                parts = descent_composition(p).parts
                reversed_parts = descent_composition(reverse(p)).parts
                assert expected.setdefault(parts, reversed_parts) == reversed_parts
            for parts, reversed_parts in expected.items():
                assert composition_reverse(Composition(parts)).parts == reversed_parts

    def test_maps_left_peak_classes_to_right_peak_classes(self):
        for n in range(1, 8):
            by_lpk: dict[int, set] = {}
            by_rpk: dict[int, set] = {}
            for p in enumerate_symmetric_group(n):
                parts = descent_composition(p).parts
                by_lpk.setdefault(left_peak_count(p.letters), set()).add(parts)
                by_rpk.setdefault(right_peak_count(p.letters), set()).add(parts)
            for k, classes in by_lpk.items():
                image = {composition_reverse(Composition(parts)).parts for parts in classes}
                assert image == by_rpk.get(k, set())


class TestCountPartsGt1:
    def test_examples(self):
        assert count_parts_gt1(4, 1) == 6
        assert count_parts_gt1(5, 0) == 1
        assert count_parts_gt1(6, 2) == 15

    def test_matches_binomial(self):
        for n in range(1, 11):
            for k in range(n):
                assert count_parts_gt1(n, k) == math.comb(n, 2 * k)


class TestCompositionType:
    def test_str(self):
        assert str(Composition((1, 2, 3, 1, 1))) == "(1,2,3,1,1)"

    def test_parse(self):
        assert Composition.from_text("3,2,3,1").parts == (3, 2, 3, 1)
        assert Composition.from_text("(3,2,3,1)").parts == (3, 2, 3, 1)

    def test_invalid_parts(self):
        with pytest.raises(InvalidInputError):
            Composition((1, 0, 2))
