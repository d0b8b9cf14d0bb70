import pytest
from oracles import time_limit

from permfib import bijections, regex
from permfib.bijections import (
    TilingTriple,
    block_word,
    canonical_decomposition,
    is_n_shaped,
    is_tiling_mappable,
    permutation_to_tiling_triple,
    tiling_triple_to_permutation,
    word_to_permutation,
    zero_ipk_permutation,
)
from permfib.compositions import Composition, enumerate_compositions, fib
from permfib.errors import InvalidInputError, NotInDomainError
from permfib.permutations import (
    Permutation,
    contains_descending_run,
    descent_composition,
    enumerate_symmetric_group,
    inverse,
    inverse_letters,
    statistics,
)
from permfib.tilings import (
    Tiling,
    enumerate_tilings,
    segment_rows,
    tiling_to_word,
    word_to_tiling,
)
from permfib.words import is_avoiding_block_word, is_block_word, iter_block_words


def perm(text: str) -> Permutation:
    return Permutation.from_text(text)


N_EXAMPLE = perm("1 2 5 10 12 8 6 4 3 7 9 11")
LONG_EXAMPLE = Permutation((1, 2, 8, 9, 10, 14, 16, 17, 12, 11, 4, 3, 5, 6, 7, 13, 15, 18, 19, 20))


class TestZeroIpkPermutation:
    def test_worked_example(self):
        assert zero_ipk_permutation(Composition((3, 2, 3, 1))) == perm("456372891")

    def test_single_part(self):
        assert zero_ipk_permutation(Composition((5,))) == perm("12345")

    def test_all_ones(self):
        assert zero_ipk_permutation(Composition((1, 1, 1, 1))) == perm("4321")

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            zero_ipk_permutation(Composition(()))

    def test_unique_per_descent_class(self):
        # each composition class holds exactly one member with peakless inverse
        for n in range(1, 8):
            seen: dict[tuple[int, ...], list[Permutation]] = {}
            for p in enumerate_symmetric_group(n):
                if statistics(p).ipk == 0:
                    seen.setdefault(descent_composition(p).parts, []).append(p)
            for composition in enumerate_compositions(n):
                members = seen.get(composition.parts, [])
                assert len(members) == 1
                assert members[0] == zero_ipk_permutation(composition)


class TestCanonicalDecomposition:
    def test_worked_example(self):
        split = canonical_decomposition(N_EXAMPLE)
        assert split.alpha == (1, 2, 5, 10, 12)
        assert split.beta == (8, 6, 4)
        assert split.gamma == (3, 7, 9, 11)

    def test_two_letters(self):
        split = canonical_decomposition(perm("21"))
        assert (split.alpha, split.beta, split.gamma) == ((2,), (), (1,))

    def test_three_letters(self):
        split = canonical_decomposition(perm("132"))
        assert (split.alpha, split.beta, split.gamma) == ((1, 3), (), (2,))

    def test_identity_rejected(self):
        with pytest.raises(NotInDomainError):
            canonical_decomposition(perm("1234"))

    def test_shape_invariants(self):
        for n in range(2, 8):
            for p in enumerate_symmetric_group(n):
                if not is_n_shaped(p):
                    continue
                split = canonical_decomposition(p)
                assert split.alpha + split.beta + split.gamma == p.letters
                assert list(split.alpha) == sorted(split.alpha)
                assert list(split.beta) == sorted(split.beta, reverse=True)
                assert list(split.gamma) == sorted(split.gamma)


class TestBlockWord:
    def test_worked_example(self):
        assert block_word(N_EXAMPLE) == "aacbabcbcaca"

    def test_two_letters(self):
        assert block_word(perm("21")) == "ca"

    def test_long_example(self):
        assert block_word(LONG_EXAMPLE) == "aacbcccaaabbcacaaccc"

    def test_decode_examples(self):
        assert word_to_permutation("aacbabcbcaca") == N_EXAMPLE
        assert word_to_permutation("ca") == perm("21")

    def test_decode_rejects_bad_form(self):
        with pytest.raises(NotInDomainError):
            word_to_permutation("ac")
        with pytest.raises(NotInDomainError):
            word_to_permutation("aac")

    def test_round_trip(self):
        for n in range(2, 9):
            for p in enumerate_symmetric_group(n):
                if is_n_shaped(p):
                    assert word_to_permutation(block_word(p)) == p

    def test_image_is_exactly_the_block_words(self):
        # encodings of one-left-peak permutations = words of the sandwich form
        for n in range(1, 9):
            encoded = {
                block_word(p)
                for p in enumerate_symmetric_group(n)
                if is_n_shaped(p)
            }
            assert encoded == set(iter_block_words(n))

    def test_private_decoder_returns_a_permutation_of_every_block_word(self):
        for n in range(9):
            for word in iter_block_words(n):
                letters = bijections._decode(word)
                assert sorted(letters) == list(range(1, n + 1))
                assert Permutation(letters) == word_to_permutation(word)
                assert bijections._encode(letters) == word

    def test_decomposition_and_encoding_spell_the_same_word(self):
        for n in range(2, 8):
            for p in enumerate_symmetric_group(n):
                if is_n_shaped(p):
                    assert canonical_decomposition(p).word() == block_word(p)

    def test_encoding_rejects_what_the_decomposition_rejects(self):
        for text in ("1234", "1", "2143"):
            with pytest.raises(NotInDomainError) as expected:
                canonical_decomposition(perm(text))
            with pytest.raises(NotInDomainError) as raised:
                block_word(perm(text))
            assert str(raised.value) == str(expected.value)
            assert str(raised.value) == f"lpk != 1: not an N-shaped permutation: {perm(text)}"


class TestInverseDescentCharacterization:
    def test_bigrams_and_factors(self):
        # the word's adjacent pairs read off the inverse's descents, and the
        # inverse contains a descending 3-run exactly when the word has a
        # forbidden factor
        falling = {"ba", "bb", "ca", "cb"}
        for n in range(2, 9):
            for p in enumerate_symmetric_group(n):
                if not is_n_shaped(p):
                    continue
                word = block_word(p)
                inv = inverse_letters(p.letters)
                for i in range(1, n):
                    is_inverse_descent = inv[i - 1] > inv[i]
                    assert (word[i - 1 : i + 1] in falling) == is_inverse_descent
                assert contains_descending_run(inv, 3) == (
                    not is_avoiding_block_word(word, 3)
                    if is_block_word(word)
                    else True
                )

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_encoding_bijects_avoiders_onto_avoiding_words(self, m):
        for n in range(1, 8):
            encoded = sorted(
                block_word(p)
                for p in enumerate_symmetric_group(n)
                if is_n_shaped(p)
                and not contains_descending_run(inverse_letters(p.letters), m)
            )
            expected = sorted(
                w for w in iter_block_words(n) if is_avoiding_block_word(w, m)
            )
            assert encoded == expected
            assert len(encoded) == len(set(encoded))


class TestTilings:
    def test_smallest(self):
        assert word_to_tiling("c") == Tiling((1,), (1,))

    def test_double_domino_segment(self):
        # the bc segment is a domino over a domino; on its own it cannot be a
        # whole tiling (the top-left corner must be a monomino), so check it
        # through the segment table and inside a composite word
        assert segment_rows("bc") == ((2,), (2,))
        assert word_to_tiling("cbc") == Tiling((1, 2), (1, 2))
        assert tiling_to_word(Tiling((1, 2), (1, 2))) == "cbc"

    def test_segment_table(self):
        assert segment_rows("c") == ((1,), (1,))
        assert segment_rows("aac") == ((1, 2), (2, 1))
        assert segment_rows("aaab") == ((2, 2), (1, 2, 1))
        assert segment_rows("ac") == ((1, 1), (2,))
        assert segment_rows("ab") == ((2,), (1, 1))
        with pytest.raises(InvalidInputError):
            segment_rows("cb")

    def test_worked_example_rows(self):
        tiling = word_to_tiling("aacbcccaaabbcac")
        assert tiling.top == (1, 2, 2, 1, 1, 2, 2, 2, 1, 1)
        assert tiling.bottom == (2, 1, 2, 1, 1, 1, 2, 1, 2, 2)

    def test_a_long_word_maps_in_linear_time(self):
        # 50,000 segments: ac, then bc ab 24,999 times, then c
        word = "ac" + "bcab" * 24_999 + "c"
        with time_limit(3):
            tiling = word_to_tiling(word)
            assert tiling.top == (1, 1) + (2, 2) * 24_999 + (1,)
            assert tiling.bottom == (2,) + (2, 1, 1) * 24_999 + (1,)
            assert tiling_to_word(tiling) == word

    def test_enumeration_counts(self):
        assert sum(1 for _ in enumerate_tilings(1)) == 1
        assert sum(1 for _ in enumerate_tilings(2)) == 2
        assert sum(1 for _ in enumerate_tilings(5)) == 40
        for k in range(1, 11):
            assert sum(1 for _ in enumerate_tilings(k)) == fib(2, k - 1) * fib(2, k)

    def test_enumeration_is_lexicographic_by_top_then_bottom(self):
        for k in range(1, 8):
            rows = [(tiling.top, tiling.bottom) for tiling in enumerate_tilings(k)]
            assert rows == sorted(set(rows))

    def test_bijection_with_core_words(self):
        for k in range(1, 9):
            mapped = {word_to_tiling(z) for z in regex.core_dfa().language(k)}
            everything = set(enumerate_tilings(k))
            assert mapped == everything

    def test_round_trips(self):
        for k in range(1, 9):
            for tiling in enumerate_tilings(k):
                assert word_to_tiling(tiling_to_word(tiling)) == tiling
            for z in regex.core_dfa().language(k):
                assert tiling_to_word(word_to_tiling(z)) == z

    def test_enumerated_tilings_equal_checked_ones(self):
        # enumerate_tilings builds its tilings without __post_init__
        for k in range(1, 11):
            for tiling in enumerate_tilings(k):
                checked = Tiling(tiling.top, tiling.bottom)
                assert tiling == checked
                assert hash(tiling) == hash(checked)
                assert type(tiling.top) is tuple and type(tiling.bottom) is tuple
                assert tiling.width == k

    def test_invalid_tilings_rejected(self):
        cases = [
            ((2, 1), (1, 2), "the top row must start with a monomino"),
            ((1, 2), (1,), "rows cover different widths: 3 vs 1"),
            ((1, 3), (2, 2), r"blocks must be 1 or 2: \(1, 3\)"),
            ([1, 1], (2, 0), r"blocks must be 1 or 2: \(2, 0\)"),
        ]
        for top, bottom, message in cases:
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                Tiling(top, bottom)
            text = " ".join(map(str, top)) + "\n" + " ".join(map(str, bottom))
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                Tiling.from_text(text)

    def test_serialize_round_trip(self):
        tiling = word_to_tiling("aacbcccaaabbcac")
        assert Tiling.from_text(tiling.serialize()) == tiling
        assert tiling.serialize().splitlines()[0] == "1 2 2 1 1 2 2 2 1 1"


class TestTilingTriple:
    def test_long_example(self):
        triple = permutation_to_tiling_triple(LONG_EXAMPLE)
        assert (triple.j, triple.k) == (3, 15)
        assert triple.tiling == word_to_tiling("aacbcccaaabbcac")

    def test_smallest(self):
        triple = permutation_to_tiling_triple(perm("21"))
        assert (triple.j, triple.k) == (0, 1)
        assert triple.tiling == Tiling((1,), (1,))

    def test_domain_errors_name_the_precondition(self):
        with pytest.raises(NotInDomainError, match="lpk"):
            permutation_to_tiling_triple(perm("123"))
        with pytest.raises(NotInDomainError, match="descending"):
            permutation_to_tiling_triple(N_EXAMPLE)

    def test_round_trip(self):
        for n in range(2, 9):
            for p in enumerate_symmetric_group(n):
                if is_tiling_mappable(p):
                    triple = permutation_to_tiling_triple(p)
                    assert tiling_triple_to_permutation(triple, n) == p

    def test_triple_bounds_checked(self):
        triple = TilingTriple(j=5, k=1, tiling=Tiling((1,), (1,)))
        with pytest.raises(InvalidInputError):
            tiling_triple_to_permutation(triple, 3)

    def test_counts_against_inverse_statistic(self):
        # the image sets and the ilpk-one avoiders are equinumerous via inversion
        for n in range(2, 8):
            mappable = sum(
                1 for p in enumerate_symmetric_group(n) if is_tiling_mappable(p)
            )
            by_inversion = sum(
                1
                for p in enumerate_symmetric_group(n)
                if not contains_descending_run(p.letters, 3)
                and statistics(p).ilpk == 1
            )
            assert mappable == by_inversion
            # and inversion really is the matching bijection
            assert mappable == sum(
                1
                for p in enumerate_symmetric_group(n)
                if is_tiling_mappable(inverse(p))
            )
