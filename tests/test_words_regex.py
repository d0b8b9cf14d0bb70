import pytest
from oracles import brute_force_segmentations, forward_word_count

from permfib import claims, regex
from permfib.errors import InvalidInputError, NotInLanguageError
from permfib.words import (
    ALPHABET,
    avoids_forbidden_factors,
    check_word,
    forbidden_factors,
    is_avoiding_block_word,
    is_block_word,
    iter_avoiding_block_words,
    iter_block_words,
    iter_words,
)


class TestCheckWord:
    @pytest.mark.parametrize("word", ["dabc", "abdc", "abcd", "abé", "aBc", "a c"])
    def test_symbol_outside_the_alphabet_rejected(self, word):
        with pytest.raises(InvalidInputError, match="only letters a, b, c"):
            check_word(word)

    @pytest.mark.parametrize("word", ["", "a", "cab", "abcabc"])
    def test_words_over_the_alphabet_returned(self, word):
        assert check_word(word) is word


class TestBlockWordForm:
    def test_examples(self):
        assert is_block_word("ca")
        assert is_block_word("caa")
        assert is_block_word("aca")
        assert not is_block_word("aac")  # no room for the closing a
        assert not is_block_word("ac")
        assert not is_block_word("")

    def test_forbidden_factor_tables(self):
        assert forbidden_factors(3) == ("bba", "bbb", "cba", "cbb")
        assert forbidden_factors(4) == ("bbba", "bbbb", "cbba", "cbbb")
        with pytest.raises(InvalidInputError):
            forbidden_factors(2)

    def test_forbidden_factors_are_built_once_per_m(self):
        assert forbidden_factors(5) is forbidden_factors(5)
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="m must be >= 3, got 2"):
                forbidden_factors(2)

    def test_prop7_builds_the_factors_of_each_m_once(self):
        """prop7 over 40 pattern lengths reads each m's factors from the
        cache after the first build, however many m it checks."""
        forbidden_factors.cache_clear()
        reports = claims.run(("prop7",), n_max=10, ms=tuple(range(3, 43)))
        assert all(report.passed for report in reports)
        assert forbidden_factors.cache_info().misses == 40

    def test_avoiding_examples(self):
        assert is_avoiding_block_word("aacbcccaaabbcacaaccc", 3)
        assert not is_avoiding_block_word("acba", 3)  # form holds, factor cba present
        assert is_block_word("acba")
        assert not is_avoiding_block_word("aac", 3)

    def test_definition_is_block_form_then_the_factors(self):
        for n in range(9):
            for w in iter_words(n):
                block = is_block_word(w)
                for m in range(3, 7):
                    assert is_avoiding_block_word(w, m) == (
                        block and avoids_forbidden_factors(w, m)
                    ), (w, m)

    @pytest.mark.parametrize("test", [avoids_forbidden_factors, is_avoiding_block_word])
    def test_m_below_three_raises_the_forbidden_factors_error(self, test):
        for m in (2, 0, -1):
            with pytest.raises(InvalidInputError) as expected:
                forbidden_factors(m)
            with pytest.raises(InvalidInputError) as raised:
                test("acbca", m)
            assert str(raised.value) == str(expected.value) == f"m must be >= 3, got {m}"

    def test_generator_agrees_with_predicate(self):
        for n in range(9):
            generated = sorted(iter_block_words(n))
            assert len(generated) == len(set(generated))
            assert generated == sorted(w for w in iter_words(n) if is_block_word(w))

    @pytest.mark.parametrize("m", (3, 4, 5, 6))
    def test_avoiding_generator_is_the_filtered_block_words_in_order(self, m):
        for n in range(11):
            expected = [w for w in iter_block_words(n) if is_avoiding_block_word(w, m)]
            assert list(iter_avoiding_block_words(n, m)) == expected

    def test_avoiding_generator_at_the_smallest_lengths(self):
        assert list(iter_avoiding_block_words(0, 3)) == []
        assert list(iter_avoiding_block_words(1, 3)) == []
        assert list(iter_avoiding_block_words(2, 3)) == ["ca"]

    def test_avoiding_generator_catches_a_factor_that_ends_in_the_mandatory_a(self):
        # cba is in no prefix c u, only across into the final a
        assert "cba" not in iter_avoiding_block_words(3, 3)
        assert "acbac" not in iter_avoiding_block_words(5, 3)

    def test_avoiding_generator_rejects_bad_sizes(self):
        with pytest.raises(InvalidInputError, match="n must be nonnegative"):
            list(iter_avoiding_block_words(-1, 3))
        with pytest.raises(InvalidInputError, match="m must be >= 3, got 2"):
            list(iter_avoiding_block_words(4, 2))


class TestRegexShapes:
    def test_core_notation(self):
        assert regex.format_ast(regex.core_regex()) == "a* c (c ∪ bc ∪ a⁺b ∪ a⁺c)*"

    def test_full_notation(self):
        assert (
            regex.format_ast(regex.block_word_regex(3))
            == "a* c (c ∪ bc ∪ a⁺b ∪ a⁺c)* a⁺ c*"
        )
        assert (
            regex.format_ast(regex.block_word_regex(4))
            == "a* c (b^{≤1}(c ∪ bc ∪ a⁺b ∪ a⁺c))* b^{≤1} a⁺ c*"
        )

    def test_m_below_three_rejected(self):
        with pytest.raises(InvalidInputError):
            regex.block_word_regex(2)


#: No accepting state: the language is empty at every length.
EMPTY_DFA = regex.Dfa(table=((0, 0, 0),), start=0, accepting=frozenset())
#: Start state 2: the words with no b and an odd number of a's; state 0 is dead.
ODD_A_DFA = regex.Dfa(
    table=((0, 0, 0), (2, 0, 1), (1, 0, 2)), start=2, accepting=frozenset({1})
)
AUTOMATA = [
    regex.core_dfa(), *(regex.block_word_dfa(m) for m in range(3, 7)), EMPTY_DFA, ODD_A_DFA,
]


class TestCompile:
    def test_single_literal(self):
        dfa = regex.compile_ast(regex.Lit("a"))
        assert dfa.accepts("a")
        assert not dfa.accepts("")
        assert not dfa.accepts("aa")
        assert not dfa.accepts("b")

    def test_union_star(self):
        dfa = regex.compile_ast(regex.Star(regex.alt(regex.Lit("a"), regex.Lit("b"))))
        assert dfa.accepts("")
        assert dfa.accepts("abba")
        assert not dfa.accepts("abca")

    def test_full_regex_on_smallest_word(self):
        dfa = regex.block_word_dfa(3)
        assert dfa.accepts("ca")
        assert is_avoiding_block_word("ca", 3)

    @pytest.mark.parametrize("word", ["xacca", "acxca", "accax", "x"])
    def test_bad_letter_reported_as_check_word_does(self, word):
        dfa = regex.block_word_dfa(3)
        with pytest.raises(InvalidInputError) as expected:
            check_word(word)
        with pytest.raises(InvalidInputError) as raised:
            dfa.accepts(word)
        assert str(raised.value) == str(expected.value)

    def test_agreement_with_backtracking(self):
        expressions = [
            regex.core_regex(),
            regex.block_word_regex(3),
            regex.block_word_regex(4),
            regex.block_word_regex(5),
        ]
        automata = [regex.compile_ast(e) for e in expressions]
        for n in range(8):
            for word in iter_words(n):
                for expression, dfa in zip(expressions, automata):
                    assert dfa.accepts(word) == regex.ast_matches(expression, word)

    def test_language_counts_match_enumeration(self):
        dfa = regex.core_dfa()
        for n in range(1, 9):
            words = list(dfa.language(n))
            assert len(words) == dfa.counts(n)[n]
            assert words == sorted(words)
            assert all(dfa.accepts(w) for w in words)

    @pytest.mark.parametrize("dfa", AUTOMATA)
    def test_language_is_the_sorted_accepted_words(self, dfa):
        for n in range(9):
            language = list(dfa.language(n))
            assert language == sorted(w for w in iter_words(n) if dfa.accepts(w))
            assert dfa.counts(n)[n] == len(language)

    @pytest.mark.parametrize("dfa", AUTOMATA)
    def test_counts_match_forward_path_counting(self, dfa):
        expected = [forward_word_count(dfa, n) for n in range(61)]
        for n in range(61):
            assert dfa.counts(n)[n] == expected[n], n
            assert dfa.counts(n) == expected[: n + 1], n

    def test_counts_refuses_a_negative_length(self):
        with pytest.raises(InvalidInputError, match="n must be nonnegative"):
            regex.core_dfa().counts(-1)

    def test_language_refuses_a_negative_length_when_read(self):
        walk = regex.core_dfa().language(-1)
        with pytest.raises(InvalidInputError):
            next(walk)

    def test_m3_language_inside_m4_language(self):
        d3, d4 = regex.block_word_dfa(3), regex.block_word_dfa(4)
        for n in range(1, 11):
            for word in d3.language(n):
                assert d4.accepts(word)


class TestProduct:
    @pytest.mark.parametrize(
        "dfas",
        [
            (regex.core_dfa(),),
            tuple(regex.block_word_dfa(m) for m in (3, 4, 5)),
            tuple(regex.block_word_dfa(m) for m in (3, 4, 5, 6)),
            (regex.block_word_dfa(3), EMPTY_DFA, ODD_A_DFA),
        ],
    )
    def test_each_component_verdict_is_that_automatons_accepts(self, dfas):
        table, verdicts = regex.product(dfas)
        assert len(verdicts) == len(table)
        for n in range(8):
            for word in iter_words(n):
                state = 0
                for letter in word:
                    state = table[state][ALPHABET.index(letter)]
                assert verdicts[state] == tuple(dfa.accepts(word) for dfa in dfas), word


class TestDefinitionMatchesRegex:
    def test_m3(self):
        dfa = regex.block_word_dfa(3)
        for n in range(1, 10):
            for word in iter_words(n):
                assert dfa.accepts(word) == is_avoiding_block_word(word, 3)

    @pytest.mark.parametrize("m", [4, 5])
    def test_general(self, m):
        dfa = regex.block_word_dfa(m)
        for n in range(1, 8):
            for word in iter_words(n):
                assert dfa.accepts(word) == is_avoiding_block_word(word, m)


class TestCoreSegments:
    def test_worked_example(self):
        assert regex.core_segments("aacbcccaaabbcac") == (
            "aac",
            "bc",
            "c",
            "c",
            "aaab",
            "bc",
            "ac",
        )

    def test_single_block(self):
        assert regex.core_segments("c") == ("c",)

    def test_three_blocks(self):
        assert regex.core_segments("accbc") == ("ac", "c", "bc")

    def test_not_in_language(self):
        with pytest.raises(NotInLanguageError):
            regex.core_segments("b")
        with pytest.raises(NotInLanguageError):
            regex.core_segments("caa")

    def test_unique_against_brute_force(self):
        dfa = regex.core_dfa()
        for n in range(1, 10):
            for word in dfa.language(n):
                segmentations = brute_force_segmentations(word)
                assert segmentations == [regex.core_segments(word)]

    def test_parse_counter_agrees(self):
        expression = regex.core_regex()
        dfa = regex.core_dfa()
        for n in range(1, 9):
            for word in iter_words(n):
                count = regex.count_parses(expression, word)
                assert (count == 1) == dfa.accepts(word)
                assert count <= 1


class TestSplitBlockWord:
    def test_worked_example(self):
        assert regex.split_block_word("aacbcccaaabbcacaaccc") == (
            3,
            15,
            "aacbcccaaabbcac",
        )

    def test_smallest(self):
        assert regex.split_block_word("ca") == (0, 1, "c")

    def test_absorbs_trailing_as(self):
        assert regex.split_block_word("caa") == (0, 1, "c")

    def test_not_in_language(self):
        with pytest.raises(NotInLanguageError):
            regex.split_block_word("aac")

    def test_round_trip(self):
        dfa = regex.block_word_dfa(3)
        core = regex.core_dfa()
        for n in range(2, 10):
            for word in dfa.language(n):
                j, k, z = regex.split_block_word(word)
                assert 1 <= k <= n - 1
                assert 0 <= j <= n - k - 1
                assert core.accepts(z)
                assert regex.reassemble_block_word(j, k, z, n) == word

    def test_reassemble_rejects_a_negative_c_run(self):
        # a negative c-run would make the word longer than n
        with pytest.raises(InvalidInputError, match="j must be >= 0"):
            regex.reassemble_block_word(-1, 1, "c", 3)

    def test_reassemble_rejects_a_core_outside_the_alphabet(self):
        with pytest.raises(InvalidInputError, match="only letters a, b, c"):
            regex.reassemble_block_word(0, 1, "x", 2)

    @pytest.mark.parametrize("core", ["a", "b", "cba", "ca"])
    def test_reassemble_rejects_a_core_that_is_not_a_core_word(self, core):
        # "a" would give "aa", which is no block word; "ca" ends in an a,
        # so the split would give back a shorter core
        with pytest.raises(NotInLanguageError, match="not a core word"):
            regex.reassemble_block_word(0, len(core), core, len(core) + 1)

    def test_full_regex_unambiguous(self):
        expression = regex.block_word_regex(3)
        dfa = regex.block_word_dfa(3)
        for n in range(1, 10):
            for word in iter_words(n):
                count = regex.count_parses(expression, word)
                assert (count == 1) == dfa.accepts(word)
                assert count <= 1
