"""The forward reference matcher and parse counter against the top-down
memoised references in ``oracles`` (and the counter against the bit-plane
reference there too), and against the DFA pipeline only through the results
they report; the compiled DFA against the reference matcher on arbitrary
syntax trees."""

import collections
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _memo_parse_ways,
    memo_count_parses,
    memo_match_ends,
    plane_count_parses,
    time_limit,
)

from permfib import regex
from permfib.compositions import fib
from permfib.errors import InvalidInputError
from permfib.words import check_word


def _extend(children):
    """One more level of syntax tree: every node kind, including a node whose
    parts are one shared subtree object, Repeat(most=0) and (through nesting)
    nullable star and plus bodies."""
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda parts: regex.Concat(tuple(parts))),
        st.lists(children, min_size=2, max_size=3).map(lambda options: regex.Union(tuple(options))),
        children.map(regex.Star),
        children.map(regex.Plus),
        st.builds(regex.Repeat, children, st.integers(0, 3)),
        children.map(lambda shared: regex.Concat((shared, shared))),
        children.map(lambda shared: regex.Concat((shared, regex.Star(shared)))),
    )


def kernel_ends(node, word: str, start: int) -> frozenset[int]:
    """The positions where a match of ``node`` from ``start`` may end, read
    from the bitset of its compiled matcher kernel."""
    return _bit_positions(node._kernel(word, 1 << start))


def _bit_positions(bits: int) -> frozenset[int]:
    return frozenset(i for i in range(bits.bit_length()) if bits >> i & 1)


syntax_trees = st.recursive(st.sampled_from("abc").map(regex.Lit), _extend, max_leaves=8)
short_words = st.text(alphabet="abc", max_size=7)


@settings(max_examples=400, deadline=None)
@given(syntax_trees, short_words)
def test_forward_evaluation_agrees_with_the_memoised_reference(node, word):
    with time_limit(1):
        for start in range(len(word) + 1):
            assert kernel_ends(node, word, start) == memo_match_ends(node, word, start)
        assert regex.ast_matches(node, word) == (len(word) in memo_match_ends(node, word, 0))
        _assert_counts_agree(node, word)


def _assert_counts_agree(node, word):
    """count_parses equals both references, or raises the nullable-body
    error where both of them do."""
    try:
        expected = memo_count_parses(node, word)
    except InvalidInputError:
        for count in (plane_count_parses, regex.count_parses):
            with pytest.raises(InvalidInputError, match="non-nullable"):
                count(node, word)
    else:
        assert plane_count_parses(node, word) == expected
        assert regex.count_parses(node, word) == expected


WORDS_UP_TO_5 = [
    "".join(letters) for n in range(6) for letters in itertools.product("abc", repeat=n)
]


@settings(max_examples=300, deadline=None)
@given(syntax_trees)
def test_compiled_dfa_agrees_with_the_reference_on_arbitrary_trees(node):
    dfa = regex.compile_ast(node)
    for word in WORDS_UP_TO_5:
        assert dfa.accepts(word) == regex.ast_matches(node, word), word


def test_nullable_body_raises_only_when_reached():
    nullable = regex.Star(regex.Repeat(regex.Lit("a"), 1))
    with pytest.raises(InvalidInputError, match="non-nullable"):
        regex.count_parses(nullable, "a")
    # the concatenation dies at its first letter, so the star is never reached
    assert regex.count_parses(regex.seq(regex.Lit("b"), nullable), "a") == 0


A = regex.Lit("a")

#: Expressions whose parse counts on a^n grow exponentially (many bit planes
#: in the plane reference), with the closed form of each count.
MANY_PLANES = [
    (regex.Star(regex.Union((A, A))), lambda n: 2**n),
    # three addends per step, so the ripple carries across planes
    (regex.Star(regex.Union((A, A, A))), lambda n: 3**n),
    # compositions of n into parts 1 and 2
    (regex.Plus(regex.Union((A, regex.Concat((A, A))))), lambda n: fib(2, n) if n else 0),
]


@pytest.mark.parametrize("node, closed_form", MANY_PLANES)
def test_counts_of_many_bit_planes_match_the_closed_forms(node, closed_form):
    for n in range(41):
        assert regex.count_parses(node, "a" * n) == closed_form(n), n
    for n in range(9):
        _assert_counts_agree(node, "a" * n)


def _distinct_nodes(node) -> dict[int, object]:
    """Every node object of the tree by id, a shared subtree once."""
    if isinstance(node, regex.Lit):
        children = ()
    elif isinstance(node, regex.Concat):
        children = node.parts
    elif isinstance(node, regex.Union):
        children = node.options
    else:
        children = (node.inner,)
    found = {id(node): node}
    for child in children:
        found.update(_distinct_nodes(child))
    return found


@pytest.fixture
def kernel_builds(monkeypatch):
    """Counts the compiled kernel builds by (strict, node id)."""
    builds = collections.Counter()
    build_kernel = regex._build_kernel

    def counted_kernel(node, strict):
        builds[strict, id(node)] += 1
        return build_kernel(node, strict)

    monkeypatch.setattr(regex, "_build_kernel", counted_kernel)
    return builds


@pytest.fixture
def fallback_nodes(monkeypatch):
    """The ids of the nodes that the weighted-ends fallback visits."""
    visited = []
    weighted_ends = regex._weighted_ends

    def recorded(node, *args):
        visited.append(id(node))
        return weighted_ends(node, *args)

    monkeypatch.setattr(regex, "_weighted_ends", recorded)
    return visited


@pytest.mark.parametrize("make", [regex.core_regex, lambda: regex.block_word_regex(5)])
def test_kernels_are_built_once_per_node_object(kernel_builds, make):
    node = make()  # fresh node objects, with no kernel yet
    # m = 5 parses "bbc" as padding b then segment bc, or as padding bb
    # then c, so its counts also take the fallback, which builds nothing
    words = ("aacbc", "b", "aacbcccaaabbcacaaccc", "cbbcbcac")
    for word in words:
        regex.ast_matches(node, word)
        regex.count_parses(node, word)
    # one compiled kernel of each variant, for the root
    built = collections.Counter(kernel_builds)
    assert built == {(strict, id(node)): 1 for strict in (False, True)}
    for word in words:
        regex.ast_matches(node, word)
        regex.count_parses(node, word)
    assert kernel_builds == built


def test_a_shared_subtree_gets_one_kernel(kernel_builds, fallback_nodes):
    shared = regex.Plus(regex.Lit("a"))
    node = regex.Concat((shared, shared))
    assert kernel_ends(node, "aaa", 0) == frozenset({2, 3})
    assert regex.count_parses(node, "aaa") == 2
    assert len(_distinct_nodes(node)) == 3
    # the compiled kernels cover the whole tree from its root, and the count
    # of 2 falls back to the weighted ends, which build no kernel
    assert kernel_builds == {(False, id(node)): 1, (True, id(node)): 1}
    assert id(shared) in fallback_nodes


def _star_nest(depth: int):
    """(b (b ... (b a c)* ... c)* c)*: a star nest ``depth`` deep, every body
    a concatenation, so every level is a loop of its own."""
    node = regex.Lit("a")
    for _ in range(depth):
        node = regex.Star(regex.Concat((regex.Lit("b"), node, regex.Lit("c"))))
    return node


DEEP_AND_LONG = [
    (_star_nest(32), ["", "bac", "bbacc", "bbacbacc", "bacbac", "bbac", "b" * 32 + "a" + "c" * 32]),
    (regex.Repeat(regex.Lit("b"), 1000), ["", "b", "bbbbbbbbbbbb", "bbab", "a"]),
    (regex.Repeat(regex.seq(regex.Lit("b"), regex.Lit("b")), 1000), ["", "bb", "b" * 12, "bbb"]),
]


@pytest.mark.parametrize("node, sample", DEEP_AND_LONG)
def test_deep_nests_and_long_repetitions_evaluate(node, sample):
    with time_limit(10):
        for word in sample:
            for start in range(len(word) + 1):
                assert kernel_ends(node, word, start) == memo_match_ends(node, word, start)
            assert regex.count_parses(node, word) == memo_count_parses(node, word), word


WORDS_UP_TO_7 = [
    "".join(letters) for n in range(8) for letters in itertools.product("abc", repeat=n)
]


def _long_b_runs():
    """b-runs of 70 and 1000 letters, whole and broken in the middle by a or c."""
    for length in (70, 1000):
        half = length // 2
        yield "b" * length
        for breaker in "ac":
            yield "b" * half + breaker + "b" * (length - half - 1)


def strict_kernel_ends(node, word: str) -> frozenset[int] | None:
    """The ends from position 0 of the strict kernel, or None where it finds
    two derivations that end at one position."""
    try:
        return _bit_positions(node._strict_kernel(word))
    except regex._Overlap:
        return None


@pytest.mark.parametrize("most", [*range(10), 63, 64, 65, 997])
def test_a_bounded_repetition_of_one_letter_evaluates_in_closed_form(most):
    repeat = regex.Repeat(regex.Lit("b"), most)
    nodes = (repeat, regex.Star(repeat), regex.Concat((repeat, repeat)))
    # The kernels only move forward, so the ends from a start s are those of
    # the word's suffix from s, shifted by s: position 0 of every short word
    # covers every start of every shorter one.  The long runs add the shift.
    for word in [*WORDS_UP_TO_7, *_long_b_runs()]:
        # the memos, keyed by node object and start, serve all three trees
        ends_memo: dict = {}
        ways_memo: dict = {}
        starts = (0,) if len(word) <= 7 else (0, 1, len(word) // 2, len(word))
        for node in nodes:
            for start in starts:
                expected = memo_match_ends(node, word, start, ends_memo)
                assert kernel_ends(node, word, start) == expected
            try:
                ways = _memo_parse_ways(node, word, 0, ways_memo)
            except InvalidInputError:
                # a nullable star body: infinitely many derivations
                assert strict_kernel_ends(node, word) is None
                with pytest.raises(InvalidInputError, match="non-nullable"):
                    regex.count_parses(node, word)
                continue
            assert regex.count_parses(node, word) == ways.get(len(word), 0)
            # in these trees every overlap of two derivations lasts to the ends
            if any(count > 1 for count in ways.values()):
                assert strict_kernel_ends(node, word) is None
            else:
                assert strict_kernel_ends(node, word) == frozenset(ways)


WORDS_UP_TO_8 = [
    "".join(letters) for n in range(9) for letters in itertools.product("abc", repeat=n)
]


@pytest.mark.parametrize("make", [regex.core_regex, regex.block_word_regex])
def test_unambiguous_expressions_count_on_the_strict_kernel_alone(monkeypatch, make):
    def unavailable(*args):
        raise AssertionError("an unambiguous expression reached the fallback")

    monkeypatch.setattr(regex, "_weighted_ends", unavailable)
    node = make()
    for word in WORDS_UP_TO_8:
        assert regex.count_parses(node, word) == memo_count_parses(node, word), word
    # every accepted word up to the length of the word-sweep parse check
    dfa = regex.compile_ast(node)
    for n in range(9, 11):
        for word in dfa.language(n):
            assert regex.count_parses(node, word) == 1, word


FALLBACKS = [
    # (a maker of fresh node objects, word); first the MANY_PLANES trees
    (lambda: regex.Star(regex.Union((A, A))), "aa"),
    (lambda: regex.Star(regex.Union((A, A, A))), "aaaaa"),
    (lambda: regex.Plus(regex.Union((A, regex.Concat((A, A))))), "aaaaa"),
    (lambda: regex.block_word_regex(4), "cbca"),
    # a^{≤1} a^{≤1} on "a": a then nothing, or nothing then a
    (lambda: regex.Concat((regex.Repeat(A, 1), regex.Repeat(A, 1))), "a"),
    (lambda: regex.block_word_regex(5), "cbbcbcac"),
    # a nullable body adds its starts to themselves before the error
    (lambda: regex.Plus(regex.Repeat(regex.Lit("a"), 2)), "aa"),
    (lambda: regex.Star(regex.Star(regex.Concat((A, A)))), "aaaa"),
]


@pytest.mark.parametrize("make, word", FALLBACKS)
def test_overlapping_derivations_fall_back_to_the_bit_planes(fallback_nodes, make, word):
    # the fallback runs weighted ends; the bit planes are the reference's
    node = make()
    _assert_counts_agree(node, word)
    assert id(node) in fallback_nodes


def _ambiguous_star_nest(depth: int):
    """(b (b ... (b a)* ...)*)*: ``depth`` nested stars, every body a
    concatenation, which parse b^k a in many ways once k > depth."""
    node = regex.Lit("a")
    for _ in range(depth):
        node = regex.Star(regex.Concat((regex.Lit("b"), node)))
    return node


def test_an_ambiguous_star_nest_counts_in_polynomial_time():
    # no plane reference here: it reruns each star on every frontier, (n + 1)^d
    node = _ambiguous_star_nest(32)
    word = "b" * 39 + "a"
    with time_limit(1):
        count = regex.count_parses(node, word)
    assert count == memo_count_parses(node, word) == 30_311_259


WORKED_EXAMPLES = [
    # (expression, word, matches, parses)
    (regex.core_regex(), "aacbcccaaabbcac", True, 1),
    (regex.core_regex(), "b", False, 0),
    (regex.block_word_regex(3), "aacbcccaaabbcacaaccc", True, 1),
    (regex.block_word_regex(3), "aac", False, 0),
    (regex.block_word_regex(3), "ca", True, 1),
    (regex.block_word_regex(4), "cbca", True, 2),
]


@pytest.mark.parametrize("node, word, matches, parses", WORKED_EXAMPLES)
def test_reference_does_not_use_the_automaton_pipeline(monkeypatch, node, word, matches, parses):
    def unavailable(*args, **kwargs):
        raise AssertionError("the reference must not build an automaton")

    for name in ("compile_ast", "_positions", "Dfa", "core_dfa", "block_word_dfa"):
        monkeypatch.setattr(regex, name, unavailable)
    assert regex.ast_matches(node, word) is matches
    assert regex.count_parses(node, word) == parses


def test_block_word_regex_is_ambiguous_from_m_4():
    # "cbca" parses as padding b then segment c, or as segment bc; the
    # language is still right, since the automaton counts words, not parses
    assert regex.count_parses(regex.block_word_regex(4), "cbca") == 2
    assert regex.block_word_dfa(4).accepts("cbca")
    assert regex.count_parses(regex.block_word_regex(3), "cbca") == 1


@pytest.mark.parametrize("symbol", ["", "ab", "bc", "abc", "d", "x", 1])
def test_a_literal_is_one_letter_of_the_alphabet(symbol):
    # a substring test let "", "ab", "bc" and "abc" through, which the
    # kernels then read as variable names
    message = f"literal must be one letter of 'abc', got {symbol!r}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        regex.Lit(symbol)


@pytest.mark.parametrize("word", ["abd", "A", "é", "\ud800"])
@pytest.mark.parametrize("reference", [regex.ast_matches, regex.count_parses])
def test_a_word_outside_the_alphabet_gets_the_word_check_message(reference, word):
    # the kernel checks the alphabet itself, so the message must stay check_word's
    with pytest.raises(InvalidInputError) as expected:
        check_word(word)
    for node in (regex.core_regex(), A, regex.Star(regex.Concat((A, A)))):
        with pytest.raises(InvalidInputError) as raised:
            reference(node, word)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("most", [-1, 1.5, True, "2"])
def test_a_bounded_repetition_takes_an_int_most(most):
    message = f"bounded repetition needs an int most >= 0, got {most!r}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        regex.Repeat(A, most)
