"""The forward reference matcher and parse counter against the top-down
memoised references in ``oracles`` (and the counter against the bit-plane
reference there too), and against the DFA pipeline only through the results
they report; the compiled DFA against the reference matcher on arbitrary
syntax trees."""

import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import memo_count_parses, memo_match_ends, plane_count_parses, time_limit

from permfib import regex
from permfib.compositions import fib
from permfib.errors import InvalidInputError


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


syntax_trees = st.recursive(st.sampled_from("abc").map(regex.Lit), _extend, max_leaves=8)
short_words = st.text(alphabet="abc", max_size=7)


@settings(max_examples=400, deadline=None)
@given(syntax_trees, short_words)
def test_forward_evaluation_agrees_with_the_memoised_reference(node, word):
    with time_limit(1):
        for start in range(len(word) + 1):
            assert regex.match_ends(node, word, start) == memo_match_ends(node, word, start)
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
    nullable = regex.star(regex.up_to(regex.lit("a"), 1))
    with pytest.raises(InvalidInputError, match="non-nullable"):
        regex.count_parses(nullable, "a")
    # the concatenation dies at its first letter, so the star is never reached
    assert regex.count_parses(regex.seq(regex.lit("b"), nullable), "a") == 0


def test_match_ends_rejects_a_negative_start():
    with pytest.raises(InvalidInputError, match="start must be >= 0"):
        regex.match_ends(regex.core_regex(), "c", -1)


def test_match_ends_rejects_a_start_past_the_end_of_the_word():
    assert regex.match_ends(regex.star(regex.lit("a")), "ab", 2) == frozenset({2})
    with pytest.raises(InvalidInputError, match=r"start must be <= len\(word\) = 2, got 5"):
        regex.match_ends(regex.star(regex.lit("a")), "ab", 5)


A = regex.lit("a")

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
    shared = regex.Plus(regex.lit("a"))
    node = regex.Concat((shared, shared))
    assert regex.match_ends(node, "aaa", 0) == frozenset({2, 3})
    assert regex.count_parses(node, "aaa") == 2
    assert len(_distinct_nodes(node)) == 3
    # the compiled kernels cover the whole tree from its root, and the count
    # of 2 falls back to the weighted ends, which build no kernel
    assert kernel_builds == {(False, id(node)): 1, (True, id(node)): 1}
    assert id(shared) in fallback_nodes


def _star_nest(depth: int):
    """(b (b ... (b a c)* ... c)* c)*: a star nest ``depth`` deep, every body
    a concatenation, so every level is a loop of its own."""
    node = regex.lit("a")
    for _ in range(depth):
        node = regex.Star(regex.Concat((regex.lit("b"), node, regex.lit("c"))))
    return node


DEEP_AND_LONG = [
    (_star_nest(32), ["", "bac", "bbacc", "bbacbacc", "bacbac", "bbac", "b" * 32 + "a" + "c" * 32]),
    (regex.Repeat(regex.lit("b"), 1000), ["", "b", "bbbbbbbbbbbb", "bbab", "a"]),
    (regex.Repeat(regex.seq(regex.lit("b"), regex.lit("b")), 1000), ["", "bb", "b" * 12, "bbb"]),
]


@pytest.mark.parametrize("node, sample", DEEP_AND_LONG)
def test_deep_nests_and_long_repetitions_evaluate(node, sample):
    with time_limit(10):
        for word in sample:
            for start in range(len(word) + 1):
                assert regex.match_ends(node, word, start) == memo_match_ends(node, word, start)
            assert regex.count_parses(node, word) == memo_count_parses(node, word), word


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
    (lambda: regex.Plus(regex.Repeat(regex.lit("a"), 2)), "aa"),
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
    node = regex.lit("a")
    for _ in range(depth):
        node = regex.Star(regex.Concat((regex.lit("b"), node)))
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


@pytest.mark.parametrize("symbol", ["", "ab", "bc", "abc", "x", 1])
def test_a_literal_is_one_letter_of_the_alphabet(symbol):
    # a substring test let "", "ab", "bc" and "abc" through, which the
    # kernels then read as variable names
    with pytest.raises(InvalidInputError, match="literal must be one letter of 'abc'"):
        regex.Lit(symbol)


@pytest.mark.parametrize("most", [-1, 1.5, True, "2"])
def test_a_bounded_repetition_takes_an_int_most(most):
    with pytest.raises(InvalidInputError, match="needs an int most >= 0"):
        regex.Repeat(A, most)
