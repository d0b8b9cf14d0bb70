"""The forward reference matcher and parse counter against the top-down
memoised references in ``oracles``, and against the DFA pipeline only
through the results they report; the compiled DFA against the reference
matcher on arbitrary syntax trees."""

import collections
import contextlib
import itertools
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import memo_count_parses, memo_match_ends

from permfib import regex
from permfib.compositions import fib
from permfib.errors import InvalidInputError


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Fail, rather than hang, when an evaluation does not terminate."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        # no traceback: the interrupted frame may have no line number
        pytest.fail(f"evaluation ran longer than {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    with _time_limit(1):
        for start in range(len(word) + 1):
            assert regex.match_ends(node, word, start) == memo_match_ends(node, word, start)
        assert regex.ast_matches(node, word) == (len(word) in memo_match_ends(node, word, 0))
        try:
            expected = memo_count_parses(node, word)
        except InvalidInputError:
            with pytest.raises(InvalidInputError, match="non-nullable"):
                regex.count_parses(node, word)
        else:
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

#: Expressions whose parse counts on a^n need many bit planes, with the
#: closed form of each count.
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
        assert regex.count_parses(node, "a" * n) == memo_count_parses(node, "a" * n), n


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
    """Counts the kernel builds, by (builder name, node id)."""
    builds = collections.Counter()
    for name in ("_ends_kernel", "_ways_kernel"):

        def counted(node, build=getattr(regex, name), name=name):
            builds[name, id(node)] += 1
            return build(node)

        monkeypatch.setattr(regex, name, counted)
    return builds


@pytest.mark.parametrize("make", [regex.core_regex, lambda: regex.block_word_regex(5)])
def test_kernels_are_built_once_per_node_object(kernel_builds, make):
    node = make()  # fresh node objects, with no kernel yet
    names = ("_ends_kernel", "_ways_kernel")
    once = collections.Counter({(name, key): 1 for key in _distinct_nodes(node) for name in names})
    for word in ("aacbc", "b", "aacbcccaaabbcacaaccc"):
        regex.ast_matches(node, word)
        regex.count_parses(node, word)
        assert kernel_builds == once


def test_a_shared_subtree_gets_one_kernel(kernel_builds):
    shared = regex.Plus(regex.lit("a"))
    node = regex.Concat((shared, shared))
    assert regex.match_ends(node, "aaa", 0) == frozenset({2, 3})
    assert regex.count_parses(node, "aaa") == 2
    assert len(_distinct_nodes(node)) == 3
    assert kernel_builds[("_ends_kernel", id(shared))] == 1
    assert kernel_builds[("_ways_kernel", id(shared))] == 1
    assert sum(kernel_builds.values()) == 6


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
