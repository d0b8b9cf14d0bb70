"""The forward reference matcher and parse counter against the top-down
memoised references in ``oracles``, and against the DFA pipeline only
through the results they report; the compiled DFA against the reference
matcher on arbitrary syntax trees."""

import contextlib
import itertools
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import memo_count_parses, memo_match_ends

from permfib import regex
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
