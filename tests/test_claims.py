"""Parameter checks of the claim registry."""

import tracemalloc

import pytest
from oracles import per_word_prop7_mismatches

from permfib import claims, oracle, regex, words


def test_pattern_lengths_no_named_claim_reads_are_rejected():
    with pytest.raises(claims.UsageError, match="--m is read only by"):
        claims.validate(("theorem2", "prop8"), n_max=5, k_max=8, ms=(4,))
    claims.validate(("theorem2", "theorem1"), n_max=5, ms=(4,))
    claims.validate(("theorem2",), n_max=5)


@pytest.mark.parametrize(
    "names, ms, message",
    [
        (("theorem1", "theorem1"), None, "--claim theorem1 is given more than once"),
        (("theorem2", "prop8", "theorem2"), None, "--claim theorem2 is given more than once"),
        (("theorem1",), (3, 4, 3), "--m 3 is given more than once"),
    ],
)
def test_a_claim_or_pattern_length_given_twice_is_rejected(names, ms, message):
    with pytest.raises(claims.UsageError, match=f"^{message}$"):
        claims.validate(names, n_max=3, ms=ms)
    with pytest.raises(claims.UsageError, match=f"^{message}$"):
        claims.run(names, n_max=3, ms=ms)


def _prop7(monkeypatch, dfa, m):
    """Run prop7 at one m with ``dfa`` standing in for the block-word DFA."""
    monkeypatch.setattr(regex, "block_word_dfa", lambda _m: dfa)
    (report,) = claims._prop7(ms=(m,), n_max=6)
    return report


@pytest.mark.parametrize("m", (3, 4, 5))
def test_prop7_passes_at_every_bound(m):
    for n_max in range(1, 9):
        (report,) = claims._prop7(ms=(m,), n_max=n_max)
        assert report.passed, (m, n_max, report.counterexample)


def test_prop7_catches_a_dfa_that_accepts_a_forbidden_factor(monkeypatch):
    report = _prop7(monkeypatch, regex.block_word_dfa(4), 3)
    assert not report.passed
    assert report.counterexample == {"word": "cba", "dfa": True}


def test_prop7_catches_a_dfa_that_rejects_an_avoiding_word(monkeypatch):
    report = _prop7(monkeypatch, regex.block_word_dfa(3), 4)
    assert not report.passed
    assert report.counterexample == {"word": "cba", "dfa": False}


def test_prop7_catches_a_dfa_that_accepts_a_word_outside_block_form(monkeypatch):
    # The core language contains "c", which no block word of length 1 is,
    # so only the count check can see it.
    report = _prop7(monkeypatch, regex.core_dfa(), 3)
    assert not report.passed
    assert report.counterexample == {"word": "c", "dfa": True}


def test_prop7_reports_each_m_alone_from_the_shared_walk(monkeypatch):
    # m = 3 and m = 5 fail at different lengths, one by a word and one by
    # the count, while m = 4 is checked on past both.
    stand_ins = {3: regex.block_word_dfa(4), 4: regex.block_word_dfa(4), 5: regex.core_dfa()}
    monkeypatch.setattr(regex, "block_word_dfa", stand_ins.__getitem__)
    reports = list(claims._prop7(ms=(5, 3, 4), n_max=6))
    assert [r.params["m"] for r in reports] == [5, 3, 4]
    assert [r.counterexample for r in reports] == [
        {"word": "c", "dfa": True}, {"word": "cba", "dfa": True}, None
    ]
    for r in reports:
        (alone,) = claims._prop7(ms=(r.params["m"],), n_max=6)
        assert alone == r


def test_prop7_reports_a_word_whose_factor_test_is_flipped_at_every_m(monkeypatch):
    # "acbbca" has the order-3 factor cbb and none of order 4 to 6, so the
    # flipped test disagrees with a DFA that rejects it at m = 3 and with
    # one that accepts it at every larger m.
    real = words.avoids_forbidden_factors
    monkeypatch.setattr(
        words, "avoids_forbidden_factors", lambda word, m: real(word, m) != (word == "acbbca")
    )
    reports = list(claims._prop7(ms=(3, 4, 5, 6), n_max=7))
    assert [r.counterexample for r in reports] == [
        {"word": "acbbca", "dfa": m != 3} for m in (3, 4, 5, 6)
    ]


def test_prop7_tests_block_form_itself_on_generated_words(monkeypatch):
    first = next(word for n in range(1, 7) for word in words.iter_block_words(n))
    assert first == "ca"
    monkeypatch.setattr(words, "is_block_word", lambda word: False)
    reports = list(claims._prop7(ms=(3, 4, 5, 6), n_max=6))
    assert [r.counterexample for r in reports] == [{"word": first, "dfa": True}] * 4


B = regex.block_word_dfa


def walk(dfas, n):
    """``claims._prop7_mismatches`` at length n, given each DFA's path counts
    as ``claims._prop7`` gives them."""
    return claims._prop7_mismatches(dfas, n, {m: dfa.counts(n) for m, dfa in dfas.items()})


@pytest.mark.parametrize(
    "dfas",
    [
        # every DFA right
        {3: B(3)},
        {3: B(3), 4: B(4), 5: B(5)},
        {6: B(6), 4: B(4)},
        # one m fails by a word, one by the count, one passes
        {3: B(4), 4: B(4), 5: regex.core_dfa()},
        # the same with a second m failing by a word
        {3: B(4), 5: regex.core_dfa(), 4: B(3)},
        # every m fails, so the walk stops early
        {3: B(4), 4: B(3)},
        {3: B(5), 4: B(3), 5: B(3), 6: B(3)},
        {4: regex.core_dfa(), 3: B(4)},
    ],
)
def test_prop7_walk_matches_the_per_word_reference(dfas):
    for n in range(1, 11):
        assert walk(dfas, n) == per_word_prop7_mismatches(dfas, n), n


def test_prop7_walk_checks_every_block_word_in_generator_order(monkeypatch):
    real = words.is_block_word
    seen = []

    def record(word):
        seen.append(word)
        return real(word)

    monkeypatch.setattr(words, "is_block_word", record)
    for n in range(1, 10):
        seen.clear()
        assert walk({3: B(3), 5: B(5)}, n) == {}
        assert seen == list(words.iter_block_words(n)), n


def test_prop7_walk_keeps_no_word_text_levels():
    list(claims._prop7(ms=(3, 4, 5), n_max=5))  # compile the automata first
    tracemalloc.start()
    try:
        reports = list(claims._prop7(ms=(3, 4, 5), n_max=11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 512 * 1024, peak


def test_prop6_builds_no_s_n_level(monkeypatch):
    def refuse(*args):
        raise AssertionError("prop6 swept S_n")

    monkeypatch.setattr(oracle, "sweep", refuse)
    monkeypatch.setattr(oracle, "_levels", refuse)
    monkeypatch.setattr(oracle, "peakless", refuse)
    (report,) = claims.run(("prop6",), n_max=12)
    assert report.passed
    assert report.params == {"m": 3, "n_max": 12}


@pytest.mark.parametrize("m", (3, 4, 5, 6))
def test_prop6_passes_at_every_bound(m):
    for n_max in range(1, 9):
        (report,) = claims._prop6(ms=(m,), n_max=n_max)
        assert report.passed, report.counterexample


def test_prop6_is_bounded_by_its_own_cap_alone():
    claims.validate(("prop6",), n_max=13)
    with pytest.raises(claims.UsageError, match=r"^prop6: --n-max must be in 1\.\.13, got 14$"):
        claims.validate(("prop6",), n_max=14)


def test_sizes_no_named_claim_reads_are_rejected():
    """A size of None was not given and takes its default; a given one that
    no named claim reads is rejected, as on the command line."""
    with pytest.raises(claims.UsageError, match="^--n-max is read only by theorem1, theorem2,"):
        claims.validate(("gf3", "prop8"), n_max=5)
    with pytest.raises(claims.UsageError, match="^--k-max is read only by prop8$"):
        claims.run(("gf3",), k_max=5)
    claims.validate(("gf3", "prop8"), k_max=5)
    claims.validate(("theorem4",))
