"""Parameter checks of the claim registry."""

import pytest

from permfib import claims, regex


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
        claims.validate(names, n_max=3, k_max=3, ms=ms)
    with pytest.raises(claims.UsageError, match=f"^{message}$"):
        claims.run(names, n_max=3, k_max=3, ms=ms)


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
