"""The registry of checkable claims behind ``permfib verify``.

Each claim has a name, its default pattern lengths, whether it sweeps S_n,
the caps on its size parameters, and a check taking explicit parameters
that yields one report per checked case.  :func:`validate`
rejects bad parameters before any work starts, and :func:`run` validates,
runs and times every report the same way.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from . import bijections, compositions, oracle, permutations, regex, series, tilings, words
from .errors import InvalidInputError
from .oracle import VerificationReport

#: Claims that sweep S_n refuse n-max beyond this without allow_large.
SAFE_N_MAX = 9


class UsageError(InvalidInputError):
    """A claim parameter or command-line argument outside its domain; the
    CLI reports it as a usage error."""


class Claim(NamedTuple):
    name: str
    check: Callable[..., Iterator[VerificationReport]]
    #: Pattern lengths checked when none are given; empty for claims that
    #: do not read m.  Every m a claim reads must be at least 3.
    default_ms: tuple[int, ...] = ()
    #: Whether the check sweeps S_n for every n up to n_max.
    sweeps: bool = False
    #: Largest n_max, and largest k_max, the check accepts; None: no cap.
    max_n: Optional[int] = None
    max_k: Optional[int] = None


def theorem1_counts(n: int, m: int, allow_large: bool = False) -> tuple[int, int]:
    """Enumerated peakless-inverse m-run avoiders, and the order-(m-1)
    Fibonacci number they should equal."""
    return oracle.count_ipk0_avoiders(n, m, allow_large=allow_large), compositions.fib(m - 1, n)


def theorem2_counts(n: int, allow_large: bool = False) -> tuple[int, int]:
    """Enumerated ilpk-one 3-run avoiders, and f(n-1) f(n) - floor((n+1)/2)."""
    expected = compositions.fib(2, n - 1) * compositions.fib(2, n) - (n + 1) // 2
    return oracle.count_ilpk1_avoiders(n, 3, allow_large=allow_large), expected


def _report(claim: str, params: dict[str, Any], counterexample: dict | None) -> VerificationReport:
    return VerificationReport(claim, params, counterexample is None, counterexample)


def _count_mismatch(expected_key: str, n_max: int, counts: Callable, *args) -> Optional[dict]:
    for n in range(1, n_max + 1):
        got, expected = counts(n, *args)
        if got != expected:
            return {"n": n, "count": got, expected_key: expected}
    return None


def _theorem1(*, ms, n_max, allow_large, **_) -> Iterator[VerificationReport]:
    for m in ms:
        counterexample = _count_mismatch("fibonacci", n_max, theorem1_counts, m, allow_large)
        yield _report("theorem1", {"m": m, "n_max": n_max}, counterexample)


def _theorem2(*, n_max, allow_large, **_) -> Iterator[VerificationReport]:
    counterexample = _count_mismatch("closed_form", n_max, theorem2_counts, allow_large)
    yield _report("theorem2", {"n_max": n_max}, counterexample)


def _theorem4(*, n_max, **_) -> Iterator[VerificationReport]:
    for n in range(1, n_max + 1):
        yield oracle.verify_descent_uniqueness(n)


def _corollaries(*, n_max, **_) -> Iterator[VerificationReport]:
    for n in range(1, n_max + 1):
        yield oracle.verify_corollaries(n)


def _prop6(*, ms, n_max, **_) -> Iterator[VerificationReport]:
    for m in ms:
        counterexample = None
        for n in range(1, n_max + 1):
            encoded = [
                bijections.block_word(permutations.Permutation(letters))
                for letters in oracle.sweep(n).n_shaped_avoiders(m)
            ]
            target = sorted(
                word
                for word in words.iter_block_words(n)
                if words.is_avoiding_block_word(word, m)
            )
            if len(encoded) != len(set(encoded)) or sorted(encoded) != target:
                counterexample = {
                    "n": n,
                    "encoded": len(set(encoded)),
                    "expected_words": len(target),
                }
                break
        yield _report("prop6", {"m": m, "n_max": n_max}, counterexample)


def _prop7(*, ms, n_max, **_) -> Iterator[VerificationReport]:
    """The DFA of the block-word expression accepts exactly the avoiding
    block words, at every length up to n_max.

    The definition rejects every word outside block form, so two checks per
    length cover all 3^n words: the DFA agrees with the definition on every
    block word, and the number of block words it accepts equals its path
    count ``count_words(n)``, so it accepts no other word.  A disagreement
    is reported as the first block word in ``iter_block_words`` order (run
    lengths first, then the middle), not the lexicographically first word;
    a count mismatch as the first non-block word of ``language(n)``, which
    is found only after every block word of that length agrees.
    """
    for m in ms:
        dfa = regex.block_word_dfa(m)
        counterexample = next(
            filter(None, (_prop7_mismatch(dfa, m, n) for n in range(1, n_max + 1))), None
        )
        expression = regex.format_ast(regex.block_word_regex(m))
        yield _report(
            "prop7", {"m": m, "n_max": n_max, "expression": expression}, counterexample
        )


def _prop7_mismatch(dfa: regex.Dfa, m: int, n: int) -> Optional[dict]:
    accepted = 0
    for word in words.iter_block_words(n):
        verdict = dfa.accepts(word)
        if verdict != words.is_avoiding_block_word(word, m):
            return {"word": word, "dfa": verdict}
        accepted += verdict
    if accepted == dfa.count_words(n):
        return None
    # The word is None only if the block-word walk or the path count is wrong.
    stray = next((word for word in dfa.language(n) if not words.is_block_word(word)), None)
    return {"word": stray, "dfa": True}


def _prop8(*, k_max, **_) -> Iterator[VerificationReport]:
    dfa = regex.core_dfa()
    counterexample = None
    for k in range(1, k_max + 1):
        by_dfa = dfa.count_words(k)
        by_tilings = sum(1 for _ in tilings.enumerate_tilings(k))
        expected = compositions.fib(2, k - 1) * compositions.fib(2, k)
        if not by_dfa == by_tilings == expected:
            counterexample = {
                "k": k,
                "dfa": by_dfa,
                "tilings": by_tilings,
                "fibonacci_product": expected,
            }
            break
    expression = regex.format_ast(regex.core_regex())
    yield _report("prop8", {"k_max": k_max, "expression": expression}, counterexample)


def _eq1(*, n_max, **_) -> Iterator[VerificationReport]:
    dfa = regex.block_word_dfa(3)
    counterexample = None
    for n in range(1, n_max + 1):
        lhs = dfa.count_words(n)
        rhs = sum(
            (n - k) * compositions.fib(2, k - 1) * compositions.fib(2, k) for k in range(1, n)
        )
        if lhs != rhs:
            counterexample = {"n": n, "word_count": lhs, "double_sum": rhs}
            break
    yield _report("eq1", {"n_max": n_max}, counterexample)
    yield oracle.verify_identity_sums(min(n_max * 4, 60))


def _gf_reports(claim: str, sides: Callable) -> Iterator[VerificationReport]:
    for m in (2, 3, 4):
        mismatch = series.first_mismatch(*sides(m, 7, 5))
        counterexample = None
        if mismatch is not None:
            n, i, left, right = mismatch
            counterexample = {"x_power": n, "t_power": i, "lhs": str(left), "rhs": str(right)}
        yield _report(claim, {"m": m, "x_order": 7, "t_order": 5}, counterexample)


def _gf3(**_) -> Iterator[VerificationReport]:
    v = series.t_substitution_inverse(3)
    yield VerificationReport(
        "gf3-substitution",
        {"coefficients": "1/4 1/8 5/64"},
        v.coeffs[1:] == (Fraction(1, 4), Fraction(1, 8), Fraction(5, 64)),
    )
    yield from _gf_reports("gf3", series.ipk_gf_sides)


def _gf5(**_) -> Iterator[VerificationReport]:
    yield from _gf_reports("gf5", series.ilpk_gf_sides)


def _gf_general(*, ms, n_max, allow_large, **_) -> Iterator[VerificationReport]:
    for m in ms:
        expansion = series.ilpk_one_ogf(m, n_max)
        dfa = regex.block_word_dfa(m)
        counterexample = None
        for n in range(1, n_max + 1):
            coefficient = expansion.coeffs[n]
            by_dfa = dfa.count_words(n)
            by_oracle = oracle.count_ilpk1_avoiders(n, m, allow_large=allow_large)
            if not coefficient == by_dfa == by_oracle:
                counterexample = {
                    "n": n,
                    "coefficient": str(coefficient),
                    "dfa": by_dfa,
                    "oracle": by_oracle,
                }
                break
        yield _report("gf-general", {"m": m, "n_max": n_max}, counterexample)


CLAIMS: dict[str, Claim] = {
    claim.name: claim
    for claim in (
        Claim("theorem1", _theorem1, (3, 4, 5), sweeps=True),
        Claim("theorem2", _theorem2, sweeps=True),
        Claim("theorem4", _theorem4, sweeps=True),
        Claim("corollaries", _corollaries, sweeps=True),
        Claim("prop6", _prop6, (3,), sweeps=True),
        Claim("prop7", _prop7, (3,), max_n=12),
        Claim("prop8", _prop8, max_k=12),
        Claim("eq1", _eq1),
        Claim("gf3", _gf3),
        Claim("gf5", _gf5),
        Claim("gf-general", _gf_general, (3, 4), sweeps=True),
    )
}


def validate(
    names: Iterable[str], *, n_max: int, k_max: Optional[int] = None,
    ms: Optional[tuple[int, ...]] = None, allow_large: bool = False,
) -> None:
    """Raise UsageError unless every named claim accepts these parameters.

    ``ms`` of None stands for each claim's default pattern lengths, and
    ``k_max`` of None for a width bound that was not given.  Pattern lengths
    that no named claim reads are rejected, not ignored.
    """
    names = tuple(names)
    if n_max < 1:
        raise UsageError("--n-max must be >= 1")
    if ms is not None and not any(CLAIMS[name].default_ms for name in names):
        readers = ", ".join(name for name, claim in CLAIMS.items() if claim.default_ms)
        raise UsageError(f"--m is read only by {readers}")
    for name in names:
        claim = CLAIMS[name]
        if claim.sweeps:
            if n_max > SAFE_N_MAX and not allow_large:
                raise UsageError(
                    f"--n-max {n_max} exceeds the safe bound {SAFE_N_MAX}; "
                    "pass --unsafe-large-n to proceed"
                )
            cap = permutations.enumeration_cap()
            if n_max > cap:
                raise UsageError(
                    f"--n-max {n_max} exceeds the enumeration cap {cap} "
                    "(set PERMFIB_MAX_N to raise it)"
                )
        if claim.default_ms and min(ms or claim.default_ms) < 3:
            raise UsageError(f"{name}: --m must be >= 3, got {min(ms or claim.default_ms)}")
        for option, value, high in ("--n-max", n_max, claim.max_n), ("--k-max", k_max, claim.max_k):
            if high is not None and (value is None or not 1 <= value <= high):
                raise UsageError(f"{name}: {option} must be in 1..{high}, got {value}")


def run(
    names: Iterable[str], *, n_max: int, k_max: int,
    ms: Optional[tuple[int, ...]] = None, allow_large: bool = False,
) -> list[VerificationReport]:
    """Validate every named claim, then run them in order.

    Each report's millis is the time since the previous report of its
    claim, or since the claim started.
    """
    names = tuple(names)
    validate(names, n_max=n_max, k_max=k_max, ms=ms, allow_large=allow_large)
    reports = []
    for name in names:
        claim = CLAIMS[name]
        started = time.monotonic()
        for report in claim.check(
            ms=ms or claim.default_ms, n_max=n_max, k_max=k_max, allow_large=allow_large
        ):
            now = time.monotonic()
            report.millis = int((now - started) * 1000)
            started = now
            reports.append(report)
    return reports
