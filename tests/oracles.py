"""Tiny independent oracles, and a time guard, shared between test modules."""

import contextlib
import itertools
import signal
from collections import Counter
from fractions import Fraction
from typing import Iterator, NamedTuple

import pytest

from permfib import regex, words
from permfib.errors import InvalidInputError
from permfib.series import TruncatedSeries


@contextlib.contextmanager
def time_limit(seconds: float):
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


def brute_force_segmentations(word: str) -> list[tuple[str, ...]]:
    """All ways to cut a word into blocks c | bc | a..ab | a..ac with the
    first block matching a* c.  Written without the regex machinery so it can
    stand as an independent check of the greedy segmentation."""
    results: list[tuple[str, ...]] = []

    def blocks_from(position: int, acc: list[str]) -> None:
        if position == len(word):
            results.append(tuple(acc))
            return
        remaining = word[position:]
        options = []
        if remaining.startswith("c"):
            options.append("c")
        if remaining.startswith("bc"):
            options.append("bc")
        run = 0
        while run < len(remaining) and remaining[run] == "a":
            run += 1
        if run >= 1 and run < len(remaining) and remaining[run] in "bc":
            options.append(remaining[: run + 1])
        for option in options:
            blocks_from(position + len(option), acc + [option])

    lead = 0
    while lead < len(word) and word[lead] == "a":
        lead += 1
    if lead < len(word) and word[lead] == "c":
        blocks_from(lead + 1, [word[: lead + 1]])
    return results


# ---------------------------------------------------------------------------
# Permutation statistics by direct loops, without permfib.permutations, so
# they stand as an independent reference for the S_n sweep and the
# descent-pair matrix.


def inverse(letters):
    out = [0] * len(letters)
    for position, value in enumerate(letters, start=1):
        out[value - 1] = position
    return tuple(out)


def rise_bits(values):
    return tuple(a < b for a, b in zip(values, values[1:]))


def ascending_runs(values):
    """Lengths of the maximal ascending runs, in order."""
    runs = [1]
    for rise in rise_bits(values):
        if rise:
            runs[-1] += 1
        else:
            runs.append(1)
    return tuple(runs)


def longest_run(values, rising):
    best = run = 1
    for rise in rise_bits(values):
        run = run + 1 if rise == rising else 1
        best = max(best, run)
    return best


def peaks(values):
    return sum(1 for a, b, c in zip(values, values[1:], values[2:]) if a < b > c)


def left_peaks(values):
    return peaks(values) + int(len(values) > 1 and values[0] > values[1])


def descent_positions(values):
    return tuple(i for i, (a, b) in enumerate(zip(values, values[1:]), start=1) if a > b)


def peak_positions(values):
    triples = zip(values, values[1:], values[2:])
    return tuple(i for i, (a, b, c) in enumerate(triples, start=2) if a < b > c)


def valley_positions(values):
    triples = zip(values, values[1:], values[2:])
    return tuple(i for i, (a, b, c) in enumerate(triples, start=2) if a > b < c)


def left_peak_positions(values):
    """Peaks, plus position 1 when the values start with a fall."""
    return (1,) * (len(values) > 1 and values[0] > values[1]) + peak_positions(values)


def right_peaks(values):
    """Peaks, plus one when the values end with a rise."""
    return peaks(values) + int(len(values) > 1 and values[-2] < values[-1])


def right_valley_positions(values):
    """Valleys, plus position n when the values end with a fall."""
    last = (len(values),) * (len(values) > 1 and values[-2] > values[-1])
    return valley_positions(values) + last


def is_up_down(values, rising_first):
    """True when the rise bits alternate, the first one being ``rising_first``."""
    return all(rise == (rising_first == (i % 2 == 0)) for i, rise in enumerate(rise_bits(values)))


class Record(NamedTuple):
    letters: tuple[int, ...]
    up: int  # longest ascending run
    down: int  # longest descending run
    ipk: int
    ilpk: int
    lpk: int
    inverse_down: int  # longest descending run of the inverse


def permutation_records(n: int) -> Iterator[Record]:
    """The statistics the S_n sweep tallies, for every permutation of 1..n."""
    for letters in itertools.permutations(range(1, n + 1)):
        inv = inverse(letters)
        yield Record(
            letters,
            longest_run(letters, True),
            longest_run(letters, False),
            peaks(inv),
            left_peaks(inv),
            left_peaks(letters),
            longest_run(inv, False),
        )


def descent_pair_counts(n: int) -> Counter:
    """Permutations of 1..n by (ascending runs, the inverse's ascending runs)."""
    return Counter(
        (ascending_runs(letters), ascending_runs(inverse(letters)))
        for letters in itertools.permutations(range(1, n + 1))
    )


# ---------------------------------------------------------------------------
# prop7's check one word and one automaton at a time: each block word of
# iter_block_words goes through every DFA's accepts, with no product
# automaton and no shared prefix.  It stands as a reference for
# claims._prop7_mismatches.


def per_word_prop7_mismatches(dfas: dict, n: int) -> dict[int, dict]:
    """The counterexample of length n of each m whose DFA has one."""
    mismatches: dict[int, dict] = {}
    accepted = dict.fromkeys(dfas, 0)
    checking = list(dfas.items())
    for word in words.iter_block_words(n):
        block = words.is_block_word(word)
        for m, dfa in checking:
            verdict = dfa.accepts(word)
            if verdict != (block and words.avoids_forbidden_factors(word, m)):
                mismatches[m] = {"word": word, "dfa": verdict}
                checking = [entry for entry in checking if entry[0] != m]
            accepted[m] += verdict
        if not checking:
            break
    for m, dfa in checking:
        if accepted[m] != dfa.count_words(n):
            stray = next((word for word in dfa.language(n) if not words.is_block_word(word)), None)
            mismatches[m] = {"word": stray, "dfa": True}
    return mismatches


# ---------------------------------------------------------------------------
# Schoolbook series kernels: O(order^2) loops that touch every coefficient,
# zero or not.  They stand as a reference for TruncatedSeries.__mul__, invert
# and sqrt.


def dense_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    size = min(len(a.coeffs), len(b.coeffs))
    a, b = a.coeffs[:size], b.coeffs[:size]
    return TruncatedSeries(
        tuple(sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(size))
    )


def dense_invert(s: TruncatedSeries) -> TruncatedSeries:
    a = s.coeffs
    b0 = 1 / a[0]
    out = [b0]
    for n in range(1, len(a)):
        acc = sum((a[i] * out[n - i] for i in range(1, n + 1)), Fraction(0))
        out.append(-b0 * acc)
    return TruncatedSeries(tuple(out))


def dense_sqrt(s: TruncatedSeries) -> TruncatedSeries:
    """The root with constant term 1, from s^2 = a read at each power."""
    a = s.coeffs
    assert a[0] == 1
    out = [Fraction(1)]
    for n in range(1, len(a)):
        acc = a[n] - sum((out[i] * out[n - i] for i in range(1, n)), Fraction(0))
        out.append(acc * Fraction(1, 2))
    return TruncatedSeries(tuple(out))


# ---------------------------------------------------------------------------
# Dense closed-form expansions: numerator and denominator held as full lists
# of length about m, expanded by the schoolbook kernels above.  They stand as
# a reference for series.fibonacci_ogf and series.ilpk_one_ogf.


def dense_fibonacci_ogf(m: int, order: int) -> TruncatedSeries:
    denominator = [0] * (m + 1)
    denominator[0] = 1
    denominator[1] = -2
    denominator[m] += 1
    return _dense_rational([1, -1], denominator, order)


def dense_ilpk_one_ogf(m: int, order: int) -> TruncatedSeries:
    numerator = [0] * (m + 1)
    numerator[2] -= 1
    numerator[m] += 1
    factor = [0] * (m + 2)
    factor[0] = -1
    factor[1] = 3
    factor[m] -= 3
    factor[m + 1] += 1
    denominator = [0] * (len(factor) + 2)
    for i, x in enumerate((1, -2, 1)):
        for j, y in enumerate(factor):
            denominator[i + j] += x * y
    return _dense_rational(numerator, denominator, order)


def _dense_rational(numerator: list, denominator: list, order: int) -> TruncatedSeries:
    def padded(values: list) -> TruncatedSeries:
        values = [Fraction(v) for v in values] + [Fraction(0)] * (order + 1)
        return TruncatedSeries(tuple(values[: order + 1]))

    return dense_mul(padded(numerator), dense_invert(padded(denominator)))


# ---------------------------------------------------------------------------
# Top-down memoised regex references: one start position at a time, memo
# keyed by (node, start).  They stand as a reference for the forward
# position-set evaluation of regex.match_ends, ast_matches and count_parses.


def memo_match_ends(node, word: str, start: int, memo=None) -> frozenset[int]:
    if memo is None:
        memo = {}
    key = (id(node), start)
    if key in memo:
        return memo[key]
    if isinstance(node, regex.Lit):
        ok = start < len(word) and word[start] == node.symbol
        ends = frozenset((start + 1,)) if ok else frozenset()
    elif isinstance(node, regex.Concat):
        current = {start}
        for part in node.parts:
            current = {e for s in current for e in memo_match_ends(part, word, s, memo)}
        ends = frozenset(current)
    elif isinstance(node, regex.Union):
        ends = frozenset(
            e for option in node.options for e in memo_match_ends(option, word, start, memo)
        )
    elif isinstance(node, (regex.Star, regex.Plus)):
        frontier = set(memo_match_ends(node.inner, word, start, memo))
        many = set(frontier)
        while frontier:
            frontier = {
                e
                for s in frontier
                for e in memo_match_ends(node.inner, word, s, memo)
                if e not in many
            }
            many |= frontier
        if isinstance(node, regex.Star):
            many.add(start)
        ends = frozenset(many)
    elif isinstance(node, regex.Repeat):
        current = {start}
        reached = {start}
        for _ in range(node.most):
            current = {e for s in current for e in memo_match_ends(node.inner, word, s, memo)}
            reached |= current
        ends = frozenset(reached)
    else:
        raise TypeError(f"not a regex node: {node!r}")
    memo[key] = ends
    return ends


def memo_count_parses(node, word: str) -> int:
    return _memo_parse_ways(node, word, 0, {}).get(len(word), 0)


def _memo_parse_ways(node, word: str, start: int, memo) -> dict[int, int]:
    key = (id(node), start)
    if key in memo:
        return memo[key]
    out: dict[int, int] = {}
    if isinstance(node, regex.Lit):
        if start < len(word) and word[start] == node.symbol:
            out[start + 1] = 1
    elif isinstance(node, regex.Concat):
        current = {start: 1}
        for part in node.parts:
            step: dict[int, int] = {}
            for s, ways in current.items():
                for e, inner_ways in _memo_parse_ways(part, word, s, memo).items():
                    step[e] = step.get(e, 0) + ways * inner_ways
            current = step
        out = current
    elif isinstance(node, regex.Union):
        for option in node.options:
            for e, ways in _memo_parse_ways(option, word, start, memo).items():
                out[e] = out.get(e, 0) + ways
    elif isinstance(node, (regex.Star, regex.Plus)):
        if _memo_parse_ways(node.inner, word, start, memo).get(start):
            raise InvalidInputError("parse counting requires a non-nullable star/plus body")
        out = {start: 1} if isinstance(node, regex.Star) else {}
        frontier = {start: 1}
        while frontier:
            step = {}
            for s, ways in frontier.items():
                for e, inner_ways in _memo_parse_ways(node.inner, word, s, memo).items():
                    if e > s:
                        step[e] = step.get(e, 0) + ways * inner_ways
            for e, ways in step.items():
                out[e] = out.get(e, 0) + ways
            frontier = step
    elif isinstance(node, regex.Repeat):
        current = {start: 1}
        out = {start: 1}
        for _ in range(node.most):
            step = {}
            for s, ways in current.items():
                for e, inner_ways in _memo_parse_ways(node.inner, word, s, memo).items():
                    step[e] = step.get(e, 0) + ways * inner_ways
            for e, ways in step.items():
                out[e] = out.get(e, 0) + ways
            current = step
    else:
        raise TypeError(f"not a regex node: {node!r}")
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# Forward bit-plane regex reference: the whole set of start positions at
# once, as bit planes.  It stands as a second reference for count_parses,
# with no memo and no per-start evaluation.


def plane_count_parses(node, word: str) -> int:
    """Parse counts on bit planes: bit p of plane k is bit k of the number
    of derivations that end at p.  A literal masks and shifts every plane,
    and union, star, plus and repetition add plane tuples with a ripple
    carry.  Costs (n + 1)^d on d nested stars."""
    masks = {x: sum(1 << i for i, y in enumerate(word) if y == x) for x in "abc"}
    planes = _plane_ways(node, (1,), masks)
    return sum((plane >> len(word) & 1) << k for k, plane in enumerate(planes))


def _plane_add(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The position-wise sum of two weighted position sets; the top plane
    is nonzero, so the empty set is ``()``."""
    if len(x) < len(y):
        x, y = y, x
    out = []
    carry = 0
    for k, plane in enumerate(x):
        other = y[k] if k < len(y) else 0
        half = plane ^ other
        out.append(half ^ carry)
        carry = plane & other | half & carry
    if carry:
        out.append(carry)
    return tuple(out)


def _plane_support(planes: tuple[int, ...]) -> int:
    support = 0
    for plane in planes:
        support |= plane
    return support


def _plane_ways(node, starts: tuple[int, ...], masks: dict[str, int]) -> tuple[int, ...]:
    if not starts:
        return ()
    if isinstance(node, regex.Lit):
        out = [(plane & masks[node.symbol]) << 1 for plane in starts]
        while out and not out[-1]:
            out.pop()
        return tuple(out)
    if isinstance(node, regex.Concat):
        for part in node.parts:
            starts = _plane_ways(part, starts, masks)
        return starts
    if isinstance(node, regex.Union):
        out = ()
        for option in node.options:
            out = _plane_add(out, _plane_ways(option, starts, masks))
        return out
    if isinstance(node, (regex.Star, regex.Plus)):
        frontier = _plane_ways(node.inner, starts, masks)
        # Ends never lie left of their start, so the leftmost start comes
        # back in one step only through an empty match of the body.
        support = _plane_support(starts)
        if _plane_support(frontier) & support & -support:
            raise InvalidInputError("parse counting requires a non-nullable star/plus body")
        out = starts if isinstance(node, regex.Star) else ()
        while frontier:
            out = _plane_add(out, frontier)
            frontier = _plane_ways(node.inner, frontier, masks)
        return out
    if isinstance(node, regex.Repeat):
        out = current = starts
        for _ in range(node.most):
            current = _plane_ways(node.inner, current, masks)
            out = _plane_add(out, current)
        return out
    raise TypeError(f"not a regex node: {node!r}")
