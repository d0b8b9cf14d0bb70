"""Brute-force counts and claim checkers.

Every permutation of n is one of n - 1 with n inserted, and the permutation
oracles rest on that one step.  Theorems 1 and 2 count on two finite
automata of it on the inverse, up to :data:`AUTOMATON_MAX_N`.  Theorem 4
and its corollaries read :func:`peakless`, which puts n at an end of each
peakless inverse of n - 1 and so builds only the 2^(n-1) peakless ones, up
to :data:`PEAKLESS_MAX_N`.  The rest are carried over classes of descent
data, keyed by one int, in one pass over the levels 1..n (see
:class:`Sweep`).  Words and tilings are enumerated.  Every permutation an
oracle keeps or constructs is tested with raw statistics, and the
constructions being verified are only ever used on the other side of a
comparison, never inside a count.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from . import regex, tilings
from .bijections import zero_ipk_permutation
from .compositions import Composition, enumerate_compositions, fib, run_lengths
from .errors import InvalidInputError, ResourceLimitError
from .permutations import (
    check_enumeration_size,
    increasing_run_lengths,
    inverse_letters,
    left_peak_count,
    peak_count,
)
from .words import iter_avoiding_block_words

#: JSON shape of a serialized verification report.
REPORT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "properties": {
        "claim": {"type": "string"},
        "params": {"type": "object"},
        "pass": {"type": "boolean"},
        "counterexample": {"type": ["object", "null"]},
        "millis": {"type": "integer", "minimum": 0},
    },
    "required": ["claim", "params", "pass", "counterexample"],
    "additionalProperties": False,
}


@dataclass
class VerificationReport:
    """Outcome of one claim check; failures carry reproduction data."""

    claim: str
    params: dict[str, Any]
    passed: bool = False
    counterexample: Optional[dict[str, Any]] = None
    millis: int = 0

    def to_json_dict(self, include_millis: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "claim": self.claim,
            "params": self.params,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }
        if include_millis:
            out["millis"] = self.millis
        return out


def report(
    claim: str, params: dict[str, Any], counterexample: Optional[dict[str, Any]]
) -> VerificationReport:
    """The report of a check: it passes exactly when there is no counterexample."""
    return VerificationReport(claim, params, counterexample is None, counterexample)


def first_disagreement(cases: Iterable[dict[str, Any]], *index: str) -> Optional[dict[str, Any]]:
    """The first case whose values are not all equal, or None.

    A case maps the ``index`` keys (such as n or k) to where it lies, and
    every other key to one pipeline's value there.  Cases are read lazily,
    so none after the first disagreement is computed.
    """
    for case in cases:
        values = [value for key, value in case.items() if key not in index]
        if any(value != values[0] for value in values[1:]):
            return case
    return None


# ---------------------------------------------------------------------------
# The shared S_n sweep


def _tally(pairs: Iterable[tuple[Any, int]]) -> dict[Any, int]:
    """Total count of each key."""
    counts: dict[Any, int] = {}
    for key, count in pairs:
        counts[key] = counts.get(key, 0) + count
    return counts


def _rise_string(rises: int, n: int) -> str:
    """The n - 1 rise bits of a permutation of n, first bit first, from its
    n + 1 padded rise bits (bit i of ``rises`` is padded bit i)."""
    return format(rises >> 1, f"0{n}b")[:0:-1]


def _peaks(fold: int, rise: bool) -> int:
    """The inverse's rise bits, one bit longer, folded to 4 ipk + 2 d + last:
    d is 1 when the first bit is a descent, last when the last is a rise.
    The empty bits fold to 0, as no others do: a first rise and a last
    descent make a peak."""
    if not fold:
        return 2 * (not rise) + rise
    return (fold & ~1 | rise) + 4 * (fold & 1 and not rise)


def _bits(fold: int, rise: bool) -> int:
    """The inverse's rise bits, one bit longer, below a leading 1."""
    return fold << 1 | rise


def _width(n: int) -> int:
    """Bits of the index of n in a class key of level n."""
    return (n - 1).bit_length()


def _classes(
    n: int, fold: Callable[[int, bool], int], parents: dict[int, int], indexed: bool = True
) -> dict[int, int]:
    """The classes of the permutations of n, with their counts, from those of
    n - 1 in ``parents``.

    A class of level n is one int: the inverse's rise bits folded by
    ``fold``, above the n + 1 padded rise bits (bit i is padded bit i),
    above the index of n in the low :func:`_width` bits.  Unless
    ``indexed``, the index is left out: only the next level reads it.  The
    children's padded rise bits depend on the parent's alone, so they are
    built once per pattern; the children with j up to the index of n - 1
    append a descent to the inverse and the others a rise.
    """
    low, mask = _width(n - 1), (1 << n) - 1
    shift = _width(n) if indexed else 0
    rows: dict[int, list[int]] = {}
    counts: dict[int, int] = {}
    get = counts.get
    for key, count in parents.items():
        at, rises, inverse = key & (1 << low) - 1, key >> low & mask, key >> low + n
        row = rows.get(rises)
        if row is None:
            row = rows[rises] = [
                (rises >> j + 1 << j + 2 | rises & (1 << j) - 1 | 1 << j) << shift
                | (j if indexed else 0)
                for j in range(n)
            ]
        for rise, children in (False, row[: at + 1]), (True, row[at + 1 :]):
            high = fold(inverse, rise) << n + 1 + shift
            for child in children:
                child |= high
                counts[child] = get(child, 0) + count
    return counts


def _levels(n_max: int, fold: Callable[[int, bool], int], start: int) -> Iterator[dict[int, int]]:
    """The classes of levels 1..n_max, each built once from the one below;
    the last one without the index of n.  Level 1 has one class: the fold
    ``start`` of no bits, above the padded rise bits (rise, descent)."""
    level = {start << 2 | 0b01: 1}
    yield level
    for n in range(2, n_max + 1):
        level = _classes(n, fold, level, n < n_max)
        yield level


@dataclass(frozen=True)
class Sweep:
    """What the permutation oracles need from S_n.

    Each permutation of n is a tau in S_(n-1) with n inserted before one
    index j.  Padded with a rise in front and a descent at the end, tau's
    rise bits get a rise and a descent in place of padded bit j; the
    inverse's rise bits gain one bit at the end, a rise exactly when j is
    past the index of n - 1 in tau.  So ``histogram``, the count by (longest
    ascending run, longest descending run, ipk, ilpk), is carried over
    classes by :func:`_classes`, each keyed by one int: ipk grows by one when
    the inverse's last bit is a rise and the new one a descent, and ilpk is
    ipk plus one when its first bit is a descent.  :func:`sweep` builds the
    levels 1..n once and keeps the Sweep of each.  Only the methods below
    read its layout.  Theorem 4 and its corollaries read :func:`peakless`
    instead, which walks no class.
    """

    n: int
    histogram: dict[tuple[int, int, int, int], int]

    def ipk_counts(self, m: int) -> dict[int, int]:
        """Permutations avoiding an ascending m-run, by peaks of the inverse."""
        return _tally((ipk, c) for (up, _, ipk, _), c in self.histogram.items() if up < m)

    def ilpk_counts(self, m: int) -> dict[int, int]:
        """Permutations avoiding a descending m-run, by left peaks of the inverse."""
        return _tally((ilpk, c) for (_, down, _, ilpk), c in self.histogram.items() if down < m)


#: The Sweep of every level built so far.
_SWEEPS: dict[int, Sweep] = {}


def sweep(n: int) -> Sweep:
    """What the oracles need from S_n, for n up to
    :data:`~permfib.permutations.ENUMERATION_CAP`.  A miss builds levels
    1..n in one pass and keeps the Sweep of each, so a caller that will read
    several levels asks for the largest first."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if n not in _SWEEPS:
        check_enumeration_size(n)
        for level, classes in enumerate(_levels(n, _peaks, 0), 1):
            if level not in _SWEEPS:
                _SWEEPS[level] = _level_sweep(level, classes, level < n)
    return _SWEEPS[n]


def _level_sweep(n: int, classes: dict[int, int], indexed: bool) -> Sweep:
    # The histogram reads a class's rise bits, ipk and d; the longest runs
    # are found once per pattern of rise bits.
    low, mask = _width(n) * indexed, (1 << n + 1) - 1
    runs: dict[int, tuple[int, int]] = {}
    histogram: dict[tuple[int, int, int, int], int] = {}
    for key, count in classes.items():
        rises, ipk, d = key >> low & mask, key >> low + n + 3, key >> low + n + 2 & 1
        pattern = runs.get(rises)
        if pattern is None:
            bits = _rise_string(rises, n)
            pattern = runs[rises] = (max(run_lengths(bits)), max(run_lengths(bits, "1")))
        up, down = pattern
        shape = (up, down, ipk, ipk + d)
        histogram[shape] = histogram.get(shape, 0) + count
    return Sweep(n, histogram)


@functools.lru_cache(maxsize=None)
def peakless(n: int) -> dict[tuple[int, ...], int]:
    """The permutations of n whose inverse has no peak, counted by descent
    composition, the increasing runs of their rise bits.

    A peakless sigma of n has n at an end, as n anywhere else is a peak, and
    taking n off an end leaves a peakless sigma of n - 1.  So each peakless
    sigma is n put at the front or the end of one of n - 1, from (1,), and
    the 2^(n-1) of them are built outright; each is kept only if
    ``peak_count`` finds no peak, and its inverse is tallied by
    ``increasing_run_lengths``.  The tally of each n up to
    :data:`PEAKLESS_MAX_N` is cached.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if n > PEAKLESS_MAX_N:
        raise ResourceLimitError(f"peakless inverses are built for n <= {PEAKLESS_MAX_N}, got {n}")
    sigmas = [(1,)]
    for k in range(2, n + 1):
        sigmas = [grown for sigma in sigmas for grown in ((k, *sigma), (*sigma, k))]
    return _tally(
        (increasing_run_lengths(inverse_letters(sigma)), 1)
        for sigma in sigmas
        if peak_count(sigma) == 0
    )


# ---------------------------------------------------------------------------
# Counting oracles


#: The largest n whose peakless inverses :func:`peakless` builds: 2^(n-1)
#: of them.
PEAKLESS_MAX_N = 14
#: The largest n the insertion automata count.
AUTOMATON_MAX_N = 300
#: Insertion automata on sigma = pi^-1.  Inserting k into pi appends a rise to
#: sigma exactly when k lands right of k - 1.  A phase maps to its moves (next
#: phase, bit is a rise, slots out of k); pi = 1 is in the first phase and
#: counts once out of phase inc.  V keeps pk(pi) = 0.  N keeps lpk(pi) <= 1:
#: pi is increasing (inc), k is its left peak (peak), or k is last (end).
_V = {"v": (("v", False, lambda k: 1), ("v", True, lambda k: 1))}
_N = {
    "inc": (("inc", True, lambda k: 1), ("peak", False, lambda k: k - 1)),
    "peak": (("peak", False, lambda k: 1), ("peak", True, lambda k: 1), ("end", True, lambda k: 1)),
    "end": (("peak", False, lambda k: 2), ("end", True, lambda k: 1)),
}
#: The states at n = 1, 2, ... of each automaton's phases and m, as far as
#: counted: a phase and sigma's trailing run of the banned bit, below m - 1.
_LEVELS: dict[tuple[tuple[str, ...], int], list[Counter]] = {}


def _transfer(n: int, m: int, moves: dict, banned: bool) -> int:
    """The permutations of n that ``moves`` leads out of phase inc."""
    if m < 3 or n < 1:
        raise InvalidInputError(f"need m >= 3 and n >= 1, got m = {m}, n = {n}")
    if n > AUTOMATON_MAX_N:
        raise ResourceLimitError(f"the insertion automata count n <= {AUTOMATON_MAX_N}, got {n}")
    levels = _LEVELS.setdefault((tuple(moves), m), [Counter({(next(iter(moves)), 0): 1})])
    for k in range(len(levels) + 1, n + 1):
        states: Counter = Counter()
        for (phase, run), count in levels[-1].items():
            for target, rise, ways in moves[phase]:
                states[target, run + 1 if rise == banned else 0] += ways(k) * count
        levels.append(Counter({state: c for state, c in states.items() if state[1] < m - 1}))
    return sum(count for (phase, _), count in levels[n - 1].items() if phase != "inc")


def count_ipk0_avoiders(n: int, m: int) -> int:
    """Permutations of n avoiding an ascending m-run whose inverse is peakless."""
    return _transfer(n, m, _V, True)


def count_ilpk1_avoiders(n: int, m: int = 3) -> int:
    """Permutations of n avoiding a descending m-run with ilpk exactly 1."""
    return _transfer(n, m, _N, False)


def count_block_words_by_definition(n: int, m: int = 3) -> int:
    """Avoiding block words of length n, generated from the definition."""
    return sum(1 for _ in iter_avoiding_block_words(n, m))


# ---------------------------------------------------------------------------
# Claim checkers


def verify_descent_uniqueness(n: int) -> VerificationReport:
    """Each descent composition owns exactly one peakless-inverse permutation,
    and the direct construction produces one: a permutation with that
    descent composition whose inverse has no peak, by raw statistics."""
    counts = peakless(n)
    for composition in enumerate_compositions(n):
        count = counts.get(composition.parts, 0)
        letters = zero_ipk_permutation(composition).letters
        parts = increasing_run_lengths(letters)
        ipk = peak_count(inverse_letters(letters))
        if count != 1 or parts != composition.parts or ipk:
            return report("descent-uniqueness", {"n": n}, {
                "composition": str(composition),
                "ipk0_count": count,
                "constructed": " ".join(map(str, letters)),
                "constructed_composition": str(Composition(parts)),
                "constructed_ipk": ipk,
            })
    return report("descent-uniqueness", {"n": n, "classes": len(counts)}, None)


def verify_corollaries(n: int) -> VerificationReport:
    """The four count identities for peakless-inverse permutations:

    exactly one alternating and one reverse-alternating; C(n-1, k) with k
    descents; C(n, 2k+1) with k peaks; C(n, 2k) with k left peaks.

    Each descent composition is read once, weighted by its count.  The walk
    of prefix sums of +1 per rise and -1 per descent has the rise bits of
    the composition's permutations, so it has their peaks and left peaks.
    """
    by_rises, by_des, by_pk, by_lpk = Counter(), Counter(), Counter(), Counter()
    for parts, count in peakless(n).items():
        rises = [k > 0 for part in parts for k in range(part)][1:]
        walk = tuple(itertools.accumulate((2 * rise - 1 for rise in rises), initial=0))
        by_rises[bytes(rises)] += count
        by_des[len(parts) - 1] += count
        by_pk[peak_count(walk)] += count
        by_lpk[left_peak_count(walk)] += count

    def case(identity: str, k: int, got: int, expected: int) -> dict[str, Any]:
        return {"identity": identity, "k": k, "got": got, "expected": expected}

    def cases() -> Iterator[dict[str, Any]]:
        for identity, parity in ("alternating", 0), ("reverse-alternating", 1):
            yield case(identity, 0, by_rises[bytes(i % 2 == parity for i in range(n - 1))], 1)
        for k in range(n):
            yield case("descents", k, by_des[k], math.comb(n - 1, k))
        for k in range(n + 1):
            yield case("peaks", k, by_pk[k], math.comb(n, 2 * k + 1))
            yield case("left-peaks", k, by_lpk[k], math.comb(n, 2 * k))

    return report("corollaries", {"n": n}, first_disagreement(cases(), "identity", "k"))


def descent_pair_matrix(n: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Counts of permutations by (own descent composition, inverse's).

    Its classes keep all of the inverse's rise bits, up to 4^(n-1) of them,
    so it has a fixed bound of its own, n <= 8, not the cap of :func:`sweep`.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if n > 8:
        raise ResourceLimitError(f"the descent-pair matrix has up to 4^{n - 1} classes; n <= 8")
    *_, top = _levels(n, _bits, 1)
    mask = (1 << n + 1) - 1
    return _tally(
        (
            (
                run_lengths(_rise_string(key & mask, n)),
                run_lengths(bin(key >> n + 1)[3:]),
            ),
            count,
        )
        for key, count in top.items()
    )


def _is_hook(parts: tuple[int, ...]) -> bool:
    """Compositions (1, 1, ..., 1, s): the descent compositions of peakless
    permutations."""
    return all(part == 1 for part in parts[:-1])


def verify_hook_row_sums(n: int) -> VerificationReport:
    """Every row of the descent-pair matrix puts total weight 1 on hooks."""
    matrix = descent_pair_matrix(n)
    row_totals: dict[tuple[int, ...], int] = {}
    for (left, right), count in matrix.items():
        if _is_hook(right):
            row_totals[left] = row_totals.get(left, 0) + count
    for composition in enumerate_compositions(n):
        weight = row_totals.get(composition.parts, 0)
        if weight != 1:
            return report(
                "hook-row-sums", {"n": n}, {"composition": str(composition), "hook_weight": weight}
            )
    return report("hook-row-sums", {"n": n}, None)


def verify_identity_sums(n_max: int) -> VerificationReport:
    """Pure-arithmetic identities: the double Fibonacci sum telescopes to
    f(n-1) f(n) - floor((n+1)/2), equals its reindexed form, and the odd
    hockey-stick identity for binomials."""
    if not 1 <= n_max <= 60:
        raise InvalidInputError(f"n_max must be in 1..60, got {n_max}")

    # products[k] = f(k-1) f(k); each sum below reads it in its own order
    products = [fib(2, k - 1) * fib(2, k) for k in range(n_max + 1)]

    def cases() -> Iterator[dict[str, Any]]:
        for n in range(1, n_max + 1):
            double = sum(products[k] for i in range(1, n) for k in range(1, i + 1))
            closed = products[n] - (n + 1) // 2
            reindexed = sum((n - k) * products[k] for k in range(1, n))
            yield {"n": n, "double_sum": double, "closed_form": closed, "reindexed": reindexed}
            for k in range(n + 1):
                hockey = sum(math.comb(j, 2 * k) for j in range(n))
                yield {"n": n, "k": k, "sum": hockey, "binomial": math.comb(n, 2 * k + 1)}

    return report("identity-sums", {"n_max": n_max}, first_disagreement(cases(), "n", "k"))


def triangulated_counts(n: int, m: int = 3) -> dict[str, int]:
    """One number, four pipelines: the insertion automaton, word definition,
    word automaton, and the tiling sum."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    check_enumeration_size(n)  # the word definition's walk grows exponentially in n
    by_permutations = count_ilpk1_avoiders(n, m)
    by_definition = count_block_words_by_definition(n, m)
    by_dfa = regex.block_word_dfa(m).count_words(n)
    out = {
        "permutations": by_permutations,
        "word_definition": by_definition,
        "word_dfa": by_dfa,
    }
    if m == 3:
        out["tiling_sum"] = sum(
            (n - k) * sum(1 for _ in tilings.enumerate_tilings(k)) for k in range(1, n)
        )
    return out
