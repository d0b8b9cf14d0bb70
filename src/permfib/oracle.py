"""Exhaustive brute-force counts and claim checkers.

Everything here counts by enumerating permutations (or words, or tilings)
and applying raw statistics; the constructions being verified are only ever
used on the other side of a comparison, never inside a count.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Iterator, Optional

from . import regex, tilings
from .bijections import zero_ipk_permutation
from .compositions import enumerate_compositions, fib
from .errors import InvalidInputError, ResourceLimitError
from .permutations import (
    check_enumeration_size,
    increasing_run_lengths,
    inverse_letters,
    left_peak_count,
    letter_tuples,
    peak_count,
)
from .words import is_avoiding_block_word, iter_block_words

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


def _shape(letters: tuple[int, ...]) -> tuple[int, int, int, int]:
    """Longest ascending run, longest descending run, peaks and left peaks:
    each compares adjacent letters only, so each is a function of the rise
    pattern."""
    up = max(increasing_run_lengths(letters))
    down = max(increasing_run_lengths([-letter for letter in letters]))
    return up, down, peak_count(letters), left_peak_count(letters)


@dataclass(frozen=True)
class Sweep:
    """What the permutation oracles need from one pass over S_n.

    ``histogram`` counts permutations by (longest ascending run, longest
    descending run, ipk, ilpk); only the methods below read its layout.  It
    is filled from a tally of the permutations of n - 1 by class (see
    :func:`_walk`), each class's children at once, in the order in which a
    permutation-by-permutation pass would first meet each key.
    ``ipk0`` holds the letters of the permutations whose inverse has no
    peak, in lexicographic order.  ``n_shaped`` holds the letters of the
    permutations with exactly one left peak, concatenated into one bytes
    object per longest descending run of the inverse.
    """

    n: int
    histogram: dict[tuple[int, int, int, int], int]
    ipk0: tuple[tuple[int, ...], ...]
    n_shaped: dict[int, bytes]

    def ipk_counts(self, m: int) -> dict[int, int]:
        """Permutations avoiding an ascending m-run, by peaks of the inverse."""
        return self._sum((ipk, c) for (up, _, ipk, _), c in self.histogram.items() if up < m)

    def ilpk_counts(self, m: int) -> dict[int, int]:
        """Permutations avoiding a descending m-run, by left peaks of the inverse."""
        return self._sum((ilpk, c) for (_, down, _, ilpk), c in self.histogram.items() if down < m)

    @staticmethod
    def _sum(pairs: Iterator[tuple[int, int]]) -> dict[int, int]:
        """Total count of each statistic value."""
        counts: dict[int, int] = {}
        for stat, count in pairs:
            counts[stat] = counts.get(stat, 0) + count
        return counts

    def n_shaped_avoiders(self, m: int) -> Iterator[tuple[int, ...]]:
        """Letters of the one-left-peak permutations whose inverse avoids a
        descending m-run."""
        n = self.n
        return (
            tuple(blob[start : start + n])
            for run, blob in self.n_shaped.items()
            if run < m
            for start in range(0, len(blob), n)
        )


def sweep(n: int, *, allow_large: bool = False) -> Sweep:
    """The shared pass over S_n.  The pass is cached on n alone, so the
    size caps are checked here, on every call, before the cache is read."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    check_enumeration_size(n, allow_large=allow_large)
    return _walk(n)


@lru_cache(maxsize=None)
def _walk(n: int) -> Sweep:
    """Visit each permutation of S_n once, as a tau in S_(n-1) with n
    inserted before index j, for j = 0..n-1.

    The rise pattern of such a child is fixed by tau's and by j, so the
    children's runs are computed once per rise pattern of tau.  The child's
    inverse is tau's with the entries past j shifted up and j + 1 appended:
    its rise pattern is tau's inverse's plus one bit, whether n comes after
    n - 1, which holds exactly for j >= split, one past the index of n - 1
    in tau.  So the inverses' shapes are computed once per rise pattern of
    tau's inverse, for both values of the bit.

    The histogram thus reads tau only through its class: its rise pattern,
    the inverse peaks of its children before and after the split, and the
    split.  The loop tallies tau by class (2,614 classes for the 40,320 tau
    at n = 9), and then adds each class's n children to the histogram once,
    weighted by its count.  A class is packed into one int and patterns are
    bytes, as tuple keys cost peak RSS.
    """
    ipk0 = []
    n_shaped: dict[int, bytearray] = {}
    # rise pattern of tau -> its part of the class key, and the j of the
    # children with one left peak
    children: dict[bytes, tuple[int, tuple[int, ...]]] = {}
    # the longest runs of each child, by rise pattern of tau in first-seen order
    runs: list[tuple[tuple[int, int], ...]] = []
    # rise pattern of tau's inverse -> the shapes of the children's inverses
    # before and after the split, and their four peaks in base n
    inverses: dict[bytes, tuple[tuple[int, int, int, int], tuple[int, int, int, int], int]] = {}
    # the four peaks in base n -> the (ipk, ilpk) before and after the split
    sides: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    # class key, in base n: rise pattern index, the four inverse peaks, split
    # (peaks and split are below n) -> how many tau are in the class
    tally: dict[int, int] = {}

    def child(tau: tuple[int, ...], j: int) -> tuple[int, ...]:
        return tau[:j] + (n,) + tau[j:]

    for tau in letter_tuples(n - 1, allow_large=True):
        rises = bytes(map(operator.lt, tau, tau[1:]))
        if rises not in children:
            kids = [_shape(child(tau, j)) for j in range(n)]
            children[rises] = (
                len(runs) * n**5,
                tuple(j for j, kid in enumerate(kids) if kid[3] == 1),
            )
            runs.append(tuple(kid[:2] for kid in kids))
        pattern, one_left_peak = children[rises]
        inverse = inverse_letters(tau)
        rises = bytes(map(operator.lt, inverse, inverse[1:]))
        if rises not in inverses:
            before = _shape(inverse_letters(child(tau, 0)))
            after = _shape(inverse_letters(child(tau, n - 1)))
            peaks = ((before[2] * n + before[3]) * n + after[2]) * n + after[3]
            sides[peaks] = (before[2:], after[2:])
            inverses[rises] = (before, after, peaks)
        before, after, peaks = inverses[rises]
        split = inverse[-1] if tau else 0
        key = pattern + peaks * n + split
        tally[key] = tally.get(key, 0) + 1
        if before[2] == 0:
            ipk0.extend(child(tau, j) for j in range(split))
        if after[2] == 0:
            ipk0.extend(child(tau, j) for j in range(split, n))
        for j in one_left_peak:
            run = (after if j >= split else before)[1]
            n_shaped.setdefault(run, bytearray()).extend(child(tau, j))
    histogram: dict[tuple[int, int, int, int], int] = {}
    for key, count in tally.items():
        index, key = divmod(key, n**5)
        peaks, split = divmod(key, n)
        for j, own in enumerate(runs[index]):
            stats = own + sides[peaks][j >= split]
            histogram[stats] = histogram.get(stats, 0) + count
    return Sweep(
        n,
        histogram,
        tuple(sorted(ipk0)),
        {run: bytes(blob) for run, blob in sorted(n_shaped.items())},
    )


# ---------------------------------------------------------------------------
# Counting oracles


_COUNT_BOUND = 10


def _count_sweep(n: int, m: int, allow_large: bool) -> Sweep:
    if m < 3:
        raise InvalidInputError(f"m must be >= 3, got {m}")
    if n > _COUNT_BOUND and not allow_large:
        raise ResourceLimitError(
            f"counting scans all of S_{n}; n <= {_COUNT_BOUND} unless allow_large is set"
        )
    return sweep(n, allow_large=allow_large)


def count_ipk0_avoiders(n: int, m: int, *, allow_large: bool = False) -> int:
    """Permutations of n avoiding an ascending m-run whose inverse is peakless."""
    return _count_sweep(n, m, allow_large).ipk_counts(m).get(0, 0)


def count_ilpk1_avoiders(n: int, m: int = 3, *, allow_large: bool = False) -> int:
    """Permutations of n avoiding a descending m-run with ilpk exactly 1."""
    return _count_sweep(n, m, allow_large).ilpk_counts(m).get(1, 0)


def count_n_shaped_inverse_avoiders(n: int, m: int = 3, *, allow_large: bool = False) -> int:
    """Permutations with one left peak whose inverse avoids a descending m-run.

    Equinumerous with :func:`count_ilpk1_avoiders` via inversion, but counted
    over the other set; the agreement is itself one of the checked claims.
    """
    return sum(1 for _ in _count_sweep(n, m, allow_large).n_shaped_avoiders(m))


def count_block_words_by_definition(n: int, m: int = 3) -> int:
    """Avoiding block words of length n, straight from the definition."""
    return sum(1 for word in iter_block_words(n) if is_avoiding_block_word(word, m))


# ---------------------------------------------------------------------------
# Claim checkers


def verify_descent_uniqueness(n: int) -> VerificationReport:
    """Each descent composition owns exactly one peakless-inverse permutation,
    and it is the one the direct construction produces."""
    peakless = sweep(n).ipk0
    counts = Counter(map(increasing_run_lengths, peakless))
    found = {increasing_run_lengths(letters): letters for letters in peakless}
    for composition in enumerate_compositions(n):
        parts = composition.parts
        expected = zero_ipk_permutation(composition).letters
        if counts.get(parts, 0) != 1 or found.get(parts) != expected:
            return report("descent-uniqueness", {"n": n}, {
                "composition": str(composition),
                "ipk0_count": counts.get(parts, 0),
                "enumerated": " ".join(map(str, found.get(parts, ()))),
                "constructed": " ".join(map(str, expected)),
            })
    return report("descent-uniqueness", {"n": n, "classes": len(counts)}, None)


def verify_corollaries(n: int) -> VerificationReport:
    """The four count identities for peakless-inverse permutations:

    exactly one alternating and one reverse-alternating; C(n-1, k) with k
    descents; C(n, 2k+1) with k peaks; C(n, 2k) with k left peaks.
    """
    peakless = sweep(n).ipk0
    rises = [bytes(map(operator.lt, letters, letters[1:])) for letters in peakless]
    by_des = Counter(pattern.count(0) for pattern in rises)
    by_pk = Counter(map(peak_count, peakless))
    by_lpk = Counter(map(left_peak_count, peakless))

    def case(identity: str, k: int, got: int, expected: int) -> dict[str, Any]:
        return {"identity": identity, "k": k, "got": got, "expected": expected}

    def cases() -> Iterator[dict[str, Any]]:
        for identity, parity in ("alternating", 0), ("reverse-alternating", 1):
            yield case(identity, 0, rises.count(bytes(i % 2 == parity for i in range(n - 1))), 1)
        for k in range(n):
            yield case("descents", k, by_des[k], math.comb(n - 1, k))
        for k in range(n + 1):
            yield case("peaks", k, by_pk[k], math.comb(n, 2 * k + 1))
            yield case("left-peaks", k, by_lpk[k], math.comb(n, 2 * k))

    return report("corollaries", {"n": n}, first_disagreement(cases(), "identity", "k"))


def descent_pair_matrix(
    n: int, *, allow_large: bool = False
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Counts of permutations by (own descent composition, inverse's)."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if n > 8 and not allow_large:
        raise ResourceLimitError(
            f"the matrix has 4^{n - 1} classes; n <= 8 unless allow_large is set"
        )
    matrix: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for letters in letter_tuples(n):
        key = (
            increasing_run_lengths(letters),
            increasing_run_lengths(inverse_letters(letters)),
        )
        matrix[key] = matrix.get(key, 0) + 1
    return matrix


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
    if n_max > 60:
        raise InvalidInputError("n_max is capped at 60")

    def cases() -> Iterator[dict[str, Any]]:
        for n in range(1, n_max + 1):
            double = sum(fib(2, k - 1) * fib(2, k) for i in range(1, n) for k in range(1, i + 1))
            closed = fib(2, n - 1) * fib(2, n) - (n + 1) // 2
            reindexed = sum(fib(2, k - 1) * fib(2, k) for k in range(1, n) for _ in range(n - k))
            yield {"n": n, "double_sum": double, "closed_form": closed, "reindexed": reindexed}
            for k in range(n + 1):
                hockey = sum(math.comb(j, 2 * k) for j in range(n))
                yield {"n": n, "k": k, "sum": hockey, "binomial": math.comb(n, 2 * k + 1)}

    return report("identity-sums", {"n_max": n_max}, first_disagreement(cases(), "n", "k"))


def triangulated_counts(n: int, m: int = 3, *, allow_large: bool = False) -> dict[str, int]:
    """One number, four pipelines: permutation enumeration, word definition,
    word automaton, and the tiling sum."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    by_permutations = count_n_shaped_inverse_avoiders(n, m, allow_large=allow_large)
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
