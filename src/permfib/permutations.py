"""Permutations in one-line notation and their descent/peak statistics.

A permutation of length n is a rearrangement of 1..n written as the sequence
of its values.  All positions reported by this module are 1-based, matching
the usual combinatorial conventions; any 0-based indexing is internal.

Two layers are provided: plain functions on letter tuples (for prop6's raw
checks, Theorem 4's construction check, the bijections and the acceptance
suite) and a thin :class:`Permutation` wrapper that validates its input and
carries the public API.  Every statistic but window containment reads the
rise word (:func:`rise_word`), padded by one bit for the left and right
variants, as lpk(pi) = pk(0 pi).
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Sequence

from ._value import Value
from .compositions import Composition, run_lengths
from .errors import InvalidInputError, ResourceLimitError

#: The largest n for which S_n is enumerated here or swept by
#: :func:`permfib.oracle.sweep`.
ENUMERATION_CAP = 12


# ---------------------------------------------------------------------------
# Letter-tuple layer


def standardize_letters(values: Sequence[int]) -> tuple[int, ...]:
    """Replace each entry by its rank, smallest becoming 1.

    >>> standardize_letters((8, 3, 6, 1, 4))
    (5, 2, 4, 1, 3)
    """
    if len(set(values)) != len(values):
        raise InvalidInputError("standardization requires distinct entries")
    rank = {v: i for i, v in enumerate(sorted(values), start=1)}
    return tuple(rank[v] for v in values)


def inverse_letters(letters: Sequence[int]) -> tuple[int, ...]:
    """Positions of the values 1..n, i.e. the inverse permutation."""
    inv = [0] * len(letters)
    for pos, value in enumerate(letters, start=1):
        inv[value - 1] = pos
    return tuple(inv)


_RISE_LETTERS = bytes.maketrans(b"\0\1", b"01")


def rise_word(letters: Sequence[int]) -> str:
    """The rise bits of the letters, first pair first: "1" for each rise and
    "0" for each descent.

    >>> rise_word((8, 5, 7, 1, 2, 6, 4, 3))
    '0101100'
    """
    return bytes(map(operator.lt, letters, letters[1:])).translate(_RISE_LETTERS).decode()


def _starts(word: str, pair: str, offset: int) -> tuple[int, ...]:
    """Where ``pair`` begins in the word, each index plus ``offset``."""
    starts = []
    i = word.find(pair)
    while i >= 0:
        starts.append(i + offset)
        i = word.find(pair, i + 1)
    return tuple(starts)


def descents(letters: Sequence[int]) -> tuple[int, ...]:
    """1-based positions i with letters[i] > letters[i+1]."""
    return _starts(rise_word(letters), "0", 1)


# "10" cannot overlap itself, so str.count finds every one.
def peak_count(letters: Sequence[int]) -> int:
    return rise_word(letters).count("10")


def left_peak_count(letters: Sequence[int]) -> int:
    return ("1" + rise_word(letters)).count("10")


def right_peak_count(letters: Sequence[int]) -> int:
    """Peaks, plus position n when the word ends with a rise: pk(pi 0)."""
    return (rise_word(letters) + "0").count("10")


def increasing_run_lengths(letters: Sequence[int]) -> tuple[int, ...]:
    """Lengths of the maximal increasing runs, in order of appearance."""
    return run_lengths(rise_word(letters)) if letters else ()


def contains_consecutive_letters(letters: Sequence[int], pattern: Sequence[int]) -> bool:
    """True when some window of adjacent letters standardizes to ``pattern``."""
    m = len(pattern)
    if m == 0:
        raise InvalidInputError("pattern must be nonempty")
    for start in range(len(letters) - m + 1):
        window = letters[start : start + m]
        if standardize_letters(window) == tuple(pattern):
            return True
    return False


def contains_ascending_run(letters: Sequence[int], m: int) -> bool:
    """True when m adjacent letters increase; the monotone-pattern fast path."""
    return _contains_run(letters, m, "1")


def contains_descending_run(letters: Sequence[int], m: int) -> bool:
    return _contains_run(letters, m, "0")


def _contains_run(letters: Sequence[int], m: int, bit: str) -> bool:
    if m < 1:
        raise InvalidInputError(f"run length must be >= 1, got {m}")
    return len(letters) >= m and bit * (m - 1) in rise_word(letters)


def check_enumeration_size(n: int) -> None:
    """Refuse S_n past :data:`ENUMERATION_CAP`, enumerated here or swept by
    :func:`permfib.oracle.sweep`."""
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(f"S_{n} exceeds the cap of {ENUMERATION_CAP}")


def letter_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All length-n letter tuples in lexicographic order, without wrapping.

    This is the raw stream behind :func:`enumerate_symmetric_group`, for
    callers that would rather skip the per-element wrapping.
    """
    check_enumeration_size(n)
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# Wrapper layer


class Permutation(Value):
    """A permutation of {1, ..., n} in one-line notation."""

    letters: tuple[int, ...]

    def __init__(self, letters: Sequence[int]) -> None:
        letters = tuple(letters)
        if sorted(letters) != list(range(1, len(letters) + 1)):
            raise InvalidInputError(
                f"not a rearrangement of 1..{len(letters)}: {letters}"
            )
        super().__init__(letters)

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse comma/space separated values, or a digit string for n <= 9.

        >>> Permutation.from_text("2 3 5 6 8 7 1 4") == Permutation.from_text("23568714")
        True
        """
        text = text.strip()
        if not text:
            return cls(())
        tokens = text.replace(",", " ").split()
        if len(tokens) == 1 and len(tokens[0]) > 1:
            token = tokens[0]
            if not token.isdigit():
                raise InvalidInputError(f"cannot parse permutation from {text!r}")
            return cls(tuple(int(ch) for ch in token))
        try:
            values = tuple(int(tok) for tok in tokens)
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse permutation from {text!r}") from exc
        return cls(values)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.letters)

    @property
    def n(self) -> int:
        return len(self.letters)


class StatReport(Value):
    """All statistics of one permutation, with 1-based position lists."""

    des: int
    pk: int
    lpk: int
    rpk: int
    valleys: int
    right_valleys: int
    ipk: int
    ilpk: int
    descent_positions: tuple[int, ...]
    peak_positions: tuple[int, ...]
    left_peak_positions: tuple[int, ...]
    valley_positions: tuple[int, ...]
    right_valley_positions: tuple[int, ...]


def inverse(p: Permutation) -> Permutation:
    """The permutation sending each value back to its position.

    >>> str(inverse(Permutation.from_text("23568714")))
    '7 1 2 8 3 4 6 5'
    """
    return Permutation(inverse_letters(p.letters))


def reverse(p: Permutation) -> Permutation:
    """The letters written right to left."""
    return Permutation(tuple(reversed(p.letters)))


def statistics(p: Permutation) -> StatReport:
    """Every statistic, read from one rise word of p and one of its inverse;
    ipk/ilpk are taken on the inverse."""
    word, inv_word = rise_word(p.letters), rise_word(inverse_letters(p.letters))
    positions = (
        _starts(word, "0", 1),  # descents
        _starts(word, "10", 2),  # peaks
        _starts("1" + word, "10", 1),  # left peaks
        _starts(word, "01", 2),  # valleys
        _starts(word + "1", "01", 2),  # right valleys
    )
    des, pk, lpk, valleys, right_valleys = map(len, positions)
    rpk, ipk, ilpk = (word + "0").count("10"), inv_word.count("10"), ("1" + inv_word).count("10")
    return StatReport(des, pk, lpk, rpk, valleys, right_valleys, ipk, ilpk, *positions)


def descent_composition(p: Permutation) -> Composition:
    """Composition of n listing the increasing-run lengths in order.

    The empty permutation yields the empty composition.

    >>> str(descent_composition(Permutation.from_text("85712643")))
    '(1,2,3,1,1)'
    """
    return Composition(increasing_run_lengths(p.letters))


def enumerate_symmetric_group(n: int) -> Iterator[Permutation]:
    """Yield all n! permutations exactly once, in lexicographic order; n past
    :data:`ENUMERATION_CAP` is refused before any is made."""
    return (Permutation(t) for t in letter_tuples(n))
