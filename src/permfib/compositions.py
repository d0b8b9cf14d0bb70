"""Integer compositions and generalized Fibonacci numbers.

The order-k Fibonacci numbers used everywhere in this package satisfy
f(n) = f(n-1) + ... + f(n-k) with f(0) = 1 and f(n) = 0 for n < 0.  Note
that this start differs from the OEIS offset for the same sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InvalidInputError

_fib_rows: dict[int, list[int]] = {}


def fib(k: int, n: int) -> int:
    """Order-k Fibonacci number with f(0) = 1, exact for any size.

    >>> [fib(2, n) for n in range(8)]
    [1, 1, 2, 3, 5, 8, 13, 21]
    >>> [fib(3, n) for n in range(7)]
    [1, 1, 2, 4, 7, 13, 24]
    >>> fib(5, -1)
    0
    """
    if k < 1:
        raise InvalidInputError(f"Fibonacci order must be >= 1, got {k}")
    if n < 0:
        return 0
    row = _fib_rows.setdefault(k, [1])
    while len(row) <= n:
        i = len(row)
        row.append(sum(row[max(0, i - k) : i]))
    return row[n]


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive parts; n is their sum."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if any(part < 1 for part in parts):
            raise InvalidInputError(f"composition parts must be >= 1: {parts}")

    @classmethod
    def from_text(cls, text: str) -> "Composition":
        """Parse "3,2,3,1" or "(3,2,3,1)"."""
        text = text.strip().lstrip("(").rstrip(")")
        if not text:
            return cls(())
        try:
            parts = tuple(int(tok) for tok in text.replace(",", " ").split())
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse composition from {text!r}") from exc
        return cls(parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(part) for part in self.parts) + ")"


def enumerate_compositions(n: int, max_part: Optional[int] = None) -> Iterator[Composition]:
    """All compositions of n in lexicographic order, optionally with bounded parts.

    >>> [str(c) for c in enumerate_compositions(3)]
    ['(1,1,1)', '(1,2)', '(2,1)', '(3)']
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if max_part is not None and max_part < 1:
        raise InvalidInputError(f"max_part must be >= 1, got {max_part}")
    cap = n if max_part is None else max_part
    return (Composition(parts) for parts in _part_tuples(n, cap))


def _part_tuples(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, min(cap, n) + 1):
        for rest in _part_tuples(n - first, cap):
            yield (first,) + rest


def run_lengths(bits: str, cut: str = "0") -> tuple[int, ...]:
    """Lengths of the runs of letters with these rise bits, cut at each bit
    ``cut``: the increasing runs for "0", the decreasing ones for "1".

    >>> run_lengths("0101100")
    (1, 2, 3, 1, 1)
    """
    return tuple(len(part) + 1 for part in bits.split(cut))


def composition_reverse(composition: Composition) -> Composition:
    """Descent composition of the reversed permutation, for any representative.

    Reversing a permutation reverses its rise bits and swaps rises with
    descents, so the result depends only on the composition.  This is an
    involution.

    >>> str(composition_reverse(Composition((4,))))
    '(1,1,1,1)'
    """
    if not composition.parts:
        return composition
    bits = "0".join("1" * (part - 1) for part in composition.parts)
    return Composition(run_lengths(bits[::-1], "1"))


def count_parts_gt1(n: int, k: int) -> int:
    """Number of compositions of n having exactly k parts greater than 1."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if k < 0:
        raise InvalidInputError(f"k must be >= 0, got {k}")
    return sum(
        1
        for comp in enumerate_compositions(n)
        if sum(1 for part in comp.parts if part > 1) == k
    )
