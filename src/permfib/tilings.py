"""Two-row monomino/domino tilings and their correspondence with core words.

A tiling here is a pair of rows of width k, each row a composition of k
into parts 1 (monomino) and 2 (horizontal domino), with a monomino in the
top-left corner.  Cutting at every full-height vertical seam decomposes a
tiling into indecomposable segments, and those segments are in one-to-one
correspondence with the segments of a core word:

    c    -> monomino over monomino           (width 1)
    bc   -> domino over domino               (width 2)
    a..ac (width w) -> top row 1,2,2,...  bottom row 2,2,...
    a..ab (width w) -> top row 2,2,...    bottom row 1,2,2,...

In the brick-offset segments the rows interlock, so the right edge is a
monomino in exactly one row, determined by the parity of w.  Decoding cuts
a tiling at its seams and checks each piece against :func:`segment_rows`,
so the table above is stated once.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Iterable, Iterator

from ._value import Value
from .errors import InvalidInputError
from . import regex
from .compositions import enumerate_compositions

#: The block lengths: a monomino and a horizontal domino.
_BLOCKS = frozenset((1, 2))


class Tiling(Value):
    """Rows of block lengths; both rows sum to the width, top starts with 1."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __init__(self, top: Iterable[int], bottom: Iterable[int]) -> None:
        top, bottom = tuple(top), tuple(bottom)
        for row in (top, bottom):
            if not _BLOCKS.issuperset(row):
                raise InvalidInputError(f"blocks must be 1 or 2: {row}")
        if sum(top) != sum(bottom):
            raise InvalidInputError(
                f"rows cover different widths: {sum(top)} vs {sum(bottom)}"
            )
        if not top or top[0] != 1:
            raise InvalidInputError("the top row must start with a monomino")
        super().__init__(top, bottom)

    @property
    def width(self) -> int:
        return sum(self.top)


def enumerate_tilings(k: int) -> Iterator[Tiling]:
    """All width-k tilings with a top-left monomino, (top, bottom) lex order.

    The rows are the compositions of k into parts 1 and 2, as tuples, and
    a top row is used only when it starts with 1, so every tiling is built
    valid: it is made without rerunning ``Tiling.__init__``, whose
    checks still guard ``Tiling(...)``.
    """
    if k < 1:
        raise InvalidInputError(f"width must be >= 1, got {k}")
    rows = [composition.parts for composition in enumerate_compositions(k, max_part=2)]
    new, put = object.__new__, object.__setattr__
    for top in rows:
        if top[0] == 1:
            for bottom in rows:
                tiling = new(Tiling)
                put(tiling, "top", top)
                put(tiling, "bottom", bottom)
                yield tiling


def _brick_row(first: int, width: int) -> tuple[int, ...]:
    """A leading block of ``first`` cells, then dominoes, then a monomino
    if one cell is left."""
    dominoes, left = divmod(width - first, 2)
    return (first,) + (2,) * dominoes + (1,) * left


def segment_rows(segment: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (top, bottom) block rows for one segment of a core word.

    >>> segment_rows("bc")
    ((2,), (2,))
    >>> segment_rows("aac")
    ((1, 2), (2, 1))
    """
    if segment == "c":
        return (1,), (1,)
    if segment == "bc":
        return (2,), (2,)
    width = len(segment)
    if width < 2 or set(segment[:-1]) != {"a"} or segment[-1] not in "bc":
        raise InvalidInputError(f"not a segment shape (c, bc, a..ab, a..ac): {segment!r}")
    top_first = 1 if segment.endswith("c") else 2
    return _brick_row(top_first, width), _brick_row(3 - top_first, width)


def word_to_tiling(word: str) -> Tiling:
    """Map a core word to its tiling, segment by segment.

    >>> word_to_tiling("c")
    Tiling(top=(1,), bottom=(1,))
    """
    rows = [segment_rows(segment) for segment in regex.core_segments(word)]
    return Tiling(
        tuple(chain.from_iterable(top for top, _ in rows)),
        tuple(chain.from_iterable(bottom for _, bottom in rows)),
    )


def tiling_to_word(tiling: Tiling) -> str:
    """Invert :func:`word_to_tiling` by cutting at full-height seams.

    Each piece is named by the segment whose rows it must be: a..ac when
    its top row starts with a monomino, a..ab when its bottom row does, bc
    otherwise.

    >>> tiling_to_word(Tiling((1, 2, 1, 2), (2, 1, 1, 2)))
    'aaccbc'
    """
    seams = set(accumulate(tiling.top)) & set(accumulate(tiling.bottom))
    word = ""
    for top, bottom in zip(_cut(tiling.top, seams), _cut(tiling.bottom, seams)):
        a_run = "a" * (sum(top) - 1)
        segment = a_run + "c" if top[0] == 1 else a_run + "b" if bottom[0] == 1 else "bc"
        if segment_rows(segment) != (top, bottom):
            raise InvalidInputError(
                f"not an indecomposable segment shape: top={top} bottom={bottom}"
            )
        word += segment
    if not regex.core_dfa().accepts(word):
        raise InvalidInputError(f"tiling does not decode to a core word: {word!r}")
    return word


def _cut(row: tuple[int, ...], seams: set[int]) -> list[tuple[int, ...]]:
    """The pieces of ``row`` between consecutive seams."""
    pieces, start = [], 0
    for end, edge in enumerate(accumulate(row), start=1):
        if edge in seams:
            pieces.append(row[start:end])
            start = end
    return pieces
