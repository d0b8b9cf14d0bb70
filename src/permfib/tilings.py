"""Two-row monomino/domino tilings and their correspondence with core words.

A tiling here is a pair of rows of width k, each row a sequence of block
lengths 1 (monomino) or 2 (horizontal domino), with a monomino in the
top-left corner.  Cutting at every full-height vertical seam decomposes a
tiling into indecomposable segments, and those segments are in one-to-one
correspondence with the segments of a core word:

    c    -> monomino over monomino           (width 1)
    bc   -> domino over domino               (width 2)
    a..ac (width w) -> top row 1,2,2,...  bottom row 2,2,...
    a..ab (width w) -> top row 2,2,...    bottom row 1,2,2,...

In the brick-offset segments the rows interlock, so the right edge is a
monomino in exactly one row, determined by the parity of w.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidInputError
from . import regex
from .compositions import descent_set


@dataclass(frozen=True)
class Tiling:
    """Rows of block lengths; both rows sum to the width, top starts with 1."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self) -> None:
        top, bottom = tuple(self.top), tuple(self.bottom)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        for row in (top, bottom):
            if any(block not in (1, 2) for block in row):
                raise InvalidInputError(f"blocks must be 1 or 2: {row}")
        if sum(top) != sum(bottom):
            raise InvalidInputError(
                f"rows cover different widths: {sum(top)} vs {sum(bottom)}"
            )
        if not top or top[0] != 1:
            raise InvalidInputError("the top row must start with a monomino")

    @property
    def width(self) -> int:
        return sum(self.top)

    def serialize(self) -> str:
        """Two lines of block codes, top row first."""
        return (
            " ".join(str(b) for b in self.top)
            + "\n"
            + " ".join(str(b) for b in self.bottom)
        )

    @classmethod
    def from_text(cls, text: str) -> "Tiling":
        lines = [line for line in text.strip().splitlines() if line.strip()]
        if len(lines) != 2:
            raise InvalidInputError("tiling text needs exactly two lines")
        rows = []
        for line in lines:
            try:
                rows.append(tuple(int(tok) for tok in line.split()))
            except ValueError as exc:
                raise InvalidInputError(f"bad tiling row: {line!r}") from exc
        return cls(rows[0], rows[1])


def row_tilings(k: int) -> Iterator[tuple[int, ...]]:
    """All monomino/domino rows of width k, lexicographically by block list."""
    if k < 0:
        raise InvalidInputError("width must be nonnegative")
    if k == 0:
        yield ()
        return
    for first in (1, 2):
        if first <= k:
            for rest in row_tilings(k - first):
                yield (first,) + rest


def enumerate_tilings(k: int) -> Iterator[Tiling]:
    """All width-k tilings with a top-left monomino, (top, bottom) lex order."""
    if k < 1:
        raise InvalidInputError(f"width must be >= 1, got {k}")
    for top in row_tilings(k):
        if top[0] != 1:
            continue
        for bottom in row_tilings(k):
            yield Tiling(top, bottom)


def _monomino_first_row(width: int) -> tuple[int, ...]:
    if width % 2 == 1:
        return (1,) + (2,) * ((width - 1) // 2)
    return (1,) + (2,) * ((width - 2) // 2) + (1,)


def _domino_first_row(width: int) -> tuple[int, ...]:
    if width % 2 == 0:
        return (2,) * (width // 2)
    return (2,) * ((width - 1) // 2) + (1,)


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
    if segment.endswith("c"):
        return _monomino_first_row(width), _domino_first_row(width)
    return _domino_first_row(width), _monomino_first_row(width)


def word_to_tiling(word: str) -> Tiling:
    """Map a core word to its tiling, segment by segment.

    >>> word_to_tiling("c").serialize()
    '1\\n1'
    """
    segments = regex.core_segments(word)
    top: tuple[int, ...] = ()
    bottom: tuple[int, ...] = ()
    for segment in segments:
        seg_top, seg_bottom = segment_rows(segment)
        top += seg_top
        bottom += seg_bottom
    return Tiling(top, bottom)


def tiling_to_word(tiling: Tiling) -> str:
    """Invert :func:`word_to_tiling` by cutting at full-height seams."""
    width = tiling.width
    seams = sorted(set(descent_set(tiling.top)) & set(descent_set(tiling.bottom)))
    cuts = [0] + seams + [width]
    segments = []
    top_iter = list(tiling.top)
    bottom_iter = list(tiling.bottom)

    def take(row: list[int], span: int) -> tuple[int, ...]:
        out = []
        while span > 0:
            block = row.pop(0)
            out.append(block)
            span -= block
        if span != 0:
            raise InvalidInputError("seam cuts through a block")
        return tuple(out)

    for left, right in zip(cuts, cuts[1:]):
        span = right - left
        seg_top = take(top_iter, span)
        seg_bottom = take(bottom_iter, span)
        segments.append(_classify_segment(seg_top, seg_bottom, span))
    word = "".join(segments)
    if not regex.core_dfa().accepts(word):
        raise InvalidInputError(f"tiling does not decode to a core word: {word!r}")
    return word


def _classify_segment(top: tuple[int, ...], bottom: tuple[int, ...], width: int) -> str:
    if width == 1:
        return "c"
    if top == (2,) and bottom == (2,):
        return "bc"
    if top[0] == 1 and top == _monomino_first_row(width) and bottom == _domino_first_row(width):
        return "a" * (width - 1) + "c"
    if bottom[0] == 1 and bottom == _monomino_first_row(width) and top == _domino_first_row(width):
        return "a" * (width - 1) + "b"
    raise InvalidInputError(
        f"not an indecomposable segment shape: top={top} bottom={bottom}"
    )
