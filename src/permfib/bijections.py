"""Constructive bijections between permutations, words, and tilings.

An N-shaped permutation is one with exactly one left peak: its plot rises,
falls, and rises again (either outer part may be empty, the identity is
excluded).  Such a permutation splits canonically as alpha | beta | gamma
with alpha and gamma increasing and beta decreasing, beta shortest possible.
Recording, for each value 1..n, which of the three parts contains it gives a
word over {a, b, c}; that encoding, its inverse, and the composite map down
to tilings all live here, together with the unique zero-ipk permutation of a
given descent composition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import Composition
from .errors import InvalidInputError, NotInDomainError
from .permutations import (
    Permutation,
    contains_descending_run,
    inverse_letters,
    left_peak_count,
    rise_word,
)
from .regex import reassemble_block_word, split_block_word
from .tilings import Tiling, tiling_to_word, word_to_tiling
from .words import forbidden_factors, is_avoiding_block_word, is_block_word


@dataclass(frozen=True)
class CanonicalDecomposition:
    """The rise/fall/rise split of an N-shaped permutation."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]

    def word(self) -> str:
        """Letter i names the part (a: alpha, b: beta, c: gamma) holding the value i."""
        first = len(self.alpha)
        return _word(self.alpha + self.beta + self.gamma, first, first + len(self.beta))


@dataclass(frozen=True)
class TilingTriple:
    """Image of an N-shaped inverse-avoider: c-run length, core width, tiling."""

    j: int
    k: int
    tiling: Tiling


def is_n_shaped(p: Permutation) -> bool:
    """True when the permutation has exactly one left peak."""
    return left_peak_count(p.letters) == 1


def zero_ipk_permutation(composition: Composition) -> Permutation:
    """The unique permutation with the given descent composition and ipk 0.

    With k parts, value 1 opens the last increasing run, value 2 the one
    before it, and so on; values k+1..n then fill the remaining positions in
    ascending order.

    >>> str(zero_ipk_permutation(Composition((3, 2, 3, 1))))
    '4 5 6 3 7 2 8 9 1'
    """
    parts = composition.parts
    n = composition.n
    if n < 1:
        raise InvalidInputError("the composition must have at least one part")
    k = len(parts)
    letters = [0] * n
    start = 0
    for index, part in enumerate(parts):
        letters[start] = k - index
        start += part
    value = k + 1
    for position in range(n):
        if letters[position] == 0:
            letters[position] = value
            value += 1
    return Permutation(tuple(letters))


def _split(letters: tuple[int, ...]) -> tuple[int, int]:
    """Where alpha ends and gamma starts in an N-shaped permutation's
    letters, read with the left peak count from one rise word."""
    rises = rise_word(letters)
    if ("1" + rises).count("10") != 1:
        raise NotInDomainError(
            f"lpk != 1: not an N-shaped permutation: {Permutation(letters)}"
        )
    # the descent at rise-word index i is the 1-based position i + 1
    return rises.find("0") + 1, rises.rfind("0") + 1


def _word(letters: tuple[int, ...], first: int, last: int) -> str:
    """The word whose letter v names the part holding the value v, with
    alpha = letters[:first], beta = letters[first:last], gamma the rest."""
    symbols = ["c"] * len(letters)
    for value in letters[:first]:
        symbols[value - 1] = "a"
    for value in letters[first:last]:
        symbols[value - 1] = "b"
    return "".join(symbols)


def _encode(letters: tuple[int, ...]) -> str:
    """:func:`block_word` on the letters of a permutation."""
    return _word(letters, *_split(letters))


def _decode(word: str) -> tuple[int, ...]:
    """:func:`word_to_permutation` on a word already known to be a block
    word: the positions of the a's increasing, then those of the b's
    decreasing, then those of the c's increasing."""
    parts: dict[str, list[int]] = {"a": [], "b": [], "c": []}
    for position, symbol in enumerate(word, start=1):
        parts[symbol].append(position)
    return (*parts["a"], *reversed(parts["b"]), *parts["c"])


def canonical_decomposition(p: Permutation) -> CanonicalDecomposition:
    """Split an N-shaped permutation at its left peak and right valley.

    The letter at the left peak goes to alpha and the letter at the right
    valley to gamma, which makes beta as short as possible.  One left peak
    makes the descents one run, so the peak sits at the first descent and
    the valley just after the last.
    """
    letters = p.letters
    first, last = _split(letters)
    return CanonicalDecomposition(
        alpha=letters[:first], beta=letters[first:last], gamma=letters[last:]
    )


def block_word(p: Permutation) -> str:
    """Encode an N-shaped permutation as a word: letter i of the word names
    the part (a: alpha, b: beta, c: gamma) holding the value i.

    >>> block_word(Permutation.from_text("1 2 5 10 12 8 6 4 3 7 9 11"))
    'aacbabcbcaca'
    """
    return _encode(p.letters)


def word_to_permutation(word: str) -> Permutation:
    """Decode a block word back to the unique N-shaped permutation.

    Values whose letter is a are sorted increasingly, then the b values
    decreasingly, then the c values increasingly.
    """
    if not is_block_word(word):
        raise NotInDomainError(
            f"not of the form a^i c u a c^j, so not an encoding: {word!r}"
        )
    return Permutation(_decode(word))


def is_tiling_mappable(p: Permutation, m: int = 3) -> bool:
    """N-shaped with an inverse avoiding the descending consecutive pattern."""
    if not is_n_shaped(p):
        return False
    return not contains_descending_run(inverse_letters(p.letters), m)


def permutation_to_tiling_triple(p: Permutation) -> TilingTriple:
    """Compose encoding, suffix split, and tiling construction.

    >>> triple = permutation_to_tiling_triple(Permutation.from_text("21"))
    >>> (triple.j, triple.k, triple.tiling.serialize())
    (0, 1, '1\\n1')
    """
    word = block_word(p)
    if not is_avoiding_block_word(word, 3):
        raise NotInDomainError(
            f"inverse contains a descending 3-run: encoding {word!r} has a factor in "
            f"{forbidden_factors(3)}"
        )
    j, k, core = split_block_word(word)
    return TilingTriple(j=j, k=k, tiling=word_to_tiling(core))


def tiling_triple_to_permutation(triple: TilingTriple, n: int) -> Permutation:
    """Invert :func:`permutation_to_tiling_triple` for ambient length n."""
    if not (1 <= triple.k <= n - 1 and 0 <= triple.j <= n - triple.k - 1):
        raise InvalidInputError(
            f"triple (j={triple.j}, k={triple.k}) does not fit length {n}"
        )
    core = tiling_to_word(triple.tiling)
    word = reassemble_block_word(triple.j, triple.k, core, n)
    return word_to_permutation(word)
