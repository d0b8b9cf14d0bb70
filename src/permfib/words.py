"""Words over the alphabet {a, b, c} and the block-word languages.

A "block word" is a word of the form  a^i c u a c^j  (i, j >= 0, u arbitrary):
a run of a's, a mandatory c, anything, a mandatory a, a run of c's.  These are
exactly the words that encode an N-shaped permutation (see bijections).  The
avoiding block words additionally avoid four forbidden factors that depend on
a pattern length m >= 3.  The definition is the two tests in sequence:
:func:`is_block_word` (form, and the alphabet) and
:func:`avoids_forbidden_factors` (the factors of one m), so a walk over
several m tests the form once per word.  :func:`iter_avoiding_block_words`
generates the avoiding block words of one m without walking the others.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .errors import InvalidInputError

ALPHABET = "abc"


def check_word(word: str) -> str:
    """Validate the alphabet and hand the word back."""
    if word.strip(ALPHABET):
        raise InvalidInputError(f"word must use only letters a, b, c: {word!r}")
    return word


def avoids_factor(word: str, factor: str) -> bool:
    """True when ``factor`` never occurs as a contiguous block of ``word``."""
    check_word(word)
    check_word(factor)
    if not factor:
        raise InvalidInputError("the factor must be nonempty")
    return factor not in word


def is_block_word(word: str) -> bool:
    """True for words of the form a^i c u a c^j.

    The maximal leading a-run and maximal trailing c-run are forced: the
    mandatory c ends the former and the mandatory a the latter, so what
    lies between the runs must start with c and end with a.
    """
    middle = check_word(word).lstrip("a").rstrip("c")
    return middle[:1] == "c" and middle[-1:] == "a"


@functools.lru_cache(maxsize=32)
def forbidden_factors(m: int = 3) -> tuple[str, str, str, str]:
    """The four factors whose absence marks an inverse m...21 avoider.

    The tuples of the last 32 values of m are cached; an m below 3 raises
    on every call.

    >>> forbidden_factors(3)
    ('bba', 'bbb', 'cba', 'cbb')
    """
    if m < 3:
        raise InvalidInputError(f"m must be >= 3, got {m}")
    b = "b" * (m - 2)
    return (b + "ba", b + "bb", "c" + b + "a", "c" + b + "b")


def avoids_forbidden_factors(word: str, m: int = 3) -> bool:
    """True when none of the four order-m forbidden factors occurs in ``word``.

    The word is not validated: this is a factor test and answers for any
    string.  Callers that walk generated words test block form once per
    word with :func:`is_block_word` and this once per m.

    >>> avoids_forbidden_factors("acbca", 3), avoids_forbidden_factors("acbba", 3)
    (True, False)
    """
    first, second, third, fourth = forbidden_factors(m)
    return first not in word and second not in word and third not in word and fourth not in word


def is_avoiding_block_word(word: str, m: int = 3) -> bool:
    """Block-word form plus avoidance of the four order-m forbidden factors.

    A word outside block form is rejected before m is read.
    """
    return is_block_word(word) and avoids_forbidden_factors(word, m)


def iter_words(n: int) -> Iterator[str]:
    """All 3^n words of length n in lexicographic order."""
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    return ("".join(symbols) for symbols in itertools.product(ALPHABET, repeat=n))


def iter_block_words(n: int) -> Iterator[str]:
    """All block words of length n, generated from the form directly.

    Built by looping over the two run lengths and the free middle, so this
    stream is independent of the regex machinery; it is the enumeration
    oracle for the languages recognized there.
    """
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    for i in range(n - 1):
        for j in range(n - 1 - i):
            middle = n - i - j - 2
            for u in itertools.product(ALPHABET, repeat=middle):
                yield "a" * i + "c" + "".join(u) + "a" + "c" * j


def iter_avoiding_block_words(n: int, m: int = 3) -> Iterator[str]:
    """The avoiding block words of length n, in :func:`iter_block_words` order.

    The middle u of a^i c u a c^j grows one letter at a time after the
    mandatory c, and a prefix c u is dropped as soon as its last m letters
    are a forbidden factor: every word that extends it holds that factor.
    Which prefixes survive depends only on the length of u, so each length
    is grown once and read for every pair of run lengths.  Each word built
    from them still passes :func:`is_avoiding_block_word`, which catches the
    factors that end in the mandatory a.

    >>> list(iter_avoiding_block_words(3, 3))  # cba holds the factor cba
    ['caa', 'cca', 'cac', 'aca']
    """
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    factors = frozenset(forbidden_factors(m))
    levels = [["c"]]
    for _ in range(n - 2):
        levels.append(
            [grown for prefix in levels[-1] for symbol in ALPHABET
             if (grown := prefix + symbol)[-m:] not in factors]
        )
    for i in range(n - 1):
        for j in range(n - 1 - i):
            head, tail = "a" * i, "a" + "c" * j
            for middle in levels[n - 2 - i - j]:
                word = head + middle + tail
                if is_avoiding_block_word(word, m):
                    yield word
