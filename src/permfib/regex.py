"""A small exact regex engine over the alphabet {a, b, c}.

Supports literals, concatenation, union, star, plus, and bounded repetition
(expanded structurally, no counter states).  Compilation goes through the
position automaton, which has no empty moves, and the subset construction;
the resulting DFA is total over the alphabet.  A reference matcher and an
exact parse counter serve as independent cross-checks: they never build an
automaton, but evaluate the syntax tree forward on the set of positions
reached so far (a bitset for the matcher, a map from position to number of
derivations for the counter), in one pass over the tree per word.  The
two canonical decompositions used by the bijections (greedy segmentation of
core words, suffix split of full block words) live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Union as TypingUnion

from .errors import InvalidInputError, NotInLanguageError
from .words import ALPHABET, check_word


# ---------------------------------------------------------------------------
# Syntax trees


@dataclass(frozen=True)
class Lit:
    symbol: str

    def __post_init__(self) -> None:
        if self.symbol not in ALPHABET:
            raise InvalidInputError(f"literal must be one of {ALPHABET!r}")


@dataclass(frozen=True)
class Concat:
    parts: tuple["Node", ...]


@dataclass(frozen=True)
class Union:
    options: tuple["Node", ...]


@dataclass(frozen=True)
class Star:
    inner: "Node"


@dataclass(frozen=True)
class Plus:
    inner: "Node"


@dataclass(frozen=True)
class Repeat:
    """At most ``most`` copies of ``inner`` (including zero)."""

    inner: "Node"
    most: int

    def __post_init__(self) -> None:
        if self.most < 0:
            raise InvalidInputError("bounded repetition needs most >= 0")


Node = TypingUnion[Lit, Concat, Union, Star, Plus, Repeat]


def lit(symbol: str) -> Lit:
    return Lit(symbol)


def seq(*parts: Node) -> Node:
    return parts[0] if len(parts) == 1 else Concat(tuple(parts))


def alt(*options: Node) -> Node:
    return options[0] if len(options) == 1 else Union(tuple(options))


def star(inner: Node) -> Star:
    return Star(inner)


def plus(inner: Node) -> Plus:
    return Plus(inner)


def up_to(inner: Node, most: int) -> Repeat:
    return Repeat(inner, most)


def format_ast(node: Node) -> str:
    """Render in the conventional notation with explicit union signs.

    >>> format_ast(core_regex())
    'a* c (c ∪ bc ∪ a⁺b ∪ a⁺c)*'
    """
    return _format(node, top=True)


def _format(node: Node, top: bool = False) -> str:
    if isinstance(node, Lit):
        return node.symbol
    if isinstance(node, Concat):
        rendered = []
        for part in node.parts:
            text = _format(part)
            if isinstance(part, Union):
                text = "(" + text + ")"
            rendered.append(text)
        return " ".join(rendered) if top else "".join(rendered)
    if isinstance(node, Union):
        return " ∪ ".join(_format(option) for option in node.options)
    if isinstance(node, Star):
        return _format_tight(node.inner) + "*"
    if isinstance(node, Plus):
        return _format_tight(node.inner) + "⁺"
    if isinstance(node, Repeat):
        return _format_tight(node.inner) + f"^{{≤{node.most}}}"
    raise TypeError(f"not a regex node: {node!r}")


def _format_tight(node: Node) -> str:
    text = _format(node)
    if isinstance(node, (Concat, Union)):
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# The expressions this package is about


def _segment_alternatives() -> Node:
    return alt(
        lit("c"),
        seq(lit("b"), lit("c")),
        seq(plus(lit("a")), lit("b")),
        seq(plus(lit("a")), lit("c")),
    )


def core_regex() -> Node:
    """a* c (c ∪ bc ∪ a⁺b ∪ a⁺c)* — the segmentable core words."""
    return seq(star(lit("a")), lit("c"), star(_segment_alternatives()))


def block_word_regex(m: int = 3) -> Node:
    """The recognizer for avoiding block words of pattern length m.

    For m = 3 this is a* c (c ∪ bc ∪ a⁺b ∪ a⁺c)* a⁺ c*; larger m allows up
    to m-3 extra b's in front of each segment and of the closing a-run.
    """
    if m < 3:
        raise InvalidInputError(f"m must be >= 3, got {m}")
    segment = _segment_alternatives()
    if m == 3:
        middle: Node = star(segment)
        closing: tuple[Node, ...] = ()
    else:
        padding = up_to(lit("b"), m - 3)
        middle = star(seq(padding, segment))
        closing = (up_to(lit("b"), m - 3),)
    return seq(star(lit("a")), lit("c"), middle, *closing, plus(lit("a")), star(lit("c")))


# ---------------------------------------------------------------------------
# Reference matcher and parse counting (forward position-set evaluation)
#
# Both walk the syntax tree once per word, pushing the whole set of reached
# positions through each node (Baeza-Yates & Gonnet, "A new approach to text
# searching", CACM 35, 1992, run on the tree rather than on an automaton).


def match_ends(node: Node, word: str, start: int) -> frozenset[int]:
    """All positions where a match of ``node`` beginning at ``start`` may end.

    Forward position-set evaluation from the bitset ``1 << start``, at the
    cost given in :func:`ast_matches`.
    """
    check_word(word)
    if start < 0:
        raise InvalidInputError(f"start must be >= 0, got {start}")
    ends = _ends(node, 1 << start, _symbol_masks(word))
    return frozenset(i for i in range(ends.bit_length()) if ends >> i & 1)


def ast_matches(node: Node, word: str) -> bool:
    """Reference matcher, independent of the DFA pipeline.

    Forward position-set evaluation: the positions reached so far form one
    int bitset, and each node maps the set of its start positions to the set
    of its end positions in one visit.  A word of length n is one pass over
    the tree; a visit of a star or plus runs its body at most n + 1 times,
    so the cost is O(|AST| · (n + 1)^d) big-int operations for star nesting
    depth d (d = 2 for the expressions of this package).

    >>> ast_matches(core_regex(), "aacbc"), ast_matches(core_regex(), "aab")
    (True, False)
    """
    check_word(word)
    return bool(_ends(node, 1, _symbol_masks(word)) >> len(word) & 1)


def _symbol_masks(word: str) -> dict[str, int]:
    """Bit i of ``masks[x]`` is set when ``word[i] == x``."""
    masks = dict.fromkeys(ALPHABET, 0)
    for position, symbol in enumerate(word):
        masks[symbol] |= 1 << position
    return masks


def _ends(node: Node, starts: int, masks: dict[str, int]) -> int:
    """End positions of ``node`` matched from any position in ``starts``."""
    if isinstance(node, Lit):
        return (starts & masks[node.symbol]) << 1
    if isinstance(node, Concat):
        for part in node.parts:
            if not starts:
                break
            starts = _ends(part, starts, masks)
        return starts
    if isinstance(node, Union):
        ends = 0
        for option in node.options:
            ends |= _ends(option, starts, masks)
        return ends
    if isinstance(node, (Star, Plus)):
        # positions reachable by one or more inner matches
        reached = 0
        frontier = starts
        while frontier:
            frontier = _ends(node.inner, frontier, masks) & ~reached
            reached |= frontier
        return reached | starts if isinstance(node, Star) else reached
    if isinstance(node, Repeat):
        reached = current = starts
        for _ in range(node.most):
            current = _ends(node.inner, current, masks)
            reached |= current
        return reached
    raise TypeError(f"not a regex node: {node!r}")


def count_parses(node: Node, word: str) -> int:
    """Number of distinct derivations of ``word``; 1 means unambiguous.

    Forward position-set evaluation, as in :func:`ast_matches`, on a sparse
    map {position: derivations so far} in place of the bitset.  The number
    of parses is linear in the start weights, so one pass over the tree per
    word is exact, at the matcher's cost in dictionary updates.

    Star and plus require a non-nullable inner expression so that the count
    is finite; every expression in this package satisfies that.  A star or
    plus with a nullable body raises :class:`InvalidInputError` when the
    evaluation reaches it.
    """
    check_word(word)
    return _ways(node, {0: 1}, word).get(len(word), 0)


def _ways(node: Node, starts: dict[int, int], word: str) -> dict[int, int]:
    """{end: derivations} of ``node`` from the weighted start map ``starts``."""
    if isinstance(node, Lit):
        n, symbol = len(word), node.symbol
        out = {}
        for s, ways in starts.items():
            if s < n and word[s] == symbol:
                out[s + 1] = ways
        return out
    if isinstance(node, Concat):
        for part in node.parts:
            if not starts:
                break
            starts = _ways(part, starts, word)
        return starts
    if isinstance(node, Union):
        out: dict[int, int] = {}
        for option in node.options:
            _add_into(out, _ways(option, starts, word))
        return out
    if isinstance(node, (Star, Plus)):
        out = dict(starts) if isinstance(node, Star) else {}
        frontier = _ways(node.inner, starts, word)
        # Ends never lie left of their start, so the leftmost start comes
        # back in one step only through an empty match of the body.
        if starts and min(starts) in frontier:
            raise InvalidInputError("parse counting requires a non-nullable star/plus body")
        while frontier:
            _add_into(out, frontier)
            frontier = _ways(node.inner, frontier, word)
        return out
    if isinstance(node, Repeat):
        out = dict(starts)
        current = starts
        for _ in range(node.most):
            current = _ways(node.inner, current, word)
            _add_into(out, current)
        return out
    raise TypeError(f"not a regex node: {node!r}")


def _add_into(out: dict[int, int], step: dict[int, int]) -> None:
    for position, ways in step.items():
        out[position] = out.get(position, 0) + ways


# ---------------------------------------------------------------------------
# Position automaton and subset construction
#
# The position (Glushkov) automaton has one state per literal occurrence plus
# a start marker, and no empty moves (Glushkov, "The abstract theory of
# automata", Russian Math. Surveys 16, 1961).


def _positions(
    node: Node, symbols: list[str], follow: list[set[int]]
) -> tuple[bool, set[int], set[int]]:
    """(nullable, first, last) of ``node``, numbering its literal occurrences.

    Each literal gets the next position, with its symbol appended to
    ``symbols``; ``follow[p]`` collects the positions that may come right
    after position p.
    """
    if isinstance(node, Lit):
        symbols.append(node.symbol)
        follow.append(set())
        return False, {len(symbols) - 1}, {len(symbols) - 1}
    if isinstance(node, (Concat, Repeat)):
        # a Repeat is a chain of copies that may stop after any prefix of them
        parts = node.parts if isinstance(node, Concat) else (node.inner,) * node.most
        nullable, first, last, ends = True, set(), set(), set()
        for part in parts:
            part_nullable, part_first, part_last = _positions(part, symbols, follow)
            for p in last:
                follow[p] |= part_first
            if nullable:
                first |= part_first
            last = last | part_last if part_nullable else part_last
            nullable = nullable and part_nullable
            ends |= last
        return (True, first, ends) if isinstance(node, Repeat) else (nullable, first, last)
    if isinstance(node, Union):
        nullable, first, last = False, set(), set()
        for option in node.options:
            option_nullable, option_first, option_last = _positions(option, symbols, follow)
            nullable |= option_nullable
            first |= option_first
            last |= option_last
        return nullable, first, last
    if isinstance(node, (Star, Plus)):
        nullable, first, last = _positions(node.inner, symbols, follow)
        for p in last:
            follow[p] |= first
        return nullable or isinstance(node, Star), first, last
    raise TypeError(f"not a regex node: {node!r}")


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton over {a, b, c}."""

    table: tuple[tuple[int, ...], ...]
    start: int
    accepting: frozenset[int]

    @property
    def states(self) -> int:
        return len(self.table)

    def accepts(self, word: str) -> bool:
        check_word(word)
        state = self.start
        table = self.table
        for symbol in word:
            state = table[state][0 if symbol == "a" else 1 if symbol == "b" else 2]
        return state in self.accepting

    def count_words(self, n: int) -> int:
        """Number of accepted words of length exactly n, by path counting."""
        if n < 0:
            raise InvalidInputError("n must be nonnegative")
        counts = [0] * self.states
        counts[self.start] = 1
        for _ in range(n):
            nxt = [0] * self.states
            for state, ways in enumerate(counts):
                if ways:
                    for target in self.table[state]:
                        nxt[target] += ways
            counts = nxt
        return sum(counts[state] for state in self.accepting)

    def language(self, n: int) -> Iterator[str]:
        """All accepted words of length n, lexicographically."""
        if n < 0:
            raise InvalidInputError("n must be nonnegative")
        viable = self._viable_table(n)
        word: list[str] = []

        def walk(state: int, remaining: int) -> Iterator[str]:
            if remaining == 0:
                if state in self.accepting:
                    yield "".join(word)
                return
            for index, symbol in enumerate(ALPHABET):
                target = self.table[state][index]
                if viable[remaining - 1][target]:
                    word.append(symbol)
                    yield from walk(target, remaining - 1)
                    word.pop()

        yield from walk(self.start, n)

    def _viable_table(self, n: int) -> list[list[bool]]:
        # viable[r][s]: some length-r word leads from s to an accepting state
        viable = [[s in self.accepting for s in range(self.states)]]
        for _ in range(n):
            previous = viable[-1]
            viable.append(
                [any(previous[t] for t in self.table[s]) for s in range(self.states)]
            )
        return viable


def compile_ast(node: Node) -> Dfa:
    """Compile via the position automaton and the subset construction.

    Position 0 is the start marker; a subset of positions accepts when it
    holds a last position, or is the start and the expression is nullable.
    The DFA is total: the empty subset is its dead state.
    """
    symbols, follow = [""], [set()]
    nullable, first, last = _positions(node, symbols, follow)
    follow[0] = first
    final = last | {0} if nullable else last
    initial = frozenset((0,))
    index: dict[frozenset[int], int] = {initial: 0}
    order = [initial]
    table: list[tuple[int, ...]] = []
    for subset in order:
        row = []
        for symbol in ALPHABET:
            target = frozenset(q for p in subset for q in follow[p] if symbols[q] == symbol)
            if target not in index:
                index[target] = len(order)
                order.append(target)
            row.append(index[target])
        table.append(tuple(row))
    accepting = frozenset(i for i, subset in enumerate(order) if not subset.isdisjoint(final))
    return Dfa(table=tuple(table), start=0, accepting=accepting)


@lru_cache(maxsize=None)
def core_dfa() -> Dfa:
    return compile_ast(core_regex())


@lru_cache(maxsize=None)
def block_word_dfa(m: int = 3) -> Dfa:
    return compile_ast(block_word_regex(m))


# ---------------------------------------------------------------------------
# Canonical decompositions


def core_segments(word: str) -> tuple[str, ...]:
    """The unique segmentation of a core word into c | bc | a..ab | a..ac.

    The first segment absorbs the leading a-run and its c.  Greedy scanning
    is forced: a-runs cannot straddle segment boundaries because no segment
    ends with an a.

    >>> core_segments("aacbcccaaabbcac")
    ('aac', 'bc', 'c', 'c', 'aaab', 'bc', 'ac')
    """
    check_word(word)
    if not core_dfa().accepts(word):
        raise NotInLanguageError(f"not a core word: {word!r}")
    segments = []
    position = 0
    n = len(word)
    while position < n:
        start = position
        if word[position] == "c":
            position += 1
        elif word[position] == "b":
            position += 2  # membership guarantees the following c
        else:
            while word[position] == "a":
                position += 1
            position += 1  # the terminating b or c
        segments.append(word[start:position])
    return tuple(segments)


def split_block_word(word: str) -> tuple[int, int, str]:
    """Split a full block word as core + a-run + c-run, returning (j, k, core).

    j counts the trailing c's, k is the core length, and the a-run length is
    recovered as len(word) - j - k.  The split is unique because core words
    never end with an a.

    >>> split_block_word("aacbcccaaabbcacaaccc")
    (3, 15, 'aacbcccaaabbcac')
    """
    check_word(word)
    if not block_word_dfa(3).accepts(word):
        raise NotInLanguageError(f"not an avoiding block word: {word!r}")
    n = len(word)
    j = 0
    while word[n - 1 - j] == "c":
        j += 1
    end = n - j
    while word[end - 1] == "a":
        end -= 1
    core = word[:end]
    return j, end, core


def reassemble_block_word(j: int, k: int, core: str, n: int) -> str:
    """Inverse of :func:`split_block_word` for a target total length n."""
    if len(core) != k:
        raise InvalidInputError(f"core has length {len(core)}, expected k={k}")
    if j < 0:
        raise InvalidInputError(f"the c-run length j must be >= 0, got {j}")
    runs = n - j - k
    if runs < 1:
        raise InvalidInputError(f"need at least one a between core and c-run (n={n}, j={j}, k={k})")
    return core + "a" * runs + "c" * j
