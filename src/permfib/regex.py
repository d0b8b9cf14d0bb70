"""A small exact regex engine over the alphabet {a, b, c}.

Supports literals, concatenation, union, star, plus, and bounded repetition
(expanded structurally, no counter states).  Compilation goes through the
position automaton, which has no empty moves, and the subset construction;
the resulting DFA is total over the alphabet.  A reference matcher and an
exact parse counter serve as independent cross-checks: they never build an
automaton, but evaluate the syntax tree forward on the set of positions
reached so far, in one pass over the tree per word.  The matcher carries
the set as an int bitset; the counter carries the number of derivations
ending at each position as bit planes (a tuple of bitsets, plane k holding
bit k of every count).  Each node evaluates through a closure built once
per node object from its children's closures, so a word costs no dispatch
on the node type.  The two canonical decompositions used by the bijections
(greedy segmentation of core words, suffix split of full block words) live
here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Union as TypingUnion

from .errors import InvalidInputError, NotInLanguageError
from .words import ALPHABET, check_word


# ---------------------------------------------------------------------------
# Syntax trees

#: Bit i of ``masks[x]`` is set when letter i of the word is x.
Masks = dict[str, int]

#: Derivation counts by end position: bit p of plane k is bit k of the
#: number of derivations that end at p.  The top plane is nonzero, so the
#: empty set is ``()``.
Planes = tuple[int, ...]


class _Node:
    """The evaluation kernels every node class shares.

    Each kernel is a closure built on first use from the kernels of the
    node's children and kept on the node object, so it is built once per
    object (once for a subtree shared by several parents).
    """

    @cached_property
    def _ends(self) -> Callable[[int, Masks], int]:
        return _ends_kernel(self)

    @cached_property
    def _ways(self) -> Callable[[Planes, Masks], Planes]:
        return _ways_kernel(self)


@dataclass(frozen=True)
class Lit(_Node):
    symbol: str

    def __post_init__(self) -> None:
        if self.symbol not in ALPHABET:
            raise InvalidInputError(f"literal must be one of {ALPHABET!r}")


@dataclass(frozen=True)
class Concat(_Node):
    parts: tuple["Node", ...]


@dataclass(frozen=True)
class Union(_Node):
    options: tuple["Node", ...]


@dataclass(frozen=True)
class Star(_Node):
    inner: "Node"


@dataclass(frozen=True)
class Plus(_Node):
    inner: "Node"


@dataclass(frozen=True)
class Repeat(_Node):
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
# Both push the whole set of reached positions through each node, in one
# pass over the tree per word (Baeza-Yates & Gonnet, "A new approach to text
# searching", CACM 35, 1992, run on the tree rather than on an automaton).


def match_ends(node: Node, word: str, start: int) -> frozenset[int]:
    """All positions where a match of ``node`` beginning at ``start`` may end.

    Forward position-set evaluation from the bitset ``1 << start``, at the
    cost given in :func:`ast_matches`.
    """
    check_word(word)
    if start < 0:
        raise InvalidInputError(f"start must be >= 0, got {start}")
    if start > len(word):
        raise InvalidInputError(f"start must be <= len(word) = {len(word)}, got {start}")
    ends = node._ends(1 << start, _symbol_masks(word))
    return frozenset(i for i in range(ends.bit_length()) if ends >> i & 1)


def ast_matches(node: Node, word: str) -> bool:
    """Reference matcher, independent of the DFA pipeline.

    Forward position-set evaluation: the positions reached so far form one
    int bitset, and each node maps the set of its start positions to the set
    of its end positions in one visit.  The first call on a node object
    builds one closure per node of the tree, O(|AST|) once; after that a
    word of length n is one pass over the tree with no dispatch on the node
    type.  A visit of a star or plus runs its body at most n + 1 times, so
    the cost is O(|AST| · (n + 1)^d) big-int operations for star nesting
    depth d (d = 2 for the expressions of this package).

    >>> ast_matches(core_regex(), "aacbc"), ast_matches(core_regex(), "aab")
    (True, False)
    """
    check_word(word)
    return bool(node._ends(1, _symbol_masks(word)) >> len(word) & 1)


def _symbol_masks(word: str) -> Masks:
    """Bit i of ``masks[x]`` is set when ``word[i] == x``."""
    masks = dict.fromkeys(ALPHABET, 0)
    for position, symbol in enumerate(word):
        masks[symbol] |= 1 << position
    return masks


def _ends_kernel(node: Node) -> Callable[[int, Masks], int]:
    """The closure mapping start positions of ``node`` to its end positions."""
    if isinstance(node, Lit):
        symbol = node.symbol

        def ends(starts: int, masks: Masks) -> int:
            return (starts & masks[symbol]) << 1

    elif isinstance(node, Concat):
        parts = tuple(part._ends for part in node.parts)

        def ends(starts: int, masks: Masks) -> int:
            for part in parts:
                if not starts:
                    break
                starts = part(starts, masks)
            return starts

    elif isinstance(node, Union):
        options = tuple(option._ends for option in node.options)

        def ends(starts: int, masks: Masks) -> int:
            reached = 0
            for option in options:
                reached |= option(starts, masks)
            return reached

    elif isinstance(node, (Star, Plus)):
        inner, keep_starts = node.inner._ends, isinstance(node, Star)

        def ends(starts: int, masks: Masks) -> int:
            # positions reachable by one or more inner matches
            reached = 0
            frontier = starts
            while frontier:
                frontier = inner(frontier, masks) & ~reached
                reached |= frontier
            return reached | starts if keep_starts else reached

    elif isinstance(node, Repeat):
        inner, most = node.inner._ends, node.most

        def ends(starts: int, masks: Masks) -> int:
            reached = current = starts
            for _ in range(most):
                current = inner(current, masks)
                reached |= current
            return reached

    else:
        raise TypeError(f"not a regex node: {node!r}")
    return ends


def count_parses(node: Node, word: str) -> int:
    """Number of distinct derivations of ``word``; 1 means unambiguous.

    Forward position-set evaluation, as in :func:`ast_matches`, on bit
    planes in place of the bitset: bit p of plane k is bit k of the number
    of derivations that end at p.  A literal masks and shifts every plane,
    and union, star, plus and repetition add plane tuples with a ripple
    carry.  The number of parses is linear in the start weights, so one
    pass over the tree per word is exact for any count, at the matcher's
    cost times the number of planes: the bit length of the largest count
    reached (one plane while every count is 0 or 1).

    Star and plus require a non-nullable inner expression so that the count
    is finite; every expression in this package satisfies that.  A star or
    plus with a nullable body raises :class:`InvalidInputError` when the
    evaluation reaches it.
    """
    check_word(word)
    n = len(word)
    planes = node._ways((1,), _symbol_masks(word))
    return sum((plane >> n & 1) << k for k, plane in enumerate(planes))


def _add(x: Planes, y: Planes) -> Planes:
    """The position-wise sum of two weighted position sets."""
    if not x:
        return y
    if not y:
        return x
    if len(x) == 1 == len(y):
        carry = x[0] & y[0]
        return (x[0] ^ y[0], carry) if carry else (x[0] | y[0],)
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


def _support(planes: Planes) -> int:
    support = 0
    for plane in planes:
        support |= plane
    return support


def _ways_kernel(node: Node) -> Callable[[Planes, Masks], Planes]:
    """The closure mapping weighted start positions of ``node`` to its ends."""
    if isinstance(node, Lit):
        symbol = node.symbol

        def ways(starts: Planes, masks: Masks) -> Planes:
            mask = masks[symbol]
            if len(starts) == 1:
                ends = (starts[0] & mask) << 1
                return (ends,) if ends else ()
            out = [(plane & mask) << 1 for plane in starts]
            while out and not out[-1]:
                out.pop()
            return tuple(out)

    elif isinstance(node, Concat):
        parts = tuple(part._ways for part in node.parts)

        def ways(starts: Planes, masks: Masks) -> Planes:
            for part in parts:
                if not starts:
                    break
                starts = part(starts, masks)
            return starts

    elif isinstance(node, Union):
        options = tuple(option._ways for option in node.options)

        def ways(starts: Planes, masks: Masks) -> Planes:
            out: Planes = ()
            for option in options:
                out = _add(out, option(starts, masks))
            return out

    elif isinstance(node, (Star, Plus)):
        inner, keep_starts = node.inner._ways, isinstance(node, Star)

        def ways(starts: Planes, masks: Masks) -> Planes:
            frontier = inner(starts, masks)
            # Ends never lie left of their start, so the leftmost start comes
            # back in one step only through an empty match of the body.
            if frontier:
                support = _support(starts)
                if _support(frontier) & support & -support:
                    raise InvalidInputError(
                        "parse counting requires a non-nullable star/plus body"
                    )
            out = starts if keep_starts else ()
            while frontier:
                out = _add(out, frontier)
                frontier = inner(frontier, masks)
            return out

    elif isinstance(node, Repeat):
        inner, most = node.inner._ways, node.most

        def ways(starts: Planes, masks: Masks) -> Planes:
            out = current = starts
            for _ in range(most):
                current = inner(current, masks)
                if not current:
                    break
                out = _add(out, current)
            return out

    else:
        raise TypeError(f"not a regex node: {node!r}")
    return ways


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

    @cached_property
    def _rows(self) -> tuple[dict[str, int], ...]:
        """The table with one {symbol: target} row per state."""
        return tuple(dict(zip(ALPHABET, row)) for row in self.table)

    def accepts(self, word: str) -> bool:
        # a letter outside the alphabet has no row entry: only then is the word checked
        state = self.start
        rows = self._rows
        try:
            for symbol in word:
                state = rows[state][symbol]
        except KeyError:
            check_word(word)
            raise
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
    """Inverse of :func:`split_block_word` for a target total length n.

    ``core`` must be a core word, so the result is always a block word that
    :func:`split_block_word` splits back into (j, k, core).
    """
    check_word(core)
    if len(core) != k:
        raise InvalidInputError(f"core has length {len(core)}, expected k={k}")
    if j < 0:
        raise InvalidInputError(f"the c-run length j must be >= 0, got {j}")
    runs = n - j - k
    if runs < 1:
        raise InvalidInputError(f"need at least one a between core and c-run (n={n}, j={j}, k={k})")
    if not core_dfa().accepts(core):
        raise NotInLanguageError(f"not a core word: {core!r}")
    return core + "a" * runs + "c" * j
