"""A small exact regex engine over the alphabet {a, b, c}.

Supports literals, concatenation, union, star, plus, and bounded repetition
(expanded structurally, no counter states).  Compilation goes through the
position automaton, which has no empty moves, and the subset construction;
the resulting DFA is total over the alphabet.  A reference matcher and an
exact parse counter serve as independent cross-checks: they never build an
automaton, but evaluate the syntax tree forward on the set of positions
reached so far, in one pass over the tree per word.  The matcher carries
the set as an int bitset, through one kernel per root syntax tree,
generated as Python source on first use and cached on the node, and called
once per word: an entry function ``kernel(word, s=1)`` that checks the
alphabet, builds one bitset per letter and runs straight-line int code,
and a function per star, plus or bounded repetition of more than one
letter.  A repetition of one letter is closed-form carry arithmetic, the
bounded one included, and each such node, or letter, is computed once per
start set within a function.  The counter runs a strict variant of the
same kernel, which gives up where two derivations end at one position;
if it finishes, every count is 0 or 1.  Otherwise the counter runs again
on weighted ends, a {position: derivations} dict, with the ends of each
star, plus or bounded repetition from each start computed once per word.
The two canonical decompositions used by the bijections (greedy
segmentation of core words, suffix split of full block words) live here as
well.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, Iterator, Union as TypingUnion

from ._value import Value
from .errors import InvalidInputError, NotInLanguageError
from .words import ALPHABET, check_word


# ---------------------------------------------------------------------------
# Syntax trees

class _Node(Value):
    """The two evaluation kernels every node class shares, each compiled on
    first use from the whole tree under the node and kept on the node
    object: once per node object they are called on."""

    @cached_property
    def _kernel(self) -> Callable[..., int]:
        return _build_kernel(self, strict=False)

    @cached_property
    def _strict_kernel(self) -> Callable[..., int]:
        return _build_kernel(self, strict=True)


class Lit(_Node):
    symbol: str

    def __init__(self, symbol: str) -> None:
        if symbol not in tuple(ALPHABET):
            raise InvalidInputError(
                f"literal must be one letter of {ALPHABET!r}, got {symbol!r}"
            )
        super().__init__(symbol)


class Concat(_Node):
    parts: tuple["Node", ...]


class Union(_Node):
    options: tuple["Node", ...]


class Star(_Node):
    inner: "Node"


class Plus(_Node):
    inner: "Node"


class Repeat(_Node):
    """At most ``most`` copies of ``inner`` (including zero)."""

    inner: "Node"
    most: int

    def __init__(self, inner: "Node", most: int) -> None:
        if not isinstance(most, int) or isinstance(most, bool) or most < 0:
            raise InvalidInputError(
                f"bounded repetition needs an int most >= 0, got {most!r}"
            )
        super().__init__(inner, most)


Node = TypingUnion[Lit, Concat, Union, Star, Plus, Repeat]


def seq(*parts: Node) -> Node:
    return parts[0] if len(parts) == 1 else Concat(tuple(parts))


def alt(*options: Node) -> Node:
    return options[0] if len(options) == 1 else Union(tuple(options))


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
    a, b, c = Lit("a"), Lit("b"), Lit("c")
    return alt(c, seq(b, c), seq(Plus(a), b), seq(Plus(a), c))


def core_regex() -> Node:
    """a* c (c ∪ bc ∪ a⁺b ∪ a⁺c)* — the segmentable core words."""
    return seq(Star(Lit("a")), Lit("c"), Star(_segment_alternatives()))


def block_word_regex(m: int = 3) -> Node:
    """The recognizer for avoiding block words of pattern length m.

    For m = 3 this is a* c (c ∪ bc ∪ a⁺b ∪ a⁺c)* a⁺ c*; larger m allows up
    to m-3 extra b's in front of each segment and of the closing a-run.
    """
    if m < 3:
        raise InvalidInputError(f"m must be >= 3, got {m}")
    segment = _segment_alternatives()
    if m == 3:
        middle: Node = Star(segment)
        closing: tuple[Node, ...] = ()
    else:
        padding = Repeat(Lit("b"), m - 3)
        middle = Star(seq(padding, segment))
        closing = (Repeat(Lit("b"), m - 3),)
    return seq(Star(Lit("a")), Lit("c"), middle, *closing, Plus(Lit("a")), Star(Lit("c")))


# ---------------------------------------------------------------------------
# Reference matcher and parse counting (forward position-set evaluation)
#
# Both push the whole set of reached positions through each node, in one
# pass over the tree per word (Baeza-Yates & Gonnet, "A new approach to text
# searching", CACM 35, 1992, run on the tree rather than on an automaton).


def ast_matches(node: Node, word: str) -> bool:
    """Reference matcher, independent of the DFA pipeline.

    Forward position-set evaluation: the positions reached so far form one
    int bitset, and each node maps the set of its start positions to the set
    of its end positions in one visit.  The first call on a node object
    compiles the tree under it into one kernel, in O(|AST|) once (see
    :func:`_build_kernel`).  After that a word of length n is one call of
    the kernel, which checks the alphabet, builds the letter masks and runs
    straight-line int code, with one function call per visit of a star,
    plus or bounded repetition whose body is not a single letter.  Such a
    visit runs its body at most n + 1 times, so the cost is
    O(|AST| · (n + 1)^d) big-int operations for a nesting depth d of those
    loops (d = 1 for the expressions of this package); a repetition of one
    letter needs no loop.

    >>> ast_matches(core_regex(), "aacbc"), ast_matches(core_regex(), "aab")
    (True, False)
    """
    return bool(node._kernel(word) >> len(word) & 1)


class _Overlap(Exception):
    """Two derivations end at one position, so some count is at least 2."""


#: The masks, one per letter of ALPHABET, named by their letters: bit i of
#: the mask of x is set when letter i of the word is x.  Every generated
#: function but the entry takes the start set ``s`` and then the masks.
_MASK_NAMES = ", ".join(ALPHABET)
_PARAMETERS = "s, " + _MASK_NAMES

#: ``bytes.translate`` tables that write 1 for one letter and 0 for the
#: others, under the names the entry function reads: one for each letter
#: but the last, whose mask is the complement of the others.
_MASK_TABLES = {
    f"_{x}": bytes.maketrans(ALPHABET.encode(), bytes(b"01"[x == y] for y in ALPHABET))
    for x in ALPHABET[:-1]
}


def _build_kernel(node: Node, strict: bool) -> Callable[..., int]:
    """Compile the tree under ``node`` into one function
    ``kernel(word, s=1) -> ends`` on int bitsets: the ends of the matches of
    ``node`` in ``word`` from the start set ``s``.

    The function is generated as Python source.  Its entry checks the
    alphabet, raising :func:`check_word`'s error only for a word outside
    it, and builds the masks: the reversed word read in binary, with 1 for
    the letter and 0 for the others, and for the last letter the
    complement of the others.  Then it maps ``s`` forward through the tree
    (see :class:`_KernelWriter`) in straight-line int code, with one more
    function for each star, plus or bounded repetition whose body is not a
    single letter, each calling the next one down, so any depth compiles.

    The strict variant raises :class:`_Overlap` wherever a union, a
    repetition or a star iteration adds two position sets that intersect.
    Until it does, every derivation count it tracks is 0 or 1, so a strict
    kernel that returns gives the exact counts of a 0/1 start set.
    """
    writer = _KernelWriter(strict)
    writer.entry(node)
    namespace = {"_Overlap": _Overlap, "check_word": check_word, **_MASK_TABLES}
    exec(compile("\n".join(writer.lines), "<regex kernel>", "exec"), namespace)
    return namespace["kernel"]


def _loops(node: Node) -> bool:
    """Whether the node's kernel iterates: a repetition of more than one letter."""
    return isinstance(node, (Star, Plus, Repeat)) and not isinstance(node.inner, Lit)


def _within(starts: str, most: int, name: str) -> list[str]:
    """The lines that set ``name`` to the positions 1..``most`` to the right
    of the set named ``starts``, in O(log most) shifts: from a reach of 1,
    each further binary digit of ``most`` doubles the reach, and a digit 1
    then adds one."""
    lines = [f"{name} = {starts} << 1"]
    reach = 1
    for digit in bin(most)[3:]:
        lines.append(f"{name} |= {name} << {reach}")
        reach *= 2
        if digit == "1":
            reach += 1
            lines.append(f"{name} |= {starts} << {reach}")
    return lines


class _KernelWriter:
    """The source lines of one tree's kernel: the entry function, and a
    function per loop node.

    A letter-only node (a letter, or a star, plus or bounded repetition of
    one letter) is written once per function for each start set: its ends
    are kept by the structural node and the name of the start set, and a
    second visit, as of the a⁺ in a⁺b ∪ a⁺c, reads them back.  This is sound
    because no name is rebound once the node that computes it is written:
    each node's ends get a fresh name, and a loop rebinds its frontier
    ``f`` only after its whole body.

    A letter-only node needs no loop.  With ``h = starts & x``, the carry
    of ``h + x`` runs to the end of each run of x's that h enters, so
    ``(h + x) ^ x ^ h`` is the set of ends of one or more x's.  For x^{≤k},
    ``starts | (((h + x) ^ x ^ h) & within_k(starts))`` keeps those at most
    k letters right of a start (:func:`_within`); a star adds the starts,
    and a plus keeps the ends as they are.
    """

    def __init__(self, strict: bool) -> None:
        self.strict = strict
        self.lines: list[str] = []
        self.functions: dict[int, str] = {}
        self.letters: dict[tuple[Node, str], str] = {}
        self.variables = 0

    def fresh(self) -> str:
        self.variables += 1
        return f"v{self.variables}"

    def entry(self, node: Node) -> None:
        """Write ``kernel(word, s=1)``: the alphabet check, the masks, and
        the ends of ``node`` from ``s``."""
        *head, last = ALPHABET

        def write(body: list[str]) -> None:
            body += [
                f"if word.strip({ALPHABET!r}): check_word(word)",
                'digits = word[::-1].encode() or b"0"',
                *(f"{x} = int(digits.translate(_{x}), 2)" for x in head),
                f"{last} = ((1 << len(word)) - 1) ^ {' ^ '.join(head)}",
            ]
            body.append(f"return {self._emit(node, 's', body)}")

        self._define("kernel(word, s=1)", write)

    def function(self, node: Node) -> str:
        """The name of the function mapping the start set ``s`` of the loop
        node ``node`` to its ends, written on first request (once for a
        shared loop)."""
        name = self.functions.get(id(node))
        if name is None:
            name = self.functions[id(node)] = f"k{len(self.functions)}"
            self._define(f"{name}({_PARAMETERS})", lambda body: self._loop(node, body))
        return name

    def _define(self, signature: str, write: Callable[[list[str]], None]) -> None:
        """Write the function ``signature`` with the body lines that
        ``write`` appends, sharing letter-only nodes within it only."""
        outer, self.letters = self.letters, {}
        body: list[str] = []
        write(body)
        self.letters = outer
        self.lines += [f"def {signature}:", *("    " + line for line in body)]

    def _loop(self, node: Node, body: list[str]) -> None:
        # r: the ends reached so far; f: the starts of the next iteration
        if isinstance(node, Repeat):
            body += ["r = f = s", f"for _ in range({node.most}):"]
        else:
            body += ["r = 0" if isinstance(node, Plus) else "r = s", "f = s", "while f:"]
        inner: list[str] = []
        ends = self._emit(node.inner, "f", inner)
        if self.strict:
            inner += [f"if {ends} & r: raise _Overlap", f"r |= {ends}", f"f = {ends}"]
        else:
            # a start already reached needs no second run: its ends are in r
            inner += [f"f = {ends} & ~r", "r |= f"]
        if isinstance(node, Repeat):
            inner.append("if not f: break")
        body += ["    " + line for line in inner]
        body.append("return r")

    def _emit(self, node: Node, starts: str, body: list[str]) -> str:
        """Append the lines computing the ends of ``node`` from the set named
        ``starts``, and return the name that holds them."""
        if isinstance(node, Concat):
            for part in node.parts:
                starts = self._emit(part, starts, body)
            return starts
        if isinstance(node, Union):
            options = [self._emit(option, starts, body) for option in node.options]
            ends = self.fresh()
            body.append(f"{ends} = {options[0] if options else 0}")
            for option in options[1:]:
                if self.strict:
                    body.append(f"if {ends} & {option}: raise _Overlap")
                body.append(f"{ends} |= {option}")
            return ends
        if _loops(node):
            ends = self.fresh()
            body.append(f"{ends} = {self.function(node)}({starts}, {_MASK_NAMES})")
            return ends
        if not isinstance(node, (Lit, Star, Plus, Repeat)):
            raise TypeError(f"not a regex node: {node!r}")
        key = (node, starts)
        if key not in self.letters:
            self.letters[key] = self._letters(node, starts, body)
        return self.letters[key]

    def _letters(self, node: Lit | Star | Plus | Repeat, starts: str, body: list[str]) -> str:
        """:meth:`_emit` for a letter-only node."""
        if isinstance(node, Lit):
            ends = self.fresh()
            body.append(f"{ends} = ({starts} & {node.symbol}) << 1")
            return ends
        if isinstance(node, Repeat) and node.most == 0:
            return starts
        x, entered, ends = node.inner.symbol, self.fresh(), self.fresh()
        body.append(f"{entered} = {starts} & {x}")
        more = f"(({entered} + {x}) ^ {x} ^ {entered})"
        if isinstance(node, Repeat):
            within = self.fresh()
            body += _within(starts, node.most, within)
            more = f"({more} & {within})"
        if isinstance(node, Plus):
            body.append(f"{ends} = {more}")
            if self.strict:
                # a start that one or more x's reach from an earlier start
                body.append(f"if {ends} & {entered}: raise _Overlap")
        elif self.strict:
            # a star or bounded repetition also ends at its starts, on no x
            body.append(f"{ends} = {more}")
            body.append(f"if {ends} & {starts}: raise _Overlap")
            body.append(f"{ends} |= {starts}")
        else:
            body.append(f"{ends} = {more} | {starts}")
        return ends


def count_parses(node: Node, word: str) -> int:
    """Number of distinct derivations of ``word``; 1 means unambiguous.

    Forward position-set evaluation, as in :func:`ast_matches`, in two
    tiers.  The strict kernel (see :func:`_build_kernel`) runs first, at the
    matcher's cost of one call per word: it stops at the first union,
    repetition or star iteration that adds two intersecting position sets.
    If there is none, every derivation count is 0 or 1, and the answer is
    bit n of its ends.

    Otherwise the count runs again on weighted ends, a {position:
    derivations} dict that each node maps forward: a literal by a shift, a
    concatenation through its parts in turn, a union by adding the ends of
    its options.  The number of parses is linear in the start weights, so this is exact for
    any count.  A star, plus or bounded repetition computes its ends from
    each start once per word, and scales them by the start's weight, so it
    runs its body at most n + 1 times per start whatever the nesting: the
    cost is polynomial in n, with no factor exponential in the depth.

    Star and plus require a non-nullable inner expression so that the count
    is finite; every expression in this package satisfies that.  A star or
    plus with a nullable body raises :class:`InvalidInputError` when the
    evaluation reaches it.
    """
    try:
        return node._strict_kernel(word) >> len(word) & 1
    except _Overlap:
        pass
    return _weighted_ends(node, {0: 1}, word, {}).get(len(word), 0)


def _weighted_ends(
    node: Node, starts: dict[int, int], word: str, memo: dict[tuple[int, int], dict[int, int]]
) -> dict[int, int]:
    """The derivation counts of ``node`` by end position, from start
    positions weighted by their own derivation counts."""
    if isinstance(node, Lit):
        return {s + 1: ways for s, ways in starts.items() if word.startswith(node.symbol, s)}
    if isinstance(node, Concat):
        for part in node.parts:
            if starts:
                starts = _weighted_ends(part, starts, word, memo)
        return starts
    ends: dict[int, int] = {}
    if isinstance(node, Union):
        for option in node.options:
            for e, ways in _weighted_ends(option, starts, word, memo).items():
                ends[e] = ends.get(e, 0) + ways
        return ends
    if not isinstance(node, (Star, Plus, Repeat)):
        raise TypeError(f"not a regex node: {node!r}")
    for s, ways in starts.items():
        key = (id(node), s)
        if key not in memo:
            memo[key] = _loop_ends(node, s, word, memo)
        for e, loop_ways in memo[key].items():
            ends[e] = ends.get(e, 0) + ways * loop_ways
    return ends


def _loop_ends(
    node: Star | Plus | Repeat, start: int, word: str, memo: dict[tuple[int, int], dict[int, int]]
) -> dict[int, int]:
    """The derivation counts of a star, plus or bounded repetition by end
    position, from the one start ``start``."""
    ends = {} if isinstance(node, Plus) else {start: 1}
    frontier = {start: 1}
    # Ends never lie left of their start, so a body that does not end at the
    # start moves every frontier right: n + 1 rounds run a star to its end.
    for _ in range(node.most if isinstance(node, Repeat) else len(word) + 1):
        frontier = _weighted_ends(node.inner, frontier, word, memo)
        if not frontier:
            break
        if start in frontier and not isinstance(node, Repeat):
            raise InvalidInputError("parse counting requires a non-nullable star/plus body")
        for e, ways in frontier.items():
            ends[e] = ends.get(e, 0) + ways
    return ends


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


class Dfa(Value):
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

    def counts(self, n: int) -> list[int]:
        """The numbers of accepted words of each length 0..n, from one path
        table."""
        return [row[self.start] for row in self._paths(n)]

    def language(self, n: int) -> Iterator[str]:
        """All accepted words of length n, lexicographically."""
        paths = self._paths(n)
        # Depth first on an explicit stack of (state, prefix) pairs: the
        # children go on in reverse letter order, so they come off in
        # order, and only prefixes that reach an accepting state go on.
        steps = [tuple(zip(reversed(row), reversed(ALPHABET))) for row in self.table]
        stack = [(self.start, "")] if paths[n][self.start] else []
        while stack:
            state, prefix = stack.pop()
            remaining = n - len(prefix)
            if not remaining:
                yield prefix
                continue
            alive = paths[remaining - 1]
            for target, symbol in steps[state]:
                if alive[target]:
                    stack.append((target, prefix + symbol))

    def _paths(self, n: int) -> list[list[int]]:
        """paths[r][s] for r = 0..n: the number of length-r words that lead
        from state s to an accepting state."""
        if n < 0:
            raise InvalidInputError("n must be nonnegative")
        paths = [[int(s in self.accepting) for s in range(self.states)]]
        for _ in range(n):
            # a row holds one target per letter of ALPHABET: a, b and c
            previous = paths[-1]
            paths.append([previous[a] + previous[b] + previous[c] for a, b, c in self.table])
        return paths


def _reachable(start, successors: Callable) -> tuple[list, tuple[tuple[int, ...], ...]]:
    """The states reachable from ``start``, numbered in the order they are
    first reached with ``start`` as state 0, and their table: one row per
    state of the ids of ``successors(state)``, one target per letter of
    ALPHABET in its order."""
    index = {start: 0}
    order = [start]
    table = []
    for state in order:
        row = []
        for target in successors(state):
            if target not in index:
                index[target] = len(order)
                order.append(target)
            row.append(index[target])
        table.append(tuple(row))
    return order, tuple(table)


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
    order, table = _reachable(frozenset((0,)), lambda subset: (
        frozenset(q for p in subset for q in follow[p] if symbols[q] == symbol)
        for symbol in ALPHABET
    ))
    accepting = frozenset(i for i, subset in enumerate(order) if not subset.isdisjoint(final))
    return Dfa(table=table, start=0, accepting=accepting)


def product(dfas: tuple[Dfa, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """The reachable part of the automata read in lockstep: its table, with
    state 0 the tuple of their start states, and each state's verdicts, one
    per automaton."""
    # zip turns the rows of the component states into one target per letter
    order, table = _reachable(
        tuple(dfa.start for dfa in dfas),
        lambda states: zip(*(dfa.table[s] for dfa, s in zip(dfas, states))),
    )
    verdicts = tuple(tuple(s in dfa.accepting for dfa, s in zip(dfas, states)) for states in order)
    return table, verdicts


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
