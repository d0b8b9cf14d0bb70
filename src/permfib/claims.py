"""The registry of checkable claims behind ``permfib verify``.

Each claim has a name, its default pattern lengths, the fixed caps on the
size parameters it reads, and a check taking explicit parameters that
yields one report per checked case.  :func:`validate` rejects bad
parameters before any work starts, and :func:`run` validates, runs and
times every report the same way.  Theorems 1 and 2 and gf-general count on
insertion automata, not S_n; Theorem 4 and the corollaries read only the
permutations with a peakless inverse, which :func:`oracle.peakless` builds
outright by end insertion.  Only gf3 and gf5 sweep S_n, up to
:data:`GF_X_ORDER`.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import chain, islice, product, repeat
from operator import and_
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from . import bijections, compositions, oracle, permutations, regex, series, tilings, words
from .errors import UsageError
from .oracle import VerificationReport, first_disagreement, report

#: The x order at which gf3 and gf5 compare their two sides; their left
#: sides sweep S_n for every n up to it, within the S_n cap.
GF_X_ORDER = 7
#: The n_max and k_max a claim reads when none is given.
DEFAULT_N_MAX = 7
DEFAULT_K_MAX = 10
#: The largest pattern length a claim reads: prop7 and gf-general build an
#: automaton, and prop6 forbidden factors, that grow linearly in m.
MAX_M = 1000


class Claim(NamedTuple):
    name: str
    check: Callable[..., Iterator[VerificationReport]]
    #: Pattern lengths checked when none are given; empty for claims that
    #: do not read m.  Every m a claim reads must be in 3..MAX_M.
    default_ms: tuple[int, ...] = ()
    #: Largest n_max, and largest k_max, the check accepts; None: the check
    #: does not read it.
    max_n: Optional[int] = None
    max_k: Optional[int] = None


def column_rows(columns: dict[str, Any], last: int) -> Iterator[list[Any]]:
    """Each row i in 1..last, computed only when it is read: i, then each
    column's value at i.  A column is a list indexed by i or, where a value
    costs work, a function of i."""
    reads = [column if callable(column) else column.__getitem__ for column in columns.values()]
    return ([i, *(read(i) for read in reads)] for i in range(1, last + 1))


def columns_agree(
    claim: str, params: dict[str, Any], index: str, columns: dict[str, Any]
) -> VerificationReport:
    """The report that ``columns`` agree at each index 1..``params[index +
    "_max"]``.  Its counterexample is the first row where they do not, keyed
    by ``index`` and the column names, with a Fraction spelled as a string."""
    for i, *values in column_rows(columns, params[f"{index}_max"]):
        if values.count(values[0]) < len(values):
            cells = (str(v) if isinstance(v, Fraction) else v for v in values)
            return report(claim, params, {index: i, **dict(zip(columns, cells))})
    return report(claim, params, None)


def theorem1_columns(m: int) -> dict[str, Any]:
    """The counted peakless-inverse m-run avoiders, and order-(m-1) Fibonacci."""
    return {
        "count": lambda n: oracle.count_ipk0_avoiders(n, m),
        "fibonacci": lambda n: compositions.fib(m - 1, n),
    }


def theorem2_columns() -> dict[str, Any]:
    """The counted ilpk-one 3-run avoiders, and f(n-1) f(n) - floor((n+1)/2)."""
    return {
        "count": lambda n: oracle.count_ilpk1_avoiders(n, 3),
        "closed_form": lambda n: compositions.fib(2, n - 1) * compositions.fib(2, n) - (n + 1) // 2,
    }


def _theorem1(*, ms, n_max, **_) -> Iterator[VerificationReport]:
    for m in ms:
        yield columns_agree("theorem1", {"m": m, "n_max": n_max}, "n", theorem1_columns(m))


def _theorem2(*, n_max, **_) -> Iterator[VerificationReport]:
    yield columns_agree("theorem2", {"n_max": n_max}, "n", theorem2_columns())


def _theorem4(*, n_max, **_) -> Iterator[VerificationReport]:
    for n in range(1, n_max + 1):
        yield oracle.verify_descent_uniqueness(n)


def _corollaries(*, n_max, **_) -> Iterator[VerificationReport]:
    for n in range(1, n_max + 1):
        yield oracle.verify_corollaries(n)


def _prop6(*, ms, n_max, **_) -> Iterator[VerificationReport]:
    """``block_word`` maps the one-left-peak permutations whose inverse
    avoids a descending m-run onto the avoiding block words of each length.

    Checked from the word side: every avoiding block word decodes to a
    permutation with one left peak and such an inverse, by raw statistics,
    that ``block_word`` encodes back to the word.  So decoding is an
    injection into that set, and as the number of words equals the set's
    size, counted by the oracle, it is a bijection whose inverse is
    ``block_word``.  The words come from ``words.iter_avoiding_block_words``
    and the round trip runs on letter tuples, through the decoder and
    encoder behind ``word_to_permutation`` and ``block_word``; no S_n is
    swept, so only ``max_n`` bounds the walk.
    """
    for m in ms:
        counterexample = next(
            filter(None, (_prop6_mismatch(m, n) for n in range(1, n_max + 1))), None
        )
        yield report("prop6", {"m": m, "n_max": n_max}, counterexample)


def _prop6_mismatch(m: int, n: int) -> Optional[dict]:
    decoded = 0
    left_peak_count, inverse_letters = permutations.left_peak_count, permutations.inverse_letters
    contains_descending_run = permutations.contains_descending_run
    decode, encode = bijections._decode, bijections._encode
    # The generator's own definition test has checked each word's block form.
    for word in words.iter_avoiding_block_words(n, m):
        letters = decode(word)
        if (
            left_peak_count(letters) != 1
            or contains_descending_run(inverse_letters(letters), m)
            or encode(letters) != word
        ):
            return {"n": n, "word": word}
        decoded += 1
    permutation_count = oracle.count_ilpk1_avoiders(n, m)
    if decoded != permutation_count:
        return {"n": n, "words": decoded, "permutations": permutation_count}
    return None


def _prop7(*, ms, n_max, **_) -> Iterator[VerificationReport]:
    """The DFA of the block-word expression accepts exactly the avoiding
    block words, at every length up to n_max.

    The definition rejects every word outside block form, so two checks per
    length cover all 3^n words: the DFA agrees with the definition on every
    block word, and the number of block words it accepts equals its path
    count, row n of one ``counts(n_max)`` per m, so it accepts no other
    word.  A disagreement is reported as the first block word in
    ``iter_block_words`` order (run lengths first, then the middle), not the
    lexicographically first word; a count mismatch as the first non-block
    word of ``language(n)``, which is found only after every block word of
    that length agrees.

    Each length is walked once for every m that has no counterexample yet,
    on the product of their DFAs, so the first report carries the time of
    the whole walk.  The product is built once, and again only after an m
    fails.  The product is stepped through each head a^i c once,
    then level by level through every middle u, once per shared prefix
    a^i c u, and the verdicts of each word a^i c u a c^j, one byte per word
    and m, are read from a table of its state and tail a c^j.

    The definition is read once per unpadded word c u a, not once per word:
    every forbidden factor of every m starts with b or c and ends with a or
    b, so none can start in the head a^i or end in the tail c^j, and
    a^i c u a c^j is an avoiding block word exactly when c u a is.  The
    walk builds each text c u a itself, tests its block form with
    ``words.is_block_word`` and, for each m, its factors with
    ``words.avoids_forbidden_factors``, and keeps the verdicts of each
    middle length for every later length; the built form is never taken on
    trust.  Each (i, j, m) then compares two byte strings.
    """
    dfas = {m: regex.block_word_dfa(m) for m in ms}
    path_counts = {m: dfa.counts(n_max) for m, dfa in dfas.items()}
    definitions: dict[int, dict[int, bytearray]] = {}
    counterexamples: dict[int, dict] = {}
    pending = dfas
    automaton = regex.product(tuple(pending.values()))
    for n in range(1, n_max + 1):
        found = _prop7_mismatches(pending, automaton, n, path_counts, definitions)
        if found:
            counterexamples.update(found)
            pending = {m: dfa for m, dfa in pending.items() if m not in found}
            if not pending:
                break
            automaton = regex.product(tuple(pending.values()))
    for m in ms:
        expression = regex.format_ast(regex.block_word_regex(m))
        params = {"m": m, "n_max": n_max, "expression": expression}
        yield report("prop7", params, counterexamples.get(m))


def _prop7_definitions(ms: Iterable[int], length: int) -> dict[int, bytearray]:
    """For each m, the definition's verdict on each word c u a with a middle
    u of ``length`` letters, in the lexicographic order of u: one byte, 1
    for an avoiding block word.  The texts are read 729 at a time; each
    chunk is tested once for block form, then once per m for forbidden
    factors, and each m's verdicts are copied into its place in one buffer
    made at its full size, so no more than one chunk of texts is kept and
    no buffer grows or is copied whole."""
    texts = map("".join, product("c", *repeat(words.ALPHABET, length), "a"))
    verdicts = {m: bytearray(3**length) for m in ms}
    for x in range(0, 3**length, 729):
        chunk = list(islice(texts, 729))
        blocks = bytes(map(words.is_block_word, chunk))
        for m, verdict in verdicts.items():
            tests = map(words.avoids_forbidden_factors, chunk, repeat(m))
            verdict[x : x + 729] = bytes(map(and_, blocks, tests))
    return verdicts


def _prop7_mismatches(
    dfas: dict[int, regex.Dfa], automaton: tuple, n: int, path_counts: dict[int, list[int]],
    definitions: dict[int, dict[int, bytearray]],
) -> dict[int, dict]:
    """The counterexample of length n of each m whose DFA has one, from one
    walk of ``automaton``, the ``regex.product`` of ``dfas`` in their
    order, over the block words of length n; ``path_counts[m][n]`` is the
    number of length-n words m's DFA accepts, and ``definitions`` maps each
    middle length already read to its :func:`_prop7_definitions` of every m
    in ``dfas``, and gains the ones this walk reads first."""
    table, verdicts = automaton
    a, c = words.ALPHABET.index("a"), words.ALPHABET.index("c")
    # levels[h][L]: the states after each middle u of length L, read from
    # the state h after a head a^i c, in the lexicographic order of u.  They
    # are kept as bytes when the ids fit; no word's text is built.
    pack = bytes if len(table) <= 0x100 else list
    levels: dict[int, list] = {}
    # tails[j][s]: the verdicts after reading a c^j from state s, one byte
    # per automaton.  States share one bytes object per distinct verdicts.
    interned = {verdict: bytes(verdict) for verdict in set(verdicts)}
    rows = [interned[verdict] for verdict in verdicts]
    tails, ends = [], [row[a] for row in table]
    for _ in range(n - 1):
        tails.append([rows[end] for end in ends])
        ends = [table[end][c] for end in ends]
    mismatches: dict[int, dict] = {}
    checking = list(enumerate(dfas))
    accepted = [0] * len(dfas)
    state = 0  # the product's state after a^i
    for i in range(n - 1):
        after_head = table[state][c]
        grown = levels.setdefault(after_head, [pack((after_head,))])
        while len(grown) < n - 1 - i:
            grown.append(pack(chain.from_iterable(map(table.__getitem__, grown[-1]))))
        state = table[state][a]
        for j in range(n - 1 - i):
            length = n - 2 - i - j
            if length not in definitions:
                definitions[length] = _prop7_definitions(dfas, length)
            # every automaton's verdicts, word by word: automaton k's are
            # every len(dfas)-th byte from byte k.  bytes.join holds a buffer
            # view of about 80 bytes per part, so it joins 729 words at a time.
            level = grown[length]
            stream = b"".join(
                b"".join(map(tails[j].__getitem__, level[x : x + 729]))
                for x in range(0, len(level), 729)
            )
            for k, m in checking:
                got, want = stream[k :: len(dfas)], definitions[length][m]
                accepted[k] += got.count(1)
                if got != want:
                    # the x-th middle in lexicographic order spells x in base 3
                    x = next(x for x, (g, w) in enumerate(zip(got, want)) if g != w)
                    u = "".join(words.ALPHABET[x // 3**p % 3] for p in reversed(range(length)))
                    word = "a" * i + "c" + u + "a" + "c" * j
                    mismatches[m] = {"word": word, "dfa": bool(got[x])}
            checking = [entry for entry in checking if entry[1] not in mismatches]
            if not checking:
                return mismatches
    for k, m in checking:
        dfa = dfas[m]
        if accepted[k] != path_counts[m][n]:
            # The word is None only if the block-word walk or the path count is wrong.
            stray = next((word for word in dfa.language(n) if not words.is_block_word(word)), None)
            mismatches[m] = {"word": stray, "dfa": True}
    return mismatches


def _prop8(*, k_max, **_) -> Iterator[VerificationReport]:
    columns = {
        "dfa": regex.core_dfa().counts(k_max),
        "tilings": lambda k: sum(1 for _ in tilings._row_pairs(k)),
        "fibonacci_product": lambda k: compositions.fib(2, k - 1) * compositions.fib(2, k),
    }
    params = {"k_max": k_max, "expression": regex.format_ast(regex.core_regex())}
    yield columns_agree("prop8", params, "k", columns)


def _eq1(*, n_max, **_) -> Iterator[VerificationReport]:
    columns = {
        "word_count": regex.block_word_dfa(3).counts(n_max),
        "double_sum": lambda n: sum(
            (n - k) * compositions.fib(2, k - 1) * compositions.fib(2, k) for k in range(1, n)
        ),
    }
    yield columns_agree("eq1", {"n_max": n_max}, "n", columns)
    yield oracle.verify_identity_sums(n_max * 4)


def _gf_reports(claim: str, sides: Callable) -> Iterator[VerificationReport]:
    for m in (2, 3, 4):
        mismatch = series.first_mismatch(*sides(m, GF_X_ORDER, 5))
        counterexample = None
        if mismatch is not None:
            n, i, left, right = mismatch
            counterexample = {"x_power": n, "t_power": i, "lhs": str(left), "rhs": str(right)}
        yield report(claim, {"m": m, "x_order": GF_X_ORDER, "t_order": 5}, counterexample)


def _gf3(**_) -> Iterator[VerificationReport]:
    got = " ".join(map(str, series.t_substitution_inverse(3).coeffs[1:]))
    counterexample = first_disagreement([{"got": got, "expected": "1/4 1/8 5/64"}])
    yield report("gf3-substitution", {"coefficients": "1/4 1/8 5/64"}, counterexample)
    yield from _gf_reports("gf3", series.ipk_gf_sides)


def _gf5(**_) -> Iterator[VerificationReport]:
    yield from _gf_reports("gf5", series.ilpk_gf_sides)


def _gf_general(*, ms, n_max, **_) -> Iterator[VerificationReport]:
    for m in ms:
        columns = {
            "coefficient": series.ilpk_one_ogf(m, n_max).coeffs,
            "dfa": regex.block_word_dfa(m).counts(n_max),
            "oracle": lambda n: oracle.count_ilpk1_avoiders(n, m),
        }
        yield columns_agree("gf-general", {"m": m, "n_max": n_max}, "n", columns)


CLAIMS: dict[str, Claim] = {
    claim.name: claim
    for claim in (
        Claim("theorem1", _theorem1, (3, 4, 5), max_n=oracle.AUTOMATON_MAX_N),
        Claim("theorem2", _theorem2, max_n=oracle.AUTOMATON_MAX_N),
        Claim("theorem4", _theorem4, max_n=oracle.PEAKLESS_MAX_N),
        Claim("corollaries", _corollaries, max_n=oracle.PEAKLESS_MAX_N),
        Claim("prop6", _prop6, (3,), max_n=13),
        Claim("prop7", _prop7, (3,), max_n=12),
        Claim("prop8", _prop8, max_k=12),
        Claim("eq1", _eq1, max_n=15),
        Claim("gf3", _gf3),
        Claim("gf5", _gf5),
        Claim("gf-general", _gf_general, (3, 4), max_n=oracle.AUTOMATON_MAX_N),
    )
}


def reject_repeats(option: str, values: Iterable) -> None:
    """Raise UsageError at the first of ``values`` given more than once."""
    seen = set()
    for value in values:
        if value in seen:
            raise UsageError(f"{option} {value} is given more than once")
        seen.add(value)


def validate(
    names: Iterable[str], *, n_max: Optional[int] = None, k_max: Optional[int] = None,
    ms: Optional[tuple[int, ...]] = None,
) -> tuple[int, int]:
    """Raise UsageError unless every named claim accepts these parameters.

    A parameter of None was not given: the ``n_max`` and ``k_max`` returned
    are then DEFAULT_N_MAX and DEFAULT_K_MAX, and ``ms`` each claim's default
    pattern lengths.  A parameter given to claims none of which reads it is
    rejected, not ignored, and so is a claim or a pattern length given
    twice, which would run twice.
    """
    names = tuple(names)
    for option, value, reads in (
        ("--n-max", n_max, lambda claim: claim.max_n is not None),
        ("--k-max", k_max, lambda claim: claim.max_k is not None),
    ):
        if value is not None and not any(reads(CLAIMS[name]) for name in names):
            readers = ", ".join(claim.name for claim in CLAIMS.values() if reads(claim))
            raise UsageError(f"{option} is read only by {readers}")
    reject_repeats("--claim", names)
    reject_repeats("--m", ms or ())
    n_max = DEFAULT_N_MAX if n_max is None else n_max
    k_max = DEFAULT_K_MAX if k_max is None else k_max
    if ms is not None and not any(CLAIMS[name].default_ms for name in names):
        readers = ", ".join(name for name, claim in CLAIMS.items() if claim.default_ms)
        raise UsageError(f"--m is read only by {readers}")
    for name in names:
        claim = CLAIMS[name]
        claim_ms = (ms or claim.default_ms) if claim.default_ms else ()
        if claim_ms and min(claim_ms) < 3:
            raise UsageError(f"{name}: --m must be >= 3, got {min(claim_ms)}")
        if claim_ms and max(claim_ms) > MAX_M:
            raise UsageError(f"{name}: --m must be <= {MAX_M}, got {max(claim_ms)}")
        for option, value, high in ("--n-max", n_max, claim.max_n), ("--k-max", k_max, claim.max_k):
            if high is not None and not 1 <= value <= high:
                raise UsageError(f"{name}: {option} must be in 1..{high}, got {value}")
    return n_max, k_max


def run(
    names: Iterable[str], *, n_max: Optional[int] = None, k_max: Optional[int] = None,
    ms: Optional[tuple[int, ...]] = None,
) -> list[VerificationReport]:
    """Validate every named claim, then run them in order, with a parameter
    of None standing for its default, as in :func:`validate`.

    Each report's millis is the time since the previous report, or since
    the run started, so a report counts the levels its claim built first:
    the first x-order report of gf3 or gf5 carries the S_n sweep up to
    GF_X_ORDER, built largest first, and each report of theorem4 or the
    corollaries the tally of :func:`oracle.peakless` at its n, if it is the
    first to read it.
    """
    names = tuple(names)
    n_max, k_max = validate(names, n_max=n_max, k_max=k_max, ms=ms)
    reports = []
    started = time.monotonic()
    for name in names:
        claim = CLAIMS[name]
        for r in claim.check(ms=ms or claim.default_ms, n_max=n_max, k_max=k_max):
            now = time.monotonic()
            millis = int((now - started) * 1000)
            started = now
            reports.append(VerificationReport(r.claim, r.params, r.passed, r.counterexample, millis))
    return reports
