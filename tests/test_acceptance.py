"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(visible with ``pytest -s``) and then asserts.  All comparisons are exact:
counts are integers and series coefficients are rationals, so there are no
tolerances anywhere.  The stated runtime ceilings are asserted as well.
"""

import time
from fractions import Fraction

from oracles import brute_force_segmentations

from permfib import bijections, oracle, regex, series, tilings, words
from permfib.compositions import Composition, enumerate_compositions, fib
from permfib.permutations import (
    Permutation,
    contains_ascending_run,
    contains_consecutive_letters,
    contains_descending_run,
    descents,
    increasing_run_lengths,
    inverse_letters,
    left_peak_count,
    letter_tuples,
    peak_count,
    right_peak_count,
)

LONG_EXAMPLE = Permutation((1, 2, 8, 9, 10, 14, 16, 17, 12, 11, 4, 3, 5, 6, 7, 13, 15, 18, 19, 20))


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_fibonacci_counts():
    started = time.monotonic()
    failures = []
    for m in (3, 4, 5):
        for n in range(1, 10):
            got = oracle.count_ipk0_avoiders(n, m)
            expected = fib(m - 1, n)
            if got != expected:
                failures.append((m, n, got, expected))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 30
    report(1, ok, f"peakless-inverse counts equal order-(m-1) Fibonacci numbers "
                  f"for m in 3..5, n in 1..9 ({elapsed:.1f}s)"
                  + (f"; failures {failures}" if failures else ""))


def test_criterion_2_single_left_peak_counts():
    started = time.monotonic()
    values = [oracle.count_ilpk1_avoiders(n, 3) for n in range(1, 11)]
    expected = [fib(2, n - 1) * fib(2, n) - (n + 1) // 2 for n in range(1, 11)]
    elapsed = time.monotonic() - started
    ok = values == expected and values[:6] == [0, 1, 4, 13, 37, 101] and elapsed < 60
    report(2, ok, f"ilpk-one counts match f(n-1)f(n) - floor((n+1)/2) for n in 1..10, "
                  f"first six = {values[:6]} ({elapsed:.1f}s)")


def test_criterion_3_descent_class_uniqueness():
    ok = all(oracle.verify_descent_uniqueness(n).passed for n in range(1, 10))
    constructed = bijections.zero_ipk_permutation(Composition((3, 2, 3, 1)))
    ok = ok and constructed == Permutation.from_text("456372891")
    report(3, ok, "each descent class of n <= 9 holds exactly one peakless-inverse "
                  "permutation, and (3,2,3,1) builds 456372891")


def test_criterion_4_corollaries():
    ok = all(oracle.verify_corollaries(n).passed for n in range(1, 10))
    report(4, ok, "alternating uniqueness and the three binomial count identities "
                  "hold for n <= 9")


def test_criterion_5_four_pipelines_and_round_trips():
    problems = []
    for n in range(1, 11):
        counts = oracle.triangulated_counts(n, 3)
        if len(set(counts.values())) != 1:
            problems.append(("pipelines", n, counts))
    core = regex.core_dfa()
    for k in range(1, 13):
        expected = fib(2, k - 1) * fib(2, k)
        by_dfa = core.counts(k)[k]
        by_tilings = sum(1 for _ in tilings.enumerate_tilings(k))
        if not by_dfa == by_tilings == expected:
            problems.append(("core-count", k, by_dfa, by_tilings, expected))
    # encoding round trips on the full domain
    for n in range(2, 9):
        for letters in letter_tuples(n):
            if left_peak_count(letters) == 1:
                p = Permutation(letters)
                if bijections.word_to_permutation(bijections.block_word(p)) != p:
                    problems.append(("encode-round-trip", letters))
    for n in range(2, 10):
        for word in words.iter_block_words(n):
            if bijections.block_word(bijections.word_to_permutation(word)) != word:
                problems.append(("decode-round-trip", word))
    # suffix split round trips over the whole language
    full = regex.block_word_dfa(3)
    for n in range(2, 11):
        for word in full.language(n):
            j, k, z = regex.split_block_word(word)
            if regex.reassemble_block_word(j, k, z, n) != word:
                problems.append(("split-round-trip", word))
    # tiling round trips both ways
    for k in range(1, 11):
        for tiling in tilings.enumerate_tilings(k):
            if tilings.word_to_tiling(tilings.tiling_to_word(tiling)) != tiling:
                problems.append(("tiling-round-trip", tiling))
        for z in core.language(k):
            if tilings.tiling_to_word(tilings.word_to_tiling(z)) != z:
                problems.append(("word-round-trip", z))
    # the composite map down to triples
    for n in range(2, 10):
        for letters in letter_tuples(n):
            if left_peak_count(letters) != 1:
                continue
            p = Permutation(letters)
            if not bijections.is_tiling_mappable(p):
                continue
            triple = bijections.permutation_to_tiling_triple(p)
            if bijections.tiling_triple_to_permutation(triple, n) != p:
                problems.append(("composite-round-trip", letters))
    report(5, not problems,
           "four counting pipelines agree for n <= 10, core-word counts are "
           "Fibonacci products for k <= 12, and every round trip is the identity"
           + (f"; problems: {problems[:3]}" if problems else ""))


def test_criterion_6_worked_examples():
    fig_word = bijections.block_word(Permutation.from_text("1 2 5 10 12 8 6 4 3 7 9 11"))
    long_word = bijections.block_word(LONG_EXAMPLE)
    j, k, core = regex.split_block_word(long_word)
    segments = "|".join(regex.core_segments(core))
    ok = (
        fig_word == "aacbabcbcaca"
        and long_word == "aacbcccaaabbcacaaccc"
        and (j, k) == (3, 15)
        and segments == "aac|bc|c|c|aaab|bc|ac"
    )
    report(6, ok, f"worked examples byte-exact: {fig_word}, {long_word}, "
                  f"split ({j},{k}), segments {segments}")


def test_criterion_7_series_identities():
    started = time.monotonic()
    ok = True
    for m in (2, 3, 4):
        ok = ok and series.verify_ipk_gf(m, 7, 5)
        ok = ok and series.verify_ilpk_gf(m, 7, 5)
    v = series.t_substitution_inverse(3)
    ok = ok and v.coeffs[1:] == (Fraction(1, 4), Fraction(1, 8), Fraction(5, 64))
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10
    report(7, ok, f"both master identities hold for m in 2..4 at x^7, t^5 and the "
                  f"substitution inverse starts 1/4, 1/8, 5/64 ({elapsed:.1f}s)")


def test_criterion_8_generalized_generating_function():
    problems = []
    for m in (3, 4):
        expansion = series.ilpk_one_ogf(m, 10)
        dfa = regex.block_word_dfa(m)
        for n in range(1, 11):
            coefficient = expansion.coeffs[n]
            by_dfa = dfa.counts(n)[n]
            by_oracle = oracle.count_ilpk1_avoiders(n, m)
            if not coefficient == by_dfa == by_oracle:
                problems.append((m, n, coefficient, by_dfa, by_oracle))
    report(8, not problems,
           "closed-form coefficients equal automaton word counts and enumerated "
           "avoider counts for m in {3,4}, n <= 10"
           + (f"; problems {problems}" if problems else ""))


# ---------------------------------------------------------------------------
# Criterion 9: the per-module invariant sweeps


def _permutation_invariants() -> list:
    problems = []
    for n in range(9):
        for letters in letter_tuples(n):
            inv = inverse_letters(letters)
            rev = tuple(reversed(letters))
            if tuple(inverse_letters(inv)) != letters or tuple(reversed(rev)) != letters:
                problems.append(("involution", letters))
            if left_peak_count(rev) != right_peak_count(letters):
                problems.append(("reverse-swaps-peaks", letters))
            runs = increasing_run_lengths(letters)
            if sum(runs) != n or (n and len(runs) != len(descents(letters)) + 1):
                problems.append(("run-lengths", letters))
            for m in (3, 4, 5):
                rising = tuple(range(1, m + 1))
                by_windows = contains_consecutive_letters(letters, rising)
                if by_windows != any(part >= m for part in runs):
                    problems.append(("containment-vs-parts", letters, m))
                if by_windows != contains_ascending_run(letters, m):
                    problems.append(("containment-fast-path", letters, m))
            if peak_count(letters) != sum(1 for part in runs[:-1] if part > 1):
                problems.append(("peaks-vs-runs", letters))
            if right_peak_count(letters) != sum(1 for part in runs if part > 1):
                problems.append(("right-peaks-vs-runs", letters))
    return problems


def _composition_invariants() -> list:
    from permfib.compositions import composition_reverse, count_parts_gt1
    import math

    problems = []
    for k in (2, 3, 4):
        for n in range(1, 15):
            count = sum(1 for _ in enumerate_compositions(n, max_part=k))
            if count != fib(k, n):
                problems.append(("bounded-count", n, k))
    for n in range(1, 11):
        lengths: dict[int, int] = {}
        for c in enumerate_compositions(n):
            lengths[len(c)] = lengths.get(len(c), 0) + 1
        for j in range(1, n + 1):
            if lengths.get(j, 0) != math.comb(n - 1, j - 1):
                problems.append(("length-count", n, j))
        for k in range(n):
            if count_parts_gt1(n, k) != math.comb(n, 2 * k):
                problems.append(("parts-gt1", n, k))
    for n in range(1, 8):
        reversed_by_class: dict[tuple, tuple] = {}
        lpk_classes: dict[int, set] = {}
        rpk_classes: dict[int, set] = {}
        for letters in letter_tuples(n):
            parts = increasing_run_lengths(letters)
            rev_parts = increasing_run_lengths(tuple(reversed(letters)))
            if reversed_by_class.setdefault(parts, rev_parts) != rev_parts:
                problems.append(("representative-dependence", parts))
            lpk_classes.setdefault(left_peak_count(letters), set()).add(parts)
            rpk_classes.setdefault(right_peak_count(letters), set()).add(parts)
        for parts, rev_parts in reversed_by_class.items():
            if composition_reverse(Composition(parts)).parts != rev_parts:
                problems.append(("reverse-value", parts))
        for k, classes in lpk_classes.items():
            image = {composition_reverse(Composition(p)).parts for p in classes}
            if image != rpk_classes.get(k, set()):
                problems.append(("class-bijection", n, k))
    return problems


def _regex_invariants() -> list:
    problems = []
    expressions = {
        "core": regex.core_regex(),
        "m3": regex.block_word_regex(3),
        "m4": regex.block_word_regex(4),
        "m5": regex.block_word_regex(5),
    }
    automata = {name: regex.compile_ast(node) for name, node in expressions.items()}
    for n in range(11):
        for word in words.iter_words(n):
            for name, node in expressions.items():
                if automata[name].accepts(word) != regex.ast_matches(node, word):
                    problems.append(("dfa-vs-backtracking", name, word))
    # unambiguity of the two pattern-length-3 expressions on words up to 12
    for name in ("core", "m3"):
        node = expressions[name]
        dfa = automata[name]
        for n in range(1, 13):
            for word in dfa.language(n):
                if regex.count_parses(node, word) != 1:
                    problems.append(("ambiguous", name, word))
    # the greedy segmentation is the only one an exhaustive search finds
    for n in range(1, 13):
        for word in automata["core"].language(n):
            if brute_force_segmentations(word) != [regex.core_segments(word)]:
                problems.append(("segmentation", word))
    # language equals definition: all words up to 12 for m=3, up to 10 beyond
    for n in range(1, 13):
        for word in words.iter_words(n):
            if automata["m3"].accepts(word) != words.is_avoiding_block_word(word, 3):
                problems.append(("language-vs-definition", 3, word))
            if n <= 10:
                for m, name in ((4, "m4"), (5, "m5")):
                    if automata[name].accepts(word) != words.is_avoiding_block_word(word, m):
                        problems.append(("language-vs-definition", m, word))
    return problems


def _bijection_invariants() -> list:
    problems = []
    for n in range(1, 10):
        encodings: dict[str, int] = {}
        avoiding = {3: [], 4: [], 5: []}
        for letters in letter_tuples(n):
            if left_peak_count(letters) != 1:
                continue
            word = bijections.block_word(Permutation(letters))
            encodings[word] = encodings.get(word, 0) + 1
            inv = inverse_letters(letters)
            for m in (3, 4, 5):
                if not contains_descending_run(inv, m):
                    avoiding[m].append(word)
            # adjacent letters of the word read off the inverse descents
            falling = {"ba", "bb", "ca", "cb"}
            for i in range(1, n):
                if (word[i - 1 : i + 1] in falling) != (inv[i - 1] > inv[i]):
                    problems.append(("bigram", letters, i))
            has_factor = any(f in word for f in words.forbidden_factors(3))
            if contains_descending_run(inv, 3) != has_factor:
                problems.append(("factor-characterization", letters))
        if any(count != 1 for count in encodings.values()):
            problems.append(("not-injective", n))
        if sorted(encodings) != sorted(words.iter_block_words(n)):
            problems.append(("image-mismatch", n))
        for m in (3, 4, 5):
            if m > 3 and n > 8:
                continue
            expected = sorted(
                w for w in words.iter_block_words(n)
                if words.is_avoiding_block_word(w, m)
            )
            if sorted(avoiding[m]) != expected:
                problems.append(("avoider-image-mismatch", n, m))
    # full-word counts equal the tiling double sum, by pure arithmetic
    full = regex.block_word_dfa(3)
    for n in range(1, 13):
        lhs = full.counts(n)[n]
        rhs = sum((n - k) * fib(2, k - 1) * fib(2, k) for k in range(1, n))
        if lhs != rhs:
            problems.append(("word-count-vs-double-sum", n, lhs, rhs))
    return problems


def _series_invariants() -> list:
    problems = []
    order = 6
    a = series.from_coeffs([1, 2, -1, Fraction(1, 3), 0, 5, -2], order)
    b = series.from_coeffs([2, 0, 1, -3, Fraction(5, 7), 1, 1], order)
    c = series.from_coeffs([-1, 1, 1, 1, 2, -4, Fraction(2, 9)], order)
    if a * (b + c) != a * b + a * c or (a * b) * c != a * (b * c):
        problems.append(("ring-laws",))
    # the quotient times its denominator is its numerator, for q_0 = 1 and -1
    p = [1, 2, -1, 3, 0, 5, -2]
    for q in ([1, 0, 1, -3, 5, 1, 1], [-1, 1, 1, 1, 2, -4, 2]):
        if series.rational_series(p, q, order) * series.from_coeffs(q, order) != (
            series.from_coeffs(p, order)
        ):
            problems.append(("quotient", q[0]))
    unit = series.from_coeffs([1, -1, Fraction(1, 2), 3, -2, 1, 1], order)
    if unit.sqrt() * unit.sqrt() != unit:
        problems.append(("sqrt",))
    for test_order in (4, 8, 12):
        v = series.t_substitution_inverse(test_order)
        # 4v/(1+v)^2 = t, multiplied through by the unit (1+v)^2
        t = series.from_coeffs([0, 1], test_order)
        if v * 4 != t * (1 + v) * (1 + v):
            problems.append(("substitution", test_order))
    # both master identities at every order pair up to (7, 5)
    for m in (2, 3, 4):
        for x_order in range(1, 8):
            for t_order in range(1, min(x_order, 5) + 1):
                if not series.verify_ipk_gf(m, x_order, t_order):
                    problems.append(("ipk-identity", m, x_order, t_order))
                if not series.verify_ilpk_gf(m, x_order, t_order):
                    problems.append(("ilpk-identity", m, x_order, t_order))
    for m in (3, 4, 5):
        expansion = series.fibonacci_ogf(m, 8)
        for n in range(1, 9):
            if expansion.coeffs[n] != oracle.count_ipk0_avoiders(n, m):
                problems.append(("fib-ogf-vs-oracle", m, n))
    for m in (3, 4):
        expansion = series.ilpk_one_ogf(m, 10)
        dfa = regex.block_word_dfa(m)
        for n in range(1, 9):
            if expansion.coeffs[n] != oracle.count_ilpk1_avoiders(n, m):
                problems.append(("ilpk-ogf-vs-oracle", m, n))
        for n in range(11):
            if expansion.coeffs[n] != dfa.counts(n)[n]:
                problems.append(("ilpk-ogf-vs-dfa", m, n))
    return problems


def _oracle_invariants() -> list:
    problems = []
    for n in range(1, 9):
        matrix = oracle.descent_pair_matrix(n)
        for (left, right), value in matrix.items():
            if matrix.get((right, left)) != value:
                problems.append(("matrix-symmetry", n, left, right))
        if not oracle.verify_hook_row_sums(n).passed:
            problems.append(("hook-rows", n))
    if not oracle.verify_identity_sums(60).passed:
        problems.append(("identity-sums",))
    return problems


def test_criterion_9_property_suites():
    started = time.monotonic()
    failures: dict[str, list] = {}
    for name, check in (
        ("permutations", _permutation_invariants),
        ("compositions", _composition_invariants),
        ("words-regex", _regex_invariants),
        ("bijections", _bijection_invariants),
        ("series", _series_invariants),
        ("oracle", _oracle_invariants),
    ):
        problems = check()
        if problems:
            failures[name] = problems[:3]
    elapsed = time.monotonic() - started
    report(9, not failures,
           f"module invariant sweeps green, including regex unambiguity on all "
           f"matching words up to length 12 ({elapsed:.1f}s)"
           + (f"; failures {failures}" if failures else ""))
