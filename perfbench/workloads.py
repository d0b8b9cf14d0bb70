"""The four benchmark workloads and the reference checks of their outputs.

A job is a list of operations.  An operation either runs one permfib
command through ``permfib.cli.main(argv)`` with stdout captured, or runs one
reference check through public permfib functions.  Each operation is timed
on its own and then checked by code in this file, which recomputes the
expected answer without calling the pipeline it checks.  An operation fails
on a nonzero exit code, ``all_pass`` false, or any output that differs from
the reference.

The parent builds jobs (``build_job``); the child runs them (``run_job``).
Only the argv lists built here reach permfib; the seed never does.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction
from typing import Any, Callable, Optional

WHY = {
    "perm-sweep": (
        "verify --n-max 9, all 11 claims: S_n sweeps in permutations, oracle and "
        "bijections; one sweep or pruned search shows here"
    ),
    "word-sweep": (
        "prop7/prop8/eq1 to n 11 plus DFA-vs-matcher and parse-count checks: words, "
        "regex and tilings with no S_n; cheaper word sweeps show here"
    ),
    "series-exact": (
        "ilpk-ogf to order 1000 and substitution-inverse to order 400: O(order^2) "
        "Fraction mul, invert and sqrt; integer recurrences show here"
    ),
    "lookup": (
        "2,000 seeded one-object stats/biject commands via cli.main: per-object "
        "validation, statistics, tilings and rendering; per-call or import cost shows here"
    ),
}

WORKLOADS = tuple(WHY)

#: Sizes of the full benchmark and of the quick variant the tests run.
SIZES: dict[str, dict[str, int]] = {
    "full": {
        "perm_n_max": 9,
        "word_n_max": 11,
        "k_max": 12,
        "match_max_len": 8,
        "parse_max_len": 10,
        "ogf_order": 1000,
        "inverse_order": 400,
        "lookups": 2000,
    },
    "small": {
        "perm_n_max": 4,
        "word_n_max": 4,
        "k_max": 4,
        "match_max_len": 3,
        "parse_max_len": 4,
        "ogf_order": 10,
        "inverse_order": 8,
        "lookups": 40,
    },
}

JSON_FLAGS = ("--format", "json", "--no-timestamp")

FORBIDDEN_FACTORS = ("bba", "bbb", "cba", "cbb")  # pattern length m = 3


# ---------------------------------------------------------------------------
# Building jobs (parent side)


def build_job(workload: str, seed: int, size: str = "full") -> list[dict[str, Any]]:
    """The operations of one workload run; only ``lookup`` depends on the seed."""
    s = SIZES[size]
    if workload == "perm-sweep":
        return [_cli("all_pass", "verify", "--n-max", s["perm_n_max"])]
    if workload == "word-sweep":
        return [
            _cli(
                "all_pass", "verify", "--claim", "prop7,prop8,eq1", "--n-max",
                s["word_n_max"], "--m", "3,4,5", "--k-max", s["k_max"],
            ),
            {"check": "matcher", "max_len": s["match_max_len"], "ms": ["core", 3, 4, 5]},
            {"check": "parses", "max_len": s["parse_max_len"], "ms": ["core", 3]},
        ]
    if workload == "series-exact":
        return [
            _cli("ilpk-ogf", "series", "--kind", "ilpk-ogf", "--m", 3, "--order", s["ogf_order"]),
            _cli(
                "substitution-inverse", "series", "--kind", "substitution-inverse",
                "--order", s["inverse_order"],
            ),
        ]
    if workload == "lookup":
        return lookup_ops(random.Random(seed), s["lookups"])
    raise ValueError(f"unknown workload {workload!r}")


def _cli(check: str, *argv: Any) -> dict[str, Any]:
    return {"check": check, "argv": [str(a) for a in argv] + list(JSON_FLAGS)}


SEGMENTS: tuple[Callable[[random.Random], str], ...] = (
    lambda rng: "c",
    lambda rng: "bc",
    lambda rng: "a" * rng.randint(1, 3) + "b",
    lambda rng: "a" * rng.randint(1, 3) + "c",
)


def avoiding_block_word(rng: random.Random) -> str:
    """A word of a* c (c | bc | a+b | a+c)* a+ c*: no forbidden factor."""
    core = "a" * rng.randint(0, 3) + "c"
    core += "".join(rng.choice(SEGMENTS)(rng) for _ in range(rng.randint(0, 6)))
    return core + "a" * rng.randint(1, 3) + "c" * rng.randint(0, 3)


def factor_block_word(rng: random.Random) -> str:
    """A word a^i c u a c^j whose middle u contains a forbidden factor."""
    middle = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
    cut = rng.randint(0, len(middle))
    middle = middle[:cut] + rng.choice(FORBIDDEN_FACTORS) + middle[cut:]
    return "a" * rng.randint(0, 3) + "c" + middle + "a" + "c" * rng.randint(0, 3)


def lookup_ops(rng: random.Random, count: int) -> list[dict[str, Any]]:
    """``count`` one-object commands, an equal share of each kind, shuffled."""
    kinds = ["stats", "biject-perm", "biject-word", "biject-composition"]
    order = [kinds[i % len(kinds)] for i in range(count)]
    rng.shuffle(order)
    ops = []
    for kind in order:
        if kind == "stats":
            letters = list(range(1, rng.randint(8, 40) + 1))
            rng.shuffle(letters)
            ops.append(_cli(kind, "stats", "--perm", _join(letters)))
        elif kind == "biject-perm":
            word = rng.choice((avoiding_block_word, factor_block_word))(rng)
            ops.append(_cli(kind, "biject", "--perm", _join(decode_word(word))))
        elif kind == "biject-word":
            word = rng.choice((avoiding_block_word, factor_block_word))(rng)
            ops.append(_cli(kind, "biject", "--word", word))
        else:
            n = rng.randint(1, 24)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            ops.append(_cli(kind, "biject", "--composition", _join(parts)))
    return ops


def _join(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# Independent references


def decode_word(word: str) -> list[int]:
    """Positions of a, then positions of b reversed, then positions of c."""
    at = {s: [i for i, x in enumerate(word, start=1) if x == s] for s in "abc"}
    return at["a"] + at["b"][::-1] + at["c"]


def descent_count(p: list[int]) -> int:
    return sum(1 for x, y in zip(p, p[1:]) if x > y)


def peak_total(p: list[int]) -> int:
    return sum(1 for x, y, z in zip(p, p[1:], p[2:]) if x < y > z)


def inverse_of(p: list[int]) -> list[int]:
    inv = [0] * len(p)
    for position, value in enumerate(p, start=1):
        inv[value - 1] = position
    return inv


def run_lengths(p: list[int]) -> list[int]:
    """Lengths of the maximal increasing runs."""
    runs = [1] if p else []
    for x, y in zip(p, p[1:]):
        if x < y:
            runs[-1] += 1
        else:
            runs.append(1)
    return runs


def fibonacci(count: int) -> list[int]:
    """f(0) = 1, f(1) = 1, f(n) = f(n-1) + f(n-2)."""
    f = [1, 1]
    while len(f) < count:
        f.append(f[-1] + f[-2])
    return f[:count]


def ilpk_ogf_reference(order: int) -> list[Fraction]:
    """Coefficient n is f(n-1) f(n) - floor((n+1)/2), with f(-1) = 0."""
    f = fibonacci(order + 1)
    return [Fraction((f[n - 1] if n else 0) * f[n] - (n + 1) // 2) for n in range(order + 1)]


def substitution_inverse_reference(order: int) -> list[Fraction]:
    """Coefficient n >= 1 is Catalan(n) / 4^n; the constant term is 0."""
    return [Fraction(0)] + [
        Fraction(math.comb(2 * n, n) // (n + 1), 4**n) for n in range(1, order + 1)
    ]


# ---------------------------------------------------------------------------
# Output checks: each returns the list of problems found, empty when correct


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def check_all_pass(argv, payload) -> list[str]:
    return [] if payload.get("all_pass") is True else ["all_pass is not true"]


def _check_coefficients(payload, expected: list[Fraction], skip_constant: bool) -> list[str]:
    got = payload.get("coefficients", [])
    if len(got) != len(expected):
        return [f"{len(got)} coefficients, expected {len(expected)}"]
    start = 1 if skip_constant else 0
    return [
        f"coefficient {n}: {got[n]} != {expected[n]}"
        for n in range(start, len(expected))
        if Fraction(got[n]) != expected[n]
    ]


def check_ilpk_ogf(argv, payload) -> list[str]:
    return _check_coefficients(payload, ilpk_ogf_reference(int(_arg(argv, "--order"))), False)


def check_substitution_inverse(argv, payload) -> list[str]:
    expected = substitution_inverse_reference(int(_arg(argv, "--order")))
    return _check_coefficients(payload, expected, True)


def check_stats(argv, payload) -> list[str]:
    p = _ints(_arg(argv, "--perm"))
    expected = {"des": descent_count(p), "pk": peak_total(p), "ipk": peak_total(inverse_of(p))}
    return [f"{k}: {payload.get(k)} != {v}" for k, v in expected.items() if payload.get(k) != v]


def check_biject_perm(argv, payload) -> list[str]:
    p = _ints(_arg(argv, "--perm"))
    parts = [_ints(payload.get(k, "")) for k in ("alpha", "beta", "gamma")]
    problems = []
    if decode_word(payload.get("word", "")) != p:
        problems.append(f"word {payload.get('word')!r} does not decode to the input")
    if parts[0] + parts[1] + parts[2] != p:
        problems.append("alpha, beta, gamma do not concatenate to the input")
    return problems


def check_biject_word(argv, payload) -> list[str]:
    expected = decode_word(_arg(argv, "--word"))
    got = _ints(payload.get("decoded_permutation", ""))
    return [] if got == expected else [f"decoded {got} != {expected}"]


def check_biject_composition(argv, payload) -> list[str]:
    parts = _ints(_arg(argv, "--composition"))
    p = _ints(payload.get("zero_ipk_permutation", ""))
    problems = []
    if sorted(p) != list(range(1, sum(parts) + 1)):
        problems.append("not a permutation of 1..n")
    if run_lengths(p) != parts:
        problems.append(f"descent composition {run_lengths(p)} != {parts}")
    if peak_total(inverse_of(p)) != 0 or payload.get("ipk") != 0:
        problems.append("ipk is not 0")
    return problems


CLI_CHECKS: dict[str, Callable[[list[str], dict], list[str]]] = {
    "all_pass": check_all_pass,
    "ilpk-ogf": check_ilpk_ogf,
    "substitution-inverse": check_substitution_inverse,
    "stats": check_stats,
    "biject-perm": check_biject_perm,
    "biject-word": check_biject_word,
    "biject-composition": check_biject_composition,
}


def check_cli_output(op: dict[str, Any], code: int, out: str) -> list[str]:
    """Problems with one command's exit code and JSON output."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    try:
        return CLI_CHECKS[op["check"]](op["argv"], payload)
    except (ValueError, TypeError, LookupError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc}"]


# ---------------------------------------------------------------------------
# Reference checks through public functions (child side)


def _expression(m):
    """The core expression, or the block-word expression of pattern length m."""
    from permfib import regex

    return regex.core_regex() if m == "core" else regex.block_word_regex(m)


def matcher_check(op: dict[str, Any]) -> list[str]:
    """compile_ast(e).accepts(w) == ast_matches(e, w) for every short word."""
    from permfib import regex

    problems = []
    for m in op["ms"]:
        expression = _expression(m)
        dfa = regex.compile_ast(expression)
        for n in range(op["max_len"] + 1):
            for symbols in itertools.product("abc", repeat=n):
                word = "".join(symbols)
                if dfa.accepts(word) != regex.ast_matches(expression, word):
                    problems.append(f"m={m}: automaton and matcher disagree on {word!r}")
    return problems


def parses_check(op: dict[str, Any]) -> list[str]:
    """Every word of the language up to max_len has exactly one parse."""
    from permfib import regex

    problems = []
    for m in op["ms"]:
        expression = _expression(m)
        dfa = regex.compile_ast(expression)
        for n in range(op["max_len"] + 1):
            for word in dfa.language(n):
                if regex.count_parses(expression, word) != 1:
                    problems.append(f"m={m}: {word!r} does not have exactly one parse")
    return problems


LIBRARY_CHECKS: dict[str, Callable[[dict[str, Any]], list[str]]] = {
    "matcher": matcher_check,
    "parses": parses_check,
}


# ---------------------------------------------------------------------------
# Running a job (child side)


def run_op(op: dict[str, Any]) -> tuple[float, list[str]]:
    """Run one operation; return its latency and the problems in its output."""
    from permfib import cli

    if "argv" not in op:
        start = time.perf_counter()
        problems = LIBRARY_CHECKS[op["check"]](op)
        return time.perf_counter() - start, problems
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(op["argv"])
        latency = time.perf_counter() - start
    return latency, check_cli_output(op, code, out.getvalue())


def run_job(ops: list[dict[str, Any]], tracer: Optional[Any] = None) -> list[dict[str, Any]]:
    """Run every operation in order, closed loop; one result per operation."""
    results = []
    for index, op in enumerate(ops):
        span = tracer.begin_request(index, "op:" + op["check"]) if tracer else None
        start = time.monotonic()
        latency, problems = run_op(op)
        if tracer:
            tracer.end_request(span)
        results.append({"start": start, "latency_s": latency, "problems": problems[:3]})
    return results
