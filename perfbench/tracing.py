"""Per-module tracing of permfib from the outside.

``install()`` replaces every public function of the permfib modules, at
every module attribute that binds it (including names imported with
``from .x import y``), and the public methods of their classes, with a
timing wrapper.  Nothing under ``src/`` is edited; the wrappers live only
in the interpreter that installs them.

Per-object functions are aggregated (calls, busy time, self time, errors,
items yielded), so no record is kept per call.  Calls in ``COARSE`` also
record one span each: name, start, end, the enclosing span and the
benchmark operation (request) they belong to.  Spans stay in memory and
are written out once, by ``Tracer.write_spans``.

Self time is a call's duration minus the time its wrapped callees cover.
Busy time counts only outermost calls of a function, so recursion (for
example ``match_ends`` or nested series products) is not counted twice.
The modules have no queue, lock or thread, so no layer has a wait time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from typing import Any, Callable

MODULES = (
    "permutations",
    "compositions",
    "words",
    "regex",
    "tilings",
    "bijections",
    "series",
    "oracle",
    "cli",
)

#: Functions called a few times per run; each call gets its own span.
COARSE = frozenset(
    {
        "cli.main",
        "oracle.count_ipk0_avoiders",
        "oracle.count_ilpk1_avoiders",
        "oracle.count_n_shaped_inverse_avoiders",
        "oracle.count_block_words_by_definition",
        "oracle.verify_descent_uniqueness",
        "oracle.verify_corollaries",
        "oracle.descent_pair_matrix",
        "oracle.verify_hook_row_sums",
        "oracle.verify_identity_sums",
        "oracle.triangulated_counts",
        "regex.compile_ast",
        "regex.Dfa.count_words",
        "series.ipk_polynomial",
        "series.ilpk_polynomial",
        "series.ipk_gf_sides",
        "series.ilpk_gf_sides",
        "series.ilpk_one_ogf",
        "series.fibonacci_ogf",
        "series.t_substitution",
        "series.t_substitution_inverse",
        "series.format_series",
    }
)

#: Functions whose result is consumed lazily; the items they yield are
#: counted and the time spent producing them is charged to the function.
ITERATORS = frozenset(
    {
        "compositions.enumerate_compositions",
        "words.iter_words",
        "words.iter_block_words",
        "tilings.enumerate_tilings",
        "regex.Dfa.language",
        "permutations.enumerate_symmetric_group",
    }
)

#: Dunder methods traced in addition to the public ones.
TRACED_DUNDERS = frozenset({"__mul__", "__rmul__"})

STAT_FUNCTIONS = (
    "inverse_letters",
    "descents",
    "peaks",
    "left_peaks",
    "peak_count",
    "left_peak_count",
    "right_peak_count",
    "valleys",
    "right_valleys",
    "increasing_run_lengths",
    "contains_consecutive_letters",
    "contains_ascending_run",
    "contains_descending_run",
    "statistics",
    "descent_composition",
    "is_alternating",
    "is_reverse_alternating",
    "contains_consecutive",
    "avoids_consecutive",
)

COUNT_ORACLES = (
    "count_ipk0_avoiders",
    "count_ilpk1_avoiders",
    "count_n_shaped_inverse_avoiders",
    "count_block_words_by_definition",
)

CHECKERS = (
    "verify_descent_uniqueness",
    "verify_corollaries",
    "descent_pair_matrix",
    "verify_hook_row_sums",
    "verify_identity_sums",
    "triangulated_counts",
)


class _NotInstalled(Exception):
    """Stands in for PermfibError until install() imports it."""


class Record:
    """Aggregate of every call to one traced function."""

    __slots__ = ("module", "calls", "busy", "self_time", "errors", "items", "depth")

    def __init__(self, module: str) -> None:
        self.module = module
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.items = 0
        self.depth = 0


class Tracer:
    """Holds the aggregates, the counters derived from arguments, and spans."""

    def __init__(self) -> None:
        self.records: dict[str, Record] = {}
        # stack[-1] accumulates the time covered by callees of the
        # innermost active traced call; stack[0] is the root.
        self.stack: list[float] = [0.0]
        self.spans: list[list] = []
        self.span_stack: list[int] = [-1]
        self.request = -1
        self.perms = 0
        self.oracle_perms = 0
        self.counted = 0
        self.counted_scanned = 0
        self.dfa_states = 0
        self.accepted = 0
        self.coeff_ops = 0
        self._raised: list[BaseException] = []
        self._error_type: type = _NotInstalled  # install() sets PermfibError

    # -- wrappers -------------------------------------------------------------

    def record(self, name: str) -> Record:
        return self.records.setdefault(name, Record(name.split(".", 1)[0]))

    def _raised_here(self, rec: Record, exc: BaseException) -> None:
        # count an error once, in the innermost traced call it left
        if not any(seen is exc for seen in self._raised):
            self._raised.append(exc)
            rec.errors += 1

    def wrap(self, fn: Callable, name: str) -> Callable:
        rec = self.record(name)
        stack = self.stack
        clock = time.perf_counter
        error_type = self._error_type
        hook = _HOOKS.get(name)
        iterator = name in ITERATORS
        coarse = name in COARSE
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if coarse:
                span = tracer._open_span(name)
            if hook is not None:
                perms_before = tracer.perms
            rec.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                tracer._raised_here(rec, exc)
                raise
            finally:
                end = clock()
                elapsed = end - start
                inner = stack.pop()
                stack[-1] += elapsed
                rec.calls += 1
                rec.self_time += elapsed - inner
                rec.depth -= 1
                if not rec.depth:
                    rec.busy += elapsed
                if coarse:
                    tracer._close_span(span, start, end)
            if hook is not None:
                hook(tracer, args, kwargs, result, perms_before)
            if iterator:
                return _TimedIterator(result, rec, tracer)
            return result

        return wrapper

    def _open_span(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.span_stack[-1], self.request, 0.0, 0.0])
        self.span_stack.append(index)
        return index

    def _close_span(self, index: int, start: float, end: float) -> None:
        self.span_stack.pop()
        self.spans[index][3] = start
        self.spans[index][4] = end

    def begin_request(self, request: int, name: str) -> int:
        """Open the root span of one benchmark operation."""
        self.request = request
        span = self._open_span(name)
        self.spans[span][3] = time.perf_counter()
        return span

    def end_request(self, span: int) -> None:
        self.span_stack.pop()
        self.spans[span][4] = time.perf_counter()
        self.request = -1

    def write_spans(self, path: str) -> None:
        """One JSON object per span: id, parent, request, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, request, start, end) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )

    # -- metrics --------------------------------------------------------------

    def _sum(self, field: str, *names: str) -> float:
        return sum(getattr(self.records[n], field) for n in names if n in self.records)

    def calls(self, *names: str) -> int:
        return int(self._sum("calls", *names))

    def busy(self, *names: str) -> float:
        return self._sum("busy", *names)

    def items(self, *names: str) -> int:
        return int(self._sum("items", *names))

    def module_total(self, module: str, field: str) -> float:
        return sum(getattr(r, field) for r in self.records.values() if r.module == module)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-module metric, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def put(name: str, value: float, unit: str) -> None:
            out[name] = (value, unit)

        put("permutations.sweeps", self.calls("permutations.letter_tuples"), "count")
        put("permutations.perms_enumerated", self.perms, "count")
        put(
            "permutations.stat_calls",
            self.calls(*(f"permutations.{n}" for n in STAT_FUNCTIONS)),
            "count",
        )
        put("permutations.self_s", self.module_total("permutations", "self_time"), "s")
        put("permutations.statistics_s", self.busy("permutations.statistics"), "s")

        count_names = [f"oracle.{n}" for n in COUNT_ORACLES]
        checker_names = [f"oracle.{n}" for n in CHECKERS]
        count_s = self.busy(*count_names)
        checker_s = self.busy(*checker_names)
        put("oracle.count_calls", self.calls(*count_names), "count")
        put("oracle.count_s", count_s, "s")
        put("oracle.checker_s", checker_s, "s")
        put("oracle.self_s", self.module_total("oracle", "self_time"), "s")
        put("oracle.perms_per_s", _ratio(self.oracle_perms, count_s + checker_s), "1/s")
        put("oracle.useful_ratio", _ratio(self.counted, self.counted_scanned), "ratio")

        put("bijections.calls", self.module_total("bijections", "calls"), "count")
        put("bijections.self_s", self.module_total("bijections", "self_time"), "s")

        put("compositions.enumerated", self.items("compositions.enumerate_compositions"), "count")
        put("compositions.self_s", self.module_total("compositions", "self_time"), "s")

        checks = self.calls("words.is_avoiding_block_word")
        put("words.words_enumerated", self.items("words.iter_words"), "count")
        put("words.block_words_enumerated", self.items("words.iter_block_words"), "count")
        put("words.definition_checks", checks, "count")
        put("words.self_s", self.module_total("words", "self_time"), "s")
        put("words.useful_ratio", _ratio(self.accepted, checks), "ratio")

        put("regex.compile_calls", self.calls("regex.compile_ast"), "count")
        put("regex.compile_s", self.busy("regex.compile_ast"), "s")
        put("regex.dfa_states", self.dfa_states, "count")
        put("regex.accepts_calls", self.calls("regex.Dfa.accepts"), "count")
        put("regex.accepts_s", self.busy("regex.Dfa.accepts"), "s")
        put("regex.ast_matches_calls", self.calls("regex.ast_matches"), "count")
        put("regex.ast_matches_s", self.busy("regex.ast_matches"), "s")
        put("regex.count_parses_calls", self.calls("regex.count_parses"), "count")
        put("regex.count_parses_s", self.busy("regex.count_parses"), "s")
        put("regex.language_words", self.items("regex.Dfa.language"), "count")
        put("regex.language_s", self.busy("regex.Dfa.language"), "s")
        put("regex.count_words_s", self.busy("regex.Dfa.count_words"), "s")
        put("regex.segment_s", self.busy("regex.core_segments", "regex.split_block_word"), "s")

        put("tilings.enumerated", self.items("tilings.enumerate_tilings"), "count")
        put("tilings.enumerate_s", self.busy("tilings.enumerate_tilings"), "s")
        put("tilings.convert_s", self.busy("tilings.word_to_tiling", "tilings.tiling_to_word"), "s")

        mul = "series.TruncatedSeries.__mul__"
        put("series.mul_calls", self.calls(mul), "count")
        put("series.mul_s", self.busy(mul), "s")
        put("series.invert_calls", self.calls("series.TruncatedSeries.invert"), "count")
        put("series.invert_s", self.busy("series.TruncatedSeries.invert"), "s")
        put("series.sqrt_s", self.busy("series.TruncatedSeries.sqrt"), "s")
        put("series.coeff_ops", self.coeff_ops, "count")
        put("series.polynomial_s", self.busy("series.ipk_polynomial", "series.ilpk_polynomial"), "s")
        put("series.format_s", self.busy("series.format_series"), "s")

        put("cli.main_s", self.busy("cli.main"), "s")
        put("cli.self_s", self.module_total("cli", "self_time"), "s")

        for module in MODULES:
            put(f"{module}.errors", self.module_total(module, "errors"), "count")
        return out


class _TimedIterator:
    """Charges the time spent producing each item to the function's record."""

    __slots__ = ("_it", "_rec", "_tracer")

    def __init__(self, it, rec: Record, tracer: Tracer) -> None:
        self._it = iter(it)
        self._rec = rec
        self._tracer = tracer

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        rec, tracer = self._rec, self._tracer
        stack, clock = tracer.stack, time.perf_counter
        rec.depth += 1
        stack.append(0.0)
        start = clock()
        try:
            item = next(self._it)
        except tracer._error_type as exc:
            tracer._raised_here(rec, exc)
            raise
        finally:
            elapsed = clock() - start
            inner = stack.pop()
            stack[-1] += elapsed
            rec.self_time += elapsed - inner
            rec.depth -= 1
            if not rec.depth:
                rec.busy += elapsed
        rec.items += 1
        return item


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# Counters derived from arguments and results ("computed" counts)


def _on_letter_tuples(tracer: Tracer, args, kwargs, result, before) -> None:
    n = args[0] if args else kwargs["n"]
    perms = math.factorial(n)
    tracer.perms += perms
    # frame 0 is this hook, 1 the wrapper, 2 the caller of letter_tuples
    if sys._getframe(2).f_globals.get("__name__") == "permfib.oracle":
        tracer.oracle_perms += perms


def _on_count_oracle(tracer: Tracer, args, kwargs, result, before) -> None:
    scanned = tracer.perms - before
    if scanned:  # a cached answer scans nothing and is not counted again
        tracer.counted += result
        tracer.counted_scanned += scanned


def _on_compile(tracer: Tracer, args, kwargs, result, before) -> None:
    tracer.dfa_states += len(result.table)


def _on_definition_check(tracer: Tracer, args, kwargs, result, before) -> None:
    tracer.accepted += bool(result)


def _on_mul(tracer: Tracer, args, kwargs, result, before) -> None:
    a, b = args[0], args[1]
    if hasattr(b, "coeffs"):
        length = min(len(a.coeffs), len(b.coeffs))
        tracer.coeff_ops += length * (length + 1) // 2
    else:
        tracer.coeff_ops += len(a.coeffs)


def _on_invert(tracer: Tracer, args, kwargs, result, before) -> None:
    length = len(args[0].coeffs)
    tracer.coeff_ops += length * (length - 1) // 2


def _on_sqrt(tracer: Tracer, args, kwargs, result, before) -> None:
    length = len(args[0].coeffs)
    tracer.coeff_ops += max(length - 1, 0) * max(length - 2, 0) // 2


_HOOKS: dict[str, Callable[..., None]] = {
    "permutations.letter_tuples": _on_letter_tuples,
    "regex.compile_ast": _on_compile,
    "words.is_avoiding_block_word": _on_definition_check,
    "series.TruncatedSeries.__mul__": _on_mul,
    "series.TruncatedSeries.invert": _on_invert,
    "series.TruncatedSeries.sqrt": _on_sqrt,
    **{f"oracle.{name}": _on_count_oracle for name in COUNT_ORACLES[:3]},
}


# ---------------------------------------------------------------------------
# Installation


def _home(value: Any) -> str | None:
    """The traced module defining a function, or None for anything else."""
    if not (inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper)):
        return None
    module = getattr(value, "__module__", "") or ""
    prefix, _, short = module.partition(".")
    return short if prefix == "permfib" and short in MODULES else None


def install() -> Tracer:
    """Wrap the public functions and methods of every permfib module."""
    errors = importlib.import_module("permfib.errors")
    package = importlib.import_module("permfib")
    modules = [importlib.import_module(f"permfib.{name}") for name in MODULES]
    tracer = Tracer()
    tracer._error_type = errors.PermfibError
    wrappers: dict[int, Callable] = {}

    def wrapped(fn: Callable, name: str) -> Callable:
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(fn, name)
        return wrappers[id(fn)]

    for owner in [package, *modules]:
        for attr, value in list(vars(owner).items()):
            home = None if attr.startswith("_") else _home(value)
            if home is not None:
                setattr(owner, attr, wrapped(value, f"{home}.{value.__name__}"))

    for module in modules:
        short = module.__name__.split(".", 1)[1]
        for cls in list(vars(module).values()):
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") and attr not in TRACED_DUNDERS:
                    continue
                if isinstance(value, classmethod):
                    name = f"{short}.{cls.__name__}.{value.__func__.__name__}"
                    setattr(cls, attr, classmethod(wrapped(value.__func__, name)))
                elif inspect.isfunction(value):
                    name = f"{short}.{cls.__name__}.{value.__name__}"
                    setattr(cls, attr, wrapped(value, name))
    return tracer

