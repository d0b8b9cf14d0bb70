"""Command-line front end: verify claims, compute statistics and bijections,
emit tables and series expansions.

Exit codes: 0 all good; 1 a counterexample, or an input that a library
operation rejects (such as a malformed permutation for stats, or a word
outside every map's domain for biject); 2 usage error: an unknown option or
claim, a claim parameter outside the claim's domain or read by no selected
claim, a claim or --m value given twice, --claim all with other names, a
table or series option that the chosen --kind does not read or a
--m or --order below the least value that the kind reads (see KIND_READS),
more than one --m for table --kind gf-coeffs, a negative --n-max, a
descent matrix past n = 8, an --n-max or --k-max past the fixed cap of a
selected claim (see claims.CLAIMS: 300 for theorem1, theorem2, gf-general
and table --kind counts-thm1|counts-thm2, 14 for theorem4 and corollaries)
or a --m past claims.MAX_M (1,000), an --order or --n-max that sets a
series order or table --kind fib length above series.MAX_SERIES_ORDER
(5,000) (see _check_series_cap), or an --output path that
cannot be written (the report is then not written anywhere).  No cap has
an override.
Output is deterministic; the timestamp (and timing fields) disappear under
--no-timestamp so byte-identical reruns are possible.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import sys
from typing import Any, Callable, NamedTuple, Sequence

from . import bijections, claims, oracle, regex, series, tilings
from .compositions import Composition, fib
from .errors import NotInDomainError, PermfibError, ResourceLimitError, UsageError
from .permutations import Permutation, descent_composition, statistics
from .words import check_word, forbidden_factors, is_block_word

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2

#: Claims runnable through ``permfib verify --claim``.
CLAIM_NAMES = tuple(claims.CLAIMS)

TABLE_SCHEMA: dict[str, Any] = {
    "type": "object",
    "properties": {
        "kind": {"type": "string"},
        "params": {"type": "object"},
        "columns": {"type": "array", "items": {"type": "string"}},
        "rows": {"type": "array", "items": {"type": "array"}},
        "note": {"type": "string"},
        "timestamp": {"type": "string"},
    },
    "required": ["kind", "params", "columns", "rows"],
    "additionalProperties": False,
}

FIB_INDEXING_NOTE = (
    "indexing starts at f(0) = 1; OEIS offsets for the same sequences differ"
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        out = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PermfibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    try:
        _render(args, out)
    except OSError as exc:
        if not args.output:
            raise
        print(f"usage error: cannot write --output {args.output}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE
    return out.code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permfib",
        description="Permutation statistics, block-word bijections, and "
        "Fibonacci-flavored counting identities, checked by independent "
        "counts and exact series arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit timestamps and timing fields for byte-stable output",
        )

    verify = sub.add_parser("verify", help="run claim suites against the oracles")
    verify.add_argument(
        "--claim",
        default="all",
        help="comma list from: all, " + ", ".join(CLAIM_NAMES),
    )
    verify.add_argument("--n-max", type=int, help="largest n checked (default 7)")
    verify.add_argument("--k-max", type=int, help="width bound for prop8 (default 10)")
    verify.add_argument("--m", default=None, help="comma list of pattern lengths")
    common(verify)
    verify.set_defaults(func=_cmd_verify)

    stats = sub.add_parser("stats", help="statistics of one permutation")
    stats.add_argument("--perm", required=True)
    common(stats)
    stats.set_defaults(func=_cmd_stats)

    biject = sub.add_parser("biject", help="map a permutation, word, or composition")
    group = biject.add_mutually_exclusive_group(required=True)
    group.add_argument("--perm")
    group.add_argument("--word")
    group.add_argument("--composition")
    common(biject)
    biject.set_defaults(func=_cmd_biject)

    table = sub.add_parser("table", help="deterministic count/coefficient tables")
    table.add_argument(
        "--kind",
        required=True,
        choices=("fib", "counts-thm1", "counts-thm2", "gf-coeffs", "descent-matrix"),
    )
    table.add_argument("--n-max", type=int, default=8)
    table.add_argument("--m", default=None)
    table.add_argument(
        "--order",
        type=int,
        default=None,
        help="Fibonacci order for --kind fib (default 2), "
        "truncation order for --kind gf-coeffs (default n-max)",
    )
    common(table)
    table.set_defaults(func=_cmd_table)

    ser = sub.add_parser("series", help="print exact series expansions")
    ser.add_argument(
        "--kind",
        required=True,
        choices=("substitution-inverse", "fib-ogf", "ilpk-ogf"),
    )
    ser.add_argument("--m", type=int, default=None, help="pattern length (default 3)")
    ser.add_argument("--order", type=int, default=8)
    common(ser)
    ser.set_defaults(func=_cmd_series)

    return parser


# ---------------------------------------------------------------------------
# Output


class Output(NamedTuple):
    """What a command reports: the JSON payload, the CSV columns and rows, a
    function that returns the text lines, and the exit code.  :func:`_render`
    writes one format of it; the text lines are built only when that format
    is text."""

    json: dict[str, Any]
    columns: list[str]
    rows: Sequence[Sequence[Any]]
    text: Callable[[], list[str]]
    code: int = EXIT_OK


def _render(args, out: Output) -> None:
    """Write the chosen format of ``out`` to the sink; ``out.text`` is called
    only for --format text.  Text is headed by the generation time and JSON
    carries it as a last key, unless --no-timestamp.  JSON spells
    compositions and fractions as strings.  ``datetime`` and ``csv`` are
    imported only where they are used, so a run that needs neither does not
    pay for their import."""
    stamp = None
    if not args.no_timestamp:
        import datetime

        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    if args.format == "json":
        payload = dict(out.json, timestamp=stamp) if stamp else out.json
        text = json.dumps(payload, indent=2, default=str)
    elif args.format == "csv":
        import csv

        sink = io.StringIO()
        rows = [[_csv_cell(cell) for cell in row] for row in out.rows]
        csv.writer(sink, lineterminator="\n").writerows([out.columns, *rows])
        text = sink.getvalue()
    else:
        text = "\n".join(([f"generated-at: {stamp}"] if stamp else []) + out.text())
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(cell: Any) -> str:
    """A composition's parts are joined by '-', so the cell needs no quotes."""
    if isinstance(cell, Composition):
        return "-".join(map(str, cell.parts))
    return str(cell)


def _table(kind: str, params: dict[str, Any], columns: list[str],
           rows: list[list[Any]], note: str | None = None) -> Output:
    def text() -> list[str]:
        widths = [max(len(str(row[i])) for row in [columns, *rows]) for i in range(len(columns))]
        return ([f"note: {note}"] if note else []) + [
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
            for row in [columns, *rows]
        ]

    payload: dict[str, Any] = {"kind": kind, "params": params, "columns": columns, "rows": rows}
    if note:
        payload["note"] = note
    return Output(payload, columns, rows, text)


def _pairs(kind: str, pairs: list[tuple[str, Any]], tiling: tilings.Tiling | None = None) -> Output:
    """Field/value output; in text, a tiling is drawn below the fields."""
    def text() -> list[str]:
        width = max(len(key) for key, _ in pairs)
        lines = [f"{key.ljust(width)}  {value}" for key, value in pairs]
        return lines + (render_tiling(tiling).split("\n") if tiling is not None else [])

    return Output({"kind": kind, **dict(pairs)}, ["field", "value"], pairs, text)


def _parse_int_list(raw: str | None, option: str) -> tuple[int, ...] | None:
    if raw is None:
        return None
    try:
        values = tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"{option} must be a comma list of integers, got {raw!r}")
    if not values:
        raise UsageError(f"{option} must not be an empty list")
    return values


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> Output:
    reports = claims.run(
        _selected_claims(args.claim), n_max=args.n_max, k_max=args.k_max,
        ms=_parse_int_list(args.m, "--m"),
    )
    all_pass = all(r.passed for r in reports)
    timed = not args.no_timestamp

    def text() -> list[str]:
        lines = []
        for r in reports:
            params = ", ".join(f"{k}={v}" for k, v in r.params.items())
            suffix = f"  [{r.millis} ms]" if timed else ""
            lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.claim}  ({params}){suffix}")
            if r.counterexample is not None:
                lines.append(f"      counterexample: {r.counterexample}")
        return lines + ["result: " + ("all claims pass" if all_pass else "FAILURES FOUND")]

    return Output(
        {"reports": [r.to_json_dict(include_millis=timed) for r in reports], "all_pass": all_pass},
        ["claim", "pass", "params"],
        [
            [r.claim, str(r.passed).lower(), " ".join(f"{k}={v}" for k, v in r.params.items())]
            for r in reports
        ],
        text,
        EXIT_OK if all_pass else EXIT_COUNTEREXAMPLE,
    )


def _selected_claims(raw: str) -> tuple[str, ...]:
    tokens = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if not tokens:
        raise UsageError("no claim selected")
    if "all" in tokens:
        if len(tokens) > 1:
            raise UsageError(f"--claim all names every claim and stands alone, got {raw!r}")
        return CLAIM_NAMES
    for token in tokens:
        if token not in CLAIM_NAMES:
            raise UsageError(f"unknown claim {token!r}; choose from {', '.join(CLAIM_NAMES)}")
    return tokens


# ---------------------------------------------------------------------------
# stats


def _cmd_stats(args) -> Output:
    p = Permutation.from_text(args.perm)
    report = statistics(p)
    return _pairs("stats", [
        ("permutation", str(p)),
        ("n", p.n),
        ("des", report.des),
        ("descent_positions", " ".join(map(str, report.descent_positions))),
        ("pk", report.pk),
        ("peak_positions", " ".join(map(str, report.peak_positions))),
        ("lpk", report.lpk),
        ("left_peak_positions", " ".join(map(str, report.left_peak_positions))),
        ("rpk", report.rpk),
        ("valleys", report.valleys),
        ("valley_positions", " ".join(map(str, report.valley_positions))),
        ("right_valleys", report.right_valleys),
        ("right_valley_positions", " ".join(map(str, report.right_valley_positions))),
        ("ipk", report.ipk),
        ("ilpk", report.ilpk),
        ("descent_composition", descent_composition(p)),
    ])


# ---------------------------------------------------------------------------
# biject


def render_tiling(tiling: tilings.Tiling) -> str:
    """ASCII boxes, one text row per tiling row, seams shared."""
    top, bottom = ({0, *itertools.accumulate(row)} for row in (tiling.top, tiling.bottom))

    def line(seams: set[int], fill: str, seam: str) -> str:
        chars = [fill] * (4 * tiling.width + 1)
        for mark in seams:
            chars[4 * mark] = seam
        return "".join(chars)

    return "\n".join([
        line(top, "-", "+"),
        line(top, " ", "|"),
        line(top | bottom, "-", "+"),
        line(bottom, " ", "|"),
        line(bottom, "-", "+"),
    ])


def _cmd_biject(args) -> Output:
    if args.composition is not None:
        composition = Composition.from_text(args.composition)
        p = bijections.zero_ipk_permutation(composition)
        return _pairs("biject-composition", [
            ("composition", composition),
            ("zero_ipk_permutation", str(p)),
            ("descent_composition", descent_composition(p)),
            ("ipk", statistics(p).ipk),
        ])
    if args.perm is not None:
        return _biject_permutation(Permutation.from_text(args.perm))
    return _biject_word(check_word(args.word))


def _biject_permutation(p: Permutation) -> Output:
    split = bijections.canonical_decomposition(p)
    word = split.word()
    pairs: list[tuple[str, Any]] = [
        ("permutation", str(p)),
        ("alpha", " ".join(map(str, split.alpha))),
        ("beta", " ".join(map(str, split.beta))),
        ("gamma", " ".join(map(str, split.gamma))),
        ("word", word),
    ]
    try:
        triple = bijections.permutation_to_tiling_triple(p)
    except NotInDomainError:
        pairs.append((
            "notice",
            "word has a forbidden factor (inverse contains a descending "
            "3-run); no tiling triple",
        ))
        return _pairs("biject-permutation", pairs)
    chain = _word_chain_pairs(triple.j, triple.k, word[: triple.k], triple.tiling)
    return _pairs("biject-permutation", pairs + chain, triple.tiling)


def _word_chain_pairs(j, k, core, tiling) -> list[tuple[str, Any]]:
    return [
        ("split_j", j),
        ("split_k", k),
        ("core", core),
        ("core_segments", "|".join(regex.core_segments(core))),
        ("tiling_top", " ".join(map(str, tiling.top))),
        ("tiling_bottom", " ".join(map(str, tiling.bottom))),
    ]


def _biject_word(word: str) -> Output:
    """Every chain the word belongs to; the last tiling found is drawn."""
    pairs: list[tuple[str, Any]] = [("word", word)]
    tiling: tilings.Tiling | None = None
    if regex.block_word_dfa(3).accepts(word):
        j, k, core = regex.split_block_word(word)
        tiling = tilings.word_to_tiling(core)
        pairs.append(("decoded_permutation", str(bijections.word_to_permutation(word))))
        pairs += _word_chain_pairs(j, k, core, tiling)
    if regex.core_dfa().accepts(word):
        tiling = tilings.word_to_tiling(word)
        pairs += [
            ("z_segments", "|".join(regex.core_segments(word))),
            ("z_tiling_top", " ".join(map(str, tiling.top))),
            ("z_tiling_bottom", " ".join(map(str, tiling.bottom))),
        ]
    if tiling is None:
        if not is_block_word(word):
            raise NotInDomainError(
                f"{word!r} is not a block word, a full avoiding block word, or a core word"
            )
        pairs += [
            ("decoded_permutation", str(bijections.word_to_permutation(word))),
            (
                "notice",
                "encodes an N-shaped permutation but contains a factor from "
                f"{forbidden_factors(3)}; no tiling",
            ),
        ]
    return _pairs("biject-word", pairs, tiling)


# ---------------------------------------------------------------------------
# table


#: The options beyond --n-max that each table or series kind reads, each
#: with its least value; giving a kind any other option is a usage error.
#: The least --m is the domain of the claim or closed form behind the kind.
KIND_READS: dict[str, dict[str, int]] = {
    "fib": {"--order": 1},
    "counts-thm1": {"--m": 3},
    "counts-thm2": {},
    "gf-coeffs": {"--m": 3, "--order": 0},
    "descent-matrix": {},
    "substitution-inverse": {"--order": 1},
    "fib-ogf": {"--m": 2, "--order": 0},
    "ilpk-ogf": {"--m": 3, "--order": 0},
}


def _read_options(kind: str, given: dict[str, Any]) -> dict[str, Any]:
    """The options given to ``kind``, comma lists parsed into tuples.

    An option not given is None.  Raises UsageError for a given option that
    ``kind`` does not read, before any value is parsed, and then for a value
    below its least.
    """
    reads = KIND_READS[kind]
    given = {option: value for option, value in given.items() if value is not None}
    for option in given:
        if option not in reads:
            raise UsageError(f"--kind {kind} does not read {option}")
    for option, value in given.items():
        if isinstance(value, str):
            given[option] = value = _parse_int_list(value, option)
            claims.reject_repeats(option, value)
        least = reads[option]
        lowest = min(value) if isinstance(value, tuple) else value
        if lowest < least:
            raise UsageError(f"--kind {kind}: {option} must be >= {least}, got {lowest}")
    return given


def _check_series_cap(kind: str, option: str, value: int) -> None:
    """Refuse an expansion order above series.MAX_SERIES_ORDER, naming the
    option that set it, before any work starts."""
    if value > series.MAX_SERIES_ORDER:
        raise UsageError(
            f"--kind {kind}: {option} must be <= {series.MAX_SERIES_ORDER}, got {value}"
        )


def _cmd_table(args) -> Output:
    if args.n_max < 0:
        raise UsageError(f"--n-max must be >= 0, got {args.n_max}")
    ms = _read_options(args.kind, {"--m": args.m, "--order": args.order}).get("--m")
    counted_claim = {"counts-thm1": "theorem1", "counts-thm2": "theorem2"}.get(args.kind)
    if counted_claim is not None:
        claims.validate((counted_claim,), n_max=args.n_max, ms=ms)
    if args.kind == "descent-matrix" and args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    if args.kind == "gf-coeffs" and ms is not None and len(ms) > 1:
        raise UsageError(f"--kind gf-coeffs reads one --m, got {args.m!r}")

    note = None
    if args.kind == "fib":
        _check_series_cap(args.kind, "--n-max", args.n_max)
        order = args.order if args.order is not None else 2
        params, columns = {"order": order, "n_max": args.n_max}, ["n", "value"]
        rows = [[n, fib(order, n)] for n in range(args.n_max + 1)]
        note = FIB_INDEXING_NOTE
    elif args.kind == "counts-thm1":
        ms = ms or claims.CLAIMS["theorem1"].default_ms
        params, columns = {"m": list(ms), "n_max": args.n_max}, ["m", "n", "count", "fibonacci"]
        rows = [
            [m, *claims.theorem1_counts(n, m).values()]
            for m in ms
            for n in range(1, args.n_max + 1)
        ]
    elif args.kind == "counts-thm2":
        params, columns = {"n_max": args.n_max}, ["n", "count", "closed_form"]
        rows = [list(claims.theorem2_counts(n).values()) for n in range(1, args.n_max + 1)]
    elif args.kind == "gf-coeffs":
        m = ms[0] if ms else 3
        truncation = args.order if args.order is not None else args.n_max
        _check_series_cap(args.kind, "--n-max" if args.order is None else "--order", truncation)
        expansion = series.ilpk_one_ogf(m, truncation)
        params, columns = {"m": m, "order": expansion.order}, ["n", "coefficient"]
        rows = [[n, str(expansion.coeffs[n])] for n in range(expansion.order + 1)]
    else:  # descent-matrix
        params, columns = {"n": args.n_max}, ["L", "M", "count"]
        rows = [
            ["-".join(map(str, left)), "-".join(map(str, right)), count]
            for (left, right), count in sorted(oracle.descent_pair_matrix(args.n_max).items())
        ]
    return _table(args.kind, params, columns, rows, note)


# ---------------------------------------------------------------------------
# series


def _cmd_series(args) -> Output:
    _read_options(args.kind, {"--m": args.m, "--order": args.order})
    _check_series_cap(args.kind, "--order", args.order)
    params = {} if args.kind == "substitution-inverse" else {"m": 3 if args.m is None else args.m}
    if args.kind == "substitution-inverse":
        expansion = series.t_substitution_inverse(args.order)
        label = "v with 4v/(1+v)^2 = t"
        var = "t"
    elif args.kind == "fib-ogf":
        expansion = series.fibonacci_ogf(params["m"], args.order)
        label = "(1-x)/(1-2x+x^m)"
        var = "x"
    else:
        expansion = series.ilpk_one_ogf(params["m"], args.order)
        label = "x^2(x^(m-2)-1)/((1-x)^2(x^(m+1)-3x^m+3x-1))"
        var = "x"
    return Output(
        {
            "kind": args.kind,
            **params,
            "order": expansion.order,
            "label": label,
            # the Fractions as JSON strings, with no default=str call for each
            "coefficients": [str(c) for c in expansion.coeffs],
        },
        ["n", "coefficient"],
        list(enumerate(expansion.coeffs)),
        lambda: [f"{label}:", series.format_series(expansion, var=var)],
    )


if __name__ == "__main__":
    sys.exit(main())
