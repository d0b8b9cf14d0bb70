"""Command-line front end: verify claims, compute statistics and bijections,
emit tables and series expansions.

Exit codes: 0 all good; 1 a counterexample, or an input that a library
operation rejects (such as a malformed permutation for stats, or a word
outside every map's domain for biject); 2 usage error: an unknown option or
claim, a claim parameter outside the claim's domain, or a size bound
exceeded without the override flag.
Output is deterministic; the timestamp (and timing fields) disappear under
--no-timestamp so byte-identical reruns are possible.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from typing import Any, Sequence

from . import bijections, claims, oracle, regex, series, tilings
from .claims import SAFE_N_MAX, UsageError
from .compositions import Composition, fib
from .errors import PermfibError, ResourceLimitError
from .permutations import Permutation, descent_composition, statistics
from .words import check_word, forbidden_factors, is_avoiding_block_word, is_block_word

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
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PermfibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permfib",
        description="Permutation statistics, block-word bijections, and "
        "Fibonacci-flavored counting identities, checked by exhaustive "
        "enumeration and exact series arithmetic.",
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
    verify.add_argument("--n-max", type=int, default=7)
    verify.add_argument("--k-max", type=int, default=10, help="width bound for prop8")
    verify.add_argument("--m", default=None, help="comma list of pattern lengths")
    verify.add_argument(
        "--unsafe-large-n",
        action="store_true",
        help=f"allow n-max beyond {SAFE_N_MAX} (up to the enumeration cap)",
    )
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
    table.add_argument("--unsafe-large-n", action="store_true")
    common(table)
    table.set_defaults(func=_cmd_table)

    ser = sub.add_parser("series", help="print exact series expansions")
    ser.add_argument(
        "--kind",
        required=True,
        choices=("substitution-inverse", "fib-ogf", "ilpk-ogf"),
    )
    ser.add_argument("--m", type=int, default=3)
    ser.add_argument("--order", type=int, default=8)
    common(ser)
    ser.set_defaults(func=_cmd_series)

    return parser


# ---------------------------------------------------------------------------
# Output helpers


def _timestamp(args) -> str | None:
    if args.no_timestamp:
        return None
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_text(args, lines: list[str]) -> None:
    """Text output, headed by the generation time unless --no-timestamp."""
    stamp = _timestamp(args)
    _emit(args, "\n".join(([f"generated-at: {stamp}"] if stamp else []) + lines))


def _emit_json(args, payload: dict[str, Any]) -> None:
    stamp = _timestamp(args)
    if stamp is not None:
        payload["timestamp"] = stamp
    _emit(args, json.dumps(payload, indent=2))


def _emit_table(args, kind: str, params: dict[str, Any], columns: list[str],
                rows: list[list[Any]], note: str | None = None) -> None:
    if args.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(str(cell) for cell in row) for row in rows]
        _emit(args, "\n".join(lines))
    elif args.format == "json":
        payload: dict[str, Any] = {
            "kind": kind,
            "params": params,
            "columns": columns,
            "rows": rows,
        }
        if note:
            payload["note"] = note
        _emit_json(args, payload)
    else:
        widths = [
            max(len(str(col)), *(len(str(row[i])) for row in rows)) if rows else len(col)
            for i, col in enumerate(columns)
        ]
        lines = [f"note: {note}"] if note else []
        lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)))
        for row in rows:
            lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
        _emit_text(args, lines)


def _parse_int_list(raw: str | None) -> tuple[int, ...] | None:
    if raw is None:
        return None
    try:
        values = tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"expected a comma list of integers, got {raw!r}")
    if not values:
        raise UsageError("empty list")
    return values


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    reports = claims.run(
        _selected_claims(args.claim),
        n_max=args.n_max,
        k_max=args.k_max,
        ms=_parse_int_list(args.m),
        allow_large=args.unsafe_large_n,
    )
    all_pass = all(r.passed for r in reports)
    include_millis = not args.no_timestamp
    if args.format == "json":
        payload = {
            "reports": [r.to_json_dict(include_millis=include_millis) for r in reports],
            "all_pass": all_pass,
        }
        _emit_json(args, payload)
    elif args.format == "csv":
        lines = ["claim,pass,params"]
        for r in reports:
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            lines.append(f"{r.claim},{str(r.passed).lower()},{params}")
        _emit(args, "\n".join(lines))
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            params = ", ".join(f"{k}={v}" for k, v in r.params.items())
            suffix = f"  [{r.millis} ms]" if include_millis else ""
            lines.append(f"{status}  {r.claim}  ({params}){suffix}")
            if r.counterexample is not None:
                lines.append(f"      counterexample: {r.counterexample}")
        lines.append("result: " + ("all claims pass" if all_pass else "FAILURES FOUND"))
        _emit_text(args, lines)
    return EXIT_OK if all_pass else EXIT_COUNTEREXAMPLE


def _selected_claims(raw: str) -> tuple[str, ...]:
    tokens = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if not tokens:
        raise UsageError("no claim selected")
    if "all" in tokens:
        return CLAIM_NAMES
    for token in tokens:
        if token not in CLAIM_NAMES:
            raise UsageError(f"unknown claim {token!r}; choose from {', '.join(CLAIM_NAMES)}")
    return tokens


# ---------------------------------------------------------------------------
# stats


def _cmd_stats(args) -> int:
    p = Permutation.from_text(args.perm)
    report = statistics(p)
    pairs: list[tuple[str, Any]] = [
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
        ("descent_composition", _composition_text(descent_composition(p), args)),
    ]
    _emit_pairs(args, "stats", pairs)
    return EXIT_OK


def _composition_text(composition: Composition, args) -> str:
    if args.format == "csv":
        return "-".join(str(part) for part in composition.parts)
    return str(composition)


def _emit_pairs(args, kind: str, pairs: list[tuple[str, Any]]) -> None:
    if args.format == "json":
        _emit_json(args, {"kind": kind, **{k: v for k, v in pairs}})
    elif args.format == "csv":
        lines = ["field,value"] + [f"{k},{v}" for k, v in pairs]
        _emit(args, "\n".join(lines))
    else:
        width = max(len(k) for k, _ in pairs)
        _emit_text(args, [f"{k.ljust(width)}  {v}" for k, v in pairs])


# ---------------------------------------------------------------------------
# biject


def render_tiling(tiling: tilings.Tiling) -> str:
    """ASCII boxes, one text row per tiling row, seams shared."""
    width = tiling.width

    def boundaries(row: tuple[int, ...]) -> set[int]:
        out, total = set(), 0
        for block in row:
            total += block
            out.add(total)
        out.add(0)
        return out

    top_b = boundaries(tiling.top)
    bottom_b = boundaries(tiling.bottom)

    def border(marks: set[int]) -> str:
        chars = ["-"] * (4 * width + 1)
        for mark in marks:
            chars[4 * mark] = "+"
        return "".join(chars)

    def cells(marks: set[int]) -> str:
        chars = [" "] * (4 * width + 1)
        for mark in marks:
            chars[4 * mark] = "|"
        return "".join(chars)

    return "\n".join(
        [
            border(top_b),
            cells(top_b),
            border(top_b | bottom_b),
            cells(bottom_b),
            border(bottom_b),
        ]
    )


def _cmd_biject(args) -> int:
    if args.composition is not None:
        return _biject_composition(args)
    if args.perm is not None:
        return _biject_permutation(args)
    return _biject_word(args)


def _biject_composition(args) -> int:
    composition = Composition.from_text(args.composition)
    p = bijections.zero_ipk_permutation(composition)
    pairs = [
        ("composition", _composition_text(composition, args)),
        ("zero_ipk_permutation", str(p)),
        ("descent_composition", _composition_text(descent_composition(p), args)),
        ("ipk", statistics(p).ipk),
    ]
    _emit_pairs(args, "biject-composition", pairs)
    return EXIT_OK


def _biject_permutation(args) -> int:
    p = Permutation.from_text(args.perm)
    if not bijections.is_n_shaped(p):
        print(
            f"error: lpk != 1: not an N-shaped permutation: {p}",
            file=sys.stderr,
        )
        return EXIT_COUNTEREXAMPLE
    split = bijections.canonical_decomposition(p)
    word = bijections.block_word(p)
    pairs: list[tuple[str, Any]] = [
        ("permutation", str(p)),
        ("alpha", " ".join(map(str, split.alpha))),
        ("beta", " ".join(map(str, split.beta))),
        ("gamma", " ".join(map(str, split.gamma))),
        ("word", word),
    ]
    render: tilings.Tiling | None = None
    if is_avoiding_block_word(word, 3):
        j, k, core = regex.split_block_word(word)
        triple = bijections.permutation_to_tiling_triple(p)
        pairs += _word_chain_pairs(j, k, core, triple.tiling)
        render = triple.tiling
    else:
        pairs.append(
            (
                "notice",
                "word has a forbidden factor (inverse contains a descending "
                "3-run); no tiling triple",
            )
        )
    _emit_pairs(args, "biject-permutation", pairs)
    if args.format == "text" and render is not None:
        _emit_tiling_render(args, render)
    return EXIT_OK


def _word_chain_pairs(j, k, core, tiling) -> list[tuple[str, Any]]:
    return [
        ("split_j", j),
        ("split_k", k),
        ("core", core),
        ("core_segments", "|".join(regex.core_segments(core))),
        ("tiling_top", " ".join(map(str, tiling.top))),
        ("tiling_bottom", " ".join(map(str, tiling.bottom))),
    ]


def _emit_tiling_render(args, tiling: tilings.Tiling) -> None:
    if args.output:
        return
    sys.stdout.write(render_tiling(tiling) + "\n")


def _biject_word(args) -> int:
    word = check_word(args.word)
    sections: list[tuple[str, Any]] = [("word", word)]
    handled = False
    render: tilings.Tiling | None = None
    if regex.block_word_dfa(3).accepts(word):
        handled = True
        j, k, core = regex.split_block_word(word)
        tiling = tilings.word_to_tiling(core)
        p = bijections.word_to_permutation(word)
        sections.append(("decoded_permutation", str(p)))
        sections += _word_chain_pairs(j, k, core, tiling)
        render = tiling
    if regex.core_dfa().accepts(word):
        handled = True
        segments = regex.core_segments(word)
        tiling = tilings.word_to_tiling(word)
        sections.append(("z_segments", "|".join(segments)))
        sections.append(("z_tiling_top", " ".join(map(str, tiling.top))))
        sections.append(("z_tiling_bottom", " ".join(map(str, tiling.bottom))))
        render = tiling
    if not handled and is_block_word(word):
        handled = True
        p = bijections.word_to_permutation(word)
        sections.append(("decoded_permutation", str(p)))
        sections.append(
            (
                "notice",
                "encodes an N-shaped permutation but contains a factor from "
                f"{forbidden_factors(3)}; no tiling",
            )
        )
    if not handled:
        print(
            f"error: {word!r} is not a block word, a full avoiding block word, "
            "or a core word",
            file=sys.stderr,
        )
        return EXIT_COUNTEREXAMPLE
    _emit_pairs(args, "biject-word", sections)
    if args.format == "text" and render is not None:
        _emit_tiling_render(args, render)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def _cmd_table(args) -> int:
    ms = _parse_int_list(args.m) if args.kind in ("counts-thm1", "gf-coeffs") else None
    counted_claim = {"counts-thm1": "theorem1", "counts-thm2": "theorem2"}.get(args.kind)
    if counted_claim is not None:
        claims.validate((counted_claim,), n_max=args.n_max, ms=ms, allow_large=args.unsafe_large_n)
    if args.kind == "descent-matrix" and args.n_max > 8:
        raise UsageError("descent-matrix is quadratic in compositions; n-max <= 8")

    note = None
    if args.kind == "fib":
        order = args.order if args.order is not None else 2
        params, columns = {"order": order, "n_max": args.n_max}, ["n", "value"]
        rows = [[n, fib(order, n)] for n in range(args.n_max + 1)]
        note = FIB_INDEXING_NOTE
    elif args.kind == "counts-thm1":
        ms = ms or claims.CLAIMS["theorem1"].default_ms
        params, columns = {"m": list(ms), "n_max": args.n_max}, ["m", "n", "count", "fibonacci"]
        rows = [
            [m, n, *claims.theorem1_counts(n, m, args.unsafe_large_n)]
            for m in ms
            for n in range(1, args.n_max + 1)
        ]
    elif args.kind == "counts-thm2":
        params, columns = {"n_max": args.n_max}, ["n", "count", "closed_form"]
        rows = [
            [n, *claims.theorem2_counts(n, args.unsafe_large_n)]
            for n in range(1, args.n_max + 1)
        ]
    elif args.kind == "gf-coeffs":
        m = (ms or (3,))[0]
        truncation = args.order if args.order is not None else args.n_max
        expansion = series.ilpk_one_ogf(m, truncation)
        params, columns = {"m": m, "order": expansion.order}, ["n", "coefficient"]
        rows = [[n, str(expansion.coeffs[n])] for n in range(expansion.order + 1)]
    else:  # descent-matrix
        params, columns = {"n": args.n_max}, ["L", "M", "count"]
        rows = [
            ["-".join(map(str, left)), "-".join(map(str, right)), count]
            for (left, right), count in sorted(oracle.descent_pair_matrix(args.n_max).items())
        ]
    _emit_table(args, args.kind, params, columns, rows, note)
    return EXIT_OK


# ---------------------------------------------------------------------------
# series


def _cmd_series(args) -> int:
    if args.kind == "substitution-inverse":
        expansion = series.t_substitution_inverse(args.order)
        label = "v with 4v/(1+v)^2 = t"
        var = "t"
    elif args.kind == "fib-ogf":
        expansion = series.fibonacci_ogf(args.m, args.order)
        label = "(1-x)/(1-2x+x^m)"
        var = "x"
    else:
        expansion = series.ilpk_one_ogf(args.m, args.order)
        label = "x^2(x^(m-2)-1)/((1-x)^2(x^(m+1)-3x^m+3x-1))"
        var = "x"

    if args.format == "csv":
        lines = ["n,coefficient"] + [
            f"{i},{c}" for i, c in enumerate(expansion.coeffs)
        ]
        _emit(args, "\n".join(lines))
    elif args.format == "json":
        _emit_json(
            args,
            {
                "kind": args.kind,
                "m": args.m,
                "order": expansion.order,
                "label": label,
                "coefficients": [str(c) for c in expansion.coeffs],
            },
        )
    else:
        _emit_text(args, [f"{label}:", series.format_series(expansion, var=var)])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
