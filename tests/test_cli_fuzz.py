"""Random argument vectors for every subcommand and output format.

Sizes stay small (n-max <= 6, k-max <= 8, order <= 40) so each command is
cheap; negative and junk values are drawn on purpose."""

import contextlib
import csv
import io
import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permfib.claims import CLAIMS
from permfib.cli import TABLE_SCHEMA, main
from permfib.oracle import REPORT_SCHEMA

FORMATS = ("text", "csv", "json")
SUBCOMMANDS = ("verify", "stats", "biject", "table", "series")


def _option(name, values):
    """An optional ``--name value`` pair."""
    return st.one_of(st.just([]), values.map(lambda value: [name, str(value)]))


def _int_list(low, high):
    return st.lists(st.integers(low, high), min_size=1, max_size=3).map(
        lambda values: ",".join(map(str, values))
    )


_verify = st.tuples(
    st.just(["verify"]),
    _option(
        "--claim",
        st.one_of(
            st.just("all"),
            st.lists(st.sampled_from(tuple(CLAIMS)), min_size=1, max_size=3, unique=True)
            .map(",".join),
        ),
    ),
    _option("--n-max", st.integers(-1, 6)),
    _option("--k-max", st.integers(-1, 8)),
    _option("--m", _int_list(1, 5)),
)

_permutation = st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1)))
_perm_text = st.one_of(
    _permutation.map(lambda letters: ",".join(map(str, letters))),
    st.text("0123 ,x", min_size=1, max_size=8),
)
_stats = st.tuples(st.just(["stats", "--perm"]), _perm_text.map(lambda text: [text]))

_biject = st.tuples(
    st.just(["biject"]),
    st.one_of(
        _perm_text.map(lambda text: ["--perm", text]),
        st.text("abc", min_size=1, max_size=14).map(lambda word: ["--word", word]),
        _int_list(0, 4).map(lambda parts: ["--composition", parts]),
    ),
)

_table = st.tuples(
    st.just(["table", "--kind"]),
    st.sampled_from(("fib", "counts-thm1", "counts-thm2", "gf-coeffs", "descent-matrix"))
    .map(lambda kind: [kind]),
    _option("--n-max", st.integers(-2, 6)),
    _option("--order", st.integers(-2, 40)),
    _option("--m", _int_list(1, 5)),
)

_series = st.tuples(
    st.just(["series", "--kind"]),
    st.sampled_from(("substitution-inverse", "fib-ogf", "ilpk-ogf")).map(lambda kind: [kind]),
    _option("--m", st.integers(-1, 6)),
    _option("--order", st.integers(-3, 40)),
)

ARGV = dict(zip(SUBCOMMANDS, (_verify, _stats, _biject, _table, _series)))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def _check_output(command, fmt, out):
    if fmt == "json":
        payload = json.loads(out)
        if command == "table":
            jsonschema.validate(payload, TABLE_SCHEMA)
        if command == "verify":
            for report in payload["reports"]:
                jsonschema.validate(report, REPORT_SCHEMA)
    elif fmt == "csv":
        # a cell holding a comma is quoted, so count fields, not raw commas
        lines = out.splitlines()
        records = list(csv.reader(lines))
        assert len(records) == len(lines)
        assert all(len(record) == len(records[0]) for record in records)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_argv_gets_a_documented_exit_and_wellformed_output(command, fmt):
    @settings(max_examples=40, deadline=None)
    @given(parts=ARGV[command], stamp=st.booleans())
    def check(parts, stamp):
        argv = [token for part in parts for token in part] + ["--format", fmt]
        code, out = _run(argv + ([] if stamp else ["--no-timestamp"]))
        assert code in (0, 1, 2)
        if out:
            _check_output(command, fmt, out)

    check()
