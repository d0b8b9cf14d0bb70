"""Each check, made to fail by patching one name it calls, reports the first
disagreeing case with the exact keys, values and key order below.

The shared S_n sweep and the peakless tallies of oracle.peakless, which
call raw statistics, are cached, so every test that patches a statistic
they might read warms them first; the patched name then reaches only the
check.
"""

import types
from fractions import Fraction
from itertools import islice

import pytest

from permfib import bijections, claims, compositions, oracle, series, tilings
from permfib.compositions import Composition
from permfib.permutations import Permutation


@pytest.fixture(autouse=True)
def warm_sweeps():
    for n in range(1, 7):
        oracle.sweep(n)
        oracle.peakless(n)


def _off_at(monkeypatch, module, name, at, position=-1):
    """Make ``module.name`` return one more whenever its positional argument
    at ``position`` is ``at``."""
    real = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *args, **kwargs: real(*args, **kwargs) + (args[position] == at)
    )


def _failed(names, **params):
    """The one failing report of running ``names`` at n_max 5 and k_max 6,
    each given only if one of them reads it; every other one passes."""
    read = [claims.CLAIMS[name] for name in names]
    if any(claim.max_n is not None for claim in read):
        params.setdefault("n_max", 5)
    if any(claim.max_k is not None for claim in read):
        params.setdefault("k_max", 6)
    failing = [r for r in claims.run(names, **params) if not r.passed]
    assert len(failing) == 1, failing
    return failing[0]


def test_theorem1(monkeypatch):
    _off_at(monkeypatch, compositions, "fib", 4)
    report = _failed(("theorem1",), ms=(3,))
    assert report.counterexample == {"n": 4, "count": 5, "fibonacci": 6}
    assert list(report.counterexample) == ["n", "count", "fibonacci"]


def test_theorem2(monkeypatch):
    _off_at(monkeypatch, oracle, "count_ilpk1_avoiders", 4, position=0)
    report = _failed(("theorem2",))
    assert report.counterexample == {"n": 4, "count": 14, "closed_form": 13}
    assert list(report.counterexample) == ["n", "count", "closed_form"]


#: prop6 runs the letter-tuple kernel behind each public map.
_KERNELS = {"block_word": "_encode", "word_to_permutation": "_decode"}


@pytest.mark.parametrize(
    "name, wrong",
    [
        # the encoding misses its own decoding: no round trip
        (
            "block_word",
            lambda real, letters: real(letters)[::-1] if len(letters) == 4 else real(letters),
        ),
        # a decoding without one left peak fails the raw statistic
        ("word_to_permutation", lambda real, w: (1, 2, 3, 4) if len(w) == 4 else real(w)),
        # one left peak, but 4 3 2 is a descending 3-run of the inverse
        ("word_to_permutation", lambda real, w: (1, 4, 3, 2) if len(w) == 4 else real(w)),
    ],
)
def test_prop6_word(monkeypatch, name, wrong):
    kernel = _KERNELS[name]
    real = getattr(bijections, kernel)
    monkeypatch.setattr(bijections, kernel, lambda arg: wrong(real, arg))
    report = _failed(("prop6",))
    assert report.params == {"m": 3, "n_max": 5}
    assert report.counterexample == {"n": 4, "word": "caaa"}
    assert list(report.counterexample) == ["n", "word"]


def test_prop6_count(monkeypatch):
    _off_at(monkeypatch, oracle, "count_ilpk1_avoiders", 4, position=0)
    report = _failed(("prop6",))
    assert report.counterexample == {"n": 4, "words": 13, "permutations": 14}
    assert list(report.counterexample) == ["n", "words", "permutations"]


def test_prop8(monkeypatch):
    _off_at(monkeypatch, compositions, "fib", 3)
    report = _failed(("prop8",))
    assert report.counterexample == {"k": 3, "dfa": 6, "tilings": 6, "fibonacci_product": 8}
    assert list(report.counterexample) == ["k", "dfa", "tilings", "fibonacci_product"]


def test_prop8_tilings(monkeypatch):
    real = tilings._row_pairs
    monkeypatch.setattr(tilings, "_row_pairs", lambda k: islice(real(k), int(k == 3), None))
    report = _failed(("prop8",))
    assert report.counterexample == {"k": 3, "dfa": 6, "tilings": 5, "fibonacci_product": 6}
    assert list(report.counterexample) == ["k", "dfa", "tilings", "fibonacci_product"]


def test_eq1(monkeypatch):
    # identity-sums, the claim's second report, calls its own fib and passes.
    _off_at(monkeypatch, compositions, "fib", 2)
    report = _failed(("eq1",))
    assert report.claim == "eq1"
    assert report.counterexample == {"n": 3, "word_count": 4, "double_sum": 5}
    assert list(report.counterexample) == ["n", "word_count", "double_sum"]


def test_gf_general(monkeypatch):
    _off_at(monkeypatch, oracle, "count_ilpk1_avoiders", 4, position=0)
    report = _failed(("gf-general",), ms=(3,))
    assert report.counterexample == {"n": 4, "coefficient": "13", "dfa": 13, "oracle": 14}
    assert list(report.counterexample) == ["n", "coefficient", "dfa", "oracle"]


def test_gf3_substitution(monkeypatch):
    wrong = series.from_coeffs([0, Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)])
    monkeypatch.setattr(series, "t_substitution_inverse", lambda order: wrong)
    report = _failed(("gf3",))
    assert report.claim == "gf3-substitution"
    assert report.params == {"coefficients": "1/4 1/8 5/64"}
    assert report.counterexample == {"got": "1/4 1/8 1/16", "expected": "1/4 1/8 5/64"}


@pytest.mark.parametrize(
    "claim, polynomial, counterexample",
    [
        ("gf3", "ipk_polynomial", {"x_power": 3, "t_power": 1, "lhs": "4", "rhs": "2"}),
        ("gf5", "ilpk_polynomial", {"x_power": 3, "t_power": 0, "lhs": "2", "rhs": "1"}),
    ],
)
def test_gf_identities(monkeypatch, claim, polynomial, counterexample):
    # one more permutation at the top statistic value of S_3 breaks every m;
    # the first report is m = 2's
    real = getattr(series, polynomial)

    def wrong(m, n):
        coeffs = real(m, n)
        return coeffs[:-1] + (coeffs[-1] + (n == 3),)

    monkeypatch.setattr(series, polynomial, wrong)
    reports = claims.run((claim,))
    failing = [r for r in reports if r.claim == claim and not r.passed]
    assert failing
    assert failing[0].params == {"m": 2, "x_order": 7, "t_order": 5}
    assert failing[0].counterexample == counterexample
    assert list(failing[0].counterexample) == ["x_power", "t_power", "lhs", "rhs"]


@pytest.mark.parametrize(
    "statistic, counterexample",
    [
        ("peak_count", {"identity": "peaks", "k": 0, "got": 16, "expected": 5}),
        ("left_peak_count", {"identity": "left-peaks", "k": 0, "got": 16, "expected": 1}),
    ],
)
def test_corollaries(monkeypatch, statistic, counterexample):
    monkeypatch.setattr(oracle, statistic, lambda letters: 0)
    report = oracle.verify_corollaries(5)
    assert not report.passed
    assert report.counterexample == counterexample
    assert list(report.counterexample) == ["identity", "k", "got", "expected"]


def test_identity_sums_double_sum(monkeypatch):
    _off_at(monkeypatch, oracle, "fib", 3)
    report = oracle.verify_identity_sums(5)
    assert not report.passed
    assert report.counterexample == {"n": 3, "double_sum": 4, "closed_form": 6, "reindexed": 4}
    assert list(report.counterexample) == ["n", "double_sum", "closed_form", "reindexed"]


def test_identity_sums_hockey_stick(monkeypatch):
    comb = oracle.math.comb
    monkeypatch.setattr(
        oracle, "math", types.SimpleNamespace(comb=lambda a, b: comb(a, b) + ((a, b) == (4, 3)))
    )
    report = oracle.verify_identity_sums(5)
    assert not report.passed
    assert report.counterexample == {"n": 4, "k": 1, "sum": 4, "binomial": 5}
    assert list(report.counterexample) == ["n", "k", "sum", "binomial"]


def test_hook_row_sums(monkeypatch):
    matrix = oracle.descent_pair_matrix(3)
    matrix[((2, 1), (1, 2))] += 1
    monkeypatch.setattr(oracle, "descent_pair_matrix", lambda n: matrix)
    report = oracle.verify_hook_row_sums(3)
    assert not report.passed
    assert report.params == {"n": 3}
    assert report.counterexample == {"composition": "(2,1)", "hook_weight": 2}


def test_descent_uniqueness(monkeypatch):
    real = oracle.zero_ipk_permutation
    monkeypatch.setattr(
        oracle,
        "zero_ipk_permutation",
        lambda c: Permutation((1, 3, 2)) if c == Composition((2, 1)) else real(c),
    )
    report = oracle.verify_descent_uniqueness(3)
    assert not report.passed
    assert report.params == {"n": 3}
    assert report.counterexample == {
        "composition": "(2,1)",
        "ipk0_count": 1,
        "constructed": "1 3 2",
        "constructed_composition": "(2,1)",
        "constructed_ipk": 1,
    }


def test_descent_uniqueness_count(monkeypatch):
    monkeypatch.setitem(oracle.peakless(3), (2, 1), 2)
    report = oracle.verify_descent_uniqueness(3)
    assert not report.passed
    assert report.params == {"n": 3}
    assert report.counterexample == {
        "composition": "(2,1)",
        "ipk0_count": 2,
        "constructed": "2 3 1",
        "constructed_composition": "(2,1)",
        "constructed_ipk": 0,
    }
