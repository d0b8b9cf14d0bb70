"""Every query over the cached S_n sweep, the end-insertion tally
oracle.peakless, and the insertion-automaton counts, against a direct
per-permutation reference that shares no code with permfib.permutations."""

import math
from collections import Counter

import pytest
from oracles import ascending_runs, permutation_records

from permfib import claims, oracle, series


def _trim(counts):
    last = max(i for i, c in enumerate(counts) if c)
    return tuple(counts[: last + 1])


@pytest.mark.parametrize("n", range(1, 8))
def test_counts_match_reference(n):
    records = list(permutation_records(n))
    for m in range(3, 7):
        assert oracle.count_ipk0_avoiders(n, m) == sum(
            1 for r in records if r.up < m and r.ipk == 0
        )
        assert oracle.count_ilpk1_avoiders(n, m) == sum(
            1 for r in records if r.down < m and r.ilpk == 1
        )
        # Inversion: lpk(pi) is ilpk of pi's inverse, so the same count.
        assert oracle.count_ilpk1_avoiders(n, m) == sum(
            1 for r in records if r.lpk == 1 and r.inverse_down < m
        )


@pytest.mark.parametrize("n", range(1, 12))
def test_automaton_counts_match_the_sweep(n):
    """Two independent transfers over S_n: the automata insert into pi, the
    sweep into its inverse."""
    swept = oracle.sweep(n)
    for m in range(3, 7):
        assert oracle.count_ipk0_avoiders(n, m) == swept.ipk_counts(m).get(0, 0)
        assert oracle.count_ilpk1_avoiders(n, m) == swept.ilpk_counts(m).get(1, 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_polynomials_match_reference(n):
    records = list(permutation_records(n))
    for m in range(2, 6):
        ipk = [0] * (n + 2)
        ilpk = [0] * (n + 2)
        for r in records:
            if r.up < m:
                ipk[r.ipk + 1] += 1
            if r.down < m:
                ilpk[r.ilpk] += 1
        assert series.ipk_polynomial(m, n) == _trim(ipk)
        assert series.ilpk_polynomial(m, n) == _trim(ilpk)


@pytest.mark.parametrize("n", range(1, 8))
def test_kept_letters_match_reference(n):
    records = list(permutation_records(n))
    assert oracle.peakless(n) == Counter(ascending_runs(r.letters) for r in records if r.ipk == 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_histogram_matches_reference(n):
    """The joint (up, down, ipk, ilpk) counts, not only their marginals."""
    assert oracle.sweep(n).histogram == Counter(
        (r.up, r.down, r.ipk, r.ilpk) for r in permutation_records(n)
    )


@pytest.mark.parametrize("n", range(1, 10))
def test_every_child_is_counted_once(n):
    assert sum(oracle.sweep(n).histogram.values()) == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_every_descent_composition_is_held_once(n):
    counts = oracle.peakless(n)
    # 2^(n-1) distinct compositions of n are all of them, each held once
    assert len(counts) == 2 ** (n - 1)
    assert all(sum(parts) == n and min(parts) > 0 for parts in counts)
    assert set(counts.values()) == {1}


@pytest.mark.parametrize("n", range(1, 13))
def test_peakless_tally_meets_the_theorem1_automaton(n):
    """A permutation avoids an ascending m-run exactly when every part of
    its descent composition is below m, so the ipk-0 avoiders the automaton
    V counts are the peakless tally's compositions with parts below m."""
    counts = oracle.peakless(n)
    for m in range(3, 7):
        kept = sum(count for parts, count in counts.items() if max(parts) < m)
        assert kept == oracle.count_ipk0_avoiders(n, m), m


@pytest.mark.parametrize("n", range(1, 12))
def test_pruning_keeps_every_peakless_class(n):
    """End insertion, which walks no class, finds every ipk-0 class of the
    top level of _levels, counted by the increasing runs of its rise bits.
    A top-level key has no index bits: ipk lies above bit n + 3, and padded
    rise bit i, for i = 1..n - 1, is bit i."""
    *_, top = oracle._levels(n, oracle._peaks, 0)
    expected = Counter()
    for key, count in top.items():
        if not key >> n + 3:
            bits = "".join("1" if key >> i & 1 else "0" for i in range(1, n))
            expected[tuple(len(run) + 1 for run in bits.split("0"))] += count
    assert oracle.peakless(n) == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_one_left_peak_totals(n):
    """(3^n - 2n - 1) / 4 permutations of n have one left peak: 1, 5, 18,
    ..., 4,916 at n = 9 and 14,757 at n = 10, past the brute-force range.
    Through inversion, as many have an inverse with one left peak."""
    histogram = oracle.sweep(n).histogram
    kept = sum(count for (_, _, _, ilpk), count in histogram.items() if ilpk == 1)
    assert kept == (3**n - 2 * n - 1) // 4


def _cleared_sweeps(monkeypatch):
    monkeypatch.setattr(oracle, "_SWEEPS", {})
    oracle.peakless.cache_clear()


def _sweep_data(n):
    swept = oracle.sweep(n)
    counts = oracle.peakless(n)
    return swept.histogram, list(swept.histogram), counts, list(counts)


def test_a_level_is_the_same_whichever_is_asked_first(monkeypatch):
    """Asking for 9 first builds 5 on the way; asking for 5 first stops there."""
    got = []
    for order in (5, 9), (9, 5):
        _cleared_sweeps(monkeypatch)
        got.append({n: _sweep_data(n) for n in order})
    assert got[0] == got[1]


def _counted_steps(monkeypatch):
    """Count the insertion steps of _levels by level."""
    _cleared_sweeps(monkeypatch)
    built = Counter()
    step = oracle._classes

    def counted(n, *args, **kwargs):
        built[n] += 1
        return step(n, *args, **kwargs)

    monkeypatch.setattr(oracle, "_classes", counted)
    return built


def test_a_run_builds_each_level_once(monkeypatch):
    """Theorem 4 and the corollaries build the peakless tally of each n up
    to n_max once, as many tallies as cache entries, and no level of
    _levels.  gf3 and gf5 share the levels 2..7 of _levels, their x order
    (level 1 is the seed), and nothing builds a level above it."""
    built = _counted_steps(monkeypatch)
    reports = claims.run(("theorem4", "corollaries"), n_max=8)
    assert all(r.passed for r in reports)
    assert built == {}
    info = oracle.peakless.cache_info()
    assert (info.misses, info.currsize) == (8, 8)

    built = _counted_steps(monkeypatch)
    reports = claims.run(("theorem4", "corollaries", "gf3", "gf5"), n_max=9)
    assert all(r.passed for r in reports)
    assert built == {n: 1 for n in range(2, claims.GF_X_ORDER + 1)}
    info = oracle.peakless.cache_info()
    assert (info.misses, info.currsize) == (9, 9)
