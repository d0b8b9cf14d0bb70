"""The insertion lemmas behind the S_n sweep, and the descent-pair matrix,
against brute force in tests/oracles.py.

Every permutation of n is a permutation tau of n - 1 with n inserted before
one index j.  The class transfer relies on how that moves the rise bits of
the permutation and of its inverse; it and the pruned one-left-peak tree
rely on three statistics that the insertion never decreases, and the tree
tests only the children that the candidate rule below leaves.
"""

import itertools

import pytest
from oracles import (
    descending_runs,
    descent_pair_counts,
    inverse,
    left_peaks,
    longest_run,
    peaks,
    rise_bits,
)

from permfib import oracle


def _insertions(n):
    for tau in itertools.permutations(range(1, n)):
        for j in range(n):
            yield tau, j, tau[:j] + (n,) + tau[j:]


def _children_where(n, keep):
    """Each permutation tau of n - 1 with the set of j for which tau with n
    inserted before index j satisfies ``keep``."""
    kept = {}
    for tau, j, pi in _insertions(n):
        kept.setdefault(tau, set())
        if keep(pi):
            kept[tau].add(j)
    return kept.items()


def _left_peak_indices(values):
    return [
        i
        for i in range(len(values) - 1)
        if (i == 0 or values[i - 1] < values[i]) and values[i] > values[i + 1]
    ]


@pytest.mark.parametrize("n", range(2, 8))
def test_insertion_never_decreases_the_pruning_statistics(n):
    for tau, j, pi in _insertions(n):
        assert left_peaks(pi) >= left_peaks(tau), (tau, j)
        assert peaks(inverse(pi)) >= peaks(inverse(tau)), (tau, j)
        assert longest_run(inverse(pi), False) >= longest_run(inverse(tau), False), (tau, j)


@pytest.mark.parametrize("n", range(2, 8))
def test_insertion_appends_one_inverse_bit(n):
    """The inverse's rise bits gain one bit at the end, a rise exactly when
    j is past the index of n - 1 in tau."""
    for tau, j, pi in _insertions(n):
        expected = rise_bits(inverse(tau)) + (j > tau.index(n - 1),)
        assert rise_bits(inverse(pi)) == expected, (tau, j)


@pytest.mark.parametrize("n", range(2, 8))
def test_insertion_puts_a_rise_and_a_descent_in_place_of_one_padded_bit(n):
    """Padded with a rise in front and a descent at the end, the rise bits
    of pi are those of tau with bit j replaced by (rise, descent)."""

    def padded(letters):
        return (True,) + rise_bits(letters) + (False,)

    for tau, j, pi in _insertions(n):
        bits = padded(tau)
        assert padded(pi) == bits[:j] + (True, False) + bits[j + 1 :], (tau, j)


@pytest.mark.parametrize("n", range(2, 8))
def test_one_left_peak_children_are_the_candidates(n):
    """A parent with one left peak at index p has a child with one left peak
    exactly for j in {p, p + 1, n - 1}; the identity exactly for j < n - 1."""
    for tau, kept in _children_where(n, lambda pi: left_peaks(pi) == 1):
        peaks_of_tau = _left_peak_indices(tau)
        if not peaks_of_tau:
            assert kept == set(range(n - 1)), tau
        elif len(peaks_of_tau) == 1:
            (p,) = peaks_of_tau
            assert kept == {p, p + 1, n - 1}, tau
        else:
            assert not kept, tau
            continue
        assert set(oracle._one_left_peak_candidates(bytes(tau))) == kept, tau


@pytest.mark.parametrize("n", range(2, 8))
def test_a_descent_appended_to_the_inverse_lengthens_its_last_run(n):
    """The longest descending run of pi's inverse is tau's when j is past
    the index of n - 1, else the larger of it and tau's last run plus one."""
    for tau, j, pi in _insertions(n):
        runs = descending_runs(inverse(tau))
        assert oracle._last_descending_run(bytes(tau)) == runs[-1], tau
        expected = max(runs) if j > tau.index(n - 1) else max(max(runs), runs[-1] + 1)
        assert longest_run(inverse(pi), False) == expected, (tau, j)


@pytest.mark.parametrize("n", range(1, 8))
def test_descent_pair_matrix_matches_reference(n):
    assert oracle.descent_pair_matrix(n) == descent_pair_counts(n)
