"""The insertion lemmas behind the S_n sweep, and the descent-pair matrix,
against brute force in tests/oracles.py.

Every permutation of n is a permutation tau of n - 1 with n inserted before
one index j.  The class transfer relies on how that moves the rise bits of
the permutation and of its inverse, and on three statistics that the
insertion never decreases.
"""

import itertools

import pytest
from oracles import (
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


@pytest.mark.parametrize("n", range(1, 8))
def test_descent_pair_matrix_matches_reference(n):
    assert oracle.descent_pair_matrix(n) == descent_pair_counts(n)
