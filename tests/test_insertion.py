"""The insertion lemmas behind the S_n sweep and the insertion automata,
and the descent-pair matrix, against brute force in tests/oracles.py.

Every permutation of n is a permutation tau of n - 1 with n inserted before
one index j.  The class transfer relies on how that moves the rise bits of
the permutation and of its inverse; the automata rely on peaks and left
peaks never falling, and on the move tables below.
"""

import itertools
from collections import Counter

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
    """Peaks and left peaks never fall, so the automata of oracle.py drop a
    permutation for good once it has a peak (V) or a second left peak (N).
    The inverse's peaks and longest descending run never fall either: on the
    inverse, insertion appends a bit (the next test)."""
    for tau, j, pi in _insertions(n):
        assert peaks(pi) >= peaks(tau), (tau, j)
        assert left_peaks(pi) >= left_peaks(tau), (tau, j)
        assert peaks(inverse(pi)) >= peaks(inverse(tau)), (tau, j)
        assert longest_run(inverse(pi), False) >= longest_run(inverse(tau), False), (tau, j)


@pytest.mark.parametrize("n", range(2, 8))
def test_insertion_appends_one_inverse_bit(n):
    """The inverse's rise bits gain one bit at the end, a rise exactly when
    j is past the index of n - 1 in tau; the first n - 2 are tau's."""
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


def _v_phase(letters):
    return "v" if peaks(letters) == 0 else None


def _n_phase(letters):
    """inc: increasing; peak: one left peak, the largest letter (not last);
    end: one left peak, the largest letter last; None: more left peaks."""
    if left_peaks(letters) == 0:
        return "inc"
    if left_peaks(letters) == 1:
        return "end" if letters[-1] == len(letters) else "peak"
    return None


@pytest.mark.parametrize("n", range(2, 8))
def test_peakless_children_are_the_two_end_insertions(n):
    for tau in itertools.permutations(range(1, n)):
        if peaks(tau) == 0:
            slots = {j for j in range(n) if peaks(tau[:j] + (n,) + tau[j:]) == 0}
            assert slots == {0, n - 1}, tau


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("moves, phase", [(oracle._V, _v_phase), (oracle._N, _n_phase)])
def test_move_tables_are_the_insertion_step(n, moves, phase):
    """The children of each live tau that stay live move exactly as its
    phase's row lists: to that phase, with the inverse's new bit, in that
    many of the n slots."""
    for tau in itertools.permutations(range(1, n)):
        if phase(tau) is None:
            continue
        children = Counter()
        for j in range(n):
            pi = tau[:j] + (n,) + tau[j:]
            if phase(pi) is not None:
                children[phase(pi), rise_bits(inverse(pi))[-1]] += 1
        listed = Counter()
        for target, rise, ways in moves[phase(tau)]:
            listed[target, rise] += ways(n)
        assert children == listed, tau


@pytest.mark.parametrize("n", range(1, 8))
def test_descent_pair_matrix_matches_reference(n):
    assert oracle.descent_pair_matrix(n) == descent_pair_counts(n)
