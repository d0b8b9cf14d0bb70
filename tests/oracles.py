"""Tiny independent oracles shared between test modules."""

import itertools
from typing import Iterator, NamedTuple


def brute_force_segmentations(word: str) -> list[tuple[str, ...]]:
    """All ways to cut a word into blocks c | bc | a..ab | a..ac with the
    first block matching a* c.  Written without the regex machinery so it can
    stand as an independent check of the greedy segmentation."""
    results: list[tuple[str, ...]] = []

    def blocks_from(position: int, acc: list[str]) -> None:
        if position == len(word):
            results.append(tuple(acc))
            return
        remaining = word[position:]
        options = []
        if remaining.startswith("c"):
            options.append("c")
        if remaining.startswith("bc"):
            options.append("bc")
        run = 0
        while run < len(remaining) and remaining[run] == "a":
            run += 1
        if run >= 1 and run < len(remaining) and remaining[run] in "bc":
            options.append(remaining[: run + 1])
        for option in options:
            blocks_from(position + len(option), acc + [option])

    lead = 0
    while lead < len(word) and word[lead] == "a":
        lead += 1
    if lead < len(word) and word[lead] == "c":
        blocks_from(lead + 1, [word[: lead + 1]])
    return results


class Record(NamedTuple):
    letters: tuple[int, ...]
    up: int  # longest ascending run
    down: int  # longest descending run
    ipk: int
    ilpk: int
    lpk: int
    inverse_down: int  # longest descending run of the inverse


def permutation_records(n: int) -> Iterator[Record]:
    """The statistics the S_n sweep tallies, for every permutation of 1..n.

    Every statistic is computed here by direct loops, without
    permfib.permutations, so this stands as an independent reference for
    the sweep-backed queries."""

    def longest_run(values, rising):
        best = run = 1
        for a, b in zip(values, values[1:]):
            run = run + 1 if (a < b) == rising else 1
            best = max(best, run)
        return best

    def peaks(values):
        return sum(1 for a, b, c in zip(values, values[1:], values[2:]) if a < b > c)

    def left_peaks(values):
        return peaks(values) + int(len(values) > 1 and values[0] > values[1])

    for letters in itertools.permutations(range(1, n + 1)):
        inverse = [0] * n
        for position, value in enumerate(letters, start=1):
            inverse[value - 1] = position
        yield Record(
            letters,
            longest_run(letters, True),
            longest_run(letters, False),
            peaks(inverse),
            left_peaks(inverse),
            left_peaks(letters),
            longest_run(inverse, False),
        )
