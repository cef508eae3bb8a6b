"""Greedy allocation of PDCCH candidates to UEs within one CORESET opportunity.

The processing order is the scheduling strategy: "low_to_high" and
"high_to_low" sort UEs by aggregation level (ties between equal-AL UEs broken
by a random permutation the caller draws from the iteration's RNG stream);
"unordered" processes UEs in that random permutation alone. Each UE takes
one free candidate or is blocked and takes no CCEs. The greedy runs a block
of iterations at once: one pass over the U processing positions handles
every iteration's UE at that position, and it returns which UEs were
scheduled and the CCEs each iteration used.

Candidates are CCE masks in uint64 words, and each UE gets its first free
candidate in the order listed. The simulator lists them by first CCE, so the
pick is the free candidate with the lowest first CCE. Packing toward low CCE
indices keeps aligned blocks intact for the high aggregation levels, which
dominate blocking at light load.
"""

import numpy as np

STRATEGY_LOW_TO_HIGH = "low_to_high"
STRATEGY_HIGH_TO_LOW = "high_to_low"
STRATEGY_UNORDERED = "unordered"
STRATEGIES = (STRATEGY_LOW_TO_HIGH, STRATEGY_HIGH_TO_LOW, STRATEGY_UNORDERED)


def _allocation_order(al_keys, perm, strategy):
    """Processing orders of a block of iterations, one row each: row b of
    ``perm`` is iteration b's random permutation of its UEs and row b of
    ``al_keys`` their ALs (or anything that sorts as the ALs). "unordered"
    keeps the permutation; the other strategies sort it stably by AL, so
    equal-AL UEs stay in permutation order."""
    if strategy == STRATEGY_UNORDERED:
        return perm
    keys = np.take_along_axis(al_keys, perm, axis=1)
    if strategy == STRATEGY_HIGH_TO_LOW:
        keys = -keys
    return np.take_along_axis(perm, np.argsort(keys, axis=1, kind="stable"), axis=1)


def _greedy_assign(index, table, start):
    """Run the greedy on a block of iterations at once. Row b of ``index`` is
    iteration b's UEs in processing order, each as a row of ``table``, a
    (W, S, M) uint64 array of candidate CCE masks in W words, low word
    first; every iteration's used CCEs start as the W words ``start``. At
    each position, every row's UE takes its first candidate free of its
    row's used CCEs, or is blocked and takes none. Returns (scheduled,
    used): a (B, U) bool array, True where the UE took a candidate, and the
    (W, B) words of each row's used CCEs."""
    b, m = len(index), table.shape[2]
    rows = np.arange(0, b * m, m)  # each row's first candidate in a flat (B, M) array
    used = np.repeat(start[:, None], b, axis=1)
    scheduled = np.empty((index.shape[1], b), dtype=bool)
    # one word at a time: a (B, M, W) gather reduced over W is about 2x slower
    for j, sets in enumerate(np.asfortranarray(index).T):
        candidates = [words.take(sets, axis=0) for words in table]
        conflict = candidates[0] & used[0][:, None]
        for words, row_used in zip(candidates[1:], used[1:]):
            conflict |= words & row_used[:, None]
        free = conflict == 0
        first = rows + free.argmax(axis=1)
        took = scheduled[j] = free.take(first)
        for words, row_used in zip(candidates, used):
            row_used |= words.take(first) * took
    return scheduled.T, used

