"""Greedy allocation of PDCCH candidates to UEs within one CORESET opportunity.

The processing order is the scheduling strategy: "low_to_high" and
"high_to_low" sort UEs by aggregation level (ties between equal-AL UEs broken
by a random permutation the caller draws from the iteration's RNG stream);
"unordered" processes UEs in that random permutation alone. Each UE takes
one free candidate or is blocked and takes no CCEs. The greedy runs a block
of iterations at once: one pass over the U processing positions handles
every iteration's UE at that position, and it returns which UEs were
scheduled and the CCEs each iteration used.

TS 38.213 places every AL-L candidate at a start aligned to L, so a
candidate is one L-bit field of a uint64 word of CCEs and never crosses a
word. A UE's candidate set is one bit per candidate, at its last CCE, the
top bit of its field. One test per word marks the top bit of every field
that holds a used CCE (the zero-byte test of Warren's Hacker's Delight,
section 6-1, for L-bit fields), so the set's free candidates are its bits
outside that mark, and the UE takes the lowest: the free candidate with
the lowest first CCE. Packing toward low CCE indices keeps aligned blocks
intact for the high aggregation levels, which dominate blocking at light
load.
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


def _greedy_assign(index, table):
    """Run the greedy on a block of iterations at once. Row b of ``index`` is
    iteration b's UEs in processing order, each as a column of ``table``, a
    (W + 3, S) uint64 array: a candidate set's W words, low word first, with
    one bit at the last CCE of each candidate, then its AL's constants lo
    (the low L - 1 bits of every L-bit field), L - 1 and 2**L - 1. Every
    iteration starts with no CCE used. At each position, every row's UE
    takes its first free candidate, or is blocked and takes none. Returns
    (scheduled, used): a (B, U) bool array, True where the UE took a
    candidate, and the (W, B) words of each row's used CCEs."""
    b, words = len(index), len(table) - 3
    used = np.zeros((words, b), dtype=np.uint64)
    scheduled = np.empty((index.shape[1], b), dtype=bool)
    for j, sets in enumerate(np.asfortranarray(index).T):
        column = table.take(sets, axis=1)
        lo, shift, fill = column[words:]
        # the top bit of an L-field of ((used & lo) + lo) | used is set when
        # the field holds a used CCE: a carry out of its low L - 1 bits, or
        # its own top bit; candidate bits are field tops, so the other bits
        # of that test need no mask
        free = column[:words] & ~(((used & lo) + lo) | used)
        low = free & -free  # each word's first free candidate
        for w in range(1, words):  # kept in the lowest word that has one
            low[w] *= ~free[:w].any(axis=0)
        used |= (low >> shift) * fill  # the L CCEs of the block ending at low
        np.logical_or.reduce(free, axis=0, out=scheduled[j])
    return scheduled.T, used
