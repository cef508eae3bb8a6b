"""The processing order (``_allocation_order``) and the greedy CCE
allocation (``_greedy_assign``) against the pure-Python model in
``reference.py``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import block_table, field_constants, reference_greedy, reference_order

from pdcch_blocking import (AGGREGATION_LEVELS, CoresetConfig, ScenarioConfig,
                            candidate_starts)
from pdcch_blocking.simulation import (STRATEGIES, Y_MODULUS, Y_MULTIPLIER, _allocation_order,
                                       _greedy_assign, _kernel)


# --- the processing order and the greedy ---------------------------------------
# ``block_greedy`` is the one harness of ``_greedy_assign``: it runs the
# greedy on candidate sets written as CCE masks, and reads back what each UE
# took.

def masks(level, starts):
    """A UE's candidate masks, listed by first CCE as the simulator lists them."""
    return tuple(sorted(((1 << level) - 1) << s for s in starts))


def word_ints(words):
    """Each mask of a (W, ...) uint64 array of mask words, low word first, as
    one Python int."""
    return sum((words[w].astype(object) << 64 * w for w in range(len(words))),
               np.zeros(words.shape[1:], dtype=object))


def block_greedy(mask_sets, cce_count, index):
    """``_greedy_assign`` over the rows of ``index``, lists of indices into
    ``mask_sets`` laid out by ``block_table``. Per row: (the mask each UE took
    in processing order, None where it was blocked; the CCEs used). The
    mask UE j took is what it added to the CCEs its row had used after the
    first j positions, so every prefix of the block is run too."""
    table = block_table(mask_sets, cce_count)
    index = np.array(index, dtype=np.int64)
    runs = [_greedy_assign(index[:, :j], table) for j in range(index.shape[1] + 1)]
    used = [word_ints(words).tolist() for _, words in runs]
    outcomes = []
    for b, scheduled in enumerate(runs[-1][0].tolist()):
        assert used[0][b] == 0
        taken = [used[j + 1][b] ^ used[j][b] or None for j in range(len(scheduled))]
        assert [mask is not None for mask in taken] == scheduled
        outcomes.append((taken, used[-1][b]))
    return outcomes


def kernel_tables(counts, coreset):
    """The per-CORESET tables of ``_kernel`` for the candidate counts
    ``counts`` (per AL, as ``ScenarioConfig.candidates_per_al``) on ``coreset``,
    decoded: (P per AL, per AL the distinct candidate masks of every residue
    as Python ints, by first CCE). Every set is checked against the
    ``candidate_starts`` of its residue. An empty set, one all-zero
    column, decodes to the single empty mask set ``((),)``."""
    cce_count = coreset.cce_count
    cfg = ScenarioConfig(1, coreset, counts, (1.0, 0, 0, 0, 0))
    positions, table = _kernel(cfg)
    words = -(-cce_count // 64)
    assert len(table) == words + 2
    sets = word_ints(table[:words]).tolist()
    assert len(sets) == positions.sum() and max(sets).bit_length() <= cce_count
    tables, offset = [], 0
    for level, m, p in zip(AGGREGATION_LEVELS, cfg.candidates_per_al, positions.tolist()):
        rows, offset = sets[offset:offset + p], offset + p
        if m == 0 or level > cce_count:
            assert rows == [0]
            tables.append(((),))
            continue
        assert table[words:, offset - p:offset].T.tolist() == [list(field_constants(level))] * p
        masks = [tuple(((1 << level) - 1) << last - level + 1
                       for last in range(row.bit_length()) if row >> last & 1)
                 for row in rows]
        assert masks == [tuple(sorted({((1 << level) - 1) << start
                                       for start in candidate_starts(level, cce_count, m, r)}))
                         for r in range(p)]
        tables.append(masks)
    return positions, tables


def order_for(levels, strategy, rng):
    """One iteration's processing order: ``rng.permutation`` of the UEs
    through the block form of ``_allocation_order`` as a single row."""
    perm = rng.permutation(len(levels))
    return _allocation_order(np.array([levels], dtype=np.int64), perm[None],
                             strategy)[0].tolist()


def test_empty_input_yields_empty_outcome():
    for strategy in STRATEGIES:
        order = order_for([], strategy, np.random.default_rng(0))
        assert order == []
        assert block_greedy([], 0, [order]) == [([], 0)]


def test_strategies_equivalent_under_uniform_al():
    positions, tables = kernel_tables((0, 6, 0, 0, 0), CoresetConfig.from_cce_count(24))
    rng = np.random.default_rng(29)
    for _ in range(50):
        rntis = rng.integers(1, 65536, size=8)
        residues = (rntis * Y_MULTIPLIER % Y_MODULUS % positions[1]).tolist()
        candidate_masks = [tables[1][r] for r in residues]
        # every strategy's order of the same UEs, as the rows of one block
        orders = [order_for([1] * 8, strategy, np.random.default_rng(5))
                  for strategy in STRATEGIES]
        blocked_counts = {taken.count(None)
                          for taken, _ in block_greedy(candidate_masks, 24, orders)}
        assert len(blocked_counts) == 1


# CORESET sizes at a word edge (64, 128 and 192 are the last sizes of one,
# two and three words), one with fewer blocks than a set's 8 candidates, and
# the sizes with one AL-16 position
EDGE_CCE_COUNTS = st.one_of(st.sampled_from([6, 63, 64, 65, 127, 128, 191, 192]),
                            st.integers(16, 31), st.integers(1, 200))


@st.composite
def greedy_blocks(draw):
    """A CORESET of 1..200 CCEs, one to four mask words, often at a word
    edge; candidate sets of aligned starts as (AL, starts), empty when the
    AL does not fit and with repeats as at a hash collapse, also more of
    them than the AL's blocks; rows of indices into them."""
    cce_count = draw(EDGE_CCE_COUNTS)
    sets = []
    for _ in range(draw(st.integers(1, 8))):
        level = draw(st.sampled_from(AGGREGATION_LEVELS))
        blocks = cce_count // level
        starts = draw(st.lists(st.integers(0, blocks - 1), max_size=8)) if blocks else []
        sets.append((level, sorted(level * block for block in starts)))
    u = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, len(sets) - 1), min_size=u, max_size=u),
                         min_size=1, max_size=6))
    return cce_count, sets, rows


@settings(max_examples=300, deadline=None)
@given(greedy_blocks())
# AL 1 with 8 candidates on 6 CCEs: 7 UEs of the set, the last one blocked
@example((6, [(1, [0, 0, 1, 2, 3, 4, 5, 5])], [[0] * 7]))
# one AL-16 position beside AL-1 candidates on either side of it
@example((20, [(16, [0, 0]), (1, [3, 17])], [[0, 1, 0, 1], [1, 0, 1, 1]]))
# a full last word of three: the AL-8 blocks at CCEs 176 and 184
@example((192, [(8, [176, 184]), (16, [176])], [[0, 1, 0], [1, 0, 0]]))
# AL-1 and AL-2 blocks ending at CCE 63, the top bit of word 0 of two, beside
# the word-1 blocks at CCE 64
@example((128, [(1, [63, 64]), (2, [62, 64])], [[0, 0, 1], [1, 1, 0], [1, 0, 0]]))
# rows whose only free candidate is in word 2, after words 0 and 1 have none
@example((192, [(16, [0]), (16, [64]), (16, [0, 64, 128])],
          [[0, 1, 2, 2], [2, 2, 2, 2], [0, 2, 2, 1]]))
def test_block_greedy_matches_reference_greedy(case):
    cce_count, sets, rows = case
    outcomes = block_greedy([masks(*s) for s in sets], cce_count, rows)
    for row, (taken, used) in zip(rows, outcomes):
        ues = [sets[k] for k in row]  # position j of the row is UE j
        assigned, blocked = reference_greedy(ues, range(len(ues)))
        assert [j for j, mask in enumerate(taken) if mask is None] == blocked
        # a mask's lowest set bit is its start CCE
        assert {j: (mask & -mask).bit_length() - 1
                for j, mask in enumerate(taken) if mask is not None} == assigned
        assert used == sum(((1 << ues[j][0]) - 1) << start for j, start in assigned.items())


# At C = 48 the three AL-16 blocks (sets 0-2) and the six AL-8 blocks (sets
# 3-8) both cover every CCE, so a row is full once it holds the three AL-16
# blocks or all six AL-8 ones.
UES_AT_48 = [(16, [start]) for start in range(0, 48, 16)] + [(8, [start])
                                                            for start in range(0, 48, 8)]


# Long rows against the reference greedy: full after position 3, full at
# position 64 (or their last), or drawn at random
@pytest.mark.parametrize("u", [63, 64, 65, 128, 200])
@pytest.mark.parametrize("late", [False, True])
def test_greedy_early_exit_matches_reference(u, late):
    rng = np.random.default_rng(u)
    full_at = min(u, 64)
    rows = [[0, 1, 2] + [0] * (u - 3),
            [0] * (full_at - 2) + [1, 2] + [0] * (u - full_at),
            [3 + int(rng.integers(6)) if a == 3 else int(rng.integers(3))
             for a in rng.integers(3, 5, u)]]
    if late:
        # a row full only at its last position, and one that never fills
        # but takes a block there
        rows += [[0] * (u - 2) + [1, 2], [0] * (u - 1) + [6]]
    outcomes = block_greedy([masks(*ue) for ue in UES_AT_48], 48, rows)
    for row, (taken, _) in zip(rows, outcomes):
        _, blocked = reference_greedy([UES_AT_48[k] for k in row], range(u))
        assert [j for j, mask in enumerate(taken) if mask is None] == blocked
    if late:
        assert all(taken[-1] is not None for taken, _ in outcomes[3:])


COUNTS = (6, 6, 4, 2, 1)


def test_leftmost_choice_picks_lowest_start():
    # C=12, AL 4, M=2: at residue 2 the hash lists start 8 before start 0
    assert candidate_starts(4, 12, 2, 2) == [8, 0]
    _, tables = kernel_tables((0, 0, 2, 0, 0), CoresetConfig.from_cce_count(12))
    assert block_greedy([tables[2][2]], 12, [[0]]) == [([0b1111], 0b1111)]
    # every table row lists its masks by first CCE
    for cce_count in (1, 8, 12, 54, 97, 200):
        _, tables = kernel_tables(COUNTS, CoresetConfig.from_cce_count(cce_count))
        for rows in tables:
            for row in rows:
                assert list(row) == sorted(row)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_block_order_matches_python_sort(strategy):
    # the block form against a stable Python sort, row by row, with many ties
    rng = np.random.default_rng(41)
    for u in (1, 2, 7, 30):
        al_idx = rng.integers(0, 5, size=(64, u))
        perm = np.array([rng.permutation(u) for _ in range(64)])
        got = _allocation_order(al_idx, perm, strategy).tolist()
        assert got == [reference_order(levels, strategy, row)
                       for levels, row in zip(al_idx.tolist(), perm.tolist())]
