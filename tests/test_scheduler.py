import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdcch_blocking import (AGGREGATION_LEVELS, CoresetConfig, ScenarioConfig,
                            candidate_starts, y_value)
from pdcch_blocking.scheduler import (STRATEGIES, STRATEGY_HIGH_TO_LOW,
                                      STRATEGY_LOW_TO_HIGH, _allocation_order,
                                      _greedy_assign)
from pdcch_blocking.search_space import Y_MODULUS, Y_MULTIPLIER
from pdcch_blocking.simulation import _kernel
from test_kernel import (block_greedy, counts_per_al, kernel_tables,
                         reference_greedy, reference_order, word_ints)


def masks(level, starts):
    """A UE's candidate masks, listed by first CCE as the simulator lists them."""
    return tuple(sorted(((1 << level) - 1) << s for s in starts))


def order_for(levels, strategy, rng):
    """One iteration's processing order: ``rng.permutation`` of the UEs
    through the block form of ``_allocation_order`` as a single row."""
    perm = rng.permutation(len(levels))
    return _allocation_order(np.array([levels], dtype=np.int64), perm[None],
                             strategy)[0].tolist()


def assign(ues, order):
    """Greedy-assign UEs given as (AL, candidate starts) in ``order``, as a
    one-row block. Returns ({UE: mask taken}, sorted blocked UEs, mask of
    every CCE used)."""
    candidate_masks = [masks(*u) for u in ues]
    cce_count = max((mask.bit_length() for m in candidate_masks for mask in m), default=0)
    ((taken, used),) = block_greedy(candidate_masks, cce_count, [order])
    return ({i: mask for i, mask in zip(order, taken) if mask is not None},
            sorted(i for i, mask in zip(order, taken) if mask is None), used)


def schedule(ues, strategy=STRATEGY_LOW_TO_HIGH, rng=None):
    """Order UEs given as (AL, candidate starts) and ``assign`` them."""
    rng = np.random.default_rng(0) if rng is None else rng
    return assign(ues, order_for([level for level, _ in ues], strategy, rng))


def test_single_ue_never_blocked():
    for strategy in STRATEGIES:
        taken, blocked, used = schedule([(8, [0, 24])], strategy)
        assert blocked == []
        assert taken == {0: (1 << 8) - 1}
        assert used == (1 << 8) - 1


def test_three_ue_blocking_example():
    # two AL-4 UEs sharing one candidate block, one AL-2 UE overlapping it:
    # whichever order runs, exactly one UE ends up blocked
    ues = [(4, [4]), (4, [0]), (2, [4])]
    for strategy in (STRATEGY_LOW_TO_HIGH, STRATEGY_HIGH_TO_LOW):
        for seed in range(10):
            _, blocked, _ = schedule(ues, strategy, np.random.default_rng(seed))
            assert len(blocked) == 1
            assert set(blocked) <= {0, 2}


def test_identical_candidates_block_all_but_one():
    # one AL-16 candidate in a 16-CCE CORESET: a single residue, a single mask
    positions, tables = kernel_tables({16: 1}, CoresetConfig.from_cce_count(16))
    assert positions[4] == 1 and tables[4] == [((1 << 16) - 1,)]
    for total in (2, 5, 9):
        order = order_for([4] * total, STRATEGY_LOW_TO_HIGH, np.random.default_rng(3))
        ((taken, _),) = block_greedy([tables[4][0]] * total, 16, [order])
        assert taken.count(None) == total - 1


def test_empty_input_yields_empty_outcome():
    for strategy in STRATEGIES:
        order = order_for([], strategy, np.random.default_rng(0))
        assert order == []
        assert block_greedy([], 0, [order]) == [([], 0)]


def test_ue_without_candidates_is_blocked():
    taken, blocked, _ = schedule([(16, []), (2, [0])])
    assert blocked == [0]
    assert 1 in taken
    # the kernel gives an AL larger than the CORESET the single empty mask set
    positions, tables = kernel_tables(COUNTS, CoresetConfig.from_cce_count(8))
    assert positions[4] == 1 and tables[4] == ((),)


def test_strategy_orders_differ_in_who_wins():
    # AL-1 UE and AL-4 UE compete for CCE 0; low-to-high serves the AL-1 UE
    ues = [(4, [0]), (1, [0])]
    assert schedule(ues, STRATEGY_LOW_TO_HIGH)[1] == [0]
    assert schedule(ues, STRATEGY_HIGH_TO_LOW)[1] == [1]


COUNTS = (6, 6, 4, 2, 1)


def _random_ues(rng, cce_count, max_ues=10):
    """UEs as (AL, candidate starts) from the TS 38.213 hash of a random RNTI."""
    ues = []
    for _ in range(int(rng.integers(1, max_ues + 1))):
        level = int(rng.choice(AGGREGATION_LEVELS))
        rnti = int(rng.integers(1, 65536))
        if cce_count < level:
            ues.append((level, []))
        else:
            m = COUNTS[AGGREGATION_LEVELS.index(level)]
            ues.append((level, candidate_starts(level, cce_count, m, y_value(rnti))))
    return ues


def test_outcome_invariants_on_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(200):
        ues = _random_ues(rng, int(rng.integers(3, 12)) * 6)
        taken, blocked, used = schedule(ues, str(rng.choice(STRATEGIES)), rng)
        # every UE assigned or blocked, never both
        assert set(taken) | set(blocked) == set(range(len(ues)))
        assert not set(taken) & set(blocked)
        # assigned candidates pairwise disjoint; atomicity of used CCEs
        union = 0
        for mask in taken.values():
            assert union & mask == 0
            union |= mask
        assert used == union
        assert sum(ues[i][0] for i in taken) == bin(used).count("1")


def test_greedy_prefix_property():
    # rerunning only the UEs that were served, in the same order, serves
    # each of them with the same candidate
    rng = np.random.default_rng(23)
    for _ in range(50):
        ues = _random_ues(rng, 24)
        order = order_for([level for level, _ in ues], STRATEGY_LOW_TO_HIGH, rng)
        first, _, _ = assign(ues, order)
        rerun, blocked, _ = assign(ues, [i for i in order if i in first])
        assert blocked == []
        assert rerun == first


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


def test_matches_reference_simulation_small_cases():
    # oracle equivalence: up to 4 UEs in a small CORESET against an
    # independently written set-based walk of the same rule
    rng = np.random.default_rng(31)
    for _ in range(300):
        ues = []
        for _ in range(int(rng.integers(1, 5))):
            level = int(rng.choice([1, 2, 4, 8]))
            n_starts = int(rng.integers(1, 4))
            ues.append((level, [int(p) * level for p in
                                rng.integers(0, 8 // level, size=n_starts)]))
        order = order_for([level for level, _ in ues],
                          str(rng.choice(STRATEGIES)), rng)
        taken, blocked, _ = assign(ues, order)
        ref_assigned, ref_blocked = reference_greedy(ues, order)
        assert sorted(blocked) == ref_blocked
        # a mask's lowest set bit is its start CCE
        assert {i: (m & -m).bit_length() - 1 for i, m in taken.items()} == ref_assigned


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


@settings(max_examples=100, deadline=None)
@given(EDGE_CCE_COUNTS, counts_per_al, st.lists(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 199)), min_size=1, max_size=40),
    min_size=1, max_size=6))
def test_used_words_are_the_blocks_taken(cce_count, counts, draws):
    # one greedy pass over _kernel's own table: each row's used words are
    # the union of the blocks its scheduled UEs took, nothing else
    coreset = CoresetConfig.from_cce_count(cce_count)
    positions, table = _kernel(ScenarioConfig(1, coreset, counts, {1: 1.0}))
    offsets = (np.cumsum(positions) - positions).tolist()
    _, tables = kernel_tables(counts, coreset)
    u = min(len(row) for row in draws)
    rows = [[(a, r % positions[a]) for a, r in row[:u]] for row in draws]
    index = np.array([[offsets[a] + r for a, r in row] for row in rows], dtype=np.int64)
    scheduled, used = _greedy_assign(index, table)
    assert used.shape == (-(-cce_count // 64), len(rows))
    for row, took, words in zip(rows, scheduled.tolist(), word_ints(used).tolist()):
        ues = [(AGGREGATION_LEVELS[a], [(mask & -mask).bit_length() - 1
                                         for mask in tables[a][r]]) for a, r in row]
        assigned, blocked = reference_greedy(ues, range(u))
        assert [j for j in range(u) if not took[j]] == blocked
        assert words == sum(((1 << ues[j][0]) - 1) << first for j, first in assigned.items())
        assert words.bit_count() == sum(ues[j][0] for j in range(u) if took[j])
        assert words >> cce_count == 0


def test_leftmost_choice_picks_lowest_start():
    # C=12, AL 4, M=2: at residue 2 the hash lists start 8 before start 0
    assert candidate_starts(4, 12, 2, 2) == [8, 0]
    _, tables = kernel_tables({4: 2}, CoresetConfig.from_cce_count(12))
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


def test_tie_break_uses_supplied_rng():
    ues = [(2, [0]), (2, [0])]
    winners = {tuple(schedule(ues, STRATEGY_LOW_TO_HIGH, np.random.default_rng(seed))[1])
               for seed in range(20)}
    assert winners == {(0,), (1,)}  # both orders occur across seeds

