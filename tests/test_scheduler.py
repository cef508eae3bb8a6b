import numpy as np
import pytest

from pdcch_blocking import (AGGREGATION_LEVELS, CoresetConfig, MonitoringLimits,
                            SearchSpaceConfig, candidate_starts, validate_limits,
                            y_value)
from pdcch_blocking.scheduler import (STRATEGIES, STRATEGY_HIGH_TO_LOW,
                                      STRATEGY_LOW_TO_HIGH, _allocation_order,
                                      _greedy_assign)
from pdcch_blocking.search_space import Y_MODULUS
from test_kernel import kernel_tables, reference_greedy, reference_order


def masks(level, starts):
    """A UE's candidate masks, listed by first CCE as the simulator lists them."""
    return tuple(sorted(((1 << level) - 1) << s for s in starts))


def order_for(levels, strategy, rng):
    """One iteration's processing order: ``rng.permutation`` of the UEs
    through the block form of ``_allocation_order`` as a single row."""
    perm = rng.permutation(len(levels))
    return _allocation_order(np.array([levels], dtype=np.int64), perm[None],
                             strategy)[0].tolist()


def outcomes(order, candidate_masks, picks):
    """Each UE's outcome rebuilt from the greedy's ``picks``: ({UE: mask
    taken}, [blocked UEs in order]). UE order[j] took the next pick exactly
    when that mask is one of its candidates: a mask that overlapped the CCEs
    taken at a blocked UE's turn overlaps them at every later turn too."""
    taken, blocked = {}, []
    for i in order:
        if len(taken) < len(picks) and picks[len(taken)] in candidate_masks[i]:
            taken[i] = picks[len(taken)]
        else:
            blocked.append(i)
    assert len(taken) == len(picks)
    return taken, blocked


def schedule(ues, strategy=STRATEGY_LOW_TO_HIGH, rng=None):
    """Order and greedy-assign UEs given as (AL, candidate starts). Returns
    ({UE: mask taken}, sorted blocked UEs, mask of every CCE used)."""
    rng = np.random.default_rng(0) if rng is None else rng
    order = order_for([level for level, _ in ues], strategy, rng)
    candidate_masks = [masks(*u) for u in ues]
    picks, used = _greedy_assign(order, candidate_masks)
    taken, blocked = outcomes(order, candidate_masks, picks)
    return taken, sorted(blocked), used


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
    _, positions, tables = kernel_tables(SearchSpaceConfig({16: 1}),
                                         CoresetConfig.from_cce_count(16))
    assert positions[4] == 1 and tables[4] == [((1 << 16) - 1,)]
    for total in (2, 5, 9):
        order = order_for([4] * total, STRATEGY_LOW_TO_HIGH, np.random.default_rng(3))
        picks, _ = _greedy_assign(order, [tables[4][0]] * total)
        assert len(order) - len(picks) == total - 1


def test_empty_input_yields_empty_outcome():
    for strategy in STRATEGIES:
        order = order_for([], strategy, np.random.default_rng(0))
        assert order == []
        assert _greedy_assign(order, []) == ([], 0)


def test_ue_without_candidates_is_blocked():
    taken, blocked, _ = schedule([(16, []), (2, [0])])
    assert blocked == [0]
    assert 1 in taken
    # the kernel gives an AL larger than the CORESET the single empty mask set
    _, positions, tables = kernel_tables(SearchSpaceConfig((6, 6, 4, 2, 1)),
                                         CoresetConfig.from_cce_count(8))
    assert positions[4] == 1 and tables[4] == ((),)


def test_strategy_orders_differ_in_who_wins():
    # AL-1 UE and AL-4 UE compete for CCE 0; low-to-high serves the AL-1 UE
    ues = [(4, [0]), (1, [0])]
    assert schedule(ues, STRATEGY_LOW_TO_HIGH)[1] == [0]
    assert schedule(ues, STRATEGY_HIGH_TO_LOW)[1] == [1]


SPACE = SearchSpaceConfig((6, 6, 4, 2, 1))


def _random_ues(rng, cce_count, max_ues=10):
    """UEs as (AL, candidate starts) from the TS 38.213 hash of a random RNTI."""
    ues = []
    for _ in range(int(rng.integers(1, max_ues + 1))):
        level = int(rng.choice(AGGREGATION_LEVELS))
        rnti = int(rng.integers(1, 65536))
        if cce_count < level:
            ues.append((level, []))
        else:
            m = SPACE.candidates_per_al[AGGREGATION_LEVELS.index(level)]
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
        candidate_masks = [masks(*u) for u in ues]
        order = order_for([level for level, _ in ues], STRATEGY_LOW_TO_HIGH, rng)
        first, _ = outcomes(order, candidate_masks,
                            _greedy_assign(order, candidate_masks)[0])
        survivors = [i for i in order if i in first]
        rerun, blocked = outcomes(survivors, candidate_masks,
                                  _greedy_assign(survivors, candidate_masks)[0])
        assert blocked == []
        assert rerun == first


def test_strategies_equivalent_under_uniform_al():
    space = SearchSpaceConfig((0, 6, 0, 0, 0))
    k, positions, tables = kernel_tables(space, CoresetConfig.from_cce_count(24))
    rng = np.random.default_rng(29)
    for _ in range(50):
        rntis = rng.integers(1, 65536, size=8)
        residues = (rntis * k % Y_MODULUS % positions[1]).tolist()
        candidate_masks = [tables[1][r] for r in residues]
        blocked_counts = set()
        for strategy in STRATEGIES:
            order = order_for([1] * 8, strategy, np.random.default_rng(5))
            blocked_counts.add(8 - len(_greedy_assign(order, candidate_masks)[0]))
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
        candidate_masks = [masks(*u) for u in ues]
        taken, blocked = outcomes(order, candidate_masks,
                                  _greedy_assign(order, candidate_masks)[0])
        ref_assigned, ref_blocked = reference_greedy(ues, order)
        assert sorted(blocked) == ref_blocked
        # a mask's lowest set bit is its start CCE
        assert {i: (m & -m).bit_length() - 1 for i, m in taken.items()} == ref_assigned


def test_leftmost_choice_picks_lowest_start():
    # C=12, AL 4, M=2: at residue 2 the hash lists start 8 before start 0
    space = SearchSpaceConfig({4: 2})
    assert candidate_starts(4, 12, 2, 2) == [8, 0]
    _, _, tables = kernel_tables(space, CoresetConfig.from_cce_count(12))
    assert _greedy_assign([0], [tables[2][2]]) == ([0b1111], 0b1111)
    # every table row lists its masks by first CCE
    for cce_count in (1, 8, 12, 54, 97, 200):
        for space_type in ("css", "uss"):
            _, _, tables = kernel_tables(SearchSpaceConfig(
                (6, 6, 4, 2, 1), space_type=space_type),
                CoresetConfig.from_cce_count(cce_count))
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


# --- monitoring limits -------------------------------------------------------

def test_limits_defaults_follow_scs_table():
    assert MonitoringLimits.for_scs(15) == MonitoringLimits(44, 56)
    assert MonitoringLimits.for_scs(30) == MonitoringLimits(36, 56)
    assert MonitoringLimits.for_scs(60) == MonitoringLimits(22, 48)
    assert MonitoringLimits.for_scs(120) == MonitoringLimits(20, 32)
    with pytest.raises(ValueError):
        MonitoringLimits.for_scs(240)


@pytest.mark.parametrize("max_bd,max_cce", [
    (-5, 56), (44, -1), (0, 56), (44, 0), (44.0, 56), (True, 56), (44, "56")])
def test_limits_reject_non_positive_or_non_integer(max_bd, max_cce):
    with pytest.raises(ValueError):
        MonitoringLimits(max_bd, max_cce)


def test_limits_store_numpy_integers_as_int():
    limits = MonitoringLimits(np.int64(44), np.int32(56))
    assert limits == MonitoringLimits(44, 56)
    assert type(limits.max_blind_decodes) is int
    assert MonitoringLimits.for_scs(np.int64(60)) == MonitoringLimits.for_scs(60)


@pytest.mark.parametrize("scs", [7, 240, True, 15.0, "15", None])
def test_limits_reject_spacing_outside_the_table(scs):
    with pytest.raises(ValueError, match="scs_khz"):
        MonitoringLimits.for_scs(scs)


def test_validate_limits_reference_candidate_set():
    space = SearchSpaceConfig((6, 6, 4, 2, 1))
    coreset = CoresetConfig.from_cce_count(54)
    report = validate_limits(space, coreset, 4242, MonitoringLimits.for_scs(15))
    assert report.blind_decodes == 19
    assert not report.blind_decodes_exceeded
    assert 0 < report.distinct_cces <= 54
    assert not report.cces_exceeded


def test_validate_limits_checks_rnti_for_css_and_uss():
    coreset = CoresetConfig.from_cce_count(54)
    for space_type in ("css", "uss"):
        space = SearchSpaceConfig((6, 6, 4, 2, 1), space_type=space_type)
        with pytest.raises(ValueError):
            validate_limits(space, coreset, 0, MonitoringLimits.for_scs(15))


@pytest.mark.parametrize("rnti", [1.5, True])
def test_validate_limits_rejects_non_integer_rnti(rnti):
    coreset = CoresetConfig.from_cce_count(54)
    for space_type in ("css", "uss"):
        space = SearchSpaceConfig((6, 6, 4, 2, 1), space_type=space_type)
        with pytest.raises(ValueError, match="c_rnti"):
            validate_limits(space, coreset, rnti, MonitoringLimits.for_scs(15))


def test_validate_limits_single_candidate_everywhere():
    space = SearchSpaceConfig((1, 1, 1, 1, 1))
    coreset = CoresetConfig.from_cce_count(54)
    report = validate_limits(space, coreset, 7, MonitoringLimits.for_scs(15))
    assert report.blind_decodes == 5


def test_validate_limits_skips_an_al_larger_than_the_coreset():
    # at 8 CCEs the AL16 candidate cannot fit and adds no CCEs
    space = SearchSpaceConfig((0, 0, 0, 1, 1))
    coreset = CoresetConfig.from_cce_count(8)
    report = validate_limits(space, coreset, 7, MonitoringLimits.for_scs(15))
    assert report.blind_decodes == 2
    assert report.distinct_cces == 8


def test_validate_limits_flags_excess_blind_decodes():
    space = SearchSpaceConfig((8, 8, 8, 8, 8))
    coreset = CoresetConfig.from_cce_count(96)
    report = validate_limits(space, coreset, 7, MonitoringLimits.for_scs(120))
    assert report.blind_decodes == 40
    assert report.blind_decodes_exceeded
    assert report.blind_decodes > report.max_blind_decodes
