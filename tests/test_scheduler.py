import numpy as np
import pytest

from pdcch_blocking import (Candidate, CoresetConfig, MonitoringLimits,
                            SearchSpaceConfig, UeContext, allocate,
                            blocking_ratio, ue_candidate_set, validate_limits)
from pdcch_blocking.scheduler import (STRATEGY_HIGH_TO_LOW, STRATEGY_LOW_TO_HIGH,
                                      STRATEGY_UNORDERED)


def cand(level, k, start):
    return Candidate(level, k, tuple(range(start, start + level)))


def ue(rnti, level, starts):
    return UeContext(rnti, level, tuple(cand(level, k, s) for k, s in enumerate(starts)))


def reference_greedy(ues, order):
    """Independent step-by-step simulation of the allocation rule, written
    against plain CCE sets instead of bitmasks."""
    taken = set()
    assigned = {}
    blocked = []
    for i in order:
        options = sorted(ues[i].candidates, key=lambda c: (c.cces[0], c.candidate_index))
        for c in options:
            if not taken.intersection(c.cces):
                assigned[i] = c
                taken.update(c.cces)
                break
        else:
            blocked.append(i)
    return assigned, sorted(blocked)


def test_single_ue_never_blocked():
    coreset = CoresetConfig.from_cce_count(54)
    outcome = allocate([ue(1, 8, [0, 24])], coreset)
    assert outcome.blocked_ues == ()
    assert outcome.used_cces == frozenset(range(8))


def test_three_ue_blocking_example():
    # two AL-4 UEs sharing one candidate block, one AL-2 UE overlapping it:
    # whichever order runs, exactly one UE ends up blocked
    coreset = CoresetConfig.from_cce_count(8)
    ues = [ue(1, 4, [4]), ue(2, 4, [0]), ue(3, 2, [4])]
    for strategy in (STRATEGY_LOW_TO_HIGH, STRATEGY_HIGH_TO_LOW):
        outcome = allocate(ues, coreset, strategy=strategy)
        assert outcome.blocked_count == 1
        assert set(outcome.blocked_ues) <= {0, 2}
        assert blocking_ratio(outcome, 3) == pytest.approx(1 / 3)


def test_identical_candidates_block_all_but_one():
    space = SearchSpaceConfig({16: 1})
    coreset = CoresetConfig.from_cce_count(16)
    for total in (2, 5, 9):
        ues = [UeContext(r, 16, tuple(ue_candidate_set(r, space, coreset, 16)))
               for r in range(1, total + 1)]
        outcome = allocate(ues, coreset, rng=np.random.default_rng(3))
        assert outcome.blocked_count == total - 1


def test_empty_input_yields_empty_outcome():
    outcome = allocate([], CoresetConfig.from_cce_count(6))
    assert outcome.assignments == {}
    assert outcome.blocked_ues == ()
    assert outcome.used_cces == frozenset()


def test_ue_without_candidates_is_blocked():
    coreset = CoresetConfig.from_cce_count(8)
    outcome = allocate([UeContext(1, 16, ()), ue(2, 2, [0])], coreset)
    assert outcome.blocked_ues == (0,)
    assert 1 in outcome.assignments


def test_candidates_outside_coreset_rejected():
    with pytest.raises(ValueError):
        allocate([ue(1, 4, [8])], CoresetConfig.from_cce_count(6))


def test_strategy_orders_differ_in_who_wins():
    # AL-1 UE and AL-4 UE compete for CCE 0; low-to-high serves the AL-1 UE
    coreset = CoresetConfig.from_cce_count(4)
    ues = [ue(1, 4, [0]), ue(2, 1, [0])]
    low = allocate(ues, coreset, strategy=STRATEGY_LOW_TO_HIGH)
    high = allocate(ues, coreset, strategy=STRATEGY_HIGH_TO_LOW)
    assert low.blocked_ues == (0,)
    assert high.blocked_ues == (1,)


def _random_ues(rng, cce_count, max_ues=10):
    space = SearchSpaceConfig((6, 6, 4, 2, 1))
    coreset = CoresetConfig.from_cce_count(cce_count)
    ues = []
    for _ in range(int(rng.integers(1, max_ues + 1))):
        level = int(rng.choice([1, 2, 4, 8, 16]))
        rnti = int(rng.integers(1, 65536))
        if cce_count < level:
            ues.append(UeContext(rnti, level, ()))
        else:
            ues.append(UeContext(rnti, level,
                                 tuple(ue_candidate_set(rnti, space, coreset, level))))
    return ues, coreset


def test_outcome_invariants_on_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(200):
        ues, coreset = _random_ues(rng, int(rng.integers(3, 12)) * 6)
        outcome = allocate(ues, coreset, rng=rng)
        # every UE assigned or blocked, never both
        assert set(outcome.assignments) | set(outcome.blocked_ues) == set(range(len(ues)))
        assert not set(outcome.assignments) & set(outcome.blocked_ues)
        # assigned candidates pairwise disjoint; atomicity of used CCEs
        all_cces = [c for cand_ in outcome.assignments.values() for c in cand_.cces]
        assert len(all_cces) == len(set(all_cces))
        assert outcome.used_cces == frozenset(all_cces)
        assert sum(ues[i].aggregation_level for i in outcome.assignments) == \
            len(outcome.used_cces)


def test_greedy_prefix_property():
    rng = np.random.default_rng(23)
    for _ in range(50):
        ues, coreset = _random_ues(rng, 24)
        first = allocate(ues, coreset)  # rng=None: deterministic order
        survivors = sorted(first.assignments, key=lambda i: (ues[i].aggregation_level, i))
        rerun = allocate([ues[i] for i in survivors], coreset)
        assert rerun.blocked_ues == ()
        for new_idx, old_idx in enumerate(survivors):
            assert rerun.assignments[new_idx] == first.assignments[old_idx]


def test_strategies_equivalent_under_uniform_al():
    space = SearchSpaceConfig((0, 6, 0, 0, 0))
    coreset = CoresetConfig.from_cce_count(24)
    rng = np.random.default_rng(29)
    for _ in range(50):
        ues = [UeContext(r, 2, tuple(ue_candidate_set(r, space, coreset, 2)))
               for r in rng.integers(1, 65536, size=8)]
        outcomes = [allocate(ues, coreset, strategy=s, rng=np.random.default_rng(5))
                    for s in (STRATEGY_LOW_TO_HIGH, STRATEGY_HIGH_TO_LOW,
                              STRATEGY_UNORDERED)]
        assert outcomes[0].blocked_count == outcomes[1].blocked_count \
            == outcomes[2].blocked_count


def test_matches_reference_simulation_small_cases():
    # oracle equivalence: up to 4 UEs in a small CORESET against an
    # independently written set-based walk of the same rule
    rng = np.random.default_rng(31)
    coreset = CoresetConfig.from_cce_count(8)
    for _ in range(300):
        ues = []
        for _ in range(int(rng.integers(1, 5))):
            level = int(rng.choice([1, 2, 4, 8]))
            n_starts = int(rng.integers(1, 4))
            positions = [int(p) * level for p in rng.integers(0, 8 // level, size=n_starts)]
            ues.append(ue(int(rng.integers(1, 65536)), level, positions))
        outcome = allocate(ues, coreset)
        order = sorted(range(len(ues)), key=lambda i: ues[i].aggregation_level)
        ref_assigned, ref_blocked = reference_greedy(ues, order)
        assert list(outcome.blocked_ues) == ref_blocked
        assert outcome.assignments == ref_assigned


def test_leftmost_choice_picks_lowest_start():
    coreset = CoresetConfig.from_cce_count(12)
    # hash order lists start 8 first; leftmost choice must take start 0
    leftmost = allocate([ue(1, 4, [8, 0])], coreset)
    assert leftmost.assignments[0].first_cce == 0


def test_tie_break_uses_supplied_rng():
    coreset = CoresetConfig.from_cce_count(2)
    ues = [ue(1, 2, [0]), ue(2, 2, [0])]
    winners = {allocate(ues, coreset, rng=np.random.default_rng(seed)).blocked_ues
               for seed in range(20)}
    assert winners == {(0,), (1,)}  # both orders occur across seeds


def test_blocking_ratio_bounds():
    coreset = CoresetConfig.from_cce_count(6)
    outcome = allocate([ue(1, 2, [0]), ue(2, 2, [0])], coreset)
    assert blocking_ratio(outcome, 2) == 0.5
    with pytest.raises(ValueError):
        blocking_ratio(outcome, 0)


def test_ue_context_validation():
    with pytest.raises(ValueError):
        UeContext(1, 4, (cand(2, 0, 0),))              # AL mismatch
    with pytest.raises(ValueError):
        UeContext(1, 2, (cand(2, 1, 0), cand(2, 0, 2)))  # out of index order


# --- monitoring limits -------------------------------------------------------

def test_limits_defaults_follow_scs_table():
    assert MonitoringLimits.for_scs(15) == MonitoringLimits(44, 56, 15)
    assert MonitoringLimits.for_scs(30) == MonitoringLimits(36, 56, 30)
    assert MonitoringLimits.for_scs(60) == MonitoringLimits(22, 48, 60)
    assert MonitoringLimits.for_scs(120) == MonitoringLimits(20, 32, 120)
    with pytest.raises(ValueError):
        MonitoringLimits.for_scs(240)


def test_validate_limits_reference_candidate_set():
    space = SearchSpaceConfig((6, 6, 4, 2, 1))
    coreset = CoresetConfig.from_cce_count(54)
    report = validate_limits(space, coreset, 4242, MonitoringLimits.for_scs(15))
    assert report.blind_decodes == 19
    assert not report.blind_decodes_exceeded
    assert 0 < report.distinct_cces <= 54
    assert report.within_limits


def test_validate_limits_single_candidate_everywhere():
    space = SearchSpaceConfig((1, 1, 1, 1, 1))
    coreset = CoresetConfig.from_cce_count(54)
    report = validate_limits(space, coreset, 7, MonitoringLimits.for_scs(15))
    assert report.blind_decodes == 5


def test_validate_limits_flags_excess_blind_decodes():
    space = SearchSpaceConfig((8, 8, 8, 8, 8))
    coreset = CoresetConfig.from_cce_count(96)
    report = validate_limits(space, coreset, 7, MonitoringLimits.for_scs(120))
    assert report.blind_decodes == 40
    assert report.blind_decodes_exceeded
    assert not report.within_limits
