"""The table-driven iteration kernel against the per-UE hash it replaces,
and the blocked counts of every bundled study pinned bit for bit."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdcch_blocking import (ALLOWED_CANDIDATE_COUNTS, AGGREGATION_LEVELS,
                            STRATEGIES, CoresetConfig, ScenarioConfig,
                            bundled_scenario_names, bundled_scenario_path,
                            candidate_starts, iteration_rng, parse_plan_request,
                            parse_scenario, run_scenario, run_sweep, y_value)
from pdcch_blocking.scheduler import (STRATEGY_HIGH_TO_LOW, STRATEGY_UNORDERED,
                                      _greedy_assign)
from pdcch_blocking.search_space import RNTI_MAX, Y_MODULUS, Y_MULTIPLIER
from pdcch_blocking.simulation import _kernel


def reference_order(levels, strategy, perm):
    """One iteration's processing order, sorted in Python: the permutation
    ``perm``, stably sorted by AL unless "unordered"."""
    order = list(perm)
    if strategy != STRATEGY_UNORDERED:
        order.sort(key=levels.__getitem__, reverse=strategy == STRATEGY_HIGH_TO_LOW)
    return order


def reference_greedy(ues, order):
    """Independent step-by-step simulation of the allocation rule, written
    against plain CCE sets instead of bitmasks. Returns ({UE: start}, blocked)."""
    taken = set()
    assigned = {}
    blocked = []
    for i in order:
        level, starts = ues[i]
        for start in sorted(starts):
            cces = set(range(start, start + level))
            if not taken & cces:
                assigned[i] = start
                taken |= cces
                break
        else:
            blocked.append(i)
    return assigned, sorted(blocked)


def word_ints(words):
    """Each mask of a (W, ...) uint64 array of mask words, low word first, as
    one Python int."""
    return sum((words[w].astype(object) << 64 * w for w in range(len(words))),
               np.zeros(words.shape[1:], dtype=object))


def field_constants(level):
    """The block-test constants of AL ``level`` as Python ints: the low
    L - 1 bits of every L-bit field of a word, L - 1, and the low L bits."""
    lo = sum(((1 << level - 1) - 1) << field for field in range(0, 64, level))
    return lo, level - 1, (1 << level) - 1


def block_table(mask_sets, cce_count):
    """Candidate sets given as tuples of Python-int CCE masks below CCE
    ``cce_count``, each an aligned block of one AL's 1, 2, 4, 8 or 16 CCEs,
    laid out as ``_kernel`` lays out its tables: a (W + 3, S) uint64 table
    of W = ceil(C/64) words per set with one bit at the last CCE of each
    candidate and then the AL's block-test constants (an empty set has no
    bit, and AL 1's constants)."""
    words = -(-cce_count // 64)
    columns = []
    for masks in mask_sets:
        levels = {mask.bit_count() for mask in masks} or {1}
        assert len(levels) == 1, masks
        level = levels.pop()
        bits = 0
        for mask in masks:
            first = (mask & -mask).bit_length() - 1
            assert level in AGGREGATION_LEVELS and first % level == 0, mask
            assert mask == ((1 << level) - 1) << first and mask.bit_length() <= cce_count, mask
            bits |= 1 << first + level - 1
        columns.append([bits >> 64 * w & (2**64 - 1) for w in range(words)]
                       + list(field_constants(level)))
    table = np.array(columns, dtype=np.uint64).reshape(len(mask_sets), words + 3)
    return np.ascontiguousarray(table.T)


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
    cfg = ScenarioConfig(1, coreset, counts, {1: 1.0})
    positions, table = _kernel(cfg)
    words = -(-cce_count // 64)
    assert len(table) == words + 3
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


def reference_al_index(al_distribution, uniforms):
    """The AL index of each uniform by inverse CDF. A uniform above a
    rounded-down probability total goes to the last AL of nonzero
    probability, as in the simulator."""
    last = np.flatnonzero(al_distribution)[-1]
    return np.minimum(np.searchsorted(np.cumsum(al_distribution), uniforms, side="right"),
                      last)


def test_reference_al_index_never_draws_a_zero_probability_al():
    # the total is 0.9999999999, within tolerance of 1
    uniforms = [0.0, 0.3, 0.6, np.nextafter(1.0, 0.0)]
    assert reference_al_index((0.3, 0.3, 0.3999999999, 0, 0), uniforms).tolist() == [0, 1, 2, 2]


def reference_blocked(cfg: ScenarioConfig, iteration: int) -> int:
    """One iteration hashed UE by UE: Y by iteration and the starts of every
    candidate, allocated by ``reference_greedy``."""
    rng = iteration_rng(cfg.master_seed, iteration)
    u = cfg.ue_count
    rntis = rng.integers(1, RNTI_MAX + 1, size=u)
    al_idx = reference_al_index(cfg.al_distribution, rng.random(u))
    cce_count = cfg.coreset.cce_count
    ues = []
    for i in range(u):
        level = AGGREGATION_LEVELS[al_idx[i]]
        m = cfg.candidates_per_al[al_idx[i]]
        if m == 0 or cce_count < level:
            ues.append((level, []))
            continue
        y = y_value(int(rntis[i]))
        ues.append((level, candidate_starts(level, cce_count, m, y)))
    order = reference_order([level for level, _ in ues], cfg.strategy,
                            rng.permutation(u).tolist())
    _, blocked = reference_greedy(ues, order)
    return len(blocked)


counts_per_al = st.tuples(*[st.sampled_from(ALLOWED_CANDIDATE_COUNTS)] * 5).filter(any)
weights = st.tuples(*[st.integers(0, 4)] * 5).filter(any)


@st.composite
def scenarios(draw):
    w = draw(weights)
    return ScenarioConfig(
        ue_count=draw(st.integers(1, 60)),
        coreset=CoresetConfig.from_cce_count(draw(st.integers(1, 200))),
        candidates_per_al=draw(counts_per_al),
        al_distribution=tuple(x / sum(w) for x in w),
        strategy=draw(st.sampled_from(STRATEGIES)),
        iterations=3,
        master_seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_kernel_matches_per_ue_hash(cfg):
    result = run_scenario(cfg, keep_per_iteration=True)
    assert list(result.per_iteration_blocked) == [
        reference_blocked(cfg, it) for it in range(cfg.iterations)]


@pytest.mark.parametrize("cce_count", [97, 54, 200])
def test_kernel_matches_per_ue_hash_at_heavy_load(cce_count):
    # enough UEs and iterations that every AL and most residues occur
    cfg = ScenarioConfig(
        ue_count=60, coreset=CoresetConfig.from_cce_count(cce_count),
        candidates_per_al=(8, 6, 5, 3, 2),
        al_distribution=(0.2,) * 5, iterations=40, master_seed=11)
    result = run_scenario(cfg, keep_per_iteration=True)
    assert list(result.per_iteration_blocked) == [
        reference_blocked(cfg, it) for it in range(cfg.iterations)]


def exact_blocking(cfg: ScenarioConfig) -> float:
    """The exact blocking probability of ``cfg``, for a small U. A UE's state
    is its AL and its residue Y mod floor(C/L), weighted by the AL's
    probability times the share of C-RNTIs 1..65535 with that residue. Every
    ordered U-tuple of states goes through the shared greedy, in the
    strategy's order: the tuple's own order for "unordered", else stably
    sorted by AL. The UEs are i.i.d., so the tuple's order stands for the
    random permutation, and a stable sort keeps equal ALs in it. All the
    tuples run as one block."""
    cce_count = cfg.coreset.cce_count
    ys = np.arange(1, RNTI_MAX + 1, dtype=np.int64) * Y_MULTIPLIER % Y_MODULUS
    states = []  # (AL, probability, candidate masks sorted by start)
    for level, m, p in zip(AGGREGATION_LEVELS, cfg.candidates_per_al, cfg.al_distribution):
        if p == 0:
            continue
        if m == 0 or cce_count < level:
            states.append((level, p, ()))  # no candidate: always blocked
            continue
        weights = np.bincount(ys % (cce_count // level)) / RNTI_MAX
        for r in np.flatnonzero(weights).tolist():
            starts = sorted(candidate_starts(level, cce_count, m, r))
            states.append((level, p * weights[r],
                           tuple(((1 << level) - 1) << start for start in starts)))
    u = cfg.ue_count
    rows, weights = [], []
    for ues in itertools.product(range(len(states)), repeat=u):
        if cfg.strategy != STRATEGY_UNORDERED:
            ues = sorted(ues, key=lambda state: states[state][0],
                         reverse=cfg.strategy == STRATEGY_HIGH_TO_LOW)
        rows.append(ues)
        weights.append(math.prod(states[state][1] for state in ues))
    table = block_table([masks for _, _, masks in states], cce_count)
    scheduled, _ = _greedy_assign(np.array(rows, dtype=np.int64), table)
    blocked = (u - scheduled.sum(axis=1)).tolist()
    return sum(weight * b for weight, b in zip(weights, blocked)) / u


SCENARIO_FILES = [name for name in bundled_scenario_names() if not name.startswith("plan_")]


@pytest.mark.parametrize("name", SCENARIO_FILES)
def test_u2_blocking_matches_exact_oracle(name):
    # the binomial stderr is never narrower than the true spread at U=2
    cfg = replace(parse_scenario(bundled_scenario_path(name)).config,
                  ue_count=2, iterations=20000)
    exact = exact_blocking(cfg)
    result = run_scenario(cfg)
    if exact == 0:
        assert result.blocked_total == 0
    else:
        assert abs(result.blocking_probability - exact) <= 4 * result.stderr


@st.composite
def oracle_scenarios(draw, ue_count, max_cces):
    """A config of ``ue_count`` UEs and 6..``max_cces`` CCEs whose every AL of
    nonzero probability has candidates and fits in the CORESET, so the first
    UE is never blocked."""
    cce_count = draw(st.integers(6, max_cces))
    counts = draw(counts_per_al)
    w = [draw(st.integers(0, 4)) if m and level <= cce_count else 0
         for level, m in zip(AGGREGATION_LEVELS, counts)]
    assume(any(w))
    return ScenarioConfig(
        ue_count=ue_count, coreset=CoresetConfig.from_cce_count(cce_count),
        candidates_per_al=counts,
        al_distribution=tuple(x / sum(w) for x in w),
        strategy=draw(st.sampled_from(STRATEGIES)),
        iterations=5000,
        master_seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(oracle_scenarios(2, 48))
def test_u2_blocking_matches_exact_oracle_on_drawn_configs(cfg):
    exact = exact_blocking(cfg)
    result = run_scenario(cfg)
    if exact == 0:
        assert result.blocked_total == 0
    else:
        assert abs(result.blocking_probability - exact) <= 4 * result.stderr


@settings(max_examples=10, derandomize=True, deadline=None)
@given(oracle_scenarios(3, 24))
def test_u3_blocking_matches_exact_oracle_on_drawn_configs(cfg):
    # a UE's outcome depends on the others' in its iteration, so the stderr
    # is that of the per-iteration blocked count: sd / (U * sqrt(N))
    exact = exact_blocking(cfg)
    result = run_scenario(cfg, keep_per_iteration=True)
    blocked = np.array(result.per_iteration_blocked)
    stderr = blocked.std(ddof=1) / (cfg.ue_count * math.sqrt(cfg.iterations))
    if exact == 0:
        assert result.blocked_total == 0
    else:  # rel_tol: a config may block the same count in every iteration
        assert math.isclose(result.blocking_probability, exact,
                            rel_tol=1e-9, abs_tol=4 * stderr)


# blocked_total of every point of every bundled file at its own seed and 200
# iterations, recorded with the per-UE hash; a plan file runs at its largest
# CORESET
BUNDLED_BLOCKED_TOTALS = {
    "fig10_strategy_u10": [39, 8],
    "fig10_strategy_u40": [1665, 3590],
    "fig4_ue_sweep": [16, 77, 280, 626, 1090, 1666, 2401, 3168, 4067, 4836],
    "fig5_coreset_sweep": [1814, 1338, 1162, 865, 749, 592, 478, 393, 316, 278, 247],
    "fig6_candidates_al1": [1626, 1349, 1248, 1211, 1180, 1180, 1137],
    "fig6_candidates_al2": [1583, 1400, 1325, 1292, 1255, 1238, 1225],
    "fig6_candidates_al4": [1570, 1477, 1439, 1417, 1386, 1381, 1335],
    "fig7_al16_ue_sweep": [0, 66, 178, 319, 478, 651, 1017],
    "fig7_al2_ue_sweep": [0, 0, 8, 88, 369, 671, 931, 1242, 1397, 1549, 1897, 2655, 3611],
    "fig7_al4_ue_sweep": [0, 0, 0, 14, 68, 213, 437, 561, 735, 896, 1070, 1439, 2207],
    "fig7_al8_ue_sweep": [0, 0, 28, 85, 154, 253, 395, 549, 882, 1237],
    "fig8_coverage": [163, 1552, 2956],
    "fig9_bd_reduction": [580, 894, 1601],
    "plan_fig11_u15_target5": [87],
    "plan_fig11_u5_target20": [10],
}


# the label of every sweep point of every bundled scenario file, which is the
# CSV ``point`` column
BUNDLED_LABELS = {
    "fig10_strategy_u10": ["low_to_high", "high_to_low"],
    "fig10_strategy_u40": ["low_to_high", "high_to_low"],
    "fig4_ue_sweep": ["5", "10", "15", "20", "25", "30", "35", "40", "45", "50"],
    "fig5_coreset_sweep": ["24", "30", "36", "42", "48", "54", "60", "66", "72", "78", "84"],
    "fig6_candidates_al1": ["1", "2", "3", "4", "5", "6", "8"],
    "fig6_candidates_al2": ["1", "2", "3", "4", "5", "6", "8"],
    "fig6_candidates_al4": ["1", "2", "3", "4", "5", "6", "8"],
    "fig7_al16_ue_sweep": ["1", "2", "3", "4", "5", "6", "8"],
    "fig7_al2_ue_sweep": ["5", "10", "15", "20", "25", "28", "30", "32", "33", "34", "36",
                          "40", "45"],
    "fig7_al4_ue_sweep": ["2", "4", "6", "8", "10", "12", "14", "15", "16", "17", "18",
                          "20", "24"],
    "fig7_al8_ue_sweep": ["1", "2", "3", "4", "5", "6", "7", "8", "10", "12"],
    "fig8_coverage": ["good", "medium", "extreme"],
    "fig9_bd_reduction": ["reference", "reduced_a", "reduced_b"],
}


def test_every_bundled_file_is_pinned():
    assert sorted(BUNDLED_BLOCKED_TOTALS) == bundled_scenario_names()
    assert sorted(BUNDLED_LABELS) == SCENARIO_FILES


@pytest.mark.parametrize("name", sorted(BUNDLED_BLOCKED_TOTALS))
def test_bundled_blocked_totals_are_unchanged(name):
    path = bundled_scenario_path(name)
    if name.startswith("plan_"):
        cfg = replace(parse_plan_request(path)[1].base, iterations=200)
        got = [run_scenario(cfg).blocked_total]
    else:
        scn = parse_scenario(path)
        cfg = replace(scn.config, iterations=200)
        points = run_sweep(cfg, scn.sweep.axis, scn.sweep.points)
        assert [sp.label for sp in points] == BUNDLED_LABELS[name]
        got = [sp.result.blocked_total for sp in points]
    assert got == BUNDLED_BLOCKED_TOTALS[name]
