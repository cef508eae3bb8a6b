"""The kernel at its boundary, ``run_scenario``, against the reference model
in ``reference.py``; exact blocking oracles for small and unordered configs;
and the blocked counts of every bundled study pinned bit for bit."""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (block_table, reference_al_index, reference_blocked, reference_start,
                       reference_y)

from pdcch_blocking import (ALLOWED_CANDIDATE_COUNTS, AGGREGATION_LEVELS,
                            STRATEGIES, CoresetConfig, ScenarioConfig, apply_axis,
                            bundled_scenario_names, bundled_scenario_path,
                            parse_plan_request, parse_scenario, run_scenario, run_sweep)
from pdcch_blocking.simulation import (STRATEGY_HIGH_TO_LOW, STRATEGY_UNORDERED,
                                       _greedy_assign)


def test_reference_al_index_never_draws_a_zero_probability_al():
    # the total is 0.9999999999, within tolerance of 1
    uniforms = [0.0, 0.3, 0.6, np.nextafter(1.0, 0.0)]
    assert reference_al_index((0.3, 0.3, 0.3999999999, 0, 0), uniforms).tolist() == [0, 1, 2, 2]


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
# long walks, most of their UEs blocked: U = 65 at C = 48, where the AL-8
# and AL-16 UEs fill every row early, U = 129 at C = 54, where rows of
# mixed ALs fill at different positions, and U = 100 at C = 150, rows of
# three mask words
@example(ScenarioConfig(65, CoresetConfig(48), (0, 0, 0, 1, 1),
                        (0, 0, 0, 0.5, 0.5), STRATEGY_UNORDERED, 3, 0))
@example(ScenarioConfig(129, CoresetConfig(54), (6, 6, 4, 2, 1),
                        (0.2,) * 5, STRATEGY_UNORDERED, 20, 0))
@example(ScenarioConfig(100, CoresetConfig(150), (6, 6, 4, 2, 1),
                        (0.2,) * 5, STRATEGY_UNORDERED, 5, 0))
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
    tuples run as one block. The Ys and candidate starts come from
    ``reference.py``, so a fault in the package's hash moves only the
    simulated side."""
    cce_count = cfg.coreset.cce_count
    ys = reference_y(np.arange(1, 65536, dtype=np.int64))
    states = []  # (AL, probability, candidate masks sorted by start)
    for level, m, p in zip(AGGREGATION_LEVELS, cfg.candidates_per_al, cfg.al_distribution):
        if p == 0:
            continue
        if m == 0 or cce_count < level:
            states.append((level, p, ()))  # no candidate: always blocked
            continue
        weights = np.bincount(ys % (cce_count // level)) / 65535
        for r in np.flatnonzero(weights).tolist():
            starts = sorted(reference_start(level, k, cce_count, m, r) for k in range(m))
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
    # These ids check the AL draw and the greedy at U=2. They cannot see a
    # wrong hash offset or Y multiplier: at U=2 a bundled file's exact
    # blocking does not move under the one, and moves by under 0.001 of the
    # stderr under the other, since Y = K * rnti mod 65537 takes the C-RNTIs
    # onto all Ys but one for any K; the per-UE tests of the hash see both.
    # The binomial stderr is never narrower than the true spread at U=2.
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


@functools.cache
def dp_blocked_by_position(cfg: ScenarioConfig) -> tuple:
    """The exact probability that an "unordered" ``cfg``'s UE at processing
    position i = 0..U-1 is blocked, written from TS 38.213 alone. In
    processing order each UE's AL and Y are independent of the UEs before
    it, so the used-CCE mask after i UEs is a Markov chain that does not
    depend on U: a dict from mask to probability, and a smaller U's
    positions are a prefix. A step takes each (AL, residue r = Y mod
    floor(C/L)) with weight p_AL * q(r), where q is the share of C-RNTIs
    1..65535 whose Y = rnti * 39827 mod 65537 has residue r, and the UE
    takes its free candidate with the lowest first CCE or is blocked."""
    assert cfg.strategy == STRATEGY_UNORDERED
    cce_count = cfg.coreset.cce_count
    ys = np.arange(1, 65536, dtype=np.int64) * 39827 % 65537
    moves = []  # (weight, candidate masks by first CCE); none: always blocked
    for level, m, p in zip(AGGREGATION_LEVELS, cfg.candidates_per_al, cfg.al_distribution):
        positions = cce_count // level
        if p and (m == 0 or positions == 0):
            moves.append((p, ()))
        elif p:
            q = np.bincount(ys % positions, minlength=positions) / 65535
            for r in np.flatnonzero(q).tolist():
                starts = {level * ((r + k * cce_count // (level * m)) % positions)
                          for k in range(m)}
                moves.append((p * q[r], tuple(((1 << level) - 1) << s for s in sorted(starts))))
    states, blocked = {0: 1.0}, []
    for i in range(cfg.ue_count):
        after, blocked_here = {}, 0.0
        for used, prob in states.items():
            for weight, masks in moves:
                taken = next((mask for mask in masks if not used & mask), 0)
                if not taken:
                    blocked_here += prob * weight
                if i < cfg.ue_count - 1:  # the last step needs no new states
                    after[used | taken] = after.get(used | taken, 0.0) + prob * weight
        states = after
        blocked.append(blocked_here)
    return tuple(blocked)


def dp_blocking(cfg: ScenarioConfig, chain: ScenarioConfig = None) -> float:
    """The exact blocking probability of an "unordered" ``cfg``: the mean of
    its positions' blocked probabilities, read from the chain of ``chain``,
    ``cfg`` at a U at least as large, or else of ``cfg`` itself."""
    return sum(dp_blocked_by_position(chain or cfg)[:cfg.ue_count]) / cfg.ue_count


def dp_cases():
    """Every point of the fig7 AL4, AL8 and AL16 sweeps, each sweep on one
    chain at its largest U, and the U=5 plan's decisive sizes 20..24 CCEs,
    at their file seeds and iterations."""
    for name in ("fig7_al4_ue_sweep", "fig7_al8_ue_sweep", "fig7_al16_ue_sweep"):
        scn = parse_scenario(bundled_scenario_path(name))
        chain = apply_axis(scn.config, scn.sweep.axis, max(scn.sweep.points))
        for point in scn.sweep.points:
            yield pytest.param(apply_axis(scn.config, scn.sweep.axis, point), chain,
                               id=f"{name}-{point}")
    _, req = parse_plan_request(bundled_scenario_path("plan_fig11_u5_target20"))
    for cce_count in range(20, 25):
        cfg = apply_axis(req.base, "coreset_size", cce_count)
        yield pytest.param(cfg, cfg, id=f"plan_fig11_u5_target20-{cce_count}")


@pytest.mark.parametrize("cfg,chain", dp_cases())
def test_unordered_blocking_matches_exact_dp(cfg, chain):
    # the stderr of the per-iteration blocked count, sd / (U * sqrt(N))
    exact = dp_blocking(cfg, chain)
    result = run_scenario(cfg, keep_per_iteration=True)
    blocked = np.array(result.per_iteration_blocked)
    stderr = blocked.std(ddof=1) / (cfg.ue_count * math.sqrt(cfg.iterations))
    if exact == 0:
        assert result.blocked_total == 0
    else:
        assert abs(result.blocking_probability - exact) <= 4 * stderr


def test_exact_dp_answers_the_u5_plan():
    # exactly, 22 CCEs is the smallest size at or below the 20% target
    _, req = parse_plan_request(bundled_scenario_path("plan_fig11_u5_target20"))
    exact = [dp_blocking(apply_axis(req.base, "coreset_size", c)) for c in range(20, 25)]
    assert exact == pytest.approx([0.201129, 0.200455, 0.195487, 0.194988, 0.131683],
                                  abs=1e-6)
    assert [b <= req.target_blocking for b in exact] == [False, False, True, True, True]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(oracle_scenarios(2, 48))
def test_exact_dp_matches_enumeration_on_drawn_configs(cfg):
    cfg = replace(cfg, strategy=STRATEGY_UNORDERED)
    assert dp_blocking(cfg) == pytest.approx(exact_blocking(cfg), rel=1e-12, abs=1e-15)


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
