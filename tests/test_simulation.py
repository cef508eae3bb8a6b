"""The simulation module: config validation, runs, pools and sweeps, and
the names and call shapes the benchmark reads."""

import dataclasses
import multiprocessing

import numpy as np
import pytest
from reference import reference_blocked

from pdcch_blocking import (CoresetConfig, PlanningRequest, ScenarioConfig,
                            SimulationResult, SweepPoint, apply_axis, bundled_scenario_path,
                            parse_scenario, plan_min_coreset,
                            run_scenario, run_sweep, simulation)
from pdcch_blocking.scenario_io import records_for_sweep
from pdcch_blocking import cli, planner
from pdcch_blocking.simulation import (STRATEGIES, STRATEGY_HIGH_TO_LOW,
                                       STRATEGY_UNORDERED)

MIXED = (0.4, 0.3, 0.2, 0.05, 0.05)


def scenario(**overrides):
    base = dict(ue_count=10,
                coreset=CoresetConfig.from_cce_count(54),
                candidates_per_al=(6, 6, 4, 2, 1),
                al_distribution=MIXED,
                iterations=500,
                master_seed=123)
    base.update(overrides)
    return ScenarioConfig(**base)


# iterations at which a scenario() run of 10 UEs splits into 3 ranges, each
# holding at least MIN_RANGE_UES UE-iterations, so that workers=2 and
# workers=3 both pool
SPLIT = 3 * simulation.MIN_RANGE_UES // 10 + 1


# --- distribution and config validation -------------------------------------
# The AL distribution is ScenarioConfig's al_distribution field.

def test_distribution_must_sum_to_one():
    with pytest.raises(ValueError):
        scenario(al_distribution=(0.4, 0.3, 0.2, 0.05, 0.0))
    with pytest.raises(ValueError):
        scenario(al_distribution=(0.5, 0.5, 0.2, -0.1, -0.1))
    scenario(al_distribution=(0.2, 0.2, 0.2, 0.2, 0.2 + 1e-12))  # within tolerance


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_distribution_rejects_non_finite(bad):
    # a NaN passes both "p < 0" and "|sum - 1| > tol" unnoticed
    with pytest.raises(ValueError, match="finite"):
        scenario(al_distribution=(bad, 0.5, 0, 0, 0.5))
    with pytest.raises(ValueError, match="finite"):
        scenario(al_distribution=(0.5, 0, 0, 0, bad))


def test_distribution_fixed_point_mass():
    cfg = scenario(al_distribution=(0, 0, 0, 1.0, 0))
    assert cfg.al_distribution == (0.0, 0.0, 0.0, 1.0, 0.0)


def test_distribution_needs_one_entry_per_al():
    with pytest.raises(ValueError, match="^probabilities needs 5 entries"):
        scenario(al_distribution=(1.0, 0, 0, 0))


def test_distribution_rejects_integer_past_float_range():
    with pytest.raises(ValueError, match="too large for a float"):
        scenario(al_distribution=(1, 0, 0, 0, 10**400))


def test_distribution_accepts_integer_entries():
    cfg = scenario(al_distribution=(0, 0, 1, 0, 0))
    assert cfg.al_distribution == (0.0, 0.0, 1.0, 0.0, 0.0)
    assert all(type(p) is float for p in cfg.al_distribution)


def test_zero_probability_al_is_never_drawn(monkeypatch):
    # within tolerance of 1, so a uniform just below 1 lies above the total;
    # it goes to AL 4, the last AL that has a nonzero probability, not AL 16
    decode = simulation._decode_draws

    def highest_uniforms(*args):
        rntis, uniforms, perm = decode(*args)
        return rntis, np.full_like(uniforms, np.nextafter(1.0, 0.0)), perm
    monkeypatch.setattr(simulation, "_decode_draws", highest_uniforms)
    cfg = scenario(al_distribution=(0.3, 0.3, 0.3999999999, 0, 0), iterations=20)
    [block] = simulation._draw_range((cfg,), 0, cfg.iterations)
    al_idx, _ = block[simulation._draw_key(cfg)]
    assert al_idx.shape == (cfg.iterations, cfg.ue_count)
    assert (al_idx == 2).all()


def _edge_uniforms(cumulative, rng):
    """Every cumulative edge, the doubles on either side of it, 0.0 and the
    largest uniform 1 - 2**-53, then random uniforms, in a shuffled row."""
    cases = [0.0, 1.0 - 2.0**-53]
    for edge in cumulative:
        cases += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    return rng.permutation(np.concatenate([cases, rng.random(40 - len(cases))]))


def _random_mix(seed):
    """A random AL mix, some of whose ALs have probability 0."""
    rng = np.random.default_rng(seed)
    weights = rng.random(5) * (rng.random(5) < 0.6)
    weights[rng.integers(5)] += 0.1
    return tuple((weights / weights.sum()).tolist())


@pytest.mark.parametrize("mix", [
    *map(_random_mix, range(4)), (0.2, 0.2, 0.2, 0.2, 0.2),
    (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1),
    (0.3, 0.3, 0.3999999999, 0, 0)])
def test_al_index_is_searchsorted_on_the_cumulative_mix(monkeypatch, mix):
    # the AL index of a uniform is the number of cumulative edges at or
    # below it, with the edges from the last AL of nonzero probability on
    # taken as infinite, as np.searchsorted(side="right") gives it
    cfg = scenario(ue_count=40, iterations=6, al_distribution=mix,
                   strategy=STRATEGY_UNORDERED)
    cumulative = np.cumsum(cfg.al_distribution)
    rng = np.random.default_rng(41)
    uniforms = np.array([_edge_uniforms(cumulative, rng) for _ in range(cfg.iterations)])
    decode = simulation._decode_draws

    def edge_draws(*args):
        rntis = decode(*args)[0]
        # the identity order, so that row b's UE j is uniforms[b, j]
        return rntis, uniforms, np.tile(np.arange(cfg.ue_count), (cfg.iterations, 1))
    monkeypatch.setattr(simulation, "_decode_draws", edge_draws)
    [block] = simulation._draw_range((cfg,), 0, cfg.iterations)
    al_idx, _ = block[simulation._draw_key(cfg)]
    cumulative[np.flatnonzero(cfg.al_distribution)[-1]:] = np.inf
    assert al_idx.dtype == np.int8
    np.testing.assert_array_equal(
        al_idx, np.searchsorted(cumulative, uniforms, side="right").astype(np.int8))


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        scenario(ue_count=0)
    with pytest.raises(ValueError):
        scenario(iterations=0)
    with pytest.raises(ValueError):
        scenario(strategy="fastest_first")
    with pytest.raises(ValueError):
        scenario(master_seed=-1)


@pytest.mark.parametrize("field,value", [("coreset", 54), ("coreset", None)])
def test_scenario_config_rejects_mistyped_nested_configs(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a "):
        scenario(**{field: value})


def test_iterations_limited_to_one_seed_word():
    assert scenario(iterations=2**32).iterations == 2**32
    with pytest.raises(ValueError, match="32-bit"):
        scenario(iterations=2**32 + 1)


@pytest.mark.parametrize("field,value", [("ue_count", 2.7), ("ue_count", True),
                                         ("ue_count", "3"), ("iterations", 3.0),
                                         ("iterations", True), ("master_seed", 1.9),
                                         ("master_seed", False), ("master_seed", None)])
def test_scenario_config_rejects_non_integers(field, value):
    with pytest.raises(ValueError, match=field):
        scenario(**{field: value})


def test_scenario_config_accepts_numpy_integers():
    cfg = scenario(ue_count=np.int64(7), iterations=np.int32(50),
                   master_seed=np.uint16(9))
    assert (cfg.ue_count, cfg.iterations, cfg.master_seed) == (7, 50, 9)
    assert all(type(v) is int for v in (cfg.ue_count, cfg.iterations, cfg.master_seed))
    assert run_scenario(cfg) == run_scenario(scenario(ue_count=7, iterations=50,
                                                      master_seed=9))


def test_result_counts_and_stderr():
    result = SimulationResult(ue_count=10, iterations=100, master_seed=0, blocked_total=30)
    assert result.blocking_probability == pytest.approx(0.03)
    assert result.blocked_total == 30
    assert result.scheduled_total == 970
    assert result.stderr == pytest.approx((0.03 * 0.97 / 1000) ** 0.5)


# --- run_scenario ------------------------------------------------------------

def test_single_ue_never_blocks():
    result = run_scenario(scenario(ue_count=1, iterations=300))
    assert result.blocking_probability == 0.0
    assert result.blocked_total == 0


def test_analytic_oracle_identical_candidates():
    # AL 16 only, M=1, C=16: every UE hashes to the one 16-CCE block,
    # so exactly U-1 UEs are blocked in every single iteration
    for u in (2, 6):
        cfg = scenario(ue_count=u,
                       coreset=CoresetConfig.from_cce_count(16),
                       candidates_per_al=(0, 0, 0, 0, 1),
                       al_distribution=(0, 0, 0, 0, 1.0),
                       iterations=400)
        result = run_scenario(cfg, keep_per_iteration=True)
        assert set(result.per_iteration_blocked) == {u - 1}
        assert result.blocked_total == (u - 1) * 400


def test_reproducible_and_order_free():
    cfg = scenario(iterations=400)
    serial = run_scenario(cfg, keep_per_iteration=True)
    again = run_scenario(cfg, keep_per_iteration=True)
    assert serial.blocked_total == again.blocked_total
    assert serial.per_iteration_blocked == again.per_iteration_blocked
    parallel = run_scenario(cfg, workers=3, keep_per_iteration=True)
    assert parallel.blocked_total == serial.blocked_total
    assert parallel.per_iteration_blocked == serial.per_iteration_blocked


# The attributes perfbench/spans.py replaces by name (``owner.__dict__``) to
# time each layer; a rename fails only a traced benchmark run.
SPAN_TARGETS = [
    (simulation, "iteration_rng"), (simulation, "_simulate_iteration"),
    (simulation, "run_scenario"), (simulation, "y_value"),
    (simulation, "candidate_starts"), (simulation, "_allocation_order"),
    (simulation, "_greedy_assign"), (simulation, "ProcessPoolExecutor"),
    (planner, "run_scenario"), (planner, "plan_min_coreset"),
    (cli, "main"), (cli, "parse_scenario"), (cli, "parse_plan_request"),
    (cli, "records_for_sweep"), (cli, "emit_results"),
    (CoresetConfig, "from_cce_count"),
]


@pytest.mark.parametrize("owner,attr", SPAN_TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in SPAN_TARGETS])
def test_benchmark_span_targets_exist(owner, attr):
    assert attr in vars(owner)


def test_one_simulate_iteration_call_per_block(monkeypatch):
    # the benchmark's simulation.iteration.calls counts these calls, one per
    # block of iterations; each row of args[0] is one iteration's UEs
    offered, blocked = [], []
    simulate = simulation._simulate_iteration

    def counted(*args):
        result = simulate(*args)
        offered.append(args[0].shape)
        blocked.append(int(result.sum()))
        return result
    monkeypatch.setattr(simulation, "_simulate_iteration", counted)
    cfg = scenario(iterations=simulation.STATE_BLOCK + 5)
    result = run_scenario(cfg, keep_per_iteration=True)
    assert offered == [(simulation.STATE_BLOCK, cfg.ue_count), (5, cfg.ue_count)]
    assert sum(blocked) == sum(result.per_iteration_blocked) == result.blocked_total
    assert len(result.per_iteration_blocked) == cfg.iterations


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_greedy_call_shape_counts_offered_and_scheduled_ues(monkeypatch, strategy):
    # one greedy call per block: args[0] holds the UEs offered, one row per
    # iteration, and result[0] is True for each UE scheduled. The benchmark's
    # scheduler.greedy.scheduled_ratio reads len(args[0]) and len(result[0]),
    # which both count rows.
    offered, scheduled = [], []
    greedy = simulation._greedy_assign

    def counted(*args):
        result = greedy(*args)
        offered.append(args[0].size)
        scheduled.append(int(result[0].sum()))
        return result
    monkeypatch.setattr(simulation, "_greedy_assign", counted)
    cfg = scenario(strategy=strategy, iterations=2 * simulation.STATE_BLOCK + 5)
    result = run_scenario(cfg)
    assert len(offered) == 3
    assert sum(offered) == cfg.ue_count * cfg.iterations
    assert sum(scheduled) == result.scheduled_total
    assert 0 < result.scheduled_total < sum(offered)


@pytest.mark.parametrize("cfg,cce_max", [
    (scenario(iterations=200), 54),  # a size meets the target
    (scenario(iterations=50, candidates_per_al=(0, 0, 0, 0, 1),
              al_distribution=(0, 0, 0, 0, 1.0)), 8)])  # none does
def test_planning_result_shape_for_the_benchmark(cfg, cce_max):
    # perfbench/run.py unpacks evaluations as (cces, blocking, stderr)
    result = plan_min_coreset(PlanningRequest(base=cfg, target_blocking=0.2,
                                              cce_min=1, cce_max=cce_max))
    evaluations = result.evaluations
    assert type(evaluations) is tuple and len(evaluations) == len(result.points) >= 1
    assert all([type(v) for v in e] == [int, float, float] for e in evaluations)
    assert evaluations == tuple((p.point, p.result.blocking_probability, p.result.stderr)
                                for p in result.points)
    met = [p.result.blocking_probability for p in result.points
           if p.point == result.min_cces]
    assert result.achieved_blocking == (met[0] if met else None)
    assert (result.min_cces is None) == (cce_max == 8)


@pytest.mark.parametrize("workers", [None, 2])
def test_simulation_result_shape_for_the_benchmark(workers, pools):
    # perfbench/run.py reads blocked_total, scheduled_total and
    # per_iteration_blocked; a record's seed and iterations are the result's own
    cfg = scenario(ue_count=6, iterations=40, master_seed=11)
    result = run_scenario(cfg, workers=workers, keep_per_iteration=True)
    assert (result.ue_count, result.iterations, result.master_seed) == (6, 40, 11)
    assert result.blocked_total + result.scheduled_total == 6 * 40
    assert type(result.per_iteration_blocked) is tuple
    assert sum(result.per_iteration_blocked) == result.blocked_total
    assert len(result.per_iteration_blocked) == 40
    assert run_scenario(cfg, workers=workers).per_iteration_blocked is None
    [record] = records_for_sweep("s", [SweepPoint(None, "", result)])
    assert (record.seed, record.iterations) == (11, 40)
    assert (record.blocked_total, record.scheduled_total) == (
        result.blocked_total, result.scheduled_total)


def test_unschedulable_al_counts_as_blocked():
    # AL 16 cannot fit into 8 CCEs: those UEs are blocked by definition
    cfg = scenario(ue_count=4,
                   coreset=CoresetConfig.from_cce_count(8),
                   al_distribution=(0, 0, 0, 0, 1.0),
                   iterations=50)
    result = run_scenario(cfg)
    assert result.blocking_probability == 1.0


def test_zero_candidate_al_counts_as_blocked():
    # the sampled AL has no configured candidates: nothing to monitor
    cfg = scenario(ue_count=3,
                   candidates_per_al=(6, 0, 0, 0, 0),
                   al_distribution=(0, 1.0, 0, 0, 0),
                   iterations=50)
    result = run_scenario(cfg)
    assert result.blocking_probability == 1.0


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        run_scenario(scenario(iterations=10), workers=workers)
    with pytest.raises(ValueError, match="workers"):
        run_sweep(scenario(iterations=10), "ue_count", [2, 3], workers=workers)


@pytest.mark.parametrize("workers", [2.5, 2.0, True, "2"])
def test_non_integer_workers_rejected_before_any_pool(workers, pools):
    cfg = scenario(iterations=10)
    with pytest.raises(ValueError, match="workers"):
        run_scenario(cfg, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        run_sweep(cfg, "ue_count", [2, 3], workers=workers)
    req = PlanningRequest(base=cfg, target_blocking=0.2, cce_min=6, cce_max=54)
    with pytest.raises(ValueError, match="workers"):
        plan_min_coreset(req, workers=workers)
    assert pools == []


def test_direct_run_opens_and_closes_its_own_pool(pools):
    cfg = scenario(iterations=SPLIT)
    serial = run_scenario(cfg)
    assert run_scenario(cfg, workers=2) == serial
    assert run_scenario(cfg, workers=np.int64(2)) == serial  # numpy integers accepted
    assert run_scenario(cfg, workers=1) == serial
    assert len(pools) == 2
    assert multiprocessing.active_children() == []


def test_fewer_iterations_than_workers_in_shared_pool(pools, monkeypatch):
    # each of the 3 iterations holds MIN_RANGE_UES UEs, one range's worth;
    # a small split keeps U, and the greedy's walk, short
    monkeypatch.setattr(simulation, "MIN_RANGE_UES", 40)
    cfg = scenario(ue_count=simulation.MIN_RANGE_UES, iterations=3)
    serial = run_scenario(cfg, keep_per_iteration=True)
    with simulation.draw_ranges(cfg, workers=5) as draws:
        shared = run_scenario(cfg, workers=5, keep_per_iteration=True, draws=draws)
        again = run_scenario(cfg, workers=5, keep_per_iteration=True, draws=draws)
    with pytest.raises(RuntimeError):  # the draws' pool closed with the block
        run_scenario(cfg, workers=5, draws=draws)
    own = run_scenario(cfg, workers=5, keep_per_iteration=True)
    assert len(serial.per_iteration_blocked) == 3
    assert shared == again == own == serial
    assert len(pools) == 2


def test_bounds_make_no_empty_range():
    # no more ranges than iterations, however many workers are asked for
    def bounds(iterations, workers):
        cfg = scenario(ue_count=simulation.MIN_RANGE_UES, iterations=iterations)
        return simulation._bounds((cfg,), workers)
    assert bounds(3, 5) == [0, 1, 2, 3]
    assert bounds(1, 2000) == [0, 1]
    assert bounds(10, 4) == [0, 2, 5, 7, 10]


def test_bounds_are_exact_shares_of_the_iterations():
    # with every iteration worth two ranges, a run splits into
    # min(workers, iterations) ranges: never one with no iteration
    for iterations in [*range(1, 130), 1000, 4097, 10**6 + 3, simulation.MAX_ITERATIONS]:
        cfg = scenario(ue_count=2 * simulation.MIN_RANGE_UES, iterations=iterations)
        for workers in range(1, 17):
            bounds = simulation._bounds((cfg,), workers)
            n = min(workers, iterations)
            assert len(bounds) == n + 1
            assert bounds[0] == 0 and bounds[-1] == iterations
            assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
            assert bounds == [i * iterations // n for i in range(n + 1)]


def test_bounds_split_122_iterations_at_an_exact_quotient():
    # 7 * 122 / 14 is 61 exactly; np.linspace, which gave the bounds before,
    # rounded it down to 60
    bounds = simulation._bounds(
        (scenario(ue_count=simulation.MIN_RANGE_UES, iterations=122),), 14)
    assert bounds[7] == 61
    assert bounds == [0, 8, 17, 26, 34, 43, 52, 61, 69, 78, 87, 95, 104, 113, 122]
    # the counts do not depend on the split (C10): the 14 ranges, run in
    # this process, give the serial run's
    cfg = scenario(iterations=122)
    parts = [simulation._run_range((cfg,), lo, hi, True, None)[0]
             for lo, hi in zip(bounds, bounds[1:])]
    serial = run_scenario(cfg, keep_per_iteration=True)
    assert sum(total for total, _ in parts) == serial.blocked_total
    assert tuple(b for _, counts in parts for b in counts) == serial.per_iteration_blocked
    # at two workers, the bundled plans' and benchmark's split, no bound moved
    for iterations in range(1, 3000):
        cfg = scenario(ue_count=simulation.MIN_RANGE_UES, iterations=iterations)
        assert simulation._bounds((cfg,), 2) == np.linspace(
            0, iterations, min(2, iterations) + 1, dtype=int).tolist()


def test_bounds_split_only_runs_worth_a_range_each():
    def ranges(ue_counts, iterations, workers):
        configs = [scenario(ue_count=u, iterations=iterations) for u in ue_counts]
        return len(simulation._bounds(configs, workers)) - 1
    two = 2 * simulation.MIN_RANGE_UES  # UE-iterations for two ranges
    assert ranges([1], two - 1, 8) == 1
    assert ranges([1], two, 8) == 2
    assert ranges([16], two // 16, 8) == 2
    assert ranges([16], two // 16 - 1, 8) == 1
    # never more than the workers
    assert ranges([1], 100 * two, 3) == 3
    assert ranges([1], 100 * two, None) == ranges([1], 100 * two, 1) == 1
    # a sweep's points count together
    assert ranges([4, 4], two // 8, 8) == 2
    assert ranges([4], two // 8, 8) == 1


@pytest.mark.parametrize("iterations", [2 * simulation.MIN_RANGE_UES // 10, SPLIT],
                         ids=["below-split", "above-split"])
def test_results_do_not_depend_on_the_split(iterations, pools):
    # 10 UEs per run, sweep and plan: a few UE-iterations short of two
    # ranges, or 2 and 3 ranges at 2 and 3 workers
    cfg = scenario(iterations=iterations)
    req = PlanningRequest(base=cfg, target_blocking=0.2, cce_min=6, cce_max=54)
    runs = [(run_scenario(cfg, workers=w, keep_per_iteration=True),
             run_sweep(cfg, "ue_count", [4, 6], workers=w),
             plan_min_coreset(req, workers=w)) for w in (None, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    # above the split, a pooled run_scenario, sweep and plan per worker count
    assert len(pools) == (6 if iterations == SPLIT else 0)


def test_pool_opens_at_most_one_process_per_cpu(pools, monkeypatch):
    # every process is forked at the first submit, so more would only wait;
    # the calling process runs a range too, so it counts as one of the CPUs
    cfg = scenario(iterations=SPLIT)
    serial = run_scenario(cfg, keep_per_iteration=True)
    for cpus in (2, 1):
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
        assert run_scenario(cfg, workers=5, keep_per_iteration=True) == serial
    assert [pool._max_workers for pool in pools] == [1, 1]


def test_worker_failure_still_closes_the_pool(pools, monkeypatch):
    def broken_kernel(cfg):
        raise RuntimeError("kernel failed")
    # the workers are forked after this patch, so they run it too
    monkeypatch.setattr(simulation, "_kernel", broken_kernel)
    with pytest.raises(RuntimeError, match="kernel failed"):
        run_scenario(scenario(iterations=SPLIT), workers=2)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


# --- sweeps ------------------------------------------------------------------

def test_sweep_coreset_axis_builds_geometry():
    cfg = apply_axis(scenario(), "coreset_size", 30)
    assert cfg.coreset == CoresetConfig(30)


def test_sweep_candidate_counts_axis_full_list():
    cfg = apply_axis(scenario(), "candidate_counts",
                     {"name": "reduced", "counts": [1, 1, 1, 1, 1]})
    assert cfg.candidates_per_al == (1, 1, 1, 1, 1)


def test_sweep_al_fixed_axis():
    # a point-mass al_distribution point fixes the AL; there is no al_fixed axis
    cfg = apply_axis(scenario(), "al_distribution",
                     {"name": "al4", "probabilities": [0, 0, 1, 0, 0]})
    assert cfg.al_distribution == (0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="axis"):
        apply_axis(scenario(), "al_fixed", 4)


def test_sweep_al_distribution_axis():
    cfg = apply_axis(scenario(), "al_distribution",
                     {"name": "good", "probabilities": [0.5, 0.4, 0.07, 0.02, 0.01]})
    assert cfg.al_distribution[0] == 0.5


def test_sweep_strategy_axis():
    cfg = apply_axis(scenario(), "strategy", STRATEGY_HIGH_TO_LOW)
    assert cfg.strategy == STRATEGY_HIGH_TO_LOW


@pytest.mark.parametrize("axis,point", [("ue_count", 2.7), ("ue_count", True),
                                        ("ue_count", "3"), ("coreset_size", 54.0),
                                        ("strategy", 1)])
def test_apply_axis_rejects_mistyped_points(axis, point):
    with pytest.raises(ValueError):
        apply_axis(scenario(), axis, point)


def test_sweep_rejects_invalid_point_before_any_run(runs):
    with pytest.raises(ValueError, match="^sweep point 0: .*cce_count"):
        run_sweep(scenario(iterations=100), "coreset_size", [6, 0, 12])
    assert runs == []


def test_sweep_rejects_integer_past_float_range_before_any_run(runs):
    with pytest.raises(ValueError, match="^sweep point huge: .*too large for a float"):
        run_sweep(scenario(iterations=100), "al_distribution",
                  [{"name": "al1", "probabilities": [1, 0, 0, 0, 0]},
                   {"name": "huge", "probabilities": [1, 0, 0, 0, 10**400]}])
    assert runs == []


@pytest.mark.parametrize("axis,point,label", [
    ("al_distribution", {"name": "x", "probabilities": [1, 0, 0, 0, 0], "w": 1}, "x"),
    pytest.param("al_distribution", {"probabilities": [1, 0, 0, 0, 0], "w": 1},
                 "{'probabilities': [1, 0, 0, 0, 0], 'w': 1}",
                 id="al_distribution-point1-unnamed_dict"),
    ("candidate_counts", {"count": [1, 1, 1, 1, 1]}, "{'count': [1, 1, 1, 1, 1]}"),
    ("candidate_counts", 6, "6"),
    ("candidate_counts", [1, 1, 1, 1, 1], "[1, 1, 1, 1, 1]"),
    ("candidate_counts", {"name": "x", "counts": 6}, "x"),
])
def test_sweep_reports_malformed_list_point(axis, point, label, runs):
    # the label is made before the point is checked: it must not raise
    with pytest.raises(ValueError) as info:
        run_sweep(scenario(iterations=10), axis, [point])
    assert str(info.value).startswith(f"sweep point {label}: point must")
    assert runs == []


@pytest.mark.parametrize("axis,points,repeated", [
    ("ue_count", [2, 4, 2], "['2']"),
    ("al_distribution", [{"name": "a", "probabilities": [1, 0, 0, 0, 0]},
                         {"name": "a", "probabilities": [0, 1, 0, 0, 0]}], "['a']"),
])
def test_sweep_rejects_repeated_labels_before_any_run(axis, points, repeated, runs):
    # the CSV point column could not tell the rows apart
    with pytest.raises(ValueError, match="distinct") as info:
        run_sweep(scenario(iterations=10), axis, points)
    assert str(info.value).endswith(repeated)
    assert runs == []


def test_sweep_rejects_unknown_axis_and_empty_points():
    # the axis is checked before any point is applied, so no point is blamed
    for axis in ("bandwidth", ["ue_count"]):
        with pytest.raises(ValueError, match="^sweep axis must be one of"):
            run_sweep(scenario(), axis, [1])
        with pytest.raises(ValueError, match="^sweep axis must be one of"):
            apply_axis(scenario(), axis, 1)
    with pytest.raises(ValueError):
        run_sweep(scenario(), "ue_count", [])


def test_sweep_reads_one_shot_points_once():
    cfg = scenario(iterations=100)
    points = run_sweep(cfg, "ue_count", (n for n in [2, 3]))
    assert [sp.point for sp in points] == [2, 3]
    assert points == run_sweep(cfg, "ue_count", [2, 3])


def test_sweep_shares_one_pool_and_matches_serial(pools):
    sweep = parse_scenario(bundled_scenario_path("fig5_coreset_sweep"))
    points = list(sweep.sweep.points)
    # the fewest iterations at which its points of 20 UEs split into two ranges
    iterations = 2 * simulation.MIN_RANGE_UES // (20 * len(points)) + 1
    base = dataclasses.replace(sweep.config, iterations=iterations)
    assert base.ue_count == 20
    serial = run_sweep(base, "coreset_size", points)
    assert pools == []
    # an invalid CORESET size is found before the pool opens
    with pytest.raises(ValueError, match="^sweep point 0: "):
        run_sweep(base, "coreset_size", points[:2] + [0], workers=2)
    assert pools == []
    pooled = run_sweep(base, "coreset_size", points, workers=2)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    assert pooled == serial


RUN_RANGE = simulation._run_range


def _range_that_fails_after_the_first(configs, start, *args):
    # module level, so that the pool can pickle it by name
    if start > 0:
        raise RuntimeError("stop")
    return RUN_RANGE(configs, start, *args)


def test_sweep_that_raises_still_closes_its_pool(pools, monkeypatch):
    # the workers are forked after this patch, so they run it too
    monkeypatch.setattr(simulation, "_run_range", _range_that_fails_after_the_first)
    with pytest.raises(RuntimeError, match="stop"):
        run_sweep(scenario(iterations=SPLIT), "ue_count", [2, 4, 6], workers=2)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


# the starts of the ranges that ran in this process; a pool's forked workers
# append to their own copies, which are lost with them
RANGE_STARTS = []
DRAW_RANGE = simulation._draw_range


def _recorded_run_range(configs, start, *args):
    RANGE_STARTS.append(("run", start))
    return RUN_RANGE(configs, start, *args)


def _recorded_draw_range(configs, start, stop):
    RANGE_STARTS.append(("draw", start))
    return DRAW_RANGE(configs, start, stop)


def _first_range_fails(configs, start, *args):
    if start == 0:
        raise RuntimeError("range 0 failed")
    return RUN_RANGE(configs, start, *args)


def test_calling_process_runs_range_zero_of_every_pooled_map(pools, monkeypatch, request):
    monkeypatch.setattr(simulation, "_run_range", _recorded_run_range)
    monkeypatch.setattr(simulation, "_draw_range", _recorded_draw_range)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 2)
    starts = RANGE_STARTS
    starts.clear()
    request.addfinalizer(starts.clear)
    cfg = scenario(iterations=SPLIT)
    serial = run_scenario(cfg)
    assert starts == [("run", 0)]
    for workers in (2, 3):
        starts.clear()
        assert run_scenario(cfg, workers=workers) == serial
        assert starts == [("run", 0)]
        starts.clear()
        assert (run_sweep(cfg, "ue_count", [4, 10], workers=workers)
                == run_sweep(cfg, "ue_count", [4, 10]))
        assert starts == [("run", 0)] * 2  # the pooled sweep, then the serial one
        starts.clear()
        with simulation.draw_ranges(cfg, workers=workers) as draws:
            assert starts == [("draw", 0)]
            assert run_scenario(cfg, workers=workers, draws=draws) == serial
        starts.clear()
        req = PlanningRequest(base=cfg, target_blocking=0.2, cce_min=6, cce_max=54)
        plan = plan_min_coreset(req, workers=workers)
        assert plan == plan_min_coreset(req)
        # the pooled plan's draws and evaluations, then the serial plan's
        assert starts == 2 * ([("draw", 0)] + [("run", 0)] * len(plan.points))
    assert len(pools) == 8  # per worker count: run, sweep, draws and their run, plan
    assert all(pool._max_workers == 1 for pool in pools)


def test_failure_in_range_zero_propagates_and_closes_the_pool(pools, monkeypatch):
    # range 0 runs in the calling process, while the pool works the others
    monkeypatch.setattr(simulation, "_run_range", _first_range_fails)
    cfg = scenario(iterations=SPLIT)
    with pytest.raises(RuntimeError, match="range 0 failed"):
        run_scenario(cfg, workers=3)
    req = PlanningRequest(base=cfg, target_blocking=0.2, cce_min=6, cce_max=54)
    with pytest.raises(RuntimeError, match="range 0 failed"):
        plan_min_coreset(req, workers=2)
    assert len(pools) == 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("change,workers", [
    ({"master_seed": 124}, 2), ({"ue_count": 11}, 2),
    ({"al_distribution": (0, 0, 1.0, 0, 0)}, 2), ({"strategy": STRATEGY_HIGH_TO_LOW}, 2),
    ({"al_distribution": (0.3, 0.4, 0.2, 0.05, 0.05)}, 2),  # MIXED's levels
    ({"iterations": SPLIT + 1}, 2), ({}, 3), ({}, None)])
def test_draws_made_for_another_run_are_rejected(change, workers, pools):
    # at SPLIT iterations, 2 and 3 workers give 2 and 3 ranges
    cfg = scenario(iterations=SPLIT)
    with simulation.draw_ranges(cfg, workers=2) as draws:
        assert len(pools) == 1
        with pytest.raises(ValueError, match="draws were made for"):
            run_scenario(dataclasses.replace(cfg, **change), workers=workers, draws=draws)
    assert len(pools) == 1  # rejected before a pool opens
    assert multiprocessing.active_children() == []


def test_draws_are_shared_across_coreset_and_candidate_counts():
    cfg = scenario(iterations=40, strategy=STRATEGY_HIGH_TO_LOW)
    with simulation.draw_ranges(cfg) as draws:
        for other in (apply_axis(cfg, "coreset_size", 100),
                      apply_axis(cfg, "candidate_counts", {"name": "x", "counts": [1, 2, 0, 1, 1]})):
            assert run_scenario(other, keep_per_iteration=True, draws=draws) == \
                run_scenario(other, keep_per_iteration=True)


SWEEP_POINTS = {
    "ue_count": [1, 4, 9, 14],
    "coreset_size": [6, 17, 54],
    "candidate_counts": [{"name": "full", "counts": [6, 6, 4, 2, 1]},
                         {"name": "sparse", "counts": [1, 2, 0, 1, 1]}],
    "al_distribution": [{"name": "mixed", "probabilities": list(MIXED)},
                        {"name": "al16", "probabilities": [0, 0, 0, 0, 1]}],
    "strategy": list(STRATEGIES),
}


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("axis", sorted(SWEEP_POINTS))
def test_sweep_equals_one_run_per_point(axis, workers, pools):
    # the points of a sweep share draws and tables, one run has its own
    base = scenario(iterations=70, master_seed=5)
    points = SWEEP_POINTS[axis]
    assert [sp.result for sp in run_sweep(base, axis, points, workers=workers)] == [
        run_scenario(apply_axis(base, axis, point), workers=workers) for point in points]


def test_sweep_points_match_the_reference_model():
    base = scenario(iterations=30, master_seed=77)
    for sp in run_sweep(base, "ue_count", SWEEP_POINTS["ue_count"]):
        cfg = apply_axis(base, "ue_count", sp.point)
        assert sp.result.blocked_total == sum(reference_blocked(cfg, it) for it in range(30))


@pytest.mark.parametrize("axis", ["ue_count", "strategy"])
def test_sweep_keeps_the_span_contract(monkeypatch, axis):
    # the benchmark's span counts: one _simulate_iteration and one greedy
    # call per block and point, and the greedy's args[0].size and
    # result[0].sum() as the UEs offered and scheduled
    calls, offered, scheduled = [], [], []
    simulate, greedy = simulation._simulate_iteration, simulation._greedy_assign

    def counted_iteration(*args):
        calls.append(1)
        return simulate(*args)

    def counted_greedy(*args):
        result = greedy(*args)
        offered.append(args[0].size)
        scheduled.append(int(result[0].sum()))
        return result
    monkeypatch.setattr(simulation, "_simulate_iteration", counted_iteration)
    monkeypatch.setattr(simulation, "_greedy_assign", counted_greedy)
    cfg = scenario(iterations=simulation.STATE_BLOCK + 5)
    sweep = run_sweep(cfg, axis, SWEEP_POINTS[axis])
    assert len(calls) == len(offered) == 2 * len(sweep)
    assert sum(offered) == sum(sp.result.ue_count for sp in sweep) * cfg.iterations
    assert sum(scheduled) == sum(sp.result.scheduled_total for sp in sweep)


@pytest.mark.parametrize("axis", ["coreset_size", "candidate_counts"])
def test_sweep_orders_each_block_once_for_all_points(monkeypatch, axis):
    # the points differ only in the C-dependent half, so they share one
    # processing order per block
    calls = []
    order = simulation._allocation_order

    def counted(*args):
        calls.append(1)
        return order(*args)
    monkeypatch.setattr(simulation, "_allocation_order", counted)
    cfg = scenario(iterations=2 * simulation.STATE_BLOCK + 5, strategy=STRATEGY_HIGH_TO_LOW)
    assert len(run_sweep(cfg, axis, SWEEP_POINTS[axis])) > 1
    assert len(calls) == 3


def test_ue_count_sweep_builds_its_tables_once(monkeypatch):
    built = []
    kernel = simulation._kernel

    def recorded(cfg):
        built.append(cfg.ue_count)
        return kernel(cfg)
    monkeypatch.setattr(simulation, "_kernel", recorded)
    run_sweep(scenario(iterations=2 * simulation.STATE_BLOCK + 5), "ue_count",
              SWEEP_POINTS["ue_count"])
    assert len(built) == 1
