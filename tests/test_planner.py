import dataclasses
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcch_blocking import (STRATEGIES, CoresetConfig, PlanningRequest,
                            ScenarioConfig, apply_axis, bundled_scenario_path,
                            parse_plan_request, plan_min_coreset, planner,
                            run_scenario, run_sweep, simulation)
from pdcch_blocking.simulation import draw_ranges

MEDIUM = (0.05, 0.2, 0.5, 0.2, 0.05)


def request(target_blocking=0.2, cce_min=6, cce_max=96, **overrides):
    base = dict(ue_count=6,
                coreset=CoresetConfig.from_cce_count(cce_max),
                al_distribution=MEDIUM,
                candidates_per_al=(6, 6, 4, 2, 1),
                strategy="unordered",
                iterations=1500,
                master_seed=7)
    base.update(overrides)
    return PlanningRequest(base=ScenarioConfig(**base), target_blocking=target_blocking,
                           cce_min=cce_min, cce_max=cce_max)


def test_request_validation():
    with pytest.raises(ValueError):
        request(target_blocking=0.0)
    with pytest.raises(ValueError):
        request(target_blocking=1.0)
    with pytest.raises(ValueError):
        request(cce_min=0)
    with pytest.raises(ValueError):
        request(cce_min=50, cce_max=40)


@pytest.mark.parametrize("base", ["x", None, {"ue_count": 6}])
def test_request_rejects_a_base_that_is_no_scenario(base):
    with pytest.raises(ValueError, match="base must be a ScenarioConfig"):
        dataclasses.replace(request(), base=base)


@pytest.mark.parametrize("field,value", [
    ("cce_min", 6.5), ("cce_max", 200.0), ("cce_min", True), ("cce_max", "200"),
    ("target_blocking", "0.2"), ("target_blocking", True)])
def test_request_rejects_mistyped_fields(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(request(cce_max=200), **{field: value})


def test_request_stores_numpy_integer_bounds_as_int():
    req = request(cce_min=np.int64(6), cce_max=np.int32(96))
    assert (req.cce_min, req.cce_max) == (6, 96)
    assert type(req.cce_min) is int and type(req.cce_max) is int


def test_single_ue_returns_range_floor():
    req = request(ue_count=1, target_blocking=0.5,
                  al_distribution=(1.0, 0, 0, 0, 0), cce_min=2, cce_max=24)
    result = plan_min_coreset(req)
    assert result.min_cces == 2
    assert result.achieved_blocking == 0.0


def test_unreachable_target_returns_none():
    # AL 16 never fits below 16 CCEs, so every UE is always blocked
    req = request(al_distribution=(0, 0, 0, 0, 1.0), candidates_per_al=(0, 0, 0, 0, 1),
                  cce_min=1, cce_max=8, iterations=50)
    result = plan_min_coreset(req)
    assert result.min_cces is None
    assert result.achieved_blocking is None
    assert all(blocking == 1.0 for _, blocking, _ in result.evaluations)
    assert set(result.decisions(req.target_blocking)) == {"misses"}  # no "answer"


def test_blocking_equal_to_the_target_meets_it():
    # AL 16 with one candidate: of 2 UEs, exactly 1 is blocked in every
    # iteration on 16..31 CCEs, so B = 0.5 there, and less from 32 on
    req = request(ue_count=2, al_distribution=(0, 0, 0, 0, 1.0),
                  candidates_per_al=(0, 0, 0, 0, 1), target_blocking=0.5, cce_min=8,
                  cce_max=40, iterations=50)
    assert plan_min_coreset(req).min_cces == 16


def test_result_respects_target_and_boundary():
    req = request()
    result = plan_min_coreset(req)
    assert result.min_cces is not None
    by_cces = {c: b for c, b, _ in result.evaluations}
    assert by_cces[result.min_cces] <= req.target_blocking
    assert result.achieved_blocking == by_cces[result.min_cces]
    if result.min_cces > req.cce_min:
        assert by_cces[result.min_cces - 1] > req.target_blocking
    decided = dict(zip(by_cces, result.decisions(req.target_blocking)))
    assert [c for c, d in decided.items() if d == "answer"] == [result.min_cces]
    assert all(d == "misses" for c, d in decided.items() if c < result.min_cces)
    assert all((d == "misses") == (by_cces[c] > req.target_blocking)
               for c, d in decided.items())


def test_evaluations_reuse_one_seed_per_size():
    result = plan_min_coreset(request())
    sizes = [c for c, _, _ in result.evaluations]
    assert len(sizes) == len(set(sizes))  # memoized, one run per size


def test_min_cces_nonincreasing_in_target():
    sizes = []
    for target in (0.05, 0.1, 0.2, 0.4):
        result = plan_min_coreset(request(target_blocking=target))
        assert result.min_cces is not None
        sizes.append(result.min_cces)
    assert sizes == sorted(sizes, reverse=True)


def test_min_cces_nondecreasing_in_ue_count():
    sizes = []
    for ue_count in (3, 6, 12):
        result = plan_min_coreset(request(ue_count=ue_count))
        assert result.min_cces is not None
        sizes.append(result.min_cces)
    # statistical: tolerate one bisection step of noise
    assert all(b >= a - 1 for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] > sizes[0]


def small_fig11_plan(iterations=200):
    _, req = parse_plan_request(bundled_scenario_path("plan_fig11_u5_target20"))
    return dataclasses.replace(req, base=dataclasses.replace(req.base, iterations=iterations))


# the U=5 plan's fewest iterations that split into two ranges at workers=2
POOLED_PLAN_ITERATIONS = 2 * simulation.MIN_RANGE_UES // 5 + 1


# (min_cces, CCE counts in evaluation order) of each bundled plan at its file
# seed and 1000 iterations. At U=15 the bisection answers 148, the
# confirmation scan meets at 144 among 147..144, and the descent goes on to
# 143, below the scan window.
BUNDLED_PLAN_ORDERS = {
    "plan_fig11_u5_target20": (22, [200, 103, 54, 30, 18, 24, 21, 23, 22, 20, 19]),
    "plan_fig11_u15_target5": (
        144, [200, 103, 152, 128, 140, 146, 149, 148, 147, 145, 144, 143]),
}


@pytest.mark.parametrize("name", BUNDLED_PLAN_ORDERS)
def test_bundled_plan_evaluation_order_is_pinned(name):
    _, req = parse_plan_request(bundled_scenario_path(name))
    result = plan_min_coreset(dataclasses.replace(
        req, base=dataclasses.replace(req.base, iterations=1000)))
    assert (result.min_cces, [p.point for p in result.points]) == BUNDLED_PLAN_ORDERS[name]


def test_evaluations_match_coreset_size_sweep():
    # the planner evaluates each size exactly as a coreset_size sweep point
    req = small_fig11_plan()
    result = plan_min_coreset(req)
    sizes = [c for c, _, _ in result.evaluations]
    points = run_sweep(req.base, "coreset_size", sizes)
    assert [(c, b) for c, b, _ in result.evaluations] == \
        [(int(sp.label), sp.result.blocking_probability) for sp in points]


def test_planning_result_lookup():
    result = plan_min_coreset(request())
    evaluated = {cces: blocking for cces, blocking, _ in result.evaluations}
    assert evaluated[result.min_cces] == result.achieved_blocking
    assert 9999 not in evaluated


def test_plan_shares_one_pool_and_matches_serial(pools):
    req = small_fig11_plan(POOLED_PLAN_ITERATIONS)
    serial = plan_min_coreset(req)
    assert pools == []
    pooled = plan_min_coreset(req, workers=2)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    assert len(pooled.evaluations) > 1
    assert pooled.min_cces == serial.min_cces
    assert pooled.evaluations == serial.evaluations  # order, blocking and stderr


def test_plan_that_raises_still_closes_its_pool(pools, fail_second_run):
    runs = fail_second_run(planner)
    with pytest.raises(RuntimeError, match="stop"):
        plan_min_coreset(small_fig11_plan(POOLED_PLAN_ITERATIONS), workers=2)
    assert len(runs) == 2 and len(pools) == 1
    assert multiprocessing.active_children() == []


def test_plan_too_small_to_split_opens_no_pool(pools):
    # U=5 at 1000 iterations is one range: workers=2 stays in this process
    req = small_fig11_plan(1000)
    assert plan_min_coreset(req, workers=2) == plan_min_coreset(req)
    assert pools == []


def assert_points_equal_fresh_runs(req, workers):
    """Every planner point equals its own run without shared draws, and so
    do the per-iteration counts of each size run on the plan's draws."""
    result = plan_min_coreset(req, workers=workers)
    with draw_ranges(req.base, workers) as draws:
        for sp in result.points:
            cfg = apply_axis(req.base, "coreset_size", sp.point)
            fresh = run_scenario(cfg, workers, keep_per_iteration=True)
            assert sp.result == dataclasses.replace(fresh, per_iteration_blocked=None)
            assert run_scenario(cfg, workers, keep_per_iteration=True, draws=draws) == fresh


@st.composite
def small_plans(draw):
    w = draw(st.tuples(*[st.integers(0, 3)] * 5).filter(any))
    cce_min = draw(st.integers(1, 40))
    return PlanningRequest(
        base=ScenarioConfig(
            ue_count=draw(st.integers(1, 20)),
            coreset=CoresetConfig.from_cce_count(6),
            candidates_per_al=(6, 6, 4, 2, 2),
            al_distribution=tuple(x / sum(w) for x in w),
            strategy=draw(st.sampled_from(STRATEGIES)),
            iterations=draw(st.integers(1, 40)),
            master_seed=draw(st.integers(0, 2**64))),
        target_blocking=draw(st.floats(0.02, 0.6)),
        cce_min=cce_min, cce_max=draw(st.integers(cce_min, cce_min + 40)))


@settings(max_examples=100, deadline=None)
@given(small_plans())
def test_shared_draws_equal_fresh_runs_serial(req):
    assert_points_equal_fresh_runs(req, None)


@settings(max_examples=10, deadline=None)
@given(small_plans())
def test_shared_draws_equal_fresh_runs_pooled(req):
    assert_points_equal_fresh_runs(req, 2)


@pytest.mark.parametrize("workers", [None, 2])
def test_shared_draws_equal_fresh_runs_over_blocks_and_mask_words(workers):
    # several blocks per range, and sizes above 64 CCEs (masks past one word)
    req = request(ue_count=12, strategy="high_to_low", cce_min=40, cce_max=130,
                  target_blocking=0.05, iterations=2 * simulation.STATE_BLOCK + 37)
    assert_points_equal_fresh_runs(req, workers)


def test_plan_draws_once_and_keeps_one_greedy_per_block(monkeypatch):
    calls = {"_state_blocks": 0, "_allocation_order": 0, "_simulate_iteration": 0}

    def counted(name):
        fn = getattr(simulation, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(simulation, name, wrapped)
    for name in calls:
        counted(name)
    req = request(iterations=2 * simulation.STATE_BLOCK + 5)
    result = plan_min_coreset(req)
    assert len(result.points) > 1
    # one range and three blocks drawn for the whole plan, and the greedy
    # runs once per block of every evaluation
    assert calls == {"_state_blocks": 1, "_allocation_order": 3,
                     "_simulate_iteration": 3 * len(result.points)}


def test_planner_holds_no_private_simulation_name():
    # the range split and the pool stay behind draw_ranges
    private = [name for name, value in vars(planner).items() if name.startswith("_")
               and getattr(value, "__module__", None) == simulation.__name__]
    assert private == []
