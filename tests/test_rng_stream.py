"""The per-range stream derivation against ``iteration_rng``, the reference
v1 stream ``default_rng([master_seed, iteration])``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import reference_blocked

from pdcch_blocking import (STRATEGIES, AlDistribution, CoresetConfig,
                            ScenarioConfig, SearchSpaceConfig, iteration_rng)
from pdcch_blocking import simulation
from pdcch_blocking.simulation import STATE_BLOCK, _iteration_states, _run_range

LAST_ITERATION = 2**32 - 1

# v1 RNG stream contract: the PCG64 state of iteration_rng(seed, iteration),
# recorded with numpy 2.4.6. If numpy changes SeedSequence or PCG64 seeding,
# every estimate moves and these pins fail first.
PINNED_STATES = {
    (0, 0): {"state": 35399562948360463058890781895381311971,
             "inc": 87136372517582989555478159403783844777},
    (42, 9999): {"state": 311132179074422863105351305342036443068,
                 "inc": 163845337583177703076364544506893024375},
}


def scenario(**overrides):
    base = dict(ue_count=9, coreset=CoresetConfig.from_cce_count(30),
                search_space=SearchSpaceConfig((6, 6, 4, 2, 1)),
                al_distribution=AlDistribution((0.3, 0.3, 0.2, 0.1, 0.1)),
                iterations=10, master_seed=0)
    base.update(overrides)
    return ScenarioConfig(**base)


def reference_states(master_seed, start, stop):
    return [iteration_rng(master_seed, it).bit_generator.state["state"]
            for it in range(start, stop)]


def derived_states(master_seed, start, stop):
    return [{"state": s, "inc": inc}
            for s, inc in _iteration_states(master_seed, start, stop)]


def states_set_by_run_range(cfg, start, stop):
    """The full bit-generator state each iteration of ``_run_range`` starts
    from."""
    seen = []
    simulate = simulation._simulate_iteration

    def record(cfg, kernel, rng):
        seen.append(rng.bit_generator.state)
        return simulate(cfg, kernel, rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_simulate_iteration", record)
        _run_range(cfg, start, stop, False)
    return seen


@pytest.mark.parametrize("key", sorted(PINNED_STATES))
def test_v1_stream_states_are_pinned(key):
    message = (f"v1 RNG stream contract broken at (master_seed, iteration) = {key}: "
               f"numpy {np.__version__} seeds default_rng([seed, it]) differently "
               "from numpy 2.4.6, so every estimate and pinned count moves")
    assert iteration_rng(*key).bit_generator.state["state"] == PINNED_STATES[key], message
    seed, it = key
    assert derived_states(seed, it, it + 1) == [PINNED_STATES[key]], message


@settings(max_examples=200, deadline=None)
@given(master_seed=st.integers(0, 2**200), start=st.integers(0, LAST_ITERATION),
       length=st.integers(1, 12))
def test_run_range_sets_each_iterations_reference_state(master_seed, start, length):
    stop = min(start + length, LAST_ITERATION + 1)
    got = states_set_by_run_range(scenario(master_seed=master_seed), start, stop)
    assert got == [iteration_rng(master_seed, it).bit_generator.state
                   for it in range(start, stop)]


@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 9])
@pytest.mark.parametrize("stop", [STATE_BLOCK - 1, STATE_BLOCK, STATE_BLOCK + 1,
                                  4 * STATE_BLOCK + 1])
def test_states_at_block_edges(master_seed, stop):
    got = derived_states(master_seed, 0, stop)
    assert len(got) == stop
    edge = max(0, stop - 3)
    assert got[edge:] == reference_states(master_seed, edge, stop)
    assert got[:2] == reference_states(master_seed, 0, 2)


@pytest.mark.parametrize("master_seed", [0, 7, 2**96 + 5, 2**200 + 9])
def test_states_up_to_the_last_iteration_index(master_seed):
    start = LAST_ITERATION + 1 - (STATE_BLOCK + 2)
    got = derived_states(master_seed, start, LAST_ITERATION + 1)
    assert got == reference_states(master_seed, start, LAST_ITERATION + 1)
    assert derived_states(master_seed, LAST_ITERATION, LAST_ITERATION + 1) == \
        reference_states(master_seed, LAST_ITERATION, LAST_ITERATION + 1)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_range_not_starting_at_zero_matches_reference(strategy):
    cfg = scenario(ue_count=14, strategy=strategy, master_seed=2024)
    _, per_iter = _run_range(cfg, 777, 817, True)
    assert per_iter == [reference_blocked(cfg, it) for it in range(777, 817)]
