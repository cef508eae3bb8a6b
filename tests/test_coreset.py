import numpy as np
import pytest

from pdcch_blocking import (AGGREGATION_LEVELS, CoresetConfig, PlanningRequest,
                            ScenarioConfig, run_scenario)


@pytest.mark.parametrize("cce_count", [9.0, 9.5, True, "54"])
def test_from_cce_count_rejects_non_integers(cce_count):
    with pytest.raises(ValueError, match="integer"):
        CoresetConfig.from_cce_count(cce_count)


def test_numpy_integer_geometry_stored_as_int():
    for cfg in (CoresetConfig(np.int64(54)), CoresetConfig.from_cce_count(np.int32(54))):
        assert cfg == CoresetConfig(54)
        assert type(cfg.cce_count) is int


def test_from_cce_count_synthesizes_one_symbol_coreset():
    # 54 CCEs stand for any geometry of that size, e.g. 324 RBs x 1 symbol.
    cfg = CoresetConfig.from_cce_count(54)
    assert cfg == CoresetConfig(cce_count=54)
    assert cfg.cce_count == 54


def test_from_cce_count_rejects_nonpositive():
    with pytest.raises(ValueError, match="cce_count must be >= 1"):
        CoresetConfig.from_cce_count(0)


def test_configs_are_immutable():
    cfg = CoresetConfig(54)
    with pytest.raises(AttributeError):
        cfg.cce_count = 60


def _with_defaults(build, **defaults):
    return lambda **fields: build(**(defaults | fields))


_BASE = dict(ue_count=2, coreset=CoresetConfig.from_cce_count(16),
             candidates_per_al=(0, 0, 0, 0, 1), al_distribution=(0, 0, 0, 0, 1.0), iterations=10)

# Every integer field checked by coreset.as_integer(name, value, minimum), as
# (constructor with the other arguments filled in, field, minimum).
INTEGER_MINIMUMS = {
    "CoresetConfig.cce_count": (CoresetConfig, "cce_count", 1),
    "ScenarioConfig.ue_count": (_with_defaults(ScenarioConfig, **_BASE), "ue_count", 1),
    "ScenarioConfig.iterations": (_with_defaults(ScenarioConfig, **_BASE), "iterations", 1),
    "ScenarioConfig.master_seed": (_with_defaults(ScenarioConfig, **_BASE), "master_seed", 0),
    "PlanningRequest.cce_min": (
        _with_defaults(PlanningRequest, base=ScenarioConfig(**_BASE), target_blocking=0.1,
                       cce_min=6, cce_max=20), "cce_min", 1),
    "PlanningRequest.cce_max": (
        _with_defaults(PlanningRequest, base=ScenarioConfig(**_BASE), target_blocking=0.1,
                       cce_min=6, cce_max=20), "cce_max", 6),
    "run_scenario.workers": (
        _with_defaults(run_scenario, cfg=ScenarioConfig(**_BASE)), "workers", 1),
}


@pytest.mark.parametrize("build,field,minimum", list(INTEGER_MINIMUMS.values()),
                         ids=list(INTEGER_MINIMUMS))
def test_integer_fields_enforce_their_minimum(build, field, minimum):
    build(**{field: minimum})
    with pytest.raises(ValueError, match=rf"^{field} must be >= {minimum}, got {minimum - 1}$"):
        build(**{field: minimum - 1})


_COUNTS, _MIX = (6, 6, 4, 2, 1), (0.4, 0.3, 0.2, 0.05, 0.05)

# Per-AL field values that are not a list or tuple of five integers
# (candidates_per_al) or numbers (al_distribution): bools, strings, None,
# scalars and the other containers, the {AL: value} mapping form included
PER_AL_REJECTED = [
    *(("candidates_per_al", counts) for counts in [
        (6.7, 6, 4, 2, 1), (6.0, 6, 4, 2, 1), (True, 6, 4, 2, 1), ("6", 6, 4, 2, 1), None, 6,
        dict(zip(AGGREGATION_LEVELS, _COUNTS)), {6, 4, 2, 1, 0}, "66421",
        (m for m in _COUNTS), np.array(_COUNTS)]),
    *(("al_distribution", probs) for probs in [
        (True, 0, 0, 0, 0), ("1", 0, 0, 0, 0), (None, 1, 0, 0, 0), 5, None,
        dict(zip(AGGREGATION_LEVELS, _MIX)), {0.1, 0.2, 0.3, 0.15, 0.25}, "10000",
        (p for p in _MIX), np.array(_MIX)]),
]


@pytest.mark.parametrize("field,value", PER_AL_REJECTED)
def test_per_al_fields_reject_all_but_five_numbers(field, value):
    message = {"candidates_per_al": "^candidates_per_al must be integers",
               "al_distribution": "^probabilities must be numbers"}[field]
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**_BASE | {field: value})
