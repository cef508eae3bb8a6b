import numpy as np
import pytest

from pdcch_blocking import (AlDistribution, CoresetConfig, MonitoringLimits,
                            PlanningRequest, ScenarioConfig, SearchSpaceConfig,
                            run_scenario)


@pytest.mark.parametrize("rb_count,symbols,expected", [
    (108, 3, 54),
    (36, 1, 6),
    (6, 1, 1),
    (96, 2, 32),
])
def test_cce_count(rb_count, symbols, expected):
    assert CoresetConfig(rb_count, symbols).cce_count == expected


@pytest.mark.parametrize("rb_count,symbols,match", [
    (20, 1, "rb_count must be a positive multiple of 6"),
    (0, 1, "rb_count must be a positive multiple of 6"),
    (-6, 1, "rb_count must be a positive multiple of 6"),
    (6, 0, "symbol_duration must be 1, 2 or 3"),
    (6, 4, "symbol_duration must be 1, 2 or 3"),
], ids=["20-1", "0-1", "-6-1", "6-0", "6-4"])
def test_invalid_geometry_rejected(rb_count, symbols, match):
    with pytest.raises(ValueError, match=match):
        CoresetConfig(rb_count, symbols)


@pytest.mark.parametrize("kwargs", [
    dict(rb_count=54.0, symbol_duration=1),
    dict(rb_count="36", symbol_duration=1),
    dict(rb_count=36, symbol_duration=True),
    dict(rb_count=36, symbol_duration=2.0),
])
def test_non_integer_geometry_rejected(kwargs):
    with pytest.raises(ValueError, match="integer"):
        CoresetConfig(**kwargs)


@pytest.mark.parametrize("cce_count", [9.0, 9.5, True])
def test_from_cce_count_rejects_non_integers(cce_count):
    with pytest.raises(ValueError, match="integer"):
        CoresetConfig.from_cce_count(cce_count)


def test_numpy_integer_geometry_stored_as_int():
    cfg = CoresetConfig(np.int64(108), np.int32(3))
    assert cfg == CoresetConfig(108, 3)
    assert all(type(v) is int for v in (cfg.rb_count, cfg.symbol_duration, cfg.cce_count))


def test_from_cce_count_synthesizes_one_symbol_coreset():
    cfg = CoresetConfig.from_cce_count(54)
    assert cfg == CoresetConfig(rb_count=324, symbol_duration=1)
    assert cfg.cce_count == 54


def test_from_cce_count_rejects_nonpositive():
    with pytest.raises(ValueError, match="cce_count must be >= 1"):
        CoresetConfig.from_cce_count(0)


def test_cce_count_monotone_in_rbs_and_symbols():
    for symbols in (1, 2, 3):
        counts = [CoresetConfig(rb, symbols).cce_count for rb in range(6, 300, 6)]
        assert counts == sorted(counts)
    for rb in (6, 54, 108):
        counts = [CoresetConfig(rb, d).cce_count for d in (1, 2, 3)]
        assert counts == sorted(counts)


def test_configs_are_immutable():
    cfg = CoresetConfig(108, 3)
    with pytest.raises(AttributeError):
        cfg.rb_count = 60


def _with_defaults(build, **defaults):
    return lambda **fields: build(**(defaults | fields))


_BASE = dict(ue_count=2, coreset=CoresetConfig.from_cce_count(16),
             search_space=SearchSpaceConfig({16: 1}),
             al_distribution=AlDistribution({16: 1.0}), iterations=10)

# Every integer field checked by coreset.as_integer(name, value, minimum), as
# (constructor with the other arguments filled in, field, minimum).
INTEGER_MINIMUMS = {
    "ScenarioConfig.ue_count": (_with_defaults(ScenarioConfig, **_BASE), "ue_count", 1),
    "ScenarioConfig.iterations": (_with_defaults(ScenarioConfig, **_BASE), "iterations", 1),
    "ScenarioConfig.master_seed": (_with_defaults(ScenarioConfig, **_BASE), "master_seed", 0),
    "MonitoringLimits.max_blind_decodes": (
        _with_defaults(MonitoringLimits, max_blind_decodes=44, max_nonoverlap_cces=56),
        "max_blind_decodes", 1),
    "MonitoringLimits.max_nonoverlap_cces": (
        _with_defaults(MonitoringLimits, max_blind_decodes=44, max_nonoverlap_cces=56),
        "max_nonoverlap_cces", 1),
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
