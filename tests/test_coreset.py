import numpy as np
import pytest

from pdcch_blocking import CoresetConfig, InvalidGeometryError


@pytest.mark.parametrize("rb_count,symbols,expected", [
    (108, 3, 54),
    (36, 1, 6),
    (6, 1, 1),
    (96, 2, 32),
])
def test_cce_count(rb_count, symbols, expected):
    assert CoresetConfig(rb_count, symbols).cce_count == expected


@pytest.mark.parametrize("rb_count,symbols", [
    (20, 1),    # not a multiple of 6
    (0, 1),
    (-6, 1),
    (6, 0),
    (6, 4),
])
def test_invalid_geometry_rejected(rb_count, symbols):
    with pytest.raises(InvalidGeometryError):
        CoresetConfig(rb_count, symbols)


@pytest.mark.parametrize("kwargs", [
    dict(rb_count=54.0, symbol_duration=1),
    dict(rb_count="36", symbol_duration=1),
    dict(rb_count=36, symbol_duration=True),
    dict(rb_count=36, symbol_duration=2.0),
    dict(rb_count=36, symbol_duration=1, coreset_index=1.5),
    dict(rb_count=36, symbol_duration=1, coreset_index=False),
])
def test_non_integer_geometry_rejected(kwargs):
    with pytest.raises(ValueError, match="integer"):
        CoresetConfig(**kwargs)


@pytest.mark.parametrize("cce_count", [9.0, 9.5, True])
def test_from_cce_count_rejects_non_integers(cce_count):
    with pytest.raises(ValueError, match="integer"):
        CoresetConfig.from_cce_count(cce_count)


def test_numpy_integer_geometry_stored_as_int():
    cfg = CoresetConfig(np.int64(108), np.int32(3), coreset_index=np.int64(1))
    assert cfg == CoresetConfig(108, 3, coreset_index=1)
    assert all(type(v) is int for v in (cfg.rb_count, cfg.symbol_duration,
                                        cfg.coreset_index, cfg.cce_count))


def test_negative_coreset_index_rejected():
    with pytest.raises(InvalidGeometryError):
        CoresetConfig(36, 1, coreset_index=-1)


def test_from_cce_count_synthesizes_one_symbol_coreset():
    cfg = CoresetConfig.from_cce_count(54, coreset_index=2)
    assert cfg.cce_count == 54
    assert cfg.rb_count == 324
    assert cfg.symbol_duration == 1
    assert cfg.coreset_index == 2


def test_from_cce_count_rejects_nonpositive():
    with pytest.raises(InvalidGeometryError):
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
