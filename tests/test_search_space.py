"""The TS 38.213 search space: the hash ``Y`` and ``candidate_starts``, and
the candidate counts per AL (``ScenarioConfig.candidates_per_al``)."""

import numpy as np
import pytest

from pdcch_blocking import (AGGREGATION_LEVELS, CoresetConfig, ScenarioConfig,
                            candidate_starts, y_value)


# --- the TS 38.213 hash --------------------------------------------------------
# Frozen Y values were computed beforehand with a standalone script that
# transcribes the recursion Y <- (A * Y) mod 65537 literally. A candidate's
# CCEs are range(start, start + L) from its hashed start.

def test_y_single_step():
    assert y_value(1) == 39827


def test_y_multi_step_frozen_values():
    assert y_value(12345) == 5741


@pytest.mark.parametrize("rnti", [0, -1, 65536])
def test_y_rejects_bad_rnti(rnti):
    with pytest.raises(ValueError):
        y_value(rnti)


@pytest.mark.parametrize("rnti", [1.5, 1.0, True, "1"])
def test_y_rejects_non_integer_rnti(rnti):
    with pytest.raises(ValueError, match="c_rnti"):
        y_value(rnti)


def test_y_accepts_numpy_integer_rnti():
    assert y_value(np.int64(1)) == y_value(1) == 39827
    assert type(y_value(np.uint16(12345))) is int


def test_y_range_and_determinism():
    rng = np.random.default_rng(7)
    for _ in range(300):
        rnti = int(rng.integers(1, 65536))
        y = y_value(rnti)
        assert 0 <= y <= 65536
        assert y == y_value(rnti)
    # y_value is a closed form; check it against the slot-0 recursion step
    # Y <- (A_p * Y) mod 65537 from Y = C-RNTI, A_p = 39827 for p mod 3 = 0
    for rnti in rng.integers(1, 65536, size=100).tolist():
        assert y_value(rnti) == 39827 * rnti % 65537


def test_candidate_starts_full_coreset_candidate():
    # floor(C/L) = 1 forces the modulo to zero regardless of Y
    assert candidate_starts(16, 16, 1, 7) == [0]


def test_candidate_starts_direct_substitution():
    assert candidate_starts(4, 16, 4, 0)[1] == 4


def test_candidate_starts_frozen_case():
    # frozen from the standalone brute-force evaluation
    start = candidate_starts(2, 54, 6, 39827)[3]
    assert start == 30
    assert start % 2 == 0 and start + 2 <= 54


def test_candidate_starts_rejects_oversized_al():
    with pytest.raises(ValueError, match="does not fit in a CORESET"):
        candidate_starts(16, 8, 1, 0)


@pytest.mark.parametrize("kwargs", [
    dict(aggregation_level=3, cce_count=54, candidate_count=1, y=0),
    dict(aggregation_level=2, cce_count=0, candidate_count=1, y=0),
    dict(aggregation_level=2, cce_count=54.0, candidate_count=6, y=0),
    dict(aggregation_level=2.0, cce_count=54, candidate_count=6, y=0),
    dict(aggregation_level=True, cce_count=54, candidate_count=6, y=0),
    dict(aggregation_level=2, cce_count=54, candidate_count="6", y=0),
    # Y is a residue mod 65537
    dict(aggregation_level=2, cce_count=54, candidate_count=6, y=-1),
    dict(aggregation_level=2, cce_count=54, candidate_count=6, y=10**30),
])
def test_candidate_starts_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        candidate_starts(**kwargs)


def test_candidate_starts_rejects_a_non_integer_y():
    # y = 1.5 gave starts 3.0, 11.0, ..., not aligned to AL 2
    with pytest.raises(ValueError, match="y must be an integer"):
        candidate_starts(2, 54, 6, 1.5)


def test_alignment_and_range_properties():
    rng = np.random.default_rng(11)
    for _ in range(500):
        level = int(rng.choice(AGGREGATION_LEVELS))
        cce_count = int(rng.integers(1, 17)) * 6
        if cce_count < level:
            continue
        m = int(rng.choice([1, 2, 3, 4, 5, 6, 8]))
        k = int(rng.integers(0, m))
        y = int(rng.integers(0, 65537))
        starts = candidate_starts(level, cce_count, m, y)
        assert len(starts) == m
        assert starts[k] % level == 0
        assert starts[k] + level <= cce_count


# --- config validation -----------------------------------------------------
# The candidate counts are ScenarioConfig's candidates_per_al field; the
# inputs that are not five integers are in test_coreset.py.

def config(counts):
    return ScenarioConfig(ue_count=1, coreset=CoresetConfig(54), candidates_per_al=counts,
                          al_distribution=(1.0, 0, 0, 0, 0))


def test_search_space_rejects_disallowed_count():
    with pytest.raises(ValueError):
        config((7, 0, 0, 0, 0))


def test_search_space_rejects_all_zero():
    with pytest.raises(ValueError):
        config((0, 0, 0, 0, 0))


def test_search_space_needs_one_count_per_al():
    for counts in ((6, 6, 4, 2), [6, 6, 4, 2, 1, 1]):
        with pytest.raises(ValueError, match="^candidates_per_al needs 5 entries"):
            config(counts)


def test_search_space_accepts_numpy_integers():
    cfg = config(tuple(np.array([6, 6, 4, 2, 1])))
    assert cfg.candidates_per_al == (6, 6, 4, 2, 1)
    assert all(type(m) is int for m in cfg.candidates_per_al)
