import numpy as np
import pytest

from pdcch_blocking import (AGGREGATION_LEVELS, CoresetConfig, ScenarioConfig,
                            candidate_starts, y_value)
from test_kernel import kernel_tables


# --- Y recursion -----------------------------------------------------------
# Frozen expected values, computed beforehand with a standalone script that
# transcribes the recursion Y <- (A * Y) mod 65537 literally.

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


# --- candidate hash --------------------------------------------------------
# A candidate's CCEs are range(start, start + L) from its hashed start.

def test_candidate_cces_full_coreset_candidate():
    # floor(C/L) = 1 forces the modulo to zero regardless of Y
    assert candidate_starts(16, 16, 1, 7) == [0]


def test_candidate_cces_direct_substitution():
    assert candidate_starts(4, 16, 4, 0)[1] == 4


def test_candidate_cces_frozen_case():
    # frozen from the standalone brute-force evaluation
    start = candidate_starts(2, 54, 6, 39827)[3]
    assert start == 30
    assert start % 2 == 0 and start + 2 <= 54


def test_candidate_cces_rejects_oversized_al():
    with pytest.raises(ValueError, match="does not fit in a CORESET"):
        candidate_starts(16, 8, 1, 0)


@pytest.mark.parametrize("kwargs", [
    dict(aggregation_level=3, cce_count=54, candidate_count=1, y=0),
    dict(aggregation_level=2, cce_count=0, candidate_count=1, y=0),
    dict(aggregation_level=2, cce_count=54.0, candidate_count=6, y=0),
    dict(aggregation_level=2.0, cce_count=54, candidate_count=6, y=0),
    dict(aggregation_level=2, cce_count=54, candidate_count=6, y=1.5),
    dict(aggregation_level=True, cce_count=54, candidate_count=6, y=0),
    dict(aggregation_level=2, cce_count=54, candidate_count="6", y=0),
])
def test_candidate_cces_rejects_bad_arguments(kwargs):
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


# --- per-UE candidate sets ------------------------------------------------
# A UE's candidates at one AL are the ``candidate_starts`` of its Y; the
# simulator reads them from ``_kernel``'s per-residue tables.

def test_ue_candidate_set_counts_and_order():
    counts = (6, 6, 4, 2, 1)
    y = y_value(4242)
    one = candidate_starts(16, 54, counts[4], y)
    assert len(one) == 1 and one[0] + 16 <= 54
    six = candidate_starts(1, 54, counts[0], y)
    # candidate k of AL 1 starts floor(k * 54 / 6) = 9k CCEs after Y mod 54
    assert six == [(y + 9 * k) % 54 for k in range(6)]


def test_ue_candidate_set_hash_collapse():
    # floor(C/L) = 1 collapses every candidate index to the same block
    assert candidate_starts(8, 8, 2, y_value(12345)) == [0, 0]
    # and the table holds the two equal candidates as one bit
    positions, tables = kernel_tables({8: 2}, CoresetConfig.from_cce_count(8))
    assert positions[3] == 1 and tables[3] == [(0xFF,)]


def test_ue_candidate_set_rejects_zero_count():
    with pytest.raises(ValueError):
        candidate_starts(2, 54, 0, 0)
    # an AL with no configured candidates gets the single empty mask set
    positions, tables = kernel_tables({1: 6}, CoresetConfig.from_cce_count(54))
    assert positions[1] == 1 and tables[1] == ((),)


def test_uss_determinism_across_calls():
    counts, coreset = (6, 6, 4, 2, 1), CoresetConfig(54)
    y = y_value(31337)
    assert candidate_starts(4, 54, 4, y) == candidate_starts(4, 54, 4, y)
    first, again = kernel_tables(counts, coreset), kernel_tables(counts, coreset)
    assert first[0].tolist() == again[0].tolist() and first[1] == again[1]


# --- config validation -----------------------------------------------------
# The candidate counts are ScenarioConfig's candidates_per_al field.

def config(counts):
    return ScenarioConfig(ue_count=1, coreset=CoresetConfig(54), candidates_per_al=counts,
                          al_distribution={1: 1.0})


def test_search_space_rejects_disallowed_count():
    with pytest.raises(ValueError):
        config((7, 0, 0, 0, 0))


def test_search_space_rejects_all_zero():
    with pytest.raises(ValueError):
        config((0, 0, 0, 0, 0))


def test_search_space_rejects_unknown_al_key():
    with pytest.raises(ValueError):
        config({3: 2})


@pytest.mark.parametrize("counts", [(6.7, 6, 4, 2, 1), (6.0, 6, 4, 2, 1),
                                    (True, 6, 4, 2, 1), ("6", 6, 4, 2, 1),
                                    {1: 6, 16: 1.0}, None, 6])
def test_search_space_rejects_non_integer_counts(counts):
    with pytest.raises(ValueError, match="^candidates_per_al must be integers"):
        config(counts)


def test_search_space_accepts_numpy_integers():
    cfg = config(tuple(np.array([6, 6, 4, 2, 1])))
    assert cfg.candidates_per_al == (6, 6, 4, 2, 1)
    assert all(type(m) is int for m in cfg.candidates_per_al)


def test_search_space_accepts_mapping_form():
    cfg = config({1: 6, 2: 6, 4: 4, 8: 2, 16: 1})
    assert cfg.candidates_per_al == (6, 6, 4, 2, 1)
