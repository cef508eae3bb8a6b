import numpy as np
import pytest

from pdcch_blocking import (AGGREGATION_LEVELS, Candidate, CoresetConfig,
                            NoCandidateFitsError, SearchSpaceConfig,
                            candidate_cces, candidate_starts, ue_candidate_set,
                            y_value)


# --- Y recursion -----------------------------------------------------------
# Frozen expected values, computed beforehand with a standalone script that
# transcribes the recursion Y <- (A * Y) mod 65537 literally.

def test_y_single_step():
    assert y_value(1, coreset_index=0, slot_index=0) == 39827


def test_y_multi_step_frozen_values():
    assert y_value(12345, coreset_index=1, slot_index=2) == 6371
    assert y_value(12345, coreset_index=0, slot_index=0) == 5741
    assert y_value(54321, coreset_index=2, slot_index=5) == 302


def test_y_css_is_zero_for_everyone():
    for rnti in (1, 777, 65535):
        assert y_value(rnti, coreset_index=3, slot_index=9, space_type="css") == 0


@pytest.mark.parametrize("rnti", [0, -1, 65536])
def test_y_rejects_bad_rnti(rnti):
    with pytest.raises(ValueError):
        y_value(rnti)


def test_y_rejects_negative_slot():
    with pytest.raises(ValueError):
        y_value(1, slot_index=-1)


def test_y_range_and_determinism():
    rng = np.random.default_rng(7)
    for _ in range(300):
        rnti = int(rng.integers(1, 65536))
        p = int(rng.integers(0, 12))
        t = int(rng.integers(0, 20))
        y = y_value(rnti, p, t)
        assert 0 <= y <= 65536
        assert y == y_value(rnti, p, t)


# --- candidate hash --------------------------------------------------------

def test_candidate_cces_full_coreset_candidate():
    # floor(C/L) = 1 forces the modulo to zero regardless of Y
    assert candidate_cces(16, 0, 16, 1, 7) == tuple(range(16))


def test_candidate_cces_direct_substitution():
    assert candidate_cces(4, 1, 16, 4, 0) == (4, 5, 6, 7)


def test_candidate_cces_frozen_case():
    # frozen from the standalone brute-force evaluation
    cces = candidate_cces(2, 3, 54, 6, 39827)
    assert cces == (30, 31)
    assert cces[0] % 2 == 0 and cces[-1] < 54


def test_candidate_cces_rejects_oversized_al():
    with pytest.raises(NoCandidateFitsError):
        candidate_cces(16, 0, 8, 1, 0)


@pytest.mark.parametrize("kwargs", [
    dict(aggregation_level=3, candidate_index=0, cce_count=54, candidate_count=1, y=0),
    dict(aggregation_level=2, candidate_index=4, cce_count=54, candidate_count=4, y=0),
    dict(aggregation_level=2, candidate_index=-1, cce_count=54, candidate_count=4, y=0),
    dict(aggregation_level=2, candidate_index=0, cce_count=0, candidate_count=1, y=0),
])
def test_candidate_cces_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        candidate_cces(**kwargs)


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
        cces = candidate_cces(level, k, cce_count, m, y)
        assert len(cces) == level
        assert cces[0] % level == 0
        assert cces == tuple(range(cces[0], cces[0] + level))
        assert cces[-1] < cce_count


def test_candidate_starts_matches_per_candidate_calls():
    starts = candidate_starts(2, 54, 6, 39827)
    assert starts == [candidate_cces(2, k, 54, 6, 39827)[0] for k in range(6)]


# --- per-UE candidate sets -------------------------------------------------

def test_ue_candidate_set_counts_and_order():
    space = SearchSpaceConfig((6, 6, 4, 2, 1))
    coreset = CoresetConfig.from_cce_count(54)
    one = ue_candidate_set(4242, space, coreset, 16)
    assert len(one) == 1 and len(one[0].cces) == 16
    six = ue_candidate_set(4242, space, coreset, 1)
    assert [c.candidate_index for c in six] == list(range(6))
    assert all(len(c.cces) == 1 for c in six)


def test_ue_candidate_set_hash_collapse():
    # floor(C/L) = 1 collapses every candidate index to the same block
    space = SearchSpaceConfig({8: 2})
    coreset = CoresetConfig.from_cce_count(8)
    cands = ue_candidate_set(12345, space, coreset, 8)
    assert [c.cces for c in cands] == [tuple(range(8)), tuple(range(8))]


def test_ue_candidate_set_css_is_ue_independent():
    space = SearchSpaceConfig((6, 6, 4, 2, 1), space_type="css")
    coreset = CoresetConfig.from_cce_count(54)
    sets = [tuple(c.cces for c in ue_candidate_set(rnti, space, coreset, 2))
            for rnti in (1, 999, 65535)]
    assert sets[0] == sets[1] == sets[2]


def test_ue_candidate_set_rejects_zero_count():
    space = SearchSpaceConfig({1: 6})
    coreset = CoresetConfig.from_cce_count(54)
    with pytest.raises(ValueError):
        ue_candidate_set(1, space, coreset, 2)


def test_uss_determinism_across_calls():
    space = SearchSpaceConfig((6, 6, 4, 2, 1), slot_index=3)
    coreset = CoresetConfig(108, 3, coreset_index=1)
    a = ue_candidate_set(31337, space, coreset, 4)
    b = ue_candidate_set(31337, space, coreset, 4)
    assert a == b


# --- config and candidate validation ---------------------------------------

def test_search_space_rejects_disallowed_count():
    with pytest.raises(ValueError):
        SearchSpaceConfig((7, 0, 0, 0, 0))


def test_search_space_rejects_all_zero():
    with pytest.raises(ValueError):
        SearchSpaceConfig((0, 0, 0, 0, 0))


def test_search_space_rejects_unknown_al_key():
    with pytest.raises(ValueError):
        SearchSpaceConfig({3: 2})


@pytest.mark.parametrize("counts", [(6.7, 6, 4, 2, 1), (6.0, 6, 4, 2, 1),
                                    (True, 6, 4, 2, 1), ("6", 6, 4, 2, 1),
                                    {1: 6, 16: 1.0}])
def test_search_space_rejects_non_integer_counts(counts):
    with pytest.raises(ValueError, match="integers"):
        SearchSpaceConfig(counts)


def test_search_space_accepts_numpy_integers():
    space = SearchSpaceConfig(tuple(np.array([6, 6, 4, 2, 1])))
    assert space.candidates_per_al == (6, 6, 4, 2, 1)
    assert all(type(m) is int for m in space.candidates_per_al)


def test_search_space_accepts_mapping_form():
    space = SearchSpaceConfig({1: 6, 2: 6, 4: 4, 8: 2, 16: 1})
    assert space.candidates_per_al == (6, 6, 4, 2, 1)
    assert space.count_for(8) == 2
    assert space.total_blind_decodes == 19


def test_candidate_validates_shape():
    with pytest.raises(ValueError):
        Candidate(4, 0, (1, 2, 3, 4))       # misaligned start
    with pytest.raises(ValueError):
        Candidate(4, 0, (0, 1, 2))          # wrong size
    with pytest.raises(ValueError):
        Candidate(4, 0, (0, 1, 2, 4))       # not contiguous
