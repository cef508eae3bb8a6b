"""PDCCH search-space candidate mapping (TS 38.213 section 10.1 hash function).

The model is one monitoring occasion: slot 0 of a CORESET with index
p mod 3 = 0. A USS hashes every UE with A_p = 39827 and a CSS puts every UE
at Y = 0. Another CORESET index or slot would only pick another unit K in
Y = c_rnti * K mod 65537, which does not move a blocking estimate.
"""

from dataclasses import dataclass

from .coreset import AGGREGATION_LEVELS, as_integer, per_al

Y_MODULUS = 65537
ALLOWED_CANDIDATE_COUNTS = (0, 1, 2, 3, 4, 5, 6, 8)
RNTI_MAX = 65535

SPACE_TYPE_COMMON = "css"
SPACE_TYPE_UE_SPECIFIC = "uss"
SPACE_TYPES = (SPACE_TYPE_COMMON, SPACE_TYPE_UE_SPECIFIC)


@dataclass(frozen=True)
class SearchSpaceConfig:
    """Candidate counts per aggregation level, plus the search-space type.

    ``candidates_per_al`` is ordered as AGGREGATION_LEVELS, i.e. the counts for
    ALs (1, 2, 4, 8, 16); a mapping {AL: count} is accepted and normalized.
    """

    candidates_per_al: tuple
    space_type: str = SPACE_TYPE_UE_SPECIFIC

    def __post_init__(self):
        counts = per_al("candidates_per_al", self.candidates_per_al, int)
        object.__setattr__(self, "candidates_per_al", counts)
        for al, m in zip(AGGREGATION_LEVELS, counts):
            if m not in ALLOWED_CANDIDATE_COUNTS:
                raise ValueError(
                    f"candidate count {m} for AL {al} not in {ALLOWED_CANDIDATE_COUNTS}")
        if not any(counts):
            raise ValueError("at least one aggregation level needs a nonzero candidate count")
        if self.space_type not in SPACE_TYPES:
            raise ValueError(f"space_type must be one of {SPACE_TYPES}, got {self.space_type!r}")

    @property
    def total_blind_decodes(self) -> int:
        return sum(self.candidates_per_al)


def _check_rnti(c_rnti: int) -> int:
    c_rnti = as_integer("c_rnti", c_rnti)
    if not 1 <= c_rnti <= RNTI_MAX:
        raise ValueError(f"c_rnti must be in [1, {RNTI_MAX}], got {c_rnti}")
    return c_rnti


def y_multiplier(space_type: str) -> int:
    """K with Y = c_rnti * K mod 65537 for every UE at slot 0: 0 for a CSS,
    and for a USS A_p = 39827, so that Y is TS 38.213's one step of
    Y <- (A_p * Y) mod 65537 from the C-RNTI."""
    if space_type not in SPACE_TYPES:  # compared, not hashed: a list is a ValueError too
        raise ValueError(f"space_type must be one of {SPACE_TYPES}, got {space_type!r}")
    return 39827 if space_type == SPACE_TYPE_UE_SPECIFIC else 0


def y_value(c_rnti: int, space_type: str = SPACE_TYPE_UE_SPECIFIC) -> int:
    """Per-UE hash seed Y at slot 0: c_rnti * ``y_multiplier`` mod 65537."""
    c_rnti = _check_rnti(c_rnti)
    return c_rnti * y_multiplier(space_type) % Y_MODULUS


def candidate_starts(aggregation_level: int, cce_count: int, candidate_count: int,
                     y: int) -> list:
    """First CCE index of each of the ``candidate_count`` candidates, in
    candidate order: L * ((y + floor(k*C / (L*M))) mod floor(C/L)).

    Raises ValueError when the aggregation level exceeds the CORESET size,
    i.e. floor(cce_count / aggregation_level) == 0.
    """
    L = as_integer("aggregation_level", aggregation_level)
    if L not in AGGREGATION_LEVELS:
        raise ValueError(f"aggregation level must be one of {AGGREGATION_LEVELS}, got {L}")
    C = as_integer("cce_count", cce_count, 1)
    M = as_integer("candidate_count", candidate_count, 1)
    y = as_integer("y", y)
    positions = C // L
    if positions == 0:
        raise ValueError(f"AL {L} does not fit in a CORESET of {C} CCEs")
    return [L * ((y + (k * C) // (L * M)) % positions) for k in range(M)]


def candidate_cces(aggregation_level: int, candidate_index: int, cce_count: int,
                   candidate_count: int, y: int) -> tuple:
    """CCE indices of one candidate: L contiguous CCEs from the hashed start."""
    k = as_integer("candidate_index", candidate_index)
    starts = candidate_starts(aggregation_level, cce_count, candidate_count, y)
    if not 0 <= k < len(starts):
        raise ValueError(f"candidate index {k} out of range for {len(starts)} candidates")
    return tuple(range(starts[k], starts[k] + aggregation_level))
