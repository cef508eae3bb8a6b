"""PDCCH search-space candidate mapping (TS 38.213 section 10.1 hash function)."""

from dataclasses import dataclass

from .coreset import AGGREGATION_LEVELS, as_integer, per_al

Y_MODULUS = 65537
A_MULTIPLIERS = (39827, 39829, 39839)  # selected by coreset_index mod 3
ALLOWED_CANDIDATE_COUNTS = (0, 1, 2, 3, 4, 5, 6, 8)
RNTI_MAX = 65535

SPACE_TYPE_COMMON = "css"
SPACE_TYPE_UE_SPECIFIC = "uss"
SPACE_TYPES = (SPACE_TYPE_COMMON, SPACE_TYPE_UE_SPECIFIC)


class NoCandidateFitsError(ValueError):
    """The aggregation level is larger than the CORESET, no candidate can fit."""


@dataclass(frozen=True)
class SearchSpaceConfig:
    """Candidate counts per aggregation level, plus search-space type and slot.

    ``candidates_per_al`` is ordered as AGGREGATION_LEVELS, i.e. the counts for
    ALs (1, 2, 4, 8, 16); a mapping {AL: count} is accepted and normalized.
    """

    candidates_per_al: tuple
    space_type: str = SPACE_TYPE_UE_SPECIFIC
    slot_index: int = 0

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
        object.__setattr__(self, "slot_index", as_integer("slot_index", self.slot_index, 0))

    @property
    def total_blind_decodes(self) -> int:
        return sum(self.candidates_per_al)


def _check_rnti(c_rnti: int) -> int:
    c_rnti = as_integer("c_rnti", c_rnti)
    if not 1 <= c_rnti <= RNTI_MAX:
        raise ValueError(f"c_rnti must be in [1, {RNTI_MAX}], got {c_rnti}")
    return c_rnti


def y_multiplier(coreset_index: int, slot_index: int, space_type: str) -> int:
    """K with Y = c_rnti * K mod 65537 for every UE: A**(slot_index + 1)
    mod 65537 for a USS, with A picked by coreset_index mod 3, and 0 for a
    CSS."""
    if space_type == SPACE_TYPE_COMMON:
        return 0
    if space_type != SPACE_TYPE_UE_SPECIFIC:
        raise ValueError(f"space_type must be one of {SPACE_TYPES}, got {space_type!r}")
    coreset_index = as_integer("coreset_index", coreset_index, 0)
    slot_index = as_integer("slot_index", slot_index, 0)
    return pow(A_MULTIPLIERS[coreset_index % 3], slot_index + 1, Y_MODULUS)


def y_value(c_rnti: int, coreset_index: int = 0, slot_index: int = 0,
            space_type: str = SPACE_TYPE_UE_SPECIFIC) -> int:
    """Per-UE, per-slot hash seed Y.

    A CSS uses Y = 0 for every UE. For a USS, TS 38.213 iterates
    Y <- (A * Y) mod 65537 for slot_index + 1 steps from the UE's C-RNTI;
    this is the closed form c_rnti * ``y_multiplier`` mod 65537.
    """
    c_rnti = _check_rnti(c_rnti)
    return c_rnti * y_multiplier(coreset_index, slot_index, space_type) % Y_MODULUS


def candidate_starts(aggregation_level: int, cce_count: int, candidate_count: int,
                     y: int) -> list:
    """First CCE index of each of the ``candidate_count`` candidates, in
    candidate order: L * ((y + floor(k*C / (L*M))) mod floor(C/L)).

    Raises NoCandidateFitsError when the aggregation level exceeds the CORESET
    size, i.e. floor(cce_count / aggregation_level) == 0.
    """
    L = as_integer("aggregation_level", aggregation_level)
    if L not in AGGREGATION_LEVELS:
        raise ValueError(f"aggregation level must be one of {AGGREGATION_LEVELS}, got {L}")
    C = as_integer("cce_count", cce_count, 1)
    M = as_integer("candidate_count", candidate_count, 1)
    y = as_integer("y", y)
    positions = C // L
    if positions == 0:
        raise NoCandidateFitsError(f"AL {L} does not fit in a CORESET of {C} CCEs")
    return [L * ((y + (k * C) // (L * M)) % positions) for k in range(M)]


def candidate_cces(aggregation_level: int, candidate_index: int, cce_count: int,
                   candidate_count: int, y: int) -> tuple:
    """CCE indices of one candidate: L contiguous CCEs from the hashed start."""
    k, M = as_integer("candidate_index", candidate_index), candidate_count
    if not 0 <= k < M:
        raise ValueError(f"candidate index {k} out of range for {M} candidates")
    start = candidate_starts(aggregation_level, cce_count, candidate_count, y)[k]
    return tuple(range(start, start + aggregation_level))
