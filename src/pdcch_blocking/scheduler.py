"""Greedy allocation of PDCCH candidates to UEs within one CORESET opportunity.

The processing order is the scheduling strategy: "low_to_high" and
"high_to_low" sort UEs by aggregation level (ties between equal-AL UEs broken
by a random permutation the caller draws from the iteration's RNG stream);
"unordered" processes UEs in that random permutation alone. Each UE takes
one free candidate or is blocked and takes no CCEs; the greedy returns only
the masks taken and their OR.

Candidates are CCE bitmasks, and each UE gets its first free candidate in
the order listed. The simulator lists them by first CCE, so the pick is the
free candidate with the lowest first CCE. Packing toward low CCE indices
keeps aligned blocks intact for the high aggregation levels, which dominate
blocking at light load.
"""

from dataclasses import dataclass

import numpy as np

from .coreset import AGGREGATION_LEVELS, CoresetConfig, as_integer
from .search_space import SearchSpaceConfig, candidate_starts, y_value

STRATEGY_LOW_TO_HIGH = "low_to_high"
STRATEGY_HIGH_TO_LOW = "high_to_low"
STRATEGY_UNORDERED = "unordered"
STRATEGIES = (STRATEGY_LOW_TO_HIGH, STRATEGY_HIGH_TO_LOW, STRATEGY_UNORDERED)

# Per-slot monitoring limits by subcarrier spacing, TS 38.213 (no carrier
# aggregation): max blind decodes and max non-overlapping CCEs.
BD_LIMITS = {15: 44, 30: 36, 60: 22, 120: 20}
CCE_LIMITS = {15: 56, 30: 56, 60: 48, 120: 32}


@dataclass(frozen=True)
class MonitoringLimits:
    """UE capability: blind-decode and non-overlapping-CCE limits per slot."""

    max_blind_decodes: int
    max_nonoverlap_cces: int

    def __post_init__(self):
        for name in ("max_blind_decodes", "max_nonoverlap_cces"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), 1))

    @classmethod
    def for_scs(cls, scs_khz: int) -> "MonitoringLimits":
        """The limits of subcarrier spacing ``scs_khz`` (15, 30, 60 or 120)."""
        scs_khz = as_integer("scs_khz", scs_khz)
        if scs_khz not in BD_LIMITS:
            raise ValueError(f"scs_khz must be one of {sorted(BD_LIMITS)}, got {scs_khz}")
        return cls(BD_LIMITS[scs_khz], CCE_LIMITS[scs_khz])


@dataclass(frozen=True)
class LimitsReport:
    """Report-only check of a search-space configuration against UE limits."""

    blind_decodes: int
    max_blind_decodes: int
    distinct_cces: int
    max_nonoverlap_cces: int

    @property
    def blind_decodes_exceeded(self) -> bool:
        return self.blind_decodes > self.max_blind_decodes

    @property
    def cces_exceeded(self) -> bool:
        return self.distinct_cces > self.max_nonoverlap_cces


def _allocation_order(al_keys, perm, strategy):
    """Processing orders of a block of iterations, one row each: row b of
    ``perm`` is iteration b's random permutation of its UEs and row b of
    ``al_keys`` their ALs (or anything that sorts as the ALs). "unordered"
    keeps the permutation; the other strategies sort it stably by AL, so
    equal-AL UEs stay in permutation order."""
    if strategy == STRATEGY_UNORDERED:
        return perm
    keys = np.take_along_axis(al_keys, perm, axis=1)
    if strategy == STRATEGY_HIGH_TO_LOW:
        keys = -keys
    return np.take_along_axis(perm, np.argsort(keys, axis=1, kind="stable"), axis=1)


def _greedy_assign(order, candidate_masks):
    """Give each UE i in ``order`` the first mask of ``candidate_masks[i]``
    free of the CCEs taken so far. Returns (picks, used): the masks taken,
    in processing order, and their OR; the other UEs are blocked."""
    used = 0
    picks = []
    for i in order:
        for mask in candidate_masks[i]:
            if not used & mask:
                used |= mask
                picks.append(mask)
                break
    return picks, used


def validate_limits(search_space: SearchSpaceConfig, coreset: CoresetConfig,
                    c_rnti: int, limits: MonitoringLimits) -> LimitsReport:
    """Check one UE's configured monitoring effort against its limits.

    Blind decodes count one per configured candidate (single DCI size).
    The CCE figure is the union of CCEs over all the UE's candidates; ALs
    that do not fit in the CORESET contribute no candidates.
    """
    blind_decodes = search_space.total_blind_decodes
    y = y_value(c_rnti, search_space.space_type)
    cce_count = coreset.cce_count
    union = set()
    for al, m in zip(AGGREGATION_LEVELS, search_space.candidates_per_al):
        if m == 0 or cce_count < al:
            continue
        for start in candidate_starts(al, cce_count, m, y):
            union.update(range(start, start + al))
    return LimitsReport(blind_decodes=blind_decodes,
                        max_blind_decodes=limits.max_blind_decodes,
                        distinct_cces=len(union),
                        max_nonoverlap_cces=limits.max_nonoverlap_cces)
