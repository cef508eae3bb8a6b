"""Greedy allocation of PDCCH candidates to UEs within one CORESET opportunity.

The processing order is the scheduling strategy: "low_to_high" and
"high_to_low" sort UEs by aggregation level (ties between equal-AL UEs broken
by a random permutation drawn from the caller's RNG stream); "unordered"
processes UEs in that random permutation alone. Each UE gets one free
candidate or is marked blocked; a blocked UE consumes no CCEs.

The candidate picked for a UE is its free candidate with the lowest first
CCE. Packing toward low CCE indices keeps aligned blocks intact for the high
aggregation levels, which dominate blocking at light load.
"""

from dataclasses import dataclass

from .coreset import AGGREGATION_LEVELS, CoresetConfig
from .search_space import SearchSpaceConfig, candidate_cces, y_value

STRATEGY_LOW_TO_HIGH = "low_to_high"
STRATEGY_HIGH_TO_LOW = "high_to_low"
STRATEGY_UNORDERED = "unordered"
STRATEGIES = (STRATEGY_LOW_TO_HIGH, STRATEGY_HIGH_TO_LOW, STRATEGY_UNORDERED)

# Per-slot monitoring limits by subcarrier spacing, TS 38.213 (no carrier
# aggregation): max blind decodes and max non-overlapping CCEs.
BD_LIMITS = {15: 44, 30: 36, 60: 22, 120: 20}
CCE_LIMITS = {15: 56, 30: 56, 60: 48, 120: 32}


@dataclass(frozen=True)
class UeContext:
    """One UE to schedule: its C-RNTI, adopted AL, and monitored candidates.

    ``candidates`` may be empty, meaning the UE has nothing schedulable in
    this CORESET (AL larger than the CORESET, or zero configured candidates);
    such a UE is always blocked.
    """

    c_rnti: int
    aggregation_level: int
    candidates: tuple

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        for cand in self.candidates:
            if cand.aggregation_level != self.aggregation_level:
                raise ValueError(
                    f"candidate AL {cand.aggregation_level} differs from "
                    f"UE AL {self.aggregation_level}")
        indices = [c.candidate_index for c in self.candidates]
        if indices != sorted(indices):
            raise ValueError("candidates must be listed in increasing candidate_index")


@dataclass(frozen=True)
class MonitoringLimits:
    """UE capability: blind-decode and non-overlapping-CCE limits per slot."""

    max_blind_decodes: int
    max_nonoverlap_cces: int
    scs_khz: int = 15

    @classmethod
    def for_scs(cls, scs_khz: int) -> "MonitoringLimits":
        if scs_khz not in BD_LIMITS:
            raise ValueError(f"scs_khz must be one of {sorted(BD_LIMITS)}, got {scs_khz}")
        return cls(BD_LIMITS[scs_khz], CCE_LIMITS[scs_khz], scs_khz)


@dataclass
class AllocationOutcome:
    """Result of one scheduling opportunity.

    ``assignments`` maps the UE's position in the input list to its assigned
    candidate; blocked UEs appear in ``blocked_ues`` instead, never in both.
    """

    assignments: dict
    blocked_ues: tuple
    used_cces: frozenset

    @property
    def blocked_count(self) -> int:
        return len(self.blocked_ues)


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

    @property
    def within_limits(self) -> bool:
        return not (self.blind_decodes_exceeded or self.cces_exceeded)


def _allocation_order(aggregation_levels, strategy, rng):
    """Processing order: sorted by AL per strategy, equal-AL ties shuffled;
    "unordered" keeps the shuffle as-is."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if rng is None:
        order = list(range(len(aggregation_levels)))
    else:
        order = rng.permutation(len(aggregation_levels)).tolist()
    if strategy != STRATEGY_UNORDERED:
        order.sort(key=lambda i: aggregation_levels[i],
                   reverse=strategy == STRATEGY_HIGH_TO_LOW)  # stable: keeps the shuffle
    return order


def _greedy_assign(order, candidate_masks):
    """Assign each UE (in ``order``) its first candidate disjoint from all
    CCEs claimed so far. Returns ({ue_index: candidate_position}, [blocked])."""
    used = 0
    chosen = {}
    blocked = []
    for i in order:
        for pos, mask in enumerate(candidate_masks[i]):
            if used & mask == 0:
                chosen[i] = pos
                used |= mask
                break
        else:
            blocked.append(i)
    return chosen, blocked, used


def _mask_from_cces(cces) -> int:
    mask = 0
    for c in cces:
        mask |= 1 << c
    return mask


def allocate(ues, coreset: CoresetConfig, strategy: str = STRATEGY_LOW_TO_HIGH,
             rng=None) -> AllocationOutcome:
    """Allocate non-overlapping candidates to ``ues`` in one CORESET.

    Pass the iteration's numpy Generator as ``rng`` to get the randomized
    equal-AL tie-break (and the "unordered" processing order); with rng=None
    ties keep input order, which is deterministic and useful in tests.
    """
    cce_count = coreset.cce_count
    for ue in ues:
        for cand in ue.candidates:
            if cand.cces[-1] >= cce_count:
                raise ValueError(
                    f"candidate CCEs {cand.cces} exceed CORESET size {cce_count}")
    order = _allocation_order([ue.aggregation_level for ue in ues], strategy, rng)
    masks = []
    scans = []
    for ue in ues:
        # leftmost free candidate first: try candidates in first-CCE order
        scan = sorted(range(len(ue.candidates)),
                      key=lambda pos: (ue.candidates[pos].first_cce, pos))
        scans.append(scan)
        masks.append([_mask_from_cces(ue.candidates[pos].cces) for pos in scan])
    chosen, blocked, used = _greedy_assign(order, masks)
    assignments = {i: ues[i].candidates[scans[i][pos]] for i, pos in chosen.items()}
    used_cces = frozenset(c for i in assignments for c in assignments[i].cces)
    return AllocationOutcome(assignments=assignments,
                             blocked_ues=tuple(sorted(blocked)),
                             used_cces=used_cces)


def blocking_ratio(outcome: AllocationOutcome, total_ues: int) -> float:
    """Blocked UEs over all UEs that needed scheduling, in [0, 1]."""
    if total_ues < 1:
        raise ValueError(f"total_ues must be >= 1, got {total_ues}")
    if outcome.blocked_count > total_ues:
        raise ValueError(
            f"{outcome.blocked_count} blocked UEs exceed total_ues={total_ues}")
    return outcome.blocked_count / total_ues


def validate_limits(search_space: SearchSpaceConfig, coreset: CoresetConfig,
                    c_rnti: int, limits: MonitoringLimits) -> LimitsReport:
    """Check one UE's configured monitoring effort against its limits.

    Blind decodes count one per configured candidate (single DCI size).
    The CCE figure is the union of CCEs over all the UE's candidates; ALs
    that do not fit in the CORESET contribute no candidates.
    """
    blind_decodes = search_space.total_blind_decodes
    y = y_value(c_rnti, coreset.coreset_index, search_space.slot_index,
                search_space.space_type)
    cce_count = coreset.cce_count
    union = set()
    for al, m in zip(AGGREGATION_LEVELS, search_space.candidates_per_al):
        if m == 0 or cce_count < al:
            continue
        for k in range(m):
            union.update(candidate_cces(al, k, cce_count, m, y))
    return LimitsReport(blind_decodes=blind_decodes,
                        max_blind_decodes=limits.max_blind_decodes,
                        distinct_cces=len(union),
                        max_nonoverlap_cces=limits.max_nonoverlap_cces)
