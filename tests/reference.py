"""A pure-Python model of one scheduling opportunity, for the tests to check
the package against. It is written from TS 38.213 section 10.1 and the
documented v1 stream order, and takes nothing from the package's hash or
allocation kernel, so a fault there cannot move both sides of a comparison.

- Y = (39827 * C-RNTI) mod 65537, one step of Y <- (A_p * Y) mod 65537 at
  slot 0 of a CORESET with p mod 3 = 0.
- Candidate k of M at AL L in a CORESET of C CCEs starts at
  L * ((Y + floor(k*C / (L*M))) mod floor(C/L)).
- An iteration draws from ``iteration_rng(master_seed, iteration)``, in
  order: U C-RNTIs in 1..65535, U uniforms for the ALs, and a permutation
  of the U UEs.
- ``unordered`` processes the UEs in permutation order; ``low_to_high`` and
  ``high_to_low`` sort it stably by AL.
- Each UE takes its free candidate with the lowest first CCE, or is blocked.

``block_table`` writes candidate sets in the greedy's table format, so that
tests can hand the package's greedy the same sets as this model.
"""

import math

import numpy as np

from pdcch_blocking import iteration_rng

LEVELS = (1, 2, 4, 8, 16)


def reference_y(c_rnti: int) -> int:
    return 39827 * c_rnti % 65537


def reference_start(level, k, cce_count, count, y):
    """The first CCE of candidate ``k`` of ``count`` at AL ``level``,
    deliberately over float floor division rather than integer ops, or None
    when the AL does not fit in the CORESET."""
    positions = math.floor(cce_count / level)
    if positions == 0:
        return None
    return level * ((y + math.floor(k * cce_count / (level * count))) % positions)


def reference_al_index(al_distribution, uniforms):
    """The AL index of each uniform by inverse CDF. A uniform above a
    rounded-down probability total goes to the last AL of nonzero
    probability, as in the simulator."""
    last = np.flatnonzero(al_distribution)[-1]
    return np.minimum(np.searchsorted(np.cumsum(al_distribution), uniforms, side="right"),
                      last)


def reference_order(levels, strategy, perm):
    """One iteration's processing order, sorted in Python: the permutation
    ``perm``, stably sorted by AL unless "unordered"."""
    order = list(perm)
    if strategy != "unordered":
        order.sort(key=levels.__getitem__, reverse=strategy == "high_to_low")
    return order


def reference_greedy(ues, order):
    """Independent step-by-step simulation of the allocation rule, written
    against plain CCE sets instead of bitmasks. Returns ({UE: start}, blocked)."""
    taken = set()
    assigned = {}
    blocked = []
    for i in order:
        level, starts = ues[i]
        for start in sorted(starts):
            cces = set(range(start, start + level))
            if not taken & cces:
                assigned[i] = start
                taken |= cces
                break
        else:
            blocked.append(i)
    return assigned, sorted(blocked)


def reference_blocked(cfg, iteration: int) -> int:
    """The number of UEs blocked in iteration ``iteration`` of ``cfg``,
    hashed and allocated UE by UE."""
    rng = iteration_rng(cfg.master_seed, iteration)
    u = cfg.ue_count
    rntis = rng.integers(1, 65536, size=u).tolist()
    al_idx = reference_al_index(cfg.al_distribution, rng.random(u)).tolist()
    ues = []
    for rnti, a in zip(rntis, al_idx):
        level, m = LEVELS[a], cfg.candidates_per_al[a]
        starts = [reference_start(level, k, cfg.coreset.cce_count, m, reference_y(rnti))
                  for k in range(m)]
        ues.append((level, [start for start in starts if start is not None]))
    order = reference_order([level for level, _ in ues], cfg.strategy,
                            rng.permutation(u).tolist())
    _, blocked = reference_greedy(ues, order)
    return len(blocked)


def field_constants(level):
    """The block-test constants of AL ``level`` as Python ints: the low
    L - 1 bits of every L-bit field of a word, and L - 1."""
    lo = sum(((1 << level - 1) - 1) << field for field in range(0, 64, level))
    return lo, level - 1


def block_table(mask_sets, cce_count):
    """Candidate sets given as tuples of Python-int CCE masks below CCE
    ``cce_count``, each an aligned block of one AL's 1, 2, 4, 8 or 16 CCEs,
    laid out as the greedy reads its tables: a (W + 2, S) uint64 table of
    W = ceil(C/64) words per set with one bit at the last CCE of each
    candidate and then the AL's two block-test constants (an empty set has
    no bit, and AL 1's constants)."""
    words = -(-cce_count // 64)
    columns = []
    for masks in mask_sets:
        levels = {mask.bit_count() for mask in masks} or {1}
        assert len(levels) == 1, masks
        level = levels.pop()
        bits = 0
        for mask in masks:
            first = (mask & -mask).bit_length() - 1
            assert level in LEVELS and first % level == 0, mask
            assert mask == ((1 << level) - 1) << first and mask.bit_length() <= cce_count, mask
            bits |= 1 << first + level - 1
        columns.append([bits >> 64 * w & (2**64 - 1) for w in range(words)]
                       + list(field_constants(level)))
    table = np.array(columns, dtype=np.uint64).reshape(len(mask_sets), words + 2)
    return np.ascontiguousarray(table.T)
