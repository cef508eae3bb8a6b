"""Reference model of the simulator's scheduling opportunities.

Written from the documented behaviour, not from the package: the TS 38.213
section 10.1 UE-specific search-space hash, leftmost-free-candidate greedy
assignment, and the per-iteration stream ``default_rng([master_seed, it])``
consumed as C-RNTIs, then aggregation levels, then the tie-break permutation.
It reads a scenario file's JSON mapping (USS, slot 0, any C-RNTI may repeat).
"""

import numpy as np

ALS = (1, 2, 4, 8, 16)
A_MULTIPLIERS = (39827, 39829, 39839)


def blocked_per_iteration(scenario, iterations):
    """Blocked UEs in each of the first ``iterations`` iterations."""
    coreset = scenario["coreset"]
    cces = coreset.get("cce_count") or coreset["rb_count"] * coreset["symbol_duration"] // 6
    a = A_MULTIPLIERS[coreset.get("coreset_index", 0) % 3]
    counts = scenario["search_space"]["candidates_per_al"]
    cumulative = np.cumsum(scenario["al_distribution"])
    strategy, u = scenario.get("strategy", "low_to_high"), scenario["ue_count"]
    out = []
    for it in range(iterations):
        rng = np.random.default_rng([scenario.get("master_seed", 0), it])
        rntis = rng.integers(1, 65536, size=u)
        levels = np.minimum(np.searchsorted(cumulative, rng.random(u), side="right"), 4)
        order = [int(i) for i in rng.permutation(u)]
        if strategy != "unordered":
            order.sort(key=lambda i: levels[i], reverse=strategy == "high_to_low")
        used, blocked = set(), 0
        for i in order:
            L, M, y = ALS[levels[i]], counts[levels[i]], a * int(rntis[i]) % 65537
            starts = sorted(L * ((y + k * cces // (L * M)) % (cces // L))
                            for k in range(M)) if M and cces >= L else []
            free = [s for s in starts if used.isdisjoint(range(s, s + L))]
            if free:
                used.update(range(free[0], free[0] + L))
            else:
                blocked += 1
        out.append(blocked)
    return out
