"""Acceptance gate: every reproduction and oracle criterion at its stated
tolerance, one printed PASS/FAIL line per criterion (run with `pytest -s`).

All Monte Carlo checks use the bundled scenarios at 10000 iterations and
report stderr alongside the estimate.
"""

import math
import time

import numpy as np
import pytest
from reference import reference_start

from pdcch_blocking import (bundled_scenario_path, candidate_starts,
                            parse_plan_request, parse_scenario,
                            plan_min_coreset, run_scenario, run_sweep,
                            apply_axis)


def _line(tag, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status}: {detail}")
    return ok


def _sweep(name):
    scenario = parse_scenario(bundled_scenario_path(name))
    points = run_sweep(scenario.config, scenario.sweep.axis, scenario.sweep.points,
                       workers=2)
    assert all(sp.result is not None for sp in points), \
        f"sweep {name} had failing points"
    return scenario, {sp.label: sp.result for sp in points}


def test_criterion_1_ue_count_reproduction():
    scenario = parse_scenario(bundled_scenario_path("fig4_ue_sweep"))
    start = time.monotonic()
    b15 = run_scenario(apply_axis(scenario.config, "ue_count", 15))
    b30 = run_scenario(apply_axis(scenario.config, "ue_count", 30))
    elapsed = time.monotonic() - start
    ok = (abs(b15.blocking_probability - 0.06) <= 0.05
          and abs(b30.blocking_probability - 0.27) <= 0.05
          and elapsed < 60.0)
    _line("C1", ok,
          f"fig4 B(U=15)={b15.blocking_probability:.4f}+/-{b15.stderr:.4f} "
          f"(target 0.06+/-0.05), B(U=30)={b30.blocking_probability:.4f}"
          f"+/-{b30.stderr:.4f} (target 0.27+/-0.05), runtime {elapsed:.1f}s < 60s")
    assert ok


def test_criterion_2_coreset_size_reproduction():
    _, results = _sweep("fig5_coreset_sweep")
    b30, b60 = results["30"], results["60"]
    endpoints_ok = (abs(b30.blocking_probability - 0.36) <= 0.05
                    and abs(b60.blocking_probability - 0.10) <= 0.05)
    ordered = [results[str(c)] for c in range(24, 85, 6)]
    monotone_ok = all(
        nxt.blocking_probability <= cur.blocking_probability
        + 2.0 * math.hypot(cur.stderr, nxt.stderr)
        for cur, nxt in zip(ordered, ordered[1:]))
    _line("C2", endpoints_ok and monotone_ok,
          f"fig5 B(C=30)={b30.blocking_probability:.4f}+/-{b30.stderr:.4f} "
          f"(target 0.36+/-0.05), B(C=60)={b60.blocking_probability:.4f}"
          f"+/-{b60.stderr:.4f} (target 0.10+/-0.05), "
          f"nonincreasing within 2*stderr: {monotone_ok}")
    assert endpoints_ok and monotone_ok


def _largest_ue_count_below(config, threshold, hi=60):
    cache = {}

    def blocking(u):
        if u not in cache:
            cache[u] = run_scenario(apply_axis(config, "ue_count", u), workers=2)
        return cache[u].blocking_probability

    lo = 1
    assert blocking(hi) >= threshold
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if blocking(mid) < threshold:
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_criterion_3_fixed_al_capacity():
    targets = {2: 33, 4: 16, 8: 6, 16: 2}
    observed = {}
    for al in targets:
        scenario = parse_scenario(bundled_scenario_path(f"fig7_al{al}_ue_sweep"))
        observed[al] = _largest_ue_count_below(scenario.config, 0.2)
    ok = all(abs(observed[al] - targets[al]) <= 2 for al in targets)
    _line("C3", ok,
          f"fig7 largest U with B<0.2 per AL: {observed} (targets {targets}, +/-2)")
    assert ok


def test_criterion_4_coverage_distributions():
    _, results = _sweep("fig8_coverage")
    good = results["good"].blocking_probability
    medium = results["medium"].blocking_probability
    extreme = results["extreme"].blocking_probability
    close = (abs(good - 0.02) <= 0.06 and abs(medium - 0.38) <= 0.06
             and abs(extreme - 0.72) <= 0.06)
    ordered = good < medium < extreme
    _line("C4", close and ordered,
          f"fig8 B good/medium/extreme = {good:.4f}/{medium:.4f}/{extreme:.4f} "
          f"(targets 0.02/0.38/0.72 +/-0.06, strict ordering {ordered})")
    assert close and ordered


def test_criterion_5_reduced_blind_decodes():
    _, results = _sweep("fig9_bd_reduction")
    ref = results["reference"].blocking_probability
    ratio_a = results["reduced_a"].blocking_probability / ref
    ratio_b = results["reduced_b"].blocking_probability / ref
    ok = 1.4 <= ratio_a <= 2.4 and 2.2 <= ratio_b <= 3.8
    _line("C5", ok,
          f"fig9 B(case A)/B(ref)={ratio_a:.2f} (window [1.4, 2.4]), "
          f"B(case B)/B(ref)={ratio_b:.2f} (window [2.2, 3.8]), ref B={ref:.4f}")
    assert ok


def test_criterion_6_strategy_comparison():
    _, at40 = _sweep("fig10_strategy_u40")
    _, at10 = _sweep("fig10_strategy_u10")
    ratio = (at40["high_to_low"].blocking_probability
             / at40["low_to_high"].blocking_probability)
    gap = abs(at10["high_to_low"].blocking_probability
              - at10["low_to_high"].blocking_probability)
    ok = 1.5 <= ratio <= 2.3 and gap <= 0.02
    _line("C6", ok,
          f"fig10 B(high)/B(low) at U=40 = {ratio:.2f} (window [1.5, 2.3]), "
          f"|B(high)-B(low)| at U=10 = {gap:.4f} (<= 0.02)")
    assert ok


def test_criterion_7_planner_small_endpoint():
    _, request = parse_plan_request(bundled_scenario_path("plan_fig11_u5_target20"))
    result = plan_min_coreset(request, workers=2)
    ok = result.min_cces is not None and 16 <= result.min_cces <= 24
    _line("C7a", ok,
          f"fig11 min CORESET (U=5, target 20%) = {result.min_cces} CCEs "
          f"(target ~20, window [16, 24], achieved B={result.achieved_blocking})")
    assert ok


def test_criterion_7_planner_large_endpoint():
    _, request = parse_plan_request(bundled_scenario_path("plan_fig11_u15_target5"))
    result = plan_min_coreset(request, workers=2)
    ok = result.min_cces is not None and 80 <= result.min_cces <= 120
    _line("C7b", ok,
          f"fig11 min CORESET (U=15, target 5%) = {result.min_cces} CCEs "
          f"(target ~100, window [80, 120], achieved B={result.achieved_blocking})")
    assert ok


def test_criterion_8_hash_golden_vectors():
    # against the reference model's transcription of the candidate position
    # rule, written over float floor division rather than integer ops
    rng = np.random.default_rng(2024)
    y_values = [int(v) for v in rng.integers(0, 65537, size=20)]
    checked = 0
    mismatches = 0
    for level in (1, 2, 4, 8, 16):
        for cce_count in range(6, 97, 6):
            for count in range(1, 9):
                for k in range(count):
                    for y in y_values:
                        expected = reference_start(level, k, cce_count, count, y)
                        if expected is None:
                            with pytest.raises(ValueError, match="does not fit in a CORESET"):
                                candidate_starts(level, cce_count, count, y)
                        elif candidate_starts(level, cce_count, count, y)[k] != expected:
                            mismatches += 1
                        checked += 1
    ok = mismatches == 0
    _line("C8", ok, f"hash golden vectors: {checked} cases, {mismatches} mismatches")
    assert ok


def test_criterion_9_analytic_oracle():
    import dataclasses

    from pdcch_blocking import CoresetConfig, ScenarioConfig
    failures = []
    for u in (2, 5, 10):
        cfg = ScenarioConfig(ue_count=u,
                             coreset=CoresetConfig.from_cce_count(16),
                             candidates_per_al=(0, 0, 0, 0, 1),
                             al_distribution=(0, 0, 0, 0, 1.0),
                             iterations=10000,
                             master_seed=1000 + u)
        result = run_scenario(cfg, keep_per_iteration=True)
        if set(result.per_iteration_blocked) != {u - 1}:
            failures.append(u)
    ok = not failures
    _line("C9", ok,
          "analytic oracle (AL16, M=1, C=16): blocked == U-1 in every one of "
          f"10000 iterations for U in (2, 5, 10); failures: {failures or 'none'}")
    assert ok


def test_criterion_10_deterministic_reruns_and_parallelism():
    scenario = parse_scenario(bundled_scenario_path("fig10_strategy_u10"))
    runs = [run_scenario(scenario.config, keep_per_iteration=True),
            run_scenario(scenario.config, keep_per_iteration=True),
            run_scenario(scenario.config, workers=2, keep_per_iteration=True),
            run_scenario(scenario.config, workers=5, keep_per_iteration=True)]
    totals = {r.blocked_total for r in runs}
    traces = {r.per_iteration_blocked for r in runs}
    ok = len(totals) == 1 and len(traces) == 1
    _line("C10", ok,
          f"determinism: serial x2 and workers 2/5 all gave blocked_total="
          f"{runs[0].blocked_total} ({'bit-identical' if ok else 'MISMATCH'})")
    assert ok
