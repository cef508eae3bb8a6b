"""Command-line front end: simulate, sweep, plan, list.

Exit codes: 0 success; 1 validation or parse error, every sweep point checked
before any runs; 2 runtime error, a worker that dies included, or argparse usage error.
"""

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .planner import plan_min_coreset
from .scenario_io import (FORMAT_CSV, FORMATS, Scenario, ScenarioParseError,
                          bundled_scenario_names, bundled_scenario_path,
                          emit_results, parse_plan_request, parse_scenario,
                          records_for_sweep)
from .simulation import SweepPoint, run_scenario, run_sweep


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and shared by every
    later ``main`` in the process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="pdcch-sim",
        description="PDCCH blocking-probability simulator and CORESET planner")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the file's master seed")
        p.add_argument("--iterations", type=int, default=None,
                       help="override the file's iteration count")
        p.add_argument("--out", default=None,
                       help="write results to this file (relative paths go to "
                            "$PDCCH_SIM_OUTDIR when set)")
        p.add_argument("--format", choices=FORMATS, default=FORMAT_CSV,
                       help="output file format (default csv)")
        p.add_argument("--workers", type=int, default=None,
                       help="processes to split the iterations over, the calling "
                            "one included; a run too small to pay for a "
                            "process pool stays serial (default serial)")

    p_sim = sub.add_parser("simulate", help="run one scenario's base configuration")
    p_sim.add_argument("scenario", help="scenario file path or bundled scenario name")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a scenario's parameter sweep")
    p_sweep.add_argument("scenario", help="scenario file path or bundled scenario name")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plan = sub.add_parser("plan",
                            help="minimum CORESET size for a blocking target")
    p_plan.add_argument("request", help="plan request file path or bundled name")
    add_common(p_plan)
    p_plan.set_defaults(func=_cmd_plan)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.set_defaults(func=_cmd_list)
    return parser


def _resolve_file(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    return bundled_scenario_path(name)


def _with_overrides(config, **flags):
    """``config`` with each field whose flag was given set to that flag."""
    return dataclasses.replace(
        config, **{field: value for field, value in flags.items() if value is not None})


def _load_scenario(args) -> Scenario:
    scenario = parse_scenario(_resolve_file(args.scenario))
    return dataclasses.replace(scenario, config=_with_overrides(
        scenario.config, master_seed=args.seed, iterations=args.iterations))


def _emit(records, args):
    if args.out:
        path = emit_results(records, args.format, args.out)
        print(f"wrote {len(records)} record(s) to {path}")


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    result = run_scenario(scenario.config, workers=args.workers)
    print(f"{scenario.name}: B={result.blocking_probability:.6g} "
          f"stderr={result.stderr:.3g} blocked={result.blocked_total} "
          f"scheduled={result.scheduled_total} "
          f"(U={result.ue_count}, C={scenario.config.coreset.cce_count}, "
          f"iterations={result.iterations}, seed={result.master_seed})")
    _emit(records_for_sweep(scenario.name, [SweepPoint(None, "", result)]), args)
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    if scenario.sweep is None:
        raise ScenarioParseError(
            f"scenario {scenario.name!r} has no sweep section; use `simulate`")
    points = run_sweep(scenario.config, scenario.sweep.axis, scenario.sweep.points,
                       workers=args.workers)
    print(f"{scenario.name}: sweep over {scenario.sweep.axis}")
    for sp in points:
        print(f"  {sp.label:>24}  B={sp.result.blocking_probability:.6g}  "
              f"stderr={sp.result.stderr:.3g}")
    _emit(records_for_sweep(scenario.name, points), args)
    return 0


def _cmd_plan(args) -> int:
    name, request = parse_plan_request(_resolve_file(args.request))
    request = dataclasses.replace(request, base=_with_overrides(
        request.base, master_seed=args.seed, iterations=args.iterations))
    result = plan_min_coreset(request, workers=args.workers)
    target = request.target_blocking
    if result.min_cces is None:
        print(f"{name}: no CORESET size in [{request.cce_min}, {request.cce_max}] "
              f"meets target B <= {target}")
    else:
        print(f"{name}: min CORESET size = {result.min_cces} CCEs "
              f"(B={result.achieved_blocking:.6g}, target {target}, "
              f"U={request.base.ue_count}, {len(result.points)} evaluations)")
    _emit(records_for_sweep(name, result.points, target, result.decisions(target)), args)
    return 0


def _cmd_list(args) -> int:
    for name in bundled_scenario_names():
        print(name)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as exc:  # a worker that dies raises BrokenProcessPool
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
