"""Monte Carlo blocking-probability simulation and CORESET planning for the
5G NR physical downlink control channel."""

from .coreset import AGGREGATION_LEVELS, CoresetConfig
from .planner import PlanningRequest, PlanningResult, plan_min_coreset
from .scenario_io import (ResultRecord, Scenario, ScenarioParseError, SweepSpec,
                          bundled_scenario_names, bundled_scenario_path,
                          emit_results, parse_plan_request, parse_scenario,
                          scenario_from_dict, scenario_to_dict)
from .simulation import (ALLOWED_CANDIDATE_COUNTS, RNTI_MAX, STRATEGIES,
                         STRATEGY_HIGH_TO_LOW, STRATEGY_LOW_TO_HIGH,
                         STRATEGY_UNORDERED, SWEEP_AXES, ScenarioConfig,
                         SimulationResult, SweepPoint, apply_axis,
                         candidate_starts, iteration_rng, run_scenario,
                         run_sweep, y_value)

__version__ = "0.1.0"

__all__ = [
    "AGGREGATION_LEVELS", "ALLOWED_CANDIDATE_COUNTS", "RNTI_MAX", "STRATEGIES",
    "STRATEGY_HIGH_TO_LOW", "STRATEGY_LOW_TO_HIGH", "STRATEGY_UNORDERED",
    "SWEEP_AXES",
    "CoresetConfig", "PlanningRequest", "PlanningResult", "ResultRecord",
    "Scenario", "ScenarioConfig", "ScenarioParseError", "SimulationResult",
    "SweepPoint", "SweepSpec",
    "apply_axis", "bundled_scenario_names", "bundled_scenario_path",
    "candidate_starts", "emit_results", "iteration_rng", "parse_plan_request",
    "parse_scenario", "plan_min_coreset", "run_scenario", "run_sweep",
    "scenario_from_dict", "scenario_to_dict", "y_value",
]
