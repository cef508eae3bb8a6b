"""Scenario files, bundled studies, and result serialization.

Scenario files are JSON with strict key and type checking: bad JSON, an
unknown or missing key, a wrong JSON type or a malformed section is a
ScenarioParseError, so typos cannot fall back to defaults or be coerced; a
config type's own ValueError passes through. A plan file is a scenario file
with ``target_blocking`` and ``cce_range`` in place of ``coreset``. Every
command's results go out as ResultRecords, in CSV (one header row, fixed
column order) or JSON. Files are read and written as UTF-8.
"""

import csv
import json
import os
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path

from .coreset import CoresetConfig, as_integer
from .planner import PlanningRequest
from .simulation import SWEEP_AXES, ScenarioConfig, check_axis

OUTPUT_DIR_ENV = "PDCCH_SIM_OUTDIR"

FORMAT_CSV = "csv"
FORMAT_JSON = "json"
FORMATS = (FORMAT_CSV, FORMAT_JSON)

# The JSON type of every key of a file section, keyed by the allowed keys:
# int is a JSON integer (never a boolean), float any JSON number, [kind] a list
# of kinds, and object any value, which the section's builder checks.
_SCENARIO = {"name": str, "description": str, "figure": str, "ue_count": int,
             "coreset": object, "search_space": object, "al_distribution": [float],
             "strategy": str, "iterations": int, "master_seed": int, "sweep": object}
_SCENARIO_REQUIRED = {"name", "ue_count", "coreset", "search_space", "al_distribution"}
_CORESET = {"cce_count": int}
_SEARCH_SPACE = {"candidates_per_al": [int]}
_SWEEP = {"axis": str, "points": object}
_PLAN_ONLY = {"target_blocking": float, "cce_range": [int]}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


class ScenarioParseError(ValueError):
    """The file is not readable as a scenario: bad JSON, keys, types or shape."""


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    points: tuple


@dataclass(frozen=True)
class Scenario:
    """A named, fully validated configuration, optionally with a sweep."""

    name: str
    config: ScenarioConfig
    sweep: SweepSpec = None
    figure: str = None
    description: str = None


@dataclass(frozen=True)
class ResultRecord:
    """One serializable result row; its fields are the CSV columns, in order.
    Only a plan's rows set ``target_blocking`` and ``decision``."""

    scenario: str
    point: str
    blocking_probability: float
    stderr: float
    blocked_total: int
    scheduled_total: int
    seed: int
    iterations: int
    target_blocking: float = None
    decision: str = None


CSV_COLUMNS = tuple(field.name for field in fields(ResultRecord))


def _typed(value, kind, where):
    """``value`` when it has the JSON type ``kind``, else a parse error; a
    list comes back as a tuple."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ScenarioParseError(f"{where} must be a list, got {json.dumps(value)}")
        return tuple(_typed(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value))
    if kind is object:
        return value
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ScenarioParseError(
            f"{where} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")
    return value


def _section(data, table, required, context, path=None) -> dict:
    """The keys of the object ``data``, each type-checked against ``table``,
    which also lists the allowed keys; an absent key keeps the config's
    default. A value is reported as ``path.key``, ``path`` defaulting to
    ``context``; the top level has path ""."""
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{context} must be an object, got {type(data).__name__}")
    unknown = set(data) - set(table)
    if unknown:
        raise ScenarioParseError(f"unknown key(s) in {context}: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ScenarioParseError(f"missing key(s) in {context}: {sorted(missing)}")
    path = context if path is None else path
    return {key: _typed(value, table[key], f"{path}.{key}" if path else key)
            for key, value in data.items()}


def _sweep_point(axis, point, where):
    """``point`` type-checked for ``axis``: a ``kind``, or on a list axis a
    named point {"name": ..., key: [kind, ...]}."""
    kind, key, _ = SWEEP_AXES[axis]
    if key is None:
        return _typed(point, kind, where)
    _section(point, {"name": str, key: [kind]}, {"name", key}, where)
    return point


def _sweep_from_dict(data) -> SweepSpec:
    values = _section(data, _SWEEP, {"axis", "points"}, "sweep")
    check_axis(values["axis"])
    points = values["points"]
    if not isinstance(points, list) or not points:
        raise ScenarioParseError("sweep points must be a non-empty list")
    values["points"] = tuple(_sweep_point(values["axis"], p, f"sweep.points[{i}]")
                             for i, p in enumerate(points))
    return SweepSpec(**values)


def _scenario(values, cce_count, sweep=None) -> Scenario:
    """The Scenario of a file's checked top level ``values``, its sweep and
    CORESET taken out, on a CORESET of ``cce_count`` CCEs."""
    labels = {key: values.pop(key) for key in ("name", "figure", "description")
              if key in values}
    config = ScenarioConfig(
        coreset=CoresetConfig.from_cce_count(cce_count),
        **_section(values.pop("search_space"), _SEARCH_SPACE, {"candidates_per_al"},
                   "search_space"),
        **values)
    return Scenario(config=config, sweep=sweep, **labels)


def scenario_from_dict(data) -> Scenario:
    """Build a validated Scenario from a parsed mapping, applying defaults."""
    values = _section(data, _SCENARIO, _SCENARIO_REQUIRED, "scenario", "")
    sweep = _sweep_from_dict(values.pop("sweep")) if "sweep" in values else None
    coreset = _section(values.pop("coreset"), _CORESET, {"cce_count"}, "coreset")
    return _scenario(values, coreset["cce_count"], sweep)


def _load_json(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def parse_scenario(path) -> Scenario:
    """Parse and validate one scenario file."""
    return scenario_from_dict(_load_json(path))


def scenario_to_dict(scenario: Scenario) -> dict:
    """Normalized mapping form of a scenario: its fields as JSON values, the
    config's fields lifted before ``sweep``, ``candidates_per_al`` under
    ``search_space`` as in a file, and no None-valued key;
    parse(scenario_to_dict(s)) == s."""
    data = json.loads(json.dumps(asdict(scenario)))
    data |= data.pop("config") | {"sweep": data.pop("sweep")}
    data["search_space"] = {"candidates_per_al": data.pop("candidates_per_al")}
    return {k: v for k, v in data.items() if v is not None}


def parse_plan_request(path):
    """Parse a plan file: a scenario file, without a sweep, that has
    ``target_blocking`` and ``cce_range: [min, max]`` in place of
    ``coreset``. Returns (name, PlanningRequest)."""
    data = _load_json(path)
    table = {key: kind for key, kind in _SCENARIO.items()
             if key not in ("coreset", "sweep")} | _PLAN_ONLY
    values = _section(data, table, (_SCENARIO_REQUIRED - {"coreset"}) | set(_PLAN_ONLY),
                      "plan request", "")
    target, cce_range = values.pop("target_blocking"), values.pop("cce_range")
    if len(cce_range) != 2:
        raise ScenarioParseError("cce_range must be [min, max]")
    # PlanningRequest's range check, before the base is built at the max
    as_integer("cce_max", cce_range[1], as_integer("cce_min", cce_range[0], 1))
    scenario = _scenario(values, cce_range[1])
    return scenario.name, PlanningRequest(base=scenario.config, target_blocking=target,
                                          cce_min=cce_range[0], cce_max=cce_range[1])


def bundled_scenario_names() -> list:
    """Names of the scenario and plan-request files shipped with the package."""
    root = resources.files("pdcch_blocking").joinpath("scenarios")
    return sorted(p.name[:-len(".json")] for p in root.iterdir()
                  if p.name.endswith(".json"))


def bundled_scenario_path(name: str) -> Path:
    root = resources.files("pdcch_blocking").joinpath("scenarios")
    path = root.joinpath(f"{name}.json")
    if not path.is_file():
        raise ScenarioParseError(
            f"no bundled scenario {name!r}; available: {bundled_scenario_names()}")
    return Path(str(path))


def records_for_sweep(scenario_name: str, points, target_blocking=None,
                      decisions=None) -> list:
    """ResultRecords for the points of a sweep, in sweep order, each with its
    result's own seed and iterations; a single run is a one-point sweep. A
    plan's points also take its target and one decision each."""
    return [ResultRecord(
        scenario=scenario_name, point=sp.label,
        blocking_probability=sp.result.blocking_probability, stderr=sp.result.stderr,
        blocked_total=sp.result.blocked_total, scheduled_total=sp.result.scheduled_total,
        seed=sp.result.master_seed, iterations=sp.result.iterations,
        target_blocking=target_blocking, decision=decision)
        for sp, decision in zip(points, decisions or [None] * len(points), strict=True)]


def resolve_output_path(path) -> Path:
    """Relative output paths land in $PDCCH_SIM_OUTDIR when it is set."""
    path = Path(path)
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    if outdir and not path.is_absolute():
        return Path(outdir) / path
    return path


def emit_results(records, fmt: str, path) -> Path:
    """Write records to ``path`` as UTF-8. CSV: header plus one row per
    record, columns in CSV_COLUMNS order, None as an empty cell; JSON: an
    array of record objects, None as null. Floats keep full precision
    (shortest round-trip form)."""
    records = list(records)
    if not records:
        raise ValueError("no records to emit")
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    path = resolve_output_path(path)
    rows = [{col: getattr(r, col) for col in CSV_COLUMNS} for r in records]
    if fmt == FORMAT_CSV:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)  # str(float) is its shortest round-trip form
    else:
        path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return path
