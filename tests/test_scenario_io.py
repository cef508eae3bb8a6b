import csv
import json
from dataclasses import fields

import pytest

import pdcch_blocking
from pdcch_blocking import (SWEEP_AXES, ResultRecord, ScenarioParseError,
                            apply_axis, bundled_scenario_names,
                            bundled_scenario_path, emit_results,
                            parse_plan_request, parse_scenario,
                            scenario_from_dict, scenario_to_dict)
from pdcch_blocking.scenario_io import CSV_COLUMNS

MINIMAL = {
    "name": "minimal",
    "ue_count": 4,
    "coreset": {"cce_count": 12},
    "search_space": {"candidates_per_al": [6, 6, 4, 2, 1]},
    "al_distribution": [0.4, 0.3, 0.2, 0.05, 0.05],
}

PLAN = {
    "name": "plan",
    "ue_count": 5,
    "target_blocking": 0.2,
    "al_distribution": [0.05, 0.2, 0.5, 0.2, 0.05],
    "search_space": {"candidates_per_al": [6, 6, 4, 2, 1]},
    "cce_range": [6, 96],
}


def write(tmp_path, data, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# --- package exports ----------------------------------------------------------

def test_every_exported_name_resolves():
    assert all(hasattr(pdcch_blocking, name) for name in pdcch_blocking.__all__)
    # config errors surface as the config types' own ValueError
    assert not hasattr(pdcch_blocking, "ScenarioValidationError")


# --- parsing ----------------------------------------------------------------

def test_minimal_scenario_applies_defaults(tmp_path):
    scn = parse_scenario(write(tmp_path, MINIMAL))
    assert scn.name == "minimal"
    assert scn.config.iterations == 10000
    assert scn.config.strategy == "low_to_high"
    assert scn.config.master_seed == 0
    assert scn.config.coreset.cce_count == 12
    assert scn.sweep is None


def test_unknown_key_is_rejected_with_context(tmp_path):
    bad = dict(MINIMAL, corset={"cce_count": 12})
    with pytest.raises(ScenarioParseError, match="corset"):
        parse_scenario(write(tmp_path, bad))
    bad = dict(MINIMAL, coreset={"cce_count": 12, "symbols": 2})
    with pytest.raises(ScenarioParseError, match="symbols"):
        parse_scenario(write(tmp_path, bad))
    # the CORESET index, the slot and the search-space type are not modelled:
    # every UE hashes in a USS at slot 0 of a CORESET with index p mod 3 = 0;
    # nor are the CORESET's RBs and symbols, only its CCE count
    for section, key in (("coreset", "coreset_index"), ("search_space", "slot_index"),
                         ("search_space", "space_type"), ("coreset", "rb_count"),
                         ("coreset", "symbol_duration")):
        bad = dict(MINIMAL, **{section: dict(MINIMAL[section], **{key: 0})})
        with pytest.raises(ScenarioParseError,
                           match=fr"unknown key\(s\) in {section}: \['{key}'\]"):
            parse_scenario(write(tmp_path, bad))
    bad = dict(PLAN, search_space=dict(PLAN["search_space"], slot_index=0))
    with pytest.raises(ScenarioParseError,
                       match=r"unknown key\(s\) in search_space: \['slot_index'\]"):
        parse_plan_request(write(tmp_path, bad, "plan.json"))


def test_missing_key_is_rejected(tmp_path):
    bad = {k: v for k, v in MINIMAL.items() if k != "al_distribution"}
    with pytest.raises(ScenarioParseError, match="al_distribution"):
        parse_scenario(write(tmp_path, bad))
    with pytest.raises(ScenarioParseError,
                       match=r"missing key\(s\) in coreset: \['cce_count'\]"):
        parse_scenario(write(tmp_path, dict(MINIMAL, coreset={})))


def test_invalid_distribution_is_validation_error(tmp_path):
    bad = dict(MINIMAL, al_distribution=[0.4, 0.3, 0.1, 0.05, 0.05])
    with pytest.raises(ValueError, match="sum"):
        parse_scenario(write(tmp_path, bad))


def test_too_many_iterations_is_validation_error(tmp_path):
    with pytest.raises(ValueError, match="iterations must be <= 2\\*\\*32"):
        parse_scenario(write(tmp_path, dict(MINIMAL, iterations=2**32 + 1)))
    with pytest.raises(ValueError, match="iterations must be <= 2\\*\\*32"):
        parse_plan_request(write(tmp_path, dict(PLAN, iterations=2**32 + 1), "plan.json"))


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n "ue_count": }')
    with pytest.raises(ScenarioParseError, match="line 2"):
        parse_scenario(path)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ScenarioParseError):
        parse_scenario(tmp_path / "nope.json")


@pytest.mark.parametrize("parse", [parse_scenario, parse_plan_request])
def test_file_that_is_not_utf8_is_parse_error_naming_it(tmp_path, parse):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")  # a UTF-16 byte-order mark
    with pytest.raises(ScenarioParseError, match=r"cannot read .*utf16\.json: 'utf-8' codec"):
        parse(path)


# each case: (changes to a scenario file, changes to a plan file)
WRONG_JSON_TYPES = {
    "ue_count_float": ({"ue_count": 2.7}, {"ue_count": 2.7}),
    "iterations_bool": ({"iterations": True}, {"iterations": True}),
    "master_seed_float": ({"master_seed": 1.9}, {"master_seed": 1.9}),
    "name_int": ({"name": 5}, {"name": 5}),
    "unique_rntis_string": ({"unique_rntis": "false"}, {"unique_rntis": "false"}),
    "cce_count_string": ({"coreset": {"cce_count": "54"}}, {"cce_range": [6, "54"]}),
    "cce_count_float": ({"coreset": {"cce_count": 54.9}}, {"cce_range": [6, 54.9]}),
    "cce_count_bool": ({"coreset": {"cce_count": True}}, {"cce_range": [True, 54]}),
    "candidates_mixed": (
        {"search_space": {"candidates_per_al": [6.0, 6, 4, 2, "1"]}},
        {"search_space": {"candidates_per_al": [6.0, 6, 4, 2, "1"]}}),
    "sweep_null": ({"sweep": None}, {"sweep": None}),
    "al_distribution_scalar": ({"al_distribution": 5}, {"al_distribution": 5}),
}


@pytest.mark.parametrize("scenario_changes,plan_changes",
                         list(WRONG_JSON_TYPES.values()), ids=list(WRONG_JSON_TYPES))
def test_wrong_json_types_are_rejected(tmp_path, scenario_changes, plan_changes):
    with pytest.raises(ScenarioParseError):
        parse_scenario(write(tmp_path, dict(MINIMAL, **scenario_changes)))
    with pytest.raises(ScenarioParseError):
        parse_plan_request(write(tmp_path, dict(PLAN, **plan_changes), "plan.json"))


def test_nan_probability_is_a_validation_error(tmp_path):
    # JSON NaN is a number to the parser; the distribution must refuse it
    bad = dict(MINIMAL, al_distribution=[float("nan"), 0.5, 0, 0, 0.5])
    with pytest.raises(ValueError, match="finite"):
        parse_scenario(write(tmp_path, bad))


def test_sweep_section_parses(tmp_path):
    data = dict(MINIMAL, sweep={"axis": "ue_count", "points": [5, 10]})
    scn = parse_scenario(write(tmp_path, data))
    assert scn.sweep.axis == "ue_count"
    assert scn.sweep.points == (5, 10)
    for axis in ("bandwidth", "al_fixed"):
        bad = dict(MINIMAL, sweep={"axis": axis, "points": [1]})
        with pytest.raises(ValueError, match="axis"):
            parse_scenario(write(tmp_path, bad))


@pytest.mark.parametrize("points", [[], 5])
def test_sweep_points_must_be_a_non_empty_list(tmp_path, points):
    data = dict(MINIMAL, sweep={"axis": "ue_count", "points": points})
    with pytest.raises(ScenarioParseError, match="non-empty list"):
        parse_scenario(write(tmp_path, data))


# One valid point per sweep axis; an axis added to SWEEP_AXES needs one here.
VALID_SWEEP_POINTS = {
    "ue_count": 5, "coreset_size": 30,
    "candidate_counts": {"name": "one", "counts": [1, 1, 1, 1, 1]},
    "al_distribution": {"name": "al4", "probabilities": [0, 0, 1, 0, 0]},
    "strategy": "high_to_low",
}


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_valid_sweep_point_parses_and_applies(tmp_path, axis):
    sweep = {"axis": axis, "points": [VALID_SWEEP_POINTS[axis]]}
    scn = parse_scenario(write(tmp_path, dict(MINIMAL, sweep=sweep)))
    cfg = apply_axis(scn.config, axis, scn.sweep.points[0])
    assert cfg != scn.config


WRONG_SWEEP_POINTS = {
    "ue_count_float": ("ue_count", 2.7),
    "ue_count_bool": ("ue_count", True),
    "ue_count_string": ("ue_count", "3"),
    "coreset_size_float": ("coreset_size", 54.0),
    "strategy_int": ("strategy", 1),
    "candidate_counts_string_entry": ("candidate_counts",
                                      {"name": "r", "counts": [6, 6, 4, 2, "1"]}),
    "candidate_counts_float_entry": ("candidate_counts",
                                     {"name": "r", "counts": [6.5, 6, 4, 2, 1]}),
    "candidate_counts_scalar": ("candidate_counts", 6),
    "candidate_counts_unnamed_list": ("candidate_counts", [6, 6, 4, 2, 1]),
    "al_distribution_bool_entry": ("al_distribution",
                                   {"name": "b", "probabilities": [True, 0, 0, 0, 0]}),
    "al_distribution_unnamed": ("al_distribution", {"probabilities": [1, 0, 0, 0, 0]}),
    "al_distribution_name_int": ("al_distribution",
                                 {"name": 5, "probabilities": [1, 0, 0, 0, 0]}),
    "al_distribution_extra_key": ("al_distribution",
                                  {"probabilities": [1, 0, 0, 0, 0], "weight": 1}),
}


@pytest.mark.parametrize("axis,point", list(WRONG_SWEEP_POINTS.values()),
                         ids=list(WRONG_SWEEP_POINTS))
def test_sweep_points_are_type_checked(tmp_path, axis, point):
    sweep = {"axis": axis, "points": [point]}
    with pytest.raises(ScenarioParseError, match=r"sweep\.points\[0\]"):
        parse_scenario(write(tmp_path, dict(MINIMAL, sweep=sweep)))


def test_typed_sweep_points_parse(tmp_path):
    counts = [{"name": "full", "counts": [6, 6, 4, 2, 1]},
              {"name": "reduced", "counts": [1, 1, 1, 1, 1]}]
    data = dict(MINIMAL, sweep={"axis": "candidate_counts", "points": counts})
    assert parse_scenario(write(tmp_path, data)).sweep.points == tuple(counts)
    probs = [{"name": "al1", "probabilities": [1, 0, 0, 0, 0]},
             {"name": "half", "probabilities": [0.5, 0.5, 0, 0, 0]}]
    data = dict(MINIMAL, sweep={"axis": "al_distribution", "points": probs})
    assert parse_scenario(write(tmp_path, data)).sweep.points == tuple(probs)


def test_roundtrip_normalization_is_stable(tmp_path):
    scn = parse_scenario(write(tmp_path, MINIMAL))
    normalized = scenario_to_dict(scn)
    again = scenario_to_dict(scenario_from_dict(normalized))
    assert normalized == again


@pytest.mark.parametrize("name", ["MINIMAL"] + [
    name for name in bundled_scenario_names() if not name.startswith("plan_")])
def test_to_dict_parses_back_to_the_same_scenario(name):
    scn = (scenario_from_dict(MINIMAL) if name == "MINIMAL"
           else parse_scenario(bundled_scenario_path(name)))
    assert scenario_from_dict(scenario_to_dict(scn)) == scn


# --- bundled scenarios --------------------------------------------------------

def test_bundled_scenarios_all_load():
    names = bundled_scenario_names()
    assert len(names) >= 10
    for name in names:
        if name.startswith("plan_"):
            plan_name, req = parse_plan_request(bundled_scenario_path(name))
            assert plan_name == name
            assert req.base.iterations == 10000
        else:
            scn = parse_scenario(bundled_scenario_path(name))
            assert scn.name == name
            assert scn.figure  # each study names the figure it reproduces


def test_bundled_fig4_matches_study_setup():
    scn = parse_scenario(bundled_scenario_path("fig4_ue_sweep"))
    assert scn.config.coreset.cce_count == 54
    assert scn.config.candidates_per_al == (6, 6, 4, 2, 1)
    assert scn.config.al_distribution == (0.4, 0.3, 0.2, 0.05, 0.05)
    assert scn.config.iterations == 10000
    assert scn.sweep.axis == "ue_count"
    assert set(scn.sweep.points) >= set(range(5, 51, 5))


def test_bundled_fig8_names_three_coverage_mixes():
    scn = parse_scenario(bundled_scenario_path("fig8_coverage"))
    points = {p["name"]: tuple(p["probabilities"]) for p in scn.sweep.points}
    assert points["good"] == (0.5, 0.4, 0.07, 0.02, 0.01)
    assert points["medium"] == (0.05, 0.2, 0.5, 0.2, 0.05)
    assert points["extreme"] == (0.01, 0.02, 0.07, 0.4, 0.5)


def test_unknown_bundled_name():
    with pytest.raises(ScenarioParseError, match="available"):
        bundled_scenario_path("fig99_nothing")


# --- plan request files --------------------------------------------------------

def test_plan_request_parses(tmp_path):
    name, req = parse_plan_request(write(tmp_path, PLAN))
    assert name == "plan"
    assert (req.cce_min, req.cce_max) == (6, 96)
    assert req.base.iterations == 10000
    assert req.base == scenario_from_dict(
        {k: v for k, v in PLAN.items() if k not in ("target_blocking", "cce_range")}
        | {"coreset": {"cce_count": 96}}).config
    bad = dict(PLAN, cce_range=[6])
    with pytest.raises(ScenarioParseError, match="cce_range"):
        parse_plan_request(write(tmp_path, bad, "p2.json"))


@pytest.mark.parametrize("key,value", [("coreset", {"cce_count": 54}),
                                       ("sweep", {"axis": "ue_count", "points": [5]}),
                                       ("coreset_index", 1)])
def test_plan_request_rejects_scenario_only_keys(tmp_path, key, value):
    with pytest.raises(ScenarioParseError, match=key):
        parse_plan_request(write(tmp_path, dict(PLAN, **{key: value})))


def test_plan_request_validates_planning_values(tmp_path):
    with pytest.raises(ValueError, match="target_blocking"):
        parse_plan_request(write(tmp_path, dict(PLAN, target_blocking=1.5)))
    # the range is reported under its own names, not as the base's CORESET
    for cce_range, key in (([50, 40], "cce_max"), ([5, 0], "cce_max"), ([0, 0], "cce_min")):
        with pytest.raises(ValueError, match=key):
            parse_plan_request(write(tmp_path, dict(PLAN, cce_range=cce_range)))


# --- result records -------------------------------------------------------------

def records():
    return [
        ResultRecord("fig4_ue_sweep", "15", 0.0821, 0.00071, 12315, 137685, 42, 10000),
        ResultRecord("fig4_ue_sweep", "30", 1 / 3, 0.00081, 100000, 200000, 42, 10000),
        ResultRecord("plan_fig11", "22", 0.1974, 0.0056290894467933, 987, 4013, 55, 1000,
                     target_blocking=0.2, decision="answer"),
    ]


def read_csv(path):
    """The records of a CSV file, each cell parsed as its field's type and
    the empty cell of a field that defaults to None read as None."""
    with open(path, newline="", encoding="utf-8") as handle:
        return [ResultRecord(**{
            f.name: None if f.default is None and row[f.name] == "" else f.type(row[f.name])
            for f in fields(ResultRecord)}) for row in csv.DictReader(handle)]


def test_csv_has_header_and_one_row_per_record(tmp_path):
    path = tmp_path / "out.csv"
    emit_results(records(), "csv", path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == len(records()) + 1
    assert lines[0] == ",".join(CSV_COLUMNS) == (
        "scenario,point,blocking_probability,stderr,blocked_total,scheduled_total,"
        "seed,iterations,target_blocking,decision")
    assert lines[1].endswith(",42,10000,,")  # a sweep row leaves the plan columns empty
    assert lines[3].endswith(",55,1000,0.2,answer")


def test_csv_roundtrip_is_lossless(tmp_path):
    path = tmp_path / "out.csv"
    emit_results(records(), "csv", path)
    assert read_csv(path) == records()


def test_json_roundtrip_is_lossless(tmp_path):
    path = tmp_path / "out.json"
    emit_results(records(), "json", path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(payload, list) and payload[0]["scenario"] == "fig4_ue_sweep"
    assert payload[0]["target_blocking"] is None and payload[0]["decision"] is None
    assert [ResultRecord(**row) for row in payload] == records()


def test_emit_rejects_empty_and_bad_format(tmp_path):
    for empty in ([], iter([])):
        with pytest.raises(ValueError, match="no records to emit"):
            emit_results(empty, "csv", tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()
    with pytest.raises(ValueError):
        emit_results(records(), "xml", tmp_path / "x.xml")


def test_emit_surfaces_io_errors(tmp_path):
    with pytest.raises(OSError):
        emit_results(records(), "csv", tmp_path / "missing" / "out.csv")


def test_output_dir_env_redirects_relative_paths(tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    outdir.mkdir()
    monkeypatch.setenv("PDCCH_SIM_OUTDIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    written = emit_results(records(), "csv", "relative.csv")
    assert written == outdir / "relative.csv"
    assert written.exists()
