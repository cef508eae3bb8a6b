import argparse
import json
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from pdcch_blocking import (bundled_scenario_path, load_results, parse_plan_request,
                            plan_min_coreset, run_sweep, simulation)
from pdcch_blocking import cli
from pdcch_blocking.cli import main
from pdcch_blocking.scenario_io import records_for_sweep

SCENARIO = {
    "name": "tiny",
    "ue_count": 4,
    "coreset": {"cce_count": 24},
    "search_space": {"candidates_per_al": [6, 6, 4, 2, 1]},
    "al_distribution": [0.4, 0.3, 0.2, 0.05, 0.05],
    "iterations": 200,
    "master_seed": 9,
    "sweep": {"axis": "ue_count", "points": [2, 4]},
}

README = Path(__file__).resolve().parents[1] / "README.md"

PLAN = {"name": "small_plan", "ue_count": 5, "target_blocking": 0.1,
        "al_distribution": [0.4, 0.3, 0.2, 0.05, 0.05],
        "search_space": {"candidates_per_al": [6, 6, 4, 2, 1]},
        "cce_range": [6, 48], "iterations": 200, "master_seed": 3}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def test_simulate_prints_summary(scenario_file, capsys):
    assert main(["simulate", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "tiny" in out and "B=" in out and "seed=9" in out


def test_simulate_writes_csv(scenario_file, tmp_path, capsys):
    out_path = tmp_path / "res.csv"
    assert main(["simulate", str(scenario_file), "--out", str(out_path)]) == 0
    records = load_results(out_path)
    assert len(records) == 1
    assert records[0].scenario == "tiny"
    assert records[0].iterations == 200
    assert 0.0 <= records[0].blocking_probability <= 1.0


def test_flag_overrides_apply(scenario_file, tmp_path):
    out_path = tmp_path / "res.csv"
    assert main(["simulate", str(scenario_file), "--iterations", "50",
                 "--seed", "77", "--out", str(out_path)]) == 0
    record = load_results(out_path)[0]
    assert record.iterations == 50
    assert record.seed == 77


def test_sweep_writes_one_row_per_point(scenario_file, tmp_path):
    out_path = tmp_path / "sweep.json"
    assert main(["sweep", str(scenario_file), "--format", "json",
                 "--out", str(out_path)]) == 0
    records = load_results(out_path)
    assert [r.point for r in records] == ["2", "4"]


def test_sweep_without_section_fails(tmp_path):
    data = {k: v for k, v in SCENARIO.items() if k != "sweep"}
    path = tmp_path / "nosweep.json"
    path.write_text(json.dumps(data))
    assert main(["sweep", str(path)]) == 1


def test_bundled_scenario_resolves_by_name(tmp_path):
    out_path = tmp_path / "fig8.csv"
    assert main(["simulate", "fig8_coverage", "--iterations", "50",
                 "--out", str(out_path)]) == 0
    assert load_results(out_path)[0].scenario == "fig8_coverage"


def test_unknown_scenario_exits_one(capsys):
    assert main(["simulate", "fig99_nothing"]) == 1
    assert "available" in capsys.readouterr().err


def test_invalid_scenario_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(SCENARIO, al_distribution=[1, 0, 0, 0, 0.5])))
    assert main(["simulate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_nan_probability_exits_one(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(dict(SCENARIO, al_distribution=[float("nan"), 0.5, 0, 0, 0.5])))
    assert main(["simulate", str(path)]) == 1
    assert "finite" in capsys.readouterr().err


def test_integer_past_float_range_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(SCENARIO, al_distribution=[1, 0, 0, 0, 10**400])))
    assert main(["simulate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


# A candidate count sweep is a candidate_counts sweep of named points; the
# single-AL candidate_count axis, its "al" key and unnamed list points are
# parse errors. A point its config type rejects and repeated labels are
# found by run_sweep. Each is reported once and before any point runs.
RETIRED_SWEEPS = {
    "al_key": ({"al": 1}, "unknown key(s) in sweep: ['al']"),
    "unnamed_list_point": ({"points": [[1, 1, 1, 1, 1]]},
                           "sweep.points[0] must be an object"),
    "invalid_point": ({"points": [{"name": "1", "counts": [1, 1, 1, 1, 1]},
                                  {"name": "seven", "counts": [7, 1, 1, 1, 1]}]},
                      "error: sweep point seven: "),
    "repeated_label": ({"points": [{"name": "2", "counts": [2, 1, 1, 1, 1]},
                                   {"name": "2", "counts": [3, 1, 1, 1, 1]}]},
                       "error: sweep point labels must be distinct, got repeated ['2']"),
}


def exits_one_before_any_run(tmp_path, runs, capsys, sweep_changes):
    data = json.loads(bundled_scenario_path("fig6_candidates_al1").read_text())
    data["sweep"].update(sweep_changes)
    path = tmp_path / "retired.json"
    path.write_text(json.dumps(data))
    out_path = tmp_path / "out.csv"
    assert main(["sweep", str(path), "--out", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and runs == [] and err.count("error:") == 1
    assert not out_path.exists()
    return err


def test_candidate_count_sweep_without_al_exits_one(tmp_path, runs, capsys):
    err = exits_one_before_any_run(tmp_path, runs, capsys, {
        "axis": "candidate_count", "points": [1, 2, 3, 4, 5, 6, 8]})
    assert "sweep axis must be one of" in err


@pytest.mark.parametrize("changes,message", list(RETIRED_SWEEPS.values()),
                         ids=list(RETIRED_SWEEPS))
def test_retired_sweep_spellings_exit_one(tmp_path, runs, capsys, changes, message):
    assert message in exits_one_before_any_run(tmp_path, runs, capsys, changes)


def test_retired_limits_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as usage:
        main(["validate-limits", "fig4_ue_sweep"])
    assert usage.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# The CORESET index, the slot and the search-space type are not modelled, nor
# the CORESET's RBs and symbols, so a file that sets one is rejected, not run
# at index 0 and slot 0 of a USS.
@pytest.mark.parametrize("command,data,section,key", [
    ("simulate", SCENARIO, "coreset", "coreset_index"),
    ("simulate", SCENARIO, "search_space", "slot_index"),
    ("plan", PLAN, "search_space", "slot_index"),
    ("simulate", SCENARIO, "search_space", "space_type"),
    ("plan", PLAN, "search_space", "space_type"),
    ("simulate", SCENARIO, "coreset", "rb_count"),
])
def test_unmodelled_hash_keys_exit_one(tmp_path, capsys, command, data, section, key):
    path = tmp_path / "knob.json"
    path.write_text(json.dumps(dict(data, **{section: dict(data[section], **{key: 0})})))
    assert main([command, str(path)]) == 1
    assert f"unknown key(s) in {section}: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("point", [2.7, True, "3"])
def test_mistyped_sweep_point_exits_one(tmp_path, point, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(SCENARIO, sweep={"axis": "ue_count",
                                                     "points": [2, point]})))
    assert main(["sweep", str(path)]) == 1
    assert "sweep.points[1] must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_workers_below_one_exits_one(scenario_file, command, capsys):
    assert main([command, str(scenario_file), "--workers", "-3"]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_too_many_iterations_exits_one(scenario_file, command, capsys):
    assert main([command, str(scenario_file), "--iterations", str(2**32 + 1)]) == 1
    assert "iterations must be <= 2**32" in capsys.readouterr().err


def test_write_failure_exits_two(scenario_file, tmp_path):
    missing = tmp_path / "no" / "dir" / "out.csv"
    assert main(["simulate", str(scenario_file), "--out", str(missing)]) == 2


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_worker_that_dies_exits_two(scenario_file, command, monkeypatch, capsys):
    def die(*args):
        raise BrokenProcessPool("a worker died")
    monkeypatch.setattr(simulation, "_run_range", die)
    assert main([command, str(scenario_file)]) == 2
    assert "error: a worker died" in capsys.readouterr().err


def test_parser_is_built_once_and_survives_a_usage_error(scenario_file, monkeypatch,
                                                          request, capsys):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting_init(parser, *args, **kwargs):
        init(parser, *args, **kwargs)
        built.append(parser)

    cli.build_parser.cache_clear()
    request.addfinalizer(cli.build_parser.cache_clear)
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    assert main(["simulate", str(scenario_file)]) == 0
    assert sum(parser.prog == "pdcch-sim" for parser in built) == 1
    assert main(["sweep", str(scenario_file)]) == 0
    with pytest.raises(SystemExit) as usage:
        main(["simulate", str(scenario_file), "--workers", "x"])
    assert usage.value.code == 2
    assert main(["simulate", str(scenario_file), "--seed", "77"]) == 0
    assert sum(parser.prog == "pdcch-sim" for parser in built) == 1
    out = capsys.readouterr().out
    assert out.count("tiny: B=") == 2 and "seed=9" in out and "seed=77" in out


def test_plan_command(tmp_path, capsys):
    request = {"name": "tiny_plan", "ue_count": 2, "target_blocking": 0.3,
               "al_distribution": [1.0, 0, 0, 0, 0],
               "search_space": {"candidates_per_al": [6, 1, 1, 1, 1]},
               "cce_range": [2, 24], "iterations": 150, "master_seed": 5}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(request))
    out_path = tmp_path / "plan_out.json"
    assert main(["plan", str(path), "--format", "json", "--out", str(out_path)]) == 0
    assert "min CORESET size" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["name"] == "tiny_plan"
    assert payload["min_cces"] == 2  # two AL-1 UEs with 6 candidates each
    assert payload["evaluations"]


def test_plan_too_small_to_split_forks_no_process(tmp_path, monkeypatch, pools):
    # U=5 at 1000 iterations is one range, so --workers 2 runs serially
    def no_fork():
        raise AssertionError("a process was forked")
    monkeypatch.setattr(os, "fork", no_fork)
    outputs = []
    for workers in ([], ["--workers", "2"]):
        out_path = tmp_path / f"plan{len(workers)}.json"
        assert main(["plan", "plan_fig11_u5_target20", "--iterations", "1000", *workers,
                     "--format", "json", "--out", str(out_path)]) == 0
        outputs.append(out_path.read_text())
    assert outputs[0] == outputs[1]
    assert pools == []


def test_plan_without_a_size_that_meets_the_target_exits_zero(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(dict(PLAN, ue_count=20, target_blocking=0.001,
                                    cce_range=[6, 8], iterations=50)))
    assert main(["plan", str(path)]) == 0
    assert "small_plan: no CORESET size in [6, 8] meets target B <= 0.001" in (
        capsys.readouterr().out)


def test_plan_csv_rows_are_coreset_size_sweep_rows(tmp_path, capsys):
    # the rows carry the simulator's own counts, not counts rebuilt from B
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(PLAN))
    out_path = tmp_path / "plan_out.csv"
    assert main(["plan", str(path), "--format", "csv", "--out", str(out_path)]) == 0
    rows = load_results(out_path)
    assert len(rows) > 1
    name, request = parse_plan_request(path)
    sizes = [int(row.point) for row in rows]
    assert sizes == [p.point for p in plan_min_coreset(request).points]  # evaluation order
    assert rows == records_for_sweep(name, run_sweep(request.base, "coreset_size", sizes))


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4_ue_sweep" in out and "plan_fig11_u5_target20" in out


def test_outdir_env_applies(scenario_file, tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "outputs"
    outdir.mkdir()
    monkeypatch.setenv("PDCCH_SIM_OUTDIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", str(scenario_file), "--out", "run.csv"]) == 0
    assert (outdir / "run.csv").exists()


def test_readme_cli_block_names_every_subcommand():
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines()
                  if line.startswith("pdcch-sim ")}
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert documented == set(subcommands.choices)
