#!/usr/bin/env python3
"""Benchmark of the pdcch_blocking simulator, driven through its public API.

Run from the repository root:

    python3 perfbench/run.py --workload light_al_sweep --seed 3 --seconds 30 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

- light_al_sweep: the fig7 AL8 and AL16 UE sweeps through ``cli.main sweep``.
- heavy_mixed_load: fig4 at U = 30, 40, 50 and both fig10 strategy points,
  run serially through ``simulation.run_scenario``.
- plan_pooled: both fig11 plan requests through
  ``planner.plan_min_coreset(workers=2)``.

The inputs are the bundled study files with ``master_seed`` replaced by
``--seed`` (each file keeps its own seed when ``--seed`` is left out) and the
iteration count fixed per workload. One pass runs every operation of the
workload once; passes repeat for ``--seconds`` and timings are medians over
the passes, in reference-host seconds: divided by the host's slowdown measured
next to each pass (see ``hostspeed.py``). An operation is one sweep point or
one planner evaluation. It
counts as failed when it raises, breaks ``blocked + scheduled = U * N``,
differs from ``fingerprint.json`` at a recorded seed (or from the first pass
at any other seed), or when its first iterations disagree with the reference
model in ``oracle.py``.

With ``--trace 1`` passes alternate between untraced and traced; the traced
ones give the per-layer numbers (see ``spans.py``), and the tracing overhead
is the difference of the two medians.

The last line of standard output is the result object; the line before it
is the run manifest. ``--record-fingerprint 0-31`` rewrites
``fingerprint.json`` for the file seeds and the given seed range.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracle
from hostspeed import HostSpeed, cpu_seconds, slowdown_here
from spans import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
PACKAGE = "pdcch_blocking"
SCENARIOS = SRC / PACKAGE / "scenarios"
FINGERPRINT = Path(__file__).resolve().parent / "fingerprint.json"
TMP_ROOT = ROOT / ".perfbench_tmp"

SETUP_ROUNDS = 7
MIN_PASSES = 3
ORACLE_ITERATIONS = 8

Op = namedtuple("Op", "key blocked ok")
# wall and cpu are seconds on this host; slowdown and cpu_slowdown are the
# host's slowdown of wall and CPU time around the pass relative to the
# reference host (see hostspeed.py).
Pass = namedtuple("Pass", "wall cpu slowdown cpu_slowdown ops summary")


def _bundled(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def _generated(name, seed, iterations):
    data = dict(_bundled(name), iterations=iterations)
    if seed is not None:
        data["master_seed"] = seed
    return data


def _single(data, **changes):
    """A sweep file's base configuration with one axis value applied."""
    out = {k: v for k, v in data.items() if k != "sweep"}
    out.update(changes)
    return out


def _write(path, data):
    path.write_text(json.dumps(data, indent=2))
    return path


def _failed_call(exc):
    traceback.print_exception(exc, file=sys.stderr)
    return exc


class LightAlSweep:
    name = "light_al_sweep"
    iterations = 400
    workers = 1
    studies = ("fig7_al8_ue_sweep", "fig7_al16_ue_sweep")

    def __init__(self, seed, tmp):
        self.files, self.outs, self.cases = [], [], {}
        for study in self.studies:
            data = _generated(study, seed, self.iterations)
            self.files.append(_write(tmp / f"{study}.json", data))
            self.outs.append(tmp / f"{study}.out.json")
            for point in data["sweep"]["points"]:
                self.cases[f"{study}:{point}"] = _single(data, ue_count=point)
        self.warmup = next(iter(self.cases.values()))

    def oracle_case(self, key):
        return self.cases.get(key)

    def prepare(self, pkg):
        for path in self.files:
            pkg.scenario_io.parse_scenario(path)

    def run(self, pkg):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for path, out in zip(self.files, self.outs):
                argv = ["sweep", str(path), "--format", "json", "--out", str(out)]
                try:
                    codes.append(pkg.cli.main(argv))
                except Exception as exc:  # counted as failed operations
                    codes.append(_failed_call(exc))
        return codes

    def outputs(self, codes):
        ops = []
        for study, code, out in zip(self.studies, codes, self.outs):
            try:
                records = json.loads(out.read_text()) if code == 0 else []
                out.unlink()
            except (OSError, ValueError):
                records = []
            if not records:
                ops.append(Op(f"{study}:error", None, False))
            for rec in records:
                key = f"{study}:{rec.get('point')}"
                case = self.cases.get(key)
                ok = (case is not None
                      and rec.get("iterations") == case["iterations"]
                      and rec.get("seed") == case["master_seed"]
                      and rec.get("blocked_total", -1) + rec.get("scheduled_total", -1)
                      == case["ue_count"] * case["iterations"])
                ops.append(Op(key, rec.get("blocked_total"), ok))
        return ops, {}


class HeavyMixedLoad:
    name = "heavy_mixed_load"
    iterations = 300
    workers = 1

    def __init__(self, seed, tmp):
        fig4 = _generated("fig4_ue_sweep", seed, self.iterations)
        fig10 = _generated("fig10_strategy_u40", seed, self.iterations)
        self.cases = {f"fig4_ue_sweep:{u}": _single(fig4, ue_count=u)
                      for u in (30, 40, 50)}
        self.cases.update({f"fig10_strategy_u40:{s}": _single(fig10, strategy=s)
                           for s in fig10["sweep"]["points"]})
        self.files = {key: _write(tmp / f"heavy_{i}.json", case)
                      for i, (key, case) in enumerate(self.cases.items())}
        self.warmup = next(iter(self.cases.values()))

    def oracle_case(self, key):
        return self.cases.get(key)

    def prepare(self, pkg):
        self.configs = {key: pkg.scenario_io.parse_scenario(path).config
                        for key, path in self.files.items()}

    def run(self, pkg):
        results = {}
        for key, cfg in self.configs.items():
            try:
                results[key] = pkg.simulation.run_scenario(cfg)
            except Exception as exc:  # counted as a failed operation
                results[key] = _failed_call(exc)
        return results

    def outputs(self, results):
        ops = []
        for key, res in results.items():
            if isinstance(res, Exception):
                ops.append(Op(key, None, False))
                continue
            case = self.cases[key]
            ok = (res.blocked_total >= 0 and res.blocked_total + res.scheduled_total
                  == case["ue_count"] * case["iterations"])
            ops.append(Op(key, res.blocked_total, ok))
        return ops, {}


class PlanPooled:
    name = "plan_pooled"
    iterations = 1000
    workers = 2
    plans = ("plan_fig11_u5_target20", "plan_fig11_u15_target5")

    def __init__(self, seed, tmp):
        self.data = {p: _generated(p, seed, self.iterations) for p in self.plans}
        self.files = {p: _write(tmp / f"{p}.json", d) for p, d in self.data.items()}
        first = self.plans[0]
        self.warmup = self.oracle_case(f"{first}@{self.data[first]['cce_range'][1]}")

    def oracle_case(self, key):
        """The scenario the planner simulates for evaluation ``plan@cces``."""
        plan, _, cces = key.partition("@")
        if plan not in self.data or not cces.isdigit():
            return None
        data = {k: v for k, v in self.data[plan].items()
                if k not in ("description", "target_blocking", "cce_range")}
        data["coreset"] = {"cce_count": int(cces)}
        return data

    def prepare(self, pkg):
        self.requests = {p: pkg.scenario_io.parse_plan_request(path)[1]
                         for p, path in self.files.items()}

    def run(self, pkg):
        results = {}
        for plan, req in self.requests.items():
            try:
                results[plan] = pkg.planner.plan_min_coreset(req, workers=self.workers)
            except Exception as exc:  # counted as failed operations
                results[plan] = _failed_call(exc)
        return results

    def outputs(self, results):
        ops, min_cces = [], {}
        for plan, res in results.items():
            if isinstance(res, Exception):
                ops.append(Op(f"{plan}:error", None, False))
                continue
            min_cces[plan] = res.min_cces
            trials = self.data[plan]["ue_count"] * self.iterations
            for cces, blocking, _ in res.evaluations:
                blocked = round(blocking * trials)
                ok = abs(blocking * trials - blocked) < 1e-6 and 0 <= blocked <= trials
                ops.append(Op(f"{plan}@{cces}", blocked, ok))
        return ops, min_cces


WORKLOADS = {w.name: w for w in (LightAlSweep, HeavyMixedLoad, PlanPooled)}


def load_package():
    """Import the package afresh, so each set-up round pays the import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        m: importlib.import_module(f"{PACKAGE}.{m}")
        for m in ("cli", "coreset", "planner", "scenario_io", "simulation")})


def setup(workload):
    """Median over rounds of: import, parse the workload's files, and one
    1-iteration warm-up simulation. Returns reference-host seconds, seconds
    on this host, and the package."""
    times, raw = [], []
    for _ in range(SETUP_ROUNDS):
        slowdown = slowdown_here()
        start = time.perf_counter()
        pkg = load_package()
        workload.prepare(pkg)
        warmup = pkg.scenario_io.scenario_from_dict(dict(workload.warmup, iterations=1))
        pkg.simulation.run_scenario(warmup.config)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] / slowdown)
    return statistics.median(times), statistics.median(raw), pkg


def timed_pass(workload, pkg, speed, before, tracer=None):
    """One pass, between the host-speed reading ``before`` and a new one,
    which it returns with the pass for the next pass to start from."""
    if tracer is not None:
        tracer.install(pkg)
    try:
        cpu = cpu_seconds()
        start = time.perf_counter()
        raw = workload.run(pkg)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = speed.slowdown()
    slowdown, cpu_slowdown = ((a + b) / 2 for a, b in zip(before, after))
    return Pass(wall, cpu, slowdown, cpu_slowdown, *workload.outputs(raw)), after


def measure(workload, pkg, speed, seconds, tracer):
    """Passes until ``seconds`` have gone by; with a tracer, every second
    pass is traced."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    reading = speed.slowdown()
    while (time.perf_counter() < deadline or len(untraced) < MIN_PASSES
           or (tracer is not None and len(traced) < MIN_PASSES)):
        if tracer is not None and len(traced) < len(untraced):
            p, reading = timed_pass(workload, pkg, speed, reading, tracer)
            traced.append(p)
        else:
            p, reading = timed_pass(workload, pkg, speed, reading)
            untraced.append(p)
    return untraced, traced


def oracle_failures(workload, pkg, keys):
    """Keys whose first iterations disagree with the reference model."""
    bad = set()
    for key in keys:
        case = workload.oracle_case(key)
        if case is None:
            continue  # an error entry, already failed
        case = dict(case, iterations=ORACLE_ITERATIONS)
        try:
            cfg = pkg.scenario_io.scenario_from_dict(case).config
            got = pkg.simulation.run_scenario(cfg, keep_per_iteration=True)
            ok = list(got.per_iteration_blocked) == oracle.blocked_per_iteration(
                case, ORACLE_ITERATIONS)
        except Exception as exc:  # counted as failed operations
            _failed_call(exc)
            ok = False
        if not ok:
            print(f"oracle mismatch: {workload.name} {key}", file=sys.stderr)
            bad.add(key)
    return bad


def expected_outputs(workload, seed, first):
    """Recorded outputs for this seed, or the first pass's outputs."""
    if FINGERPRINT.is_file():
        recorded = json.loads(FINGERPRINT.read_text())
        entry = recorded["seeds"].get("file" if seed is None else str(seed), {})
        if (workload.name in entry
                and recorded["iterations"].get(workload.name) == workload.iterations):
            return entry[workload.name], True
    return {"ops": [[op.key, op.blocked] for op in first.ops],
            "summary": first.summary}, False


def count_failures(passes, expected, oracle_bad):
    attempted = failed = 0
    exp_ops, exp_summary = expected["ops"], expected["summary"]
    for p in passes:
        bad_groups = {g for g in set(exp_summary) | set(p.summary)
                      if exp_summary.get(g) != p.summary.get(g)}
        for i, op in enumerate(p.ops):
            failed += (not op.ok or op.key in oracle_bad
                       or i >= len(exp_ops) or exp_ops[i] != [op.key, op.blocked]
                       or op.key.split("@")[0] in bad_groups)
        missing = max(0, len(exp_ops) - len(p.ops))
        attempted += len(p.ops) + missing
        failed += missing
    return attempted, failed


def pass_iterations(workload, p):
    return workload.iterations * sum(op.blocked is not None for op in p.ops)


def median_of(passes, field):
    """Median of a per-pass time, each divided by the slowdown of that kind
    of time measured around its pass: reference-host seconds."""
    slowdown = "cpu_slowdown" if field == "cpu" else "slowdown"
    return statistics.median(getattr(p, field) / getattr(p, slowdown) for p in passes)


def end_to_end(workload, setup_s, untraced):
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall_s = median_of(untraced, "wall")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "iterations_per_s": (statistics.median(
            pass_iterations(workload, p) for p in untraced) / wall_s, "1/s"),
        "cpu_s": (median_of(untraced, "cpu"), "s"),
        # ru_maxrss is in KiB; the children figure is the largest one child.
        "peak_rss_mb": ((me.ru_maxrss + kids.ru_maxrss) / 1024, "MB"),
    }


def per_layer(tracer, untraced, traced):
    """Per-layer figures of the traced passes; times in reference-host units,
    scaled by the traced passes' median slowdown."""
    n = len(traced)
    iters = tracer.calls("simulation.iteration")
    wall = sum(p.wall for p in traced)
    slowdown = statistics.median(p.slowdown for p in traced)

    def self_s(*names):
        return sum(map(tracer.self_s, names))

    def us_per_iter(name):
        return (self_s(name) * 1e6 / slowdown / iters if iters else 0.0, "us")

    def ms_per_pass(name):
        return (self_s(name) * 1e3 / slowdown / n, "ms")

    def per_pass(count):
        return (count / n, "count")

    offered = tracer.counts.get("scheduler.greedy.offered", 0)
    scheduled = tracer.counts.get("scheduler.greedy.scheduled", 0)
    plain = median_of(untraced, "wall")
    overhead = median_of(traced, "wall") - plain
    return {
        "simulation.iteration.calls": per_pass(iters),
        "simulation.iteration_rng.us_per_iter": us_per_iter("simulation.iteration_rng"),
        "simulation.draws.us_per_iter": us_per_iter("simulation.draws"),
        "simulation.iteration.self_us_per_iter": us_per_iter("simulation.iteration"),
        "search_space.y_value.calls": per_pass(tracer.calls("search_space.y_value")),
        "search_space.y_value.us_per_iter": us_per_iter("search_space.y_value"),
        "search_space.candidate_starts.calls": per_pass(
            tracer.calls("search_space.candidate_starts")),
        "search_space.candidate_starts.us_per_iter": us_per_iter(
            "search_space.candidate_starts"),
        "scheduler.order.us_per_iter": us_per_iter("scheduler.order"),
        "scheduler.greedy.us_per_iter": us_per_iter("scheduler.greedy"),
        "scheduler.greedy.scheduled_ratio": (scheduled / offered if offered else 0.0, "ratio"),
        "simulation.pool.calls": per_pass(tracer.counts.get("simulation.pool.calls", 0)),
        "simulation.pool.start_ms": ms_per_pass("simulation.pool.start"),
        "simulation.pool.wait_ms": ms_per_pass("simulation.pool.wait"),
        "simulation.pool.shutdown_ms": ms_per_pass("simulation.pool.shutdown"),
        "planner.evaluations": per_pass(tracer.counts.get("planner.evaluations", 0)),
        "planner.self_ms": ms_per_pass("planner.plan_min_coreset"),
        "scenario_io.parse_ms": ms_per_pass("scenario_io.parse"),
        "scenario_io.emit_ms": ms_per_pass("scenario_io.emit"),
        "cli.main.self_ms": ms_per_pass("cli.main"),
        "coreset.from_cce_count.calls": per_pass(
            tracer.counts.get("coreset.from_cce_count.calls", 0)),
        "share.rng": (self_s("simulation.iteration_rng", "simulation.draws") / wall, "ratio"),
        "share.search_space": (self_s("search_space.y_value",
                                      "search_space.candidate_starts") / wall, "ratio"),
        "share.scheduler": (self_s("scheduler.order", "scheduler.greedy") / wall, "ratio"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (overhead / plain, "ratio"),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(args, workload, host_setup_s, untraced, traced, fingerprinted):
    walls = [p.wall for p in untraced]
    return {
        "workload": workload.name, "seed": args.seed,
        "iterations_per_operation": workload.iterations,
        "workers": workload.workers,
        "trace": bool(args.trace), "seconds": args.seconds,
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "host_wall_s_min_quartiles_max": [min(walls), *statistics.quantiles(walls, n=4),
                                          max(walls)],
        "host_slowdown_median": statistics.median(p.slowdown for p in untraced),
        "host_setup_s": host_setup_s,
        "host_cpu_s": statistics.median(p.cpu for p in untraced),
        "fingerprint_checked": fingerprinted,
        "per_layer_scope": ("parent process only; spans in pool workers are lost"
                            if workload.workers > 1 else "whole run"),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "package_version": getattr(sys.modules.get(PACKAGE), "__version__", None),
        "git_commit": _git_commit(), "src_sha256": _source_digest(),
    }


def run(args):
    workload_cls = WORKLOADS[args.workload]
    tmp = TMP_ROOT / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        speed = HostSpeed(cores=workload_cls.workers)
        workload = workload_cls(args.seed, tmp)
        setup_s, host_setup_s, pkg = setup(workload)
        tracer = Tracer() if args.trace else None
        untraced, traced = measure(workload, pkg, speed, args.seconds, tracer)
        metrics = (per_layer(tracer, untraced, traced) if args.trace
                   else end_to_end(workload, setup_s, untraced))
        passes = untraced + traced
        expected, fingerprinted = expected_outputs(workload, args.seed, untraced[0])
        oracle_bad = oracle_failures(workload, pkg, {op.key for p in passes for op in p.ops})
        attempted, failed = count_failures(passes, expected, oracle_bad)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    print(json.dumps({"manifest": manifest(args, workload, host_setup_s, untraced, traced,
                                           fingerprinted)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def record_fingerprint(seed_range):
    """Rewrite fingerprint.json with one pass of every workload per seed."""
    lo, _, hi = seed_range.partition("-")
    seeds = [None] + list(range(int(lo), int(hi or lo) + 1))
    entries = {}
    tmp = TMP_ROOT / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        pkg = load_package()
        speed = HostSpeed()
        for seed in seeds:
            entry = entries.setdefault("file" if seed is None else str(seed), {})
            for cls in WORKLOADS.values():
                workload = cls(seed, tmp)
                workload.prepare(pkg)
                p, _ = timed_pass(workload, pkg, speed, speed.slowdown())
                keys = {op.key for op in p.ops}
                if not all(op.ok for op in p.ops) or oracle_failures(workload, pkg, keys):
                    raise SystemExit(f"{cls.name} at seed {seed} fails its checks")
                entry[cls.name] = {"ops": [[op.key, op.blocked] for op in p.ops],
                                   "summary": p.summary}
            print(f"recorded seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    iterations = {name: cls.iterations for name, cls in WORKLOADS.items()}
    lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entry)}"
                       for seed, entry in entries.items())
    FINGERPRINT.write_text(
        '{\n "about": "blocked_total of every operation, and each plan\'s min_cces '
        'and evaluation order, per --seed (\\"file\\": the study files\' own seeds)",\n'
        f' "iterations": {json.dumps(iterations)},\n "seeds": {{\n{lines}\n }}\n}}\n')
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed of every generated config "
                             "(default: each study file's own seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--record-fingerprint", metavar="LO-HI",
                        help="rewrite fingerprint.json for these seeds and exit")
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: run from the repository root; {SRC / PACKAGE} not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_fingerprint:
        return record_fingerprint(args.record_fingerprint)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
