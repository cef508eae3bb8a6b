"""The mutant kill matrix of the package. pytest does not collect this file.

``MUTANTS`` lists hand-written faults, each one exact text of one file under
``src/pdcch_blocking/`` and its replacement. No mutation package is needed:
a mutant is a plain string replacement. Run from anywhere, with no flags:

    python tests/mutants.py > matrix.json

It copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` (which
tests read) into a new temporary directory for every run and never edits
the working tree. It runs Tier-1 there once unmutated, for the baseline
failures, then once per mutant with that mutant alone applied, one run at
a time, because the pool tests fork processes. Every run takes the same
``--hypothesis-seed`` and leaves out the guard test of this list, which any
mutant fails. It writes JSON to stdout: the baseline's failing test ids,
and per mutant the ids that fail with it but not in the baseline. A run
takes about 20 s on a 2-vCPU host.

A mutant with ``equivalent`` set cannot move what ``run_scenario``,
``run_sweep``, ``plan_min_coreset`` or ``cli.main`` return; the text says
why. Every other mutant should be killed by a test that goes through one of
them or through an exact oracle.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

HYPOTHESIS_SEED = 0
# fails under every mutant, since it checks the list against the source
GUARD = "tests/test_pytest_config.py::test_every_mutant_text_occurs_once_in_its_file"


class Mutant(NamedTuple):
    id: str
    file: str  # under src/pdcch_blocking/
    old: str  # occurs exactly once in the file
    new: str
    intent: str
    equivalent: str = None


MUTANTS = (
    # the TS 38.213 hash
    Mutant("hash-divisor", "simulation.py",
           "(k * C) // (L * M)", "(k * C) // (L * M + 1)",
           "candidate_starts divides k*C by L*M + 1"),
    Mutant("y-multiplier", "simulation.py",
           "Y_MULTIPLIER = 39827", "Y_MULTIPLIER = 39829",
           "Y is hashed with a wrong A_p"),
    # the v1 draws
    Mutant("pcg64-rotation", "simulation.py",
           "x, rot = hi ^ lo, hi >> _U58", "x, rot = hi ^ lo, hi >> _U63",
           "the closed-form PCG64 output rotates by the wrong bits"),
    Mutant("uniform-shift", "simulation.py",
           "(raw[:, half:half + u] >> 11) * 2.0**-53",
           "(raw[:, half:half + u] >> 12) * 2.0**-53",
           "uniforms are decoded from the wrong 53 bits"),
    Mutant("al-edge-strict", "simulation.py",
           "al_idx += uniforms >= edge", "al_idx += uniforms > edge",
           "a uniform exactly on an AL edge goes to the lower AL",
           equivalent="a uniform lands exactly on an edge with probability "
                      "about 2**-53 per draw; only crafted uniforms see it"),
    Mutant("master-seed-ignored", "simulation.py",
           "_state_blocks(configs[0].master_seed, start, stop, block)",
           "_state_blocks(0, start, stop, block)",
           "every run draws from master seed 0"),
    Mutant("draws-use-first-strategy", "simulation.py",
           "u, _, strategy = key", "u, _, strategy = key[0], None, configs[0].strategy",
           "every sweep point is ordered by the first point's strategy"),
    # the processing order
    Mutant("order-quicksort", "simulation.py",
           'np.argsort(keys, axis=1, kind="stable")', 'np.argsort(keys, axis=1, kind="quicksort")',
           "the AL sort is not stable"),
    Mutant("unordered-order-transposed", "simulation.py",
           "        return perm\n", "        return perm.T\n",
           '"unordered" returns the permutation block transposed'),
    # the per-CORESET tables
    Mutant("kernel-residue-plus-one", "simulation.py",
           "base = (tail - level * offset) % 2**64", "base = (tail - level * (offset - 1)) % 2**64",
           "the column of residue r holds residue r + 1's candidate set"),
    Mutant("kernel-no-wrap", "simulation.py",
           "    lasts = np.minimum(lasts, lasts - span, out=lasts)\n", "",
           "starts moved past the last block do not wrap to the CORESET's start"),
    Mutant("tables-keyed-by-size-only", "simulation.py",
           "key = (cfg.coreset.cce_count, cfg.candidates_per_al)", "key = cfg.coreset.cce_count",
           "sweep points of other candidate counts share one table"),
    Mutant("residue-index-int8", "simulation.py",
           "np.array([offsets, positions], dtype=np.int32)",
           "np.array([offsets, positions], dtype=np.int8)",
           "table offsets and residues of 128 or more wrap"),
    # the greedy
    Mutant("greedy-second-free", "simulation.py",
           "low = free & -free  # each word's first free candidate",
           "low = np.where(free & (free - _U1), free & (free - _U1), free); low &= -low",
           "a UE takes each word's second free candidate when it has one"),
    Mutant("greedy-no-word-priority", "simulation.py",
           "            low[w] *= none\n", "",
           "a UE takes its first free candidate in every word, not in the lowest"),
    Mutant("greedy-no-word-priority-past-64", "simulation.py",
           "            low[w] *= none\n", "            low[w] *= none | (j >= 64)\n",
           "from position 64 on, a UE takes a free candidate in every word"),
    Mutant("greedy-no-carry", "simulation.py",
           "free = np.bitwise_and(column[:words], ~taken, out=taken)",
           "free = np.bitwise_and(column[:words], ~used)",
           "the block test sees a used CCE only at a candidate's last CCE"),
    Mutant("take-last-cce-only", "simulation.py",
           "used |= (low + low) - (low >> shift)", "used |= low",
           "a UE marks only its candidate's last CCE as used"),
    Mutant("blocked-counts-scheduled", "simulation.py",
           "return index.shape[1] - scheduled.sum(axis=1)", "return scheduled.sum(axis=1)",
           "an iteration counts its scheduled UEs as blocked"),
    # ranges and pools
    Mutant("bounds-floor-share", "simulation.py",
           "[i * iterations // n for i in range(n + 1)]",
           "[i * (iterations // n) for i in range(n + 1)]",
           "a split run drops the iterations past n * floor(iterations / n)"),
    Mutant("bounds-linspace", "simulation.py",
           "[i * iterations // n for i in range(n + 1)]",
           "np.linspace(0, iterations, n + 1, dtype=int).tolist()",
           "range bounds round some exact quotients down",
           equivalent="counts do not depend on where the ranges split (C10)"),
    Mutant("bounds-empty-ranges", "simulation.py",
           "n = min(workers, iterations, max(1, work // MIN_RANGE_UES))",
           "n = min(workers, max(1, work // MIN_RANGE_UES))",
           "a run of fewer iterations than workers gets empty ranges",
           equivalent="an empty range adds no counts; it only costs a pool task"),
    Mutant("workers-unchecked", "simulation.py",
           'as_integer("workers", workers, 1)', "int(workers)",
           "workers is converted, not checked"),
    Mutant("one-range-opens-pool", "simulation.py",
           "if ranges == 1:", "if ranges == 0:",
           "a run of one range opens a process pool"),
    Mutant("pool-one-process-per-range", "simulation.py",
           "min(ranges, os.cpu_count() or 1) - 1)", "min(ranges, os.cpu_count() or 1))",
           "the pool opens a process for the range the calling process runs"),
    # sweeps and the planner
    Mutant("sweep-point-own-seed", "simulation.py",
           "lambda base, n: replace(base, ue_count=n)",
           "lambda base, n: replace(base, ue_count=n, master_seed=base.master_seed + n)",
           "each ue_count sweep point draws from its own master seed"),
    Mutant("point-label-unconverted", "simulation.py",
           'return str(point["name"] if isinstance(point, dict) and "name" in point else point)',
           'return point["name"] if isinstance(point, dict) and "name" in point else point',
           "a scalar sweep point's label is the point, not its string"),
    Mutant("meets-strict", "planner.py",
           "return result.blocking_probability <= target_blocking",
           "return result.blocking_probability < target_blocking",
           "a blocking equal to the target misses it"),
    Mutant("confirmation-scan-3", "planner.py",
           "CONFIRMATION_SCAN = 4", "CONFIRMATION_SCAN = 3",
           "the planner re-checks 3 sizes below the bisection answer"),
    Mutant("achieved-blocking-wrong-point", "planner.py",
           "if p.point == self.min_cces), None)", "if p.point >= self.min_cces), None)",
           "achieved_blocking reads the first point at or above min_cces"),
    # config checks and output
    Mutant("as-integer-accepts-bool", "coreset.py",
           "if isinstance(value, bool) or not isinstance(value, Integral):",
           "if not isinstance(value, Integral):",
           "an integer field accepts True and False"),
    Mutant("csv-columns-sorted", "scenario_io.py",
           "csv.DictWriter(handle, fieldnames=CSV_COLUMNS)",
           "csv.DictWriter(handle, fieldnames=sorted(CSV_COLUMNS))",
           "CSV columns come out sorted by name"),
)


_FAILED_LOG = os.environ.get("MUTANTS_FAILED_LOG")


def pytest_runtest_logreport(report):
    """As a pytest plugin (``-p mutants``): log each failing test id."""
    if report.failed and _FAILED_LOG:
        with open(_FAILED_LOG, "a", encoding="utf-8") as log:
            log.write(report.nodeid + "\n")


pytest_collectreport = pytest_runtest_logreport  # a module that fails to import


def _tier1(root: Path, mutant: Mutant = None) -> list:
    """The sorted test ids that fail in Tier-1 on a fresh copy of ``root``,
    with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(root / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(root / part, tmp)
        if mutant is not None:
            path = tmp / "src" / "pdcch_blocking" / mutant.file
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new, 1),
                            encoding="utf-8")
        log = tmp / "failed.txt"
        log.touch()
        env = dict(os.environ, MUTANTS_FAILED_LOG=str(log),
                   PYTHONPATH=os.pathsep.join([str(tmp / "src"), str(tmp / "tests")]))
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-p", "no:cacheprovider",
             "-p", "mutants", f"--hypothesis-seed={HYPOTHESIS_SEED}",
             "--continue-on-collection-errors", "--deselect", GUARD],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
        return sorted(set(log.read_text(encoding="utf-8").splitlines()))


def main():
    root = Path(__file__).resolve().parents[1]
    baseline = _tier1(root)
    print(f"baseline: {len(baseline)} failing", file=sys.stderr)
    matrix = {}
    for mutant in MUTANTS:
        matrix[mutant.id] = [t for t in _tier1(root, mutant) if t not in baseline]
        print(f"{mutant.id}: {len(matrix[mutant.id])} failing", file=sys.stderr)
    json.dump({"baseline": baseline, "mutants": matrix}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
