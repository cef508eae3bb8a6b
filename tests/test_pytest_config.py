"""The repository's test settings: pytest's, run on a throwaway test file,
and the mutant list of ``mutants.py``, against the source."""

import subprocess
import sys
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_after():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # warnings are errors, and hypothesis' report hook for a failed test
    # warns; unless that warning is let through, pytest stops with an
    # INTERNALERROR, loses the falsifying example and skips every later test
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out


def test_every_mutant_text_occurs_once_in_its_file():
    # a refactor that moves a mutant's code must update the list
    stale = [m.id for m in MUTANTS
             if (ROOT / "src" / "pdcch_blocking" / m.file).read_text(encoding="utf-8")
             .count(m.old) != 1 or m.new == m.old]
    assert stale == []
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
