import multiprocessing

import pytest

from pdcch_blocking import simulation


@pytest.fixture
def pools(monkeypatch):
    """Record every process pool the simulator opens; after the test, check
    that each one has been shut down and its workers waited for."""
    opened = []

    class CountingPool(simulation.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", CountingPool)
    yield opened
    assert multiprocessing.active_children() == []


@pytest.fixture
def runs(monkeypatch):
    """Record every ``simulation._run_range`` call, the range that both
    ``run_scenario`` and ``run_sweep`` map, without running it."""
    calls = []
    monkeypatch.setattr(simulation, "_run_range", lambda *args: calls.append(args))
    return calls


@pytest.fixture
def fail_second_run(monkeypatch):
    """Patch ``owner.run_scenario`` so that its second call raises after the
    run; returns the list of completed runs."""
    def install(owner):
        run = owner.run_scenario
        runs = []

        def run_then_fail(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            if len(runs) == 2:
                raise RuntimeError("stop")
            return runs[-1]
        monkeypatch.setattr(owner, "run_scenario", run_then_fail)
        return runs
    return install
