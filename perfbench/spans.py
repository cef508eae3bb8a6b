"""In-memory span tracing of the simulator's layers, installed from outside.

``Tracer.install`` replaces module attributes of an imported
``pdcch_blocking`` with timing wrappers; ``uninstall`` puts the originals
back, so untraced passes run the unmodified code. No file under ``src/`` is
touched. Each span keeps its parent on a stack, and on exit adds its duration
to the parent's child time, so a layer's self time is its duration minus the
time covered by its child spans. Spans are folded into per-name totals as
they close, which keeps the memory of a long run flat.

Worker processes forked by the process pool drop the wraps as they start, so
they run untraced: per-layer numbers are for the parent process only.
"""

import os
from time import perf_counter


class Tracer:
    def __init__(self):
        self._stack = []  # one [child_seconds] cell per open span
        self._restore = []
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.counts = {}
        os.register_at_fork(after_in_child=self.uninstall)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def call(self, name, fn, args=(), kwargs=None):
        stack = self._stack
        cell = [0.0]
        stack.append(cell)
        start = perf_counter()
        try:
            return fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            totals = self.stats.get(name)
            if totals is None:
                totals = self.stats[name] = [0, 0.0, 0.0]
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += elapsed - cell[0]

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _span(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result
        self._patch(owner, attr, wrapped)

    def install(self, pkg):
        """Wrap the layer boundaries of the package namespace ``pkg``."""
        sim, planner, cli = pkg.simulation, pkg.planner, pkg.cli
        rng_factory = sim.iteration_rng
        self._patch(sim, "iteration_rng", lambda *a: _TimedGenerator(
            self, self.call("simulation.iteration_rng", rng_factory, a)))
        self._span(sim, "_simulate_iteration", "simulation.iteration")
        self._span(sim, "run_scenario", "simulation.run_scenario")
        self._span(sim, "y_value", "search_space.y_value")
        self._span(sim, "candidate_starts", "search_space.candidate_starts")
        self._span(sim, "_allocation_order", "scheduler.order")

        def greedy_outcome(args, result):
            self.count("scheduler.greedy.offered", len(args[0]))
            self.count("scheduler.greedy.scheduled", len(result[0]))
        self._span(sim, "_greedy_assign", "scheduler.greedy", greedy_outcome)

        pool_cls = sim.ProcessPoolExecutor
        self._patch(sim, "ProcessPoolExecutor",
                    lambda *a, **k: _TracedPool(self, pool_cls, a, k))

        self._span(planner, "plan_min_coreset", "planner.plan_min_coreset")
        self._span(planner, "run_scenario", "simulation.run_scenario",
                   lambda args, result: self.count("planner.evaluations"))

        self._span(cli, "main", "cli.main")
        self._span(cli, "parse_scenario", "scenario_io.parse")
        self._span(cli, "parse_plan_request", "scenario_io.parse")
        self._span(cli, "records_for_sweep", "scenario_io.emit")
        self._span(cli, "emit_results", "scenario_io.emit")

        coreset_cls = pkg.coreset.CoresetConfig
        from_cce_count = coreset_cls.from_cce_count.__func__

        def counted(cls, *args, **kwargs):
            self.count("coreset.from_cce_count.calls")
            return from_cce_count(cls, *args, **kwargs)
        self._patch(coreset_cls, "from_cce_count", classmethod(counted))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


class _TimedGenerator:
    """Stands in for the per-iteration numpy Generator and times its draws."""

    __slots__ = ("_tracer", "_rng")

    def __init__(self, tracer, rng):
        self._tracer = tracer
        self._rng = rng

    def integers(self, *args, **kwargs):
        return self._tracer.call("simulation.draws", self._rng.integers, args, kwargs)

    def random(self, *args, **kwargs):
        return self._tracer.call("simulation.draws", self._rng.random, args, kwargs)

    def choice(self, *args, **kwargs):
        return self._tracer.call("simulation.draws", self._rng.choice, args, kwargs)

    def permutation(self, *args, **kwargs):
        return self._tracer.call("simulation.draws", self._rng.permutation, args, kwargs)


class _TracedPool:
    """Process pool whose start-up, result wait and shut-down are spans.

    ``map`` submits every task at once (the start-up span, where the workers
    are forked) and then collects the results (the wait span); the simulator
    consumes the map result immediately, so collecting eagerly changes no
    order.
    """

    def __init__(self, tracer, pool_cls, args, kwargs):
        tracer.count("simulation.pool.calls")
        self._tracer = tracer
        self._pool = tracer.call("simulation.pool.start", pool_cls, args, kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._tracer.call("simulation.pool.shutdown", self._pool.shutdown)
        return False

    def map(self, fn, *iterables):
        pending = self._tracer.call("simulation.pool.start", self._pool.map,
                                    (fn, *iterables))
        return iter(self._tracer.call("simulation.pool.wait", list, (pending,)))
