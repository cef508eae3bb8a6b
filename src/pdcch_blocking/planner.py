"""Minimum CORESET size meeting a blocking-probability target.

Bisection over the CCE count (blocking decreases with CORESET size), then a
short downward scan to guard against local non-monotonicity from hash
effects and Monte Carlo noise. Each evaluation is a ``coreset_size`` sweep
point at one master seed, so the per-size estimates are directly comparable
and leave the planner as ``SweepPoint``s, the shape ``run_sweep`` returns.
Only C changes between evaluations, so a plan draws once: every evaluation
runs on one set of C-independent draws (common random numbers), derived
before the search starts.
"""

from dataclasses import dataclass
from numbers import Real

from .coreset import as_integer
from .simulation import ScenarioConfig, SweepPoint, apply_axis, draw_ranges, run_scenario

CONFIRMATION_SCAN = 4  # CCE sizes re-checked below the bisection answer


@dataclass(frozen=True)
class PlanningRequest:
    """A scenario and the blocking target its CORESET size must meet.

    Each evaluation replaces ``base.coreset`` with a CORESET of the size
    under test, as a ``coreset_size`` sweep does.
    """

    base: ScenarioConfig
    target_blocking: float
    cce_min: int
    cce_max: int

    def __post_init__(self):
        if not isinstance(self.base, ScenarioConfig):
            raise ValueError(f"base must be a ScenarioConfig, got {self.base!r}")
        target = self.target_blocking
        if isinstance(target, bool) or not isinstance(target, Real):
            raise ValueError(f"target_blocking must be a number, got {target!r}")
        if not 0.0 < target < 1.0:
            raise ValueError(f"target_blocking must be in (0, 1), got {target}")
        object.__setattr__(self, "cce_min", as_integer("cce_min", self.cce_min, 1))
        object.__setattr__(self, "cce_max", as_integer("cce_max", self.cce_max, self.cce_min))


@dataclass(frozen=True)
class PlanningResult:
    """Smallest CCE count meeting the target, or None when the range cannot.

    ``points`` holds one SweepPoint per CCE count simulated, in evaluation
    order: the count as ``point``, its string as ``label`` and the run's
    SimulationResult, as a ``coreset_size`` sweep at that count gives.
    """

    min_cces: int
    points: tuple

    @property
    def evaluations(self) -> tuple:
        """(cce_count, blocking, stderr) of every point, in evaluation order."""
        return tuple((p.point, p.result.blocking_probability, p.result.stderr)
                     for p in self.points)

    @property
    def achieved_blocking(self) -> float:
        """The blocking at ``min_cces``, or None when no size meets the target."""
        return next((b for cces, b, _ in self.evaluations if cces == self.min_cces), None)


def plan_min_coreset(req: PlanningRequest, workers: int = None) -> PlanningResult:
    """Find the smallest CORESET (in CCEs) with estimated blocking at or
    below the target, searching [cce_min, cce_max]: bisect, scan and descend
    over CCE counts, simulating each size once, as a ``coreset_size`` sweep
    point. The C-independent half of every evaluation is drawn once, by
    ``draw_ranges`` over the same ranges, and each ``run_scenario`` takes it
    as ``draws=``. When ``workers`` > 1 splits the run into more than one
    range, the pool that ``draw_ranges`` holds serves the draws and every
    evaluation, and the calling process, which ``workers`` counts, works
    range 0 of each; a plan too small to split opens no pool."""
    results = {}  # CCE count -> SimulationResult, in evaluation order
    best = None
    with draw_ranges(req.base, workers) as draws:
        def meets(cces: int) -> bool:
            if cces not in results:
                cfg = apply_axis(req.base, "coreset_size", cces)
                results[cces] = run_scenario(cfg, workers=workers, draws=draws)
            return results[cces].blocking_probability <= req.target_blocking

        if meets(req.cce_max):
            lo, hi = req.cce_min, req.cce_max
            while lo < hi:
                mid = (lo + hi) // 2
                if meets(mid):
                    hi = mid
                else:
                    lo = mid + 1
            best = lo
            # Hash-structure steps can make blocking dip below the target
            # before the bisection answer: re-check the sizes just underneath,
            # and past them keep descending while the size below still meets,
            # so min_cces - 1 is always a confirmed miss (or the range floor).
            for cces in range(lo - 1, req.cce_min - 1, -1):
                if cces < lo - CONFIRMATION_SCAN and cces < best - 1:
                    break
                if meets(cces):
                    best = cces
    return PlanningResult(min_cces=best, points=tuple(
        SweepPoint(point=cces, label=str(cces), result=result)
        for cces, result in results.items()))
