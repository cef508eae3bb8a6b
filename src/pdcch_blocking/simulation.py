"""Monte Carlo estimation of PDCCH blocking probability.

Every iteration draws its own RNG stream from (master_seed, iteration index),
so results are bit-identical no matter how iterations are ordered or spread
over workers. Within an iteration the stream is consumed in a fixed order:
C-RNTIs, then aggregation levels, then the scheduler's tie-break permutation.

The stream of iteration ``it`` is ``iteration_rng(master_seed, it)``, that is
``default_rng([master_seed, it])``, but a worker range works a block of
iterations at a time: ``_state_blocks`` runs NumPy's SeedSequence algorithm
on uint32 arrays, a PCG64 seeds itself in C from each iteration's words and
gives them all in one ``random_raw`` (``_raw_draws``), and ``_decode_draws``
decodes the C-RNTIs, uniforms and tie-break shuffles by NumPy's own rules as
array passes over the block. The AL indices, table residues and processing
orders are array passes too, and one ``take_along_axis`` puts each row's
table indices in processing order. Each iteration keeps only the greedy, in
``_simulate_iteration``. The draws are bit-identical to ``iteration_rng``'s.

A range runs every config of a call together, one config for
``run_scenario`` and all points for ``run_sweep``. They share the master
seed and iterations, so a block's seed words and raw words are derived once,
for the largest U, and a smaller U's words are a prefix of each row; each U
decodes once, and configs with the same CORESET size, search space and AL
mix share their tables.

The TS 38.213 hash is not evaluated per UE. Two identities let each run
build small tables once and turn every UE's candidate set into one lookup:

- Y has a closed form: Y = rnti * K mod 65537, with K from ``y_multiplier``
  (39827 for a USS at slot 0, or 0 for a CSS). The product stays below
  2**32, so a block's Ys are one int64 array expression.
- A candidate start depends on Y only through r = Y mod P, P = floor(C/L):
  start_k = L * ((r + floor(k*C / (L*M))) mod P). The starts at residue r
  are those at residue 0 moved r aligned blocks on, wrapping at P, so each
  AL's table of sorted candidate masks over all P residues comes from one
  ``candidate_starts`` call.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .coreset import AGGREGATION_LEVELS, CoresetConfig, as_integer, per_al
from .scheduler import (STRATEGIES, STRATEGY_LOW_TO_HIGH, _allocation_order,
                        _greedy_assign)
from .search_space import (RNTI_MAX, Y_MODULUS, SearchSpaceConfig,
                           candidate_starts, y_multiplier)
from .search_space import y_value  # noqa: F401  wrapped by perfbench/spans.py

PROBABILITY_TOLERANCE = 1e-9

# Iteration indices stay below 2**32, so each is one uint32 SeedSequence
# entropy word and a block's entropy is one array shape.
MAX_ITERATIONS = 2**32


@dataclass(frozen=True)
class AlDistribution:
    """Probability of each aggregation level, ordered as ALs (1, 2, 4, 8, 16);
    a mapping {AL: probability} is accepted, so AlDistribution({16: 1.0}) puts
    every UE on AL 16."""

    probabilities: tuple

    def __post_init__(self):
        probs = per_al("probabilities", self.probabilities, float)
        object.__setattr__(self, "probabilities", probs)
        if not all(math.isfinite(p) and p >= 0 for p in probs):
            raise ValueError(f"probabilities must be finite and >= 0, got {probs}")
        total = sum(probs)
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one blocking-probability estimate needs."""

    ue_count: int
    coreset: CoresetConfig
    search_space: SearchSpaceConfig
    al_distribution: AlDistribution
    strategy: str = STRATEGY_LOW_TO_HIGH
    iterations: int = 10000
    master_seed: int = 0

    def __post_init__(self):
        for name, kind in (("coreset", CoresetConfig), ("search_space", SearchSpaceConfig),
                           ("al_distribution", AlDistribution)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for name, minimum in (("ue_count", 1), ("iterations", 1), ("master_seed", 0)):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), minimum))
        if self.iterations > MAX_ITERATIONS:
            raise ValueError(
                f"iterations must be <= 2**32, so that every iteration index is "
                f"one 32-bit RNG seed word, got {self.iterations}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")


@dataclass(frozen=True)
class SimulationResult:
    """One run's counts and what produced them: ``blocked_total`` of
    ``ue_count`` UEs per iteration over ``iterations`` iterations from
    ``master_seed``, and each iteration's count when the run kept them. The
    figures derive from the counts: blocked_total + scheduled_total ==
    ue_count * iterations, and the stderr is the binomial normal
    approximation over those trials; per-iteration UE outcomes are
    correlated, so treat it as indicative.
    """

    ue_count: int
    iterations: int
    master_seed: int
    blocked_total: int
    per_iteration_blocked: tuple = None

    @property
    def scheduled_total(self) -> int:
        return self.ue_count * self.iterations - self.blocked_total

    @property
    def blocking_probability(self) -> float:
        return self.blocked_total / (self.ue_count * self.iterations)

    @property
    def stderr(self) -> float:
        b = self.blocking_probability
        return math.sqrt(b * (1.0 - b) / (self.ue_count * self.iterations))


def iteration_rng(master_seed: int, iteration: int):
    """Independent, order-free RNG stream for one iteration."""
    return np.random.default_rng([master_seed, iteration])


# NumPy's SeedSequence (a pool of four uint32 words) constants;
# numpy/random/bit_generator.pyx.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 2**32 - 1
# generate_state hashes pool word i % 4 into output word i: XOR with
# INIT_B * MULT_B**i, multiply by INIT_B * MULT_B**(i + 1), all mod 2**32
_GENERATE_CONSTS = np.array([_INIT_B * pow(_MULT_B, i, 2**32) & _MASK32
                             for i in range(2 * _POOL_SIZE + 1)], dtype=np.uint32)[:, None]
STATE_BLOCK = 1024  # iterations per array pass: memory stays flat and small
BLOCK_UES = 2**16  # and UEs per block, so that a large U gets shorter blocks
SHUFFLE_SLACK = 16  # even; the shuffle has 2U + 16 halves, and a row short of them is redrawn


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Derived seed words for PCG64 to seed itself from in C. It reads their
    buffer, so a strided view instead of a C-contiguous row seeds wrongly."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> 16)


def _generate_state(seed_words, start: int, stop: int):
    """``SeedSequence([seed, it]).generate_state(4, np.uint64)`` for every it
    in [start, stop), as a C-contiguous (stop - start, 4) uint64 array, one
    row per iteration; ``seed_words`` are the seed's uint32 words, low first."""
    n = stop - start
    entropy = [np.full(n, w, dtype=np.uint32) for w in seed_words]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = (np.vstack(pool + pool) ^ _GENERATE_CONSTS[:-1]) * _GENERATE_CONSTS[1:]
    out ^= out >> 16
    # each iteration's uint32 pairs, little-endian, as uint64 words
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _state_blocks(master_seed: int, start: int, stop: int, block: int = STATE_BLOCK):
    """Yield the seed words of ``iteration_rng(master_seed, it)``'s PCG64 for
    each it in [start, stop), one ``_generate_state`` array per ``block``."""
    # the seed's uint32 entropy words, low first, as SeedSequence coerces it
    seed_words = [master_seed >> shift & _MASK32
                  for shift in range(0, max(master_seed.bit_length(), 1), 32)]
    for lo in range(start, stop, block):
        yield _generate_state(seed_words, lo, min(lo + block, stop))


def _raw_width(u: int) -> int:
    """Raw PCG64 words per iteration at ``u`` UEs: ceil(u/2) for the
    C-RNTIs, u for the uniforms, u + SHUFFLE_SLACK/2 for the shuffle."""
    return (u + 1) // 2 + 2 * u + SHUFFLE_SLACK // 2


def _raw_draws(states, u: int):
    """A (len(states), _raw_width(u)) uint64 array: per row of seed words in
    ``states``, ``PCG64(_SeedWords(row)).random_raw(_raw_width(u))``. Every
    smaller U's words are a prefix of each row."""
    raw = np.empty((len(states), _raw_width(u)), dtype=np.uint64)
    for row, words in enumerate(states):
        raw[row] = np.random.PCG64(_SeedWords(words)).random_raw(raw.shape[1])
    return raw


def _decode_draws(states, raw, u: int):
    """The v1 draws of a block of iterations, as C-contiguous (len(states), u)
    arrays, from ``raw = _raw_draws(states, u_max)`` for any u_max >= u: per
    row, ``integers(1, RNTI_MAX + 1, size=u)``, ``random(u)`` and
    ``permutation(u)`` of ``Generator(PCG64(_SeedWords(row)))``, decoded by
    numpy's rules. A C-RNTI is Lemire's draw on a 32-bit half, low half first:
    x * 65535 >> 32, rejecting x == 0. A uniform is (word >> 11) * 2**-53. The
    shuffle swaps place i = u - 1 .. 1 with random_interval's draw, a half
    masked to the smallest 2**k - 1 >= i and rejected if above i; for odd u
    the first half is the last C-RNTI word's high one. A row with a rejected
    C-RNTI or too few halves within ``_raw_width(u)`` words takes the three
    Generator calls instead.
    """
    n, half, last = len(states), (u + 1) // 2, u - 1
    halves = raw.astype("<u8", copy=False).view("<u4")  # low half first
    x = halves[:, :u]
    rntis = (x.astype(np.int64) * RNTI_MAX >> 32) + 1
    uniforms = (raw[:, half:half + u] >> 11) * 2.0**-53
    # one row per shuffle half: for odd u half u, then the spare words' halves
    columns = np.ascontiguousarray(
        halves[:, np.r_[u:u + u % 2, 2 * (half + u):2 * _raw_width(u)]].T, dtype=np.int64)
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(u)])
    # column i + 1 of a row holds its swap for place i; a done row steps from
    # place 0 to -1, where no draw is taken, and parks there
    swaps = np.zeros((n, u + 1), dtype=np.int64)
    flat_swaps, slots = swaps.reshape(-1), np.arange(1, n * (u + 1), u + 1)
    place = np.full(n, last)
    for c, column in enumerate(columns):
        if c >= last and place.max() < 1:  # no row is done before u - 1 draws
            break
        j = column & masks[place]
        flat_swaps[slots + place] = j
        place -= j <= place
    # a row that ran out keeps a rejected draw, which may point past its own
    # u places into the next row's; it is drawn again below
    swaps[place > 0] = 0
    perm = np.tile(np.arange(u), (n, 1))
    flat_perm, starts = perm.reshape(-1), np.arange(0, n * u, u)
    for i in range(last, 0, -1):
        j = starts + swaps[:, i + 1]
        taken = flat_perm[j]
        flat_perm[j] = perm[:, i]
        perm[:, i] = taken
    for row in np.flatnonzero(~x.all(axis=1) | (place > 0)).tolist():
        rng = np.random.Generator(np.random.PCG64(_SeedWords(states[row])))
        rntis[row], uniforms[row], perm[row] = (
            rng.integers(1, RNTI_MAX + 1, size=u), rng.random(u), rng.permutation(u))
    return rntis, uniforms, perm


def _kernel(cfg: ScenarioConfig) -> tuple:
    """Per-run tables for ``_run_range``: the cumulative AL
    distribution, the Y multiplier K, P = floor(C/L) per AL, and per AL the
    sorted candidate masks of every residue Y mod P. An AL with no
    candidates, or larger than the CORESET, gets P = 1 and the single empty
    mask set, so its UEs are always blocked."""
    space = cfg.search_space
    cce_count = cfg.coreset.cce_count
    k = y_multiplier(space.space_type)
    positions = []
    tables = []
    for level, m in zip(AGGREGATION_LEVELS, space.candidates_per_al):
        p = cce_count // level
        if m == 0 or p == 0:
            positions.append(1)
            tables.append(((),))
            continue
        full = (1 << level) - 1
        masks = [full << start for start in range(0, level * p, level)]
        blocks = [start // level for start in candidate_starts(level, cce_count, m, 0)]
        # sorted by start CCE: the greedy tries the leftmost free one first
        tables.append([tuple(sorted([masks[(b + r) % p] for b in blocks]))
                       for r in range(p)])
        positions.append(p)
    cumulative = np.cumsum(cfg.al_distribution.probabilities)
    cumulative[-1] = np.inf  # a draw above a rounded-down total is the last AL
    return cumulative, k, np.array(positions, dtype=np.int64), tables


def _simulate_iteration(mask_sets, row) -> int:
    """Run one scheduling opportunity: ``row`` holds each UE's index into
    ``mask_sets``, in processing order. Returns the number of blocked UEs."""
    picks, _ = _greedy_assign(row, mask_sets)
    return len(row) - len(picks)


def _run_range(configs, start: int, stop: int, keep: bool) -> list:
    """Run iterations [start, stop) of every config in ``configs``, which
    share master_seed, a block at a time. A block derives its seed words and
    draws each row's raw words once, for the largest U; each U decodes its
    draws once, and each distinct (C, search space, AL mix) builds its tables
    once per range. Every config runs its own greedy per iteration. Returns
    each config's (blocked_total, per-iteration counts or None), in order."""
    tables = {}  # (C, search space, AL mix) -> cumulative, K, P per AL, offsets, mask sets
    by_u = {}  # U -> [(config's index, its tables key)]
    for i, cfg in enumerate(configs):
        key = (cfg.coreset.cce_count, cfg.search_space, cfg.al_distribution)
        if key not in tables:
            cumulative, k, positions, al_tables = _kernel(cfg)
            # every AL's table in one list: (AL index a, residue r) is at offsets[a] + r
            tables[key] = (cumulative, k, positions, np.cumsum(positions) - positions,
                           [masks for table in al_tables for masks in table])
        by_u.setdefault(cfg.ue_count, []).append((i, key))
    totals, per_iter = [0] * len(configs), [[] for _ in configs]
    u_max = max(by_u)
    block = max(1, min(STATE_BLOCK, BLOCK_UES // u_max))
    for states in _state_blocks(configs[0].master_seed, start, stop, block):
        raw = _raw_draws(states, u_max)
        for u, members in by_u.items():
            rntis, uniforms, perm = _decode_draws(states, raw, u)
            for i, key in members:
                cumulative, k, positions, offsets, mask_sets = tables[key]
                al_idx = np.searchsorted(cumulative, uniforms, side="right")
                index = offsets[al_idx] + rntis * k % Y_MODULUS % positions[al_idx]
                # indices sort as ALs
                orders = _allocation_order(al_idx, perm, configs[i].strategy)
                blocked = [_simulate_iteration(mask_sets, row)
                           for row in np.take_along_axis(index, orders, axis=1).tolist()]
                totals[i] += sum(blocked)
                if keep:
                    per_iter[i] += blocked
    return [(total, counts if keep else None) for total, counts in zip(totals, per_iter)]


def _worker_count(workers):
    """``workers`` as an int > 1, or None for a serial run (None or 1)."""
    if workers is None or as_integer("workers", workers, 1) == 1:
        return None
    return int(workers)


@contextmanager
def worker_pool(workers: int = None):
    """Yield a process pool for ``workers`` ranges, or None when serial. It
    opens at most one process per CPU, since every process is started at
    the first submit; the ranges queue for them.

    Holding one pool across many ``run_scenario`` calls (pass it as
    ``pool=``) saves starting and stopping processes per call. The pool is
    shut down, and its workers waited for, when the block exits, also by an
    exception.
    """
    workers = _worker_count(workers)
    if workers is None:
        yield None
        return
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        yield pool


def _run_configs(configs, workers, keep: bool, pool) -> list:
    """``run_scenario`` for every config in ``configs`` at once: one map of
    ``_run_range`` over the iteration ranges, each range running every config.
    Returns each config's ``SimulationResult``, in order."""
    workers = _worker_count(workers)
    if pool is not None and workers is None:
        raise ValueError("a pool needs workers > 1")
    bounds = np.linspace(0, configs[0].iterations, (workers or 1) + 1, dtype=int).tolist()
    n = len(bounds) - 1
    with worker_pool(workers) if pool is None else nullcontext(pool) as pool:
        parts = list((map if pool is None else pool.map)(
            _run_range, [configs] * n, bounds[:-1], bounds[1:], [keep] * n))
    return [SimulationResult(
        cfg.ue_count, cfg.iterations, cfg.master_seed, sum(part[i][0] for part in parts),
        tuple(b for part in parts for b in part[i][1]) if keep else None)
        for i, cfg in enumerate(configs)]


def run_scenario(cfg: ScenarioConfig, workers: int = None,
                 keep_per_iteration: bool = False, *, pool=None) -> SimulationResult:
    """Estimate the blocking probability for one scenario.

    The iterations are split into contiguous ranges, one per worker, and one
    map runs ``_run_range`` over them; their counts are summed in range
    order. None or 1 ``workers`` is the builtin ``map`` over one range, and
    then a ``pool`` is an error. ``workers`` > 1 maps over ``pool``, an open
    pool from ``worker_pool``, or else over a pool opened and closed for this
    call; ``plan_min_coreset`` holds one pool for all its runs. Because every
    iteration seeds its own stream from (master_seed, iteration), the result
    does not depend on the number of ranges. ``run_sweep`` takes the same
    path with all its points at once.
    """
    return _run_configs((cfg,), workers, keep_per_iteration, pool)[0]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep evaluation: the axis point, its printable label, its result."""

    point: object
    label: str
    result: SimulationResult


def _named_point(point, key):
    """The list of a named point {"name": ..., key: [...]} on a list axis."""
    if (not isinstance(point, dict) or set(point) != {"name", key}
            or not isinstance(point[key], (list, tuple))):
        raise ValueError(f"point must be {{'name': ..., {key!r}: [...]}}, got {point!r}")
    return point[key]


# Each sweep axis as (kind, key, apply). A point is a ``kind``, or when key
# is set a named point {"name": ..., key: [kind, ...]}; ``apply(base, value)``
# returns ``base`` with that value set.
SWEEP_AXES = {
    "ue_count": (int, None, lambda base, n: replace(base, ue_count=n)),
    "coreset_size": (int, None, lambda base, n: replace(
        base, coreset=CoresetConfig.from_cce_count(n))),
    "candidate_counts": (int, "counts", lambda base, counts: replace(
        base, search_space=replace(base.search_space, candidates_per_al=tuple(counts)))),
    "al_distribution": (float, "probabilities", lambda base, probs: replace(
        base, al_distribution=AlDistribution(tuple(probs)))),
    "strategy": (str, None, lambda base, strategy: replace(base, strategy=strategy)),
}


def _point_label(point) -> str:
    return str(point["name"] if isinstance(point, dict) and "name" in point else point)


def check_axis(axis: str):
    """Raise ValueError unless ``axis`` is a sweep axis."""
    if axis not in tuple(SWEEP_AXES):  # compared, not hashed: a list is a ValueError too
        raise ValueError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")


def apply_axis(base: ScenarioConfig, axis: str, point) -> ScenarioConfig:
    """Return ``base`` with the parameter of sweep axis ``axis`` set to
    ``point``: a value on a scalar axis, a named point on a list axis."""
    check_axis(axis)
    kind, key, apply = SWEEP_AXES[axis]
    if key is not None:
        point = _named_point(point, key)
    elif kind is int:
        point = as_integer(f"{axis} point", point)
    return apply(base, point)


def run_sweep(base: ScenarioConfig, axis: str, points, workers: int = None) -> list:
    """Run one scenario per point, in input order, all from the same master
    seed (common random numbers across points), labelled by the point's name
    or by the scalar point. The whole sweep is checked before any point runs
    or any pool opens: an unknown axis raises ``check_axis``'s ValueError, a
    point that ``apply_axis`` rejects, such as an unnamed list, raises
    ValueError as "sweep point <label>: <reason>", and repeated labels raise
    ValueError too. All points run together, as ``run_scenario`` runs one:
    one map over the iteration ranges, each range running every point on
    draws and tables shared between points. The results equal one
    ``run_scenario`` per point."""
    points = tuple(points)
    check_axis(axis)
    if not points:
        raise ValueError("sweep needs at least one point")
    labels = [_point_label(point) for point in points]
    configs = []
    for point, label in zip(points, labels):
        try:
            configs.append(apply_axis(base, axis, point))
        except ValueError as exc:
            raise ValueError(f"sweep point {label}: {exc}") from exc
    if repeated := sorted({label for label in labels if labels.count(label) > 1}):
        raise ValueError(f"sweep point labels must be distinct, got repeated {repeated}")
    return [SweepPoint(point, label, result) for point, label, result
            in zip(points, labels, _run_configs(configs, workers, False, None))]
