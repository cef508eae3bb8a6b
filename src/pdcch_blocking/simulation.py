"""Monte Carlo estimation of PDCCH blocking probability.

The model is one monitoring occasion of a UE-specific search space: slot 0
of a CORESET with index p mod 3 = 0, where every UE hashes with
A_p = 39827. Another CORESET index or slot would only pick another unit K
in Y = c_rnti * K mod 65537, which does not move a blocking estimate.

Every iteration draws its own RNG stream from (master_seed, iteration index),
so results are bit-identical no matter how iterations are ordered or spread
over workers. Within an iteration the stream is consumed in a fixed order:
C-RNTIs, then aggregation levels, then the scheduler's tie-break permutation.

The stream of iteration ``it`` is ``iteration_rng(master_seed, it)``, that is
``default_rng([master_seed, it])``, but a worker range works a block of
iterations at a time, in two halves. The C-independent half
(``_draw_blocks``) depends only on the master seed, the range, U, the AL
mix and the strategy: ``_state_blocks`` runs NumPy's SeedSequence
algorithm on uint32 arrays, ``_raw_draws`` gives the raw words of a PCG64
seeded from each iteration's words, ``_decode_draws`` decodes the C-RNTIs,
uniforms and tie-break shuffles by NumPy's rules, bit-identical to
``iteration_rng``'s, and array passes give each UE's AL index and Y in
processing order. The C-dependent half turns them into table columns and runs
one greedy pass over the whole block.

PCG64 is a 128-bit LCG with an XSL-RR output, so every raw word has a closed
form in the iteration's seed words. A block of at most ``CLOSED_FORM_WORDS``
words a row (u <= 16) is computed in that form, as uint64 array passes of one
128-bit multiply-add per word (``_pcg64_words``); a wider block seeds one
PCG64 a row in C and takes its words in one ``random_raw``.

A range runs every config of a call together: one for ``run_scenario``, all
points for ``run_sweep``. A block's seed and raw words are derived once, for
the largest U (a smaller U's are a prefix of each row), each U decodes once,
configs that differ only in C or candidate counts share the C-independent
half, and each (C, candidate counts) builds its tables once.
``plan_min_coreset`` draws the C-independent half once for all evaluations.

The TS 38.213 hash is not evaluated per UE. Two identities let each run
build small tables once and turn every UE's candidate set into one lookup:

- Y has a closed form: Y = rnti * K mod 65537, with K = ``Y_MULTIPLIER``.
  The product stays below 2**32, so a block's Ys are one int64 array
  expression.
- A candidate start depends on Y only through r = Y mod P, P = floor(C/L):
  start_k = L * ((r + floor(k*C / (L*M))) mod P). The starts at residue r
  are those at residue 0 moved r aligned blocks on, wrapping at P, so each
  AL's candidate sets over all P residues come from one ``candidate_starts``
  call.

All ALs' sets are the columns of one (W + 2, S) uint64 table, laid out as
``_greedy_assign`` reads it. TS 38.213 aligns every AL-L candidate to L, so
a candidate is one L-bit field of a word. The greedy walks a block's U
positions once, for all its iterations together: at each, one test per word
finds the UE's free candidates among its iteration's used CCEs (Warren's
zero-byte test, Hacker's Delight section 6-1, for L-bit fields), and the UE
takes the one with the lowest first CCE: for its bit low, the L CCEs
2 low - (low >> (L - 1)) mod 2**64. Packing toward low CCEs keeps aligned
blocks intact for the high ALs, which dominate blocking at light load.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .coreset import AGGREGATION_LEVELS, CoresetConfig, as_integer, per_al

PROBABILITY_TOLERANCE = 1e-9

# Iteration indices stay below 2**32, so each is one uint32 SeedSequence
# entropy word and a block's entropy is one array shape.
MAX_ITERATIONS = 2**32

Y_MODULUS = 65537
# K in Y = c_rnti * K mod 65537 at slot 0: A_p, so that Y is TS 38.213's one
# step of Y <- (A_p * Y) mod 65537 from the C-RNTI.
Y_MULTIPLIER = 39827
ALLOWED_CANDIDATE_COUNTS = (0, 1, 2, 3, 4, 5, 6, 8)
RNTI_MAX = 65535


def y_value(c_rnti: int) -> int:
    """Per-UE hash seed Y at slot 0: c_rnti * ``Y_MULTIPLIER`` mod 65537."""
    c_rnti = as_integer("c_rnti", c_rnti)
    if not 1 <= c_rnti <= RNTI_MAX:
        raise ValueError(f"c_rnti must be in [1, {RNTI_MAX}], got {c_rnti}")
    return c_rnti * Y_MULTIPLIER % Y_MODULUS


def candidate_starts(aggregation_level: int, cce_count: int, candidate_count: int,
                     y: int) -> list:
    """First CCE index of each of the ``candidate_count`` candidates, in
    candidate order: L * ((y + floor(k*C / (L*M))) mod floor(C/L)).

    Raises ValueError when the aggregation level exceeds the CORESET size,
    i.e. floor(cce_count / aggregation_level) == 0.
    """
    L = as_integer("aggregation_level", aggregation_level)
    if L not in AGGREGATION_LEVELS:
        raise ValueError(f"aggregation level must be one of {AGGREGATION_LEVELS}, got {L}")
    C = as_integer("cce_count", cce_count, 1)
    M = as_integer("candidate_count", candidate_count, 1)
    y = as_integer("y", y)
    if not 0 <= y < Y_MODULUS:
        raise ValueError(f"y must be in [0, {Y_MODULUS - 1}], got {y}")
    positions = C // L
    if positions == 0:
        raise ValueError(f"AL {L} does not fit in a CORESET of {C} CCEs")
    return [L * ((y + (k * C) // (L * M)) % positions) for k in range(M)]


STRATEGY_LOW_TO_HIGH = "low_to_high"
STRATEGY_HIGH_TO_LOW = "high_to_low"
STRATEGY_UNORDERED = "unordered"
STRATEGIES = (STRATEGY_LOW_TO_HIGH, STRATEGY_HIGH_TO_LOW, STRATEGY_UNORDERED)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one blocking-probability estimate needs.

    ``candidates_per_al`` and ``al_distribution`` take a list or tuple of
    5 values ordered as AGGREGATION_LEVELS, i.e. the candidate counts and
    probabilities of ALs (1, 2, 4, 8, 16), and are stored as tuples, so
    ``al_distribution=(0, 0, 0, 0, 1.0)`` puts every UE on AL 16."""

    ue_count: int
    coreset: CoresetConfig
    candidates_per_al: tuple
    al_distribution: tuple
    strategy: str = STRATEGY_LOW_TO_HIGH
    iterations: int = 10000
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.coreset, CoresetConfig):
            raise ValueError(f"coreset must be a CoresetConfig, got {self.coreset!r}")
        counts = per_al("candidates_per_al", self.candidates_per_al, int)
        object.__setattr__(self, "candidates_per_al", counts)
        for al, m in zip(AGGREGATION_LEVELS, counts):
            if m not in ALLOWED_CANDIDATE_COUNTS:
                raise ValueError(
                    f"candidate count {m} for AL {al} not in {ALLOWED_CANDIDATE_COUNTS}")
        if not any(counts):
            raise ValueError("at least one aggregation level needs a nonzero candidate count")
        probs = per_al("probabilities", self.al_distribution, float)
        object.__setattr__(self, "al_distribution", probs)
        if not all(math.isfinite(p) and p >= 0 for p in probs):
            raise ValueError(f"probabilities must be finite and >= 0, got {probs}")
        total = sum(probs)
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
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
    buffer, so a strided view instead of a C-contiguous row seeds wrongly.
    PCG64 reads the words once, when it is made, so one object serves a
    whole block: set ``words`` to each row's before making its PCG64."""

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


# NumPy's PCG64 (numpy/random/src/pcg64/pcg64.h) is a 128-bit LCG, state <-
# state * PCG64_MULTIPLIER + inc mod 2**128, that steps before each output
# word, rotr64(hi ^ lo, hi >> 58) of the new state (O'Neill, "PCG: A Family of
# Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905, XSL-RR).
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# Raw words per row up to which _raw_draws computes a block in closed form, as
# uint64 array passes, and not with one PCG64 per row; 48 is u <= 16. One
# PCG64 a row costs about 2 us whatever the width, while the closed form
# costs about the same per word, so it wins on narrow blocks only. On a
# 2-vCPU host, ms per block, per-row PCG64 -> closed form (medians of 7):
#
#   U   rows  words   per-row  closed
#   5   1000   21     1.94     0.44
#   8    400   28     0.82     0.35
#   12   400   38     0.84     0.39
#   15  1000   46     2.01     0.76
#   30   300   83     0.64     0.61
#   40   300  108     0.67     0.70
#   50   300  133     0.69     0.87
#
# The two are even from about 83 to 108 words at 300 rows, so the switch
# sits below that, where the closed form takes at most half the time.
CLOSED_FORM_WORDS = 48
# Words per closed-form pass: the first pass's states double up from one word,
# every later pass jumps each state this many steps. Of 4, 8, 16 and 32, 8
# was the fastest at 1000 rows, where a pass's arrays are 64 KB each.
RAW_CHUNK = 8


def _u128(value: int) -> tuple:
    """A 128-bit constant as np.uint64 (hi, lo, lo's low and high 32 bits)."""
    lo = value & 2**64 - 1
    return tuple(np.uint64(v) for v in (value >> 64, lo, lo & _MASK32, lo >> 32))


# n LCG steps take a state s to M**n * s + (1 + M + ... + M**(n-1)) * inc
# mod 2**128, M = PCG64_MULTIPLIER: both factors, per n = 1, 2, 4 .. RAW_CHUNK
_LCG_JUMPS = {n: (_u128(pow(PCG64_MULTIPLIER, n, 2**128)),
                  _u128(sum(pow(PCG64_MULTIPLIER, i, 2**128) for i in range(n)) % 2**128))
              for n in (2**k for k in range(RAW_CHUNK.bit_length()))}
_LOW32 = np.uint64(_MASK32)
_U1, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (1, 32, 58, 63, 64))


def _mul128(hi, lo, const):
    """(hi, lo) * const mod 2**128, as new uint64 arrays of the high and low
    halves, for a ``_u128`` constant."""
    c_hi, c_lo, c0, c1 = const
    # the high word of lo * c_lo from 32-bit halves l0, l1 of lo: t = l1 c0 +
    # (l0 c0 >> 32) and p = l0 c1 + (t & 2**32 - 1) stay below 2**64. Each
    # op writes into an array it holds, so that a pass keeps few temporaries.
    l0, t = lo & _LOW32, lo >> _U32
    p = l0 * c1
    out = t * c1
    l0 *= c0
    l0 >>= _U32
    t *= c0
    t += l0
    np.bitwise_and(t, _LOW32, out=l0)
    p += l0
    t >>= _U32
    out += t
    p >>= _U32
    out += p
    out += np.multiply(hi, c_lo, out=t)
    out += np.multiply(lo, c_hi, out=t)
    return out, np.multiply(lo, c_lo, out=p)


def _lcg_jump(hi, lo, n: int, steps):
    """The states n LCG steps on from (hi, lo), as new arrays. ``steps[n]``
    holds each row's (1 + M + ... + M**(n-1)) * inc, as (hi, lo) arrays with
    one entry per row, which broadcast over the words."""
    hi, lo = _mul128(hi, lo, _LCG_JUMPS[n][0])
    add_hi, add_lo = steps[n]
    lo += add_lo
    hi += add_hi
    hi += lo < add_lo
    return hi, lo


def _xsl_rr(hi, lo):
    """PCG64's output word of each state: rotr64(hi ^ lo, hi >> 58), where
    rotr64(x, r) = x >> r | x << (64 - r) % 64."""
    x, rot = hi ^ lo, hi >> _U58
    right = x >> rot
    x <<= np.subtract(_U64, rot, out=rot) & _U63
    x |= right
    return x


def _pcg64_words(states, out):
    """Fill the (len(states), width) uint64 array ``out`` with, per row of
    seed words (w0, w1, w2, w3) in ``states``,
    ``PCG64(_SeedWords(row)).random_raw(width)``, in closed form. With word
    pairs read as 128-bit numbers, high first, PCG64 seeds itself at
    ((w0 w1) + inc) * M + inc, where inc = 2 (w2 w3) + 1, and steps once
    before each word. States are held as (words, rows) arrays of their high
    and low halves, ``RAW_CHUNK`` words a pass, and each pass's words are
    written into ``out``, so no other array spans the block."""
    rows, width = out.shape
    w0, w1, w2, w3 = states.T
    inc = (w2 << _U1 | w3 >> _U63, w3 << _U1 | _U1)
    steps = {n: _mul128(*inc, g) for n, (_, g) in _LCG_JUMPS.items()}
    # the seeded state is 1 step on from initstate + inc, and word 0 one more
    lo = w1 + inc[1]
    seeded = _lcg_jump(w0 + inc[0] + (lo < inc[1]), lo, 2, steps)
    chunk = min(RAW_CHUNK, width)
    hi, lo = np.empty((chunk, rows), dtype=np.uint64), np.empty((chunk, rows), dtype=np.uint64)
    hi[0], lo[0] = seeded
    n = 1
    while n < chunk:
        m = min(n, chunk - n)
        hi[n:n + m], lo[n:n + m] = _lcg_jump(hi[:m], lo[:m], n, steps)
        n *= 2
    for col in range(0, width, chunk):
        m = min(chunk, width - col)
        if col:
            hi, lo = _lcg_jump(hi[:m], lo[:m], chunk, steps)
        out[:, col:col + m] = _xsl_rr(hi, lo).T


def _raw_draws(states, u: int):
    """A (len(states), _raw_width(u)) uint64 array: per row of seed words in
    ``states``, ``PCG64(_SeedWords(row)).random_raw(_raw_width(u))``. Every
    smaller U's words are a prefix of each row. A block of at most
    ``CLOSED_FORM_WORDS`` words a row is computed in closed form, as array
    passes (``_pcg64_words``); a wider one seeds one PCG64 a row."""
    raw = np.empty((len(states), _raw_width(u)), dtype=np.uint64)
    if raw.shape[1] <= CLOSED_FORM_WORDS:
        _pcg64_words(states, raw)
        return raw
    seed = _SeedWords(None)
    for row, words in enumerate(states):
        seed.words = words
        raw[row] = np.random.PCG64(seed).random_raw(raw.shape[1])
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


def _allocation_order(al_keys, perm, strategy):
    """Processing orders of a block of iterations, one row each: row b of
    ``perm`` is iteration b's random permutation of its UEs and row b of
    ``al_keys`` their ALs (or anything that sorts as the ALs). "unordered"
    keeps the permutation; the other strategies sort it stably by AL, so
    equal-AL UEs stay in permutation order."""
    if strategy == STRATEGY_UNORDERED:
        return perm
    keys = np.take_along_axis(al_keys, perm, axis=1)
    if strategy == STRATEGY_HIGH_TO_LOW:
        keys = -keys
    return np.take_along_axis(perm, np.argsort(keys, axis=1, kind="stable"), axis=1)


# Per AL, _greedy_assign's block-test constants lo and L - 1
_FIELDS = tuple(((2**64 - 1) // (2**L - 1) * (2**(L - 1) - 1), L - 1) for L in AGGREGATION_LEVELS)


def _greedy_assign(index, table):
    """Run the greedy on a block of iterations at once. Row b of ``index`` is
    iteration b's UEs in processing order, each as a column of ``table``, a
    (W + 2, S) uint64 array: a candidate set's W words, low word first, with
    one bit at the last CCE of each candidate, then its AL's constants lo
    (the low L - 1 bits of every L-bit field) and L - 1. Every iteration
    starts with no CCE used. At each position, every row's UE takes its
    first free candidate, or is blocked and takes none. Returns
    (scheduled, used): a (B, U) bool array, True where the UE took a
    candidate, and the (W, B) words of each row's used CCEs."""
    b, words = len(index), len(table) - 2
    used = np.zeros((words, b), dtype=np.uint64)
    blocked = np.empty((index.shape[1], b), dtype=bool)
    # intp columns, so that no take casts its indices
    for j, sets in enumerate(np.asfortranarray(index, dtype=np.intp).T):
        column = table.take(sets, axis=1)
        lo, shift = column[words:]
        # the top bit of an L-field of taken is set when the field holds a
        # used CCE: a carry out of its low L - 1 bits, or its own top bit;
        # candidate bits are field tops, so taken's other bits need no mask
        taken = used & lo
        taken += lo
        taken |= used
        free = np.bitwise_and(column[:words], ~taken, out=taken)
        low = free & -free  # each word's first free candidate
        none = np.logical_not(free[0], out=blocked[j])  # rows where no word has one yet
        for w in range(1, words):  # low is kept in the lowest word that has one
            low[w] *= none
            none &= np.logical_not(free[w])
        used |= (low + low) - (low >> shift)  # the L CCEs ending at low, mod 2**64
    return ~blocked.T, used


def _kernel(cfg: ScenarioConfig) -> tuple:
    """Per-CORESET tables for ``_run_range``: (positions, table).
    ``positions`` is P = floor(C/L) per AL. ``table``, in
    ``_greedy_assign``'s format, holds S = sum(P) columns, each AL's
    candidate set at every residue Y mod P, AL by AL. An AL with no
    candidates, or larger than the CORESET, gets P = 1 and an all-zero set,
    so its UEs are always blocked."""
    cce_count = cfg.coreset.cce_count
    words = -(-cce_count // 64)
    counts = cfg.candidates_per_al
    width = max(counts)
    # one row per AL: its block-test constants, L, the span L P at which its
    # starts wrap, L - 1 less L times its first column (mod 2**64), then its
    # starts at residue 0, cycled to the largest count. An empty set is one
    # start past the last word, with no span, so it never wraps.
    positions, rows, offset = [], [], 0
    for level, m, fields in zip(AGGREGATION_LEVELS, counts, _FIELDS):
        if m and level <= cce_count:
            p = cce_count // level
            starts, span, tail = candidate_starts(level, cce_count, m, 0), level * p, level - 1
        else:
            p, starts, span, tail = 1, [64 * words], 0, 0
        base = (tail - level * offset) % 2**64
        rows.append([*fields, level, span, base, *(starts * width)[:width]])
        positions.append(p)
        offset += p
    columns = np.repeat(np.array(rows, dtype=np.uint64).T, positions, axis=1)
    level, span, base = columns[2:5]
    # at residue r = column - first column, a candidate's last CCE is its
    # start moved r blocks on, plus L - 1, less L P once that reaches L P:
    # the smaller of the two, since the uint64 difference wraps below 0
    lasts = columns[5:] + (base + level * np.arange(offset, dtype=np.uint64))
    lasts = np.minimum(lasts, lasts - span, out=lasts)
    # one bit per candidate at its last CCE, in its word: a last CCE below
    # word w wraps, and numpy shifts a uint64 by 64 or more to 0
    bits = lasts[:, None] - np.arange(0, 64 * words, 64, dtype=np.uint64)[:, None]
    np.left_shift(np.uint64(1), bits, out=bits)
    return np.array(positions), np.concatenate([np.bitwise_or.reduce(bits, axis=0), columns[:2]])


def _draw_key(cfg: ScenarioConfig) -> tuple:
    """What a config's C-independent half depends on besides its master seed
    and iteration range."""
    return cfg.ue_count, cfg.al_distribution, cfg.strategy


def _draw_blocks(configs, start: int, stop: int):
    """Yield the C-independent half of iterations [start, stop) of
    ``configs``, which share master_seed, per block: a dict from each
    distinct ``_draw_key`` to its AL indices (int8) and Ys (int32), (B, U)
    arrays with each row in processing order."""
    keys = {}  # draw key -> the cumulative AL distribution's edges
    for cfg in configs:
        # a draw above a rounded-down total is the last AL of nonzero
        # probability, so the edges stop before that AL's
        last = np.flatnonzero(cfg.al_distribution)[-1]
        keys[_draw_key(cfg)] = np.cumsum(cfg.al_distribution)[:last]
    ues = {key[0] for key in keys}
    u_max = max(ues)
    block = max(1, min(STATE_BLOCK, BLOCK_UES // u_max))
    for states in _state_blocks(configs[0].master_seed, start, stop, block):
        raw = _raw_draws(states, u_max)
        decoded = {u: _decode_draws(states, raw, u) for u in ues}
        drawn = {}
        for key, edges in keys.items():
            u, _, strategy = key
            rntis, uniforms, perm = decoded[u]
            # the number of edges at or below each uniform, as searchsorted's
            # side="right"; int8 keys also take argsort's radix path
            al_idx = np.zeros(uniforms.shape, dtype=np.int8)
            for edge in edges:
                al_idx += uniforms >= edge
            # each row's processing order, as indices into the flat arrays
            flat = _allocation_order(al_idx, perm, strategy) + np.arange(0, perm.size, u)[:, None]
            drawn[key] = (al_idx.take(flat),
                          (rntis * Y_MULTIPLIER % Y_MODULUS).take(flat).astype(np.int32))
        yield drawn


def _draw_range(configs, start: int, stop: int) -> list:
    """``_draw_blocks`` as a list, to keep or to pass between processes."""
    return list(_draw_blocks(configs, start, stop))


def _simulate_iteration(index, table):
    """Run a block of scheduling opportunities: row b of ``index`` holds
    iteration b's UEs as rows of ``table``, in processing order. Returns
    each row's number of blocked UEs."""
    scheduled, _ = _greedy_assign(index, table)
    return index.shape[1] - scheduled.sum(axis=1)


def _run_range(configs, start: int, stop: int, keep: bool, drawn) -> list:
    """Run iterations [start, stop) of every config in ``configs``, which
    share master_seed, a block at a time: the C-independent half from
    ``drawn`` (this range's ``_draw_range``) or, when None, from
    ``_draw_blocks``, then per config the C-dependent half, each UE's table
    column and one greedy pass over the block. Returns each config's
    (blocked_total, per-iteration counts or None), in order."""
    tables = {}  # (C, candidate counts) -> offsets and P per AL, table
    runs = []  # per config: its draw key and its tables
    for cfg in configs:
        key = (cfg.coreset.cce_count, cfg.candidates_per_al)
        if key not in tables:
            positions, table = _kernel(cfg)
            # (AL index a, residue r) is table column offsets[a] + r
            offsets = np.cumsum(positions) - positions
            tables[key] = (np.array([offsets, positions], dtype=np.int32), table)
        runs.append((_draw_key(cfg), tables[key]))
    totals, per_iter = [0] * len(configs), [[] for _ in configs]
    for block in _draw_blocks(configs, start, stop) if drawn is None else drawn:
        for i, (key, (per_al_index, table)) in enumerate(runs):
            al_idx, ys = block[key]
            offsets, positions = per_al_index.take(al_idx, axis=1)
            index = np.remainder(ys, positions, out=positions)
            index += offsets
            blocked = _simulate_iteration(index, table)
            totals[i] += int(blocked.sum())
            if keep:
                per_iter[i] += blocked.tolist()
    return [(total, counts if keep else None) for total, counts in zip(totals, per_iter)]


def _worker_pool(ranges: int):
    """A context manager that gives a process pool for ``ranges`` iteration
    ranges, or None for one range. The calling process runs the first range
    of every map itself, so the pool opens one process fewer than the
    ranges or than the CPUs, whichever is fewer, but at least one, since
    every process is started at the first submit; the ranges queue for
    them. The pool is shut down, and its workers waited for, when the block
    exits, also by an exception."""
    if ranges == 1:
        return nullcontext()
    return ProcessPoolExecutor(max_workers=max(1, min(ranges, os.cpu_count() or 1) - 1))


# UE-iterations a range must hold before a run is split into another one.
# On a 2-vCPU host, with one pool held per plan as the planner does, the
# pooled/serial wall-time ratio of the bundled plans at 1000, 2048, 4096
# and 10 000 iterations, split in two ranges, was, in two runs of 7 and 9
# alternated rounds:
#
#   U=5 plan:  UE-iterations per range  2500  5120  10 240  25 000
#              pooled/serial wall       2.40  1.73   1.30    0.91
#                                       3.97  1.81   1.34    0.98
#   U=15 plan: UE-iterations per range  7500  15 360  30 720  75 000
#              pooled/serial wall       1.90  1.30    0.96    0.67
#                                       1.73  1.08    0.83    0.72
#
# Both cross at about 25k UE-iterations per range, and pooled CPU time was
# higher in every case.
MIN_RANGE_UES = 3 * 2**13


def _bounds(configs, workers) -> list:
    """The bounds of the iteration ranges of a run of ``configs``, which
    share their iteration count: one per worker, but no more than the
    iterations, so that none is empty, and no more than one per
    ``MIN_RANGE_UES`` UE-iterations of all configs together, so that a
    small run stays in the calling process."""
    workers = 1 if workers is None else as_integer("workers", workers, 1)
    iterations = configs[0].iterations
    work = iterations * sum(cfg.ue_count for cfg in configs)
    n = min(workers, iterations, max(1, work // MIN_RANGE_UES))
    return [i * iterations // n for i in range(n + 1)]


def _map_ranges(fn, configs, bounds, pool, *columns) -> list:
    """``fn(configs, start, stop, *column values)`` per range of ``bounds``,
    in order: the builtin ``map`` for one range, even when handed a pool.
    With more, ranges 1 .. n - 1 go to ``pool.map``, or a pool opened for
    this call, and then the calling process runs range 0 itself, so its
    arguments and result are never pickled."""
    n = len(bounds) - 1
    args = [[configs] * n, bounds[:-1], bounds[1:], *columns]
    if n == 1:
        return list(map(fn, *args))
    with _worker_pool(n) if pool is None else nullcontext(pool) as pool:
        rest = pool.map(fn, *(column[1:] for column in args))
        return [fn(*(column[0] for column in args)), *rest]


class Draws(NamedTuple):
    """A run's C-independent half from ``draw_ranges``, per worker range,
    and the pool of its block, or None. ``drawn_for`` is (master seed, range
    bounds, U, AL mix, strategy); the last bound is the iteration count."""

    drawn_for: tuple
    ranges: tuple
    pool: object


def _drawn_for(cfg: ScenarioConfig, bounds) -> tuple:
    return (cfg.master_seed, tuple(bounds), *_draw_key(cfg))


@contextmanager
def draw_ranges(cfg: ScenarioConfig, workers: int = None):
    """Draw the C-independent half of ``run_scenario(cfg, workers)`` once,
    for every run that differs from ``cfg`` only in CORESET or candidate
    counts to take as ``draws=``, and yield it as ``Draws``. Its ranges are
    ``run_scenario``'s: the calling process, one of the ``workers``, draws
    range 0, and a split run's pool the rest; runs given these draws map
    their ranges over the same pool. A run below the ``MIN_RANGE_UES`` split
    is one range and opens no pool. The pool closes when the block exits,
    also by an exception: a split run's draws are valid only inside it, and
    after it the closed pool raises RuntimeError."""
    bounds = _bounds((cfg,), workers)
    with _worker_pool(len(bounds) - 1) as pool:
        ranges = tuple(_map_ranges(_draw_range, (cfg,), bounds, pool))
        yield Draws(_drawn_for(cfg, bounds), ranges, pool)


def _run_configs(configs, workers, keep: bool, draws=None) -> list:
    """``run_scenario`` for every config in ``configs`` at once: one map of
    ``_run_range`` over the iteration ranges, each range running every config.
    Returns each config's ``SimulationResult``, in order."""
    bounds = _bounds(configs, workers)
    n = len(bounds) - 1
    if draws is not None and draws.drawn_for != _drawn_for(configs[0], bounds):
        raise ValueError(
            f"draws were made for (master seed, range bounds, U, AL mix, strategy) "
            f"{draws.drawn_for}, not {_drawn_for(configs[0], bounds)}")
    pool, drawn = (None, [None] * n) if draws is None else (draws.pool, draws.ranges)
    parts = _map_ranges(_run_range, configs, bounds, pool, [keep] * n, drawn)
    return [SimulationResult(
        cfg.ue_count, cfg.iterations, cfg.master_seed, sum(part[i][0] for part in parts),
        tuple(b for part in parts for b in part[i][1]) if keep else None)
        for i, cfg in enumerate(configs)]


def run_scenario(cfg: ScenarioConfig, workers: int = None,
                 keep_per_iteration: bool = False, *, draws: Draws = None) -> SimulationResult:
    """Estimate the blocking probability for one scenario.

    The iterations are split into contiguous ranges, one per worker but at
    most one per iteration and one per ``MIN_RANGE_UES`` UE-iterations, and
    one map runs ``_run_range`` over them; their counts are summed in range
    order. None or 1 ``workers``, or a run too small to split, is the
    builtin ``map`` over one range in the calling process, which opens no
    pool. ``workers`` > 1 counts the calling process: on a split run it
    works range 0 itself while the other ranges map over the pool of
    ``draws``, or a pool opened and closed for this call. Every iteration
    seeds its own stream from (master_seed, iteration), so the result does
    not depend on the number of ranges. ``run_sweep`` takes the same path
    with all its points at once, and its ranges count the UEs of every point.

    ``draws`` from ``draw_ranges`` is the C-independent half, drawn
    beforehand; the result is the same. Draws made for another master seed,
    iteration count, U, AL mix or strategy, or at a worker count that gives
    other ranges, raise ValueError before any range runs.
    ``plan_min_coreset`` draws once for all its evaluations.
    """
    return _run_configs((cfg,), workers, keep_per_iteration, draws)[0]


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
        base, candidates_per_al=counts)),
    "al_distribution": (float, "probabilities", lambda base, probs: replace(
        base, al_distribution=probs)),
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
    _, key, apply = SWEEP_AXES[axis]
    if key is not None:
        point = _named_point(point, key)
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
            in zip(points, labels, _run_configs(configs, workers, False))]
