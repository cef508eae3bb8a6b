"""How fast the host runs right now, relative to a fixed reference host.

The host this benchmark was written on changes speed by up to 2x for spells
of a tenth of a second to a minute, one core at a time, and CPU time drifts
with wall time, so the program is not waiting for the scheduler; it is the
core that is slower. Timing a fixed reference task right before and after
each pass, on the cores the pass runs on, and dividing the pass's times by the
measured slowdown cancels most of that drift.
"""

import multiprocessing
import resource
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

REFERENCE_S = 0.007  # reference_task's mean time on the reference host
# pooled_probe(2)'s mean wall and CPU time on the reference host: on the
# host this benchmark was written on, they were 0.027 and 0.045 times
# slowdown_here().
REFERENCE_POOL_S = 0.027
REFERENCE_POOL_CPU_S = 0.045


def reference_task():
    """Fixed work in the simulator's two styles, written in benchmark code:
    seeded Generator construction with small draws, and Python integer
    hashing."""
    total = 0
    for it in range(200):
        rng = np.random.default_rng([7, it])
        for x in rng.integers(1, 65536, size=16).tolist():
            y = 39827 * x % 65537
            total += sum((y + k * 9) % 13 for k in range(6))
    return total


def slowdown_here():
    """Slowdown of the calling process's core: the mean of three timings of
    reference_task over REFERENCE_S. The mean, not the best, because a pass
    runs through the host's slow moments as well as its fast ones."""
    start = time.perf_counter()
    for _ in range(3):
        reference_task()
    return (time.perf_counter() - start) / 3 / REFERENCE_S


def _probe_task(_):
    reference_task()
    reference_task()


def cpu_seconds():
    """CPU time of this process plus its waited-for children (pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def pooled_probe(cores):
    """Wall and CPU time of one start, run and shut-down of a forked pool of
    ``cores`` workers, each running reference_task twice: the shape of one
    pooled simulator call. Forked, as the simulator's pool is on Linux; the
    pool waits for its workers as it shuts down, so their CPU time counts."""
    cpu = cpu_seconds()
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=cores,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        list(pool.map(_probe_task, range(cores)))
    return time.perf_counter() - start, cpu_seconds() - cpu


class HostSpeed:
    """Measures the slowdown for work on ``cores`` processes at once, as a
    pair: the slowdown of wall time and that of CPU time.

    With one core the calling process times reference_task itself, and the
    two are the same. With more, it times pooled_probe three times: the
    pooled workload spends much of its time starting pools and passing
    results, which a lone compute task on an idle core does not see, and the
    probe's wall and CPU time react to the host differently.
    """

    def __init__(self, cores=1):
        self.cores = cores

    def slowdown(self):
        if self.cores == 1:
            here = slowdown_here()
            return here, here
        walls, cpus = zip(*(pooled_probe(self.cores) for _ in range(3)))
        return sum(walls) / 3 / REFERENCE_POOL_S, sum(cpus) / 3 / REFERENCE_POOL_CPU_S
