"""Host pace: a fixed pure-Python probe timed beside the program.

On the 2-vCPU share of a busy Xeon host the benchmark was tuned on, CPU
speed swings by up to about 2x, in episodes from a fraction of a second to
minutes (a fixed pure-Python loop of about 0.2 s read 0.15-0.32 s over three
minutes; its thread CPU time read the same, so the lost time is slower
execution, not stolen time).  A median over a whole run does not remove
swings that long.

So every timed interval is paired with the probe below, timed at the same
moment on the same CPU, and reported scaled by ``REFERENCE_S / probe_s``: as
it would read on a host that runs the probe in ``REFERENCE_S``.  On the suite
workloads the probe runs in the synthesizing process right before each task;
scaling by it cut the spread of one task's time over 23 passes (IQR / median)
from 0.33 to 0.12, and of a pass's wall time from 0.15 to 0.08.  On
``service-mix``, whose synthesis runs in the server, a sampler process
(``python3 pace.py``) probes every ``SAMPLE_EVERY_S`` while a pass runs.

The two vCPUs of the host swing apart (the log probe times of two processes
pinned one to each correlated at only 0.4), so the process that synthesizes
and the sampler are pinned to one CPU and the benchmark's own process, the
load generator, to the others (``split_cpus``).  A probe's time is its
thread's CPU time, so a sampler that shares the CPU with a busy server
measures the CPU's pace and not its share of it.

The probe is benchmark code only: it calls nothing in ``repro``, so a change
to the program moves the scaled times and leaves the probe alone.  The
unscaled figures are printed beside the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import sys
from time import perf_counter, thread_time

#: The probe's duration on the reference host; scaled times are times there.
REFERENCE_S = 0.012

#: Pause between two probes of the sampler process.
SAMPLE_EVERY_S = 0.1

#: A sampled interval's pace is the median of the probes that ran within
#: this many seconds of it.
WINDOW_S = 0.25


def _work() -> int:
    # Dict updates, small-tuple sorts and string building: the interpreter
    # work the synthesizer does, with no call into it.
    counts: dict = {}
    heads = []
    for i in range(4000):
        key = (i * 7919) % 613
        counts[key] = counts.get(key, 0) + i
        if i % 50 == 0:
            heads.append(sorted(counts.items())[:5])
    text = "".join(str(value) for value in counts.values())
    return len(text) + len(heads)


def probe() -> float:
    """CPU seconds the fixed probe takes now."""
    started = thread_time()
    _work()
    return thread_time() - started


def split_cpus():
    """(CPUs for the process that synthesizes, CPUs for the load generator):
    the last allowed CPU and the rest, or all of them for both on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[-1:], cpus[:-1]) if len(cpus) > 1 else (cpus, cpus)


def pin(cpus) -> None:
    """Run the calling thread, and the threads it starts from now on, on ``cpus``."""
    os.sched_setaffinity(0, cpus)


def probe_on(cpus) -> float:
    """The probe, run by the calling thread on ``cpus``; its CPUs are restored after."""
    before = os.sched_getaffinity(0)
    pin(cpus)
    try:
        return probe()
    finally:
        pin(before)


def scale(probe_s: float) -> float:
    """Factor that turns a time measured beside ``probe_s`` into a reference time."""
    return REFERENCE_S / probe_s


def window_scale(samples, start: float, end: float) -> float:
    """Scale for the interval ``[start, end]`` from sampler lines
    ``(moment, probe_s)``: the median probe within ``WINDOW_S`` of it, or
    the nearest probe when none ran that close."""
    near = [s for t, s in samples if start - WINDOW_S <= t <= end + WINDOW_S]
    if not near:
        middle = (start + end) / 2
        near = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
    return scale(statistics.median(near))


def main() -> int:
    """Sampler: print ``moment probe_s`` lines until stdin closes.

    ``moment`` is the probe's midpoint on ``perf_counter``, which on Linux is
    the system-wide monotonic clock, so it compares with the parent's.  The
    arguments, if any, are the CPUs to run on.
    """
    import select

    if sys.argv[1:]:
        pin([int(cpu) for cpu in sys.argv[1:]])
    while True:
        started = perf_counter()
        probe_s = probe()
        finished = perf_counter()
        sys.stdout.write(f"{(started + finished) / 2!r} {probe_s!r}\n")
        sys.stdout.flush()
        if select.select([sys.stdin], [], [], SAMPLE_EVERY_S)[0] and not sys.stdin.read(1):
            return 0


if __name__ == "__main__":
    sys.exit(main())
