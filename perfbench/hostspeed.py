"""Host-speed calibration and steal correction.

The machines this benchmark runs on are shared: the same fixed loop takes
from 0.8x to 1.3x its median time, in level shifts lasting from seconds to
minutes.  The CPU steal that ``/proc/stat`` shows (0 to 25% of the machine
over a run) explains these shifts only in part: some come with no steal at
all.  Medians over a run cannot remove a shift that covers the whole run,
so the times of every timed pass and every set-up are corrected.

The two cores of such a machine also differ from each other at any one
moment, so the benchmark process, and any process it starts, is kept on
one CPU (:func:`pin_to_one_cpu`).

Batch workloads are bracketed by calibration samples, taken on the main
thread between passes while the program is idle, and their times are
scaled to the reference speed :data:`CAL_REF_S`.  A program that is not
idle then (a thread more than it had after set-up, or CPU used by its other
threads or its child processes during the sample) would slow the
calibration and so hide its own slowdown; such a sample is counted as
disturbed and the passes it brackets are reported unscaled.

Live workloads are not calibrated: their cost is mostly thread and process
wake-ups, which the calibration loop does not track.  Their times are
corrected for steal instead (:func:`unstolen`), counted over the whole
machine rather than the one CPU they run on: the busy CPU shows little
steal while the idle one shows most of it, and the total is what tracks how
slowly the busy one runs.  Raw times are printed next to corrected ones.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
import time
from typing import Optional

import numpy as np

#: seconds one calibration loop takes at the reference host's median speed
#: (2-core VM the benchmark was built on); scaled times are expressed at
#: this speed.
CAL_REF_S = 0.0080
#: loops per sample; the sample is the fastest, which discards a loop that
#: was preempted.
LOOPS = 5
#: a sample during which the program's other threads and child processes
#: used more CPU than this share of the sample's wall time is disturbed.
BUSY_SHARE = 0.02
#: the steal correction takes at most this many stolen CPUs into account,
#: so that it never more than doubles a rate.
MAX_STOLEN_CPUS = 0.5


def calibration_loop() -> float:
    """A fixed mix of interpreter work (heap, dict) and small numpy calls,
    the two kinds of work the workloads do; returns its wall time."""
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i % 97] = table.get(i % 97, 0) + 1
    while heap:
        heapq.heappop(heap)
    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    for _ in range(40):
        a = np.tanh(a @ a.T * 1e-2)
    return time.perf_counter() - start


def program_cpu_s() -> float:
    """CPU seconds used so far by this process's threads other than the
    calling one, plus its child processes (``/proc/<pid>/schedstat``)."""
    total = time.process_time() - time.thread_time()
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/schedstat") as fh:
                total += int(fh.read().split()[0]) / 1e9
        except (OSError, ValueError, IndexError):
            pass  # the child ended
    return total


class HostSpeed:
    """Calibration samples taken on the benchmark's own thread."""

    def __init__(self) -> None:
        self.samples: list = []
        #: samples taken while the program was not idle.
        self.disturbed = 0
        #: threads the program keeps between passes; set after set-up.
        self.threads: Optional[int] = None
        self.sample()  # warm-up: first-call costs

    def sample(self) -> Optional[float]:
        """Seconds of one calibration loop right now (fastest of LOOPS), or
        None if the program was not idle during the sample."""
        start = time.perf_counter()
        busy = program_cpu_s()
        value = min(calibration_loop() for _ in range(LOOPS))
        busy = program_cpu_s() - busy
        extra_threads = (
            self.threads is not None and threading.active_count() != self.threads
        )
        if extra_threads or busy > BUSY_SHARE * (time.perf_counter() - start):
            self.disturbed += 1
            return None
        self.samples.append(value)
        return value


def pin_to_one_cpu() -> int:
    """Keep this process, and the processes it starts, on one CPU, so that
    the calibration and the workload run on the same core; returns it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def unstolen(stolen_cpus: float) -> float:
    """Factor turning a raw time into the part of it the host did not steal,
    given the CPU-seconds stolen from the machine per second."""
    return 1.0 - min(stolen_cpus, MAX_STOLEN_CPUS)


def scale(before: Optional[float], after: Optional[float]) -> float:
    """Factor turning a raw time measured between two samples into a time
    at the reference speed; 1 (unscaled) if either sample was disturbed."""
    if before is None or after is None:
        return 1.0
    return CAL_REF_S / (0.5 * (before + after))
