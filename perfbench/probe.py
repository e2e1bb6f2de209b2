"""In-line probe of machine speed, for timing passes on a shared host.

    python perfbench/probe.py -m MODULE ARG...    run a module as `python -m` would

The benchmark's machine is a few virtual CPUs of a shared host. How fast a
virtual CPU runs Python changes by tens of percent from second to second and
from minute to minute as other tenants load the host, so the wall time of
the same pass moves with the time at which it ran. The probe measures that
speed where and when the pass runs: every PERIOD_S of real time a SIGALRM
handler, in the main thread of the timed process, times one fixed unit of
pure-Python work, if the thread was busy since the last tick (a unit timed
just after a wait runs on cold caches and reads slow). The unit is the benchmark's own code, never the package's,
and mixes what the package's hot paths do: closure checks over subsets by
bit masks and canonical codes of a small order by trying permutations, so it
slows as they slow. Processes forked by multiprocessing (the worker pool)
probe themselves too.

A pass then reads, at the reference speed at which one unit takes UNIT_REF_S,
    (seconds measured - seconds spent in probe units) * UNIT_REF_S / mean unit
so a faster program reads faster and a busier host does not read slower.
Each probing process writes its totals to stderr as one line, PREFIX + JSON.
"""

import atexit
import itertools
import json
import multiprocessing.util
import os
import runpy
import signal
import sys
import time

PERIOD_S = 0.02
BUSY_CPU_S = PERIOD_S / 2     # thread CPU time since the last tick that counts as busy
# Seconds one unit takes on an unloaded virtual CPU of the 2-vCPU host the
# benchmark was written on (CPython 3.11); it only sets the scale.
UNIT_REF_S = 0.0003
PREFIX = "perfbench-probe "

# "i and j in S implies k in S", as (mask of {i, j}, bit of k).
_CONSTRAINTS = tuple(((1 << i) | (1 << j), 1 << k) for i, j, k in (
    (0, 1, 2), (2, 3, 4), (4, 5, 6), (1, 6, 7), (3, 7, 8), (5, 8, 9),
    (6, 9, 10), (8, 10, 11), (0, 11, 3), (2, 9, 5), (1, 10, 4), (7, 11, 0),
))
_EDGES = ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4))
_PERMS = tuple(itertools.permutations(range(5)))


def unit():
    closed = 0
    for s in range(256):
        for pair, k in _CONSTRAINTS:
            if s & pair == pair and not s & k:
                break
        else:
            closed += 1
    codes = {}
    for perm in _PERMS:
        code = tuple(sorted((perm[a], perm[b]) for a, b in _EDGES))
        codes[code] = codes.get(code, 0) + 1
    return closed, len(codes)


class Probe:
    """Count and total seconds of the units timed in this process."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        self._cpu = 0.0

    def _tick(self, signum, frame):
        if time.thread_time() - self._cpu >= BUSY_CPU_S:
            t = time.perf_counter()
            unit()
            self.seconds += time.perf_counter() - t
            self.units += 1
        self._cpu = time.thread_time()

    def start(self):
        self.units = 0
        self.seconds = 0.0
        self._cpu = time.thread_time()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return {"units": self.units, "seconds": self.seconds}

    def emit(self):
        """Stop, and write the totals to stderr."""
        totals = self.stop()
        totals["main"] = os.getpid() == _MAIN_PID
        sys.stderr.write(PREFIX + json.dumps(totals) + "\n")
        sys.stderr.flush()


PROBE = Probe()
_MAIN_PID = os.getpid()


def _in_forked_child(probe):
    # Runs in a multiprocessing child after fork: interval timers are not
    # inherited, so arm a fresh one; children end through os._exit, which
    # skips atexit but runs multiprocessing's finalizers.
    probe.start()
    multiprocessing.util.Finalize(None, probe.emit, exitpriority=0)


def run_module(argv):
    """Run `python -m argv[0] argv[1:]` in this process, probed; returns its exit code."""
    multiprocessing.util.register_after_fork(PROBE, _in_forked_child)
    atexit.register(PROBE.emit)
    sys.argv = list(argv)
    sys.path[0] = os.getcwd()           # as under `python -m`, not this directory
    PROBE.start()
    runpy.run_module(argv[0], run_name="__main__", alter_sys=True)
    return 0


def totals(stderr):
    """Probe totals in a probed process tree's stderr: (main, others), each a
    list of {"units", "seconds"}."""
    main, others = [], []
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith(PREFIX):
            record = json.loads(line[len(PREFIX):])
            (main if record.pop("main") else others).append(record)
    return main, others


def at_reference(seconds, probe_seconds, units, probe_total_seconds):
    """Seconds measured, less probe time, at the reference speed."""
    if not units:
        raise ValueError("the probe timed no unit")
    return (seconds - probe_seconds) * UNIT_REF_S * units / probe_total_seconds


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] != "-m":
        sys.exit(__doc__.splitlines()[2].strip())
    sys.exit(run_module(sys.argv[2:]))
