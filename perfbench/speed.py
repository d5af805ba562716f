"""Times scaled to a reference speed of the machine.

A shared VM's vCPU runs interpreter-bound code at speeds that move by up to
2x in phases of a second to a minute, and the two vCPUs of the reference
machine move independently.  Raw medians over a 35 s run therefore differ by
20-35% between runs of the same code.  Two references take that out.

* Work inside a process: a fixed pure-Python kernel (rational elimination
  and big-integer products over a table larger than the L2 cache, the kind
  of work the package does) is timed every ``INTERVAL_S`` from a SIGALRM
  handler, between bytecodes of the work itself.  The work's time, less the
  kernel's own, is scaled by ``REF_KERNEL_S / mean(kernel times)``.  The
  kernel runs twice per sample and only the second run is timed, since the
  first finds the caches cold.  Sampling from another process does not work
  for the same reason.
* Starting a process: the benchmark starts a bare ``python3 -c pass`` right
  before every process it times, and scales the part of that process's time
  that lies outside its sampled work by ``REF_START_S / (bare start time)``.
  Over 80 pairs the ratio of a CLI call to its bare start spread 0.09
  (quartile spread over median), against 0.35 for the raw call.

A reported time is thus "seconds at the reference speed": the time the work
would have taken at the speed the references have in a fast phase.  A change
that makes the package faster makes these times smaller in the same
proportion as the raw ones.
"""

from __future__ import annotations

import json
import signal
from fractions import Fraction
from time import perf_counter

# kernel and bare-start times on the reference machine (Intel Xeon vCPU,
# Python 3.11) in a fast phase; only the unit of the scaled times depends on them
REF_KERNEL_S = 300e-6
REF_START_S = 0.05
INTERVAL_S = 0.02
# a fresh process reports its samples as the last line of its stderr
TAG = "perfbench-speed "

_MATRIX = tuple(tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + 2 * j) % 5) + 7 * (i == j)
                      for j in range(5)) for i in range(5))
_BIG = 7 ** 110


def _tables() -> list:
    """A list of big integers larger than the L2 cache: the work's speed
    depends on cache contention from other tenants, and so must the kernel's."""
    return [i * _BIG for i in range(1, 20001)]


def kernel(table: list) -> Fraction:
    """Rational elimination on a 5x5 matrix (the package's exact division),
    then products of big integers read from all over ``table``."""
    m = [list(row) + [Fraction(i + 1)] for i, row in enumerate(_MATRIX)]
    for k in range(5):
        for i in range(k + 1, 5):
            f = m[i][k] / m[k][k]
            for j in range(k, 6):
                m[i][j] -= f * m[k][j]
    s = 0
    for i in range(300):
        s += table[i * 7919 % 20000] * table[i * 104729 % 20000]
    return m[4][5] + s % 7


class Speedometer:
    """Samples the kernel every INTERVAL_S while active.

    ``clock()`` is perf_counter minus the time spent in the kernel, so a
    difference of ``clock()`` times the measured work alone; ``scale()``
    turns it into seconds at the reference speed.
    """

    def __init__(self) -> None:
        t0 = perf_counter()
        self.table = _tables()
        self.samples: list[float] = []
        self.spent = perf_counter() - t0
        self._previous = None

    def _sample(self, *_) -> None:
        """Run the kernel twice and time the second run: the first run after
        the work's own code finds the caches cold and tracks nothing."""
        t0 = perf_counter()
        kernel(self.table)
        t1 = perf_counter()
        kernel(self.table)
        t2 = perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def __enter__(self) -> Speedometer:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:       # an interval shorter than one tick
            self._sample()

    def clock(self) -> float:
        return perf_counter() - self.spent

    def scale(self) -> float:
        return REF_KERNEL_S * len(self.samples) / sum(self.samples)

    def report(self, work_s: float) -> str:
        """The stderr line with which a fresh process hands on its samples:
        the kernel's time, the raw time of the sampled work, and the scale."""
        return TAG + json.dumps({"spent": self.spent, "work": work_s, "scale": self.scale()})


def scaled_process_time(wall: float, bare: float, stderr: bytes) -> float:
    """Spawn-to-exit time ``wall`` of a process at the reference speed.

    ``bare`` is the time of the bare interpreter start just before it.  If the
    process reported its samples, its sampled work is scaled by its kernel
    and only the rest (interpreter start, import, exit) by the bare start.
    """
    spent, work, scale = 0.0, 0.0, 1.0
    lines = stderr.decode("utf-8", "replace").rstrip().splitlines()
    if lines and lines[-1].startswith(TAG):
        record = json.loads(lines[-1][len(TAG):])
        spent, work, scale = record["spent"], record["work"], record["scale"]
    return (wall - spent - work) * REF_START_S / bare + work * scale
