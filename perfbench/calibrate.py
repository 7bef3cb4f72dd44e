"""A calibrated clock: wall time with the host's slow spells divided out.

The reference box is a 2-vCPU VM whose speed is bimodal: for seconds at
a time every CPU-bound instruction stream runs 20-30 % slower (a busy
sibling on the host), and a 10 s run may sit entirely in either mode.
Raw medians of one commit then spread (IQR over median) by 15-19 % on
``bulk_mem`` in both committed result files, and a run set that falls
across a mode change by the full 20-30 %, which no regression bound
survives.

So a fixed kernel — SHA-1 over 4 MiB plus a table gather and XOR-reduce
over the same 4 MiB, the instruction mix of the data path — runs between
operations, at most every ``MIN_GAP_S``.  Its duration over
``REFERENCE_S`` is the slowdown factor ``f`` at that moment, and an
interval's calibrated length is the time it would have taken at
``f = 1``: the part of it the process spent on the CPU is divided by the
``f`` of the bracketing samples, the part it spent waiting (a sleeping
provider, an fsync) is kept as it was.  ``results/spread.json`` holds
every run of a ten-seed suite on both clocks: the put/get/ops metrics
spread 1.6-7.1 % calibrated where they spread 3.1-15.3 % raw, and about
the same as raw on a workload whose runs the host happened to serve at
one speed.

What it costs, and what it cannot see:

* The kernel streams 8 MiB through the caches, so the operation after a
  sample starts cold.  At a 30 ms gap that made ``smallfiles_2dev``'s
  medians 20 % slower than they are; at 100 ms (slow spells last
  seconds) the kernel is at most a tenth of the wall time.
* It tells the host's speed from the program's only while the program
  is idle between operations.  A sample during which the program's
  other threads used the CPU is therefore discarded (a change that
  leaves a busy thread behind must not have its own slowdown divided
  out); the share of such samples is reported with every run.
* A change that slows the *host* for everyone, the kernel included —
  say by evicting the shared cache — is divided out.  The raw values
  are recorded beside the calibrated ones for that reason.
* The kernel is native code.  Interpreter-bound work (``smallfiles_2dev``,
  ``fleet_netsim``) at times changes speed by 10-17 % while the kernel's
  does not; five same-seed runs that straddled such a change spread
  18-22 % on both clocks (``results/baseline.json``).

``REFERENCE_S`` only fixes the unit (milliseconds of the reference box
in its fast mode); it cancels out of every comparison between two
commits measured on one machine.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import time

import numpy as np

REFERENCE_S = 0.012
MIN_GAP_S = 0.1
#: CPU time of the program's other threads, as a share of a sample's
#: wall time, above which the sample is not used
CONTENDED_SHARE = 0.1


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(0xCA11B))
        self._bytes = rng.bytes(4 << 20)
        self._array = np.frombuffer(self._bytes, dtype=np.uint8)
        self._table = rng.permutation(256).astype(np.uint8)
        #: sample start times, end times, slowdown factors (parallel lists);
        #: the factor of a contended sample is None
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float | None] = []
        self.sample()  # the first call pays numpy's one-time set-up
        del self.starts[:], self.ends[:], self.factors[:]

    def sample(self) -> None:
        others = time.process_time() - time.thread_time()
        started = time.perf_counter()
        hashlib.sha1(self._bytes).digest()
        np.bitwise_xor.reduce(self._table[self._array].reshape(4, -1), axis=0)
        ended = time.perf_counter()
        others = time.process_time() - time.thread_time() - others
        self.starts.append(started)
        self.ends.append(ended)
        # The loop is closed, so between operations the program should be
        # idle.  If its other threads burned CPU while the kernel ran, a
        # slow kernel is the program's doing, not the host's, and must
        # not be divided out of the program's own times.
        contended = others > CONTENDED_SHARE * (ended - started)
        self.factors.append(
            None if contended else (ended - started) / REFERENCE_S)

    def maybe_sample(self) -> None:
        """Call between operations, never inside one."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= MIN_GAP_S:
            self.sample()

    def spent_s(self) -> float:
        return sum(e - s for s, e in zip(self.starts, self.ends))

    def clean_factors(self) -> list[float]:
        return [f for f in self.factors if f is not None]

    def contended_share(self) -> float:
        return self.factors.count(None) / len(self.factors)

    def calibrated(self, start: float, end: float,
                   cpu_s: float | None = None) -> float:
        """Length of ``[start, end]`` on the calibrated clock.

        ``cpu_s`` is the CPU time the process used in the interval; when
        omitted the interval is taken as CPU-bound throughout.  Samples
        that fell inside the interval split it into pieces (their own
        duration is not the workload's and is left out); each piece is
        scaled by the mean factor of the samples on either side of it.
        """
        clean = self.clean_factors()
        # where every nearby sample was contended: the host as the rest
        # of the run saw it, and the raw clock when nothing else is known
        fallback = [statistics.median(clean) if clean else 1.0]
        wall = 0.0
        scaled = 0.0
        first = bisect.bisect_right(self.ends, start)  # first sample after start
        cursor = start
        index = first
        while cursor < end:
            inside = index < len(self.starts) and self.starts[index] < end
            piece_end = self.starts[index] if inside else end
            around = [f for f in self.factors[max(index - 1, 0):index + 1]
                      if f is not None] or fallback
            piece = max(piece_end - cursor, 0.0)
            wall += piece
            scaled += piece / (sum(around) / len(around))
            if not inside:
                break
            cursor = self.ends[index]
            index += 1
        if cpu_s is None or wall <= 0.0:
            return scaled
        busy = min(cpu_s, wall) / wall
        return wall * (1.0 - busy) + scaled * busy

    def calibrated_past(self, wall_s: float, cpu_s: float) -> float:
        """For a stretch that could not be sampled while it ran (imports,
        set-up) and has just ended: three samples now, and their median
        factor applied to the CPU-bound share of its ``wall_s``."""
        first = len(self.factors)
        for _ in range(3):
            self.sample()
        clean = [f for f in self.factors[first:] if f is not None]
        factor = statistics.median(clean) if clean else 1.0
        busy = min(cpu_s, wall_s) / wall_s
        return wall_s * (1.0 - busy) + wall_s * busy / factor
