"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host.  Other tenants change
how fast those cores run: a fixed pure-Python loop here took 38 ms in some
seconds and 64 ms in others, and the median pass time of the sampling
workload moved from 2.5 s to 3.9 s within seven minutes.  A median over the
passes of one run cannot remove drift that slow.  The two cores change speed
independently of each other, so the probe has to run in the process it
scales, on the core that process is using.

So the timed pass is cut into segments at operation boundaries, at least
``PROBE_EVERY_S`` apart, and a fixed probe runs before the first segment,
between segments and after the last.  The probe is a piece of work that does
not touch ``clickwitness``: interpreted Python with dicts, floats and calls,
and small symmetric eigenvalue and determinant calls in numpy, the two kinds
of work the package's passes are made of.  A change to the package cannot
change the probe's time; the host's speed can.  Each segment is scaled by
``REFERENCE_PROBE_S`` over the mean of the probes on either side of it, so
the sum reads as seconds on a host where the probe takes
``REFERENCE_PROBE_S``.  Probe time itself is never counted as pass time.

The host also takes whole stretches of time from the guest's virtual CPUs
(steal time in ``/proc/stat``).  The probe cannot see that, since it is
timed only while it runs, but wall time can: a paper-figures pass whose
wall time ran 2.7 s over its CPU time had 2.8 s of steal per CPU.  So each
segment's wall time is reduced by the steal per CPU over the segment before
it is scaled.  Per CPU, not the total, because a pass spread over both CPUs
loses time on each; a pass on one CPU is then under-corrected rather than
over-corrected.  Without ``/proc/stat`` the steal reads as 0.

``REFERENCE_PROBE_S`` is a constant of the benchmark, about the probe's
median on a 2-vCPU Intel Xeon KVM guest (Python 3.11, numpy 2.4); it sets
only the unit of the scaled figures, not their ratios between commits.
"""

from __future__ import annotations

import os
import time

import numpy as np

REFERENCE_PROBE_S = 0.025
PROBE_EVERY_S = 0.25

_PY_ITERATIONS = 60_000
_NP_ITERATIONS = 400
_MATRIX = np.add.outer(np.arange(16.0), np.arange(16.0)) % 7.0 + np.eye(16)


def _python_work() -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(_PY_ITERATIONS):
        key = i % 97
        value = table.get(key, 0.0) + 0.5 * i
        table[key] = value
        total += value / (key + 1)
    return total


def _numpy_work() -> float:
    total = 0.0
    for _ in range(_NP_ITERATIONS):
        total += float(np.linalg.eigvalsh(_MATRIX)[0]) + float(np.linalg.det(_MATRIX[:8, :8]))
    return total


_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Host steal time since boot per CPU, in seconds; 0 without /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return 0.0
    cpus = sum(1 for line in lines if line.startswith("cpu") and line[3].isdigit())
    # First line: "cpu user nice system idle iowait irq softirq steal ...".
    return int(lines[0].split()[8]) / _TICKS_PER_S / max(cpus, 1)


# First calls load LAPACK routines; keep that out of every probe.
np.linalg.eigvalsh(_MATRIX)
np.linalg.det(_MATRIX[:8, :8])


def probe() -> float:
    """Wall time of the fixed probe work, in seconds."""
    start = time.perf_counter()
    _python_work()
    _numpy_work()
    return time.perf_counter() - start


class Timeline:
    """Times a pass in segments with a probe at every cut.

    ``first_probe`` is a probe taken just before the pass.  Call ``cut()``
    between operations and ``finish()`` after the last one.
    """

    def __init__(self, first_probe: float):
        self.probes = [first_probe]
        self.segments: list[tuple[float, float, float]] = []
        self._resume()

    def _resume(self) -> None:
        self._steal0 = steal_s()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def _close(self) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        self.segments.append((wall, cpu, steal_s() - self._steal0))
        self.probes.append(probe())

    def cut(self) -> None:
        if time.perf_counter() - self._wall0 >= PROBE_EVERY_S:
            self._close()
            self._resume()

    def finish(self) -> None:
        self._close()

    def raw(self) -> tuple[float, float, float]:
        """Unscaled (wall, cpu, steal per CPU) seconds of the pass."""
        return tuple(sum(s[i] for s in self.segments) for i in range(3))

    def scaled(self) -> tuple[float, float]:
        """(wall less steal, cpu) seconds at the reference speed."""
        wall = cpu = 0.0
        for (seg_wall, seg_cpu, seg_steal), before, after in zip(
                self.segments, self.probes, self.probes[1:]):
            factor = REFERENCE_PROBE_S / (0.5 * (before + after))
            wall += (seg_wall - seg_steal) * factor
            cpu += seg_cpu * factor
        return wall, cpu
