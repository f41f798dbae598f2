"""Machine-speed calibration.

The machines this runs on change speed by tens of percent from one
second to the next: the host shares its cores with other tenants.
With raw times, two runs of the same code a minute apart disagree by
more than any bound worth having.  So every run times a fixed
pure-Python kernel twice a second, with the program idle, and scales
its times to a machine on which that kernel takes
:data:`REFERENCE_S`.  The kernel runs no ``repro`` code, so a change
to the program cannot move it; its raw times and the factor are in
every report.

A workload that keeps several CPUs busy loses speed when another
tenant takes just one of them, and a single kernel run on the CPU
left free would not see it.  So a sample runs one kernel per CPU the
workload uses, all at once, each pinned to its own CPU (the extra ones
in helper processes: ``python3 speed.py CPU``), and counts their
harmonic mean: the kernel time that the CPUs' summed speed gives.

Nor does a kernel see all the time the hypervisor gives to other
guests ("steal"): it comes in bursts, and the median over samples
passes over the few samples a burst slows.  So each sample is also
divided by the share of CPU time the machine kept around it, from the
steal ticks in ``/proc/stat``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from time import perf_counter

#: Kernel time of the reference machine.  The factor is 1 there.
REFERENCE_S = 0.010
#: Seconds between samples during a timed phase.
INTERVAL_S = 0.5
#: Samples this close to a moment set the factor there.
WINDOW_S = 1.0


class _Node:
    __slots__ = ("op", "args", "key")

    def __init__(self, op: str, args: tuple) -> None:
        self.op, self.args, self.key = op, args, hash((op, args))


def kernel() -> float:
    """Seconds for a fixed mix of interpreter work: arithmetic, dict
    updates, and hash-consed node construction."""
    started = perf_counter()
    total, slots = 0, {}
    for n in range(45000):
        total += n * n % 7
        slots[n % 97] = total
    table: dict = {}
    leaf = _Node("NEW", ())
    for n in range(3750):
        node = leaf
        for depth in range(5):
            key = ("ADD", node, n % 13 + depth)
            found = table.get(key)
            if found is None:
                found = table[key] = _Node("ADD", (node, n % 13 + depth))
            node = found
        if len(table) > 2000:
            table.clear()
    return perf_counter() - started


class Speed:
    """Kernel samples taken during one phase on ``cpus`` CPUs.

    The machine's speed changes within a run too, so an op's latency
    is scaled by the factor of the samples around it (:meth:`at`), and
    the phase's duration stretch by stretch (:meth:`reference_seconds`).
    Use it as a context manager, so its helper processes are stopped.
    """

    def __init__(self, cpus: int = 1) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []
        self.pauses: list[float] = []
        self.cpu_ticks: list[tuple[int, int]] = []
        self.kernels: list[float] = []
        self._effective: list[float] = []
        self.allowed = os.sched_getaffinity(0)
        self.pins = sorted(self.allowed)[:cpus] if cpus > 1 else []
        self.helpers = [
            subprocess.Popen([sys.executable, __file__, str(cpu)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for cpu in self.pins[1:]
        ]

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc) -> None:
        for helper in self.helpers:
            helper.stdin.close()
            helper.wait(timeout=10)
            helper.stdout.close()
        self.helpers = []

    def sample(self) -> None:
        started = perf_counter()
        for helper in self.helpers:
            helper.stdin.write(b"\n")
            helper.stdin.flush()
        if self.pins:
            os.sched_setaffinity(0, {self.pins[0]})
        try:
            times = [kernel()]
        finally:
            if self.pins:
                os.sched_setaffinity(0, self.allowed)
        times += [float(helper.stdout.readline()) for helper in self.helpers]
        self.kernels += times
        self.samples.append(len(times) / sum(1.0 / t for t in times))
        self.times.append(started)
        self.pauses.append(perf_counter() - started)
        self.cpu_ticks.append(_steal_and_total())

    @property
    def paused(self) -> float:
        """Seconds spent sampling, to leave out of the phase's time."""
        return sum(self.pauses)

    @property
    def effective(self) -> list[float]:
        """Each sample divided by the share of CPU time not stolen over
        the stretches on either side of it."""
        if len(self._effective) != len(self.samples):
            last = len(self.samples) - 1
            self._effective = []
            for i, sample in enumerate(self.samples):
                steal0, total0 = self.cpu_ticks[max(0, i - 1)]
                steal1, total1 = self.cpu_ticks[min(last, i + 1)]
                kept = 1.0 - (steal1 - steal0) / max(1, total1 - total0)
                self._effective.append(sample / kept)
        return self._effective

    @property
    def factor(self) -> float:
        """How much slower than the reference this machine ran over the
        whole phase: times are divided by it, rates multiplied."""
        return statistics.median(self.effective) / REFERENCE_S

    def at(self, moment: float) -> float:
        """The factor from the samples within ``WINDOW_S`` of
        ``moment``, or from the nearest sample when none is."""
        low = bisect_left(self.times, moment - WINDOW_S)
        high = bisect_right(self.times, moment + WINDOW_S)
        effective = self.effective
        near = effective[low:high] or [effective[min(low, len(effective) - 1)]]
        return statistics.median(near) / REFERENCE_S

    def reference_seconds(self, end: float) -> float:
        """The phase from its first sample to ``end``, sampling left
        out, as seconds of the reference machine: each stretch between
        two samples is divided by the factor at its start."""
        total = 0.0
        for start, pause, until in zip(self.times, self.pauses,
                                       self.times[1:] + [end]):
            total += (until - start - pause) / self.at(start)
        return total

    def report(self) -> dict:
        (steal0, total0), (steal1, total1) = self.cpu_ticks[0], self.cpu_ticks[-1]
        return {"factor": self.factor, "samples": len(self.samples),
                "kernel_factor": statistics.median(self.samples) / REFERENCE_S,
                "cpus": max(1, len(self.pins)),
                "kernel_ms_min": 1000 * min(self.kernels),
                "kernel_ms_max": 1000 * max(self.kernels),
                # CPU time the hypervisor gave to other guests.
                "steal_frac": (steal1 - steal0) / max(1, total1 - total0)}


def _steal_and_total() -> tuple[int, int]:
    """Steal and total CPU ticks of the machine, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        ticks = [int(t) for t in handle.readline().split()[1:]]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def _helper(cpu: int) -> None:
    """Run the kernel on ``cpu`` for every line read; print its time."""
    os.sched_setaffinity(0, {cpu})
    for _ in sys.stdin:
        print(kernel(), flush=True)


if __name__ == "__main__":
    _helper(int(sys.argv[1]))
