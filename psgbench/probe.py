"""Host-speed probe: scales wall times to a reference CPU speed.

On a shared VM the CPU runs up to 2x slower for seconds to minutes at a
time (other tenants of the host), so raw wall times of the same code spread
by 20-30% between runs.  While a child runs, a thread of the benchmark,
pinned with the child to one CPU (run.py pins the benchmark at start),
times a fixed pure-Python kernel every INTERVAL_S by the thread's own CPU
time.  Thread CPU time leaves out the slices the child runs in between, so
the kernel's mean time tracks how fast the CPU runs during the child, and
``at_ref`` turns the child's wall time into seconds at REF_S per kernel.

On 15 back-to-back runs of ``analyze --gens 1009,1013,1019 --p 50`` on a
2-vCPU x86 VM, the IQR/median of the raw wall was 0.179 and that of the
scaled wall 0.040 (the two correlate at 0.97).
"""

from __future__ import annotations

import threading
import time

INTERVAL_S = 0.05
# The kernel's CPU time in the host's fast phase on a 2-vCPU x86 VM
# (Xeon, 2.0 GHz, Python 3.11): scaled walls read close to raw ones there.
REF_S = 0.002


def kernel() -> float:
    """CPU seconds of a fixed piece of work in the program's idiom: wide
    big-int shifts, as in the pseudo-Frobenius bitmask test, and a list
    allocation (about 2.5 ms)."""
    start = time.thread_time()
    mask = (1 << 400_000) - 1
    acc = 0
    for shift in range(120):
        acc |= mask >> shift
    table = [0] * 100_000
    del table
    return time.thread_time() - start


class Probe:
    """``with Probe() as probe:`` samples the kernel from a thread, once at
    entry and then every INTERVAL_S, until exit; ``probe.mean_s`` is the
    mean sample."""

    def __enter__(self) -> Probe:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while True:
            self.samples.append(kernel())
            if self._stop.wait(INTERVAL_S):
                return

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def at_ref(wall_s: float, probe_s: float) -> float:
    """Wall time scaled to the reference speed; unscaled without samples."""
    return wall_s * REF_S / probe_s if probe_s else wall_s
