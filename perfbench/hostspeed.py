"""How fast the shared host runs right now, measured by a frozen loop.

The benchmark's container shares its CPUs with other tenants, and their
speed changes by up to tens of percent for minutes at a time; the same
work then takes more CPU time, not only more waiting.  Both measures here
time the CPU seconds of a fixed pure-Python loop that lives in this
directory, so no change to the package under test moves it, while a host
that runs the package slower runs the loop slower too; being scheduled
out counts for nothing, only the speed of the CPU the loop ran on.

* :func:`probe` runs the loop back to back in the calling process, while
  nothing else of the benchmark runs: after set-up, and between the
  passes of a workload without pool workers.
* :class:`Sampler` runs it every ``SAMPLE_PERIOD_S`` in a helper process
  while the passes of a pooled workload keep both CPUs busy.  A pass
  that runs in one process does not use it: the sampler would share a
  core with that pass and time the pass's own load more than the host.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from multiprocessing.connection import Connection
from typing import Any, List, Optional, Tuple

#: Iterations of one loop, about 5.5 ms of CPU on the reference host.
LOOP_ITERATIONS = 100_000
#: Seconds between two sampler loops, so the sampler takes about 6 % of
#: one CPU.
SAMPLE_PERIOD_S = 0.1
#: Median CPU seconds of one loop on the host the benchmark was tuned on
#: (a 2-vCPU Intel Xeon container): probed alone, and sampled while a
#: pooled pass keeps the other CPU busy (the two vCPUs share a core).
REFERENCE_PROBE_S = 0.0055
REFERENCE_SAMPLE_S = 0.0065


def _loop() -> float:
    """CPU seconds of one run of the loop."""
    cpu = time.thread_time()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.thread_time() - cpu


def probe(seconds: float) -> List[float]:
    """CPU seconds of each loop, run back to back for ``seconds`` (at
    least one loop)."""
    times: List[float] = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(_loop())
    return times


def _sample(conn: Connection) -> None:
    """Helper-process body: sample until the parent sends anything."""
    samples: List[Tuple[float, float]] = []
    while True:
        samples.append((time.perf_counter(), _loop()))
        if conn.poll(SAMPLE_PERIOD_S):
            break
    conn.send(samples)
    conn.close()


class Sampler:
    """Samples the host's speed in a helper process while it is open.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux, so
    sample times compare with the parent's pass start and end times.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._conn: Optional[Connection] = None
        self._process: Any = None

    def __enter__(self) -> "Sampler":
        self._conn, theirs = multiprocessing.Pipe()
        self._process = multiprocessing.Process(
            target=_sample, args=(theirs,), daemon=True
        )
        self._process.start()
        theirs.close()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._conn is not None
        try:
            self._conn.send(None)
            if self._conn.poll(10.0):
                self.samples = self._conn.recv()
        except (EOFError, OSError):
            pass
        finally:
            self._conn.close()
            self._process.join(10.0)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_SAMPLE_S`` over the median loop sampled between
        ``start`` and ``end`` (``perf_counter`` times), or over all loops
        if none fell in between; 1 if the sampler recorded nothing."""
        during = [cpu for at, cpu in self.samples if start <= at <= end]
        chosen = during or [cpu for _, cpu in self.samples]
        return REFERENCE_SAMPLE_S / statistics.median(chosen) if chosen else 1.0
