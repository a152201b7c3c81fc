"""Machine-speed reference for scaling measured times.

The shared VMs this benchmark was built on run their CPUs at speeds up
to 1.6x apart for seconds at a time; thread CPU time slows along with
wall time, so it is not steal and no clock excludes it.  Each call is
therefore bracketed by readings of fixed work that does not touch
dgstab, and its time is scaled to the speed at which that work takes
``NOMINAL[kind]`` seconds.  The work is of the kind the workload spends
its time in, since the slow phases hit interpreter-bound code, large
LAPACK calls and two-thread batches by different factors.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Seconds each kind of reference work takes at the speed every reported
#: time is scaled to.
NOMINAL = {"interp": 1e-3, "lapack": 2e-3, "threads": 4e-3}

#: A call's reference is the median of this many readings taken between
#: the calls nearest it, which smooths the readings' own jitter.
WINDOW = 5

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((8, 8))
_SMALL = _SMALL + _SMALL.T
_PAYLOAD = [{"k": i, "v": _RNG.standard_normal(8).tolist()} for i in range(100)]
_SQUARE = _RNG.standard_normal((160, 160))
_BATCH = _RNG.standard_normal((24, 24, 24))


class Reference:
    """Timer of one kind of fixed work.

    ``interp``: interpreter arithmetic, small ``eigh`` calls and JSON
    encoding; ``lapack``: one dense 160x160 SVD; ``threads``: one batched
    ``eigvals`` per thread, run concurrently on ``threads`` threads.
    """

    def __init__(self, kind: str, threads: int = 1):
        if kind not in NOMINAL:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.kind = kind
        self.threads = threads
        self._pool = ThreadPoolExecutor(threads) if kind == "threads" else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def _work(self) -> None:
        if self.kind == "interp":
            acc = 0
            for i in range(4000):
                acc += i * i
            for _ in range(20):
                np.linalg.eigh(_SMALL)
            json.dumps(_PAYLOAD, sort_keys=True)
        elif self.kind == "lapack":
            np.linalg.svd(_SQUARE, compute_uv=False)
        else:
            futures = [self._pool.submit(np.linalg.eigvals, _BATCH)
                       for _ in range(self.threads)]
            for f in futures:
                f.result()

    def time(self) -> float:
        """Least of three timings of the work, in seconds."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self, raw: list[float], readings: list[float]) -> list[float]:
        """Scale ``raw[k]``, timed between ``readings[k]`` and
        ``readings[k + 1]``, to the nominal speed."""
        half = WINDOW // 2
        nominal = NOMINAL[self.kind]
        return [t * nominal / statistics.median(readings[max(0, k - half + 1):k + half + 1])
                for k, t in enumerate(raw)]
