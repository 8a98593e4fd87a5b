"""Machine-speed calibration and the round barrier.

The benchmark's host shares its cores with other tenants, and its speed
moves between levels that differ by up to 1.8x and last from a fraction
of a second to minutes, so one 10-second run can sit wholly in a slow
level.  A short fixed probe, independent of Crimson (point selects on an
in-memory sqlite table, plus allocating and sorting small objects),
slows with the ops at each level.  Each op's time is therefore reported
scaled to a fixed reference speed::

    reported_ms = wall_ms * REFERENCE_PROBE_S / probe_s

where ``probe_s`` is the mean of the two probes taken right before and
right after the op's round.  Rounds last tens of milliseconds, so the
scale follows slow stretches shorter than a second, which otherwise set
the p95s: over six seeds of ``trials``, scaling by the median probe of
each second of op time left the p95s spread 0.15-0.22 (quartile
distance over median), scaling by the round's own probes 0.05-0.09.
The raw wall times are kept in the run's metadata.

Every client ends each round at a barrier; the probe runs there twice
and the faster run counts, so that one preemption does not rescale a
whole round (in ``remote_mix`` about one single probe in six ran over
1.3x both its neighbours).  No client has a request in flight then, so
the benchmark's own load (a second client, the server working for it)
does not slow the probe and hide a regression.  The barrier is also
where the clients decide together to stop.  Set-up is one long call, so
a sampler thread probes during it, timing each probe in thread CPU time
so that waiting for the interpreter lock does not count.
"""

from __future__ import annotations

import sqlite3
import statistics
import threading
import time
from typing import Any, Callable

#: Probe time at the reference speed: the median level over a two-minute
#: trace on the 2-core host the benchmark was tuned on (its levels ran
#: from 0.8 to 1.7 ms), so a run's raw length averages ``--seconds``.
REFERENCE_PROBE_S = 1.25e-3
#: Probe runs at each barrier; the fastest counts.
BARRIER_PROBES = 2
#: Seconds between probes while a set-up runs.
SAMPLE_EVERY_S = 0.1
#: A run also stops once a client's raw op time reaches this multiple of
#: ``--seconds``, which bounds a run's length on a very slow host.
RAW_CAP = 1.25


class _Item:
    __slots__ = ("key", "rank")

    def __init__(self, key: int, rank: int) -> None:
        self.key = key
        self.rank = rank


class Calibrator:
    """The fixed probe; one per run."""

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:", check_same_thread=False)
        self._db.row_factory = sqlite3.Row
        self._db.execute(
            "CREATE TABLE probe (id INTEGER PRIMARY KEY, name TEXT, x REAL)"
        )
        self._db.executemany(
            "INSERT INTO probe VALUES (?, ?, ?)",
            [(i, str(i), i * 0.5) for i in range(5000)],
        )

    def probe(self, clock: Callable[[], float] = time.perf_counter) -> float:
        """Seconds the probe takes right now, by ``clock``."""
        started = clock()
        for key in range(0, 5000, 25):
            row = self._db.execute(
                "SELECT * FROM probe WHERE id = ?", (key,)
            ).fetchone()
            (row["id"], row["name"], row["x"])
        items = [_Item(i, (i * 7919) % 1000) for i in range(1500)]
        items.sort(key=lambda item: item.rank)
        return clock() - started

    def timed(self, call: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run ``call``; return its result, its wall time and the factor
        that scales that time to the reference speed, from probes taken
        before, during and after it."""
        probes = [self.probe() for _ in range(10)]
        done = threading.Event()

        def sample() -> None:
            while not done.wait(SAMPLE_EVERY_S):
                probes.append(self.probe(time.thread_time))

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        started = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - started
            done.set()
            sampler.join()
        probes += [self.probe() for _ in range(10)]
        return result, elapsed, REFERENCE_PROBE_S / statistics.median(probes)

    def close(self) -> None:
        self._db.close()


class Pacer:
    """The barrier every client's rounds end at."""

    def __init__(self, calibrator: Calibrator, clients: int,
                 seconds: float, min_rounds: int) -> None:
        self._calibrator = calibrator
        self._seconds = seconds
        self._min_rounds = min_rounds
        self._busy = [0.0] * clients
        self._raw_busy = [0.0] * clients
        self._rounds = [0] * clients
        #: The probe taken at the last barrier (one taken now, at first).
        self.probe_s = self._barrier_probe()
        #: Set at a barrier once every client has done its share.
        self.stop = False
        self._barrier = threading.Barrier(clients, action=self._at_barrier)
        self._pause = threading.Barrier(clients)

    def _at_barrier(self) -> None:
        self.probe_s = self._barrier_probe()
        done = (min(self._busy) >= self._seconds
                or max(self._raw_busy) >= RAW_CAP * self._seconds)
        self.stop = done and min(self._rounds) >= self._min_rounds

    def _barrier_probe(self) -> float:
        return min(self._calibrator.probe() for _ in range(BARRIER_PROBES))

    def end_round(self, client: int, busy_s: float, raw_busy_s: float,
                  rounds: int) -> float:
        """Record the client's op time (at the reference speed and raw)
        and rounds, wait for every client, then return the probe taken
        there."""
        self._busy[client] = busy_s
        self._raw_busy[client] = raw_busy_s
        self._rounds[client] = rounds
        self._barrier.wait()
        return self.probe_s

    def pause(self) -> None:
        """Wait for every client, before one client's solo ops."""
        self._pause.wait()

    def abort(self) -> None:
        """Release the other clients when one fails."""
        self._barrier.abort()
        self._pause.abort()
