"""The benchmark's own open-loop load generator for the serving daemon.

Independent users send requests on a fixed-rate schedule, whatever the
daemon's state, so a stall grows a queue instead of slowing the sender.
Every request is timed from the moment it was *due*, which charges the
wait a stall imposes on later requests; how late the generator itself ran
is reported separately. ``TrafficGenerator.run_open`` is not used: its
latency starts at enqueue, which hides a stalled generator.
"""

from __future__ import annotations

import asyncio
import statistics
from dataclasses import dataclass, field

import numpy as np
from repro.serving import Overloaded, RequestFailed

import spans


#: Percentiles above the median are taken per block of this many
#: consecutive requests, and the median over blocks is reported: one host
#: stall then moves one block, not the figure. (The whole-window p99 at
#: 300 req/s moved by 30% between runs, set by whether a stall of a few
#: tens of ms happened to fall in the window.)
TAIL_BLOCK = 400


@dataclass
class Schedule:
    """Due offsets (s, from the start of the window) and query pool rows."""

    offsets: np.ndarray
    rows: np.ndarray
    rate: float
    duration: float


def paced_schedule(rate: float, duration: float, pool_size: int,
                   zipf_s: float, rng: np.random.Generator) -> Schedule:
    """Arrivals evenly spaced at ``rate`` for ``duration`` seconds (a fixed
    offered load, as a constant-throughput load tester sends; Poisson
    bursts made p99 swing by a third between seeds). Each request asks
    for a pool row drawn Zipf(``zipf_s``) over the pool's ranks."""
    n = max(1, int(round(rate * duration)))
    offsets = np.arange(n) / rate
    weights = 1.0 / np.arange(1, pool_size + 1) ** zipf_s
    rows = rng.choice(pool_size, size=n, p=weights / weights.sum())
    return Schedule(offsets, rows, rate, duration)


@dataclass
class WindowResult:
    """Outcome of one open-loop window."""

    schedule: Schedule
    limit_s: float
    #: Per request, seconds from due time to the outcome; a failed, refused
    #: or timed-out request is charged at least ``limit_s`` (it missed).
    latency_s: np.ndarray
    late_s: np.ndarray
    status: np.ndarray  # "ok" | "failed" | "refused"
    #: (pool row, ServeResult) for every answered request.
    answers: list = field(default_factory=list)
    #: Requests still in flight when the schedule ended.
    backlog: int = 0
    #: Seconds from the first due time to the last answer.
    span_s: float = 0.0
    #: Request ids are ``id_base + i`` (ties spans to requests).
    id_base: int = 0
    #: Daemon counter deltas and (hits, misses) of the replicas' LUT
    #: caches over the window, filled in by the workload.
    counts: dict = field(default_factory=dict)
    lut: tuple = (0, 0)

    @property
    def attempted(self) -> int:
        return len(self.status)

    @property
    def n_ok(self) -> int:
        return int((self.status == "ok").sum())

    @property
    def n_failed(self) -> int:
        return self.attempted - self.n_ok

    @property
    def n_refused(self) -> int:
        return int((self.status == "refused").sum())

    def latency_ms(self, q: float) -> float:
        """Percentile ``q`` of latency in ms; above the median, the median
        of the per-block percentiles (see :data:`TAIL_BLOCK`)."""
        if q <= 50:
            return float(np.percentile(self.latency_s, q)) * 1e3
        blocks = np.array_split(self.latency_s, max(1, len(self.latency_s) // TAIL_BLOCK))
        return statistics.median(float(np.percentile(b, q)) for b in blocks) * 1e3

    @property
    def late_p99_ms(self) -> float:
        return float(np.percentile(self.late_s, 99)) * 1e3

    @property
    def ok_qps(self) -> float:
        """Answered requests per second, first due time to last answer."""
        return self.n_ok / self.span_s

    @property
    def meets_limit(self) -> bool:
        """p99 within the limit, nothing failed, and no growing backlog:
        at most a limit's worth of arrivals (plus slack) left in flight."""
        return (
            self.n_failed == 0
            and self.latency_ms(99) <= self.limit_s * 1e3
            and self.backlog <= self.schedule.rate * self.limit_s + 5
        )


async def drive(daemon, pool: np.ndarray, schedule: Schedule, *, k: int,
                limit_s: float, drain_s: float,
                inflight: dict | None = None, id_base: int = 0) -> WindowResult:
    """Send ``schedule`` to ``daemon``; wait up to ``drain_s`` after the
    last send for answers (requests still open then fail as timed out).

    ``inflight`` (traced runs only) maps a query's bytes to the ids of the
    requests carrying it while they are open, so replica scan spans can be
    tied to the requests they served. Request ids are ``id_base + i``.
    """
    loop = asyncio.get_running_loop()
    n = len(schedule.offsets)
    latency = np.zeros(n)
    late = np.zeros(n)
    status = np.full(n, "failed", dtype=object)
    answers: list = []
    last_done = [0.0]

    async def one(i: int, due: float, row: int) -> None:
        query = pool[row]
        request_id = id_base + i
        token = spans.current_request.set(request_id)
        key = query.tobytes()
        if inflight is not None:
            inflight.setdefault(key, set()).add(request_id)
        try:
            result = await daemon.submit(query, k)
        except Overloaded:
            status[i] = "refused"
        except RequestFailed:
            status[i] = "failed"
        else:
            status[i] = "ok"
            answers.append((int(row), result))
        finally:
            if inflight is not None:
                inflight[key].discard(request_id)
            spans.current_request.reset(token)
        done = loop.time()
        last_done[0] = max(last_done[0], done)
        latency[i] = done - due if status[i] == "ok" else max(done - due, limit_s)

    tasks = []
    start = loop.time() + 0.005
    for i in range(n):
        due = start + float(schedule.offsets[i])
        now = loop.time()
        if due > now:
            await asyncio.sleep(due - now)
            now = loop.time()
        late[i] = now - due
        tasks.append(asyncio.create_task(one(i, due, int(schedule.rows[i]))))
    backlog = sum(not task.done() for task in tasks)
    if tasks:
        _, pending = await asyncio.wait(tasks, timeout=drain_s)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        for i, task in enumerate(tasks):
            if task.cancelled():
                latency[i] = max(loop.time() - (start + schedule.offsets[i]), limit_s)
            else:
                task.result()  # a fault in the generator itself surfaces here
    return WindowResult(schedule, limit_s, latency, late, status.astype(str),
                        answers, backlog, max(last_done[0] - start, schedule.duration / 2),
                        id_base)
