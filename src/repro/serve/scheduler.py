"""Request scheduling: dedup, coalescing, backpressure, rate limits.

The :class:`Scheduler` sits between the asyncio HTTP frontend and the
simulation executor and gives every request the same pipeline:

1. **cache dedup** — a content-hash hit in the
   :class:`~repro.harness.sweep.ResultCache` answers instantly,
2. **in-flight coalescing** — concurrent duplicates of a running point
   await the same future instead of re-simulating,
3. **backpressure** — at most ``queue_limit`` points may be outstanding
   (queued + running); interactive submissions beyond that raise
   :class:`Backpressure` (HTTP 429 + ``Retry-After``), while background
   sweep jobs politely wait for capacity,
4. **execution** — the point crosses to a worker
   (:func:`repro.serve.worker.run_point`), its outcome is written back
   to the cache, its blob/cold/unpooled source is counted, and every
   coalesced waiter is resolved.  Workers share setup prefixes through
   the blob store, whose lock file builds each prefix once per host.

Rate limiting is separate (:class:`RateLimiter`): a token bucket per
client id, checked by the server before a request reaches the
scheduler, so one hot client cannot starve the queue.

All wall-clock here is ``time.monotonic`` (never simulated time — that
belongs to the engine).  Metrics go to the shared
:class:`~repro.instrument.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, Optional

from repro.harness.sweep import ResultCache, SweepPoint
from repro.instrument.metrics import MetricsRegistry


class Backpressure(Exception):
    """The outstanding-request queue is full; retry after a delay."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"queue full; retry after {retry_after:.2f}s")
        self.retry_after = retry_after


class RateLimited(Exception):
    """The client exhausted its token bucket; retry after a delay."""

    def __init__(self, client: str, retry_after: float) -> None:
        super().__init__(
            f"client {client!r} rate-limited; retry after {retry_after:.2f}s"
        )
        self.client = client
        self.retry_after = retry_after


class TokenBucket:
    """A classic token bucket: ``burst`` capacity refilled at ``rate``/s."""

    __slots__ = ("rate", "burst", "tokens", "stamp", "_clock")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"token rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must allow >= 1 token, got {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = float(burst)
        self._clock = clock
        self.stamp = clock()

    def try_take(self) -> Optional[float]:
        """Take one token; ``None`` on success, else seconds-to-retry."""
        now = self._clock()
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        return (1.0 - self.tokens) / self.rate


class RateLimiter:
    """Per-client token buckets; ``rate <= 0`` disables limiting."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}

    def check(self, client: str) -> None:
        """Charge one request to ``client``; raise :class:`RateLimited`."""
        if self.rate <= 0:
            return
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(
                self.rate, self.burst, clock=self._clock
            )
        retry_after = bucket.try_take()
        if retry_after is not None:
            raise RateLimited(client, retry_after)


class Scheduler:
    """Dedup/coalesce/bound the flow of points into the executor."""

    def __init__(
        self,
        executor,
        run_fn: Callable[[Dict[str, object]], Dict[str, object]],
        cache: Optional[ResultCache],
        metrics: MetricsRegistry,
        queue_limit: int,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.executor = executor
        self.run_fn = run_fn
        self.cache = cache
        self.metrics = metrics
        self.queue_limit = queue_limit
        self.outstanding = 0
        self.closing = False
        self._started = time.monotonic()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._capacity = asyncio.Condition()
        #: Latest blob-store stats seen per worker pid (process workers
        #: each report one; the thread executor reports one).
        self.blob_stats: Dict[int, Dict[str, object]] = {}

    # -- metrics helpers -------------------------------------------------

    def _now(self) -> float:
        return time.monotonic() - self._started

    def _note_queue_depth(self) -> None:
        self.metrics.gauge("serve/queue_depth").set(self._now(), self.outstanding)

    # -- submission ------------------------------------------------------

    async def submit(self, point: SweepPoint, block: bool = False) -> Dict[str, object]:
        """Resolve one point to ``{"outcome", "provenance", "source"}``.

        ``provenance`` is ``"cache"`` (disk dedup), ``"coalesced"``
        (shared an in-flight simulation) or ``"run"``.  ``block=False``
        raises :class:`Backpressure` when the queue is full (the HTTP
        path); ``block=True`` waits for capacity (background sweeps).
        """
        key = point.cache_key()
        while True:
            if self.closing:
                raise Backpressure(retry_after=1.0)
            if self.cache is not None:
                outcome = self.cache.get(point)
                if outcome is not None:
                    self.metrics.counter("serve/cache_hits").inc()
                    return {"outcome": outcome, "provenance": "cache", "source": None}
            shared = self._inflight.get(key)
            if shared is not None:
                self.metrics.counter("serve/coalesced").inc()
                response = await asyncio.shield(shared)
                return {**response, "provenance": "coalesced"}
            if self.outstanding < self.queue_limit:
                # No await between this check and the increment inside
                # _execute, so the bound is never overshot.
                return await self._execute(point, key)
            if not block:
                self.metrics.counter("serve/rejected_busy").inc()
                raise Backpressure(retry_after=self._estimate_retry_after())
            async with self._capacity:
                await self._capacity.wait()
            # Loop: re-probe the cache and in-flight table — a duplicate
            # may have finished while this submission waited for capacity.

    async def _execute(self, point: SweepPoint, key: str) -> Dict[str, object]:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self.outstanding += 1
        self._note_queue_depth()
        try:
            worker_response = await loop.run_in_executor(
                self.executor, self.run_fn, point.to_dict()
            )
        except BaseException as exc:
            self.metrics.counter("serve/errors").inc()
            if not future.done():
                future.set_exception(exc)
                future.exception()  # mark retrieved for the no-waiter case
            raise
        finally:
            self._inflight.pop(key, None)
            self.outstanding -= 1
            self._note_queue_depth()
            async with self._capacity:
                self._capacity.notify_all()
        outcome = worker_response["outcome"]
        source = worker_response.get("source")
        if source:
            self.metrics.counter(f"serve/pool_{source}").inc()
        pid = worker_response.get("pid")
        blob = worker_response.get("blob_store")
        if pid is not None and blob is not None:
            self.blob_stats[pid] = blob
        if self.cache is not None:
            self.cache.put(point, outcome)
        self.metrics.counter("serve/simulated").inc()
        response = {"outcome": outcome, "provenance": "run", "source": source}
        future.set_result(response)
        return response

    def _estimate_retry_after(self) -> float:
        """A crude hint: mean observed request latency, floored at 50 ms."""
        histogram = self.metrics.histograms.get("serve/request_seconds")
        if histogram is not None and histogram.count:
            return max(0.05, histogram.total / histogram.count)
        return 0.25

    # -- shutdown --------------------------------------------------------

    async def drain(self, timeout: float) -> bool:
        """Stop accepting work and wait for in-flight points to finish.

        Returns ``True`` when everything drained inside ``timeout``.
        """
        self.closing = True
        async with self._capacity:
            self._capacity.notify_all()
        deadline = time.monotonic() + timeout
        while self.outstanding > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        return self.outstanding == 0
