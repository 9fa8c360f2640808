"""The asyncio JSON-over-HTTP experiment server.

A deliberately dependency-free HTTP/1.1 implementation over
``asyncio.start_server`` (the container bakes in no web framework; the
protocol surface is four routes of JSON, which forty lines of parsing
covers).  Responses always close the connection — clients issue one
request per connection, which keeps the parser trivial and is plenty
for hundreds of concurrent in-flight requests.

Routes (full schema in ``docs/SERVING.md``):

- ``GET  /healthz``      — liveness + config echo
- ``GET  /metrics``      — counters, latency quantiles, queue depth,
  blob-store stats
- ``POST /run``          — one point; waits for the result by default
- ``POST /sweep``        — a batch (inline points or a grid spec);
  returns a job id immediately
- ``GET  /status/<id>``  — job progress / final outcomes

Error contract: malformed HTTP or JSON → 400, unknown route → 404,
wrong method → 405, rate-limited client or full queue → 429 with a
``Retry-After`` header, worker crash → 500.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import re
import signal
import tempfile
import time
import urllib.parse
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine.snapshot import BlobStore
from repro.errors import ConfigurationError
from repro.harness.sweep import ResultCache, SweepGrid, SweepPoint
from repro.instrument.metrics import MetricsRegistry
from repro.serve import worker
from repro.serve.scheduler import Backpressure, RateLimited, RateLimiter, Scheduler

#: Quantiles reported for every histogram in ``/metrics``.
LATENCY_QUANTILES = (0.5, 0.9, 0.99)


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8731
    workers: int = 2
    executor: str = "process"  # "process" | "thread"
    #: Directory of the blob store the workers share setup prefixes
    #: through; ``None`` = a per-server temporary directory, removed at
    #: shutdown.
    blob_dir: Optional[Path] = None
    queue_limit: int = 256
    rate: float = 0.0  # tokens/second per client; <= 0 disables
    burst: float = 20.0
    cache_dir: Optional[Path] = None  # None = caching disabled
    drain_seconds: float = 10.0

    def validate(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"--workers must be >= 1: {self.workers}")
        if self.executor not in ("process", "thread"):
            raise ConfigurationError(
                f"executor must be 'process' or 'thread': {self.executor!r}"
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"--queue-limit must be >= 1: {self.queue_limit}"
            )
        if self.rate > 0 and self.burst < 1:
            raise ConfigurationError(f"--burst must be >= 1: {self.burst}")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"--port out of range: {self.port}")


@dataclass
class Job:
    """One ``/sweep`` (or deferred ``/run``) submission."""

    id: str
    points: List[SweepPoint]
    state: str = "running"  # running | done
    outcomes: List[Optional[Dict[str, object]]] = field(default_factory=list)
    provenance: List[Optional[str]] = field(default_factory=list)
    started: float = field(default_factory=time.monotonic)
    finished: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.outcomes:
            self.outcomes = [None] * len(self.points)
            self.provenance = [None] * len(self.points)

    @property
    def done(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome is not None)

    def status_dict(self) -> Dict[str, object]:
        wall = (self.finished or time.monotonic()) - self.started
        payload: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "total": len(self.points),
            "done": self.done,
            "provenance": self.provenance,
            "wall_seconds": wall,
        }
        if self.state == "done":
            payload["outcomes"] = self.outcomes
            payload["points"] = [point.to_dict() for point in self.points]
        return payload


class ExperimentServer:
    """Bind, serve, drain.  One instance per ``repro serve`` process."""

    def __init__(self, config: ServeConfig) -> None:
        config.validate()
        self.config = config
        self.metrics = MetricsRegistry()
        self.limiter = RateLimiter(config.rate, config.burst)
        self.cache = (
            ResultCache(config.cache_dir) if config.cache_dir is not None else None
        )
        self.scheduler: Optional[Scheduler] = None
        self.jobs: Dict[str, Job] = {}
        self._job_ids = itertools.count(1)
        self._job_tasks: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = None
        self._blob_tmp = None
        self._started = time.monotonic()
        self._stop = asyncio.Event()
        #: Concurrently-open HTTP requests, and the high-water mark —
        #: how much concurrency the server actually sustained.
        self._active_requests = 0
        self._peak_requests = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        config = self.config
        if config.blob_dir is not None:
            blob_dir = str(config.blob_dir)
        else:
            # Prefix sharing needs a host directory; make a private one
            # that dies with the server.
            self._blob_tmp = tempfile.TemporaryDirectory(prefix="repro-blobs-")
            blob_dir = self._blob_tmp.name
        if config.executor == "process":
            self._executor = ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=worker.init_worker,
                initargs=(blob_dir,),
            )
        else:
            # Threads share one store (its counters are thread-safe).
            worker.init_worker(blob_dir)
            self._executor = ThreadPoolExecutor(max_workers=config.workers)
        self.scheduler = Scheduler(
            self._executor,
            worker.run_point,
            self.cache,
            self.metrics,
            config.queue_limit,
        )
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port
        )

    def request_shutdown(self) -> None:
        self._stop.set()

    async def run_until_stopped(self, install_signals: bool = True) -> int:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`), then
        drain gracefully.  Returns the process exit code (0 = clean)."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self._stop.set)
        try:
            await self._stop.wait()
        finally:
            if install_signals:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    loop.remove_signal_handler(signum)
        drained = await self.shutdown()
        return 0 if drained else 1

    async def shutdown(self) -> bool:
        """Stop accepting, drain in-flight work, release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = True
        if self.scheduler is not None:
            drained = await self.scheduler.drain(self.config.drain_seconds)
        for task in self._job_tasks:
            if not task.done():
                task.cancel()
        if self._job_tasks:
            await asyncio.gather(*self._job_tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
        if self._blob_tmp is not None:
            self._blob_tmp.cleanup()
            self._blob_tmp = None
        return drained

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, payload, extra = 500, {"error": "internal error"}, {}
        self._active_requests += 1
        self._peak_requests = max(self._peak_requests, self._active_requests)
        try:
            try:
                request = await self._read_request(reader)
                if request is None:
                    writer.close()
                    return
                method, path, body = request
                status, payload, extra = await self._route(method, path, body)
            except _HttpError as exc:
                status, payload, extra = exc.status, {"error": exc.message}, {}
            except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
                self.metrics.counter("serve/errors").inc()
                status, payload, extra = (
                    500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                    {},
                )
            try:
                await self._write_response(writer, status, payload, extra)
            except (ConnectionError, OSError):
                pass  # client went away; nothing to clean up
        finally:
            self._active_requests -= 1

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        try:
            request_line = await reader.readline()
        except (ConnectionError, OSError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header: {line!r}")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0 or length > 32 * 1024 * 1024:
            raise _HttpError(400, f"unreasonable Content-Length: {length}")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        extra_headers: Dict[str, str],
    ) -> None:
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            500: "Internal Server Error",
        }.get(status, "OK")
        if isinstance(payload, str):
            # Text exposition (Prometheus scrape); JSON stays the default.
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, sort_keys=True).encode()
            content_type = "application/json"
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        headers.extend(f"{k}: {v}" for k, v in extra_headers.items())
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)
        await writer.drain()
        writer.close()

    # -- routing ---------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        self.metrics.counter("serve/requests").inc()
        path, _, query = path.partition("?")
        if path == "/healthz":
            self._require(method, "GET")
            return 200, {
                "ok": True,
                "executor": self.config.executor,
                "workers": self.config.workers,
                "uptime_seconds": time.monotonic() - self._started,
            }, {}
        if path == "/metrics":
            self._require(method, "GET")
            params = urllib.parse.parse_qs(query)
            if params.get("format", ["json"])[-1] == "prometheus":
                return 200, self.prometheus_payload(), {}
            return 200, self.metrics_payload(), {}
        if path == "/run":
            self._require(method, "POST")
            return await self._handle_run(self._parse_json(body))
        if path == "/sweep":
            self._require(method, "POST")
            return await self._handle_sweep(self._parse_json(body))
        if path.startswith("/status/"):
            self._require(method, "GET")
            job = self.jobs.get(path[len("/status/"):])
            if job is None:
                raise _HttpError(404, "unknown job id")
            return 200, job.status_dict(), {}
        raise _HttpError(404, f"no route {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    @staticmethod
    def _parse_json(body: bytes) -> Dict[str, object]:
        try:
            data = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(data, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return data

    @staticmethod
    def _parse_point(data: object) -> SweepPoint:
        if not isinstance(data, dict):
            raise _HttpError(400, "'point' must be an object")
        try:
            return SweepPoint.from_dict(data)
        except (ConfigurationError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad point: {exc}") from None

    def _check_client(self, request: Dict[str, object]) -> str:
        client = request.get("client", "anon")
        if not isinstance(client, str) or not client:
            raise _HttpError(400, "'client' must be a non-empty string")
        try:
            self.limiter.check(client)
        except RateLimited as exc:
            self.metrics.counter("serve/rejected_rate").inc()
            raise _HttpError(
                429,
                str(exc),
                headers={"Retry-After": f"{max(0.01, exc.retry_after):.3f}"},
            ) from None
        return client

    # -- handlers --------------------------------------------------------

    async def _handle_run(
        self, request: Dict[str, object]
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        self._check_client(request)
        if "point" not in request:
            raise _HttpError(400, "run request needs a 'point' object")
        point = self._parse_point(request["point"])
        wait = request.get("wait", True)
        if not isinstance(wait, bool):
            raise _HttpError(400, "'wait' must be a boolean")
        if not wait:
            job = self._spawn_job([point])
            return 202, {"id": job.id, "points": 1}, {}
        started = time.monotonic()
        try:
            response = await self.scheduler.submit(point, block=False)
        except Backpressure as exc:
            raise _HttpError(
                429,
                str(exc),
                headers={"Retry-After": f"{max(0.01, exc.retry_after):.3f}"},
            ) from None
        elapsed = time.monotonic() - started
        self.metrics.observe("serve/request_seconds", elapsed)
        return 200, {
            "point": point.to_dict(),
            "outcome": response["outcome"],
            "provenance": response["provenance"],
            "source": response["source"],
            "seconds": elapsed,
        }, {}

    async def _handle_sweep(
        self, request: Dict[str, object]
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        self._check_client(request)
        points_spec = request.get("points")
        grid_spec = request.get("grid")
        if (points_spec is None) == (grid_spec is None):
            raise _HttpError(400, "sweep request needs 'points' or 'grid'")
        if points_spec is not None:
            if not isinstance(points_spec, list) or not points_spec:
                raise _HttpError(400, "'points' must be a non-empty array")
            points = [self._parse_point(item) for item in points_spec]
        else:
            if not isinstance(grid_spec, dict):
                raise _HttpError(400, "'grid' must be an object")
            try:
                points = SweepGrid.from_dict(grid_spec).expand()
            except (ConfigurationError, TypeError, ValueError) as exc:
                raise _HttpError(400, f"bad grid: {exc}") from None
        job = self._spawn_job(points)
        return 202, {"id": job.id, "points": len(points)}, {}

    def _spawn_job(self, points: List[SweepPoint]) -> Job:
        job = Job(id=f"job-{next(self._job_ids)}", points=points)
        self.jobs[job.id] = job
        task = asyncio.get_running_loop().create_task(self._run_job(job))
        self._job_tasks.append(task)
        self._job_tasks = [t for t in self._job_tasks if not t.done()]
        return job

    async def _run_job(self, job: Job) -> None:
        async def one(index: int, point: SweepPoint) -> None:
            started = time.monotonic()
            try:
                response = await self.scheduler.submit(point, block=True)
                job.outcomes[index] = response["outcome"]
                job.provenance[index] = response["provenance"]
            except Backpressure:
                job.outcomes[index] = {"status": "error", "error": "server draining"}
                job.provenance[index] = "error"
            except Exception as exc:  # noqa: BLE001 - record per-point failure
                job.outcomes[index] = {
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
                job.provenance[index] = "error"
            else:
                self.metrics.observe(
                    "serve/request_seconds", time.monotonic() - started
                )

        try:
            await asyncio.gather(
                *(one(index, point) for index, point in enumerate(job.points))
            )
        finally:
            job.state = "done"
            job.finished = time.monotonic()

    # -- metrics ---------------------------------------------------------

    def _pool_hit_rate(self) -> float:
        """Blob hits over blob hits plus cold prefix builds."""

        def count(name: str) -> int:
            counter = self.metrics.counters.get(name)
            return counter.value if counter is not None else 0

        blobs, colds = count("serve/pool_blob"), count("serve/pool_cold")
        return blobs / (blobs + colds) if blobs + colds else 0.0

    def metrics_payload(self) -> Dict[str, object]:
        """The ``/metrics`` JSON document."""
        registry = self.metrics
        histograms: Dict[str, Dict[str, float]] = {}
        for name in sorted(registry.histograms):
            histogram = registry.histograms[name]
            summary = histogram.summary()
            for q in LATENCY_QUANTILES:
                summary[f"p{int(q * 100)}"] = histogram.quantile(q)
            histograms[name] = summary
        scheduler = self.scheduler
        blob_stores = (
            {str(pid): stats for pid, stats in sorted(scheduler.blob_stats.items())}
            if scheduler is not None
            else {}
        )
        # Per-process counters sum; host-wide disk truth (entries,
        # bytes, builds) comes from the freshest worker snapshot.
        blob_store: Optional[Dict[str, object]] = None
        if blob_stores:
            stats_list = list(blob_stores.values())
            newest = max(stats_list, key=lambda s: s.get("builds_total", 0))
            blob_store = {
                key: sum(int(stats.get(key, 0)) for stats in stats_list)
                for key in (
                    "hits", "misses", "published", "evicted",
                    "rejected_oversize", "lock_waits", "lock_steals",
                    "wait_timeouts",
                )
            }
            for key in ("entries", "bytes", "builds_total", "builds_distinct"):
                blob_store[key] = newest.get(key, 0)
        return {
            "counters": {
                name: registry.counters[name].value
                for name in sorted(registry.counters)
            },
            "gauges": {
                name: registry.gauges[name].last
                for name in sorted(registry.gauges)
            },
            "histograms": histograms,
            "blob_stores": blob_stores,
            "blob_store": blob_store,
            "pool_hit_rate": self._pool_hit_rate(),
            "queue": {
                "outstanding": scheduler.outstanding if scheduler else 0,
                "limit": self.config.queue_limit,
            },
            "http": {
                "active": self._active_requests,
                "peak": self._peak_requests,
            },
            "jobs": {
                "total": len(self.jobs),
                "running": sum(
                    1 for job in self.jobs.values() if job.state == "running"
                ),
            },
            "cache": {"enabled": self.cache is not None},
        }

    def prometheus_payload(self) -> str:
        """``/metrics?format=prometheus`` — text exposition format 0.0.4.

        Counters become ``repro_<name>_total`` counters, gauges and the
        derived operational numbers (queue depth, pool hit rate, active
        requests, job counts) become gauges, histograms become
        summaries with the same quantiles as the JSON document.  Metric
        names are sanitized (``serve/request_seconds`` →
        ``repro_serve_request_seconds``); output order is sorted, so
        scrapes are byte-stable for identical state.
        """
        registry = self.metrics
        lines: List[str] = []

        def emit(name: str, kind: str, samples: List[Tuple[str, float]]) -> None:
            lines.append(f"# TYPE {name} {kind}")
            for suffix, value in samples:
                if isinstance(value, float) and not value.is_integer():
                    lines.append(f"{name}{suffix} {value}")
                else:
                    lines.append(f"{name}{suffix} {int(value)}")

        for raw in sorted(registry.counters):
            emit(
                f"{_prom_name(raw)}_total",
                "counter",
                [("", registry.counters[raw].value)],
            )
        for raw in sorted(registry.gauges):
            emit(_prom_name(raw), "gauge", [("", registry.gauges[raw].last)])
        for raw in sorted(registry.histograms):
            histogram = registry.histograms[raw]
            name = _prom_name(raw)
            samples = [
                (f'{{quantile="{q}"}}', histogram.quantile(q))
                for q in LATENCY_QUANTILES
            ]
            samples.append(("_sum", histogram.total))
            samples.append(("_count", histogram.count))
            emit(name, "summary", samples)
        scheduler = self.scheduler
        derived = [
            ("repro_serve_pool_hit_rate", self._pool_hit_rate()),
            ("repro_serve_queue_outstanding", scheduler.outstanding if scheduler else 0),
            ("repro_serve_queue_limit", self.config.queue_limit),
            ("repro_serve_http_active", self._active_requests),
            ("repro_serve_http_peak", self._peak_requests),
            ("repro_serve_jobs_total", len(self.jobs)),
            (
                "repro_serve_jobs_running",
                sum(1 for job in self.jobs.values() if job.state == "running"),
            ),
        ]
        for name, value in derived:
            emit(name, "gauge", [("", value)])
        return "\n".join(lines) + "\n"


def _prom_name(raw: str) -> str:
    """Sanitize a registry metric name into a Prometheus one."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", raw)


class _HttpError(Exception):
    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


async def _serve_async(config: ServeConfig, announce) -> int:
    server = ExperimentServer(config)
    await server.start()
    announce(server)
    return await server.run_until_stopped()


def serve_forever(config: ServeConfig, announce=None) -> int:
    """Blocking entry point behind ``python -m repro serve``."""

    def default_announce(server: ExperimentServer) -> None:
        print(
            f"serving on http://{config.host}:{server.port} "
            f"({config.executor} x{config.workers}, "
            f"blob store {BlobStore.DEFAULT_MAX_BYTES >> 20} MiB/host, "
            f"queue {config.queue_limit}, "
            f"cache {'on' if server.cache is not None else 'off'})",
            flush=True,
        )

    return asyncio.run(_serve_async(config, announce or default_announce))
