"""Tests for the simulation-as-a-service stack (:mod:`repro.serve`).

Four layers, bottom up:

- unit — token-bucket rate limiting, latency-histogram quantiles,
- worker — :func:`~repro.serve.worker.execute_point_pooled` must return
  byte-identical outcomes from a blob, cold and unpooled, including OOM
  and chaos points,
- server — a real asyncio server on an ephemeral port, driven by the
  sync client from worker threads: dedup (disk cache + in-flight
  coalescing), backpressure 429s, per-client rate-limit 429s, the
  ``/sweep``/``/status`` job flow, malformed-request errors, metrics,
  and graceful drain — the tests that need a request in flight hold
  the simulation on an Event (:class:`HeldSimulations`) instead of
  racing it with a sleep,
- determinism — every served outcome equals a local
  :func:`~repro.harness.sweep.execute_point` run byte-for-byte (that
  function is exactly what ``python -m repro run`` executes).

The heavier concurrent-load battery lives in
``benchmarks/perf/test_serve_load.py``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.engine.snapshot import BlobStore
from repro.harness.sweep import (
    ResultCache,
    SweepPoint,
    execute_point,
    outcome_to_dict,
    prefix_key,
)
from repro.instrument.metrics import Histogram
from repro.serve import worker
from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import RateLimited, RateLimiter, TokenBucket
from repro.serve.server import ExperimentServer, ServeConfig
from repro.serve.worker import execute_point_pooled

SCALE = 0.03125


def fir_point(system="UvmDiscard", ratio=2.0, **kwargs):
    return SweepPoint(
        workload="fir", system=system, ratio=ratio, scale=SCALE, **kwargs
    )


def canonical(outcome):
    return json.dumps(outcome, sort_keys=True)


# ----------------------------------------------------------------------
# rate limiting and latency quantiles
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: clock[0])
        assert bucket.try_take() is None
        assert bucket.try_take() is None
        retry = bucket.try_take()
        assert retry == pytest.approx(0.5)
        clock[0] += 0.5
        assert bucket.try_take() is None

    def test_limiter_is_per_client(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: clock[0])
        limiter.check("alice")
        with pytest.raises(RateLimited):
            limiter.check("alice")
        limiter.check("bob")  # separate bucket

    def test_disabled_limiter_never_fires(self):
        limiter = RateLimiter(rate=0.0, burst=1)
        for _ in range(100):
            limiter.check("anyone")


class TestHistogramQuantile:
    def test_quantiles_bracket_observations(self):
        histogram = Histogram("latency", bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.02, 0.05, 0.5, 0.9):
            histogram.observe(value)
        assert histogram.quantile(0.0) == pytest.approx(0.005)
        assert histogram.quantile(1.0) == pytest.approx(0.9)
        assert 0.005 <= histogram.quantile(0.5) <= 0.9
        assert histogram.quantile(0.5) <= histogram.quantile(0.99)

    def test_empty_and_bad_inputs(self):
        histogram = Histogram("empty", bounds=(1.0,))
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


# ----------------------------------------------------------------------
# pooled worker execution
# ----------------------------------------------------------------------


class TestExecutePointPooled:
    def test_cold_then_fork_byte_identical_to_execute_point(self, tmp_path):
        store = BlobStore(tmp_path)
        point = fir_point()
        reference = canonical(outcome_to_dict(execute_point(point)))
        cold, cold_source = execute_point_pooled(point, store)
        warm, warm_source = execute_point_pooled(point, store)
        assert (cold_source, warm_source) == ("cold", "blob")
        assert canonical(cold) == reference
        assert canonical(warm) == reference

    def test_sibling_point_forks_shared_prefix(self, tmp_path):
        store = BlobStore(tmp_path)
        first = fir_point(system="UVM-opt", ratio=1.5)
        sibling = fir_point(system="UvmDiscard", ratio=3.0)
        assert prefix_key(first) == prefix_key(sibling)
        _, source_first = execute_point_pooled(first, store)
        outcome, source_sibling = execute_point_pooled(sibling, store)
        assert (source_first, source_sibling) == ("cold", "blob")
        assert canonical(outcome) == canonical(
            outcome_to_dict(execute_point(sibling))
        )

    def test_unpooled_paths(self, tmp_path):
        point = fir_point()
        outcome, source = execute_point_pooled(point, None)
        assert source == "unpooled"
        assert canonical(outcome) == canonical(
            outcome_to_dict(execute_point(point))
        )
        no_uvm = SweepPoint("fir", "No-UVM", ratio=0.9, scale=SCALE)
        _, source = execute_point_pooled(no_uvm, BlobStore(tmp_path))
        assert source == "unpooled"

    def test_oom_point_reports_oom(self, tmp_path):
        store = BlobStore(tmp_path)
        point = SweepPoint(
            "dl:vgg16", "No-UVM", batch_size=150, scale=SCALE
        )
        outcome, source = execute_point_pooled(point, store)
        assert outcome == {"status": "oom"}
        assert source == "unpooled"  # No-UVM has no prefix to share

    def test_fork_does_not_inherit_the_builders_eviction_policy(self, tmp_path):
        # A FIFO request builds the shared prefix; the LRU request that
        # forks it must still evict LRU (1.71 GB here, not FIFO's 2.55).
        store = BlobStore(tmp_path)
        lru = SweepPoint("dl:vgg16", "UVM-opt", batch_size=125, scale=SCALE)
        fifo = SweepPoint(
            "dl:vgg16", "UVM-opt", batch_size=125, scale=SCALE,
            driver={"eviction_policy": "fifo"},
        )
        _, first = execute_point_pooled(fifo, store)
        outcome, second = execute_point_pooled(lru, store)
        assert (first, second) == ("cold", "blob")
        assert canonical(outcome) == canonical(
            outcome_to_dict(execute_point(lru))
        )

    def test_chaos_point_through_the_pool(self, tmp_path):
        store = BlobStore(tmp_path)
        chaos = {"seed": 3, "transfer_fault_interval": 40}
        point = fir_point(chaos=tuple(sorted(chaos.items())))
        reference = canonical(outcome_to_dict(execute_point(point)))
        cold, _ = execute_point_pooled(point, store)
        warm, source = execute_point_pooled(point, store)
        assert source == "blob"
        assert canonical(cold) == reference
        assert canonical(warm) == reference


# ----------------------------------------------------------------------
# the server, end to end
# ----------------------------------------------------------------------


class RunningServer:
    """Run an :class:`ExperimentServer` on a background event loop."""

    def __init__(self, **overrides):
        overrides.setdefault("port", 0)
        overrides.setdefault("workers", 2)
        overrides.setdefault("executor", "thread")
        overrides.setdefault("cache_dir", None)
        self.config = ServeConfig(**overrides)
        self.server = None
        self.exit_code = None
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(20), "server failed to start"
        return self

    def __exit__(self, *_exc):
        self.stop()

    def request_stop(self):
        """Ask the server to drain and exit; returns without waiting."""
        self._loop.call_soon_threadsafe(self.server.request_shutdown)

    def join(self):
        self._thread.join(timeout=60)
        assert not self._thread.is_alive()

    def stop(self):
        if self._thread.is_alive():
            self.request_stop()
        self.join()

    def _main(self):
        asyncio.run(self._amain())

    async def _amain(self):
        self.server = ExperimentServer(self.config)
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        self.exit_code = await self.server.run_until_stopped(
            install_signals=False
        )

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.port}"


class HeldSimulations:
    """Hold every simulation in flight until the test releases it.

    Wraps :func:`repro.serve.worker.run_point`, which
    :meth:`ExperimentServer.start` looks up, so install it before the
    :class:`RunningServer` starts.  ``started`` is set once a worker
    enters a simulation; the simulation runs once ``release`` is set.
    """

    def __init__(self, monkeypatch):
        self.started = threading.Event()
        self.release = threading.Event()
        run_point = worker.run_point

        def held(point_dict):
            self.started.set()
            assert self.release.wait(60), "the test never released the run"
            return run_point(point_dict)

        monkeypatch.setattr(worker, "run_point", held)


def wait_until(condition, what, timeout=60.0):
    """Poll ``condition()`` until it holds; fail after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def counter(url, name):
    return ServeClient(url).metrics()["counters"].get(name, 0)


class TestServerEndToEnd:
    def test_run_sweep_status_metrics_and_identity(self, tmp_path):
        with RunningServer(cache_dir=tmp_path / "cache") as running:
            client = ServeClient(running.url, client_id="e2e")
            assert client.health()["ok"] is True

            point = fir_point()
            first = client.run_point(point)
            assert (first["provenance"], first["source"]) == ("run", "cold")
            # Byte-identity: execute_point is what `repro run` executes.
            assert canonical(first["outcome"]) == canonical(
                outcome_to_dict(execute_point(point))
            )

            # The duplicate is served from the content-hash cache.
            duplicate = client.run_point(point)
            assert duplicate["provenance"] == "cache"
            assert canonical(duplicate["outcome"]) == canonical(first["outcome"])

            # A sibling system forks the fir prefix's published blob.
            sibling = client.run_point(fir_point(system="UVM-opt"))
            assert (sibling["provenance"], sibling["source"]) == ("run", "blob")

            # Sweep -> job -> status.
            batch = [fir_point(ratio=r) for r in (1.5, 2.0, 3.0)]
            submitted = client.submit_sweep(points=batch)
            assert submitted["points"] == 3
            job = client.wait_job(submitted["id"])
            assert job["state"] == "done"
            assert len(job["outcomes"]) == 3
            # ratio 2.0 was already cached; the rest simulated.
            assert job["provenance"].count("cache") >= 1
            for spec, outcome in zip(job["points"], job["outcomes"]):
                local = outcome_to_dict(
                    execute_point(SweepPoint.from_dict(spec))
                )
                assert canonical(outcome) == canonical(local)

            metrics = client.metrics()
            counters = metrics["counters"]
            assert counters["serve/cache_hits"] >= 1
            assert counters["serve/pool_cold"] >= 1
            assert counters["serve/pool_blob"] >= 1
            assert metrics["pool_hit_rate"] > 0
            assert metrics["histograms"]["serve/request_seconds"]["count"] >= 4
            assert "p50" in metrics["histograms"]["serve/request_seconds"]
            assert "p99" in metrics["histograms"]["serve/request_seconds"]
        assert running.exit_code == 0

    def test_grid_sweep_and_deferred_run(self):
        with RunningServer() as running:
            client = ServeClient(running.url)
            submitted = client.submit_sweep(
                grid={
                    "workloads": ["fir"],
                    "systems": ["UVM-opt", "UvmDiscard"],
                    "ratios": [2.0],
                    "scale": SCALE,
                }
            )
            assert submitted["points"] == 2
            job = client.wait_job(submitted["id"])
            assert job["provenance"].count("run") == 2

            deferred = client.run_point(fir_point(ratio=1.5), wait=False)
            status = client.wait_job(deferred["id"])
            assert status["total"] == 1
            assert status["outcomes"][0]["status"] == "ok"

    def test_concurrent_duplicates_coalesce(self, monkeypatch):
        held = HeldSimulations(monkeypatch)
        with RunningServer(workers=2) as running:
            point = SweepPoint("radix", "UvmDiscard", ratio=2.0, scale=0.125)
            responses, lock = [], threading.Lock()

            def fire():
                response = ServeClient(running.url).run_point(point)
                with lock:
                    responses.append(response)

            first = threading.Thread(target=fire)
            first.start()
            assert held.started.wait(60), "the first request never ran"
            second = threading.Thread(target=fire)
            second.start()
            # Run the simulation only once the duplicate has parked on it.
            wait_until(
                lambda: counter(running.url, "serve/coalesced") == 1,
                "the duplicate to coalesce",
            )
            held.release.set()
            first.join()
            second.join()
            provenances = sorted(r["provenance"] for r in responses)
            assert provenances == ["coalesced", "run"]
            assert canonical(responses[0]["outcome"]) == canonical(
                responses[1]["outcome"]
            )
            # Only one simulation happened for the two requests.
            metrics = ServeClient(running.url).metrics()
            assert metrics["counters"]["serve/simulated"] == 1

    def test_queue_backpressure_answers_429_with_retry_after(self, monkeypatch):
        held = HeldSimulations(monkeypatch)
        with RunningServer(workers=1, queue_limit=1) as running:
            statuses, lock = [], threading.Lock()

            def fire(ratio):
                client = ServeClient(running.url, max_retries=0)
                point = SweepPoint("radix", "UvmDiscard", ratio=ratio, scale=0.125)
                status = 200
                try:
                    client.run_point(point)
                except ServeError as exc:
                    status = exc.status
                with lock:
                    statuses.append(status)

            threads = [
                threading.Thread(target=fire, args=(ratio,))
                for ratio in (1.5, 2.0, 3.0, 4.0)
            ]
            for thread in threads:
                thread.start()
            # The first point holds the only queue slot until a later
            # one has been turned away.
            wait_until(
                lambda: counter(running.url, "serve/rejected_busy") >= 1,
                "a request to be rejected",
            )
            held.release.set()
            for thread in threads:
                thread.join()
            assert statuses.count(200) >= 1
            assert statuses.count(429) >= 1
            raw_status, headers, _ = ServeClient(
                running.url, max_retries=0
            )._once("POST", "/run", None)
            # (also: a bare POST with no body is a 400, not a crash)
            assert raw_status == 400
            metrics = ServeClient(running.url).metrics()
            assert metrics["counters"]["serve/rejected_busy"] >= 1

    def test_prometheus_exposition_and_run_attribution(self):
        import urllib.request

        with RunningServer() as running:
            client = ServeClient(running.url, client_id="prom")
            # A run that retains transfer records carries the byte-
            # attribution summary in its /run outcome.
            explained = client.run_point(
                fir_point(driver=(("keep_transfer_records", True),))
            )
            attribution = explained["outcome"]["result"]["attribution"]
            assert attribution["complete"] is True
            assert attribution["waste"]["useful_bytes"] > 0
            # The hot path stays lean: no records, no attribution key
            # (omitted so pre-attribution caches stay byte-identical).
            bare = client.run_point(fir_point())
            assert "attribution" not in bare["outcome"]["result"]

            response = urllib.request.urlopen(
                running.url + "/metrics?format=prometheus"
            )
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
            assert "# TYPE repro_serve_requests_total counter" in text
            assert "# TYPE repro_serve_request_seconds summary" in text
            assert 'repro_serve_request_seconds{quantile="0.5"}' in text
            assert "repro_serve_queue_limit 256" in text
            # Scrapes are parseable: every sample line is "name value".
            for line in text.strip().split("\n"):
                if line.startswith("#"):
                    continue
                name, value = line.rsplit(" ", 1)
                float(value)
                assert name
            # The JSON document stays the default.
            metrics = client.metrics()
            assert "counters" in metrics and "histograms" in metrics

    def test_rate_limited_client_gets_429_and_retry_succeeds(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = fir_point()
        cache.put(point, outcome_to_dict(execute_point(point)))
        with RunningServer(
            cache_dir=tmp_path / "cache", rate=2.0, burst=1.0
        ) as running:
            impatient = ServeClient(running.url, client_id="hot", max_retries=0)
            assert impatient.run_point(point)["provenance"] == "cache"
            with pytest.raises(ServeError) as excinfo:
                impatient.run_point(point)
            assert excinfo.value.status == 429
            # A different client has its own bucket.
            other = ServeClient(running.url, client_id="cool", max_retries=0)
            assert other.run_point(point)["provenance"] == "cache"
            # The retrying client absorbs the 429 by honoring Retry-After.
            patient = ServeClient(running.url, client_id="hot", max_retries=10)
            assert patient.run_point(point)["provenance"] == "cache"
            assert patient.retries >= 1
            metrics = ServeClient(running.url).metrics()
            assert metrics["counters"]["serve/rejected_rate"] >= 1

    def test_malformed_requests(self):
        with RunningServer() as running:
            client = ServeClient(running.url, max_retries=0)

            def status_of(method, path, payload=None):
                try:
                    client._request(method, path, payload)
                except ServeError as exc:
                    return exc.status
                return 200

            assert status_of("POST", "/run", {"client": "x"}) == 400  # no point
            assert status_of("POST", "/run", {"point": {"workload": "nope"}}) == 400
            assert status_of("POST", "/run", {"point": 7}) == 400
            assert (
                status_of("POST", "/run", {"point": fir_point().to_dict(),
                                           "wait": "yes"})
                == 400
            )
            assert status_of("POST", "/sweep", {"client": "x"}) == 400
            assert status_of("POST", "/sweep", {"points": []}) == 400
            assert (
                status_of("POST", "/sweep", {"grid": {"workloads": []}}) == 400
            )
            assert status_of("GET", "/status/job-999") == 404
            assert status_of("GET", "/nope") == 404
            assert status_of("GET", "/run") == 405
            assert status_of("POST", "/metrics") == 405
            # Invalid JSON body.
            connection_status, _, payload = client._once(
                "POST", "/run", None
            )
            assert connection_status == 400
            assert "error" in payload

    def test_graceful_drain_finishes_inflight_work(self, monkeypatch):
        held = HeldSimulations(monkeypatch)
        with RunningServer(workers=1, drain_seconds=60.0) as running:
            responses, lock = [], threading.Lock()

            def fire():
                point = SweepPoint("radix", "UvmDiscard", ratio=2.0, scale=0.125)
                response = ServeClient(running.url).run_point(point)
                with lock:
                    responses.append(response)

            worker_thread = threading.Thread(target=fire)
            worker_thread.start()
            assert held.started.wait(60), "the request never ran"
            running.request_stop()  # graceful shutdown while simulating
            wait_until(
                lambda: running.server.scheduler.closing, "the drain to start"
            )
            held.release.set()
            running.join()
            worker_thread.join(timeout=60)
            assert running.exit_code == 0
            assert len(responses) == 1
            assert responses[0]["outcome"]["status"] == "ok"


class TestServeConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 0},
            {"executor": "fibers"},
            {"queue_limit": 0},
            {"port": -1},
            {"rate": 5.0, "burst": 0.5},
            {"port": 70000},
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServeConfig(**overrides).validate()
