"""Load/soak battery for the experiment server, ``pytest benchmarks/perf``.

These are the heavy serving benchmarks that back the PR's acceptance
criteria, kept out of the tier-1 ``tests/`` tree (like the kernel perf
suite next door) because they fire hundreds of requests:

- **concurrency**: the server sustains 100+ concurrently-open HTTP
  requests with zero failed or incorrect responses (pinned via the
  ``http.peak`` high-water mark in ``/metrics``),
- **soak with dedup**: a seeded duplicate-heavy mix over the standard
  point population reports p50/p99 latency, a dedup hit-rate > 0, both
  cold and blob-forked serves, and spot-checked byte-identity against
  local :func:`~repro.harness.sweep.execute_point` runs,
- **overload**: with a tiny queue, the retrying client absorbs 429
  backpressure and still completes every request.

All servers here use the thread executor so blob-store counters land in
one process and the run stays deterministic-ish on small CI boxes.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import signal
import subprocess
import sys
import threading

import pytest

from repro.serve.loadgen import run_load
from repro.serve.server import ExperimentServer, ServeConfig

#: Four radix points sharing one setup prefix.  At scale 0.125 each
#: simulates for ~300 ms — long enough that every client in the
#: concurrency test is connected before the first response lands.
SLOW_POINTS = [
    {"workload": "radix", "system": system, "ratio": ratio, "scale": 0.125}
    for system in ("UvmDiscard", "UVM-opt")
    for ratio in (1.5, 2.0)
]


class _Server:
    """An :class:`ExperimentServer` on a background event loop."""

    def __init__(self, **overrides):
        overrides.setdefault("port", 0)
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
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=120)
        assert not self._thread.is_alive()

    def _main(self):
        asyncio.run(self._amain())

    async def _amain(self):
        self.server = ExperimentServer(self.config)
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        self.exit_code = await self.server.run_until_stopped(install_signals=False)

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.port}"


def test_sustains_100_concurrent_inflight_requests():
    """120 clients, slow points, no disk cache: every request is either
    simulating or coalesced-waiting, so all are in flight together.

    The server runs in its own process (as in production): in-process
    it would share the GIL with 120 client threads and the simulation
    workers, starving the accept loop and capping observed concurrency.
    """
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--executor", "thread",
            "--workers", "4",
            "--queue-limit", "256",
            "--no-cache",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        announce = process.stdout.readline()
        assert announce.startswith("serving on http://127.0.0.1:"), announce
        url = announce.split()[2]
        report = run_load(
            url,
            requests=120,
            clients=120,
            duplicate_fraction=0.9,
            seed=11,
            points=SLOW_POINTS,
            timeout=300.0,
        )
        assert report.failed == 0, report.errors
        assert report.ok == 120
        peak = report.metrics["http"]["peak"]
        assert peak >= 100, f"only {peak} concurrent in-flight requests"
        # Coalescing absorbed the duplicate flood.  (Not exactly 4
        # simulations: with the cache off, a straggler arriving after
        # the first wave completed re-simulates its point.)
        assert report.provenance.get("coalesced", 0) >= 80
        assert report.metrics["counters"]["serve/simulated"] <= 40
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=30)


def test_soak_duplicate_mix_dedups_and_stays_byte_identical(tmp_path):
    """300 requests over the 12-point population: cache + pool dedup are
    observable, latency quantiles are reported, and a sample of served
    outcomes matches local `repro run` results byte-for-byte."""
    with _Server(
        workers=4, queue_limit=256, cache_dir=tmp_path / "cache"
    ) as running:
        report = run_load(
            running.url,
            requests=300,
            clients=60,
            duplicate_fraction=0.5,
            seed=7,
            timeout=300.0,
            verify_identity=3,
        )
        assert report.failed == 0, report.errors
        assert report.ok == 300
        assert report.identity_checked == 3
        assert report.identity_mismatches == 0

        # Dedup: duplicates must not have re-simulated.
        assert report.dedup_hits > 0
        assert report.metrics["counters"]["serve/simulated"] <= 12

        # Shared prefixes: the first point per prefix cold-starts, later
        # distinct points fork its blob — both observable client- and
        # server-side.
        assert report.sources.get("cold", 0) > 0
        assert report.sources.get("blob", 0) > 0
        assert report.metrics["pool_hit_rate"] > 0.0

        # Latency quantiles come out of both the client report and the
        # server histogram.
        assert 0.0 < report.p50 <= report.p99
        server_latency = report.metrics["histograms"]["serve/request_seconds"]
        assert server_latency["count"] >= report.metrics["counters"].get(
            "serve/simulated", 0
        )
        assert 0.0 < server_latency["p50"] <= server_latency["p99"]

        lines = report.summary_lines()
        assert any("p99" in line for line in lines)
    assert running.exit_code == 0


def test_overload_backpressure_is_absorbed_by_retries():
    """A queue of 2 with one worker rejects most of the first wave; the
    retrying clients honor Retry-After and everything still completes."""
    with _Server(workers=1, queue_limit=2) as running:
        report = run_load(
            running.url,
            requests=24,
            clients=12,
            duplicate_fraction=0.0,
            seed=3,
            timeout=300.0,
        )
        assert report.failed == 0, report.errors
        assert report.ok == 24
        assert report.retries_429 > 0
        assert report.metrics["counters"]["serve/rejected_busy"] > 0
    assert running.exit_code == 0


def test_rate_limited_clients_retry_and_complete(tmp_path):
    """With a per-client token bucket in force, clients hit 429s, honor
    Retry-After, and still finish the full schedule with zero failures."""
    with _Server(
        workers=2,
        queue_limit=64,
        rate=20.0,
        burst=2.0,
        cache_dir=tmp_path / "cache",
    ) as running:
        report = run_load(
            running.url,
            requests=100,
            clients=10,
            duplicate_fraction=0.5,
            seed=5,
            timeout=300.0,
        )
        assert report.failed == 0, report.errors
        assert report.ok == 100
        assert report.metrics["counters"].get("serve/rejected_rate", 0) > 0
        assert report.retries_429 > 0
    assert running.exit_code == 0


def test_load_report_is_json_serializable(tmp_path):
    """The artifact the CI smoke job uploads must always serialize."""
    import json

    with _Server(workers=2, queue_limit=64, cache_dir=tmp_path / "cache") as running:
        report = run_load(running.url, requests=20, clients=5, seed=1)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    assert json.loads(payload)["ok"] == 20
