"""Load generator for the experiment server.

Replays a seeded, reproducible mix of duplicate and unique experiment
points against a running ``repro serve`` endpoint from many concurrent
client threads (each with its own client id and retrying
:class:`~repro.serve.client.ServeClient`), then reports:

- p50/p90/p99/max wall latency (measured client-side, 429 retries
  included — what a caller actually waits),
- ok/failed counts and absorbed-429 retry counts,
- server-side dedup and blob-store provenance (scraped from
  ``/metrics`` and from per-response ``provenance``/``source`` fields),
- optional byte-identity spot checks: a sample of served outcomes is
  recomputed locally with :func:`~repro.harness.sweep.execute_point`
  and compared as canonical JSON.

Used by ``python -m repro loadgen``, the ``serve-smoke`` CI job and
``benchmarks/perf/test_serve_load.py``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.serve.client import ServeClient, ServeError

#: The default unique-point population: every UVM system over a small
#: micro-workload grid — cheap at tiny scale, and all ``fir`` (or all
#: ``radix``) points share one prefix key, so the blob store gets traffic.
DEFAULT_WORKLOADS = ("fir", "radix")
DEFAULT_SYSTEMS = ("UVM-opt", "UvmDiscard", "UvmDiscardLazy")
DEFAULT_RATIOS = (1.5, 2.0)


def default_points(scale: float = 0.03125) -> List[Dict[str, object]]:
    """The standard unique-point population (12 points)."""
    return [
        {
            "workload": workload,
            "system": system,
            "ratio": ratio,
            "scale": scale,
        }
        for workload in DEFAULT_WORKLOADS
        for system in DEFAULT_SYSTEMS
        for ratio in DEFAULT_RATIOS
    ]


def build_schedule(
    points: List[Dict[str, object]],
    requests: int,
    duplicate_fraction: float,
    seed: int,
) -> List[Dict[str, object]]:
    """A seeded request schedule mixing unique and duplicate points.

    The first pass cycles through the unique population; once every
    point has been issued at least once (or from the start, for
    ``duplicate_fraction`` of draws), requests re-draw uniformly from
    the already-issued set, which is what makes dedup observable.
    """
    if not 0.0 <= duplicate_fraction <= 1.0:
        raise ValueError(f"duplicate fraction must be in [0, 1]: {duplicate_fraction}")
    rng = random.Random(seed)
    schedule: List[Dict[str, object]] = []
    issued: List[Dict[str, object]] = []
    fresh = list(points)
    for _ in range(requests):
        if fresh and (not issued or rng.random() >= duplicate_fraction):
            point = fresh.pop(0)
            issued.append(point)
        else:
            point = rng.choice(issued if issued else points)
        schedule.append(point)
    return schedule


@dataclass
class LoadReport:
    """Everything one load run measured."""

    requests: int
    clients: int
    ok: int = 0
    failed: int = 0
    retries_429: int = 0
    wall_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: provenance -> count, aggregated over per-request responses.
    provenance: Dict[str, int] = field(default_factory=dict)
    #: pool source -> count ("blob"/"cold"/"unpooled"), simulated only.
    sources: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    identity_checked: int = 0
    identity_mismatches: int = 0

    def percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[index]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p90(self) -> float:
        return self.percentile(0.90)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def dedup_hits(self) -> int:
        return self.provenance.get("cache", 0) + self.provenance.get("coalesced", 0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "clients": self.clients,
            "ok": self.ok,
            "failed": self.failed,
            "retries_429": self.retries_429,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.ok / self.wall_seconds if self.wall_seconds else 0.0,
            "latency": {
                "p50": self.p50,
                "p90": self.p90,
                "p99": self.p99,
                "max": max(self.latencies) if self.latencies else 0.0,
                "mean": (
                    sum(self.latencies) / len(self.latencies)
                    if self.latencies
                    else 0.0
                ),
            },
            "provenance": dict(sorted(self.provenance.items())),
            "sources": dict(sorted(self.sources.items())),
            "dedup_hits": self.dedup_hits,
            "identity": {
                "checked": self.identity_checked,
                "mismatches": self.identity_mismatches,
            },
            "errors": self.errors[:20],
            "server_metrics": self.metrics,
        }

    def summary_lines(self) -> List[str]:
        latency = self.to_dict()["latency"]
        return [
            f"{self.ok}/{self.requests} ok ({self.failed} failed, "
            f"{self.retries_429} retried-429) from {self.clients} clients "
            f"in {self.wall_seconds:.2f}s",
            "latency p50 {p50:.4f}s  p90 {p90:.4f}s  p99 {p99:.4f}s  "
            "max {max:.4f}s".format(**latency),
            f"provenance {dict(sorted(self.provenance.items()))} "
            f"(dedup hits: {self.dedup_hits})",
            f"pool sources {dict(sorted(self.sources.items()))}",
            f"identity checks {self.identity_checked} "
            f"({self.identity_mismatches} mismatches)",
        ]


def run_load(
    url: str,
    requests: int = 100,
    clients: int = 8,
    duplicate_fraction: float = 0.5,
    seed: int = 0,
    points: Optional[List[Dict[str, object]]] = None,
    scale: float = 0.03125,
    timeout: float = 120.0,
    verify_identity: int = 0,
) -> LoadReport:
    """Fire ``requests`` across ``clients`` threads; gather a report.

    ``verify_identity`` re-simulates that many distinct served points
    locally and compares outcomes byte-for-byte (slow — keep small).
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1: {requests}")
    if clients < 1:
        raise ValueError(f"clients must be >= 1: {clients}")
    population = points if points is not None else default_points(scale)
    schedule = build_schedule(population, requests, duplicate_fraction, seed)
    report = LoadReport(requests=requests, clients=clients)
    lock = threading.Lock()
    next_index = [0]
    served: Dict[str, Dict[str, object]] = {}  # canonical point JSON -> outcome
    handles = [
        ServeClient(url, client_id=f"load-{i}", timeout=timeout)
        for i in range(clients)
    ]
    # All clients open fire together, so peak server concurrency
    # reflects the configured client count rather than thread spawn lag.
    start_line = threading.Barrier(clients)

    def drive(client: ServeClient) -> None:
        start_line.wait()
        while True:
            with lock:
                index = next_index[0]
                if index >= len(schedule):
                    return
                next_index[0] += 1
            point = schedule[index]
            started = time.monotonic()
            try:
                response = client.run_point(point)
            except (ServeError, OSError, TimeoutError) as exc:
                with lock:
                    report.failed += 1
                    report.errors.append(f"{point}: {exc}")
                continue
            elapsed = time.monotonic() - started
            with lock:
                report.ok += 1
                report.latencies.append(elapsed)
                provenance = str(response.get("provenance"))
                report.provenance[provenance] = (
                    report.provenance.get(provenance, 0) + 1
                )
                source = response.get("source")
                if source:
                    report.sources[source] = report.sources.get(source, 0) + 1
                served.setdefault(
                    json.dumps(point, sort_keys=True), response["outcome"]
                )

    started = time.monotonic()
    threads = [
        threading.Thread(target=drive, args=(handle,), daemon=True)
        for handle in handles
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.monotonic() - started
    report.retries_429 = sum(handle.retries for handle in handles)

    if verify_identity > 0:
        from repro.harness.sweep import SweepPoint, execute_point, outcome_to_dict

        for point_json, outcome in sorted(served.items())[:verify_identity]:
            local = outcome_to_dict(
                execute_point(SweepPoint.from_dict(json.loads(point_json)))
            )
            report.identity_checked += 1
            if json.dumps(local, sort_keys=True) != json.dumps(
                outcome, sort_keys=True
            ):
                report.identity_mismatches += 1
                report.errors.append(f"identity mismatch for {point_json}")

    try:
        report.metrics = ServeClient(url, timeout=timeout).metrics()
    except (ServeError, OSError):
        report.metrics = {}
    return report
