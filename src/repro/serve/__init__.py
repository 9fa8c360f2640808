"""Simulation-as-a-service: the asyncio experiment server.

``python -m repro serve`` turns the sweep machinery into a long-running
shared resource: a JSON-over-HTTP API (``POST /run``, ``POST /sweep``,
``GET /status/<id>``, ``GET /metrics``) in front of

- the content-hash :class:`~repro.harness.sweep.ResultCache` (duplicate
  requests are answered without simulating),
- in-flight request coalescing (concurrent duplicates share one
  simulation),
- a bounded worker pool (:mod:`concurrent.futures` processes for the
  CPU-bound simulations, an asyncio frontend for the I/O),
- a host-wide :class:`~repro.engine.snapshot.BlobStore` keyed by
  :func:`~repro.harness.sweep.prefix_key`, so popular experiment
  prefixes fork a quiesced snapshot instead of cold-starting,
- backpressure (bounded queue, ``429`` + ``Retry-After``), per-client
  token-bucket rate limits and graceful drain on shutdown.

Served results are byte-identical to ``python -m repro run`` — the
serving layer is a wall-clock optimization, never a semantics change.
See ``docs/SERVING.md``.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.scheduler import Backpressure, RateLimiter, Scheduler, TokenBucket
from repro.serve.server import ExperimentServer, ServeConfig

__all__ = [
    "Backpressure",
    "ExperimentServer",
    "RateLimiter",
    "Scheduler",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "TokenBucket",
]
