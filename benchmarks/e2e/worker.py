"""One benchmark workload in a fresh Python process.

``run.py`` launches this script once per set-up probe and once per
measured run, with ``PYTHONPATH`` naming the ``src`` tree under test.
The protocol on standard output: the line ``READY`` once the program
can take work (imports done, one warm-up item run, or ``/healthz``
answering for ``serve-open``), then, unless ``--setup-only``, one JSON
line with the metrics (or per-layer metrics) and the verification tally.

Run it directly only to debug a workload::

    PYTHONPATH=src python benchmarks/e2e/worker.py --workload dl-train \\
        --seed 0 --seconds 10 --work /tmp/w
"""

from __future__ import annotations

import argparse
import bisect
import cProfile
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import suite  # noqa: E402
import tracing  # noqa: E402

#: How long a set-up may take before the worker gives up on the server.
SERVER_START_TIMEOUT = 60.0
#: Per-request client timeout; a request slower than this is a failure.
REQUEST_TIMEOUT = 60.0
#: Open-loop load: one process, this many sender threads, one
#: connection each.
SENDERS = 2
#: Latency samples a closed loop collects at least (p90 then has 10
#: samples beyond it).
MIN_LATENCY_SAMPLES = 100

SERVE_SOURCES = ("cache", "coalesced", "fork", "blob", "cold", "unpooled")


def peak_rss_mb() -> float:
    """Highest peak RSS of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Attempted and failed items; a reference mismatch is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: List[str] = []

    def fail(self, message: str, mismatch: bool = False) -> None:
        self.failed += 1
        self.mismatches += int(mismatch)
        if len(self.errors) < 20:
            self.errors.append(message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted, "failed": self.failed,
            "mismatches": self.mismatches, "errors": self.errors,
        }


# ----------------------------------------------------------------------
# closed loops over a fixed point set (dl-train, micro-oversub, explain)
# ----------------------------------------------------------------------


class ClosedLoop:
    """One caller visiting every point of the population per pass."""

    def __init__(self, args, reference: suite.Reference) -> None:
        self.seed = args.seed
        self.points = suite.population(args.workload)
        self.tally = Tally()
        # Entry points are looked up on their module at each call so a
        # traced pass goes through the wrappers tracing.install put there.
        if args.workload == "explain":
            import repro.analysis.explain as module

            self.call = lambda point: module.explain_point(point)
            self.output = lambda report: report
            self.check = reference.check_explain
        else:
            import repro.harness.sweep as module

            self.call = lambda point: module.execute_point(point)
            self.output = suite.outcome_of
            self.check = reference.check_outcome
        # (label, (wall s, CPU s) or None when failed) per item run, and
        # the calibration sample taken right after it.
        self.timed: List[Tuple[str, Optional[Tuple[float, float]]]] = []
        self.calibration: List[float] = []

    def _item(self, point) -> Optional[Tuple[float, float]]:
        """Run one item; its (wall, CPU) seconds, or ``None`` when it failed."""
        self.tally.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            value = self.call(point)
        except Exception as exc:  # noqa: BLE001 - a failed item is counted, not fatal
            self.tally.fail(f"{point.label}: {type(exc).__name__}: {exc}")
            return None
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if not self.check(point, self.output(value)):
            self.tally.fail(f"{point.label}: output differs from reference", True)
            return None
        return wall, cpu

    def setup(self) -> None:
        # A fixed warm-up item, so set-up time does not depend on the seed.
        self._item(self.points[-1])
        suite.calibration_sample()

    def run_pass(self, index: int, record: bool = True) -> float:
        started = time.perf_counter()
        for point in suite.pass_order(self.points, self.seed, index):
            timed = self._item(point)
            if record:
                self.timed.append((point.label, timed))
                self.calibration.append(suite.calibration_sample())
        return time.perf_counter() - started

    def measure(self, seconds: float) -> Dict[str, object]:
        # Whole passes until the time is spent, and enough of them that
        # p90 has at least 10 samples beyond it.
        min_passes = math.ceil(MIN_LATENCY_SAMPLES / len(self.points))
        started = time.perf_counter()
        passes = 0
        while passes < min_passes or time.perf_counter() - started < seconds:
            self.run_pass(passes)
            passes += 1
        # Items are timed in wall time, so waiting a change adds shows;
        # each is scaled to the reference host by the calibration samples
        # around it.  CPU time is only a diagnostic: cpu_share falls below
        # ~1 when items block or the hypervisor steals time.
        samples: Dict[str, List[float]] = defaultdict(list)
        wall = cpu = 0.0
        for (label, timed), scale in zip(
            self.timed, suite.local_slowdowns(self.calibration)
        ):
            if timed is not None:
                samples[label].append(timed[0] / scale)
                wall += timed[0]
                cpu += timed[1]
        latencies = [s * 1e3 for values in samples.values() for s in values]
        busy = sum(statistics.median(v) for v in samples.values())
        return {
            "throughput_pps": (len(samples) / busy, len(samples)),
            "latency_p50_ms": (suite.percentile(latencies, 0.5), len(latencies)),
            "latency_p90_ms": (suite.percentile(latencies, 0.9), len(latencies)),
            "host_slowdown": (suite.slowdown(self.calibration), len(self.calibration)),
            "cpu_share": (cpu / wall, len(latencies)),
            "passes": passes,
        }

    def trace(self, recorder: tracing.Recorder) -> Dict[str, float]:
        untraced = self.run_pass(0, record=False)
        recorder.install()
        profile = cProfile.Profile()
        profile.enable()
        try:
            traced = self.run_pass(0, record=False)
        finally:
            profile.disable()
            recorder.uninstall()
        recorder.add_profile(profile)
        return {"trace.overhead_x": traced / untraced}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# sweep-grid: whole sweeps through the process pool
# ----------------------------------------------------------------------


class SweepLoop:
    """``run_sweep(jobs=2)`` with no result cache and a fresh blob store."""

    JOBS = 2

    def __init__(self, args, reference: suite.Reference) -> None:
        import repro.harness.sweep as module

        self.sweep_module = module  # run_sweep is looked up per call, as above
        self.seed = args.seed
        self.work = Path(args.work)
        self.points = suite.population(args.workload)
        self.reference = reference
        self.tally = Tally()
        self._stores = 0

    def _sweep(self, points) -> Tuple[float, List[float]]:
        """One sweep: its wall seconds and each point's completion time."""
        self._stores += 1
        store = self.work / f"blobs-{self._stores}"
        done: List[float] = []
        started = time.perf_counter()
        self.tally.attempted += len(points)
        try:
            report = self.sweep_module.run_sweep(
                points, jobs=self.JOBS, cache=None,
                progress=lambda _line: done.append(time.perf_counter() - started),
                blob_store_dir=store,
            )
        except Exception as exc:  # noqa: BLE001 - a failed sweep fails its points
            for point in points:
                self.tally.fail(f"{point.label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - started, done
        finally:
            shutil.rmtree(store, ignore_errors=True)
        for point, result in report.rows():
            if not self.reference.check_outcome(point, suite.outcome_of(result)):
                self.tally.fail(f"{point.label}: output differs from reference", True)
        return report.wall_seconds, done

    def setup(self) -> None:
        self._sweep(self.points[-2:])

    def measure(self, seconds: float) -> Dict[str, object]:
        # Whole sweeps until the time is spent, at least MIN_SWEEPS so the
        # throughput is a median.  Each sweep is scaled to the reference
        # host by calibration samples taken while its pool workers run,
        # because the vCPUs' speed flips within a sweep.
        started = time.perf_counter()
        walls: List[float] = []
        completions: List[float] = []
        calibration: List[float] = []
        while len(walls) < suite.MIN_SWEEPS or time.perf_counter() - started < seconds:
            order = suite.pass_order(self.points, self.seed, len(walls))
            with suite.CalibrationSampler() as sampler:
                wall, done = self._sweep(order)
            scale = suite.slowdown(sampler.samples)
            walls.append(wall / scale)
            completions.extend(t * 1e3 / scale for t in done)
            calibration.extend(sampler.samples)
        return {
            "throughput_pps": (len(self.points) / statistics.median(walls), len(walls)),
            "latency_p50_ms": (suite.percentile(completions, 0.5), len(completions)),
            "latency_p90_ms": (suite.percentile(completions, 0.9), len(completions)),
            "host_slowdown": (suite.slowdown(calibration), len(calibration)),
            "passes": len(walls),
        }

    def trace(self, recorder: tracing.Recorder) -> Dict[str, float]:
        order = suite.pass_order(self.points, self.seed, 0)
        untraced, _ = self._sweep(order)
        recorder.install()
        try:
            traced, _ = self._sweep(order)
        finally:
            recorder.uninstall()
        return {"trace.overhead_x": traced / untraced}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve-open: an open loop against ``repro serve --workers 2``
# ----------------------------------------------------------------------


class Server:
    """A ``repro serve`` subprocess with an empty cache, pools and blobs."""

    def __init__(self, work: Path, trace_dir: Optional[Path]) -> None:
        from repro.serve.client import ServeClient

        self.dir = Path(tempfile.mkdtemp(prefix="server-", dir=work))
        argv = [
            "serve", "--port", "0", "--workers", "2",
            "--cache-dir", str(self.dir / "cache"),
            "--blob-dir", str(self.dir / "blobs"),
        ]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable, str(HERE / "tracing.py"), str(trace_dir), *argv]
        out = self.dir / "serve.out"
        with open(out, "w") as stdout, open(self.dir / "serve.err", "w") as stderr:
            self.process = subprocess.Popen(command, stdout=stdout, stderr=stderr)
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        url = None
        while url is None:
            text = out.read_text()
            if "http://" in text:
                url = "http://" + text.split("http://", 1)[1].split()[0]
                break
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    f"repro serve did not start: {(self.dir / 'serve.err').read_text()}"
                )
            time.sleep(0.01)
        self.url = url
        probe = ServeClient(url, timeout=5.0, max_retries=0)
        while True:
            try:
                if probe.health().get("ok"):
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.01)

    def metrics(self) -> Dict[str, object]:
        from repro.serve.client import ServeClient

        return ServeClient(self.url, timeout=10.0, max_retries=0).metrics()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class PhaseResult:
    """Per-request outcomes of one open-loop phase."""

    def __init__(self, count: int) -> None:
        self.latency_ms: List[Optional[float]] = [None] * count
        self.client_ms: List[float] = [0.0] * count
        self.server_ms: List[float] = [0.0] * count
        self.kind: List[Optional[str]] = [None] * count
        self.failed = 0
        self.refused = 0
        self.late_ms: List[float] = []
        self.backlog_max = 0
        self.last_lag_ms = 0.0
        self.wall = 0.0

    @property
    def ok_latencies(self) -> List[float]:
        return [value for value in self.latency_ms if value is not None]


class OpenLoop:
    """Seeded Poisson due times, two senders, latency from the due time."""

    def __init__(self, args, reference: suite.Reference) -> None:
        self.work = Path(args.work)
        self.reference = reference
        self.tally = Tally()
        self.schedule = suite.serve_schedule(args.seed, args.seconds)
        self.server: Optional[Server] = None
        self.recorder: Optional[tracing.Recorder] = None

    def setup(self) -> None:
        self.server = Server(self.work, None)

    def _phase(self, server: Server, requests: List[suite.Request]) -> PhaseResult:
        from repro.serve.client import ServeClient, ServeError

        result = PhaseResult(len(requests))
        dues = [request.due for request in requests]
        lock = threading.Lock()
        cursor = [0]
        origin = time.perf_counter() + 0.05

        def send(index: int, client) -> None:
            request = requests[index]
            due = origin + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
                with lock:
                    result.late_ms.append((time.perf_counter() - due) * 1e3)
            sent = time.perf_counter()
            if index == len(requests) - 1:
                result.last_lag_ms = (sent - due) * 1e3
            with lock:
                self.tally.attempted += 1
            try:
                response = client.run_point(request.point)
            except ServeError as exc:
                with lock:
                    result.refused += int(exc.status == 429)
                    result.failed += 1
                    self.tally.fail(f"{request.point}: {exc}")
                return
            except OSError as exc:
                with lock:
                    result.failed += 1
                    self.tally.fail(f"{request.point}: {type(exc).__name__}: {exc}")
                return
            done = time.perf_counter()
            if not self.reference.check_outcome(request.point, response["outcome"]):
                with lock:
                    result.failed += 1
                    self.tally.fail(f"{request.point}: output differs from reference", True)
                return
            provenance = response.get("provenance")
            result.kind[index] = (
                provenance if provenance in ("cache", "coalesced")
                else str(response.get("source"))
            )
            result.latency_ms[index] = (done - due) * 1e3
            result.client_ms[index] = (done - sent) * 1e3
            result.server_ms[index] = float(response.get("seconds", 0.0)) * 1e3

        def sender(number: int) -> None:
            client = ServeClient(
                server.url, client_id=f"sender-{number}",
                timeout=REQUEST_TIMEOUT, max_retries=0,
            )
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(requests):
                        return
                    cursor[0] += 1
                    due_now = bisect.bisect_right(dues, time.perf_counter() - origin)
                    result.backlog_max = max(result.backlog_max, due_now - index)
                if self.recorder is None:
                    send(index, client)
                else:
                    with self.recorder.span("client/run", "loadgen", f"request-{index}"):
                        send(index, client)

        threads = [
            threading.Thread(target=sender, args=(n,), daemon=True)
            for n in range(SENDERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall = time.perf_counter() - origin
        return result

    def measure(self, seconds: float) -> Dict[str, object]:
        # Unscaled host time.  Neither calibration samples taken by this
        # process (before, after or during a phase) nor a schedule
        # stretched by them tracked the server's speed: the server's
        # three processes and this one share two vCPUs whose speeds flip
        # independently, and queueing amplifies each flip.
        nominal = self._phase(self.server, self.schedule["nominal"])
        latencies = nominal.ok_latencies
        max_rate = 0.0
        rungs = 0
        for rung, requests in enumerate(self.schedule["ladder"]):
            phase = self._phase(self.server, requests)
            rungs += 1
            ok = phase.ok_latencies
            if (
                phase.failed
                or not ok
                or suite.percentile(ok, 0.9, min_beyond=0) > suite.LADDER_P90_LIMIT_MS
                or phase.last_lag_ms > suite.LADDER_P90_LIMIT_MS
            ):
                break
            max_rate = suite.ladder_rate(rung)
        self.server.stop()
        return {
            "throughput_pps": (len(latencies) / nominal.wall, len(latencies)),
            "latency_p50_ms": (suite.percentile(latencies, 0.5), len(latencies)),
            "latency_p90_ms": (suite.percentile(latencies, 0.9), len(latencies)),
            "max_rate_rps": (max_rate, rungs),
            "passes": 1,
        }

    def trace(self, recorder: tracing.Recorder) -> Dict[str, float]:
        """The nominal phase untraced, then again against a traced server.

        The serve and loadgen metrics come from the untraced phase: the
        profiled workers are several times slower, which pushes the
        open loop past its knee.  Spans, counts and self time come from
        the traced phase, which sends the same requests.
        """
        requests = self.schedule["nominal"]
        untraced = self._phase(self.server, requests)
        served = self.server.metrics()
        self.server.stop()
        self.recorder = recorder
        server = Server(self.work, recorder.directory)
        try:
            traced = self._phase(server, requests)
        finally:
            server.stop()
            self.recorder = None
        metrics: Dict[str, float] = {}
        by_kind: Dict[str, List[float]] = defaultdict(list)
        for kind, latency in zip(untraced.kind, untraced.latency_ms):
            if latency is not None:
                by_kind[kind].append(latency)
        for source in SERVE_SOURCES:
            metrics[f"serve.requests.{source}"] = float(len(by_kind[source]))
            metrics[f"serve.{source}_ms_p50"] = suite.median_or_zero(by_kind[source])
        histogram = served.get("histograms", {}).get("serve/request_seconds", {})
        counters = served.get("counters", {})
        metrics["serve.server_p50_ms"] = float(histogram.get("p50", 0.0)) * 1e3
        metrics["serve.transport_ms_p50"] = suite.median_or_zero([
            client - server_ms
            for client, server_ms, latency in zip(
                untraced.client_ms, untraced.server_ms, untraced.latency_ms
            )
            if latency is not None
        ])
        metrics["serve.pool_hit_rate"] = float(served.get("pool_hit_rate", 0.0))
        metrics["serve.rejected"] = float(
            untraced.refused
            + counters.get("serve/rejected_busy", 0)
            + counters.get("serve/rejected_rate", 0)
        )
        metrics["loadgen.late_p90_ms"] = (
            suite.percentile(untraced.late_ms, 0.9, min_beyond=0)
            if untraced.late_ms else 0.0
        )
        metrics["loadgen.backlog_max"] = float(untraced.backlog_max)
        metrics["trace.overhead_x"] = statistics.mean(traced.ok_latencies) / (
            statistics.mean(untraced.ok_latencies)
        )
        return metrics

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


RUNNERS = {
    "dl-train": ClosedLoop,
    "micro-oversub": ClosedLoop,
    "explain": ClosedLoop,
    "sweep-grid": SweepLoop,
    "serve-open": OpenLoop,
}

#: Per-layer metrics only a served workload produces; every other
#: workload reports them as 0 (layer not exercised).
SERVE_LAYER_METRICS = tuple(
    [f"serve.requests.{s}" for s in SERVE_SOURCES]
    + [f"serve.{s}_ms_p50" for s in SERVE_SOURCES]
    + [
        "serve.server_p50_ms", "serve.transport_ms_p50", "serve.pool_hit_rate",
        "serve.rejected", "loadgen.late_p90_ms", "loadgen.backlog_max",
    ]
)


def run_traced(runner, args) -> Dict[str, object]:
    import repro

    trace_dir = Path(args.trace_dir)
    shutil.rmtree(trace_dir / "spool", ignore_errors=True)
    recorder = tracing.Recorder(trace_dir, Path(repro.__file__).parent.parent)
    extra = runner.trace(recorder)
    merged = tracing.merge(recorder)
    layers = tracing.layer_metrics(merged)
    layers.update({name: 0.0 for name in SERVE_LAYER_METRICS})
    layers.update(extra)
    chrome = tracing.chrome_trace(merged["spans"], args.workload)
    from repro.instrument.trace import validate_chrome_trace

    problems = validate_chrome_trace(chrome)
    if problems:
        raise RuntimeError(f"invalid Chrome trace: {problems[:3]}")
    (trace_dir / f"{args.workload}.trace.json").write_text(json.dumps(chrome))
    shutil.rmtree(trace_dir / "spool", ignore_errors=True)
    return {
        "layers": layers,
        "self_seconds": dict(merged["self_seconds"]),
        "spans": len(merged["spans"]),
        "deterministic": {k: layers[k] for k in tracing.DETERMINISTIC},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True, help="directory for this run's files")
    parser.add_argument("--trace-dir", help="write a traced run here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    Path(args.work).mkdir(parents=True, exist_ok=True)

    reference = suite.Reference.load(HERE / "reference.json")
    runner = RUNNERS[args.workload](args, reference)
    try:
        runner.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace_dir:
            payload = run_traced(runner, args)
        else:
            payload = {"metrics": runner.measure(args.seconds)}
    finally:
        runner.close()
    payload["tally"] = runner.tally.to_dict()
    payload["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
