"""Frozen generated corpus: 200 seeded random programs with committed digests.

Each seed draws one declared-access program from the step alphabet of
``tests/test_runtime_fuzz.py``, widened to cover what the paper's
programs never do: read-modify-write operands, an irregular two-pass
operand inside one wave (a block repeats in the wave), strided sweeps,
sub-range discards and prefetches, host reads and writes, prefetch to
the CPU, and lazy discards followed by a write with and without the
notifying prefetch.  The oracle is non-strict, so misuse and corrupted
reads are recorded rather than raised.  Every fifth program runs under a
fault-injection storm, every tenth runs on two GPUs, and the driver
config (discarded queue, eviction policy, the §5.4 full-block policy and
auto-prefetch) is drawn per program.

The programs come from :class:`random.Random`, not hypothesis, so the
corpus never changes.  Hypothesis draws only the seeds of new programs
beyond the frozen ones, for the check that in-place waits
(:meth:`~repro.engine.core.Environment.horizon`) give what real
timeouts give.  Three digests per program are committed in
``tests/golden/generated_corpus.json``: the chaos runner's trace digest
(clock, events, counters, traffic, RMT and every transfer record), a
state digest (oracle events, page-table counts and the final driver
inspection), and for every tenth program the tracer digest.  A driver
rewrite must leave all of them unchanged.  Regenerate only for an
intentional behaviour change::

    PYTHONPATH=src python -m pytest tests/test_generated_corpus.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_gpu

from repro import AccessMode, BufferAccess, CudaRuntime, KernelSpec
from repro.chaos import ChaosConfig, ChaosInjector, trace_digest
from repro.driver.config import UvmDriverConfig
from repro.gpu.access import IrregularPattern, SequentialPattern, StridedPattern
from repro.harness.validation import (
    check_driver_invariants,
    check_transfer_conservation,
)
from repro.instrument.trace import TraceConfig, Tracer
from repro.interconnect import nvlink_gen3
from repro.units import MIB
from repro.vm.layout import VaRange

GOLDEN = pathlib.Path(__file__).parent / "golden" / "generated_corpus.json"
SEEDS = range(200)

#: Buffer sizes in MiB; odd sizes leave a partial tail block.
SIZES_MIB = (2, 3, 5, 6, 8, 12, 16, 20)
MODES = {"r": AccessMode.READ, "w": AccessMode.WRITE, "rw": AccessMode.READWRITE}
HOST_MODES = ("read", "write", "update")


def _draw_range(rnd: random.Random, size_mib: int):
    """A whole-buffer (``None``) or MiB-granular ``(offset, length)`` range."""
    if rnd.random() < 0.6:
        return None
    offset = rnd.randrange(size_mib)
    return (offset, rnd.randint(1, size_mib - offset))


def generate(seed: int) -> dict:
    """The plain-data description of program ``seed``."""
    rnd = random.Random(seed)
    two_gpus = seed % 10 == 0
    devices = ["gpu0", "gpu1"] if two_gpus else ["gpu0"]
    sizes = [rnd.choice(SIZES_MIB) for _ in range(rnd.randint(1, 3))]
    program = {
        "gpu_mib": rnd.choice((16, 32)),
        "devices": devices,
        "p2p": two_gpus and rnd.random() < 0.5,
        "sizes_mib": sizes,
        "streams": rnd.randint(1, 2),
        "driver": {
            "discarded_queue_enabled": rnd.random() < 0.7,
            "eviction_policy": rnd.choice(("lru", "fifo")),
            "require_full_blocks": rnd.random() < 0.7,
            "auto_prefetch_enabled": rnd.random() < 0.2,
        },
        "chaos": seed % 5 == 0,
        "traced": seed % 10 == 3,
    }
    steps = []
    for _ in range(rnd.randint(10, 40)):
        op = rnd.choice(
            ("launch", "launch", "launch", "discard", "discard",
             "prefetch", "prefetch_cpu", "host", "lazy_reuse")
        )
        buf = rnd.randrange(len(sizes))
        step = {
            "op": op,
            "sync": rnd.random() < 0.5,
            "stream": rnd.randrange(program["streams"]),
            "buf": buf,
        }
        if op == "launch":
            shape = rnd.choice(("seq", "strided", "irregular"))
            step["waves"] = {
                "seq": rnd.randint(1, 4),
                "strided": rnd.randint(2, 4),
                "irregular": 1,
            }[shape]
            operands = []
            for _ in range(rnd.randint(1, 2)):
                index = rnd.randrange(len(sizes))
                operands.append(
                    {
                        "buf": index,
                        "mode": rnd.choice(("r", "w", "rw")),
                        "pattern": rnd.choice((shape, "seq")),
                        "range": _draw_range(rnd, sizes[index]),
                    }
                )
            step["operands"] = operands
            step["flops"] = rnd.choice((0.0, 1e5, 1e7))
            step["device"] = rnd.choice(devices)
        elif op == "prefetch":
            step["dest"] = rnd.choice(devices)
            step["range"] = _draw_range(rnd, sizes[buf])
        elif op == "prefetch_cpu":
            step["range"] = _draw_range(rnd, sizes[buf])
        elif op == "discard":
            step["mode"] = rnd.choice(("eager", "lazy"))
            step["range"] = _draw_range(rnd, sizes[buf])
        elif op == "host":
            step["mode"] = rnd.choice(HOST_MODES)
            step["range"] = _draw_range(rnd, sizes[buf])
        else:  # lazy_reuse: lazy discard, optional notify, then a write
            step["notify"] = rnd.random() < 0.5
            step["device"] = rnd.choice(devices)
        steps.append(step)
    program["steps"] = steps
    return program


def _pattern(name: str):
    if name == "strided":
        return StridedPattern()
    if name == "irregular":
        return IrregularPattern(passes=2)
    return SequentialPattern()


def _range(buffer, spec):
    if spec is None:
        return None
    offset, length = spec
    return VaRange(buffer.va_range.start + offset * MIB, length * MIB)


def _body(program: dict, buffers, streams):
    def body(cuda):
        for n, step in enumerate(program["steps"]):
            if step["sync"]:
                yield from cuda.synchronize()
            stream = streams[step["stream"]]
            buffer = buffers[step["buf"]]
            op = step["op"]
            if op == "launch":
                accesses = [
                    BufferAccess(
                        buffers[o["buf"]],
                        MODES[o["mode"]],
                        rng=_range(buffers[o["buf"]], o["range"]),
                        pattern=_pattern(o["pattern"]),
                    )
                    for o in step["operands"]
                ]
                cuda.launch(
                    KernelSpec(
                        f"k{n}", accesses, flops=step["flops"],
                        waves=step["waves"],
                    ),
                    stream=stream,
                    device=step["device"],
                )
            elif op == "prefetch":
                cuda.prefetch_async(
                    buffer, destination=step["dest"],
                    rng=_range(buffer, step["range"]), stream=stream,
                )
            elif op == "prefetch_cpu":
                cuda.prefetch_async(
                    buffer, destination="cpu",
                    rng=_range(buffer, step["range"]), stream=stream,
                )
            elif op == "discard":
                cuda.discard_async(
                    buffer, rng=_range(buffer, step["range"]),
                    mode=step["mode"], stream=stream,
                )
            elif op == "host":
                host = getattr(cuda, f"host_{step['mode']}")
                yield from host(buffer, _range(buffer, step["range"]))
            else:
                cuda.discard_async(buffer, mode="lazy", stream=stream)
                if step["notify"]:
                    cuda.prefetch_async(
                        buffer, destination=step["device"], stream=stream
                    )
                cuda.launch(
                    KernelSpec(
                        f"reuse{n}", [BufferAccess(buffer, AccessMode.WRITE)],
                        flops=1e5,
                    ),
                    stream=stream,
                    device=step["device"],
                )
        yield from cuda.synchronize()

    return body


def _state_digest(runtime: CudaRuntime) -> str:
    """Oracle events, page-table counts and the final driver state."""
    driver = runtime.driver
    h = hashlib.sha256()

    def put(*parts):
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    for event in driver.oracle.events:
        put(event.time, event.block_index, event.kind, event.detail)
    tables = [driver.cpu_page_table] + [
        driver.gpu_page_table(name) for name in driver.gpu_names()
    ]
    for table in tables:
        put(table.processor, table.map_count, table.unmap_count,
            table.tlb_invalidations)
    view = driver.inspect()
    for name in sorted(view.gpus):
        put(view.gpus[name])
    for index in sorted(view.blocks):
        put(view.blocks[index])
    put(sorted(view.cpu_mapped))
    return h.hexdigest()


def _no_op_monitor(env, count) -> None:
    """Watches nothing; installed, it makes every wait a real timeout."""


def _execute(seed: int, in_place: bool = True):
    """Build and run program ``seed``; return its runtime, its tracer
    (``None`` when untraced) and the error the run raised (``None`` when
    it finished).

    ``in_place=False`` installs :func:`_no_op_monitor`, under which the
    engine's horizon is −∞: no wait advances in place, and every victim
    takes the driver's per-victim eviction body.
    """
    program = generate(seed)
    mib = program["gpu_mib"]
    config = UvmDriverConfig(keep_transfer_records=True, **program["driver"])
    if len(program["devices"]) == 2:
        runtime = CudaRuntime(
            gpus=[tiny_gpu(mib, name) for name in program["devices"]],
            p2p_link=nvlink_gen3() if program["p2p"] else None,
            driver_config=config,
        )
    else:
        runtime = CudaRuntime(gpu=tiny_gpu(mib), driver_config=config)
    buffers = [
        runtime.malloc_managed(size * MIB, f"buf{i}")
        for i, size in enumerate(program["sizes_mib"])
    ]
    streams = [runtime.default_stream] + [
        runtime.create_stream(f"s{i}") for i in range(1, program["streams"])
    ]
    tracer = None
    if program["traced"]:
        tracer = Tracer(TraceConfig(metrics_cadence=0)).install(runtime)
    injector = None
    if program["chaos"]:
        injector = ChaosInjector(ChaosConfig.default_storm(seed)).install(runtime)
    if not in_place:
        runtime.env.add_monitor(_no_op_monitor)
    error = None
    try:
        runtime.run(_body(program, buffers, streams))
    except Exception as exc:
        error = exc
    finally:
        if injector is not None:
            injector.uninstall()
        if tracer is not None:
            tracer.uninstall()
    return runtime, tracer, error


def _digests(runtime: CudaRuntime, tracer) -> dict:
    """Check a finished program's invariants; return its digests."""
    check_driver_invariants(runtime.driver)
    check_transfer_conservation(runtime.driver)
    return {
        "events": runtime.env.event_count,
        "trace": trace_digest(runtime),
        "state": _state_digest(runtime),
        "tracer": tracer.digest() if tracer is not None else None,
    }


def run_program(seed: int) -> dict:
    """Run program ``seed``; check invariants; return its digests."""
    runtime, tracer, error = _execute(seed)
    if error is not None:
        raise error
    return _digests(runtime, tracer)


def _load_golden() -> dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text())["programs"]


GOLDEN_PROGRAMS = _load_golden()


def test_corpus_covers_every_seed(update_golden):
    if update_golden:
        programs = {str(seed): run_program(seed) for seed in SEEDS}
        GOLDEN.write_text(
            json.dumps({"programs": programs}, indent=1, sort_keys=True) + "\n"
        )
        GOLDEN_PROGRAMS.clear()
        GOLDEN_PROGRAMS.update(programs)
    assert sorted(GOLDEN_PROGRAMS, key=int) == [str(s) for s in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_program_matches_corpus(seed):
    golden = GOLDEN_PROGRAMS.get(str(seed))
    if golden is None:
        pytest.fail(f"no corpus entry for seed {seed}; run with --update-golden")
    assert run_program(seed) == golden


def _outcome(seed: int, in_place: bool) -> tuple:
    """The engine's clock, event count and sequence counter after program
    ``seed``, with its digests or the error it raised."""
    runtime, tracer, error = _execute(seed, in_place)
    env = runtime.env
    engine = (env.now, env.event_count, env._sequence)
    if error is not None:
        return engine, (type(error).__name__, str(error))
    return engine, _digests(runtime, tracer)


@settings(deadline=None)
@given(seed=st.integers(min_value=SEEDS.stop, max_value=2**32 - 1))
def test_in_place_waits_match_real_timeouts(seed):
    """A new program gives the same digests, clock, event count and
    sequence counter, or raises the same error, whether its waits may
    advance in place (and its evictions run in bulk) or every wait is a
    real timeout (and every victim takes the per-victim body).  About
    one new program in 230 ends in a memory deadlock."""
    assert _outcome(seed, in_place=True) == _outcome(seed, in_place=False)
