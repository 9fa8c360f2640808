"""Darknet-style training loop (Listing 6 and §7.5).

One trainer drives all evaluated systems:

- **No-UVM** — explicit device buffers, Listing-4 style.  Crashes with
  :class:`~repro.errors.OutOfMemoryError` when the footprint exceeds GPU
  memory, exactly as the paper notes for Listing 4.
- **UVM-opt** — managed buffers with per-layer prefetching, overlapped on
  a transfer stream (the paper's baseline).
- **UvmDiscard / UvmDiscardLazy** — UVM-opt plus the Listing-6 discard
  sites: each layer's stored output after its backward pass, each delta
  once consumed, each weight gradient after the update, and the shared
  CUDNN-style workspace (discarded only when memory is oversubscribed —
  when everything fits there is nothing to save).  Output/delta/gradient
  discards are prefetch-paired and may go lazy; workspace stays eager.

Double-buffered prefetch: layer *i*'s buffers are prefetched on a
transfer stream gated on kernel *i−2*, so transfers overlap compute
without running unboundedly ahead of the working set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional

from repro.access import AccessMode
from repro.cuda.device import GpuSpec
from repro.cuda.kernel import BufferAccess, KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.driver.config import UvmDriverConfig
from repro.errors import ConfigurationError
from repro.harness.results import ExperimentResult
from repro.harness.runner import run_uvm_experiment
from repro.harness.systems import DiscardPolicy, System
from repro.instrument.traffic import TransferDirection
from repro.interconnect.link import Link
from repro.units import BIG_PAGE
from repro.workloads.dl.networks import NetworkSpec


@dataclass
class TrainerConfig:
    """Training-run parameters.

    The paper trains three warm-up mini-batches and measures the next
    seven; the default here is one warm-up plus two measured, which is
    enough for steady state in the simulator (every batch after the first
    is identical) while keeping benchmark runs fast.
    """

    batch_size: int
    batches: int = 3
    warmup_batches: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not 0 <= self.warmup_batches < self.batches:
            raise ConfigurationError("need at least one measured batch")

    @property
    def measured_batches(self) -> int:
        return self.batches - self.warmup_batches


def _waves_for(nbytes: int) -> int:
    """Fault waves for a kernel touching ``nbytes`` of managed memory."""
    blocks = max(1, nbytes // BIG_PAGE)
    return max(1, min(12, int(blocks // 64)))


class DarknetTrainer:
    """Trains one network under one evaluated system."""

    def __init__(
        self,
        network: NetworkSpec,
        config: TrainerConfig,
        system: System,
    ) -> None:
        self.network = network
        self.config = config
        self.system = system
        self.policy = DiscardPolicy(system)

    @property
    def app_bytes(self) -> int:
        return self.network.total_bytes(self.config.batch_size)

    def images_per_second(self, runtime: CudaRuntime) -> float:
        """Training throughput over the measured batches."""
        measured = runtime.measured_seconds
        if measured <= 0:
            return 0.0
        return self.config.batch_size * self.config.measured_batches / measured

    # ------------------------------------------------------------------
    # programs
    # ------------------------------------------------------------------

    def program(self) -> Callable[[CudaRuntime], Generator]:
        if self.system is System.NO_UVM:
            return self._program_no_uvm()
        setup = self.setup_program()
        body = self.body_program()

        def program(cuda: CudaRuntime) -> Generator:
            yield from setup(cuda)
            yield from body(cuda)

        return program

    def setup_program(self) -> Callable[[CudaRuntime], Generator]:
        """The UVM setup prefix: allocate every managed buffer and
        initialize the model weights on the host.  Depends only on the
        network and trainer config — not on the evaluated system — so
        the sweep harness can simulate it once and fork per system.
        CPU-only, hence quiescent (and snapshottable) afterwards.
        Not defined for No-UVM, which sizes explicit device buffers.
        """
        if self.system is System.NO_UVM:
            raise ConfigurationError("No-UVM has no shareable setup prefix")
        net = self.network
        cfg = self.config

        def setup(cuda: CudaRuntime) -> Generator:
            bs = cfg.batch_size
            data = cuda.malloc_managed(net.input_bytes_per_sample * bs, "data")
            labels = cuda.malloc_managed(net.label_bytes_per_sample * bs, "labels")
            outputs = [
                cuda.malloc_managed(net.output_bytes(l, bs), f"out_{i}_{l.name}")
                for i, l in enumerate(net.layers)
            ]
            weights = [
                cuda.malloc_managed(max(4, l.weight_bytes), f"w_{i}_{l.name}")
                for i, l in enumerate(net.layers)
            ]
            # Listing 6's single shared gradients buffer: rewritten by
            # every backward kernel, consumed by the update, discarded.
            gradients = cuda.malloc_managed(
                net.gradients_bytes(bs), "gradients"
            )
            ws_bytes = net.workspace_bytes(bs)
            workspace = (
                cuda.malloc_managed(ws_bytes, "workspace") if ws_bytes else None
            )
            extra = (
                cuda.malloc_managed(net.fixed_extra_bytes, "library_buffers")
                if net.fixed_extra_bytes
                else None
            )
            # Initialize the model on the host (excluded preprocessing).
            for w in weights:
                yield from cuda.host_write(w)
            cuda.session.update(
                {
                    "dl_data": data,
                    "dl_labels": labels,
                    "dl_outputs": outputs,
                    "dl_weights": weights,
                    "dl_gradients": gradients,
                    "dl_workspace": workspace,
                    "dl_extra": extra,
                }
            )

        return setup

    def body_program(self) -> Callable[[CudaRuntime], Generator]:
        """The measured training loop, resuming from a completed
        :meth:`setup_program` (possibly in a forked runtime)."""
        if self.system is System.NO_UVM:
            raise ConfigurationError("No-UVM has no split body program")
        net = self.network
        cfg = self.config
        policy = self.policy
        prefetch = True  # the "opt" in UVM-opt (§7.1)

        def body(cuda: CudaRuntime) -> Generator:
            bs = cfg.batch_size
            data = cuda.session["dl_data"]
            labels = cuda.session["dl_labels"]
            outputs = cuda.session["dl_outputs"]
            weights = cuda.session["dl_weights"]
            gradients = cuda.session["dl_gradients"]
            workspace = cuda.session["dl_workspace"]
            extra = cuda.session["dl_extra"]
            fits = cuda.driver.gpu_free_bytes(cuda.gpu.name) >= self.app_bytes
            # Discarding the workspace only pays when its frames are
            # worth reclaiming; when everything fits it is pure overhead.
            ws_mode = policy.mode_for(paired_with_prefetch=False) if not fits else None
            act_mode = policy.mode_for(paired_with_prefetch=prefetch)

            compute = cuda.create_stream("compute")
            transfer = cuda.create_stream("transfer")
            n = len(net.layers)

            def ws_access() -> List[BufferAccess]:
                if workspace is None:
                    return []
                return [BufferAccess(workspace, AccessMode.WRITE)]

            for batch in range(cfg.batches):
                if batch == cfg.warmup_batches:
                    yield from cuda.synchronize()
                    cuda.begin_measurement()
                # Load the next mini-batch (host writes the input buffers).
                yield from cuda.host_write(data)
                yield from cuda.host_write(labels)
                if prefetch:
                    cuda.prefetch_async(data, stream=transfer)
                    cuda.prefetch_async(labels, stream=transfer)

                # ---- forward ------------------------------------------
                kernels: List = [None, None]  # ring of the last two kernels
                for i, layer in enumerate(net.layers):
                    source = outputs[i - 1] if i > 0 else data
                    if prefetch:
                        if kernels[-2] is not None:
                            transfer.wait_for(kernels[-2])
                        gate = cuda.prefetch_async(outputs[i], stream=transfer)
                        compute.wait_for(gate)
                    fwd = KernelSpec(
                        f"fwd_{i}_{layer.name}",
                        [
                            BufferAccess(source, AccessMode.READ),
                            BufferAccess(weights[i], AccessMode.READ),
                            BufferAccess(outputs[i], AccessMode.WRITE),
                        ]
                        + ws_access(),
                        flops=layer.fwd_flops_per_sample * bs * net.flops_multiplier,
                        waves=_waves_for(outputs[i].nbytes),
                    )
                    kernels.append(cuda.launch(fwd, stream=compute))
                    if workspace is not None and ws_mode is not None:
                        cuda.discard_async(workspace, mode=ws_mode, stream=compute)

                # ---- backward + update (Listing 6) ---------------------
                gradients_discard = None
                for i in range(n - 1, -1, -1):
                    layer = net.layers[i]
                    source = outputs[i - 1] if i > 0 else data
                    incoming = outputs[i + 1] if i + 1 < n else labels
                    # The layer's delta occupies only its own-sized prefix
                    # of the shared gradients buffer (Darknet sizes the
                    # delta per layer).
                    grad_rng = gradients.subrange(
                        0, min(gradients.nbytes, net.output_bytes(layer, bs))
                    )
                    if prefetch:
                        if kernels[-2] is not None:
                            transfer.wait_for(kernels[-2])
                        gate = cuda.prefetch_async(outputs[i], stream=transfer)
                        compute.wait_for(gate)
                        if act_mode is None:
                            # No discard in flight: the gradients
                            # prefetch may overlap freely.
                            cuda.prefetch_async(
                                gradients, rng=grad_rng, stream=transfer
                            )
                        else:
                            # §4.2: the gradients prefetch must be
                            # ordered *after* the gradients discard — for
                            # UvmDiscardLazy it is the mandatory
                            # dirty-bit notification.  Enqueueing it on
                            # the compute stream gives that ordering for
                            # free (the discard precedes it there).
                            cuda.prefetch_async(
                                gradients, rng=grad_rng, stream=compute
                            )
                    bwd = KernelSpec(
                        f"bwd_{i}_{layer.name}",
                        [
                            BufferAccess(incoming, AccessMode.READ),
                            BufferAccess(outputs[i], AccessMode.READ),
                            BufferAccess(source, AccessMode.READ),
                            BufferAccess(weights[i], AccessMode.READ),
                            BufferAccess(gradients, AccessMode.WRITE, grad_rng),
                        ]
                        + ws_access(),
                        flops=layer.bwd_flops_per_sample * bs * net.flops_multiplier,
                        waves=_waves_for(outputs[i].nbytes * 2),
                    )
                    kernels.append(cuda.launch(bwd, stream=compute))
                    if workspace is not None and ws_mode is not None:
                        cuda.discard_async(workspace, mode=ws_mode, stream=compute)
                    update = KernelSpec(
                        f"update_{i}_{layer.name}",
                        [
                            BufferAccess(gradients, AccessMode.READ, grad_rng),
                            BufferAccess(weights[i], AccessMode.READWRITE),
                        ],
                        flops=2.0 * layer.weight_bytes,
                        waves=1,
                    )
                    cuda.launch(update, stream=compute)
                    if act_mode is not None:
                        # Listing 6: "outputi+1 now holds useless data"
                        # after backward_i, and "gradients now holds
                        # useless data" after the update.
                        if i + 1 < n:
                            cuda.discard_async(
                                outputs[i + 1], mode=act_mode, stream=compute
                            )
                        gradients_discard = cuda.discard_async(
                            gradients, rng=grad_rng, mode=act_mode, stream=compute
                        )
                if act_mode is not None:
                    cuda.discard_async(outputs[0], mode=act_mode, stream=compute)
                yield from cuda.synchronize()
            yield from cuda.synchronize()
            # Keep the linter honest about the library buffer's lifetime.
            assert extra is None or not extra.freed

        return body

    def _program_no_uvm(self) -> Callable[[CudaRuntime], Generator]:
        """Listing 4: explicit buffers; only works when everything fits."""
        net = self.network
        cfg = self.config

        def body(cuda: CudaRuntime) -> Generator:
            bs = cfg.batch_size
            fwd_ps, bwd_ps = net.flops_per_sample()
            # Allocate every buffer up front; OutOfMemoryError propagates
            # when the footprint exceeds device memory ("This will not
            # work if device buffers exceed GPU capacity").
            sizes = [
                net.input_bytes_per_sample * bs,
                net.label_bytes_per_sample * bs,
                net.gradients_bytes(bs),
            ]
            for layer in net.layers:
                sizes.append(net.output_bytes(layer, bs))
                sizes.append(max(4, layer.weight_bytes))
            ws = net.workspace_bytes(bs)
            if ws:
                sizes.append(ws)
            if net.fixed_extra_bytes:
                sizes.append(net.fixed_extra_bytes)
            device_buffers = []
            for index, nbytes in enumerate(sizes):
                buf = yield from cuda.malloc_device(nbytes, f"d_{index}")
                device_buffers.append(buf)
            # Upload the initial weights.
            weight_total = sum(max(4, l.weight_bytes) for l in net.layers)
            cuda.memcpy_async(weight_total, TransferDirection.HOST_TO_DEVICE)
            yield from cuda.synchronize()
            input_total = (
                net.input_bytes_per_sample + net.label_bytes_per_sample
            ) * bs
            for batch in range(cfg.batches):
                if batch == cfg.warmup_batches:
                    yield from cuda.synchronize()
                    cuda.begin_measurement()
                cuda.memcpy_async(input_total, TransferDirection.HOST_TO_DEVICE)
                for i, layer in enumerate(net.layers):
                    cuda.launch_raw(
                        f"fwd_{i}",
                        layer.fwd_flops_per_sample
                        * bs
                        * net.flops_multiplier
                        / cuda.gpu.effective_flops,
                    )
                for i in range(len(net.layers) - 1, -1, -1):
                    layer = net.layers[i]
                    cuda.launch_raw(
                        f"bwd_{i}",
                        layer.bwd_flops_per_sample
                        * bs
                        * net.flops_multiplier
                        / cuda.gpu.effective_flops,
                    )
                    cuda.launch_raw(
                        f"update_{i}",
                        2.0 * layer.weight_bytes / cuda.gpu.effective_flops,
                    )
                yield from cuda.synchronize()
            # Transfer the trained weights back (Listing 4's final step).
            cuda.memcpy_async(weight_total, TransferDirection.DEVICE_TO_HOST)
            yield from cuda.synchronize()

        return body

    # ------------------------------------------------------------------
    # one-call experiment
    # ------------------------------------------------------------------

    def run(
        self,
        gpu: GpuSpec,
        link: Link,
        config_label: Optional[str] = None,
        driver_config: Optional[UvmDriverConfig] = None,
    ) -> ExperimentResult:
        """Train and snapshot a result row; metric is images/second."""
        label = config_label or f"bs={self.config.batch_size}"
        return run_uvm_experiment(
            self.program(),
            self.system.value,
            label,
            self.app_bytes,
            ratio=1.0,  # DL oversubscribes via batch size, not an occupant
            gpu=gpu,
            link=link,
            driver_config=driver_config,
            metric=self.images_per_second,
        )
