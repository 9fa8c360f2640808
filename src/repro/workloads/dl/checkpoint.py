"""Gradient checkpointing under UVM (related work [41]).

The paper's §8 notes an alternative to discarding dead activations:
"recompute intermediate results to save memory consumption, but it does
not ultimately avoid RMTs".  This trainer implements that alternative so
the two can be compared head-to-head:

- **Forward** stores outputs only at every ``segment``-th layer (the
  checkpoints); the others are discarded as soon as the next layer has
  consumed them.
- **Backward** walks segments in reverse: it first *recomputes* the
  segment's forward pass from its checkpoint (paying the forward FLOPs a
  second time), then runs the usual backward + update + discard chain.

Compared with :class:`~repro.workloads.dl.trainer.DarknetTrainer` +
discard, checkpointing shrinks the live activation footprint by roughly
the segment factor — so it moves *less* data when memory is very tight —
but pays ~one extra forward pass of compute, and the data it does keep
(checkpoints, weights, inputs) still incurs exactly the RMTs the discard
directive exists to remove.  The comparison benchmark quantifies the
trade.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.access import AccessMode
from repro.cuda.kernel import BufferAccess, KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.errors import ConfigurationError
from repro.workloads.dl.networks import NetworkSpec
from repro.workloads.dl.trainer import Trainer, TrainerConfig, _waves_for


class CheckpointTrainer(Trainer):
    """Trains with activation recomputation every ``segment`` layers."""

    #: Row label for comparison tables.
    system_name = "Checkpoint"

    def __init__(
        self,
        network: NetworkSpec,
        config: TrainerConfig,
        segment: int = 4,
        discard_mode: str = "eager",
    ) -> None:
        if segment < 2:
            raise ConfigurationError("segment must be >= 2 (1 disables "
                                     "checkpointing; use DarknetTrainer)")
        super().__init__(network, config)
        self.segment = segment
        self.discard_mode = discard_mode

    @property
    def app_bytes(self) -> int:
        """Peak managed footprint: checkpoints + one live segment."""
        net = self.network
        bs = self.config.batch_size
        outputs = [net.output_bytes(l, bs) for l in net.layers]
        checkpoints = sum(
            size for i, size in enumerate(outputs) if i % self.segment == 0
        )
        largest_segment = max(
            sum(outputs[i : i + self.segment])
            for i in range(0, len(outputs), self.segment)
        )
        return (
            net.fixed_bytes
            + checkpoints
            + largest_segment
            + net.gradients_bytes(bs)
            + net.workspace_bytes(bs)
            + (net.input_bytes_per_sample + net.label_bytes_per_sample) * bs
        )

    def body_program(self) -> Callable[[CudaRuntime], Generator]:
        net = self.network
        cfg = self.config
        segment = self.segment
        mode = self.discard_mode

        def body(cuda: CudaRuntime) -> Generator:
            bs = cfg.batch_size
            data = cuda.malloc_managed(net.input_bytes_per_sample * bs, "data")
            labels = cuda.malloc_managed(net.label_bytes_per_sample * bs, "labels")
            outputs = [
                cuda.malloc_managed(net.output_bytes(l, bs), f"out_{i}")
                for i, l in enumerate(net.layers)
            ]
            weights = [
                cuda.malloc_managed(max(4, l.weight_bytes), f"w_{i}")
                for i, l in enumerate(net.layers)
            ]
            gradients = cuda.malloc_managed(net.gradients_bytes(bs), "gradients")
            for w in weights:
                yield from cuda.host_write(w)
            n = len(net.layers)

            def fwd_kernel(i):
                layer = net.layers[i]
                source = outputs[i - 1] if i > 0 else data
                return KernelSpec(
                    f"fwd_{i}",
                    [
                        BufferAccess(source, AccessMode.READ),
                        BufferAccess(weights[i], AccessMode.READ),
                        BufferAccess(outputs[i], AccessMode.WRITE),
                    ],
                    flops=layer.fwd_flops_per_sample * bs * net.flops_multiplier,
                    waves=_waves_for(outputs[i].nbytes),
                )

            for batch in range(cfg.batches):
                if batch == cfg.warmup_batches:
                    yield from cuda.synchronize()
                    cuda.begin_measurement()
                yield from cuda.host_write(data)
                yield from cuda.host_write(labels)

                # ---- forward, discarding non-checkpoint activations ----
                for i in range(n):
                    cuda.prefetch_async(outputs[i])
                    cuda.launch(fwd_kernel(i))
                    previous = i - 1
                    if previous >= 0 and previous % segment != 0:
                        # outputs[previous] was consumed by fwd_i and is
                        # recomputable: drop it now.
                        cuda.discard_async(outputs[previous], mode=mode)
                if (n - 1) % segment != 0:
                    pass  # the last output feeds the first backward step

                # ---- backward by segments ------------------------------
                for start in range(((n - 1) // segment) * segment, -1, -segment):
                    end = min(start + segment, n)
                    # Recompute the segment's interior from its checkpoint
                    # (the checkpoint itself and anything still live are
                    # prefetched/revived; the rest was reclaimed).
                    for i in range(start + 1, end):
                        cuda.prefetch_async(outputs[i])
                        cuda.launch(fwd_kernel(i))
                    for i in range(end - 1, start - 1, -1):
                        layer = net.layers[i]
                        source = outputs[i - 1] if i > 0 else data
                        incoming = outputs[i + 1] if i + 1 < n else labels
                        cuda.prefetch_async(gradients)
                        cuda.launch(
                            KernelSpec(
                                f"bwd_{i}",
                                [
                                    BufferAccess(incoming, AccessMode.READ),
                                    BufferAccess(outputs[i], AccessMode.READ),
                                    BufferAccess(source, AccessMode.READ),
                                    BufferAccess(weights[i], AccessMode.READ),
                                    BufferAccess(gradients, AccessMode.WRITE),
                                ],
                                flops=layer.bwd_flops_per_sample
                                * bs
                                * net.flops_multiplier,
                                waves=_waves_for(outputs[i].nbytes * 2),
                            )
                        )
                        cuda.launch(
                            KernelSpec(
                                f"update_{i}",
                                [
                                    BufferAccess(gradients, AccessMode.READ),
                                    BufferAccess(weights[i], AccessMode.READWRITE),
                                ],
                                flops=2.0 * layer.weight_bytes,
                                waves=1,
                            )
                        )
                        # Everything consumed above this layer is dead.
                        if i + 1 < n:
                            cuda.discard_async(outputs[i + 1], mode=mode)
                        cuda.discard_async(gradients, mode=mode)
                    yield from cuda.synchronize()
                if n > 0:
                    cuda.discard_async(outputs[0], mode=mode)
                yield from cuda.synchronize()
            yield from cuda.synchronize()

        return body
