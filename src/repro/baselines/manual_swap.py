"""Listing 5: manual oversubscription without a caching allocator.

The "more realistic application that supports datasets larger than the
GPU memory capacity": every layer allocates its device buffers with
`cudaMalloc`, transfers what it needs, computes, transfers results back
and frees everything — paying Table 2's API costs on every single layer
of every batch.  This is the baseline that motivates both PyTorch's
caching allocator and, ultimately, the UVM + discard approach; the
Table 2 benchmark quantifies its per-call costs and the ablation bench
compares it against :class:`~repro.baselines.lms.LmsTrainer` to show
what caching buys.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.cuda.runtime import CudaRuntime
from repro.instrument.traffic import TransferDirection, TransferReason
from repro.workloads.dl.trainer import Trainer


class ManualSwapTrainer(Trainer):
    """Trains one network with Listing 5's allocate/copy/free pattern."""

    #: Row label for ablation tables.
    system_name = "Manual-swap"

    def body_program(self) -> Callable[[CudaRuntime], Generator]:
        net = self.network
        cfg = self.config

        def body(cuda: CudaRuntime) -> Generator:
            bs = cfg.batch_size
            out_bytes = [net.output_bytes(l, bs) for l in net.layers]
            w_bytes = [max(4, l.weight_bytes) for l in net.layers]
            input_total = (
                net.input_bytes_per_sample + net.label_bytes_per_sample
            ) * bs
            grad_bytes = net.gradients_bytes(bs)
            n = len(net.layers)

            def h2d(nbytes: int) -> None:
                cuda.memcpy_async(
                    nbytes, TransferDirection.HOST_TO_DEVICE,
                    reason=TransferReason.SWAP,
                )

            def d2h(nbytes: int) -> None:
                cuda.memcpy_async(
                    nbytes, TransferDirection.DEVICE_TO_HOST,
                    reason=TransferReason.SWAP,
                )

            for batch in range(cfg.batches):
                if batch == cfg.warmup_batches:
                    yield from cuda.synchronize()
                    cuda.begin_measurement()
                d_data = yield from cuda.malloc_device(input_total, "d_data")
                h2d(input_total)
                previous = None
                for i, layer in enumerate(net.layers):
                    d_out = yield from cuda.malloc_device(out_bytes[i], f"d_o{i}")
                    d_w = yield from cuda.malloc_device(w_bytes[i], f"d_w{i}")
                    h2d(w_bytes[i])  # weights live on the host between uses
                    cuda.launch_raw(
                        f"ms_fwd_{i}",
                        layer.fwd_flops_per_sample
                        * bs
                        * net.flops_multiplier
                        / cuda.gpu.effective_flops,
                    )
                    yield from cuda.synchronize()
                    d2h(out_bytes[i])  # save the activation for backward
                    # "No need to swap out d_weighti which was not changed"
                    yield from cuda.free_device(d_w)
                    if previous is not None:
                        yield from cuda.free_device(previous)
                    previous = d_out
                if previous is not None:
                    yield from cuda.free_device(previous)
                for i in range(n - 1, -1, -1):
                    layer = net.layers[i]
                    d_out = yield from cuda.malloc_device(out_bytes[i], f"b_o{i}")
                    d_prev = (
                        (yield from cuda.malloc_device(out_bytes[i - 1], f"b_p{i}"))
                        if i > 0
                        else None
                    )
                    d_w = yield from cuda.malloc_device(w_bytes[i], f"b_w{i}")
                    d_g = yield from cuda.malloc_device(grad_bytes, f"b_g{i}")
                    h2d(out_bytes[i])
                    if i > 0:
                        h2d(out_bytes[i - 1])
                    h2d(w_bytes[i])
                    # "No need to swap in d_gradi which will be overwritten"
                    cuda.launch_raw(
                        f"ms_bwd_{i}",
                        layer.bwd_flops_per_sample
                        * bs
                        * net.flops_multiplier
                        / cuda.gpu.effective_flops,
                    )
                    cuda.launch_raw(
                        f"ms_update_{i}",
                        2.0 * layer.weight_bytes / cuda.gpu.effective_flops,
                    )
                    yield from cuda.synchronize()
                    d2h(w_bytes[i])  # updated weights back to the host
                    yield from cuda.free_device(d_g)
                    yield from cuda.free_device(d_w)
                    if d_prev is not None:
                        yield from cuda.free_device(d_prev)
                    yield from cuda.free_device(d_out)
                yield from cuda.free_device(d_data)
            yield from cuda.synchronize()

        return body
