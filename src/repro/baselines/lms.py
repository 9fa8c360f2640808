"""PyTorch Large-Model-Support baseline (Table 1).

Models IBM's PyTorch-LMS [11]: train with explicit device buffers,
keeping only a sliding window of activations on the GPU — each layer's
stored output is swapped out to host memory after the next layer consumed
it, and swapped back in for its backward pass.  A caching allocator
avoids per-layer `cudaMalloc`/`cudaFree` costs (§6).

Because the swap schedule is static, LMS moves *every* activation out and
back every batch regardless of whether memory is actually short — which
is why Table 1 shows ~112-150 GB of PCIe traffic at every batch size,
versus UVM's 2 GB when the model fits.  Its virtue is bounded residency:
it never crashes, at any batch size.

Exploiting application knowledge, the manual schedule already avoids some
RMTs (Listing 5's comments: no swap-in of buffers about to be
overwritten, no swap-out of unchanged weights), so its transfers are
"useful" — just vastly more of them than fault-driven UVM needs.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator

from repro.baselines.caching_allocator import CachingAllocator
from repro.cuda.memory import DeviceBuffer
from repro.cuda.runtime import CudaRuntime
from repro.instrument.traffic import TransferDirection, TransferReason
from repro.workloads.dl.trainer import Trainer


class LmsTrainer(Trainer):
    """Trains one network with manual LMS-style swapping."""

    #: Row label used in Table 1.
    system_name = "PyTorch-LMS"

    def body_program(self) -> Callable[[CudaRuntime], Generator]:
        net = self.network
        cfg = self.config

        def body(cuda: CudaRuntime) -> Generator:
            bs = cfg.batch_size
            allocator = CachingAllocator(cuda)
            fwd_of = [l.fwd_flops_per_sample * bs * net.flops_multiplier
                      for l in net.layers]
            bwd_of = [l.bwd_flops_per_sample * bs * net.flops_multiplier
                      for l in net.layers]
            out_bytes = [net.output_bytes(l, bs) for l in net.layers]
            weight_total = sum(max(4, l.weight_bytes) for l in net.layers)
            input_total = (
                net.input_bytes_per_sample + net.label_bytes_per_sample
            ) * bs
            grad_bytes = net.gradients_bytes(bs)

            # Persistent device state: weights and the gradients buffer.
            weights = yield from cuda.malloc_device(weight_total, "d_weights")
            grads = yield from allocator.alloc(grad_bytes, "d_gradients")
            cuda.memcpy_async(
                weight_total, TransferDirection.HOST_TO_DEVICE,
                reason=TransferReason.SWAP,
            )
            yield from cuda.synchronize()

            resident: Dict[int, DeviceBuffer] = {}

            def swap_out(index: int) -> Generator:
                """d2h the stored output and recycle its device buffer."""
                buffer = resident.pop(index)
                cuda.memcpy_async(
                    out_bytes[index],
                    TransferDirection.DEVICE_TO_HOST,
                    reason=TransferReason.SWAP,
                )
                yield from cuda.synchronize()
                allocator.free(buffer)

            def ensure_resident(index: int, swap_in: bool) -> Generator:
                """Allocate (and optionally h2d) a stored output."""
                if index in resident:
                    return
                buffer = yield from allocator.alloc(
                    out_bytes[index], f"d_out_{index}"
                )
                resident[index] = buffer
                if swap_in:
                    # Listing 5: "No need to swap in d_outputi which will
                    # be overwritten" — swap_in=False on the write path.
                    cuda.memcpy_async(
                        out_bytes[index],
                        TransferDirection.HOST_TO_DEVICE,
                        reason=TransferReason.SWAP,
                    )
                    yield from cuda.synchronize()

            n = len(net.layers)
            for batch in range(cfg.batches):
                if batch == cfg.warmup_batches:
                    yield from cuda.synchronize()
                    cuda.begin_measurement()
                cuda.memcpy_async(
                    input_total, TransferDirection.HOST_TO_DEVICE,
                    reason=TransferReason.SWAP,
                )
                # ---- forward: keep a two-layer window resident --------
                for i in range(n):
                    yield from ensure_resident(i, swap_in=False)
                    cuda.launch_raw(
                        f"lms_fwd_{i}", fwd_of[i] / cuda.gpu.effective_flops
                    )
                    yield from cuda.synchronize()
                    if i >= 1:
                        # output i-1 was just consumed by fwd_i; it will
                        # be needed again in backward, so swap it out.
                        yield from swap_out(i - 1)
                # ---- backward: swap each window back in ----------------
                for i in range(n - 1, -1, -1):
                    yield from ensure_resident(i, swap_in=True)
                    if i > 0:
                        yield from ensure_resident(i - 1, swap_in=True)
                    cuda.launch_raw(
                        f"lms_bwd_{i}", bwd_of[i] / cuda.gpu.effective_flops
                    )
                    cuda.launch_raw(
                        f"lms_update_{i}",
                        2.0 * net.layers[i].weight_bytes
                        / cuda.gpu.effective_flops,
                    )
                    yield from cuda.synchronize()
                    # output i is dead after its backward; free without a
                    # transfer (the manual schedule knows it is dead).
                    allocator.free(resident.pop(i))
            # Trained weights back to the host.
            cuda.memcpy_async(
                weight_total, TransferDirection.DEVICE_TO_HOST,
                reason=TransferReason.SWAP,
            )
            yield from cuda.synchronize()
            allocator.free(grads)
            for index in list(resident):
                allocator.free(resident.pop(index))
            yield from allocator.release_all()
            yield from cuda.free_device(weights)

        return body
