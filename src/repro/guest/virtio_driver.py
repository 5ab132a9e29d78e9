"""Guest-side virtio drivers staging DMA through SWIOTLB.

These drivers perform the guest half of every virtio transaction: stage
the payload into a bounce slot (one copy), build a descriptor naming the
bounce GPA, kick the device's doorbell (an MMIO store -- which is exactly
the VM exit the paper's I/O overhead comes from), then field the
completion interrupt and copy results back out of the bounce slot.

Batching (docs/DATA_PLANE.md): the ``*_many`` entry points stage N
descriptors, cross the SWIOTLB once per direction for the whole batch,
and ring the doorbell once -- one MMIO exit and one completion wait
amortised over N requests, which is where the batched data plane's exit
reduction comes from.  Every completion's status byte is checked: a
request the device refused surfaces as a typed
:class:`~repro.errors.VirtioIoError` after the bounce slots are released,
never as a silent success or a leaked mapping.
"""

from __future__ import annotations

import weakref

from repro.cycles import Category
from repro.errors import VirtioError, VirtioIoError
from repro.hyp.virtio import STATUS_OK, Descriptor, Virtqueue, payload_len

#: Bound once: a lookup through an enum class runs its metaclass's
#: attribute hook.
_GUEST_KERNEL = Category.GUEST_KERNEL


class _DriverBase:
    def __init__(self, ctx, device, swiotlb):
        #: A proxy: the guest context caches its driver, and a strong
        #: reference back would be a cycle that outlives a dropped machine.
        self.ctx = weakref.proxy(ctx)
        self.device = device
        self.swiotlb = swiotlb

    def _charge_driver_fixed(self) -> None:
        self.ctx.ledger.charge(
            _GUEST_KERNEL, self.ctx.costs.virtio_driver_fixed
        )

    def _kick(self, queue_index: int) -> None:
        self.ctx.mmio_write(
            self.device.mmio_base + self.device.QUEUE_NOTIFY, queue_index
        )
        # Completion raised an interrupt; the guest kernel services it.
        self.ctx.deliver_pending_irqs()

    @staticmethod
    def _completion(queue: Virtqueue, what: str) -> Descriptor:
        """Pop one completion; typed errors for missing or refused ones."""
        done = queue.pop_used()
        if done is None:
            raise VirtioError(f"{what} did not complete")
        if done.status != STATUS_OK:
            raise VirtioIoError(
                f"{what} failed with device status {done.status}",
                status=done.status,
            )
        return done


class VirtioBlkDriver(_DriverBase):
    """Block I/O through virtio-blk.

    Block requests are *blocking*: after the doorbell kick the caller
    sleeps until the completion interrupt (``blocking=True``, the
    default), which costs a second VM exit per request -- the "frequent
    I/O exits" the paper's IOZone discussion attributes the confidential
    VM's large-file overhead to.  :meth:`write_many`/:meth:`read_many`
    amortise both exits across a whole batch.
    """

    def __init__(self, ctx, device, swiotlb, queue: Virtqueue, blocking: bool = True):
        super().__init__(ctx, device, swiotlb)
        self.queue = queue
        self.blocking = blocking
        device.attach_queue(0, queue)

    def _wait_completion(self) -> None:
        # The simulation's device completes during the kick exit itself,
        # but the real guest cannot know that: it blocks on the request
        # and is woken by the completion interrupt -- one more VM exit.
        if self.blocking:
            self.ctx.wfi()
            self.ctx.deliver_pending_irqs()

    def write(self, sector: int, payload) -> None:
        """Write ``payload`` (bytes or symbolic length) at ``sector``."""
        length = payload_len(payload)
        self._charge_driver_fixed()
        bounce_gpa = self.swiotlb.map_single(length)
        self.ctx.touch_range(bounce_gpa, length)  # the copy touches each page
        self.swiotlb.bounce(length)  # private -> bounce copy
        self.queue.post(
            Descriptor(
                gpa=bounce_gpa,
                length=length,
                payload=payload,
                header={"type": "write", "sector": sector},
            )
        )
        self._kick(0)
        self._wait_completion()
        try:
            self._completion(self.queue, "virtio-blk write")
        finally:
            self.swiotlb.unmap_single(bounce_gpa)

    def read(self, sector: int, length: int):
        """Read ``length`` bytes at ``sector``; returns the payload."""
        self._charge_driver_fixed()
        bounce_gpa = self.swiotlb.map_single(length)
        self.ctx.touch_range(bounce_gpa, length)  # driver maps before DMA
        self.queue.post(
            Descriptor(
                gpa=bounce_gpa,
                length=length,
                device_writes=True,
                header={"type": "read", "sector": sector},
            )
        )
        self._kick(0)
        self._wait_completion()
        try:
            done = self._completion(self.queue, "virtio-blk read")
            self.swiotlb.bounce(length)  # bounce -> private copy
            return done.payload
        finally:
            self.swiotlb.unmap_single(bounce_gpa)

    # -- batched block I/O -------------------------------------------------

    def write_many(self, requests) -> None:
        """Write a batch of ``(sector, payload)`` with one kick/wait.

        Stages every descriptor, crosses the SWIOTLB once for the whole
        batch, rings the doorbell once, then checks every completion
        status.  Refused requests surface as one
        :class:`~repro.errors.VirtioIoError` after all bounce slots are
        released (the successful requests in the batch stay written).
        """
        requests = list(requests)
        if not requests:
            return
        lengths = [payload_len(payload) for _sector, payload in requests]
        gpas = self.swiotlb.map_many(lengths)
        failed: list[Descriptor] = []
        try:
            for (sector, payload), gpa, length in zip(requests, gpas, lengths):
                self._charge_driver_fixed()
                self.ctx.touch_range(gpa, length)
                self.queue.post(
                    Descriptor(
                        gpa=gpa,
                        length=length,
                        payload=payload,
                        header={"type": "write", "sector": sector},
                    )
                )
            self.swiotlb.bounce_many(lengths)  # private -> bounce, one pass
            self._kick(0)
            self._wait_completion()
            for _ in requests:
                done = self.queue.pop_used()
                if done is None:
                    raise VirtioError("virtio-blk batch write did not complete")
                if done.status != STATUS_OK:
                    failed.append(done)
        finally:
            self.swiotlb.unmap_many(gpas)
        if failed:
            raise VirtioIoError(
                f"virtio-blk batch write: {len(failed)} of {len(requests)} "
                f"requests refused (first status {failed[0].status})",
                status=failed[0].status,
            )

    def read_many(self, requests) -> list:
        """Read a batch of ``(sector, length)`` with one kick/wait.

        Returns the payloads in request order.  Any refused request
        raises :class:`~repro.errors.VirtioIoError` (after releasing the
        batch's bounce slots); the bounce-back copy is charged only for
        a fully successful batch.
        """
        requests = list(requests)
        if not requests:
            return []
        lengths = [length for _sector, length in requests]
        gpas = self.swiotlb.map_many(lengths)
        failed: list[Descriptor] = []
        payloads: list = []
        try:
            for (sector, length), gpa in zip(requests, gpas):
                self._charge_driver_fixed()
                self.ctx.touch_range(gpa, length)
                self.queue.post(
                    Descriptor(
                        gpa=gpa,
                        length=length,
                        device_writes=True,
                        header={"type": "read", "sector": sector},
                    )
                )
            self._kick(0)
            self._wait_completion()
            for _ in requests:
                done = self.queue.pop_used()
                if done is None:
                    raise VirtioError("virtio-blk batch read did not complete")
                if done.status != STATUS_OK:
                    failed.append(done)
                payloads.append(done.payload)
            if not failed:
                self.swiotlb.bounce_many(lengths)  # bounce -> private copies
        finally:
            self.swiotlb.unmap_many(gpas)
        if failed:
            raise VirtioIoError(
                f"virtio-blk batch read: {len(failed)} of {len(requests)} "
                f"requests refused (first status {failed[0].status})",
                status=failed[0].status,
            )
        return payloads


class VirtioRngDriver(_DriverBase):
    """Guest entropy driver with defensive mixing.

    virtio-rng entropy comes from the untrusted host, so for a
    confidential VM the driver never uses it directly: each read is mixed
    (SHA-256) with SM-attested platform randomness.  A malicious host can
    thus bias nothing -- at worst it contributes zero entropy.
    """

    def __init__(self, ctx, device, swiotlb, queue: Virtqueue):
        super().__init__(ctx, device, swiotlb)
        self.queue = queue
        device.attach_queue(0, queue)

    def read(self, count: int) -> bytes:
        """``count`` mixed-entropy bytes (one device round trip)."""
        import hashlib

        self._charge_driver_fixed()
        bounce_gpa = self.swiotlb.map_single(count)
        self.ctx.touch_range(bounce_gpa, count)
        self.queue.post(
            Descriptor(gpa=bounce_gpa, length=count, device_writes=True)
        )
        self._kick(0)
        try:
            done = self._completion(self.queue, "virtio-rng request")
            self.swiotlb.bounce(count)
        finally:
            self.swiotlb.unmap_single(bounce_gpa)
        host_entropy = bytes(done.payload)
        sm_entropy = self.ctx.get_random(min(count, 64))
        out = b""
        block = 0
        while len(out) < count:
            out += hashlib.sha256(
                host_entropy + sm_entropy + block.to_bytes(4, "little")
            ).digest()
            block += 1
        return out[:count]


class VirtioNetDriver(_DriverBase):
    """Network I/O through virtio-net (TX ring + pre-posted RX ring)."""

    RX_BUFFER_SIZE = 2048

    def __init__(self, ctx, device, swiotlb, tx_queue: Virtqueue, rx_queue: Virtqueue):
        super().__init__(ctx, device, swiotlb)
        self.tx_queue = tx_queue
        self.rx_queue = rx_queue
        device.attach_queue(device.TX_QUEUE, tx_queue)
        device.attach_queue(device.RX_QUEUE, rx_queue)

    def post_rx_buffers(self, count: int) -> None:
        """Pre-post RX bounce buffers for the device to fill."""
        for _ in range(count):
            gpa = self.swiotlb.map_single(self.RX_BUFFER_SIZE)
            self.ctx.touch_range(gpa, self.RX_BUFFER_SIZE)
            self.rx_queue.post(
                Descriptor(gpa=gpa, length=self.RX_BUFFER_SIZE, device_writes=True)
            )

    def send(self, frame, header: dict | None = None) -> None:
        """Transmit a frame (kicks the device; one VM exit)."""
        length = payload_len(frame)
        self._charge_driver_fixed()
        bounce_gpa = self.swiotlb.map_single(length)
        self.ctx.touch_range(bounce_gpa, length)
        self.swiotlb.bounce(length)
        self.tx_queue.post(
            Descriptor(gpa=bounce_gpa, length=length, payload=frame, header=header or {})
        )
        self._kick(self.device.TX_QUEUE)
        try:
            self._completion(self.tx_queue, "virtio-net TX")
        finally:
            self.swiotlb.unmap_single(bounce_gpa)

    def send_many(self, frames, header: dict | None = None) -> None:
        """Transmit several frames with a single doorbell kick.

        The batching a pipelined protocol gets from TCP: descriptor setup
        per frame, but one exit for the whole batch.
        """
        frames = list(frames)
        if not frames:
            return
        lengths = [payload_len(frame) for frame in frames]
        gpas = self.swiotlb.map_many(lengths)
        failed: list[Descriptor] = []
        try:
            for frame, gpa, length in zip(frames, gpas, lengths):
                self._charge_driver_fixed()
                self.ctx.touch_range(gpa, length)
                self.tx_queue.post(
                    Descriptor(gpa=gpa, length=length, payload=frame, header=header or {})
                )
            self.swiotlb.bounce_many(lengths)
            self._kick(self.device.TX_QUEUE)
            for _ in frames:
                done = self.tx_queue.pop_used()
                if done is None:
                    raise VirtioError("virtio-net TX batch did not complete")
                if done.status != STATUS_OK:
                    failed.append(done)
        finally:
            self.swiotlb.unmap_many(gpas)
        if failed:
            raise VirtioIoError(
                f"virtio-net TX batch: {len(failed)} of {len(frames)} frames "
                f"refused (first status {failed[0].status})",
                status=failed[0].status,
            )

    def recv(self):
        """Pop one received frame, or ``None`` when the ring is empty.

        Re-posts the consumed buffer so the ring never starves.
        """
        done = self.rx_queue.pop_used()
        if done is None:
            return None
        self._charge_driver_fixed()
        frame = done.payload
        self.ctx.touch_range(done.gpa, payload_len(frame))
        self.swiotlb.bounce(payload_len(frame))  # bounce -> private copy
        self.rx_queue.post(
            Descriptor(gpa=done.gpa, length=done.length, device_writes=True)
        )
        return frame

    def recv_many(self, limit: int | None = None) -> list:
        """Drain completed RX frames; batch the bounce-back and re-post.

        Charges exactly what ``limit``-many :meth:`recv` calls would
        (per-frame driver cost, one summed bounce charge), but re-posts
        the consumed buffers as a batch -- the receive half of the
        batched data plane.
        """
        consumed: list[Descriptor] = []
        while limit is None or len(consumed) < limit:
            done = self.rx_queue.pop_used()
            if done is None:
                break
            self._charge_driver_fixed()
            consumed.append(done)
        if not consumed:
            return []
        frames = [done.payload for done in consumed]
        lengths = [payload_len(frame) for frame in frames]
        for done, length in zip(consumed, lengths):
            self.ctx.touch_range(done.gpa, length)
        self.swiotlb.bounce_many(lengths)  # bounce -> private copies
        for done in consumed:
            self.rx_queue.post(
                Descriptor(gpa=done.gpa, length=done.length, device_writes=True)
            )
        return frames
