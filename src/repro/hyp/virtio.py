"""Virtio devices with real virtqueues and IOPMP-checked DMA.

The guest driver posts descriptors naming guest-physical buffers; the
device models here pop them, translate GPA to HPA through a
hypervisor-supplied translation function (the shared-region subtree for
confidential VMs, the ordinary stage-2 table for normal VMs), and move
data through the bus's DMA path, where the IOPMP checks every transaction.
A descriptor that resolves into the secure pool therefore faults exactly
the way the paper's DMA-attack defence (IV-C) says it must.

Payloads are either real ``bytes`` (tests, small I/O such as Redis
protocol frames) or a plain ``int`` byte-length (the accounting-only fast
path used by the large IOZone sweeps): both take the same control path
and charge the same cycles; only the Python-level byte shuffling differs.

Batching model (docs/DATA_PLANE.md): one ``QUEUE_NOTIFY`` kick drains the
*whole* available ring, used entries are posted as a batch, and with
``event_idx`` (the EVENT_IDX-style suppression flag, on by default) the
device raises one completion interrupt per drain instead of one per
descriptor.  Error containment: a guest-posted descriptor the device
cannot serve is *completed* with a non-OK :attr:`Descriptor.status` --
guest-controlled garbage never unwinds an exception through the device
model into the host loop (only architectural DMA faults, ``TrapRaised``,
propagate: they model the IOPMP stopping a DMA attack).
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.cycles import Category
from repro.errors import VirtioDmaError, VirtioIoError, VirtqueueOverflow
from repro.hyp.devices import MmioDevice

#: Bound once: a lookup through an enum class runs its metaclass's
#: attribute hook.
_DEVICE, _COPY = Category.DEVICE, Category.COPY

#: virtio-blk-style request status byte (VIRTIO_BLK_S_*): OK, device-side
#: I/O error, request the device does not support / cannot parse.
STATUS_OK = 0
STATUS_IOERR = 1
STATUS_UNSUPP = 2


def payload_len(payload) -> int:
    """Byte length of a real or symbolic payload."""
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, int) and not isinstance(payload, bool) and payload >= 0:
        return payload
    raise TypeError(f"payload must be bytes or a non-negative length: {payload!r}")


@dataclasses.dataclass
class Descriptor:
    """One virtqueue descriptor: a guest-physical buffer."""

    gpa: int
    length: int
    device_writes: bool = False
    #: Driver-attached payload for device-readable buffers (real bytes or
    #: symbolic length); filled by the device for device-writable ones.
    payload: object = None
    #: Opaque request header the driver attaches (request type, sector...).
    header: dict | None = None
    #: Completion status written by the device (STATUS_*); the driver must
    #: check it -- a refused request is *completed* with a non-OK status,
    #: never turned into a device-side exception.
    status: int = STATUS_OK


class Virtqueue:
    """A split-virtqueue modelled at descriptor granularity.

    ``ring_gpa`` records where the ring itself lives in guest-physical
    space; for confidential VMs the driver places it in the shared region,
    and the SM-side checks rely on that placement.
    """

    def __init__(self, ring_gpa: int, size: int = 256):
        self.ring_gpa = ring_gpa
        self.size = size
        self.available: deque[Descriptor] = deque()
        self.used: deque[Descriptor] = deque()

    def post(self, descriptor: Descriptor) -> None:
        """Driver side: make a descriptor available to the device."""
        if len(self.available) >= self.size:
            raise VirtqueueOverflow(
                f"virtqueue overflow: ring of {self.size} is full"
            )
        self.available.append(descriptor)

    def pop_used(self) -> Descriptor | None:
        """Driver side: take one completed descriptor, or ``None``."""
        if not self.used:
            return None
        return self.used.popleft()


class VirtioDevice(MmioDevice):
    """Common virtio-MMIO transport behaviour."""

    QUEUE_NOTIFY = 0x50
    INTERRUPT_STATUS = 0x60
    INTERRUPT_ACK = 0x64
    STATUS = 0x70

    def __init__(self, name: str, mmio_base: int, source_id: int, bus, ledger,
                 costs, event_idx: bool = True):
        super().__init__(name, mmio_base)
        self.source_id = source_id
        self.bus = bus
        self.ledger = ledger
        self.costs = costs
        self.queues: dict[int, Virtqueue] = {}
        #: GPA -> HPA translation, installed by the hypervisor per VM.
        self.dma_translate = None
        #: Called with the VS interrupt bit to inject on completion.
        self.irq_sink = None
        self.interrupt_status = 0
        self.status = 0
        #: EVENT_IDX-style interrupt suppression: one ``irq_sink`` call per
        #: drain instead of one per completed descriptor.  Off = the naive
        #: pre-batching behaviour (the ablation baseline).
        self.event_idx = event_idx
        #: QUEUE_NOTIFY doorbell writes (each one is a full MMIO exit).
        self.kicks = 0
        #: Non-empty drains (batches of completions posted together).
        self.drains = 0
        #: Descriptors completed (whatever their status).
        self.completions = 0
        #: ``irq_sink`` invocations (the interrupt-suppression statistic).
        self.irqs_raised = 0
        #: Requests completed with a non-OK status byte.
        self.io_errors = 0

    def attach_queue(self, index: int, queue: Virtqueue) -> None:
        """Bind a virtqueue to a queue index."""
        self.queues[index] = queue

    def mmio_load(self, offset: int, size: int) -> int:
        """virtio-MMIO register read (interrupt status, device status)."""
        if offset == self.INTERRUPT_STATUS:
            return self.interrupt_status
        if offset == self.STATUS:
            return self.status
        return 0

    def mmio_store(self, offset: int, value: int, size: int) -> None:
        """virtio-MMIO register write; QUEUE_NOTIFY triggers processing."""
        if offset == self.QUEUE_NOTIFY:
            self.kicks += 1
            self.process_queue(value)
        elif offset == self.INTERRUPT_ACK:
            self.interrupt_status &= ~value
        elif offset == self.STATUS:
            self.status = value

    # -- DMA helpers -----------------------------------------------------

    def _hpa(self, gpa: int) -> int:
        if self.dma_translate is None:
            raise VirtioDmaError(f"{self.name}: no DMA translation installed")
        return self.dma_translate(gpa)

    def dma_read(self, gpa: int, payload) -> object:
        """Device reads a guest buffer; returns its contents.

        The translation and the IOPMP check are performed for real -- a
        descriptor resolving into protected memory faults here.  The data
        itself is taken from the descriptor's attached payload (the guest
        driver charges, rather than performs, the bounce copy into the
        buffer, so DRAM is not authoritative for device-readable buffers).
        """
        length = payload_len(payload)
        hpa = self._hpa(gpa)
        from repro.isa.traps import AccessType

        self.bus.dma_check_range(self.source_id, hpa, max(length, 1), AccessType.LOAD)
        self.ledger.charge(_COPY, self.costs.copy_bytes(length))
        if isinstance(payload, (bytes, bytearray)):
            return bytes(payload)
        return length

    def dma_write(self, gpa: int, payload) -> None:
        """Device writes a guest buffer (checked, charged)."""
        length = payload_len(payload)
        hpa = self._hpa(gpa)
        from repro.isa.traps import AccessType

        if isinstance(payload, (bytes, bytearray)):
            self.bus.dma_write(self.source_id, hpa, bytes(payload))
        else:
            self.bus.dma_check_range(self.source_id, hpa, max(length, 1), AccessType.STORE)
        self.ledger.charge(_COPY, self.costs.copy_bytes(length))

    # -- completion ------------------------------------------------------

    def _complete_batch(self, queue: Virtqueue, descriptors) -> None:
        """Post a drain's completions to the used ring in one batch.

        With ``event_idx`` the whole batch raises one interrupt (the
        guest's handler walks the used ring anyway); without it, the
        naive one-interrupt-per-descriptor behaviour is preserved for the
        ablation baseline.  The PLIC latches pending per source, so the
        two arms differ in ``irq_sink`` traffic and statistics, not in
        what the guest eventually observes.
        """
        if not descriptors:
            return
        queue.used.extend(descriptors)
        self.drains += 1
        self.completions += len(descriptors)
        self.interrupt_status |= 1
        if self.irq_sink is None:
            return
        pulses = 1 if self.event_idx else len(descriptors)
        for _ in range(pulses):
            self.irqs_raised += 1
            self.irq_sink(self)

    def process_queue(self, index: int) -> None:
        """Service the available ring of queue ``index``; device-specific."""
        raise NotImplementedError


def _validated_request(descriptor: Descriptor) -> dict:
    """Sanity-check the guest-controlled descriptor fields.

    Everything in a descriptor is guest-posted and therefore untrusted:
    a malformed length, header or payload must become a typed
    :class:`VirtioIoError` (caught and turned into an error completion),
    never a ``TypeError`` unwinding through the host loop.
    """
    if not isinstance(descriptor.length, int) or isinstance(descriptor.length, bool) \
            or descriptor.length < 0:
        raise VirtioIoError(
            f"descriptor length {descriptor.length!r} is not a byte count",
            status=STATUS_UNSUPP,
        )
    header = descriptor.header or {}
    if not isinstance(header, dict):
        raise VirtioIoError(
            f"descriptor header {header!r} is not a mapping", status=STATUS_UNSUPP
        )
    return header


class VirtioBlockDevice(VirtioDevice):
    """virtio-blk with an in-memory backing disk.

    The disk stores real bytes for real payloads and byte-counts for
    symbolic ones, keyed by sector (512-byte units).
    """

    SECTOR = 512

    def __init__(self, mmio_base: int, source_id: int, bus, ledger, costs,
                 capacity_sectors: int = 1 << 21, event_idx: bool = True):
        super().__init__("virtio-blk", mmio_base, source_id, bus, ledger, costs,
                         event_idx=event_idx)
        self.capacity_sectors = capacity_sectors
        self._disk: dict[int, object] = {}
        self.reads = 0
        self.writes = 0

    def process_queue(self, index: int) -> None:
        """Drain the available ring; batch-post completions.

        A request the device refuses (beyond-capacity sector, malformed
        guest fields, a read spanning mixed real/symbolic regions) is
        completed with a non-OK status -- the queue stays consistent and
        the drain continues.  Only architectural DMA faults
        (:class:`~repro.errors.TrapRaised` from the IOPMP) propagate.
        """
        queue = self.queues[index]
        completed = []
        while queue.available:
            descriptor = queue.available.popleft()
            self.ledger.charge(Category.DEVICE, self.costs.virtio_request_fixed)
            try:
                self._serve(descriptor)
                descriptor.status = STATUS_OK
            except VirtioIoError as refusal:
                descriptor.status = refusal.status
                self.io_errors += 1
            completed.append(descriptor)
        self._complete_batch(queue, completed)

    def _serve(self, descriptor: Descriptor) -> None:
        """Serve one request or raise :class:`VirtioIoError` to refuse it."""
        header = _validated_request(descriptor)
        sector = header.get("sector", 0)
        if not isinstance(sector, int) or isinstance(sector, bool) or sector < 0:
            raise VirtioIoError(
                f"sector {sector!r} is not a sector number", status=STATUS_UNSUPP
            )
        if sector * self.SECTOR + descriptor.length > self.capacity_sectors * self.SECTOR:
            raise VirtioIoError(
                f"I/O beyond disk capacity at sector {sector}", status=STATUS_IOERR
            )
        if header.get("type") == "write":
            try:
                data = self.dma_read(descriptor.gpa, descriptor.payload)
            except TypeError as bad_payload:
                raise VirtioIoError(str(bad_payload), status=STATUS_UNSUPP) from None
            self._store(sector, data, descriptor.length)
            self.writes += 1
        else:
            data = self._fetch(sector, descriptor.length)
            self.dma_write(descriptor.gpa, data)
            descriptor.payload = data
            self.reads += 1

    def _store(self, sector: int, data, length: int) -> None:
        if isinstance(data, (bytes, bytearray)):
            for i in range(0, length, self.SECTOR):
                self._disk[sector + i // self.SECTOR] = bytes(data[i : i + self.SECTOR])
        else:
            for i in range(0, length, self.SECTOR):
                self._disk[sector + i // self.SECTOR] = min(self.SECTOR, length - i)

    def _fetch(self, sector: int, length: int):
        """Read ``length`` bytes at ``sector`` from the backing store.

        The disk holds real ``bytes`` for real writes and plain ``int``
        lengths for symbolic ones.  A read spanning *both* kinds cannot
        be served faithfully -- the symbolic sectors have no bytes to
        return -- so it is refused (:class:`VirtioIoError`, completed as
        ``STATUS_IOERR``) instead of silently substituting zeros for the
        symbolic part, which would be data corruption.  All-symbolic
        regions (unwritten sectors included) stay on the accounting-only
        path and return a symbolic payload; all-real regions return real
        bytes with zeros for unwritten holes, as a disk does.
        """
        chunks = [
            self._disk.get(sector + i // self.SECTOR)
            for i in range(0, length, self.SECTOR)
        ]
        has_real = any(isinstance(c, (bytes, bytearray)) for c in chunks)
        has_symbolic = any(isinstance(c, int) for c in chunks)
        if has_real and has_symbolic:
            raise VirtioIoError(
                f"read of {length} bytes at sector {sector} spans mixed "
                "real/symbolic disk regions",
                status=STATUS_IOERR,
            )
        if has_symbolic:
            return length  # symbolic region: return a symbolic payload
        out = bytearray()
        for i, chunk in zip(range(0, length, self.SECTOR), chunks):
            if chunk is None:
                chunk = b"\x00" * self.SECTOR
            out += chunk[: min(self.SECTOR, length - i)]
        return bytes(out)


class VirtioRngDevice(VirtioDevice):
    """virtio-rng: the host feeds entropy into guest-posted buffers.

    The entropy source is *host-controlled* and therefore untrusted for a
    confidential VM: a sensible CVM kernel mixes it with SM-provided
    randomness rather than consuming it raw (see
    :class:`repro.guest.virtio_driver.VirtioRngDriver`).
    """

    def __init__(self, mmio_base: int, source_id: int, bus, ledger, costs,
                 seed: bytes = b"host-rng", event_idx: bool = True):
        super().__init__("virtio-rng", mmio_base, source_id, bus, ledger, costs,
                         event_idx=event_idx)
        self._state = seed
        self.bytes_served = 0

    def _entropy(self, count: int) -> bytes:
        import hashlib

        out = b""
        while len(out) < count:
            self._state = hashlib.sha256(self._state + b"n").digest()
            out += self._state
        return out[:count]

    def process_queue(self, index: int) -> None:
        """Fill each posted buffer with host entropy; batch completions."""
        queue = self.queues[index]
        completed = []
        while queue.available:
            descriptor = queue.available.popleft()
            self.ledger.charge(Category.DEVICE, self.costs.virtio_request_fixed)
            try:
                _validated_request(descriptor)
                data = self._entropy(descriptor.length)
                self.dma_write(descriptor.gpa, data)
                descriptor.payload = data
                self.bytes_served += descriptor.length
                descriptor.status = STATUS_OK
            except VirtioIoError as refusal:
                descriptor.status = refusal.status
                self.io_errors += 1
            completed.append(descriptor)
        self._complete_batch(queue, completed)


class VirtioNetDevice(VirtioDevice):
    """virtio-net: TX frames go to a host handler, RX frames come from it.

    ``host_handler(frame_payload, header)`` is the host-side network peer
    (e.g. the Redis benchmark client); frames it sends back are queued and
    delivered into guest-posted RX buffers.
    """

    TX_QUEUE = 0
    RX_QUEUE = 1

    def __init__(self, mmio_base: int, source_id: int, bus, ledger, costs,
                 event_idx: bool = True):
        super().__init__("virtio-net", mmio_base, source_id, bus, ledger, costs,
                         event_idx=event_idx)
        self.host_handler = None
        self._host_backlog: deque = deque()
        self.tx_frames = 0
        self.rx_frames = 0
        #: Host-delivered frames dropped (oversized or malformed); the
        #: posted RX buffer is returned to the ring, never lost.
        self.rx_dropped = 0

    def process_queue(self, index: int) -> None:
        """TX: hand frames to the host handler; then flush RX backlog."""
        if index == self.TX_QUEUE:
            self._process_tx()
        self._flush_rx()

    def _process_tx(self) -> None:
        queue = self.queues[self.TX_QUEUE]
        completed = []
        while queue.available:
            descriptor = queue.available.popleft()
            self.ledger.charge(_DEVICE, self.costs.virtio_request_fixed)
            try:
                _validated_request(descriptor)
                try:
                    frame = self.dma_read(descriptor.gpa, descriptor.payload)
                except TypeError as bad_payload:
                    raise VirtioIoError(str(bad_payload), status=STATUS_UNSUPP) from None
                self.tx_frames += 1
                if self.host_handler is not None:
                    for reply in self.host_handler(frame, descriptor.header or {}):
                        self._host_backlog.append(reply)
                descriptor.status = STATUS_OK
            except VirtioIoError as refusal:
                descriptor.status = refusal.status
                self.io_errors += 1
            completed.append(descriptor)
        self._complete_batch(queue, completed)

    def host_deliver(self, frame) -> None:
        """Host side queues a frame for the guest; delivered into RX buffers."""
        self._host_backlog.append(frame)
        self._flush_rx()

    def _flush_rx(self) -> None:
        """Deliver backlog frames into posted RX buffers; batch completions.

        A frame that does not fit its buffer (or is not a payload at all)
        is *dropped* -- real virtio-net semantics for an undersized RX
        ring -- and the popped descriptor goes back to the front of the
        available ring, so no guest buffer is ever lost and the rest of
        the backlog still drains.
        """
        queue = self.queues.get(self.RX_QUEUE)
        if queue is None:
            return
        completed = []
        while self._host_backlog and queue.available:
            frame = self._host_backlog.popleft()
            try:
                length = payload_len(frame)
            except TypeError:
                self.rx_dropped += 1  # not a frame: drop, keep draining
                continue
            descriptor = queue.available.popleft()
            if length > descriptor.length:
                self.rx_dropped += 1
                queue.available.appendleft(descriptor)  # buffer not consumed
                continue
            self.ledger.charge(_DEVICE, self.costs.virtio_request_fixed)
            self.dma_write(descriptor.gpa, frame)
            descriptor.payload = frame
            descriptor.status = STATUS_OK
            self.rx_frames += 1
            completed.append(descriptor)
        self._complete_batch(queue, completed)

    @property
    def backlog(self) -> int:
        return len(self._host_backlog)
