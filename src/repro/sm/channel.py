"""SM-brokered inter-CVM secure channels (zero-copy shared-memory IPC).

Two CVMs on the same machine can otherwise only talk through the
hypervisor: virtio-net plus SWIOTLB, paying two bounce copies and a world
switch per doorbell kick.  This module reuses ZION's split-page-table
machinery (paper IV-E) for the opposite trust direction: the SM allocates
a *channel window* from the secure pool, maps it into **both** endpoint
CVMs' private stage-2 regions, and never exposes it to the hypervisor --
the window pages sit inside the PMP-protected pool, so a host access
faults exactly like any other pool touch, and no DMA master can reach
them through the IOPMP.

Security properties the manager enforces:

- **Attestation-bound connect**: the creator declares the launch
  measurement it will accept as a peer; the connector declares the
  measurement it expects of the creator.  Either mismatch refuses the
  connection (``SBI_DENIED`` at the ABI).
- **Endpoint exclusivity**: exactly two CVMs; a third CVM can neither
  connect (the channel leaves the CREATED state) nor translate to the
  window (its stage-2 simply never maps those frames).
- **Channel-scoped ownership**: window frames are owned by the channel
  token, not by either CVM, so every other SM map/reclaim path refuses
  them; only :meth:`SplitTableManager.map_channel` may install them.
- **Scrub on teardown**: close -- or the destruction of either endpoint
  -- unmaps the window from both CVMs, zeroes every byte, and returns
  the block to the pool.

Notification rides the platform's existing doorbell path: the SM updates
the peer's pending-interrupt state (a validated VSEI through the secure
vCPU), kicks the peer's hart via the CLINT, and lets the hypervisor's
scheduler wake the blocked vCPU -- the host learns *that* a doorbell rang,
never what moved through the window.
"""

from __future__ import annotations

import enum
import itertools
import weakref

from repro.cycles import Category
from repro.errors import EcallError, SecurityViolation, TrapRaised
from repro.mem.physmem import PAGE_SIZE

#: VS-level external interrupt bit used for channel doorbells (the same
#: line device completions use; the guest demultiplexes by ring state).
DOORBELL_IRQ_BIT = 1 << 10


class ChannelState(enum.Enum):
    """Lifecycle of one inter-CVM channel."""

    CREATED = "created"  # window mapped into the creator; awaiting the peer
    CONNECTED = "connected"  # both endpoints mapped; data may flow
    CLOSED = "closed"  # unmapped, scrubbed, block returned


#: What every doorbell compares and charges, bound once: a lookup
#: through an enum class runs its metaclass's attribute hook.
_CONNECTED = ChannelState.CONNECTED
_SM_LOGIC, _TLB = Category.SM_LOGIC, Category.TLB


class Channel:
    """SM-side record of one channel."""

    def __init__(self, channel_id: int, creator_id: int, window_pa: int,
                 window_size: int, expected_peer_measurement: bytes, block):
        self.channel_id = channel_id
        self.creator_id = creator_id
        self.peer_id: int | None = None
        self.window_pa = window_pa
        self.window_size = window_size
        self.expected_peer_measurement = expected_peer_measurement
        self.block = block
        self.state = ChannelState.CREATED
        #: Where each endpoint mapped the window (cvm_id -> GPA).
        self.gpas: dict[int, int] = {}
        #: Doorbells rung and not yet consumed, per endpoint.
        self.doorbells: dict[int, int] = {}
        #: Lifetime doorbell count (statistics).
        self.notify_count = 0

    def endpoints(self) -> tuple:
        """CVM ids currently attached (creator first)."""
        return tuple(self.gpas)

    def other_end(self, cvm_id: int) -> int:
        """The opposite endpoint's CVM id."""
        for endpoint in self.gpas:
            if endpoint != cvm_id:
                return endpoint
        raise EcallError(f"channel {self.channel_id} has no peer yet")

    def __repr__(self):
        return (
            f"<Channel {self.channel_id} {self.state.value} "
            f"creator={self.creator_id} peer={self.peer_id} "
            f"window={self.window_size:#x}@{self.window_pa:#x}>"
        )


class ChannelManager:
    """Creates, connects, rings and tears down inter-CVM channels."""

    def __init__(self, monitor):
        #: A proxy: the monitor owns this manager, and a strong reference
        #: back would be a cycle that outlives a dropped machine.
        self.monitor = weakref.proxy(monitor)
        self.channels: dict[int, Channel] = {}
        #: Fan-out index: cvm_id -> ids of channels it is an endpoint of.
        #: A router CVM legitimately holds one channel per shard plus one
        #: per client, so destroy-path teardown and per-CVM accounting
        #: must not scan the whole channel table.
        self._by_cvm: dict[int, set] = {}
        self._ids = itertools.count(1)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def owner_token(channel_id: int) -> str:
        """Pool-ownership tag for a channel's window frames."""
        return f"chan:{channel_id}"

    def _charge(self) -> None:
        self.monitor.ledger.charge(_SM_LOGIC, self.monitor.costs.channel_bookkeeping)

    def _channel(self, channel_id: int) -> Channel:
        channel = self.channels.get(channel_id)
        if channel is None:
            raise EcallError(f"no such channel: {channel_id}")
        return channel

    def _endpoint_channel(self, cvm_id: int, channel_id: int) -> Channel:
        channel = self._channel(channel_id)
        if cvm_id not in channel.gpas:
            raise SecurityViolation(
                f"CVM {cvm_id} is not an endpoint of channel {channel_id}"
            )
        return channel

    def _validate_window_gpa(self, cvm, gpa: int, size: int) -> None:
        """The window GPA range must be page-aligned private DRAM that the
        CVM has not populated -- the channel never shadows guest memory."""
        if gpa % PAGE_SIZE or size <= 0 or size % PAGE_SIZE:
            raise EcallError("channel window must be page-aligned pages")
        if size > self.monitor.pool.block_size:
            raise EcallError(
                f"channel window exceeds one secure block "
                f"({self.monitor.pool.block_size:#x} bytes)"
            )
        layout = cvm.layout
        if not (layout.in_private_dram(gpa) and layout.in_private_dram(gpa + size - 1)):
            raise EcallError("channel window must lie in private DRAM")
        from repro.isa.traps import AccessType

        for page_gpa in range(gpa, gpa + size, PAGE_SIZE):
            try:
                self.monitor.translator.gpa_to_pa(
                    cvm.hgatp_root, page_gpa, AccessType.LOAD
                )
            except TrapRaised:
                continue  # unmapped, as required
            raise EcallError(
                f"channel window GPA {page_gpa:#x} is already mapped"
            )

    def _alloc_window_block(self, owner: str):
        """One secure block for the window, expanding the pool if needed."""
        block = self.monitor.pool.alloc_block(owner=owner)
        if block is None and self.monitor.hypervisor is not None:
            self.monitor.ask_host_for_pool_memory()
            block = self.monitor.pool.alloc_block(owner=owner)
        if block is None:
            raise EcallError("secure pool exhausted; no space for a channel")
        return block

    def _map_window(self, cvm, channel: Channel, gpa: int) -> None:
        token = self.owner_token(channel.channel_id)
        for offset in range(0, channel.window_size, PAGE_SIZE):
            self.monitor.split.map_channel(
                cvm,
                gpa + offset,
                channel.window_pa + offset,
                self.monitor._alloc_table_page,
                token,
            )
            self.monitor.translator.sfence_page(cvm.vmid, gpa + offset)
        channel.gpas[cvm.cvm_id] = gpa
        channel.doorbells[cvm.cvm_id] = 0
        self._by_cvm.setdefault(cvm.cvm_id, set()).add(channel.channel_id)

    # -- lifecycle ---------------------------------------------------------

    def create(self, cvm, window_gpa: int, size: int,
               expected_peer_measurement: bytes) -> int:
        """Allocate a window, map it into the creator, await the peer.

        ``window_gpa``/``size`` are guest-supplied (untrusted even from
        a CVM -- a compromised guest kernel must not steer SM mappings):
        both are clamped to page-aligned, block-bounded, *unmapped*
        private DRAM before any pool state changes.  The window block is
        zeroed before mapping so the creator never sees a prior owner's
        bytes.
        """
        self._charge()
        if cvm.measurement is None:
            raise EcallError("creator CVM is not finalized")
        if len(expected_peer_measurement) != 32:
            raise EcallError("expected peer measurement must be 32 bytes")
        self._validate_window_gpa(cvm, window_gpa, size)
        channel_id = next(self._ids)
        block = self._alloc_window_block(self.owner_token(channel_id))
        self.monitor.dram.zero_range(block.base, size)
        self.monitor.ledger.charge(
            Category.SM_LOGIC, self.monitor.costs.zero_bytes(size)
        )
        channel = Channel(
            channel_id, cvm.cvm_id, block.base, size,
            bytes(expected_peer_measurement), block,
        )
        self.channels[channel_id] = channel
        self._map_window(cvm, channel, window_gpa)
        return channel_id

    def connect(self, cvm, channel_id: int, window_gpa: int,
                expected_creator_measurement: bytes) -> int:
        """Attach the second endpoint; gated on both measurements.

        ``channel_id`` is untrusted (it travelled over some guest side
        channel): it is looked up, never indexed; the state machine
        refuses anything but a once-only CREATED->CONNECTED transition,
        so a third CVM can never join.  The mutual attestation gate
        compares SM-held launch measurements -- the only inputs the
        connecting guest controls are which channel and where in its own
        space the window lands (validated like :meth:`create`).
        """
        self._charge()
        channel = self._channel(channel_id)
        if channel.state is not ChannelState.CREATED:
            raise SecurityViolation(
                f"channel {channel_id} is {channel.state.value}; "
                "not accepting connections"
            )
        if cvm.cvm_id == channel.creator_id:
            raise SecurityViolation("a CVM cannot connect to its own channel")
        if cvm.measurement is None:
            raise EcallError("connecting CVM is not finalized")
        if cvm.measurement != channel.expected_peer_measurement:
            raise SecurityViolation(
                f"CVM {cvm.cvm_id}'s measurement does not match the "
                f"measurement channel {channel_id} was created for"
            )
        creator = self.monitor.cvms.get(channel.creator_id)
        if creator is None or creator.measurement != bytes(expected_creator_measurement):
            raise SecurityViolation(
                "creator measurement does not match the connector's expectation"
            )
        self._validate_window_gpa(cvm, window_gpa, channel.window_size)
        self._map_window(cvm, channel, window_gpa)
        channel.peer_id = cvm.cvm_id
        channel.state = ChannelState.CONNECTED
        return channel.window_size

    def notify(self, cvm, channel_id: int) -> int:
        """Ring the peer's doorbell; returns its pending doorbell count.

        Endpoint membership is checked before anything else (an
        unrelated CVM probing channel ids gets a refusal, not a timing
        oracle on peer state).  What leaks to the untrusted host is one
        bit -- *some* doorbell rang for that CVM -- via the scheduler
        wake; payload bytes never leave the PMP-protected window.
        """
        self._charge()
        channel = self._endpoint_channel(cvm.cvm_id, channel_id)
        if channel.state is not _CONNECTED:
            raise EcallError(f"channel {channel_id} is {channel.state.value}")
        peer_id = channel.other_end(cvm.cvm_id)
        channel.doorbells[peer_id] += 1
        channel.notify_count += 1
        monitor = self.monitor
        monitor.ledger.charge(_SM_LOGIC, monitor.costs.channel_doorbell)
        # The doorbell is a validated VSEI on the peer's vCPU 0 -- the same
        # injection slot device interrupts use -- plus a CLINT kick so a
        # sleeping hart re-evaluates its run queue.
        peer = monitor.cvms[peer_id]
        peer.vcpus[0].csrs["hvip"] = (
            peer.vcpus[0].csrs.get("hvip", 0) | DOORBELL_IRQ_BIT
        )
        if monitor.clint is not None:
            monitor.clint.send_ipi(0)
            monitor.ledger.charge(_TLB, monitor.costs.ipi_shootdown_cost)
            monitor.clint.clear_ipi(0)
        # The SM's upcall, which an event sink may decline.
        events = monitor.ledger.events
        if monitor.hypervisor is not None and (events is None or not events.record(
            "doorbell", channel=channel_id, cvm=cvm.cvm_id, peer=peer_id
        )):
            monitor.hypervisor.on_channel_doorbell(peer_id)
        return channel.doorbells[peer_id]

    def close(self, cvm, channel_id: int) -> None:
        """Tear the channel down from either end: unmap, scrub, recycle.

        Only an endpoint may close (membership-checked); the teardown
        unmaps the window from *both* CVMs and zeroes every byte before
        the block re-enters the pool, so neither the peer nor the next
        block owner can read conversation residue.
        """
        self._charge()
        channel = self._endpoint_channel(cvm.cvm_id, channel_id)
        if channel.state is ChannelState.CLOSED:
            raise EcallError(f"channel {channel_id} is already closed")
        self._teardown(channel)

    def channels_of(self, cvm_id: int) -> tuple:
        """Ids of the open channels this CVM is an endpoint of.

        SM-internal bookkeeping (reads only trusted state); the
        hypervisor learns per-CVM channel membership only through the
        DESCRIBE_CVM-style surfaces that deliberately expose it, never
        by reaching into this table.
        """
        return tuple(sorted(self._by_cvm.get(cvm_id, ())))

    def on_cvm_destroyed(self, cvm_id: int) -> int:
        """Destroy-path hook: close every channel the CVM participates in.

        Driven by the fan-out index so a router CVM with dozens of
        channels tears them all down without scanning unrelated ones;
        each teardown scrubs the window before its block is reusable.
        """
        closed = 0
        for channel_id in self.channels_of(cvm_id):
            channel = self.channels[channel_id]
            if channel.state is not ChannelState.CLOSED:
                self._teardown(channel)
                closed += 1
        return closed

    def _teardown(self, channel: Channel) -> None:
        monitor = self.monitor
        token = self.owner_token(channel.channel_id)
        for cvm_id in channel.gpas:
            members = self._by_cvm.get(cvm_id)
            if members is not None:
                members.discard(channel.channel_id)
                if not members:
                    del self._by_cvm[cvm_id]
        for cvm_id, gpa in channel.gpas.items():
            cvm = monitor.cvms.get(cvm_id)
            if cvm is None:
                continue
            for offset in range(0, channel.window_size, PAGE_SIZE):
                monitor.split.unmap_channel(cvm, gpa + offset, token)
                monitor.translator.sfence_page(cvm.vmid, gpa + offset)
        # Scrub exactly the bytes the endpoints could reach: only the
        # window was ever mapped, so the block's tail holds nothing new.
        monitor.dram.zero_range(channel.window_pa, channel.window_size)
        monitor.ledger.charge(
            Category.SM_LOGIC, monitor.costs.zero_bytes(channel.window_size)
        )
        monitor.pool.free_block(channel.block)
        channel.state = ChannelState.CLOSED
