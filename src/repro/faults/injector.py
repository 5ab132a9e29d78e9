"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live machine.

The injector is the machine's event sink (the slot a
:class:`~repro.trace.Tracer` uses), so it attaches to any built machine
and replaces no method.  Each seam counts one kind of recorded event;
when a seam's count reaches a planned event's trigger it perturbs:

- ``enter`` (``cvm_reply``, an entry carrying the hypervisor's reply):
  overwrite a shared-vCPU field *before* Check-after-Load reads it;
- ``notify`` (``doorbell``, the SM's wakeup upcall): drop (decline) or
  duplicate the wakeup, clear the injected VSEI, flip window bytes,
  poison a length prefix, tear a ring counter;
- ``expand`` (``pool_expand``, the SM's stage-3 upcall): donate nothing,
  or a single block instead of the configured chunk, declining the
  hypervisor's own donation;
- ``timer`` (``fault`` with path ``sm``, which both access paths record
  alike): inject a spurious timer exit/entry cycle.

After every injected event the injector runs
:func:`~repro.faults.invariants.check_postconditions` at the next point
where the machine's world state is consistent (immediately, and again
at the next ``cvm_exit`` for a corrupted entry) and accumulates any
violations.  Injection uses **no randomness**: every parameter was
drawn at plan time, preserving seed determinism.
"""

from __future__ import annotations

from repro.faults.invariants import check_postconditions
from repro.faults.plan import FaultPlan
from repro.ipc.ring import HEADER_SIZE
from repro.sm.channel import DOORBELL_IRQ_BIT, ChannelState
from repro.sm.secmem import SECURE_BLOCK_SIZE

#: The value a poisoned length prefix advertises (absurd but in-range
#: for a 64-bit read -- the consumer must clamp, not copy).
POISON_LENGTH = 0x00FF_FFFF_FFFF


class FaultInjector:
    """The event sink that applies a plan; records injections and violations.

    Attaching one while another sink (a tracer) is attached raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, machine, plan: FaultPlan):
        self.machine = machine
        self.plan = plan
        #: One dict per fault actually injected (site, seam occurrence,
        #: ledger cycle, params) -- the campaign's evidence trail.
        self.applied: list[dict] = []
        #: Invariant violations observed by any post-condition sweep.
        self.violations: list[str] = []
        self._counters = {"enter": 0, "notify": 0, "expand": 0, "timer": 0}
        self._events = {
            seam: plan.for_seam(seam)
            for seam in ("enter", "notify", "expand", "timer")
        }
        #: Sites whose post-check is deferred to the next safe point
        #: (the following CVM exit).
        self._deferred_checks: list[str] = []
        machine.ledger.attach(self)

    # -- bookkeeping -------------------------------------------------------

    def _due(self, seam: str) -> list:
        """Advance the seam counter; events firing at this occurrence."""
        self._counters[seam] += 1
        occurrence = self._counters[seam]
        return [e for e in self._events[seam] if e.at == occurrence]

    def _record(self, event, **detail) -> None:
        self.applied.append(
            {
                "site": event.site,
                "at": event.at,
                "cycle": self.machine.ledger.total,
                "params": event.params,
                **detail,
            }
        )

    def _postcheck(self, site: str) -> None:
        """Immediate invariant sweep, attributed to ``site``."""
        for problem in check_postconditions(self.machine):
            self.violations.append(f"after {site}: {problem}")

    # -- channel helpers ---------------------------------------------------

    def _live_channel(self):
        """The lowest-id non-closed channel, or None."""
        manager = self.machine.monitor.channels
        for channel_id in sorted(manager.channels):
            channel = manager.channels[channel_id]
            if channel.state is not ChannelState.CLOSED:
                return channel
        return None

    def _ring_geometry(self, channel, ring_index: int):
        """(base_pa, capacity) of one ring half of the channel window."""
        half = channel.window_size // 2
        base = channel.window_pa + ring_index * half
        return base, half - HEADER_SIZE

    # -- perturbations (notify seam) ---------------------------------------

    def _flip_window_byte(self, event) -> None:
        channel = self._live_channel()
        if channel is None:
            return
        ring_index, frac, mask = event.params
        base, capacity = self._ring_geometry(channel, ring_index)
        offset = HEADER_SIZE + (frac * capacity) // 4096
        addr = base + min(offset, channel.window_size // 2 - 1)
        dram = self.machine.dram
        dram.write(addr, bytes([dram.read(addr, 1)[0] ^ mask]))
        self._record(event, addr=addr)

    def _poison_length_prefix(self, event) -> None:
        channel = self._live_channel()
        if channel is None:
            return
        (ring_index,) = event.params
        base, capacity = self._ring_geometry(channel, ring_index)
        dram = self.machine.dram
        cons = dram.read_u64(base + 8)
        pos = cons % capacity
        if pos + 8 > capacity:
            return  # prefix would wrap; skip rather than half-poison
        dram.write_u64(base + HEADER_SIZE + pos, POISON_LENGTH)
        self._record(event, ring=ring_index)

    def _tear_ring_counter(self, event) -> None:
        channel = self._live_channel()
        if channel is None:
            return
        ring_index, delta = event.params
        base, _capacity = self._ring_geometry(channel, ring_index)
        dram = self.machine.dram
        prod = dram.read_u64(base)
        # A torn 64-bit store: only the low word of (prod + delta) lands.
        torn = (prod & ~0xFFFF_FFFF) | ((prod + delta) & 0xFFFF_FFFF)
        dram.write_u64(base, torn)
        self._record(event, before=prod, after=torn)

    # -- seams: the machine's events -----------------------------------------

    def record(self, kind: str, **detail):
        """The event sink: drive the seam of ``kind``, if it has one; a
        truthy return declines a ``doorbell`` or ``pool_expand`` upcall."""
        seam = self._SEAMS.get(kind)
        return None if seam is None else seam(self, **detail)

    def _on_exit(self, **_detail) -> None:
        if self._deferred_checks:
            pending, self._deferred_checks = self._deferred_checks, []
            for site in pending:
                self._postcheck(site)

    def _on_reply(self, cvm, vcpu, **_detail) -> None:
        for event in self._due("enter"):
            field, value = event.params
            self.machine.monitor.cvms[cvm].shared_vcpus[vcpu].sm_write(field, value)
            self._record(event, cvm=cvm, field=field)
            # The pool is still closed: sweep now, and again at the next
            # exit (the entry, if accepted, ends inside the guest).
            self._postcheck(event.site)
            self._deferred_checks.append(event.site)

    def _on_doorbell(self, channel, cvm, peer) -> bool:
        due = self._due("notify")
        for event in due:
            if event.site == "doorbell_drop":
                self._record(event, channel=channel)
            elif event.site == "doorbell_dup":
                self.machine.hypervisor.on_channel_doorbell(peer)
                self._record(event, channel=channel, peer=peer)
            elif event.site == "vsei_drop":
                vcpu = self.machine.monitor.cvms[peer].vcpus[0]
                vcpu.csrs["hvip"] &= ~DOORBELL_IRQ_BIT
                self._record(event, channel=channel, peer=peer)
            elif event.site == "window_flip":
                self._flip_window_byte(event)
            elif event.site == "window_length":
                self._poison_length_prefix(event)
            elif event.site == "ring_tear":
                self._tear_ring_counter(event)
        if due:
            self._postcheck("/".join(e.site for e in due))
        return any(e.site == "doorbell_drop" for e in due)

    def _on_pool_expand(self) -> bool:
        due = self._due("expand")
        for site in ("expand_fail", "expand_short"):
            hits = [e for e in due if e.site == site]
            if not hits:
                continue
            if site == "expand_short":
                hypervisor = self.machine.hypervisor
                chunk = hypervisor.expand_chunk
                hypervisor.expand_chunk = SECURE_BLOCK_SIZE
                try:
                    hypervisor.on_pool_expand_request(self.machine.monitor)
                finally:
                    hypervisor.expand_chunk = chunk
            for event in hits:
                self._record(event)
            self._postcheck(site)
            return True
        return False

    def _on_fault(self, path, **_detail) -> None:
        if path != "sm":
            return
        due = self._due("timer")
        if not due:
            return
        machine = self.machine
        session = machine._active_session
        ws = machine.monitor.world_switch
        vcpu = session.cvm.vcpu(session.vcpu_id)
        ws.exit_to_normal(session.hart, session.cvm, vcpu, {"kind": "timer", "cause": 7})
        machine.hypervisor.sched_tick()
        ws.enter_cvm(session.hart, session.cvm, vcpu)
        machine._collect_injected_irqs(session)
        for event in due:
            self._record(event, cvm=session.cvm.cvm_id)
        self._postcheck("timer_spurious")

    #: Event kind -> handler: plain functions at class level, since bound
    #: methods kept on the injector would form a reference cycle.
    _SEAMS = {
        "cvm_exit": _on_exit,
        "cvm_reply": _on_reply,
        "doorbell": _on_doorbell,
        "pool_expand": _on_pool_expand,
        "fault": _on_fault,
    }

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Stop injecting (records stay available)."""
        self.machine.ledger.detach(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.detach()
        return False
