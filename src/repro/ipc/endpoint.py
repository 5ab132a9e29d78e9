"""Guest endpoint of an SM-brokered inter-CVM channel.

Wraps the four ``ZION_GUEST`` channel ECALLs and lays a *bidirectional*
pair of :class:`~repro.ipc.ring.SpscRing` over the window: the creator
transmits on the lower half and receives on the upper half, the connector
the mirror image -- each ring therefore has exactly one producer and one
consumer, which is what makes the lock-free counters sound.

All control transfers use the raw register-convention ABI
(:meth:`GuestContext.sbi_ecall`), so the endpoint pays the same trap /
dispatch / translate costs a real guest kernel would; the measurement a
side expects of its peer crosses as a 32-byte (GPA, implicit-length)
buffer like every other SBI byte argument.
"""

from __future__ import annotations

from repro.errors import ChannelCorrupt, ReproError
from repro.mem.physmem import PAGE_SIZE
from repro.sm.abi import EXT_ZION_GUEST, GuestFunction, SbiError
from repro.ipc.ring import SpscRing

#: Bound once: a lookup through an enum class runs its metaclass's
#: attribute hook, and every doorbell names both.
_CHANNEL_NOTIFY = int(GuestFunction.CHANNEL_NOTIFY)
_SUCCESS = SbiError.SUCCESS


class ChannelError(ReproError):
    """A channel ECALL returned an SBI error."""

    def __init__(self, operation: str, error: int):
        self.operation = operation
        self.error = error
        try:
            name = SbiError(error).name
        except ValueError:
            name = str(error)
        super().__init__(f"channel {operation} failed: {name}")


class ChannelEndpoint:
    """One guest's end of a channel (rings + ECALL plumbing).

    Trust assumptions (THREAT_MODEL vocabulary): the *peer CVM* is
    untrusted once connected -- everything read from the shared window
    (ring counters, length prefixes, payload bytes) is attacker-supplied
    and goes through Check-after-Load in :class:`~repro.ipc.ring.SpscRing`
    before it is used as a count, offset or copy length.  The
    *hypervisor* never maps the window at all (SM-enforced), so it is
    outside this endpoint's attack surface; the *SM* is trusted and its
    ECALL results (channel id, window size) are used unclamped.  On the
    first failed sanity check the endpoint fail-stops (``corrupt``):
    containment, not recovery, is the policy for a lying peer.
    """

    def __init__(self, ctx, channel_id: int, window_gpa: int, size: int,
                 is_creator: bool, adaptive: bool = True):
        self.ctx = ctx
        self.channel_id = channel_id
        self.window_gpa = window_gpa
        self.window_size = size
        self.is_creator = is_creator
        #: Adaptive doorbell coalescing (EVENT_IDX-style, the default):
        #: ring the peer only when a send crosses its published wake
        #: point, instead of on every send / near-full receive.  The
        #: eager arm (``adaptive=False``) keeps the original policy for
        #: the ablation in ``bench/ipc.py``.
        self.adaptive = adaptive
        half = size // 2
        lower = SpscRing(ctx, window_gpa, half, adaptive=adaptive)
        upper = SpscRing(ctx, window_gpa + half, size - half, adaptive=adaptive)
        self.tx, self.rx = (lower, upper) if is_creator else (upper, lower)
        self.closed = False
        #: Set when the peer's shared state failed a sanity check; the
        #: endpoint fail-stops -- all further data-path calls refuse.
        self.corrupt = False
        #: Doorbells this endpoint has rung (ablation statistic).
        self.doorbells_rung = 0
        #: notify=True operations that decided *not* to ring because the
        #: peer's event word said it was not waiting (ablation statistic).
        self.doorbells_suppressed = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, ctx, window_gpa: int, size: int,
               expected_peer_measurement: bytes,
               scratch_gpa: int | None = None,
               adaptive: bool = True) -> "ChannelEndpoint":
        """CHANNEL_CREATE: allocate the window and become the creator."""
        meas_gpa = cls._stage_measurement(
            ctx, expected_peer_measurement, scratch_gpa, window_gpa + size
        )
        error, channel_id = ctx.sbi_ecall(
            EXT_ZION_GUEST, int(GuestFunction.CHANNEL_CREATE),
            window_gpa, size, meas_gpa,
        )
        if error != SbiError.SUCCESS:
            raise ChannelError("create", error)
        return cls(ctx, channel_id, window_gpa, size, is_creator=True,
                   adaptive=adaptive)

    @classmethod
    def connect(cls, ctx, channel_id: int, window_gpa: int,
                expected_creator_measurement: bytes,
                scratch_gpa: int | None = None,
                adaptive: bool = True) -> "ChannelEndpoint":
        """CHANNEL_CONNECT: join; the SM returns the window size."""
        meas_gpa = cls._stage_measurement(
            ctx, expected_creator_measurement, scratch_gpa, window_gpa - PAGE_SIZE
        )
        error, size = ctx.sbi_ecall(
            EXT_ZION_GUEST, int(GuestFunction.CHANNEL_CONNECT),
            channel_id, window_gpa, meas_gpa,
        )
        if error != SbiError.SUCCESS:
            raise ChannelError("connect", error)
        return cls(ctx, channel_id, window_gpa, size, is_creator=False,
                   adaptive=adaptive)

    @staticmethod
    def _stage_measurement(ctx, measurement: bytes, scratch_gpa: int | None,
                           default_gpa: int) -> int:
        """Put the expected-measurement bytes where the SM can read them.

        The default scratch page sits just outside the window (the page
        after it for the creator, before it for the connector), so the
        demand-fault that backs it never lands inside the window range the
        SM requires to be unmapped.
        """
        if len(measurement) != 32:
            raise ValueError("expected measurement must be 32 bytes")
        gpa = default_gpa if scratch_gpa is None else scratch_gpa
        ctx.write_bytes(gpa, measurement)
        return gpa

    # -- data path ---------------------------------------------------------

    def send(self, payload: bytes, notify: bool = True) -> bool:
        """Enqueue one message; rings the peer's doorbell on success.

        Returns False (never blocks, never partially writes) when the
        peer's unreturned credits would be exceeded.  The credit check
        reads the peer-writable ``cons`` counter through the ring's
        clamped invariant check: an out-of-range counter fail-stops the
        endpoint instead of authorising an overwrite.
        """
        self._require_open()
        try:
            sent = self.tx.try_send(payload)
        except ChannelCorrupt:
            self.corrupt = True
            raise
        if not sent:
            return False
        if notify:
            self._notify_data()
        return True

    def _notify_data(self) -> None:
        """Ring the new-data doorbell, or suppress it (adaptive mode).

        Adaptive: the ring accumulated a hint iff a send crossed the
        consumer's published wake point -- a consumer that is busy
        draining (its event word is stale) costs no notify ECALL.  A
        consumer about to park always republishes the event on its empty
        poll first, so suppression never loses a wakeup.
        """
        if not self.adaptive:
            self.ring_doorbell()
        elif self.tx.take_data_hint():
            self.ring_doorbell()
        else:
            self.doorbells_suppressed += 1

    def _notify_credits(self) -> None:
        """Ring the credit-return doorbell, or suppress it (adaptive)."""
        if self.rx.take_credit_hint():
            self.ring_doorbell()
        else:
            self.doorbells_suppressed += 1

    #: Credit-return doorbell watermark (the *eager* arm only): after a
    #: recv, ring the peer only if the ring was this full (the producer
    #: may be throttled).  A ring with plenty of credits left needs no
    #: wakeup -- saving the notify ECALL on every uncontended receive is
    #: most of the fast path.  Adaptive mode replaces this heuristic with
    #: the producer's exact published wake point (see
    #: :meth:`_notify_credits`), which rings strictly when needed.
    CREDIT_WATERMARK = 4

    def recv(self, notify: bool = True) -> bytes | None:
        """Dequeue one message; doorbells the peer if it may be throttled.

        The message header and counters are untrusted (peer-writable):
        the length prefix is clamped against the published byte count
        before any copy, and counter inconsistency raises
        :class:`ChannelCorrupt` and fail-stops the endpoint.
        """
        self._require_open()
        try:
            if self.adaptive:
                # The producer publishes its wake point on a refused
                # send; the ring flags a hint only when this receive
                # crosses it -- no advisory credit sampling needed.
                throttled = False
                payload = self.rx.try_recv()
            else:
                throttled = (
                    self.rx.credits() < self.rx.capacity // self.CREDIT_WATERMARK
                )
                payload = self.rx.try_recv()
        except ChannelCorrupt:
            self.corrupt = True
            raise
        if payload is not None and notify:
            if self.adaptive:
                self._notify_credits()
            elif throttled:
                self.ring_doorbell()
        return payload

    def send_many(self, payloads, notify: bool = True) -> int:
        """Enqueue messages until credits run out; one doorbell for the batch.

        Returns how many of ``payloads`` were enqueued (a prefix: the
        first refusal stops the batch, so the caller can retry the tail
        after the peer returns credits).  Trust: the refusal decision
        reads the peer-writable ``cons`` counter, but only through the
        ring's clamped invariant check -- a lying peer can deny us
        credits (liveness), never make us overwrite unconsumed data
        (integrity).  Ringing one doorbell per batch instead of one per
        message is the pipelining fast path: the notify ECALL (trap,
        dispatch, SM bookkeeping, IPI) amortises across the batch.
        """
        self._require_open()
        sent = 0
        for payload in payloads:
            try:
                if not self.tx.try_send(payload):
                    break
            except ChannelCorrupt:
                self.corrupt = True
                raise
            sent += 1
        if sent and notify:
            self._notify_data()
        return sent

    def recv_many(self, limit: int | None = None, notify: bool = True) -> list:
        """Drain up to ``limit`` messages; one credit-return doorbell.

        The throttle check (was the producer near out of credits?) is
        sampled *before* draining, exactly like :meth:`recv`, so the
        batch rings at most one doorbell however many messages it frees.
        Every message crossed the untrusted window: length prefixes are
        clamped by the ring before any copy, and a corrupt counter
        fail-stops the endpoint mid-drain (messages already returned
        were individually validated and remain good).
        """
        self._require_open()
        out: list = []
        try:
            throttled = (
                not self.adaptive
                and self.rx.credits() < self.rx.capacity // self.CREDIT_WATERMARK
            )
            while limit is None or len(out) < limit:
                payload = self.rx.try_recv()
                if payload is None:
                    break
                out.append(payload)
        except ChannelCorrupt:
            self.corrupt = True
            raise
        if out and notify:
            if self.adaptive:
                self._notify_credits()
            elif throttled:
                self.ring_doorbell()
        return out

    def credits(self) -> int:
        """Free bytes on the transmit ring (credit-based backpressure)."""
        return self.tx.credits()

    def ring_doorbell(self) -> int:
        """CHANNEL_NOTIFY: raise the peer's VSEI through the SM.

        The doorbell carries no data -- the untrusted host observes only
        *that* a notify happened (it schedules the woken vCPU), never
        what is in the window.  The SM validates that this CVM is an
        endpoint of the channel before touching the peer's hvip.
        """
        error, pending = self.ctx.sbi_ecall(
            EXT_ZION_GUEST, _CHANNEL_NOTIFY, self.channel_id
        )
        if error != _SUCCESS:
            raise ChannelError("notify", error)
        self.doorbells_rung += 1
        return pending

    def close(self) -> None:
        """CHANNEL_CLOSE: unmap both sides, scrub, free (idempotent).

        Either endpoint may close unilaterally; the SM (trusted) unmaps
        the window from *both* CVMs and zeroes it before the block can
        be reused, so no residue of the conversation survives for the
        next owner.  The peer subsequently faults on the window --
        containment it must expect from an untrusted counterpart.
        """
        if self.closed:
            return
        error, _ = self.ctx.sbi_ecall(
            EXT_ZION_GUEST, int(GuestFunction.CHANNEL_CLOSE), self.channel_id
        )
        if error != SbiError.SUCCESS:
            raise ChannelError("close", error)
        self.closed = True

    def _require_open(self) -> None:
        if self.closed:
            raise ChannelError("use-after-close", int(SbiError.INVALID_PARAM))
        if self.corrupt:
            raise ChannelCorrupt(
                f"channel {self.channel_id} endpoint is fail-stopped after "
                f"detecting corrupt shared state"
            )
