"""A cycle-accounted SPSC ring buffer over a shared channel window.

Classic single-producer/single-consumer byte ring: two monotonic 64-bit
byte counters (``prod``, ``cons``) in a small header at the base of the
region, followed by the data area.  Messages are 8-byte-length-prefixed
byte strings, written wrap-aware, so the stream needs no alignment
padding and arbitrary message sizes coexist.

Backpressure is credit-based: the producer's *credits* are the free bytes
``capacity - (prod - cons)``; a send that does not fit is refused (never
partially written), and the producer is expected to wait for a doorbell
-- the consumer rings after it advances ``cons`` -- rather than poll.

Every header access and payload byte moves through the owning
:class:`~repro.machine.GuestContext`, so each is translated through the
CVM's stage-2 tables and charged to the ledger -- the ring is exactly as
expensive as the loads, stores and copies it performs, which is the whole
point of comparing it against the virtio bounce path.
"""

from __future__ import annotations

from repro.errors import ChannelCorrupt

#: Bytes reserved at the base of the region for the two counters (padded
#: to a cache line so producer and consumer do not false-share).
HEADER_SIZE = 64

_PROD_OFFSET = 0
_CONS_OFFSET = 8
#: EVENT_IDX-style doorbell-suppression words (adaptive mode only).
#: ``data_event`` is written by the *consumer* ("ring me when ``prod``
#: passes this") and read by the producer; ``credit_event`` is written by
#: the *producer* ("ring me when ``cons`` reaches this") and read by the
#: consumer.  Both are advisory and untrusted: they steer only whether a
#: doorbell is rung, never a copy, so a lying peer can at worst suppress
#: its *own* wakeups (self-harm) or draw spurious doorbells bounded by
#: the honest side's own send/recv rate.
_DATA_EVENT_OFFSET = 16
_CREDIT_EVENT_OFFSET = 24

#: Bytes of length prefix before each message payload.
LENGTH_PREFIX = 8


class SpscRing:
    """One direction of a channel: a byte ring inside ``[base, base+size)``.

    Trust assumptions: the whole region is shared with the (untrusted)
    peer CVM, so *every* load from it -- ``prod``, ``cons``, length
    prefixes, payloads -- is attacker-controllable and must pass
    Check-after-Load before it steers a copy.  The local side only
    trusts what it derives itself: ``capacity`` (from the SM-returned
    window size) and its own statistics counters, which live in guest
    locals, not in the window.  Violations surface as
    :class:`ChannelCorrupt`, never as an out-of-bounds access.
    """

    def __init__(self, ctx, base_gpa: int, size: int, adaptive: bool = False):
        if size <= HEADER_SIZE:
            raise ValueError("ring region too small for its header")
        self.ctx = ctx
        self.base = base_gpa
        self.data_base = base_gpa + HEADER_SIZE
        self.capacity = size - HEADER_SIZE
        #: Adaptive doorbell coalescing (EVENT_IDX-style): each side
        #: publishes the counter value it wants to be woken at, and the
        #: other side rings only when an operation crosses that event.
        #: Off by default at ring level; the endpoint turns it on.
        self.adaptive = adaptive
        #: Pending "the peer asked to be notified" hints, accumulated by
        #: the data path and consumed by the endpoint's doorbell policy
        #: (guest-local state, nothing the peer can touch).
        self._data_hint = False
        self._credit_hint = False
        #: Messages this side sent / received (statistics, guest-local).
        self.sent = 0
        self.received = 0

    # -- counters ----------------------------------------------------------

    @property
    def prod(self) -> int:
        """Producer byte counter -- an *untrusted* load from the window.

        Raw by design: clamping happens in :meth:`_checked_used`, the
        single choke point every data-path decision goes through.
        """
        return self.ctx.load(self.base + _PROD_OFFSET)

    @property
    def cons(self) -> int:
        """Consumer byte counter -- an *untrusted* load from the window."""
        return self.ctx.load(self.base + _CONS_OFFSET)

    def used(self) -> int:
        """Bytes currently queued (consumer's view of available work).

        Advisory only (doorbell/throttle heuristics): reads both shared
        counters without clamping, so callers must not size a copy from
        it -- the data paths re-derive the value via the checked form.
        """
        return self.prod - self.cons

    def credits(self) -> int:
        """Free bytes the producer may still write without overrunning.

        Advisory (backpressure heuristics), like :meth:`used`: a lying
        peer can understate credits and stall us, but an overstated
        value never reaches a copy -- :meth:`try_send` re-checks through
        the clamped path before writing a byte.
        """
        return self.capacity - self.used()

    def _checked_used(self, prod: int, cons: int) -> int:
        """Queued-byte count, validated against the ring's invariants.

        Both counters live in the shared window, so either can hold
        garbage after peer misbehaviour (torn update, byte flip).  A sane
        ring always satisfies ``0 <= prod - cons <= capacity``; anything
        else is :class:`ChannelCorrupt`, never a basis for a copy.
        """
        used = prod - cons
        if used < 0 or used > self.capacity:
            raise ChannelCorrupt(
                f"ring counters inconsistent: prod={prod} cons={cons} "
                f"capacity={self.capacity}"
            )
        return used

    # -- producer ----------------------------------------------------------

    def try_send(self, payload: bytes) -> bool:
        """Enqueue one message, or refuse (False) if credits are short."""
        need = LENGTH_PREFIX + len(payload)
        if need > self.capacity:
            raise ValueError(
                f"message of {len(payload)} bytes can never fit a "
                f"{self.capacity}-byte ring"
            )
        # One ``load`` call per header word: zionlint's ZL2 takes a
        # ``load`` result as shared-memory taint, so keep the name.
        load = self.ctx.load
        prod = load(self.base + _PROD_OFFSET)
        used = self._checked_used(prod, load(self.base + _CONS_OFFSET))
        if need > self.capacity - used:
            if self.adaptive:
                # Publish the cons value that frees enough credits, so
                # the consumer knows when a credit-return doorbell is
                # actually needed (it rings only when it crosses this).
                self.ctx.store(
                    self.base + _CREDIT_EVENT_OFFSET, prod + need - self.capacity
                )
            return False  # out of credits: back-pressure the producer
        frame = len(payload).to_bytes(LENGTH_PREFIX, "little") + payload
        self._write_wrapped(prod, frame)
        # Publish after the payload is in place (store-release ordering).
        self.ctx.store(self.base + _PROD_OFFSET, prod + len(frame))
        self.sent += 1
        if self.adaptive:
            # vring_need_event: notify only if this send crossed the
            # consumer's published wake point.  The event word is
            # peer-written and advisory -- it steers a doorbell, never a
            # copy, so no clamping is required (see the offset comment).
            event = load(self.base + _DATA_EVENT_OFFSET)
            if prod <= event < prod + len(frame):  # zionlint: disable=ZL2 advisory event word by design: the branch only raises a doorbell hint, never steers a copy or an index (vring_need_event semantics)
                self._data_hint = True
        return True

    # -- consumer ----------------------------------------------------------

    def try_recv(self) -> bytes | None:
        """Dequeue one message, or None if the ring is empty.

        Raises :class:`ChannelCorrupt` if the shared counters or the
        length prefix are inconsistent with the ring invariants -- the
        prefix is attacker-reachable (it lives in the shared window), so
        it is clamped against the published byte count before any copy.
        """
        load = self.ctx.load
        cons = load(self.base + _CONS_OFFSET)
        prod = load(self.base + _PROD_OFFSET)
        used = self._checked_used(prod, cons)
        if used < LENGTH_PREFIX:
            if self.adaptive:
                # Empty poll: publish "wake me when prod passes here".
                # Every consumer in this tree polls empty before parking
                # on WAIT_DOORBELL, so the event is always fresh by the
                # time the side actually sleeps.
                self.ctx.store(self.base + _DATA_EVENT_OFFSET, prod)
            return None
        header = self._read_wrapped(cons, LENGTH_PREFIX)
        length = int.from_bytes(header, "little")
        if LENGTH_PREFIX + length > used:
            raise ChannelCorrupt(
                f"length prefix {length} exceeds published bytes "
                f"({used - LENGTH_PREFIX} available)"
            )
        payload = self._read_wrapped(cons + LENGTH_PREFIX, length)
        # Release the credits only after the payload has been copied out.
        new_cons = cons + LENGTH_PREFIX + length
        self.ctx.store(self.base + _CONS_OFFSET, new_cons)
        self.received += 1
        if self.adaptive:
            # Credit-return doorbell only when this receive crossed the
            # producer's published wake point (set on a refused send).
            event = load(self.base + _CREDIT_EVENT_OFFSET)
            if cons < event <= new_cons:  # zionlint: disable=ZL2 advisory event word by design: the branch only raises a doorbell hint, never steers a copy or an index (vring_need_event semantics)
                self._credit_hint = True
        return payload

    # -- doorbell hints (adaptive mode) ------------------------------------

    def take_data_hint(self) -> bool:
        """Consume the pending new-data notify hint (producer side)."""
        hint, self._data_hint = self._data_hint, False
        return hint

    def take_credit_hint(self) -> bool:
        """Consume the pending credit-return notify hint (consumer side)."""
        hint, self._credit_hint = self._credit_hint, False
        return hint

    # -- wrap-aware data movement -----------------------------------------

    def _write_wrapped(self, counter: int, data: bytes) -> None:
        pos = counter % self.capacity
        first = min(self.capacity - pos, len(data))
        self.ctx.write_bytes(self.data_base + pos, data[:first])
        if first < len(data):
            self.ctx.write_bytes(self.data_base, data[first:])

    def _read_wrapped(self, counter: int, length: int) -> bytes:
        if length == 0:
            return b""
        pos = counter % self.capacity
        first = min(self.capacity - pos, length)
        out = self.ctx.read_bytes(self.data_base + pos, first)
        if first < length:
            out += self.ctx.read_bytes(self.data_base, length - first)
        return out
