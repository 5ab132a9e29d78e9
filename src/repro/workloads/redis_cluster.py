"""A sharded confidential Redis cluster served over SM channels.

The flagship "heavy traffic" scenario (ROADMAP item 1): N *shard* CVMs
each run the in-guest :class:`~repro.workloads.redis.RedisServer` and own
a contiguous range of the 16384-slot Redis Cluster hash-slot space; a
*router* CVM fans out over one SM-brokered channel per shard (and one per
client CVM) and forwards RESP frames between them; *client* CVMs drive
mixed GET/SET/MGET traffic with up to ``pipeline`` requests in flight per
connection.  Everything data-plane crosses the PR-2 zero-copy channels --
no virtio, no SWIOTLB bounce copies, no MMIO exits -- so the request path
is: guest encode -> SPSC ring write -> one doorbell ECALL per batch ->
scheduler wake -> peer ring read.  docs/DATA_PLANE.md narrates a
request's life hop by hop and maps each hop to the cycle categories in
``BENCH_PERF.json``.

Throughput comes from the two tricks the dragonfly mini-redis exemplar
(SNIPPETS.md #3) uses: *pipelining* (amortise the per-batch fixed costs
-- doorbell ECALL, wake, ring scan -- over K requests) and *credit-based
backpressure* (a full ring refuses the send; the producer parks on
:data:`~repro.machine.WAIT_DOORBELL` instead of polling).

Trust model: shards, router and clients are mutually attested CVMs
(channel setup is measurement-gated by the SM), but each treats its ring
peer as untrusted at the byte level -- all framing is clamped by
:class:`~repro.ipc.ring.SpscRing`, and a shard that stops draining or
corrupts its ring is fail-stopped by the router with a typed
``-ERR SHARDDOWN`` reply (:class:`~repro.errors.ShardDown`) rather than
a wedged pipeline.
"""

from __future__ import annotations

import binascii
import collections

from repro.errors import ChannelCorrupt, ShardDown
from repro.ipc.endpoint import ChannelEndpoint, ChannelError
from repro.machine import WAIT_DOORBELL
from repro.workloads.redis import (
    COMMAND_CYCLES,
    PARSE_DISPATCH_CYCLES,
    RedisServer,
    ResponseError,
    resp_array,
    resp_decode_command,
    resp_decode_reply,
    resp_encode_command,
    resp_error,
)
from repro.mem.physmem import PAGE_SIZE

# ---------------------------------------------------------------------------
# Hash slots (Redis Cluster semantics: CRC16/XMODEM mod 16384, hash tags)
# ---------------------------------------------------------------------------

#: Total hash slots in the cluster keyspace (Redis Cluster's constant).
HASH_SLOTS = 16384


def crc16(data: bytes) -> int:
    """CRC16/XMODEM over ``data`` (the Redis Cluster key hash).

    Poly 0x1021, init 0, no reflection: the exact function Redis Cluster
    specifies for key -> slot mapping, which ``binascii.crc_hqx``
    computes in C.
    """
    return binascii.crc_hqx(data, 0)


def hash_tag(key: bytes) -> bytes:
    """The slice of ``key`` that is actually hashed (Redis hash tags).

    If the key contains ``{...}`` with at least one character between
    the first ``{`` and the first ``}`` after it, only that substring is
    hashed -- the mechanism applications use to pin related keys (e.g.
    ``{user1000}.following`` and ``{user1000}.followers``) to one slot
    so multi-key operations stay single-shard.  Otherwise the whole key
    is hashed.
    """
    open_brace = key.find(b"{")
    if open_brace == -1:
        return key
    close_brace = key.find(b"}", open_brace + 1)
    if close_brace == -1 or close_brace == open_brace + 1:
        return key
    return key[open_brace + 1:close_brace]


def key_slot(key: bytes) -> int:
    """Map a key to its hash slot (tag extraction, then CRC16 mod 16384)."""
    if isinstance(key, str):
        key = key.encode()
    return crc16(hash_tag(key)) % HASH_SLOTS


class SlotMap:
    """Contiguous assignment of the 16384 slots to ``shards`` shards.

    Shard ``i`` owns ``[ranges[i][0], ranges[i][1])``; the first
    ``HASH_SLOTS % shards`` shards are one slot wider so the whole space
    is covered with no gaps -- every slot has exactly one owner.
    """

    def __init__(self, shards: int):
        if not 1 <= shards <= HASH_SLOTS:
            raise ValueError(f"shard count must be in [1, {HASH_SLOTS}]")
        self.shards = shards
        self._base = HASH_SLOTS // shards
        self._extra = HASH_SLOTS % shards
        self.ranges: list = []
        start = 0
        for index in range(shards):
            width = self._base + (1 if index < self._extra else 0)
            self.ranges.append((start, start + width))
            start += width

    def shard_of_slot(self, slot: int) -> int:
        """The shard owning ``slot`` (O(1) arithmetic on the ranges)."""
        if not 0 <= slot < HASH_SLOTS:
            raise ValueError(f"slot {slot} out of range")
        wide_span = self._extra * (self._base + 1)
        if slot < wide_span:
            return slot // (self._base + 1)
        return self._extra + (slot - wide_span) // self._base

    def shard_of_key(self, key: bytes) -> int:
        """The shard owning ``key``'s slot."""
        return self.shard_of_slot(key_slot(key))


# ---------------------------------------------------------------------------
# Pure routing logic (unit-testable without a machine)
# ---------------------------------------------------------------------------

#: Commands that carry no key; the router pins them to slot 0's shard.
_KEYLESS = {b"PING", b"COMMAND"}
#: Multi-key commands whose keys occupy every position after the name.
_MULTI_KEY = {b"DEL", b"EXISTS"}


class RoutePlan:
    """Where one client command goes and how its reply reassembles.

    ``targets`` is ``[(shard, parts, key_indices), ...]``: the frames to
    forward.  ``key_indices`` is ``None`` for single-target commands
    (the shard's raw reply bytes pass through untouched) and the list of
    original key positions for an MGET split (the router scatters each
    shard's array reply back into request order).  ``error`` is a
    router-local RESP error reply (no shard hop at all).
    """

    __slots__ = ("targets", "key_count", "error")

    def __init__(self, targets, key_count: int = 0, error: bytes | None = None):
        self.targets = targets
        self.key_count = key_count
        self.error = error

    @classmethod
    def local_error(cls, message: str) -> "RoutePlan":
        return cls([], error=resp_error(message))

    @property
    def is_split(self) -> bool:
        return self.key_count > 0


class SlotRouter:
    """Slot-aware request planner: command parts -> :class:`RoutePlan`.

    Pure logic (no machine, no channels) so the mapping rules are
    directly unit-testable; the in-CVM router workload drives it frame
    by frame.  Untrusted input: the command bytes come from a client
    ring, so malformed commands become RESP errors, never exceptions.
    """

    def __init__(self, slot_map: SlotMap):
        self.slot_map = slot_map

    def plan(self, parts) -> RoutePlan:
        """Plan one decoded command (a list of ``bytes`` parts)."""
        if not parts:
            return RoutePlan.local_error("empty command")
        name = bytes(parts[0]).upper()
        if name == b"MGET":
            if len(parts) < 2:
                return RoutePlan.local_error("wrong number of arguments for 'mget'")
            return self._plan_mget(parts[1:])
        if name == b"MSET":
            if len(parts) < 3 or len(parts) % 2 == 0:
                return RoutePlan.local_error("wrong number of arguments for 'mset'")
            return self._plan_same_shard(name, parts, parts[1::2])
        if name in _MULTI_KEY and len(parts) > 2:
            return self._plan_same_shard(name, parts, parts[1:])
        if name in _KEYLESS or len(parts) < 2:
            return RoutePlan([(self.slot_map.shard_of_slot(0), parts, None)])
        shard = self.slot_map.shard_of_key(bytes(parts[1]))
        return RoutePlan([(shard, parts, None)])

    def _plan_same_shard(self, name: bytes, parts, keys) -> RoutePlan:
        """Multi-key non-MGET commands must be single-shard (CROSSSLOT)."""
        shards = {self.slot_map.shard_of_key(bytes(key)) for key in keys}
        if len(shards) > 1:
            return RoutePlan.local_error(
                "CROSSSLOT keys in request don't hash to the same slot"
            )
        return RoutePlan([(shards.pop(), parts, None)])

    def _plan_mget(self, keys) -> RoutePlan:
        """Split an MGET by owning shard, remembering request order."""
        groups: dict = {}
        for index, key in enumerate(keys):
            shard = self.slot_map.shard_of_key(bytes(key))
            groups.setdefault(shard, ([b"MGET"], []))
            groups[shard][0].append(key)
            groups[shard][1].append(index)
        targets = [
            (shard, sub_parts, indices)
            for shard, (sub_parts, indices) in sorted(groups.items())
        ]
        return RoutePlan(targets, key_count=len(keys))


# ---------------------------------------------------------------------------
# Calibrated guest costs of the channel data plane
# ---------------------------------------------------------------------------

#: Fixed guest-driver cost per doorbell wake that found work: VSEI demux,
#: ring-header scan, batch setup.  The channel replaces the whole
#: TCP/IP + virtio path (NET_STACK_RX_CYCLES = 100_000 per segment) with
#: a memory-mapped ring, so the fixed cost is ~25x smaller -- the
#: protocol-batching economics SNIPPETS.md #3 (dragonfly) builds on.
CHANNEL_RX_BATCH_CYCLES = 4_000
#: Per-message RX framing/demux (length-prefix walk, dispatch).
CHANNEL_RX_MSG_CYCLES = 900
#: Fixed per-batch TX cost (ring-space check, doorbell decision).
CHANNEL_TX_BATCH_CYCLES = 1_500
#: Per-message TX framing cost.
CHANNEL_TX_MSG_CYCLES = 300
#: Router work per request: CRC16 + slot-range lookup + in-flight FIFO
#: bookkeeping (forwarding is zero-copy at the protocol level: single-
#: target replies pass through as raw bytes).
ROUTER_ROUTE_CYCLES = 1_600
#: Router work per reply forwarded/reassembled.
ROUTER_FORWARD_CYCLES = 400
#: Client-side encode + in-flight slot bookkeeping per request.
CLIENT_ENCODE_CYCLES = 700

#: Shard-resident working set (smaller than the monolithic server's 64
#: pages: each shard holds 1/N of the keyspace).
SHARD_WS_PAGES = 32
SHARD_TOUCH_PER_REQUEST = 8

#: Default channel window geometry (one secure block per channel).
WINDOW_SIZE = 64 * 1024
#: Creator-side window placement (shards and clients: one window each).
PEER_WINDOW_OFFSET = 0x0200_0000
#: Router-side window array: one window per peer, spaced a comfortable
#: 256 KB apart so each window's measurement scratch page and demand
#: faults never collide with a neighbour.
ROUTER_WINDOW_OFFSET = 0x0210_0000
ROUTER_WINDOW_STRIDE = 0x0004_0000

#: Control verbs (router <-> peers, in-band RESP commands).
DISCONNECT = b"DISCONNECT"
SHUTDOWN = b"SHUTDOWN"

#: Consecutive empty polls (while replies are owed) after which the
#: router declares a shard down and fails its in-flight pipeline.
DEFAULT_IDLE_LIMIT = 48


def _preload_keys(server: RedisServer, slot_map: SlotMap, shard_id: int,
                  keyspace: int, value: bytes) -> int:
    """Untimed preload of the shard's share of ``key:0..keyspace-1``."""
    loaded = 0
    for index in range(keyspace):
        key = b"key:%d" % index
        if slot_map.shard_of_key(key) == shard_id:
            server.execute([b"SET", key, value])
            loaded += 1
    return loaded


# ---------------------------------------------------------------------------
# Shard CVM workload
# ---------------------------------------------------------------------------

def shard_server(shard_id: int, channel_boxes: dict, slot_map: SlotMap,
                 *, expected_peer_measurement: bytes,
                 keyspace: int = 128, value_size: int = 16,
                 window_offset: int = PEER_WINDOW_OFFSET,
                 fail_after: int | None = None):
    """Build one shard's generator workload (channel creator).

    The shard creates its channel, publishes the id into
    ``channel_boxes[("shard", shard_id)]`` for the router to connect to,
    preloads its share of the keyspace (untimed, like the virtio bench's
    setup commands), then serves batches: drain the ring, parse + execute
    each command, reply in order, one doorbell per reply batch.

    ``fail_after`` crashes the shard (generator returns, ring stops
    draining, no close) after serving that many requests -- the failure
    mode the router's SHARDDOWN path exists for.
    """

    def workload(ctx):
        endpoint = ChannelEndpoint.create(
            ctx, ctx.session.layout.dram_base + window_offset, WINDOW_SIZE,
            expected_peer_measurement,
        )
        server = RedisServer(
            clock=lambda: ctx.ledger.total / ctx.machine.config.clock_hz
        )
        preloaded = _preload_keys(
            server, slot_map, shard_id, keyspace, b"v" * value_size
        )
        base = ctx.session.layout.dram_base + (64 << 20)
        pages = [base + i * PAGE_SIZE for i in range(SHARD_WS_PAGES)]
        ctx.touch_seq(pages)
        channel_boxes[("shard", shard_id)] = endpoint.channel_id
        served = 0
        busy_cycles = 0
        shutting_down = False
        while not shutting_down:
            batch = endpoint.recv_many(notify=True)
            if not batch:
                ctx.deliver_pending_irqs()
                yield WAIT_DOORBELL
                continue
            start = ctx.ledger.total
            ctx.compute(
                CHANNEL_RX_BATCH_CYCLES + len(batch) * CHANNEL_RX_MSG_CYCLES
            )
            replies = []
            for frame in batch:
                parts = resp_decode_command(bytes(frame))
                name = bytes(parts[0]).upper()
                if name == SHUTDOWN:
                    shutting_down = True
                    replies.append(b"+BYE\r\n")
                    continue
                if fail_after is not None and served >= fail_after:
                    # Crash mid-stream: drop the batch on the floor and
                    # die without closing the channel -- the router must
                    # detect this via its idle timeout, not a FIN.
                    return {
                        "shard": shard_id, "served": served,
                        "busy_cycles": busy_cycles, "preloaded": preloaded,
                        "doorbells": endpoint.doorbells_rung,
                        "crashed": True,
                    }
                ctx.compute(PARSE_DISPATCH_CYCLES)
                ctx.compute(COMMAND_CYCLES.get(name.decode(), 5_000))
                offset = (served * SHARD_TOUCH_PER_REQUEST) % SHARD_WS_PAGES
                ctx.touch_seq(
                    pages[(offset + k) % SHARD_WS_PAGES]
                    for k in range(SHARD_TOUCH_PER_REQUEST)
                )
                replies.append(server.execute(parts))
                served += 1
            ctx.compute(
                CHANNEL_TX_BATCH_CYCLES + len(replies) * CHANNEL_TX_MSG_CYCLES
            )
            sent = endpoint.send_many(replies)
            del replies[:sent]
            busy_cycles += ctx.ledger.total - start
            while replies:  # reply ring full: wait for credits
                ctx.deliver_pending_irqs()
                yield WAIT_DOORBELL
                start = ctx.ledger.total
                sent = endpoint.send_many(replies)
                del replies[:sent]
                busy_cycles += ctx.ledger.total - start
        # Deliberately no endpoint.close() here: CHANNEL_CLOSE tears down
        # both ends of the window immediately, which would yank the +BYE
        # out from under the router before it can read it.  The channel
        # is reclaimed by the SM when the CVM is destroyed.
        return {
            "shard": shard_id, "served": served, "busy_cycles": busy_cycles,
            "preloaded": preloaded, "doorbells": endpoint.doorbells_rung,
            "crashed": False,
        }

    return workload


# ---------------------------------------------------------------------------
# Router CVM workload
# ---------------------------------------------------------------------------

class _Pending:
    """One client request in flight: reply slots + reassembly order."""

    __slots__ = ("remaining", "values", "indices", "reply")

    def __init__(self, remaining: int, key_count: int):
        self.remaining = remaining
        #: MGET only: values scattered back into request order.
        self.values = [None] * key_count if key_count else None
        self.reply: bytes | None = None

    def fail(self, reply: bytes) -> None:
        self.remaining = 0
        self.reply = reply

    def complete_part(self, indices, reply_frame: bytes) -> None:
        """Fold one shard's reply in; finalise when all parts arrived."""
        if self.reply is not None:  # already failed (shard down)
            return
        self.remaining -= 1
        if self.values is None:
            self.reply = reply_frame
            return
        value, _ = resp_decode_reply(reply_frame)
        if isinstance(value, ResponseError):
            self.fail(resp_error(value.message.removeprefix("ERR ")))
            return
        for position, item in zip(indices, value):
            self.values[position] = item
        if self.remaining == 0:
            self.reply = resp_array(self.values)


def cluster_router(channel_boxes: dict, shards: int, clients: int,
                   *, shard_measurement: bytes, client_measurement: bytes,
                   idle_limit: int = DEFAULT_IDLE_LIMIT,
                   reply_flush: int = 4,
                   window_offset: int = ROUTER_WINDOW_OFFSET,
                   window_stride: int = ROUTER_WINDOW_STRIDE):
    """Build the router tier's generator workload (connects everywhere).

    The router is the connector of every channel: it waits for all
    shards and clients to publish their channel ids, attests-and-joins
    each (the SM refuses any peer whose launch measurement differs from
    the expected one), then forwards frames until every client has
    disconnected -- at which point it broadcasts SHUTDOWN to the shards
    and returns its statistics.

    Reply ordering: per client, replies flow back strictly in request
    order (a FIFO of :class:`_Pending` slots); per shard, the SPSC ring
    guarantees reply order matches request order, which is what makes
    the shard FIFO sound.  A shard that stops replying while owing
    replies for ``idle_limit`` consecutive polls -- or whose ring fails
    a clamp check -- is declared down: every owed and future request for
    its slots fails fast with ``-ERR SHARDDOWN`` (recorded as a typed
    :class:`~repro.errors.ShardDown` in the stats).
    """

    def workload(ctx):
        dram_base = ctx.session.layout.dram_base
        peer_keys = [("shard", i) for i in range(shards)] + \
                    [("client", i) for i in range(clients)]
        while any(key not in channel_boxes for key in peer_keys):
            yield  # peers still creating their channels
        endpoints: dict = {}
        for index, key in enumerate(peer_keys):
            kind = key[0]
            endpoints[key] = ChannelEndpoint.connect(
                ctx, channel_boxes[key],
                dram_base + window_offset + index * window_stride,
                shard_measurement if kind == "shard" else client_measurement,
            )
            # Tell the creator its channel is fully open (a NOTIFY on a
            # half-open channel is refused by the SM, so peers must not
            # ring before we have joined).
            channel_boxes[("joined",) + key] = True
        slot_map = SlotMap(shards)
        router = SlotRouter(slot_map)

        pending = {c: collections.deque() for c in range(clients)}
        # Ledger mark separating cluster bring-up (creates, attestation,
        # connects, shard preloads) from steady-state serving -- the
        # same split redis_benchmark's serving_cycles makes.
        setup_done_total = ctx.ledger.total
        shard_fifo = {s: collections.deque() for s in range(shards)}
        outbox = {s: collections.deque() for s in range(shards)}
        reply_outbox = {c: collections.deque() for c in range(clients)}
        shard_idle = [0] * shards
        shard_down: dict = {}  # shard -> ShardDown
        client_done = [False] * clients
        stats = {
            "routed": 0, "replies": 0, "mget_splits": 0, "local_errors": 0,
            "per_shard_requests": [0] * shards, "shard_errors": [],
            "setup_done_total": setup_done_total,
        }

        def shard_error_reply(shard: int) -> bytes:
            return resp_error(f"SHARDDOWN shard {shard} is unreachable")

        def mark_shard_down(shard: int, reason: str) -> None:
            if shard in shard_down:
                return
            error = ShardDown(shard, reason=reason)
            shard_down[shard] = error
            stats["shard_errors"].append(error)
            reply = shard_error_reply(shard)
            for client, slot, _indices in shard_fifo[shard]:
                slot.fail(reply)
            shard_fifo[shard].clear()
            outbox[shard].clear()

        def route_frame(client: int, frame: bytes) -> None:
            parts = resp_decode_command(bytes(frame))
            ctx.compute(ROUTER_ROUTE_CYCLES)
            plan = router.plan(parts)
            if plan.error is not None:
                stats["local_errors"] += 1
                slot = _Pending(0, 0)
                slot.fail(plan.error)
                pending[client].append(slot)
                return
            stats["routed"] += 1
            if plan.is_split:
                stats["mget_splits"] += 1
            slot = _Pending(len(plan.targets), plan.key_count)
            pending[client].append(slot)
            for shard, sub_parts, indices in plan.targets:
                stats["per_shard_requests"][shard] += 1
                if shard in shard_down:
                    slot.fail(shard_error_reply(shard))
                    continue
                outbox[shard].append(resp_encode_command(sub_parts))
                shard_fifo[shard].append((client, slot, indices))

        def flush_shards(force: bool) -> bool:
            """Forward queued requests shard-wards (credit-limited)."""
            flushed = False
            for shard in range(shards):
                queue = outbox[shard]
                if not queue or shard in shard_down:
                    continue
                if not force and len(queue) < reply_flush:
                    continue
                ctx.compute(
                    CHANNEL_TX_BATCH_CYCLES + len(queue) * CHANNEL_TX_MSG_CYCLES
                )
                try:
                    sent = endpoints[("shard", shard)].send_many(queue)
                except (ChannelCorrupt, ChannelError):
                    mark_shard_down(shard, "send failed: channel corrupt/closed")
                    continue
                if sent:
                    flushed = True
                    for _ in range(sent):
                        queue.popleft()
            return flushed

        def flush_replies(force: bool) -> bool:
            """Release completed replies, in request order per client.

            A doorbell wake costs the woken client a full world switch,
            so below ``reply_flush`` ready replies the batch is held back
            (hysteresis against one-reply ping-pong) -- unless ``force``,
            which flushes everything before the router parks, so held
            replies can never deadlock the run.
            """
            flushed = False
            for client in range(clients):
                queue = pending[client]
                ready = reply_outbox[client]
                while queue and queue[0].reply is not None:
                    ready.append(queue.popleft().reply)
                if not ready or (not force and len(ready) < reply_flush):
                    continue
                ctx.compute(
                    CHANNEL_TX_BATCH_CYCLES + len(ready) * CHANNEL_TX_MSG_CYCLES
                )
                try:
                    sent = endpoints[("client", client)].send_many(ready)
                except ChannelCorrupt:
                    client_done[client] = True
                    queue.clear()
                    ready.clear()
                    continue
                if sent:
                    flushed = True
                    stats["replies"] += sent
                    for _ in range(sent):
                        ready.popleft()
            return flushed

        while True:
            progress = False
            # 1. Drain client requests (a misbehaving client is dropped,
            #    not fatal: its ring bytes are untrusted).
            for client in range(clients):
                if client_done[client]:
                    continue
                endpoint = endpoints[("client", client)]
                try:
                    frames = endpoint.recv_many(notify=True)
                except ChannelCorrupt:
                    client_done[client] = True
                    pending[client].clear()
                    reply_outbox[client].clear()
                    continue
                if frames:
                    progress = True
                    ctx.compute(
                        CHANNEL_RX_BATCH_CYCLES
                        + len(frames) * CHANNEL_RX_MSG_CYCLES
                    )
                for frame in frames:
                    parts = resp_decode_command(bytes(frame))
                    if parts and bytes(parts[0]).upper() == DISCONNECT:
                        client_done[client] = True
                        continue
                    route_frame(client, frame)
            # 2. Forward queued requests shard-wards (credit-limited,
            #    threshold-batched like the reply path: waking a shard
            #    for a single request wastes a world switch).
            if flush_shards(force=False):
                progress = True
            # 3. Collect shard replies, fold into pending slots.
            for shard in range(shards):
                if shard in shard_down:
                    continue
                try:
                    frames = endpoints[("shard", shard)].recv_many(notify=True)
                except ChannelCorrupt:
                    mark_shard_down(shard, "reply ring failed a clamp check")
                    continue
                if frames:
                    progress = True
                    shard_idle[shard] = 0
                    ctx.compute(
                        CHANNEL_RX_BATCH_CYCLES
                        + len(frames) * CHANNEL_RX_MSG_CYCLES
                    )
                    for frame in frames:
                        client, slot, indices = shard_fifo[shard].popleft()
                        ctx.compute(ROUTER_FORWARD_CYCLES)
                        slot.complete_part(indices, frame)
                elif shard_fifo[shard] and not outbox[shard]:
                    shard_idle[shard] += 1
                    if shard_idle[shard] >= idle_limit:
                        mark_shard_down(
                            shard,
                            f"no replies in {idle_limit} polls with "
                            f"{len(shard_fifo[shard])} owed",
                        )
                        progress = True
            # 4. Release completed replies (threshold-batched).
            if flush_replies(force=False):
                progress = True
            # 5. Done?
            if all(client_done) and not any(pending[c] for c in range(clients)) \
                    and not any(reply_outbox[c] for c in range(clients)):
                break
            # Drain until quiescent before parking: a world switch costs
            # tens of thousands of cycles (SM save/restore, stage-2 TLB
            # flush), so the router keeps looping while any ring is
            # moving and only parks once a full pass found nothing to do
            # -- after force-flushing any held-back reply batches, so
            # hysteresis can never deadlock the pipeline.
            if not progress:
                forced = flush_shards(force=True)
                forced = flush_replies(force=True) or forced
                if forced:
                    continue
                ctx.deliver_pending_irqs()
                yield WAIT_DOORBELL

        # Shutdown phase: stop the surviving shards, await their BYEs.
        shutdown_frame = resp_encode_command([SHUTDOWN])
        for shard in range(shards):
            if shard in shard_down:
                continue
            endpoint = endpoints[("shard", shard)]
            try:
                while not endpoint.send(shutdown_frame):
                    ctx.deliver_pending_irqs()
                    yield WAIT_DOORBELL
            except (ChannelCorrupt, ChannelError):
                mark_shard_down(shard, "shutdown send failed")
                continue
            idle = 0
            acked = False
            while not acked and idle < idle_limit:
                try:
                    frames = endpoint.recv_many(notify=False)
                except ChannelCorrupt:
                    break
                if frames:
                    acked = any(f == b"+BYE\r\n" for f in frames)
                    if acked:
                        break
                idle += 1
                ctx.deliver_pending_irqs()
                yield WAIT_DOORBELL
        stats["doorbells"] = sum(e.doorbells_rung for e in endpoints.values())
        stats["shards_down"] = sorted(shard_down)
        return stats

    return workload


# ---------------------------------------------------------------------------
# Client CVM workload + deterministic load generator
# ---------------------------------------------------------------------------

class LoadGenerator:
    """Deterministic mixed GET/SET/MGET request stream.

    Seeded LCG (no ``random`` module: perf-harness runs are golden-
    pinned, so the stream must be bit-stable across processes).  The
    mix percentages and keyspace shape the slot distribution the
    cluster sees; keys are ``key:<n>`` uniform over ``keyspace``.
    """

    _MULTIPLIER = 6364136223846793005
    _INCREMENT = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int, keyspace: int = 128, value_size: int = 16,
                 get_pct: int = 60, set_pct: int = 30, mget_keys: int = 3):
        if not 0 <= get_pct + set_pct <= 100:
            raise ValueError("mix percentages must sum to at most 100")
        self._state = (seed * 2 + 1) & self._MASK
        self.keyspace = keyspace
        self.value = "v" * value_size
        self.get_pct = get_pct
        self.set_pct = set_pct
        self.mget_keys = mget_keys

    def _rand(self, bound: int) -> int:
        self._state = (
            self._state * self._MULTIPLIER + self._INCREMENT
        ) & self._MASK
        return (self._state >> 33) % bound

    def next(self) -> tuple:
        """The next ``(command_parts, op_name)`` of the stream."""
        roll = self._rand(100)
        if roll < self.get_pct:
            return ["GET", f"key:{self._rand(self.keyspace)}"], "GET"
        if roll < self.get_pct + self.set_pct:
            return (
                ["SET", f"key:{self._rand(self.keyspace)}", self.value],
                "SET",
            )
        keys = [f"key:{self._rand(self.keyspace)}" for _ in range(self.mget_keys)]
        return ["MGET", *keys], "MGET"


def cluster_client(client_id: int, channel_boxes: dict, *,
                   router_measurement: bytes, requests: int,
                   pipeline: int = 8, generator: LoadGenerator | None = None,
                   keyspace: int = 128, value_size: int = 16,
                   window_offset: int = PEER_WINDOW_OFFSET):
    """Build one client connection's generator workload (channel creator).

    Issues up to ``pipeline`` requests in flight: encode + ring-write a
    batch (one doorbell for all of it), then drain replies, recording
    per-request latency in cycles.  Backpressure is the ring's credit
    check -- a refused send parks the client on the doorbell instead of
    spinning.  Returns latency/err statistics for percentile analysis.
    """

    def workload(ctx):
        endpoint = ChannelEndpoint.create(
            ctx, ctx.session.layout.dram_base + window_offset, WINDOW_SIZE,
            router_measurement,
        )
        channel_boxes[("client", client_id)] = endpoint.channel_id
        while ("joined", "client", client_id) not in channel_boxes:
            yield  # router has not connected yet; a doorbell would be refused
        gen = generator or LoadGenerator(
            seed=client_id + 1, keyspace=keyspace, value_size=value_size
        )
        in_flight: collections.deque = collections.deque()
        staged = None  # generated but refused by backpressure
        issued = completed = 0
        latencies: list = []
        errors: list = []
        ops: dict = {}
        while completed < requests:
            sent_any = False
            while issued < requests and len(in_flight) < pipeline:
                if staged is None:
                    parts, op_name = gen.next()
                    ctx.compute(CLIENT_ENCODE_CYCLES)
                    staged = (resp_encode_command(parts), op_name)
                if not endpoint.send(staged[0], notify=False):
                    break  # out of credits: the ring is the throttle
                ops[staged[1]] = ops.get(staged[1], 0) + 1
                in_flight.append((ctx.ledger.total, staged[1]))
                staged = None
                issued += 1
                sent_any = True
            if sent_any:
                endpoint.ring_doorbell()
            replies = endpoint.recv_many(notify=True)
            if replies:
                ctx.compute(
                    CHANNEL_RX_BATCH_CYCLES
                    + len(replies) * CHANNEL_RX_MSG_CYCLES
                )
            for frame in replies:
                issue_cycle, op_name = in_flight.popleft()
                latencies.append(ctx.ledger.total - issue_cycle)
                value, _ = resp_decode_reply(bytes(frame))
                if isinstance(value, ResponseError):
                    errors.append((op_name, value.message))
                completed += 1
            # Same drain-until-quiescent policy as the router: only give
            # up the hart (and pay the world switch) once neither issuing
            # nor draining can make progress.
            if not sent_any and not replies:
                ctx.deliver_pending_irqs()
                yield WAIT_DOORBELL
        while not endpoint.send(resp_encode_command([DISCONNECT])):
            ctx.deliver_pending_irqs()
            yield WAIT_DOORBELL
        return {
            "client": client_id, "completed": completed,
            "latencies": latencies, "errors": errors, "ops": ops,
            "doorbells": endpoint.doorbells_rung,
        }

    return workload
