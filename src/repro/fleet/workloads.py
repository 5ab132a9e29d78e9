"""Per-epoch serving bursts for fleet CVMs.

Each fleet CVM serves one *burst* per orchestrator epoch: a bounded
generator workload for :meth:`Machine.run_concurrent` built fresh each
epoch, so a CVM can be parked, migrated and resumed between any two
epochs without a generator holding stale machine references.

Every burst maintains a **persistent operation counter in guest
memory** (a u64 at a fixed private-DRAM offset).  The counter survives
across epochs only through the CVM's private pages -- after a live
migration it travelled inside the encrypted blob -- so the orchestrator
comparing the returned counter against its host-side expectation is an
end-to-end memory-integrity check of the whole park/export/import/resume
pipeline, not just a liveness probe.

The ping/pong pair bursts are patience-bounded like the fault campaign's
tolerant workloads: a peer that died contained (fault injection, failed
migration) makes its partner give up gracefully within the epoch, never
wedge the host's scheduler rotation.
"""

from __future__ import annotations

from repro.errors import ChannelCorrupt
from repro.ipc.endpoint import ChannelEndpoint, ChannelError
from repro.machine import WAIT_DOORBELL

#: Private-DRAM offset of the persistent op counter (demand-allocated
#: page, far from the image but below the channel window).
COUNTER_OFFSET = 0x0040_0000

#: Private-DRAM offset of the pair bursts' channel window.
WINDOW_OFFSET = 0x0200_0000

#: Channel window size for pair bursts (small: two 8 KB rings).
WINDOW_SIZE = 16 * 1024

#: Scheduler rotations a pair burst tolerates without progress before
#: giving up on its peer for this epoch.
PATIENCE = 200


def _counter_gva(ctx) -> int:
    return ctx.session.layout.dram_base + COUNTER_OFFSET


def _window_gva(ctx) -> int:
    return ctx.session.layout.dram_base + WINDOW_OFFSET


def _bump_counter(ctx, by: int = 1) -> int:
    """Increment the persistent guest-memory op counter; returns it."""
    gva = _counter_gva(ctx)
    value = ctx.load(gva) + by
    ctx.store(gva, value)
    return value


def kv_burst(ops: int, working_set_pages: int = 12,
             compute_cycles: int = 20_000):
    """A redis-like serving burst: touch hot keys, compute, count.

    Each operation strides the CVM's hot working set (stressing the
    stage-2/TLB path the paper measures), burns a request's worth of
    compute, and bumps the persistent counter.  Returns
    ``{"ops", "counter"}``.
    """

    def workload(ctx):
        base = ctx.session.layout.dram_base + 0x0080_0000
        counter = ctx.load(_counter_gva(ctx))
        for op in range(ops):
            page = (counter + op) % working_set_pages
            ctx.touch(base + page * 4096)
            ctx.compute(compute_cycles)
            counter = _bump_counter(ctx)
            yield
        return {"ops": ops, "counter": counter}

    return workload


def file_burst(ops: int, chunk: int = 4096):
    """An iozone-like serving burst: sequential write/read-back stream.

    Each operation writes ``chunk`` bytes to a rolling file offset,
    reads them back (so corruption would surface as a mismatch), and
    bumps the persistent counter.  Returns ``{"ops", "counter",
    "mismatches"}``.
    """

    # Byte i of an operation's payload is (first + i) & 0xFF: a slice of
    # one repeating 0..255 ramp long enough for any starting byte.
    ramp = bytes(range(256)) * (chunk // 256 + 2)

    def workload(ctx):
        base = ctx.session.layout.dram_base + 0x0100_0000
        counter = ctx.load(_counter_gva(ctx))
        mismatches = 0
        for op in range(ops):
            offset = ((counter + op) % 16) * chunk
            first = (counter + op) & 0xFF
            payload = ramp[first : first + chunk]
            ctx.write_bytes(base + offset, payload)
            if ctx.read_bytes(base + offset, chunk) != payload:
                mismatches += 1
            counter = _bump_counter(ctx)
            yield
        return {"ops": ops, "counter": counter, "mismatches": mismatches}

    return workload


def pair_server_burst(expected_peer_measurement: bytes, rounds: int,
                      channel_box: dict):
    """The pong half of a co-located pair: create, echo, count.

    Creates this epoch's channel (gated on the peer's launch
    measurement), echoes ``rounds`` messages with bounded patience, and
    bumps the counter once per echo.  The *client* closes the channel;
    creating afresh next epoch needs the window unmapped, which either
    the close or a migration teardown guarantees.  Returns ``{"ops",
    "counter", "degraded"}`` -- degraded bursts served fewer (possibly
    zero) echoes because the peer stopped participating.
    """

    def workload(ctx):
        try:
            endpoint = ChannelEndpoint.create(
                ctx, _window_gva(ctx), WINDOW_SIZE, expected_peer_measurement
            )
        except ChannelError:
            return {"ops": 0, "counter": ctx.load(_counter_gva(ctx)),
                    "degraded": True}
        channel_box["channel_id"] = endpoint.channel_id
        yield
        echoed = idle = 0
        counter = ctx.load(_counter_gva(ctx))
        while echoed < rounds and idle < PATIENCE:
            try:
                message = endpoint.recv()
            except (ChannelCorrupt, ChannelError):
                break
            if message is None:
                idle += 1
                ctx.deliver_pending_irqs()
                # Park on the doorbell (the executor's wake-all backstop
                # and the patience bound both keep a dead peer survivable).
                yield WAIT_DOORBELL
                continue
            sent = False
            for _ in range(PATIENCE):
                try:
                    sent = endpoint.send(message)
                except (ChannelCorrupt, ChannelError):
                    break
                if sent:
                    break
                yield
            if not sent:
                break
            idle = 0
            echoed += 1
            counter = _bump_counter(ctx)
            yield
        if echoed < rounds:
            # Degraded epoch: the peer stopped participating, so it will
            # not close the channel -- tear it down unilaterally or next
            # epoch's create finds the window still mapped.
            try:
                endpoint.close()
            except (ChannelCorrupt, ChannelError):
                pass
        return {"ops": echoed, "counter": counter,
                "degraded": echoed < rounds}

    return workload


def pair_client_burst(channel_box: dict, expected_creator_measurement: bytes,
                      rounds: int, message_size: int = 256):
    """The ping half of a co-located pair: connect, ping, close, count."""

    def workload(ctx):
        counter = ctx.load(_counter_gva(ctx))
        waited = 0
        while "channel_id" not in channel_box:
            waited += 1
            if waited >= PATIENCE:
                return {"ops": 0, "counter": counter, "degraded": True}
            yield
        try:
            endpoint = ChannelEndpoint.connect(
                ctx, channel_box["channel_id"], _window_gva(ctx),
                expected_creator_measurement,
            )
        except ChannelError:
            return {"ops": 0, "counter": counter, "degraded": True}
        payload = bytes(i & 0xFF for i in range(message_size))
        completed = idle = 0
        try:
            for _ in range(rounds):
                while not endpoint.send(payload):
                    idle += 1
                    if idle >= PATIENCE:
                        raise TimeoutError
                    yield
                echo = None
                while echo is None:
                    echo = endpoint.recv()
                    if echo is None:
                        idle += 1
                        if idle >= PATIENCE:
                            raise TimeoutError
                        ctx.deliver_pending_irqs()
                        yield WAIT_DOORBELL
                idle = 0
                completed += 1
                counter = _bump_counter(ctx)
                yield
        except (ChannelCorrupt, ChannelError, TimeoutError):
            pass
        # Close even after a timeout or fail-stop: next epoch's create
        # needs the window unmapped, and close is the unilateral teardown.
        try:
            endpoint.close()
        except (ChannelCorrupt, ChannelError):
            pass  # peer or SM already tore the channel down
        return {"ops": completed, "counter": counter,
                "degraded": completed < rounds}

    return workload
