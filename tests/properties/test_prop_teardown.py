"""Property-based test: CVM teardown scrubs what the CVM owns and frees what it drew.

``SecureMonitor.ecall_destroy`` scrubs only the pages of the blocks the
CVM's allocator drew.  Over generated lifecycles on two small-pool hosts
-- cached and uncached allocators, first touches that reach stage-3
expansions, reclaimed pages, channels opened and closed, migrations out
and back -- every destroy (explicit, by export, or by a refused import)
must scrub exactly the pages the whole-pool owner filter names, and
leave every ``free``-tagged page in a block on the free list.
"""

from hypothesis import event, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.errors import ReproError
from repro.mem.physmem import PAGE_SIZE
from repro.sm.alloc import PoolExhausted
from repro.sm.migration import derive_migration_key
from repro.sm.secmem import OWNER_FREE
from repro.verify import check_invariants
from tests.conftest import make_machine

BLOCK = 4 * PAGE_SIZE
#: Where first touches land: clear of the image and of channel windows.
TOUCH_BASE = 8 << 20
WINDOW_BASE = 4 << 20
KEY = derive_migration_key(b"teardown-fleet", b"src-nonce", b"dst-nonce")


def _host(use_page_cache: bool):
    machine = make_machine(
        secure_block_size=BLOCK, initial_pool_bytes=16 * BLOCK,
        use_page_cache=use_page_cache,
    )
    machine.hypervisor.expand_chunk = 2 * BLOCK
    monitor = machine.monitor
    destroy = monitor.ecall_destroy

    def checked_destroy(cvm_id):
        pool, dram = monitor.pool, machine.dram
        owned = pool.pages_owned_by(cvm_id)
        channels = monitor.channels
        windows = {
            channel.window_pa + offset
            for channel in map(channels.channels.get, channels.channels_of(cvm_id))
            for offset in range(0, channel.window_size, PAGE_SIZE)
        }
        zeroed = []
        zero_range = dram.zero_range

        def recording(addr, size):
            zeroed.extend(range(addr, addr + size, PAGE_SIZE))
            zero_range(addr, size)

        dram.zero_range = recording
        try:
            destroy(cvm_id)
        finally:
            del dram.zero_range
        scrubbed = [page for page in zeroed if page not in windows]
        assert sorted(scrubbed) == sorted(owned)
        event(f"destroy with {'no' if not windows else 'open'} channel windows")
        event(f"destroy on a host {'with' if pool.regions[1:] else 'without'} stage-3 expansions")
        listed = {page for block in pool.free_list_blocks() for page in block.pages()}
        assert set(pool.pages_owned_by(OWNER_FREE)) == listed
        assert pool.pages_owned_by(cvm_id) == []
        assert check_invariants(machine) == []

    monitor.ecall_destroy = checked_destroy
    return machine


class Teardown(RuleBasedStateMachine):
    """Two hosts; CVMs launch, touch, reclaim, pair up, migrate and die."""

    @initialize(use_page_cache=st.booleans())
    def boot(self, use_page_cache):
        self.hosts = [_host(use_page_cache), _host(use_page_cache)]
        self.live: list = []  # (host index, session)
        self.channels: list = []  # (host index, channel id)
        for host in (0, 1):
            self.launch(host, 1)

    def _pick(self, data):
        return data.draw(st.sampled_from(self.live))

    @precondition(lambda self: len(self.live) < 5)
    @rule(host=st.integers(0, 1), image_pages=st.integers(0, 5))
    def launch(self, host, image_pages):
        try:
            session = self.hosts[host].launch_confidential_vm(
                image=b"teardown" * (image_pages * PAGE_SIZE // 8)
            )
        except ReproError:
            return  # the small pool refused a metadata block: contained
        self.live.append((host, session))

    @precondition(lambda self: self.live)
    @rule(data=st.data(), first=st.integers(0, 40), count=st.integers(1, 24))
    def touch(self, data, first, count):
        host, session = self._pick(data)
        base = session.layout.dram_base + TOUCH_BASE + first * PAGE_SIZE

        def workload(ctx):
            for page in range(count):
                ctx.store(base + page * PAGE_SIZE, page + 1)

        try:
            self.hosts[host].run(session, workload)
        except PoolExhausted:
            pass  # SM metadata is never recycled: a table page found no block

    @precondition(lambda self: self.live)
    @rule(data=st.data(), first=st.integers(0, 40), count=st.integers(1, 8))
    def reclaim(self, data, first, count):
        host, session = self._pick(data)
        gpa = session.layout.dram_base + TOUCH_BASE + first * PAGE_SIZE
        self.hosts[host].monitor.ecall_reclaim_pages(session.cvm.cvm_id, 0, gpa, count)

    @precondition(lambda self: len(self.live) >= 2)
    @rule(data=st.data(), pages=st.integers(1, BLOCK // PAGE_SIZE), slot=st.integers(0, 3))
    def open_channel(self, data, pages, slot):
        (host, a), (other, b) = data.draw(
            st.lists(st.sampled_from(self.live), min_size=2, max_size=2, unique_by=id)
        )
        if host != other:
            return  # channels are SM-local
        monitor = self.hosts[host].monitor
        gpa = WINDOW_BASE + slot * BLOCK
        try:
            channel_id = monitor.ecall_channel_create(
                a.cvm.cvm_id, a.layout.dram_base + gpa, pages * PAGE_SIZE, b.cvm.measurement
            )
        except ReproError:
            return  # window already mapped, or no pool block left
        self.channels.append((host, channel_id))
        try:
            monitor.ecall_channel_connect(
                b.cvm.cvm_id, channel_id, b.layout.dram_base + gpa, a.cvm.measurement
            )
        except ReproError:
            pass  # the creator's end stays open, awaiting a peer

    @precondition(lambda self: self.channels)
    @rule(data=st.data())
    def close_channel(self, data):
        host, channel_id = data.draw(st.sampled_from(self.channels))
        self.channels.remove((host, channel_id))
        monitor = self.hosts[host].monitor
        creator = next(iter(monitor.channels.channels[channel_id].gpas))
        try:
            monitor.ecall_channel_close(creator, channel_id)
        except ReproError:
            pass  # an endpoint's destroy closed it already

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def migrate(self, data):
        host, session = self._pick(data)
        self.live.remove((host, session))
        blob = self.hosts[host].export_confidential_vm(session, KEY)
        try:
            arrived = self.hosts[1 - host].import_confidential_vm(blob, KEY)
        except ReproError:
            return  # refused on arrival: the partial CVM was destroyed
        self.live.append((1 - host, arrived))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def destroy(self, data):
        host, session = self._pick(data)
        self.live.remove((host, session))
        self.hosts[host].monitor.ecall_destroy(session.cvm.cvm_id)


Teardown.TestCase.settings = settings(deadline=None, stateful_step_count=30)
TestTeardown = Teardown.TestCase
