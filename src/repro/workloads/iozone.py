"""IOZone-like sequential file I/O benchmark (paper Fig. 4).

Models the path real IOZone takes on a 256 MB guest: records are written
through the VFS into the guest page cache (syscall + copy + page
bookkeeping costs); once the cache fills, writeback streams dirty data to
virtio-blk in batches, each batch paying the full device round trip --
bounce-buffer staging, a doorbell kick (VM exit), a blocking wait for the
completion interrupt (another exit), and the device-side DMA.  Reads of a
file that fits in the cache are pure memory; larger files stream from the
device with the same per-batch costs.

This reproduces the figure's shape: throughput is lower at small record
sizes (per-record syscall overhead), and the confidential VM's overhead
is negligible for cache-resident files but grows with file size as the
exit-heavy device path dominates.
"""

from __future__ import annotations

import dataclasses

from repro.cycles import Category
from repro.mem.physmem import PAGE_SIZE

#: Guest-side cost model (calibrated; see DESIGN.md section 5).
FILE_COPY_PER_BYTE = 0.8  # user<->pagecache copy on a 100 MHz in-order core
SYSCALL_CYCLES = 6_000  # read()/write() entry + VFS dispatch
PAGE_MGMT_CYCLES = 300  # per page-cache page: radix tree + dirty tracking

#: Writeback/readahead batch handed to virtio-blk.
IO_BATCH = 32 * 1024

#: Guest page cache available to one file (256 MB VM, ~half for cache).
DEFAULT_CACHE_BYTES = 128 << 20


@dataclasses.dataclass(frozen=True)
class IozoneResult:
    """One (file size, record size) cell of the IOZone matrix."""

    file_bytes: int
    record_bytes: int
    write_cycles: int
    read_cycles: int

    def throughput_kb_s(self, op: str, clock_hz: int) -> float:
        """KB/s for 'write' or 'read' at the given clock rate."""
        cycles = self.write_cycles if op == "write" else self.read_cycles
        seconds = cycles / clock_hz
        return (self.file_bytes / 1024) / seconds if seconds else 0.0


def _charge_record(ctx, record: int) -> None:
    """Guest-side cost of moving one record through the VFS."""
    pages = -(-record // PAGE_SIZE)
    ctx.compute(SYSCALL_CYCLES + PAGE_MGMT_CYCLES * pages)
    ctx.ledger.charge(Category.COPY, int(record * FILE_COPY_PER_BYTE))


def iozone_workload(file_bytes: int, record_bytes: int, cache_bytes: int = DEFAULT_CACHE_BYTES,
                    queue_depth: int = 1):
    """Build the guest workload for one IOZone cell.

    Returns sequential-write then sequential-read cycle counts (the
    read follows the write on the same file, as IOZone's default pass
    order does).

    ``queue_depth`` > 1 turns on the batched data plane: writeback and
    readahead stage that many ``IO_BATCH`` requests and submit them
    through :meth:`VirtioBlkDriver.write_many`/``read_many`` -- one
    doorbell kick and one completion wait per batch instead of per
    request.  Depth 1 is the naive path, byte-for-byte the pre-batching
    cycle behaviour (the paper-calibration experiments rely on that).
    """

    def workload(ctx):
        blk = ctx.blk_driver()
        ledger = ctx.ledger
        staged_writes: list = []
        staged_reads: list = []

        def stage_write(sector, batch):
            if queue_depth <= 1:
                blk.write(sector, batch)
                return
            staged_writes.append((sector, batch))
            if len(staged_writes) >= queue_depth:
                blk.write_many(staged_writes)
                staged_writes.clear()

        def flush_writes():
            if staged_writes:
                blk.write_many(staged_writes)
                staged_writes.clear()

        def stage_read(sector, batch):
            if queue_depth <= 1:
                blk.read(sector, batch)
                return
            staged_reads.append((sector, batch))
            if len(staged_reads) >= queue_depth:
                blk.read_many(staged_reads)
                staged_reads.clear()

        def flush_reads():
            if staged_reads:
                blk.read_many(staged_reads)
                staged_reads.clear()
        # A small hot buffer the record copies run through; its TLB entries
        # are what world-switch flushes invalidate on the guest side.
        buf_base = ctx.session.layout.dram_base + (96 << 20)
        buf_pages = [buf_base + i * PAGE_SIZE for i in range(32)]
        for page in buf_pages:
            ctx.touch(page)

        # ---- sequential write ----
        start = ledger.total
        cached = 0  # bytes resident in the page cache
        dirty = 0
        disk_sector = 0
        offset = 0
        record_index = 0
        while offset < file_bytes:
            record = min(record_bytes, file_bytes - offset)
            _charge_record(ctx, record)
            ctx.touch(buf_pages[record_index % len(buf_pages)])
            cached += record
            dirty += record
            # Page cache full: writeback streams dirty data to the device.
            while cached > cache_bytes and dirty > 0:
                batch = min(IO_BATCH, dirty)
                stage_write(disk_sector, batch)
                disk_sector += batch // 512
                dirty -= batch
                cached -= batch
            offset += record
            record_index += 1
        flush_writes()
        write_cycles = ledger.total - start

        # Untimed sync so the read phase has the file on "disk" (IOZone
        # without -e excludes the final flush from the write timing; the
        # kernel performs it in the background before the read pass).
        sync_start = ledger.total
        while dirty > 0:
            batch = min(IO_BATCH, dirty)
            stage_write(disk_sector, batch)
            disk_sector += batch // 512
            dirty -= batch
        flush_writes()
        sync_cycles = ledger.total - sync_start

        # ---- sequential read ----
        from_device = file_bytes > cache_bytes
        start = ledger.total
        offset = 0
        pending_from_device = 0
        disk_sector = 0
        record_index = 0
        while offset < file_bytes:
            record = min(record_bytes, file_bytes - offset)
            if from_device:
                # Readahead fills the cache in device batches.
                while pending_from_device < record:
                    batch = min(IO_BATCH, file_bytes - offset - pending_from_device)
                    stage_read(disk_sector, batch)
                    disk_sector += batch // 512
                    pending_from_device += batch
                pending_from_device -= record
            _charge_record(ctx, record)
            ctx.touch(buf_pages[record_index % len(buf_pages)])
            offset += record
            record_index += 1
        flush_reads()
        read_cycles = ledger.total - start

        return {
            "write_cycles": write_cycles,
            "read_cycles": read_cycles,
            "sync_cycles": sync_cycles,
        }

    return workload


def iozone_run(machine, session, file_bytes: int, record_bytes: int,
               cache_bytes: int = DEFAULT_CACHE_BYTES) -> IozoneResult:
    """Run one IOZone cell on ``session`` (needs virtio-blk attached)."""
    result = machine.run(
        session, iozone_workload(file_bytes, record_bytes, cache_bytes)
    )
    inner = result["workload_result"]
    return IozoneResult(
        file_bytes=file_bytes,
        record_bytes=record_bytes,
        write_cycles=inner["write_cycles"],
        read_cycles=inner["read_cycles"],
    )
