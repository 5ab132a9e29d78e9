"""Batched virtio data plane: exits, interrupts, slots, determinism.

End-to-end (full Machine) pins for the PR-8 batching semantics: a
``*_many`` batch costs one doorbell kick and -- with EVENT_IDX-style
suppression -- one interrupt; SWIOTLB slots balance to zero across every
batch (including refused ones); refused completions surface as typed
:class:`~repro.errors.VirtioIoError` with the device status attached;
and the batched ablation is bit-deterministic run to run.
"""

import pytest

from repro.errors import VirtioIoError
from repro.machine import Machine, MachineConfig

_IMAGE = b"batch-guest" * 80


def _blk_machine(event_idx: bool = True):
    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=_IMAGE)
    machine.attach_virtio_block(session, event_idx=event_idx)
    return machine, session


def _net_machine(event_idx: bool = True):
    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=_IMAGE)
    machine.attach_virtio_net(session, event_idx=event_idx)
    return machine, session


class TestBatchKickSemantics:
    def test_write_many_one_kick_one_irq(self):
        machine, session = _blk_machine(event_idx=True)

        def workload(ctx):
            blk = ctx.blk_driver()
            blk.write_many([(i * 8, bytes(512)) for i in range(8)])

        machine.run(session, workload)
        device = session.virtio_blk
        assert device.kicks == 1
        assert device.drains == 1
        assert device.completions == 8
        assert device.irqs_raised == 1  # suppressed: one pulse per drain

    def test_naive_writes_kick_and_interrupt_per_request(self):
        machine, session = _blk_machine(event_idx=False)

        def workload(ctx):
            blk = ctx.blk_driver()
            for i in range(8):
                blk.write(i * 8, bytes(512))

        machine.run(session, workload)
        device = session.virtio_blk
        assert device.kicks == 8
        assert device.irqs_raised == 8  # naive arm: one pulse per descriptor

    def test_batch_reduces_mmio_exits_for_same_work(self):
        counts = {}
        for arm, event_idx, depth in (("naive", False, 1), ("batched", True, 8)):
            machine, session = _blk_machine(event_idx=event_idx)

            def workload(ctx, depth=depth):
                blk = ctx.blk_driver()
                requests = [(i * 8, bytes(512)) for i in range(8)]
                if depth == 1:
                    for sector, payload in requests:
                        blk.write(sector, payload)
                else:
                    blk.write_many(requests)

            exits_before = machine.hypervisor.mmio_exits
            machine.run(session, workload)
            counts[arm] = machine.hypervisor.mmio_exits - exits_before
        assert counts["naive"] == 8
        assert counts["batched"] == 1
        assert counts["naive"] / counts["batched"] >= 2

    def test_write_many_read_many_roundtrip(self):
        machine, session = _blk_machine()

        def workload(ctx):
            blk = ctx.blk_driver()
            blk.write_many([(0, b"a" * 512), (8, b"b" * 512)])
            return blk.read_many([(0, 512), (8, 512)])

        payloads = machine.run(session, workload)["workload_result"]
        assert payloads == [b"a" * 512, b"b" * 512]

    def test_net_send_many_one_kick(self):
        machine, session = _net_machine()
        session.virtio_net.host_handler = lambda frame, header: []

        def workload(ctx):
            net = ctx.net_driver()
            net.send_many([b"frame-%d" % i for i in range(6)])

        machine.run(session, workload)
        device = session.virtio_net
        assert device.kicks == 1
        assert device.tx_frames == 6
        assert device.irqs_raised == 1

    def test_recv_many_drains_backlog(self):
        machine, session = _net_machine()

        def workload(ctx):
            net = ctx.net_driver()
            net.post_rx_buffers(8)
            for i in range(5):
                session.virtio_net.host_deliver(b"rx-%d" % i)
            ctx.deliver_pending_irqs()
            return net.recv_many()

        frames = machine.run(session, workload)["workload_result"]
        assert frames == [b"rx-%d" % i for i in range(5)]
        # Buffers were batch re-posted: the ring is back at full strength.
        assert len(session.virtio_net.queues[1].available) == 8


class TestBatchSlotBalance:
    def test_slots_balance_after_batches(self):
        machine, session = _blk_machine()

        def workload(ctx):
            blk = ctx.blk_driver()
            free_before = blk.swiotlb.free_slots
            blk.write_many([(i * 8, bytes(2048)) for i in range(6)])
            blk.read_many([(0, 2048), (8, 2048)])
            return free_before - blk.swiotlb.free_slots

        leaked = machine.run(session, workload)["workload_result"]
        assert leaked == 0

    def test_slots_released_when_batch_refused(self):
        machine, session = _blk_machine()

        def workload(ctx):
            blk = ctx.blk_driver()
            device = session.virtio_blk
            free_before = blk.swiotlb.free_slots
            try:
                blk.write_many([
                    (0, bytes(512)),
                    (device.capacity_sectors + 1, bytes(512)),  # refused
                ])
            except VirtioIoError as refusal:
                error = refusal
            else:
                error = None
            return error, free_before - blk.swiotlb.free_slots

        error, leaked = machine.run(session, workload)["workload_result"]
        assert error is not None and error.status == 1  # STATUS_IOERR
        assert leaked == 0  # every bounce slot released despite the refusal


class TestBatchDeterminism:
    def test_iozone_batched_arm_is_deterministic(self):
        from repro.workloads.iozone import iozone_workload

        totals = []
        for _ in range(2):
            machine, session = _blk_machine()
            machine.run(session, iozone_workload(
                2 << 20, 64 << 10, cache_bytes=1 << 20, queue_depth=8))
            totals.append((machine.ledger.total,
                           session.virtio_blk.kicks,
                           session.virtio_blk.irqs_raised,
                           session.virtio_blk.io_errors))
        assert totals[0] == totals[1]

    def test_doorbell_ablation_is_deterministic(self):
        from repro.bench.ipc import run_doorbell_stream

        runs = [run_doorbell_stream(messages=64, burst=32, adaptive=True)
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0]["suppressed"] > 0

    def test_adaptive_doorbells_ring_at_least_2x_fewer(self):
        from repro.bench.ipc import run_doorbell_ablation

        result = run_doorbell_ablation(messages=128, burst=64)
        assert result["doorbell_reduction"] >= 2
