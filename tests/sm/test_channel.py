"""SM-brokered inter-CVM channels (repro.sm.channel)."""

import pytest

from repro.errors import EcallError, SecurityViolation, TrapRaised
from repro.isa.traps import AccessType
from repro.mem.physmem import PAGE_SIZE
from repro.sm.channel import ChannelState
from repro.sm.secmem import OWNER_FREE

IMAGE = b"channel-test-guest" * 64
WINDOW = 4 * PAGE_SIZE
OFFSET = 0x200_0000  # window GPA offset, far from demand-allocated pages


def _two_cvms(machine):
    a = machine.launch_confidential_vm(image=IMAGE)
    b = machine.launch_confidential_vm(image=IMAGE)
    return a, b


def _open_channel(machine, a, b, size=WINDOW):
    monitor = machine.monitor
    wa = a.layout.dram_base + OFFSET
    wb = b.layout.dram_base + OFFSET
    channel_id = monitor.ecall_channel_create(
        a.cvm.cvm_id, wa, size, b.cvm.measurement
    )
    monitor.ecall_channel_connect(b.cvm.cvm_id, channel_id, wb, a.cvm.measurement)
    return channel_id, wa, wb


def _translate(machine, cvm, gpa):
    return machine.monitor.translator.gpa_to_pa(cvm.hgatp_root, gpa, AccessType.LOAD)[0]


class TestLifecycle:
    def test_identical_images_measure_identically(self, machine):
        a, b = _two_cvms(machine)
        assert a.cvm.measurement == b.cvm.measurement

    def test_create_maps_window_into_creator(self, machine):
        a, b = _two_cvms(machine)
        wa = a.layout.dram_base + OFFSET
        channel_id = machine.monitor.ecall_channel_create(
            a.cvm.cvm_id, wa, WINDOW, b.cvm.measurement
        )
        channel = machine.monitor.channels.channels[channel_id]
        assert channel.state is ChannelState.CREATED
        assert _translate(machine, a.cvm, wa) == channel.window_pa

    def test_connect_maps_same_frames_into_both(self, machine):
        a, b = _two_cvms(machine)
        channel_id, wa, wb = _open_channel(machine, a, b)
        channel = machine.monitor.channels.channels[channel_id]
        assert channel.state is ChannelState.CONNECTED
        for offset in range(0, WINDOW, PAGE_SIZE):
            pa_a = _translate(machine, a.cvm, wa + offset)
            pa_b = _translate(machine, b.cvm, wb + offset)
            assert pa_a == pa_b == channel.window_pa + offset

    def test_window_frames_owned_by_channel_not_cvms(self, machine):
        a, b = _two_cvms(machine)
        channel_id, _, _ = _open_channel(machine, a, b)
        channel = machine.monitor.channels.channels[channel_id]
        token = machine.monitor.channels.owner_token(channel_id)
        for offset in range(0, WINDOW, PAGE_SIZE):
            assert machine.monitor.pool.owner_of(channel.window_pa + offset) == token

    def test_data_written_by_one_readable_by_other(self, machine):
        a, b = _two_cvms(machine)
        channel_id, wa, wb = _open_channel(machine, a, b)
        pa = _translate(machine, a.cvm, wa)
        machine.dram.write(pa, b"cross-cvm-payload")
        assert machine.dram.read(_translate(machine, b.cvm, wb), 17) == b"cross-cvm-payload"

    def test_window_gpa_must_be_unmapped(self, machine):
        a, b = _two_cvms(machine)
        with pytest.raises(EcallError):
            machine.monitor.ecall_channel_create(
                a.cvm.cvm_id, a.layout.dram_base, WINDOW, b.cvm.measurement
            )

    def test_window_must_be_private_dram(self, machine):
        a, b = _two_cvms(machine)
        with pytest.raises(EcallError):
            machine.monitor.ecall_channel_create(
                a.cvm.cvm_id, a.layout.shared_base, WINDOW, b.cvm.measurement
            )

    def test_unfinalized_cvm_cannot_create(self, machine):
        a, b = _two_cvms(machine)
        raw_id = machine.monitor.ecall_create_cvm()
        with pytest.raises(ValueError):
            machine.monitor.ecall_channel_create(
                raw_id, machine.monitor.cvms[raw_id].layout.dram_base + OFFSET,
                WINDOW, b.cvm.measurement,
            )


class TestConnectGating:
    def test_wrong_peer_measurement_refused(self, machine):
        a, _ = _two_cvms(machine)
        other = machine.launch_confidential_vm(image=b"different-image" * 64)
        wa = a.layout.dram_base + OFFSET
        channel_id = machine.monitor.ecall_channel_create(
            a.cvm.cvm_id, wa, WINDOW, b"\xaa" * 32  # expects nobody real
        )
        with pytest.raises(SecurityViolation):
            machine.monitor.ecall_channel_connect(
                other.cvm.cvm_id, channel_id,
                other.layout.dram_base + OFFSET, a.cvm.measurement,
            )

    def test_wrong_creator_expectation_refused(self, machine):
        a, b = _two_cvms(machine)
        wa = a.layout.dram_base + OFFSET
        channel_id = machine.monitor.ecall_channel_create(
            a.cvm.cvm_id, wa, WINDOW, b.cvm.measurement
        )
        with pytest.raises(SecurityViolation):
            machine.monitor.ecall_channel_connect(
                b.cvm.cvm_id, channel_id,
                b.layout.dram_base + OFFSET, b"\xbb" * 32,
            )

    def test_third_cvm_cannot_join_connected_channel(self, machine):
        a, b = _two_cvms(machine)
        channel_id, _, _ = _open_channel(machine, a, b)
        third = machine.launch_confidential_vm(image=IMAGE)  # measurement matches!
        with pytest.raises(SecurityViolation):
            machine.monitor.ecall_channel_connect(
                third.cvm.cvm_id, channel_id,
                third.layout.dram_base + OFFSET, a.cvm.measurement,
            )

    def test_creator_cannot_connect_to_itself(self, machine):
        a, b = _two_cvms(machine)
        wa = a.layout.dram_base + OFFSET
        channel_id = machine.monitor.ecall_channel_create(
            a.cvm.cvm_id, wa, WINDOW, a.cvm.measurement
        )
        with pytest.raises(SecurityViolation):
            machine.monitor.ecall_channel_connect(
                a.cvm.cvm_id, channel_id, wa + WINDOW, a.cvm.measurement
            )


class TestNotify:
    def test_notify_raises_peer_vsei_and_wakes_scheduler(self, machine):
        a, b = _two_cvms(machine)
        channel_id, _, _ = _open_channel(machine, a, b)
        before = machine.hypervisor.doorbell_wakeups
        pending = machine.monitor.ecall_channel_notify(a.cvm.cvm_id, channel_id)
        assert pending == 1
        assert b.cvm.vcpus[0].csrs["hvip"] & (1 << 10)
        assert machine.hypervisor.doorbell_wakeups == before + 1

    def test_non_endpoint_cannot_notify(self, machine):
        a, b = _two_cvms(machine)
        channel_id, _, _ = _open_channel(machine, a, b)
        third = machine.launch_confidential_vm(image=IMAGE)
        with pytest.raises(SecurityViolation):
            machine.monitor.ecall_channel_notify(third.cvm.cvm_id, channel_id)

    def test_notify_before_connect_is_an_error(self, machine):
        a, b = _two_cvms(machine)
        wa = a.layout.dram_base + OFFSET
        channel_id = machine.monitor.ecall_channel_create(
            a.cvm.cvm_id, wa, WINDOW, b.cvm.measurement
        )
        with pytest.raises(EcallError):
            machine.monitor.ecall_channel_notify(a.cvm.cvm_id, channel_id)


class TestTeardown:
    def test_close_scrubs_window_and_frees_block(self, machine):
        a, b = _two_cvms(machine)
        channel_id, wa, wb = _open_channel(machine, a, b)
        channel = machine.monitor.channels.channels[channel_id]
        machine.dram.write(channel.window_pa, b"SECRET-PLAINTEXT" * 16)
        machine.monitor.ecall_channel_close(b.cvm.cvm_id, channel_id)
        assert channel.state is ChannelState.CLOSED
        assert machine.dram.read(channel.window_pa, WINDOW) == bytes(WINDOW)
        for offset in range(0, WINDOW, PAGE_SIZE):
            assert machine.monitor.pool.owner_of(channel.window_pa + offset) == OWNER_FREE

    def test_close_unmaps_both_endpoints(self, machine):
        a, b = _two_cvms(machine)
        channel_id, wa, wb = _open_channel(machine, a, b)
        machine.monitor.ecall_channel_close(a.cvm.cvm_id, channel_id)
        for cvm, gpa in ((a.cvm, wa), (b.cvm, wb)):
            with pytest.raises(TrapRaised):
                machine.monitor.translator.gpa_to_pa(cvm.hgatp_root, gpa, AccessType.LOAD)

    def test_double_close_is_an_error(self, machine):
        a, b = _two_cvms(machine)
        channel_id, _, _ = _open_channel(machine, a, b)
        machine.monitor.ecall_channel_close(a.cvm.cvm_id, channel_id)
        with pytest.raises(EcallError):
            machine.monitor.ecall_channel_close(b.cvm.cvm_id, channel_id)

    def test_destroying_either_endpoint_closes_the_channel(self, machine):
        a, b = _two_cvms(machine)
        channel_id, wa, wb = _open_channel(machine, a, b)
        channel = machine.monitor.channels.channels[channel_id]
        machine.dram.write(channel.window_pa, b"DOOMED")
        machine.monitor.ecall_destroy(a.cvm.cvm_id)
        assert channel.state is ChannelState.CLOSED
        assert machine.dram.read(channel.window_pa, WINDOW) == bytes(WINDOW)
        # The surviving endpoint no longer translates to the window.
        with pytest.raises(TrapRaised):
            machine.monitor.translator.gpa_to_pa(b.cvm.hgatp_root, wb, AccessType.LOAD)

    def test_guest_cannot_reclaim_window_frames(self, machine):
        """Ballooning the window GPA must not steal channel frames."""
        a, b = _two_cvms(machine)
        channel_id, wa, _ = _open_channel(machine, a, b)
        with pytest.raises(SecurityViolation):
            machine.monitor.ecall_reclaim_pages(a.cvm.cvm_id, 0, wa, 1)
        # The mapping (and the channel) survive the attempt.
        channel = machine.monitor.channels.channels[channel_id]
        assert channel.state is ChannelState.CONNECTED
        assert _translate(machine, a.cvm, wa) == channel.window_pa
