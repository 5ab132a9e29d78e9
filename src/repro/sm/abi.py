"""The SM's ECALL ABI: a numbered, register-based calling convention.

The monitor's Python methods are the implementation; this module is the
*architectural* boundary: callers place an extension ID in ``a7``, a
function ID in ``a6`` and arguments in ``a0..a5``, execute ``ecall``, and
receive an SBI-style ``(error, value)`` pair in ``a0``/``a1``.  Two
extensions are defined, mirroring how CoVE splits its interface:

- ``ZION_HOST`` (0x5A4E_0001): hypervisor-facing lifecycle calls, only
  accepted from HS mode;
- ``ZION_GUEST`` (0x5A4E_0002): CVM-facing services, only accepted from
  VS mode (the SM derives *which* CVM from the running vCPU, never from
  an argument -- a guest cannot name another guest).

Byte-buffer arguments cross as (address, length) pairs in the caller's
address space, like real SBI: guest buffers are GPAs the SM translates
and bound-checks against the caller's own memory.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.cycles import Category
from repro.errors import EcallError, SecurityViolation, TrapRaised
from repro.isa.privilege import PrivilegeMode
from repro.mem.physmem import PAGE_SIZE
from repro.sm.alloc import PoolExhausted


class SbiError(enum.IntEnum):
    """SBI-standard error codes (returned in a0)."""

    SUCCESS = 0
    FAILED = -1
    NOT_SUPPORTED = -2
    INVALID_PARAM = -3
    DENIED = -4
    INVALID_ADDRESS = -5


_MASK64 = (1 << 64) - 1

EXT_ZION_HOST = 0x5A4E_0001
EXT_ZION_GUEST = 0x5A4E_0002

#: GPA span of the table one LINK_SHARED_SUBTREE installs: a single
#: stage-2 root slot, so the shared window a CVM's one subtree can hold.
SHARED_SUBTREE_SPAN = 1 << 30


class HostFunction(enum.IntEnum):
    """ZION_HOST function IDs (a6)."""

    CREATE_CVM = 0
    ASSIGN_SHARED_VCPU = 1
    LOAD_IMAGE_PAGE = 2
    SET_ENTRY_POINT = 3
    FINALIZE = 4
    LINK_SHARED_SUBTREE = 5
    REGISTER_POOL_MEMORY = 6
    SUSPEND = 7
    RESUME = 8
    DESTROY = 9
    DESCRIBE_CVM = 10


@dataclasses.dataclass(frozen=True)
class CvmDescriptor:
    """DESCRIBE_CVM reply: what the host may learn about a CVM.

    This is the *entire* host-visible summary -- id, vCPU count, GPA
    layout, lifecycle state name.  Secure vCPU contents, table roots and
    pool geometry are deliberately absent: the descriptor exists so the
    hypervisor can provision host-side resources for a CVM it did not
    create (the migration adopt path) without reaching into SM state.
    In the register convention the vCPU count rides in ``a1``; a real
    firmware would marshal the rest through a host-supplied buffer.
    """

    cvm_id: int
    vcpu_count: int
    layout: "GpaLayout"  # noqa: F821 -- repro.sm.cvm; annotation only
    state: str


class GuestFunction(enum.IntEnum):
    """ZION_GUEST function IDs (a6)."""

    GET_MEASUREMENT = 0
    GET_ATTESTATION_REPORT = 1
    GET_RANDOM = 2
    RECLAIM_PAGES = 3
    SHARE_REQUEST = 4
    CHANNEL_CREATE = 5
    CHANNEL_CONNECT = 6
    CHANNEL_NOTIFY = 7
    CHANNEL_CLOSE = 8


class EcallInterface:
    """Decodes register-convention ECALLs onto the monitor.

    ``dispatch`` is what the machine's trap path invokes when an ECALL
    lands in M mode; it reads the arguments out of the *hart's* GPRs and
    writes the result back, exactly as firmware does.
    """

    def __init__(self, monitor, running_cvm_of=None):
        self.monitor = monitor
        #: Resolves (hart) -> (cvm, vcpu_id) for guest calls; installed by
        #: the machine, which knows what is running where.
        self.running_cvm_of = running_cvm_of

    # -- entry point ------------------------------------------------------

    def dispatch(self, hart) -> None:
        """Handle the ECALL encoded in the hart's registers (a7/a6/a0-a5)."""
        gprs = hart.gprs
        args = [gprs["a0"], gprs["a1"], gprs["a2"], gprs["a3"], gprs["a4"], gprs["a5"]]
        error, value = self.call(hart, gprs["a7"], gprs["a6"], args)
        gprs["a0"] = error & _MASK64
        gprs["a1"] = value & _MASK64

    def call(self, hart, eid: int, fid: int, args) -> tuple:
        """Dispatch and catch: architectural errors become error codes."""
        try:
            if eid == EXT_ZION_HOST:
                return self._host_call(hart, fid, args)
            if eid == EXT_ZION_GUEST:
                return self._guest_call(hart, fid, args)
            return SbiError.NOT_SUPPORTED, 0
        except EcallError:
            return SbiError.INVALID_PARAM, 0
        except SecurityViolation:
            return SbiError.DENIED, 0
        except PoolExhausted:
            # The hypervisor could not (or would not) donate memory; the
            # call fails cleanly instead of unwinding the simulator.
            return SbiError.FAILED, 0
        except (KeyError, ValueError):
            return SbiError.INVALID_PARAM, 0

    # -- host extension ------------------------------------------------------

    def _host_call(self, hart, fid: int, args) -> tuple:
        if hart.mode is not PrivilegeMode.HS:
            return SbiError.DENIED, 0
        monitor = self.monitor
        if fid == HostFunction.CREATE_CVM:
            vcpu_count = args[0] or 1
            return SbiError.SUCCESS, monitor.ecall_create_cvm(vcpu_count=vcpu_count)
        if fid == HostFunction.ASSIGN_SHARED_VCPU:
            monitor.ecall_assign_shared_vcpu(args[0], args[1], args[2])
            return SbiError.SUCCESS, 0
        if fid == HostFunction.LOAD_IMAGE_PAGE:
            cvm_id, gpa, src_pa = args[0], args[1], args[2]
            # The image page is read from *normal* memory through the
            # hypervisor's own PMP view -- it cannot feed the SM secure
            # bytes it could not read itself.
            data = monitor.bus.cpu_read(hart, src_pa, PAGE_SIZE)
            monitor.ecall_load_image(cvm_id, gpa, data)
            return SbiError.SUCCESS, 0
        if fid == HostFunction.SET_ENTRY_POINT:
            monitor.ecall_set_entry_point(args[0], args[1], args[2])
            return SbiError.SUCCESS, 0
        if fid == HostFunction.FINALIZE:
            monitor.ecall_finalize(args[0])
            return SbiError.SUCCESS, 0
        if fid == HostFunction.LINK_SHARED_SUBTREE:
            monitor.ecall_link_shared_subtree(args[0], args[1], args[2])
            return SbiError.SUCCESS, 0
        if fid == HostFunction.REGISTER_POOL_MEMORY:
            return SbiError.SUCCESS, monitor.ecall_register_pool_memory(args[0], args[1])
        if fid == HostFunction.SUSPEND:
            monitor.ecall_suspend(args[0])
            return SbiError.SUCCESS, 0
        if fid == HostFunction.RESUME:
            monitor.ecall_resume(args[0])
            return SbiError.SUCCESS, 0
        if fid == HostFunction.DESTROY:
            monitor.ecall_destroy(args[0])
            return SbiError.SUCCESS, 0
        if fid == HostFunction.DESCRIBE_CVM:
            descriptor = monitor.ecall_describe_cvm(args[0])
            return SbiError.SUCCESS, descriptor.vcpu_count
        return SbiError.NOT_SUPPORTED, 0

    # -- guest extension ------------------------------------------------------

    def _guest_call(self, hart, fid: int, args) -> tuple:
        if hart.mode is not PrivilegeMode.VS:
            return SbiError.DENIED, 0
        if self.running_cvm_of is None:
            return SbiError.FAILED, 0
        resolved = self.running_cvm_of(hart)
        if resolved is None:
            return SbiError.DENIED, 0
        cvm, vcpu_id = resolved
        monitor = self.monitor
        if fid == GuestFunction.GET_MEASUREMENT:
            if cvm.measurement is None:
                return SbiError.FAILED, 0
            out_gpa = args[0]
            self._write_guest_buffer(cvm, out_gpa, cvm.measurement)
            return SbiError.SUCCESS, len(cvm.measurement)
        if fid == GuestFunction.GET_ATTESTATION_REPORT:
            data_gpa, data_len, out_gpa = args[0], args[1], args[2]
            if data_len > 64:
                return SbiError.INVALID_PARAM, 0
            report_data = self._read_guest_buffer(cvm, data_gpa, data_len)
            report = monitor.ecall_attestation_report(cvm.cvm_id, report_data)
            blob = report.measurement + report.nonce + report.signature
            self._write_guest_buffer(cvm, out_gpa, blob)
            return SbiError.SUCCESS, len(blob)
        if fid == GuestFunction.GET_RANDOM:
            out_gpa, count = args[0], args[1]
            random = monitor.ecall_get_random(cvm.cvm_id, count)
            self._write_guest_buffer(cvm, out_gpa, random)
            return SbiError.SUCCESS, count
        if fid == GuestFunction.RECLAIM_PAGES:
            freed = monitor.ecall_reclaim_pages(cvm.cvm_id, vcpu_id, args[0], args[1])
            return SbiError.SUCCESS, freed
        if fid == GuestFunction.SHARE_REQUEST:
            gpa = monitor.ecall_guest_share_request(hart, cvm.cvm_id, vcpu_id, args[0])
            return SbiError.SUCCESS, gpa
        if fid == GuestFunction.CHANNEL_CREATE:
            window_gpa, size, meas_gpa = args[0], args[1], args[2]
            expected_peer = self._read_guest_buffer(cvm, meas_gpa, 32)
            channel_id = monitor.ecall_channel_create(
                cvm.cvm_id, window_gpa, size, expected_peer
            )
            return SbiError.SUCCESS, channel_id
        if fid == GuestFunction.CHANNEL_CONNECT:
            channel_id, window_gpa, meas_gpa = args[0], args[1], args[2]
            expected_creator = self._read_guest_buffer(cvm, meas_gpa, 32)
            window_size = monitor.ecall_channel_connect(
                cvm.cvm_id, channel_id, window_gpa, expected_creator
            )
            return SbiError.SUCCESS, window_size
        if fid == GuestFunction.CHANNEL_NOTIFY:
            pending = monitor.ecall_channel_notify(cvm.cvm_id, args[0])
            return SbiError.SUCCESS, pending
        if fid == GuestFunction.CHANNEL_CLOSE:
            monitor.ecall_channel_close(cvm.cvm_id, args[0])
            return SbiError.SUCCESS, 0
        return SbiError.NOT_SUPPORTED, 0

    # -- guest buffer plumbing ---------------------------------------------------

    def _guest_pa(self, cvm, gpa: int, length: int) -> int:
        """Translate a guest buffer GPA through the CVM's own stage-2 root.

        The SM refuses buffers that are unmapped, misaligned, or that
        cross a page boundary (like real SBI implementations, callers
        pass 8-byte-aligned, page-local buffers).
        """
        if gpa % 8:
            raise EcallError("guest buffer address must be 8-byte aligned")
        if length < 0:
            raise EcallError("guest buffer length must be non-negative")
        if gpa // PAGE_SIZE != (gpa + max(length, 1) - 1) // PAGE_SIZE:
            raise EcallError("guest buffer crosses a page boundary")
        try:
            from repro.isa.traps import AccessType

            pa, _flags = self.monitor.translator.gpa_to_pa(
                cvm.hgatp_root, gpa, AccessType.LOAD
            )
        except TrapRaised as trap:
            raise EcallError(f"guest buffer not mapped: {trap}") from trap
        return pa

    def _read_guest_buffer(self, cvm, gpa: int, length: int) -> bytes:
        if length == 0:
            return b""
        monitor = self.monitor
        pa = self._guest_pa(cvm, gpa, length)
        monitor.ledger.charge(Category.COPY, monitor.costs.copy_bytes(length))
        return monitor.dram.read(pa, length)

    def _write_guest_buffer(self, cvm, gpa: int, data: bytes) -> None:
        monitor = self.monitor
        pa = self._guest_pa(cvm, gpa, len(data))
        monitor.ledger.charge(Category.COPY, monitor.costs.copy_bytes(len(data)))
        monitor.dram.write(pa, data)
