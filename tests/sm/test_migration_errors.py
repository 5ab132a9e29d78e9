"""Migration error paths: framing, stale keys, replay, partial-import cleanup.

The happy path lives in tests/integration/test_migration.py; this file
pins every way an import must *refuse* -- with a typed
:class:`SecurityViolation`, never a Python error unwinding M mode -- and
that a refused or half-done import leaks no secure-pool frames.
"""

import json
import struct

import pytest

from repro import Machine, MachineConfig, SecurityViolation
from repro.isa.hart import GPR_NAMES
from repro.mem.physmem import PAGE_SIZE
from repro.sm.cvm import CvmState
from repro.sm.migration import (
    _MAGIC,
    _NONCE,
    _keystream,
    _mac,
    _xor,
    derive_migration_key,
    import_cvm,
)
from repro.sm.secmem import OWNER_FREE, OWNER_SM
from repro.sm.vcpu import GUEST_CSRS

KEY = derive_migration_key(b"test-fleet", b"src-nonce", b"dst-nonce")


def _seal(plaintext: bytes, key: bytes = KEY) -> bytes:
    """Seal arbitrary plaintext the way a peer SM's first export would."""
    nonce = _NONCE.pack(1)
    ciphertext = _xor(plaintext, _keystream(key, nonce, len(plaintext)))
    return _MAGIC + nonce + ciphertext + _mac(key, nonce + ciphertext)


def _frame(header: dict, pages: bytes = b"") -> bytes:
    """Frame a header dict + raw page section into blob plaintext."""
    header_bytes = json.dumps(header).encode()
    return struct.pack("<I", len(header_bytes)) + header_bytes + pages


def _good_header(page_count: int = 0) -> dict:
    return {
        "layout": {
            "dram_base": 0x8000_0000, "dram_size": 16 << 20,
            "mmio_base": 0x1000_0000, "mmio_size": 1 << 20,
            "shared_base": 1 << 38, "shared_size": 16 << 20,
        },
        "measurement": "ab" * 32,
        "rtmrs": [],
        "vcpus": [{
            "gprs": dict.fromkeys(GPR_NAMES, 0),
            "csrs": dict.fromkeys(GUEST_CSRS, 0),
            "pc": 0x8000_0000,
        }],
        "page_count": page_count,
    }


def _set(path, value):
    """A header mutation: ``header[path[0]][path[1]]... = value``."""
    def mutate(header):
        target = header
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _drop(path):
    """A header mutation: delete ``header[path[0]][path[1]]...``."""
    def mutate(header):
        target = header
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    return mutate


def _export_blob(key: bytes = KEY):
    """A genuine sealed blob plus its source machine."""
    source = Machine(MachineConfig())
    session = source.launch_confidential_vm(image=b"mig-err-guest" * 50)
    base = session.layout.dram_base + (4 << 20)
    source.run(session, lambda ctx: ctx.write_bytes(base, b"state" * 100))
    return source.export_confidential_vm(session, key)


def _pool_is_clean(machine: Machine) -> bool:
    """Every secure-pool frame is free or the SM's own metadata."""
    return all(
        owner in (OWNER_FREE, OWNER_SM)
        for owner in machine.monitor.pool._page_owner.values()
    )


class TestTransportTampering:
    """MAC-level refusals: the ferry cannot modify or forge a blob."""

    def test_every_single_byte_flip_is_caught(self):
        blob = _export_blob()
        destination = Machine(MachineConfig())
        # Sample positions across magic, ciphertext and MAC.
        for pos in (0, len(_MAGIC), len(blob) // 2, len(blob) - 1):
            bad = blob[:pos] + bytes([blob[pos] ^ 0x40]) + blob[pos + 1:]
            with pytest.raises(SecurityViolation):
                destination.import_confidential_vm(bad, KEY)
        assert _pool_is_clean(destination)

    def test_truncation_at_any_point_is_caught(self):
        blob = _export_blob()
        destination = Machine(MachineConfig())
        for keep in (0, 4, len(_MAGIC), len(_MAGIC) + 31, len(blob) - 1):
            with pytest.raises(SecurityViolation):
                destination.import_confidential_vm(blob[:keep], KEY)
        assert _pool_is_clean(destination)

    def test_stale_key_rejected(self):
        """A key derived from yesterday's nonce authenticates nothing."""
        blob = _export_blob()
        stale = derive_migration_key(b"test-fleet", b"src-nonce", b"old-nonce")
        destination = Machine(MachineConfig())
        with pytest.raises(SecurityViolation, match="authentication"):
            destination.import_confidential_vm(blob, stale)

    def test_wrong_fleet_secret_rejected(self):
        blob = _export_blob()
        foreign = derive_migration_key(b"other-fleet", b"src-nonce", b"dst-nonce")
        destination = Machine(MachineConfig())
        with pytest.raises(SecurityViolation, match="authentication"):
            destination.import_confidential_vm(blob, foreign)


class TestReplay:
    """Each sealed instance imports at most once per destination SM."""

    def test_double_import_refused(self):
        blob = _export_blob()
        destination = Machine(MachineConfig())
        destination.import_confidential_vm(blob, KEY)
        with pytest.raises(SecurityViolation, match="replayed"):
            destination.import_confidential_vm(blob, KEY)

    def test_refused_replay_does_not_destroy_the_first_instance(self):
        blob = _export_blob()
        destination = Machine(MachineConfig())
        first = destination.import_confidential_vm(blob, KEY)
        with pytest.raises(SecurityViolation):
            destination.import_confidential_vm(blob, KEY)
        assert first.cvm.state is not CvmState.DESTROYED
        base = first.layout.dram_base + (4 << 20)
        read_back = destination.run(first, lambda ctx: ctx.read_bytes(base, 5))
        assert read_back["workload_result"] == b"state"

    def test_exports_are_fresh_so_honest_reimports_still_work(self):
        """Two exports never seal byte-identical blobs (export_seq).

        A CVM that bounces A->B->A->B with unchanged state would
        otherwise reseal to the same bytes and trip B's replay registry
        on a perfectly legitimate second arrival.
        """
        machine_a = Machine(MachineConfig())
        machine_b = Machine(MachineConfig())
        session = machine_a.launch_confidential_vm(image=b"bouncer" * 100)
        machine_a.run(session, lambda ctx: ctx.compute(100))

        blob1 = machine_a.export_confidential_vm(session, KEY)
        session = machine_b.import_confidential_vm(blob1, KEY)
        blob2 = machine_b.export_confidential_vm(session, KEY)
        session = machine_a.import_confidential_vm(blob2, KEY)
        blob3 = machine_a.export_confidential_vm(session, KEY)
        assert blob3 != blob1  # same state, fresh seal
        # The second B arrival must not be mistaken for a replay.
        machine_b.import_confidential_vm(blob3, KEY)


class TestFraming:
    """Bounds checks on authenticated-but-malformed plaintext.

    These forge blobs with a *valid* MAC (as a buggy or downlevel peer
    SM could), so only the framing validation stands between the parser
    and an IndexError in M mode.
    """

    def _expect_rejected(self, plaintext: bytes, match: str):
        destination = Machine(MachineConfig())
        with pytest.raises(SecurityViolation, match=match):
            import_cvm(destination.monitor, _seal(plaintext), KEY)
        assert _pool_is_clean(destination)

    def test_empty_plaintext(self):
        self._expect_rejected(b"", "no header length")

    def test_header_length_past_end(self):
        self._expect_rejected(struct.pack("<I", 5000) + b"x" * 10, "exceeds")

    def test_zero_header_length(self):
        self._expect_rejected(struct.pack("<I", 0) + b"{}", "header length")

    def test_header_not_json(self):
        payload = b"\x00not json at all"
        self._expect_rejected(
            struct.pack("<I", len(payload)) + payload, "not valid JSON"
        )

    def test_header_missing_required_field(self):
        for field in ("layout", "vcpus", "page_count", "measurement"):
            header = _good_header()
            del header[field]
            self._expect_rejected(_frame(header), f"missing '{field}'")

    def test_header_with_no_vcpus(self):
        header = _good_header()
        header["vcpus"] = []
        self._expect_rejected(_frame(header), "no vCPUs")

    def test_page_count_body_mismatch(self):
        # Claims one page but carries none...
        self._expect_rejected(_frame(_good_header(page_count=1)),
                              "inconsistent")
        # ...and carries half a page record.
        self._expect_rejected(
            _frame(_good_header(page_count=1), b"\0" * (8 + PAGE_SIZE // 2)),
            "inconsistent",
        )

    def test_negative_page_count(self):
        self._expect_rejected(_frame(_good_header(page_count=-1)),
                              "inconsistent")

    @pytest.mark.parametrize("mutate, match", [
        (_set(("page_count",), "1"), "page_count must be an integer"),
        (_set(("page_count",), True), "page_count must be an integer"),
        (_set(("layout",), [0x8000_0000]), "layout must have exactly"),
        (_set(("layout", "rogue_base"), 0), "layout must have exactly"),
        (_drop(("layout", "mmio_size")), "layout must have exactly"),
        (_set(("layout", "dram_size"), "16M"), "layout fields must be integers"),
        (_set(("layout", "dram_base"), 0x8000_0800), "layout invalid"),
        (_set(("vcpus",), {"gprs": {}}), "vcpus must be a list"),
        (_set(("vcpus",), [{}]), "vCPU must have exactly"),
        (_set(("vcpus", 0, "gprs"), [1, 2]), "vCPU state malformed"),
        (_set(("vcpus", 0, "gprs", "x99"), 1), "vCPU state malformed"),
        (_set(("vcpus", 0, "csrs", "vsatp"), "0"), "vCPU state malformed"),
        (_set(("vcpus", 0, "pc"), None), "vCPU state malformed"),
        (_drop(("vcpus", 0, "gprs", "s5")), "vCPU state malformed"),
        (_drop(("vcpus", 0, "csrs", "vsatp")), "vCPU state malformed"),
        (_set(("measurement",), "zz"), "measurement is not hex"),
        (_set(("measurement",), 7), "measurement is not hex"),
        (_set(("rtmrs",), ["zz"]), "rtmrs must be a list of hex"),
    ], ids=[
        "page_count-str", "page_count-bool", "layout-not-object",
        "layout-unknown-field", "layout-missing-field", "layout-str-field",
        "layout-misaligned", "vcpus-not-list", "vcpu-empty", "vcpu-gprs-list",
        "vcpu-unknown-gpr", "vcpu-csr-str", "vcpu-pc-null",
        "vcpu-missing-gpr", "vcpu-missing-csr", "measurement-not-hex", "measurement-int", "rtmr-not-hex",
    ])
    def test_malformed_field_is_a_typed_refusal(self, mutate, match):
        """Authenticated but ill-typed fields never unwind untyped."""
        header = _good_header()
        mutate(header)
        self._expect_rejected(_frame(header), match)

    def test_header_that_is_not_an_object(self):
        # A JSON string contains every field name as a substring.
        header = "layout vcpus page_count measurement"
        self._expect_rejected(_frame(header), "not a JSON object")


    @pytest.mark.parametrize("path", [
        ("vcpus", 0, "gprs", "a0"), ("vcpus", 0, "csrs", "vsepc"), ("vcpus", 0, "pc"),
    ], ids=["gpr", "csr", "pc"])
    @pytest.mark.parametrize("word", [1 << 64, -1], ids=["2**64", "-1"])
    def test_register_word_outside_64_bits_is_refused(self, path, word):
        """The secure vCPU holds only 64-bit words, so import refuses any
        other integer before a CVM exists (entry installs the files as is)."""
        header = _good_header()
        _set(path, word)(header)
        self._expect_rejected(_frame(header), "vCPU state malformed")

    def test_register_words_at_the_64_bit_bounds_are_imported(self):
        header = _good_header()
        top = (1 << 64) - 1
        state = header["vcpus"][0]
        state["gprs"]["a0"] = state["csrs"]["vsepc"] = state["pc"] = top
        destination = Machine(MachineConfig())
        cvm_id = import_cvm(destination.monitor, _seal(_frame(header)), KEY)
        vcpu = destination.monitor.cvms[cvm_id].vcpu(0)
        assert (vcpu.gprs, vcpu.csrs, vcpu.pc) == (state["gprs"], state["csrs"], top)
        assert vcpu.gprs["a0"] == vcpu.csrs["vsepc"] == top

    def test_a_host_value_in_s5_does_not_reach_vs_mode(self):
        """Entry installs the imported register files over the hart's, so
        a blob without ``s5`` would leave the host's ``s5`` to the guest:
        import refuses it, and a full file's ``s5`` is what VS mode sees."""
        destination = Machine(MachineConfig())
        destination.hart.write_gpr("s5", 0x05EC_2E75)
        header = _good_header()
        del header["vcpus"][0]["gprs"]["s5"]
        with pytest.raises(SecurityViolation, match="vCPU state malformed"):
            destination.import_confidential_vm(_seal(_frame(header)), KEY)
        header["vcpus"][0]["gprs"]["s5"] = 7
        session = destination.import_confidential_vm(_seal(_frame(header)), KEY)
        seen = destination.run(session, lambda ctx: ctx.session.hart.read_gpr("s5"))
        assert seen["workload_result"] == 7


class TestPartialImportCleanup:
    """A mid-copy failure scrubs and recycles everything it mapped."""

    def _blob_with_bad_gpa(self, pages: int = 3) -> bytes:
        """Several good pages, then one mapped outside private DRAM."""
        header = _good_header(page_count=pages + 1)
        section = bytearray()
        for i in range(pages):
            section += struct.pack("<Q", 0x8000_0000 + i * PAGE_SIZE)
            section += bytes(PAGE_SIZE)
        section += struct.pack("<Q", 0x1234_5000)  # outside the window
        section += bytes(PAGE_SIZE)
        return _seal(_frame(header, bytes(section)))

    def test_out_of_window_gpa_rejected_without_leak(self):
        destination = Machine(MachineConfig())
        with pytest.raises(SecurityViolation, match="outside"):
            import_cvm(destination.monitor, self._blob_with_bad_gpa(), KEY)
        # The partial CVM was destroyed and every frame recycled.
        assert _pool_is_clean(destination)
        for cvm in destination.monitor.cvms.values():
            assert cvm.state is CvmState.DESTROYED

    def test_failed_import_leaves_resident_cvms_untouched(self):
        destination = Machine(MachineConfig())
        resident = destination.launch_confidential_vm(image=b"resident" * 64)
        with pytest.raises(SecurityViolation):
            import_cvm(destination.monitor, self._blob_with_bad_gpa(), KEY)
        assert resident.cvm.state is not CvmState.DESTROYED
        destination.run(resident, lambda ctx: ctx.compute(100))

    def test_failed_import_is_not_registered_as_imported(self):
        """A refused blob may be re-delivered intact later and succeed."""
        blob = _export_blob()
        destination = Machine(MachineConfig())
        tampered = blob[:-1] + bytes([blob[-1] ^ 1])
        with pytest.raises(SecurityViolation):
            destination.import_confidential_vm(tampered, KEY)
        # The genuine blob still imports: only *successful* imports are
        # recorded in the replay registry.
        destination.import_confidential_vm(blob, KEY)
