"""CVM migration between machines (extension; see repro.sm.migration)."""

import hashlib
import hmac
import struct

import pytest

from repro import Machine, MachineConfig, SecurityViolation
from repro.sm.migration import _MAGIC, _keystream, _mac, _xor, derive_migration_key

FLEET_SECRET = b"fleet-provisioning-secret"


def _pool_state(machine):
    """Every secure-pool frame's owner, plus the free-block count."""
    pool = machine.monitor.pool
    return dict(pool._page_owner), pool.free_blocks


def _seal_v1(plaintext: bytes, key: bytes) -> bytes:
    """The retired ZIONMIG1 seal: blocks HMAC(enc_key, u64le(i)) from 0,
    no nonce, and a tag over the ciphertext alone."""
    enc_key = hmac.digest(key, b"enc", "sha256")
    stream = b"".join(
        hmac.digest(enc_key, struct.pack("<Q", i), "sha256")
        for i in range(-(-len(plaintext) // 32))
    )
    ciphertext = _xor(plaintext, stream)
    mac_key = hmac.digest(key, b"mac", "sha256")
    return b"ZIONMIG1" + ciphertext + hmac.digest(mac_key, ciphertext, "sha256")


def _seal_v2(plaintext: bytes, key: bytes, nonce: bytes) -> bytes:
    """The retired ZIONMIG2 seal: today's framing and tag, with blocks
    HMAC(enc_key, nonce || u32be(i)) from 1 as the keystream (PBKDF2-HMAC-
    SHA256 with one iteration)."""
    enc_key = hmac.digest(key, b"enc", "sha256")
    stream = hashlib.pbkdf2_hmac("sha256", enc_key, nonce, 1, len(plaintext))
    ciphertext = _xor(plaintext, stream)
    return b"ZIONMIG2" + nonce + ciphertext + _mac(key, nonce + ciphertext)


@pytest.fixture
def key():
    return derive_migration_key(FLEET_SECRET, b"src-nonce-0001", b"dst-nonce-0001")


@pytest.fixture
def source_pair(key):
    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=b"migratable-guest" * 200)
    return machine, session


class TestRoundTrip:
    def test_memory_and_registers_survive_migration(self, source_pair, key):
        source, session = source_pair
        base = session.layout.dram_base + (8 << 20)

        def prepare(ctx):
            ctx.write_bytes(base, b"state before migration")
            ctx.compute(10_000)

        source.run(session, prepare)
        measurement_before = session.cvm.measurement
        vcpu_pc = session.cvm.vcpu(0).pc
        blob = source.export_confidential_vm(session, key)

        destination = Machine(MachineConfig())
        migrated = destination.import_confidential_vm(blob, key)
        assert migrated.cvm.measurement == measurement_before
        assert migrated.cvm.vcpu(0).pc == vcpu_pc

        def verify(ctx):
            return ctx.read_bytes(base, 22)

        result = destination.run(migrated, verify)
        assert result["workload_result"] == b"state before migration"

    def test_source_instance_is_scrubbed(self, source_pair, key):
        source, session = source_pair
        base = session.layout.dram_base + (8 << 20)
        source.run(session, lambda ctx: ctx.write_bytes(base, b"SRC-SECRET" * 100))
        from repro.mem.pagetable import Sv39x4

        class Raw:
            def read_u64(self, addr):
                return source.dram.read_u64(addr)

        pa = Sv39x4().walk(Raw(), session.cvm.hgatp_root, base).pa
        source.export_confidential_vm(session, key)
        assert source.dram.read(pa, 10) == bytes(10)

    def test_migrated_cvm_attests_with_original_measurement(self, source_pair, key):
        source, session = source_pair
        source.run(session, lambda ctx: ctx.compute(100))
        original = session.cvm.measurement
        blob = source.export_confidential_vm(session, key)
        destination = Machine(MachineConfig())
        migrated = destination.import_confidential_vm(blob, key)

        report = destination.run(
            migrated, lambda ctx: ctx.attestation_report(b"post-migration")
        )["workload_result"]
        assert report.measurement == original
        assert destination.monitor.attestation.verify_report(report)

    def test_running_cvm_is_suspended_for_export(self, source_pair, key):
        source, session = source_pair
        source.run(session, lambda ctx: ctx.compute(100))
        blob = source.export_confidential_vm(session, key)  # no explicit suspend
        assert isinstance(blob, bytes)


class TestBlobSecurity:
    def test_blob_does_not_leak_plaintext(self, source_pair, key):
        source, session = source_pair
        secret = b"EXTREMELY-SECRET-DATABASE-ROW"
        base = session.layout.dram_base + (8 << 20)
        source.run(session, lambda ctx: ctx.write_bytes(base, secret * 50))
        blob = source.export_confidential_vm(session, key)
        assert secret not in blob

    def test_tampered_blob_rejected(self, source_pair, key):
        source, session = source_pair
        blob = bytearray(source.export_confidential_vm(session, key))
        blob[len(blob) // 2] ^= 0x01
        destination = Machine(MachineConfig())
        with pytest.raises(SecurityViolation):
            destination.import_confidential_vm(bytes(blob), key)

    def test_wrong_key_rejected(self, source_pair, key):
        source, session = source_pair
        blob = source.export_confidential_vm(session, key)
        wrong = derive_migration_key(FLEET_SECRET, b"src-nonce-0001", b"EVIL-nonce")
        destination = Machine(MachineConfig())
        with pytest.raises(SecurityViolation):
            destination.import_confidential_vm(blob, wrong)

    def test_truncated_blob_rejected(self, source_pair, key):
        source, session = source_pair
        blob = source.export_confidential_vm(session, key)
        destination = Machine(MachineConfig())
        with pytest.raises(SecurityViolation):
            destination.import_confidential_vm(blob[: len(blob) // 2], key)
        with pytest.raises(SecurityViolation):
            destination.import_confidential_vm(b"", key)

    def test_replay_to_two_destinations_both_work_but_differ(self, source_pair, key):
        """The blob is a snapshot: replay gives two independent instances
        (freshness/anti-replay would need a destination nonce in the key,
        which derive_migration_key supports)."""
        source, session = source_pair
        base = session.layout.dram_base + (8 << 20)
        source.run(session, lambda ctx: ctx.store(base, 42))
        blob = source.export_confidential_vm(session, key)
        first = Machine(MachineConfig()).import_confidential_vm(blob, key)
        second = Machine(MachineConfig()).import_confidential_vm(blob, key)
        assert first.cvm.measurement == second.cvm.measurement

    def test_exports_under_one_key_do_not_share_a_keystream(self, key):
        """Two identical CVMs exported under one key: without a fresh
        per-export nonce their ciphertexts would agree wherever their
        plaintexts do (a two-time pad); with one, only by chance."""
        source = Machine(MachineConfig())
        twins = [source.launch_confidential_vm(image=b"twin-guest" * 200) for _ in range(2)]
        assert twins[0].cvm.measurement == twins[1].cvm.measurement
        first, second = (
            source.export_confidential_vm(twin, key)[len(_MAGIC):-32] for twin in twins
        )
        assert len(first) == len(second) > 4096
        agreeing = sum(a == b for a, b in zip(first, second))
        assert agreeing < 0.05 * len(first)  # chance alone gives about 1/256

    def test_flipped_nonce_byte_rejected_without_leak(self, source_pair, key):
        source, session = source_pair
        blob = bytearray(source.export_confidential_vm(session, key))
        blob[len(_MAGIC)] ^= 0x01
        destination = Machine(MachineConfig())
        before = _pool_state(destination)
        with pytest.raises(SecurityViolation, match="authentication"):
            destination.import_confidential_vm(bytes(blob), key)
        assert _pool_state(destination) == before
        assert not destination.monitor.cvms

    def test_old_format_blob_rejected_without_leak(self, source_pair, key):
        """A ZIONMIG1 blob, correctly sealed in the retired format under
        the right key, is refused before anything is decrypted or mapped."""
        source, session = source_pair
        blob = source.export_confidential_vm(session, key)
        start = len(_MAGIC) + 8
        nonce, ciphertext = blob[len(_MAGIC):start], blob[start:-32]
        plaintext = _xor(ciphertext, _keystream(key, nonce, len(ciphertext)))
        destination = Machine(MachineConfig())
        before = _pool_state(destination)
        for old in (_seal_v1(plaintext, key), b"ZIONMIG1" + blob[len(_MAGIC):]):
            with pytest.raises(SecurityViolation, match="framing"):
                destination.import_confidential_vm(old, key)
        assert _pool_state(destination) == before
        assert not destination.monitor.cvms

    def test_v2_format_blob_rejected_without_leak(self, source_pair, key):
        """A ZIONMIG2 blob, correctly sealed with the retired PBKDF2
        keystream under the right key, is refused as a framing error before
        anything is decrypted or mapped."""
        source, session = source_pair
        blob = source.export_confidential_vm(session, key)
        start = len(_MAGIC) + 8
        nonce, ciphertext = blob[len(_MAGIC):start], blob[start:-32]
        plaintext = _xor(ciphertext, _keystream(key, nonce, len(ciphertext)))
        old = _seal_v2(plaintext, key, nonce)
        assert len(old) == len(blob) and old[start:-32] != ciphertext
        destination = Machine(MachineConfig())
        before = _pool_state(destination)
        for stale in (old, b"ZIONMIG2" + blob[len(_MAGIC):]):
            with pytest.raises(SecurityViolation, match="framing"):
                destination.import_confidential_vm(stale, key)
        assert _pool_state(destination) == before
        assert not destination.monitor.cvms


class TestMigratedInMeasurementLog:
    """Pins the adopt path's measurement-log semantics.

    A migrated-in CVM keeps its *original launch measurement* -- that is
    its attestation identity, and relying parties must not see it change
    just because the fleet moved the CVM -- while the destination's local
    measurement log records the migration event (a ``migrated-in`` entry
    keyed by the blob's MAC tag) and is finalized by the adopt path's
    ``ecall_finalize`` without overwriting the measurement.
    """

    def test_adopt_keeps_original_measurement_despite_new_log(self, source_pair, key):
        source, session = source_pair
        source.run(session, lambda ctx: ctx.compute(100))
        original = session.cvm.measurement
        blob = source.export_confidential_vm(session, key)

        destination = Machine(MachineConfig())
        migrated = destination.import_confidential_vm(blob, key)
        # Identity preserved through the finalize the adopt path runs...
        assert migrated.cvm.measurement == original
        # ...even though the local log (which hashed "migrated-in", not
        # the original image/entry-point sequence) digests differently.
        assert migrated.cvm.measurement_log.digest is not None
        assert migrated.cvm.measurement_log.digest != original

    def test_local_log_contains_exactly_layout_and_migrated_in(self, source_pair, key):
        """The adopt log is layout + migrated-in(blob MAC), nothing else."""
        from repro.sm.attestation import MeasurementLog

        source, session = source_pair
        source.run(session, lambda ctx: ctx.compute(100))
        layout = session.cvm.layout
        blob = source.export_confidential_vm(session, key)

        destination = Machine(MachineConfig())
        migrated = destination.import_confidential_vm(blob, key)

        expected = MeasurementLog()
        expected.extend(
            "layout",
            repr((layout.dram_base, layout.dram_size, layout.shared_base)).encode(),
        )
        expected.extend("migrated-in", blob[-32:])
        assert migrated.cvm.measurement_log.digest == expected.finalize()

    def test_report_after_migration_signs_the_original_measurement(self, source_pair, key):
        source, session = source_pair
        source.run(session, lambda ctx: ctx.compute(100))
        original = session.cvm.measurement
        blob = source.export_confidential_vm(session, key)
        destination = Machine(MachineConfig())
        migrated = destination.import_confidential_vm(blob, key)
        report = destination.monitor.ecall_attestation_report(
            migrated.cvm.cvm_id, b"log-pin"
        )
        assert report.measurement == original
        assert destination.monitor.attestation.verify_report(report)


class TestKeyDerivation:
    def test_same_inputs_same_key(self):
        a = derive_migration_key(b"s", b"n1", b"n2")
        b = derive_migration_key(b"s", b"n1", b"n2")
        assert a == b

    def test_any_input_changes_key(self):
        base = derive_migration_key(b"s", b"n1", b"n2")
        assert derive_migration_key(b"x", b"n1", b"n2") != base
        assert derive_migration_key(b"s", b"nX", b"n2") != base
        assert derive_migration_key(b"s", b"n1", b"nX") != base
