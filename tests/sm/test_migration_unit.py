"""Migration module internals: keystream, framing, key derivation."""

import hashlib
import hmac
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, MachineConfig
from repro.mem.pagetable import Sv39x4
from repro.mem.physmem import PAGE_SIZE
from repro.sm.migration import _keystream, _mac, _xor, derive_migration_key

#: Fixed key for the known-answer pins below.
KAT_KEY = derive_migration_key(b"kat-fleet", b"kat-src", b"kat-dst")


def _reference_keystream(key: bytes, length: int) -> bytes:
    """One ``hmac.new`` object per 32-byte counter block."""
    out = bytearray()
    counter = 0
    enc_key = hmac.new(key, b"enc", hashlib.sha256).digest()
    while len(out) < length:
        out += hmac.new(enc_key, struct.pack("<Q", counter), hashlib.sha256).digest()
        counter += 1
    return bytes(out[:length])


def _reference_xor(data: bytes, stream: bytes) -> bytes:
    """Byte by byte, stopping at the shorter input."""
    return bytes(a ^ b for a, b in zip(data, stream))


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(key=st.binary(min_size=1, max_size=48), length=st.integers(0, 300))
    def test_keystream(self, key, length):
        assert _keystream(key, length) == _reference_keystream(key, length)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=300), stream=st.binary(max_size=300))
    def test_xor(self, data, stream):
        assert _xor(data, stream) == _reference_xor(data, stream)


class TestKeystreamAgainstHmacBlocks:
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.binary(min_size=32, max_size=32),
        length=st.one_of(
            st.sampled_from([0, 1, 31, 32, 33]),
            st.integers(2 * PAGE_SIZE, 3 * PAGE_SIZE + 100),
        ),
    )
    def test_blocks_are_one_shot_hmacs(self, key, length):
        """Block i is ``hmac.digest(enc_key, u64le(i))``, whatever the
        precomputed-pad path does to get there."""
        enc_key = hmac.digest(key, b"enc", "sha256")
        reference = b"".join(
            hmac.digest(enc_key, struct.pack("<Q", i), "sha256")
            for i in range(-(-length // 32))
        )[:length]
        assert _keystream(key, length) == reference


class TestSealKnownAnswers:
    """Byte-exact pins of the seal format.

    The blob's MAC tag feeds the destination's replay registry and its
    ``migrated-in`` measurement-log entry, so any change to the keystream,
    XOR or MAC bytes is a format break, not an optimisation.  These values
    were recorded from the reference per-block/per-byte implementation.
    """

    def test_key_is_pinned(self):
        assert KAT_KEY.hex() == (
            "c172cf55a2bb7e87cb932fbd8432bbca0bb8038aaead193e3731181b634a701f"
        )

    @pytest.mark.parametrize("length, digest", [
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (1, "ef2d127de37b942baad06145e54b0c619a1f22327b2ebbcfbec78f5564afe39d"),
        (31, "8be0600f590cad3ca9b3ab70321ef44e8b954547a06f55c5874cd4f993fba9b6"),
        (32, "5e8cef10a8c570220037e4a11cb1abe969420830495d9c79cb2baa27ce36da03"),
        (33, "07dda9bfd7ec67c11dc8451a4d848d5f509818b6770dce9ea8bcb0443526458c"),
        # Eight page records (GPA word + page) plus a 17-byte remainder.
        (8 * 4104 + 17,
         "a296c43a80d8bbfdb00859935585828fcb89746667ba319fbff515cd79976cb5"),
    ])
    def test_keystream(self, length, digest):
        stream = _keystream(KAT_KEY, length)
        assert len(stream) == length
        assert hashlib.sha256(stream).hexdigest() == digest

    def test_mac(self):
        assert _mac(KAT_KEY, b"zion migration known answer").hex() == (
            "a88b2bb53b738b716f571589260f649d00d3f36c90dcbe0ef263225a88cfaa42"
        )

    def test_xor_truncates_to_the_shorter_input(self):
        longer_data = _xor(bytes(range(40)), _keystream(KAT_KEY, 33))
        assert longer_data.hex() == (
            "3593af6b514bf3a4ea7554dd376280f9f8667b583922c1d1cd89134d0b0588da89"
        )
        longer_stream = _xor(bytes(range(10)), bytes(range(100, 140)))
        assert longer_stream.hex() == "646464646c6c6c6c6464"
        assert _xor(b"", b"abc") == b""
        assert _xor(b"\x00\x01", b"") == b""

    def test_exported_blob(self):
        machine = Machine(MachineConfig())
        session = machine.launch_confidential_vm(image=b"known-answer-guest" * 64)
        base = session.layout.dram_base + (4 << 20)
        machine.run(session, lambda ctx: ctx.write_bytes(base, b"pinned state" * 300))
        blob = machine.export_confidential_vm(session, KAT_KEY)
        assert len(blob) == 9359
        assert hashlib.sha256(blob).hexdigest() == (
            "0ec334741711c93364c27de333d8d7bfd354273dee00cf42e0ee4c2bbadf82a1"
        )


class TestKeystream:
    def test_deterministic(self):
        assert _keystream(b"k" * 32, 100) == _keystream(b"k" * 32, 100)

    def test_prefix_property(self):
        """Longer streams extend shorter ones (CTR construction)."""
        short = _keystream(b"k" * 32, 40)
        long = _keystream(b"k" * 32, 200)
        assert long[:40] == short

    def test_key_separation(self):
        assert _keystream(b"a" * 32, 64) != _keystream(b"b" * 32, 64)

    def test_xor_is_involutive(self):
        stream = _keystream(b"k" * 32, 32)
        data = bytes(range(32))
        assert _xor(_xor(data, stream), stream) == data


class TestMac:
    def test_deterministic_and_key_bound(self):
        assert _mac(b"k", b"data") == _mac(b"k", b"data")
        assert _mac(b"k", b"data") != _mac(b"K", b"data")
        assert _mac(b"k", b"data") != _mac(b"k", b"datb")

    def test_mac_key_differs_from_enc_key(self):
        """Encrypt and MAC must not share a key (domain separation)."""
        key = b"k" * 32
        assert _keystream(key, 32) != _mac(key, b"")


class TestKeyDerivation:
    def test_output_is_256_bit(self):
        assert len(derive_migration_key(b"s", b"a", b"b")) == 32

    def test_nonce_order_matters(self):
        assert derive_migration_key(b"s", b"a", b"b") != derive_migration_key(
            b"s", b"b", b"a"
        )


class TestExportScan:
    """Export reads the private subtree only, and seals the same bytes a
    scan of the whole stage-2 tree would."""

    @staticmethod
    def _export(monkeypatch, full_scan: bool):
        """Export a CVM with a premapped 4 MB shared window; returns the
        blob, the addresses export read, and the table pages before it
        (all of them, and those outside the shared subtree)."""
        machine = Machine(MachineConfig())
        session = machine.launch_confidential_vm(image=b"scan-guest" * 64)
        base = session.layout.dram_base + (4 << 20)
        machine.run(session, lambda ctx: ctx.write_bytes(base, b"private" * 900))
        cvm = session.cvm
        walker = Sv39x4()
        shared = list(walker.iter_leaves(machine.dram, cvm.hgatp_root,
                                         cvm.layout.shared_base, 1 << 41))
        assert len(shared) == 1024
        (shared_root,) = cvm.shared_subtrees.values()
        shared_tables = {shared_root} | {
            (word >> 10) << 12
            for word in (machine.dram.read_u64(shared_root + 8 * i) for i in range(512))
            if word & 1
        }
        tables = set(walker.iter_tables(machine.dram, cvm.hgatp_root))
        reads = []
        read = machine.dram.read

        def recording(addr, size):
            reads.append(addr)
            return read(addr, size)

        with monkeypatch.context() as patch:
            patch.setattr(machine.dram, "read", recording)
            if full_scan:
                whole = Sv39x4.iter_leaves
                patch.setattr(Sv39x4, "iter_leaves",
                              lambda self, memory, root, lo=0, hi=None: whole(self, memory, root))
            blob = machine.export_confidential_vm(session, KAT_KEY)
        return blob, reads, tables, tables - shared_tables

    def test_reads_only_private_tables_and_seals_full_scan_bytes(self, monkeypatch):
        blob, reads, tables, private_tables = self._export(monkeypatch, full_scan=False)
        table_reads = tables.intersection(reads)
        assert table_reads and table_reads <= private_tables
        full_blob, full_reads, _tables, _private = self._export(monkeypatch, full_scan=True)
        assert not tables.intersection(full_reads) <= private_tables  # the reference reads them
        assert blob == full_blob
