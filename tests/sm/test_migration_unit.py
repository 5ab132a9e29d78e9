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

#: Fixed key and nonce for the known-answer pins below.  The nonce is the
#: one a fresh SM's first export uses (``u64le(export_seq)``).
KAT_KEY = derive_migration_key(b"kat-fleet", b"kat-src", b"kat-dst")
KAT_NONCE = struct.pack("<Q", 1)

#: Stream lengths around the 32-byte block edges, plus multi-page ones.
KEYSTREAM_LENGTHS = st.one_of(
    st.sampled_from([0, 1, 31, 32, 33]),
    st.integers(0, 300),
    st.integers(2 * PAGE_SIZE, 3 * PAGE_SIZE + 100),
)


def _reference_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """One ``hmac.new`` object per 32-byte block: block i (from 1) is
    ``HMAC(enc_key, nonce || u32be(i))``."""
    out = bytearray()
    counter = 1
    enc_key = hmac.new(key, b"enc", hashlib.sha256).digest()
    while len(out) < length:
        block = nonce + struct.pack(">I", counter)
        out += hmac.new(enc_key, block, hashlib.sha256).digest()
        counter += 1
    return bytes(out[:length])


def _reference_xor(data: bytes, stream: bytes) -> bytes:
    """Byte by byte, stopping at the shorter input."""
    return bytes(a ^ b for a, b in zip(data, stream))


class TestAgainstReference:
    @settings(deadline=None)
    @given(
        key=st.binary(min_size=1, max_size=48),
        nonce=st.binary(max_size=16),
        length=KEYSTREAM_LENGTHS,
    )
    def test_keystream(self, key, nonce, length):
        assert _keystream(key, nonce, length) == _reference_keystream(key, nonce, length)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=300), stream=st.binary(max_size=300))
    def test_xor(self, data, stream):
        assert _xor(data, stream) == _reference_xor(data, stream)


class TestKeystreamAgainstHmacBlocks:
    @settings(deadline=None)
    @given(
        key=st.binary(min_size=32, max_size=32),
        nonce=st.binary(min_size=8, max_size=8),
        length=KEYSTREAM_LENGTHS,
    )
    def test_blocks_are_one_shot_hmacs(self, key, nonce, length):
        """Block i (from 1) is ``hmac.digest(enc_key, nonce || u32be(i))``,
        whatever single call produces the stream."""
        enc_key = hmac.digest(key, b"enc", "sha256")
        reference = b"".join(
            hmac.digest(enc_key, nonce + struct.pack(">I", i), "sha256")
            for i in range(1, -(-length // 32) + 1)
        )[:length]
        assert _keystream(key, nonce, length) == reference


class TestSealKnownAnswers:
    """Byte-exact pins of the seal format.

    The blob's MAC tag feeds the destination's replay registry and its
    ``migrated-in`` measurement-log entry, so any change to the keystream,
    XOR or MAC bytes is a format break, not an optimisation.  These values
    were recorded from ``_reference_keystream`` and ``_reference_xor``
    above (the blob by exporting with ``_keystream`` replaced by the
    reference), not from the code under test.
    """

    def test_key_is_pinned(self):
        assert KAT_KEY.hex() == (
            "c172cf55a2bb7e87cb932fbd8432bbca0bb8038aaead193e3731181b634a701f"
        )

    @pytest.mark.parametrize("length, digest", [
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (1, "0bfe935e70c321c7ca3afc75ce0d0ca2f98b5422e008bb31c00c6d7f1f1c0ad6"),
        (31, "8694c5bf0d6da4585dcdc3e03234e228b9b73d94ba7795c6d5aa316174359cbc"),
        (32, "7b5aed9e85906087dc0d34e4b85eca32b913ba2c6246da578aa5051550c4586d"),
        (33, "1c1e6277913dddaad9c9a6a4fd04e500868941448af80e6ec17fffc1aabec5b6"),
        # Eight page records (GPA word + page) plus a 17-byte remainder.
        (8 * 4104 + 17,
         "f02aae0bcf3e16e6d1cb220851ef1fc308ceec35e9405f2a0ef3113eb16f4540"),
    ])
    def test_keystream(self, length, digest):
        stream = _keystream(KAT_KEY, KAT_NONCE, length)
        assert len(stream) == length
        assert hashlib.sha256(stream).hexdigest() == digest

    def test_mac(self):
        assert _mac(KAT_KEY, b"zion migration known answer").hex() == (
            "a88b2bb53b738b716f571589260f649d00d3f36c90dcbe0ef263225a88cfaa42"
        )

    def test_xor_truncates_to_the_shorter_input(self):
        longer_data = _xor(bytes(range(40)), _keystream(KAT_KEY, KAT_NONCE, 33))
        assert longer_data.hex() == (
            "758405aa76b2249f0774ed350fd04776b323dcb15ed23e9bab568afe899ddb6fd9"
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
        assert len(blob) == 9367
        assert blob[8:16] == KAT_NONCE  # the SM's first export
        assert hashlib.sha256(blob).hexdigest() == (
            "707209e5e12b26bd1321e26e83250f5f919b15e9076050ff9fb1b640d3ca0777"
        )


class TestKeystream:
    def test_deterministic(self):
        assert _keystream(b"k" * 32, KAT_NONCE, 100) == _keystream(b"k" * 32, KAT_NONCE, 100)

    def test_prefix_property(self):
        """Longer streams extend shorter ones (CTR construction)."""
        short = _keystream(b"k" * 32, KAT_NONCE, 40)
        long = _keystream(b"k" * 32, KAT_NONCE, 200)
        assert long[:40] == short

    def test_key_separation(self):
        assert _keystream(b"a" * 32, KAT_NONCE, 64) != _keystream(b"b" * 32, KAT_NONCE, 64)

    def test_nonce_separation(self):
        """Two exports under one key share no keystream block."""
        first = _keystream(b"k" * 32, struct.pack("<Q", 1), 32 * 64)
        second = _keystream(b"k" * 32, struct.pack("<Q", 2), 32 * 64)
        first_blocks = {first[i : i + 32] for i in range(0, len(first), 32)}
        second_blocks = {second[i : i + 32] for i in range(0, len(second), 32)}
        assert not first_blocks & second_blocks

    def test_xor_is_involutive(self):
        stream = _keystream(b"k" * 32, KAT_NONCE, 32)
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
        assert _keystream(key, KAT_NONCE, 32) != _mac(key, b"")


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
