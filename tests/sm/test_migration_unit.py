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

#: Stream lengths around 32-byte and SHAKE-256's 136-byte block edges,
#: plus multi-page ones.
KEYSTREAM_LENGTHS = st.one_of(
    st.sampled_from([0, 1, 31, 32, 33, 135, 136, 137]),
    st.integers(0, 300),
    st.integers(2 * PAGE_SIZE, 3 * PAGE_SIZE + 100),
)


_LANE = (1 << 64) - 1


def _rc_bit(t: int) -> int:
    """Keccak's round-constant LFSR, x^8 + x^6 + x^5 + x^4 + 1 (FIPS 202
    algorithm 5)."""
    r = 1
    for _ in range(t % 255):
        r <<= 1
        if r & 0x100:
            r ^= 0x171
    return r & 1


#: iota's 24 round constants, from the LFSR (FIPS 202 section 3.2.5).
_ROUND_CONSTANTS = [
    sum(_rc_bit(j + 7 * i) << ((1 << j) - 1) for j in range(7)) for i in range(24)
]


def _rho_offsets() -> list:
    """rho's lane rotations, lane ``x + 5y`` (FIPS 202 algorithm 2)."""
    offsets = [0] * 25
    x, y = 1, 0
    for t in range(24):
        offsets[x + 5 * y] = (t + 1) * (t + 2) // 2 % 64
        x, y = y, (2 * x + 3 * y) % 5
    return offsets


_RHO = _rho_offsets()
#: pi moves lane (x, y) to (y, 2x + 3y).
_PI = [y + 5 * ((2 * x + 3 * y) % 5) for y in range(5) for x in range(5)]


def _keccak_f(lanes: list) -> list:
    """Keccak-f[1600] on 25 little-endian 64-bit lanes, lane ``x + 5y``."""
    for rc in _ROUND_CONSTANTS:
        c = [lanes[x] ^ lanes[x + 5] ^ lanes[x + 10] ^ lanes[x + 15] ^ lanes[x + 20]
             for x in range(5)]
        d = [c[x - 1] ^ ((c[(x + 1) % 5] << 1 | c[(x + 1) % 5] >> 63) & _LANE)
             for x in range(5)]
        b = [0] * 25
        for i in range(25):
            v, n = lanes[i] ^ d[i % 5], _RHO[i]
            b[_PI[i]] = (v << n | v >> (64 - n)) & _LANE if n else v
        lanes = [b[i] ^ (~b[i - i % 5 + (i + 1) % 5] & b[i - i % 5 + (i + 2) % 5])
                 for i in range(25)]
        lanes[0] ^= rc
    return lanes


def _reference_shake256(message: bytes, length: int) -> bytes:
    """SHAKE256 as a plain sponge: rate 136 bytes, pad ``0x1F ... 0x80``."""
    rate = 136
    padded = bytearray(message) + b"\x1f" + bytes(-(len(message) + 1) % rate)
    padded[-1] |= 0x80
    lanes = [0] * 25
    for start in range(0, len(padded), rate):
        for i in range(rate // 8):
            lanes[i] ^= int.from_bytes(padded[start + 8 * i : start + 8 * i + 8], "little")
        lanes = _keccak_f(lanes)
    out = bytearray()
    while len(out) < length:
        out += b"".join(lane.to_bytes(8, "little") for lane in lanes[: rate // 8])
        lanes = _keccak_f(lanes)
    return bytes(out[:length])


def _reference_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """The pure-Python sponge's output over ``enc_key || nonce``."""
    enc_key = hmac.new(key, b"enc", hashlib.sha256).digest()
    return _reference_shake256(enc_key + nonce, length)


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


class TestReferenceSponge:
    """The reference model is itself checked: against FIPS 202's published
    answer, and against the stdlib's SHAKE-256 around its block edges."""

    def test_nist_shake256_empty_message(self):
        expected = "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
        assert _reference_shake256(b"", 32).hex() == expected
        assert hashlib.shake_256(b"").hexdigest(32) == expected

    @pytest.mark.parametrize("message_length", [0, 1, 135, 136, 137, 300])
    def test_matches_the_stdlib_over_rate_edges(self, message_length):
        message = (bytes(range(256)) * 2)[:message_length]
        for length in (0, 1, 135, 136, 137, 1000):
            assert _reference_shake256(message, length) == hashlib.shake_256(
                message
            ).digest(length)


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
        (1, "333e0a1e27815d0ceee55c473fe3dc93d56c63e3bee2b3b4aee8eed6d70191a3"),
        (31, "c51f54e6da93f17f0d3e2c0764ab7962b1663124e39ec4b14188461f1c9cf11d"),
        (32, "e22815b5b8e68bdeb3e8d4fadea3b8d9c723edd4b87784cea5393e1881c92e75"),
        (33, "46e5d4f508885981aced6a5ddeae9ea455eb6ae92d9a00a5c062607b134df7e1"),
        # Eight page records (GPA word + page) plus a 17-byte remainder.
        (8 * 4104 + 17,
         "381ab635736e7fc92357cc3dc75f61b98bd22f1620785373cb3d68c4c5bc4098"),
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
            "474105736d2ce31030ee45efedd4f1a783c010d008f07574c74bb0ed4fa77a92b5"
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
        assert blob[:8] == b"ZIONMIG3"
        assert blob[8:16] == KAT_NONCE  # the SM's first export
        assert hashlib.sha256(blob).hexdigest() == (
            "8b97fef9c668cf4b4b5bbb132e292e736cb8f13c61a122dc960731ff14c14d36"
        )


class TestKeystream:
    def test_deterministic(self):
        assert _keystream(b"k" * 32, KAT_NONCE, 100) == _keystream(b"k" * 32, KAT_NONCE, 100)

    def test_prefix_property(self):
        """Longer streams extend shorter ones (an XOF's output)."""
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
        tables = set(walker.survey(machine.dram, cvm.hgatp_root)[0])
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
