"""Confidential VM migration (extension; cf. VirTEE's native live migration).

The paper positions ZION against VirTEE, whose headline extra is live
migration.  This module adds SM-mediated migration to ZION's design: the
source SM serialises a *suspended* CVM -- layout, measurement, full vCPU
register state, and every private page -- into a blob encrypted and
authenticated under a migration key the two SMs share (modelled as being
derived from a fleet provisioning secret plus both parties' nonces; a
production design would run attestation-based key agreement).  The
untrusted hypervisors ferry the blob; they can neither read nor undetectably
modify it.

Crypto is stdlib-only: a SHAKE-256 keystream cipher (the XOF's output
over an encryption subkey and a per-export nonce), with encrypt-then-MAC
under HMAC-SHA256 and a separate MAC subkey.  The construction is
standard; the primitive choice is a simulation stand-in for the AES-GCM a
real SM would use.  A blob is ``ZIONMIG3 || nonce || ciphertext || tag``,
and the tag covers ``nonce || ciphertext``.  ``ZIONMIG2`` blobs, whose
keystream was HMAC-SHA256 in counter mode (one ``pbkdf2_hmac`` call), are
refused as framing errors.  SHAKE-256 makes a stream in about a third
of the host time: 0.25 -> 0.08 ms for a 23 KB blob (2-vCPU x86 VM,
CPython 3.11).
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import json
import struct

from repro.cycles import Category
from repro.errors import SecurityViolation
from repro.isa.hart import GPR_NAMES
from repro.mem.pagetable import Sv39x4
from repro.mem.physmem import PAGE_SIZE
from repro.sm.cvm import CvmState, GpaLayout
from repro.sm.vcpu import GUEST_CSRS

_MAGIC = b"ZIONMIG3"
_NONCE = struct.Struct("<Q")
_TAG_SIZE = 32
_LAYOUT_FIELDS = frozenset(field.name for field in dataclasses.fields(GpaLayout))
_VCPU_FIELDS = frozenset(("gprs", "csrs", "pc"))
_GPR_NAMES = frozenset(GPR_NAMES)
_CSR_NAMES = frozenset(GUEST_CSRS)
#: Bound once: a lookup through an enum class runs its metaclass's
#: attribute hook.
_COPY, _SM_LOGIC = Category.COPY, Category.SM_LOGIC
_SUSPENDED, _CREATED = CvmState.SUSPENDED, CvmState.CREATED
#: The stage-2 geometry, built once: construction compiles its structs.
_SV39X4 = Sv39x4()


def derive_migration_key(fleet_secret: bytes, src_nonce: bytes, dst_nonce: bytes) -> bytes:
    """Both SMs derive the same key from the fleet secret + fresh nonces."""
    return hmac.new(fleet_secret, b"migrate" + src_nonce + dst_nonce, hashlib.sha256).digest()


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    # SHAKE-256 over enc_key || nonce, read out to ``length`` bytes in one
    # C call.  enc_key is 32 bytes and the nonce a fixed 8, so distinct
    # (enc_key, nonce) pairs absorb distinct inputs.  It replaced
    # HMAC-SHA256 in counter mode (PBKDF2 with one iteration), which costs
    # three SHA-256 compressions per 32 output bytes: over 8 fleet_migrate
    # rounds (seed 1, 2-vCPU x86 VM, CPython 3.11) this call went from
    # 0.70-0.75 to 0.20-0.27 s of host time.  Nothing is cached across
    # calls: a cache would hold key material.
    enc_key = hmac.digest(key, b"enc", "sha256")
    return hashlib.shake_256(enc_key + nonce).digest(length)


def _xor(data: bytes, stream: bytes) -> bytes:
    """XOR ``data`` with ``stream``; the result has the shorter length."""
    n = min(len(data), len(stream))
    # One big-integer XOR over the whole buffer: the byte work runs in C.
    return (
        int.from_bytes(data[:n], "little") ^ int.from_bytes(stream[:n], "little")
    ).to_bytes(n, "little")


def _mac(key: bytes, data: bytes) -> bytes:
    mac_key = hmac.digest(key, b"mac", "sha256")
    return hmac.digest(mac_key, data, "sha256")


def export_cvm(monitor, cvm_id: int, key: bytes) -> bytes:
    """Serialise + seal a suspended CVM; the CVM is destroyed afterwards.

    Only the SM can do this (it reads pool pages with M-mode access); the
    returned blob is what the hypervisor gets to see and transport.
    """
    cvm = monitor._cvm(cvm_id)
    cvm.require_state(_SUSPENDED)
    monitor.migration_export_seq += 1

    # Only the root slots of private DRAM: the shared window's leaves
    # (hypervisor memory, never exported) are not even read.
    layout = cvm.layout
    pages = []
    for gpa, pa, _flags, _level in _SV39X4.iter_leaves(
        monitor.dram, cvm.hgatp_root, layout.dram_base, layout.dram_base + layout.dram_size
    ):
        if layout.in_private_dram(gpa):
            pages.append((gpa, monitor.dram.read(pa, PAGE_SIZE)))
    pages.sort()

    header = {
        "layout": {
            "dram_base": cvm.layout.dram_base,
            "dram_size": cvm.layout.dram_size,
            "mmio_base": cvm.layout.mmio_base,
            "mmio_size": cvm.layout.mmio_size,
            "shared_base": cvm.layout.shared_base,
            "shared_size": cvm.layout.shared_size,
        },
        "measurement": cvm.measurement.hex() if cvm.measurement else None,
        "rtmrs": [r.hex() for r in cvm.rtmrs],
        "vcpus": [
            {
                "gprs": vcpu.gprs,
                "csrs": vcpu.csrs,
                "pc": vcpu.pc,
            }
            for vcpu in cvm.vcpus
        ],
        "page_count": len(pages),
        # Freshness: no two exports (even of an unchanged CVM) seal to
        # the same blob, so the destination's replay registry only ever
        # refuses genuine re-deliveries of one sealed instance.
        "export_seq": monitor.migration_export_seq,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    body = bytearray()
    body += struct.pack("<I", len(header_bytes))
    body += header_bytes
    for gpa, data in pages:
        body += struct.pack("<Q", gpa)
        body += data
    plaintext = bytes(body)

    monitor.ledger.charge(_COPY, monitor.costs.copy_bytes(len(plaintext)))
    monitor.ledger.charge(_SM_LOGIC, 12_000)  # key schedule + bookkeeping
    # The export counter never repeats in one SM's life, and the key binds
    # the host pair, so no two blobs sealed under one key share a nonce.
    nonce = _NONCE.pack(monitor.migration_export_seq)
    ciphertext = _xor(plaintext, _keystream(key, nonce, len(plaintext)))
    blob = _MAGIC + nonce + ciphertext + _mac(key, nonce + ciphertext)

    # The source instance is gone: scrub and recycle, like destroy.
    monitor.ecall_resume(cvm_id)  # destroy requires a non-suspended state
    monitor.ecall_destroy(cvm_id)
    return blob


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_hex(value) -> bool:
    if not isinstance(value, str):
        return False
    try:
        bytes.fromhex(value)
    except ValueError:
        return False
    return True


def _is_word(value) -> bool:
    return _is_int(value) and 0 <= value < 1 << 64


def _is_register_file(value, names: frozenset) -> bool:
    return (isinstance(value, dict) and value.keys() == names
            and all(_is_word(word) for word in value.values()))


def _parse_layout(fields) -> GpaLayout:
    if not isinstance(fields, dict) or fields.keys() != _LAYOUT_FIELDS:
        raise SecurityViolation(
            f"migration blob layout must have exactly the fields "
            f"{sorted(_LAYOUT_FIELDS)}"
        )
    if not all(_is_int(value) for value in fields.values()):
        raise SecurityViolation("migration blob layout fields must be integers")
    try:
        return GpaLayout(**fields)
    except ValueError as error:
        raise SecurityViolation(f"migration blob layout invalid: {error}") from error


def _check_vcpu(state) -> None:
    if not isinstance(state, dict) or state.keys() != _VCPU_FIELDS:
        raise SecurityViolation(
            f"migration blob vCPU must have exactly the fields {sorted(_VCPU_FIELDS)}"
        )
    # Entry installs the register files as they are, over whatever the
    # hart held: each must name every register, with a 64-bit word, so no
    # host value survives into VS mode.
    if not (_is_register_file(state["gprs"], _GPR_NAMES)
            and _is_register_file(state["csrs"], _CSR_NAMES)
            and _is_word(state["pc"])):
        raise SecurityViolation(
            "migration blob vCPU state malformed: gprs/csrs must map every "
            "register name to a 64-bit word and pc must be a 64-bit word"
        )


def _parse_header(plaintext: bytes) -> tuple:
    """Validate blob framing and return ``(header, layout, pages_offset)``.

    The MAC already proved the plaintext came from a peer SM, but a
    production monitor still refuses to index past buffer ends or trust
    field types on a malformed (e.g. stale-format) blob: every length
    field is bounds-checked and every field type- and shape-checked
    before use, and any inconsistency is a typed
    :class:`SecurityViolation`, never an IndexError, TypeError or
    ValueError unwinding M mode.  All of it runs before the destination
    creates a CVM.
    """
    if len(plaintext) < 4:
        raise SecurityViolation("migration blob framing invalid: no header length")
    (header_len,) = struct.unpack_from("<I", plaintext, 0)
    if header_len <= 0 or 4 + header_len > len(plaintext):
        raise SecurityViolation(
            f"migration blob framing invalid: header length {header_len} "
            f"exceeds payload ({len(plaintext)} bytes)"
        )
    try:
        header = json.loads(plaintext[4 : 4 + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SecurityViolation(
            f"migration blob header is not valid JSON: {error}"
        ) from error
    if not isinstance(header, dict):
        raise SecurityViolation("migration blob header is not a JSON object")
    for field in ("layout", "vcpus", "page_count", "measurement"):
        if field not in header:
            raise SecurityViolation(f"migration blob header missing {field!r}")
    layout = _parse_layout(header["layout"])
    vcpus = header["vcpus"]
    if not isinstance(vcpus, list):
        raise SecurityViolation("migration blob vcpus must be a list")
    if not vcpus:
        raise SecurityViolation("migration blob describes a CVM with no vCPUs")
    for state in vcpus:
        _check_vcpu(state)
    measurement = header["measurement"]
    if measurement is not None and not _is_hex(measurement):
        raise SecurityViolation("migration blob measurement is not hex")
    rtmrs = header.get("rtmrs", [])
    if not isinstance(rtmrs, list) or not all(_is_hex(r) for r in rtmrs):
        raise SecurityViolation("migration blob rtmrs must be a list of hex strings")
    page_count = header["page_count"]
    if not _is_int(page_count):
        raise SecurityViolation("migration blob page_count must be an integer")
    offset = 4 + header_len
    body = len(plaintext) - offset
    if page_count < 0 or page_count * (8 + PAGE_SIZE) != body:
        raise SecurityViolation(
            f"migration blob page section inconsistent: header says "
            f"{page_count} pages, body holds {body} bytes"
        )
    return header, layout, offset


def import_cvm(monitor, blob: bytes, key: bytes, vcpu_count: int | None = None) -> int:
    """Verify, decrypt and re-instantiate a migrated CVM.

    Returns the new ``cvm_id`` (CREATED, ready to run once the host
    provisions shared vCPU pages and the shared subtree and finalizes).
    Raises :class:`SecurityViolation` for any authenticity failure:
    a tampered or truncated blob (MAC/framing), a mismatched migration
    key, or a *replayed* blob -- each sealed instance may be imported at
    most once per destination SM, so a hypervisor cannot clone a CVM by
    re-delivering its blob.  If instantiation fails partway (e.g. the
    pool runs dry mid-copy), the partial CVM is destroyed -- scrubbed
    and its frames recycled -- before the error propagates, so a failed
    arrival can never leak secure memory.
    """
    start = len(_MAGIC) + _NONCE.size
    if len(blob) < start + _TAG_SIZE or not blob.startswith(_MAGIC):
        raise SecurityViolation("migration blob framing invalid")
    nonce = blob[len(_MAGIC):start]
    ciphertext, tag = blob[start:-_TAG_SIZE], blob[-_TAG_SIZE:]
    if not hmac.compare_digest(_mac(key, blob[len(_MAGIC):-_TAG_SIZE]), tag):
        raise SecurityViolation("migration blob failed authentication")
    if tag in monitor.migration_imports:
        raise SecurityViolation(
            "migration blob replayed: this sealed instance was already "
            "imported on this host"
        )
    monitor.ledger.charge(_COPY, monitor.costs.copy_bytes(len(ciphertext)))
    monitor.ledger.charge(_SM_LOGIC, 12_000)
    plaintext = _xor(ciphertext, _keystream(key, nonce, len(ciphertext)))

    header, layout, offset = _parse_header(plaintext)
    vcpus = header["vcpus"]

    cvm_id = monitor.ecall_create_cvm(layout, vcpu_count or len(vcpus))
    cvm = monitor.cvms[cvm_id]

    try:
        for _ in range(header["page_count"]):
            (gpa,) = struct.unpack_from("<Q", plaintext, offset)
            offset += 8
            data = plaintext[offset : offset + PAGE_SIZE]
            offset += PAGE_SIZE
            if not cvm.layout.in_private_dram(gpa):
                raise SecurityViolation(
                    f"migration blob maps GPA {gpa:#x} outside the "
                    "CVM's private DRAM window"
                )
            pa = monitor._alloc_and_map(cvm, 0, gpa)
            monitor.dram.write(pa, data)
            monitor.ledger.charge(_COPY, monitor.costs.copy_bytes(PAGE_SIZE))

        for vcpu, state in zip(cvm.vcpus, vcpus):
            vcpu.gprs = dict(state["gprs"])
            vcpu.csrs = dict(state["csrs"])
            vcpu.pc = state["pc"]

        if header["measurement"] is not None:
            cvm.measurement = bytes.fromhex(header["measurement"])
        cvm.rtmrs = [bytes.fromhex(r) for r in header.get("rtmrs", [])] or cvm.rtmrs
        cvm.measurement_log.extend("migrated-in", tag)
        cvm.measurement_log.finalize()
    except Exception:
        # Fail-stop without a leak: scrub and recycle whatever the
        # partial import already mapped, then surface the typed error.
        monitor.ecall_destroy(cvm_id)
        raise
    monitor.migration_imports.add(tag)
    cvm.state = _CREATED  # still needs shared vCPUs from the host
    return cvm_id
