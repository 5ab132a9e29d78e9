"""Machine-wide security-invariant checker.

:func:`check_invariants` sweeps a machine and verifies, from first
principles (raw memory and PMP state, not bookkeeping), every structural
property ZION's security argument rests on.  Integration tests call it
after complex scenarios; embedders can call it anywhere as a tripwire.

Checked invariants:

I1. every CVM's stage-2 root and private table pages lie inside the pool;
I2. every private leaf's whole span is pool memory, its frame owned by
    exactly that CVM
    (frames of a live SM-brokered channel window are the one sanctioned
    exception: token-owned and mapped into both endpoints by design --
    :mod:`repro.faults.invariants` checks their ownership separately);
I3. no two CVMs' private frames intersect (channel windows excepted);
I4. shared-subtree tables, and every byte of every shared leaf's span,
    lie outside the pool;
I5. the PMP pool entries of every hart match its recorded world state
    (open only while that hart executes a CVM);
I6. the IOPMP denies DMA into every pool region, for any source id;
I7. free pool pages are zero (scrubbing actually happened);
I8. SM metadata pages (page tables) are never mapped into any CVM.

Each violation is reported as a string; an empty list means the machine
is consistent.  :func:`assert_invariants` raises on the first report.
"""

from __future__ import annotations

from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import AccessType
from repro.mem.pagetable import Sv39x4
from repro.mem.physmem import PAGE_SIZE
from repro.sm.channel import ChannelState
from repro.sm.cvm import CvmState
from repro.sm.secmem import OWNER_FREE, OWNER_SM


def check_invariants(machine) -> list:
    """Sweep the machine; returns a list of violation descriptions."""
    violations: list[str] = []
    monitor = machine.monitor
    pool = monitor.pool
    walker = Sv39x4()
    dram = machine.dram  # raw M-mode view of the tables

    live_cvms = [
        cvm for cvm in monitor.cvms.values() if cvm.state is not CvmState.DESTROYED
    ]

    # Frames legitimately shared between endpoint CVMs via a live
    # SM-brokered channel: owned by the channel token (not either CVM)
    # and mapped into both endpoints' private ranges by design.
    channel_frames: dict[int, set] = {}
    for channel in monitor.channels.channels.values():
        if channel.state is ChannelState.CLOSED:
            continue
        frames = {
            channel.window_pa + offset
            for offset in range(0, channel.window_size, PAGE_SIZE)
        }
        for endpoint_id in channel.gpas:
            channel_frames.setdefault(endpoint_id, set()).update(frames)

    # --- I1/I2/I4: per-CVM table and leaf placement ----------------------
    frames_by_cvm: dict[int, set] = {}
    all_table_pages: set = set()
    for cvm in live_cvms:
        if cvm.hgatp_root is None:
            continue
        if not pool.contains(cvm.hgatp_root, 16 * 1024):
            violations.append(
                f"I1: CVM {cvm.cvm_id} root {cvm.hgatp_root:#x} outside the pool"
            )
        shared_split = monitor.split.shared_root_index_base(cvm)
        for table in walker.iter_tables(dram, cvm.hgatp_root):
            all_table_pages.add(table)
        # Two range scans, in GPA order: private DRAM ends below the
        # shared window (GpaLayout enforces it).  Leaves are checked
        # across their whole span, not just their first page.
        layout = cvm.layout
        frames = set()
        for gpa, pa, _flags, level in walker.iter_leaves(
            dram, cvm.hgatp_root, layout.dram_base, layout.dram_base + layout.dram_size
        ):
            if not layout.in_private_dram(gpa):
                continue
            page = pa & ~(PAGE_SIZE - 1)
            if page in channel_frames.get(cvm.cvm_id, ()):
                continue  # live channel window: token-owned by design
            frames.add(page)
            if not pool.contains(pa, walker.level_span(level)):
                violations.append(
                    f"I2: CVM {cvm.cvm_id} private GPA {gpa:#x} maps "
                    f"non-pool PA {pa:#x}"
                )
            elif pool.owner_of(page) != cvm.cvm_id:
                violations.append(
                    f"I2: CVM {cvm.cvm_id} private frame {pa:#x} owned by "
                    f"{pool.owner_of(page)!r}"
                )
        # The hypervisor's shared window: only leaves reaching the pool
        # come back from the scan, so its pages of leaves cost no
        # per-leaf Python work.
        violations.extend(
            f"I4: CVM {cvm.cvm_id} shared GPA {gpa:#x} aliases pool PA {pa:#x}"
            for gpa, pa, _flags, _level in walker.leaves_overlapping(
                dram, cvm.hgatp_root, pool.regions,
                layout.shared_base, layout.shared_base + layout.shared_size,
            )
            if layout.in_shared(gpa)
        )
        frames_by_cvm[cvm.cvm_id] = frames
        # Shared subtrees (hypervisor-owned) must live in normal memory.
        for index, table in cvm.shared_subtrees.items():
            if index < shared_split:
                violations.append(
                    f"I4: CVM {cvm.cvm_id} shared subtree at private index {index}"
                )
            if pool.contains(table, PAGE_SIZE):
                violations.append(
                    f"I4: CVM {cvm.cvm_id} shared subtree table {table:#x} in pool"
                )

    # --- I3: pairwise disjointness ------------------------------------------
    ids = sorted(frames_by_cvm)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            overlap = frames_by_cvm[a] & frames_by_cvm[b]
            if overlap:
                violations.append(
                    f"I3: CVMs {a} and {b} share frames {sorted(overlap)[:3]}"
                )

    # --- I5: PMP state vs world state -----------------------------------------
    for hart in machine.harts:
        is_open = machine.pmp_controller.pool_is_open(hart)
        for base, size in pool.regions:
            readable = hart.pmp.check(base, 8, AccessType.LOAD, PrivilegeMode.HS)
            if readable != is_open:
                violations.append(
                    f"I5: hart {hart.hart_id} pool PMP state "
                    f"({'open' if readable else 'closed'}) disagrees with "
                    f"recorded world ({'open' if is_open else 'closed'})"
                )
        session = machine._active_session
        cvm_running_here = (
            session is not None
            and session.active
            and getattr(session, "cvm", None) is not None
            and session.hart is hart
        )
        if is_open and not cvm_running_here and hart.mode is not PrivilegeMode.M:
            violations.append(
                f"I5: hart {hart.hart_id} has the pool open with no CVM running"
            )

    # --- I6: IOPMP coverage -------------------------------------------------------
    for base, size in pool.regions:
        for source_id in (0, 1, 7):
            for access in (AccessType.LOAD, AccessType.STORE):
                if machine.iopmp.check(source_id, base, 64, access):
                    violations.append(
                        f"I6: IOPMP allows device {source_id} {access.value} "
                        f"into pool region {base:#x}"
                    )

    # --- I7: free pages are scrubbed ----------------------------------------------
    free_pages = pool.pages_owned_by(OWNER_FREE)
    for page in free_pages[:: max(1, len(free_pages) // 32)]:  # sampled
        if machine.dram.read(page, 64) != bytes(64):
            violations.append(f"I7: free pool page {page:#x} holds residual data")

    # --- I8: metadata pages never guest-mapped --------------------------------------
    for cvm_id, frames in frames_by_cvm.items():
        mapped_tables = frames & all_table_pages
        if mapped_tables:
            violations.append(
                f"I8: CVM {cvm_id} maps page-table pages {sorted(mapped_tables)[:3]}"
            )
        for frame in frames:
            if pool.owner_of(frame) == OWNER_SM:
                violations.append(
                    f"I8: CVM {cvm_id} maps SM metadata page {frame:#x}"
                )

    return violations


def assert_invariants(machine) -> None:
    """Raise ``AssertionError`` listing violations, if any."""
    violations = check_invariants(machine)
    if violations:
        raise AssertionError(
            "security invariants violated:\n  " + "\n  ".join(violations)
        )
