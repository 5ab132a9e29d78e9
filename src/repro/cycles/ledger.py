"""Cycle ledger: where simulated time accrues.

A :class:`CycleLedger` is the single clock of a simulated machine.  Every
component charges cycles to it, tagged with a :class:`Category` so that
experiments can break a total down (e.g. how much of a world switch was PMP
reprogramming vs. register save).  Scoped spans (:meth:`CycleLedger.span`)
measure the emergent cost of a compound operation without the operation
having to thread counters through its call tree.

The ledger sits on the hottest path in the simulator (every guest access
charges it several times), so the implementation is wall-clock-optimized:
counters live in a flat int list indexed by a precomputed per-category
index (no enum hashing), and a charge touches nothing but the counters:
spans keep no per-charge bookkeeping, because counters only ever grow, so
a span's breakdown is the categories whose counter moved between its
start and end snapshots.  None of this changes what is charged -- the
cycle model is identical.

The ledger also carries the machine's one event sink,
:attr:`CycleLedger.events`: ``None`` unless a :class:`repro.trace.Tracer`
or a :class:`repro.faults.FaultInjector` is attached through
:meth:`CycleLedger.attach`.  Every component already holds the ledger, so
the charge points that matter -- world switches, the hypervisor's reply,
stage-2 faults, ECALLs and the SM's two upcalls into the hypervisor --
record into it with an inline ``if events is not None``; with no sink
attached nothing else runs.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError


class Category(enum.Enum):
    """What a charge of cycles was spent on."""

    COMPUTE = "compute"  # guest useful work
    TRAP = "trap"  # hardware trap entry/exit
    REG_SAVE = "reg_save"  # GPR/CSR save+restore
    VALIDATE = "validate"  # check-after-load / sanitising copies
    PMP = "pmp"  # PMP / IOPMP reprogramming + fences
    TLB = "tlb"  # TLB flushes and refills
    PAGE_WALK = "page_walk"  # page-table walks
    SM_LOGIC = "sm_logic"  # secure monitor bookkeeping
    HYP_LOGIC = "hyp_logic"  # hypervisor / KVM / QEMU bookkeeping
    ALLOC = "alloc"  # memory allocation paths
    COPY = "copy"  # bulk data movement (bounce buffers, DMA)
    DEVICE = "device"  # device model processing
    GUEST_KERNEL = "guest_kernel"  # guest kernel trap/syscall handling
    IDLE = "idle"  # time waiting (e.g. device latency)


#: Categories in definition order; ``Category.index`` maps back.
_CATEGORIES: tuple = tuple(Category)
for _index, _category in enumerate(_CATEGORIES):
    _category.index = _index
del _index, _category


class CycleLedger:
    """Accumulates simulated cycles, tagged by category.

    The ledger is deliberately append-only: nothing ever subtracts cycles,
    mirroring a hardware cycle counter.
    """

    __slots__ = ("_total", "_counts", "_charged_mask", "events")

    def __init__(self):
        #: The attached event sink (``record(kind, **detail)``) or ``None``.
        self.events = None
        self._total = 0
        self._counts = [0] * len(_CATEGORIES)
        #: Bitmask of category indices ever charged (zero charges
        #: included), preserving ``by_category``'s historical contract of
        #: listing every category that has been touched.
        self._charged_mask = 0

    def attach(self, sink) -> None:
        """Make ``sink`` the event sink; a machine has one at a time."""
        if self.events is not None:
            raise ConfigurationError("this machine already has an event sink attached")
        self.events = sink

    def detach(self, sink) -> None:
        """Remove ``sink`` if it is the attached one."""
        if self.events is sink:
            self.events = None

    @property
    def total(self) -> int:
        """All cycles charged so far (the simulated ``mcycle``)."""
        return self._total

    def by_category(self) -> dict:
        """A snapshot of per-category totals."""
        counts = self._counts
        mask = self._charged_mask
        return {
            cat: counts[i]
            for i, cat in enumerate(_CATEGORIES)
            if mask >> i & 1
        }

    def charge(self, category: Category, cycles) -> None:
        """Charge ``cycles`` (int or float, floored at >=0) to ``category``."""
        if type(cycles) is not int:
            cycles = int(cycles)
        if cycles < 0:
            raise ValueError(f"cannot charge negative cycles: {cycles}")
        index = category.index
        self._total += cycles
        self._counts[index] += cycles
        self._charged_mask |= 1 << index

    def charger(self, category: Category, cycles, *more):
        """Precompile a zero-argument charge of fixed ``(category, cycles)``.

        Hot paths that charge the same cost on every call validate and
        resolve it once and get back a closure that only performs the
        counter updates: calling it is exactly ``charge(category,
        cycles)``, then ``charge`` of each further ``category, cycles``
        pair in ``more`` -- fused into one update of the total, the
        counters and the charged mask.
        """
        pairs = (category, cycles) + more
        if len(pairs) % 2:
            raise ValueError("charger takes (category, cycles) pairs")
        adds: dict = {}
        for category, cycles in zip(pairs[::2], pairs[1::2]):
            cycles = int(cycles)
            if cycles < 0:
                raise ValueError(f"cannot charge negative cycles: {cycles}")
            adds[category.index] = adds.get(category.index, 0) + cycles
        mask = sum(1 << index for index in adds)

        def fire(self=self, total=sum(adds.values()), adds=tuple(adds.items()), mask=mask):
            self._total += total
            counts = self._counts
            for index, cycles in adds:
                counts[index] += cycles
            self._charged_mask |= mask

        return fire

    def span(self):
        """Measure the cycles charged inside a ``with`` block.

        Returns a :class:`Span` usable as a context manager; its
        ``cycles`` and ``breakdown`` are valid after the block exits (or
        after an explicit :meth:`Span.close`).
        """
        return Span(self)


class Span:
    """A window over a ledger measuring one compound operation.

    A span is a pair of counter snapshots, taken when it opens and when
    it closes; the ledger knows nothing of open spans.  Nesting therefore
    needs no propagation: an enclosing span's window contains every
    charge made inside its children.
    """

    __slots__ = (
        "_ledger", "_start_total", "_start_counts", "_end_counts",
        "_closed", "_breakdown", "cycles",
    )

    def __init__(self, ledger: CycleLedger):
        self._ledger = ledger
        self._start_total = ledger._total
        self._start_counts = tuple(ledger._counts)
        self._end_counts = None
        self._closed = False
        self._breakdown = None
        self.cycles = 0

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Finalize the span's cycle count and category breakdown."""
        if self._closed:
            return
        self._closed = True
        ledger = self._ledger
        self.cycles = ledger._total - self._start_total
        self._end_counts = tuple(ledger._counts)

    @property
    def breakdown(self) -> dict:
        """Per-category cycles charged inside the span (lazily built).

        Most spans (one per SM-handled stage-2 fault) are measured only
        for ``cycles``; building the dict eagerly on every close was pure
        overhead, so it materialises on first access.  Counters only grow,
        so a category was charged a non-zero amount inside the span
        exactly when its counter moved; categories appear in index order.
        """
        if not self._closed:
            return {}
        if self._breakdown is None:
            start = self._start_counts
            ends = self._end_counts
            self._breakdown = {
                category: end - begin
                for category, begin, end in zip(_CATEGORIES, start, ends)
                if end != begin
            }
        return self._breakdown
