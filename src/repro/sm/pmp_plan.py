"""The SM's PMP/IOPMP layout and world-switch toggling (paper IV-C).

Layout on every hart:

- entry 0: the SM's own firmware/metadata region -- locked, no access for
  lower modes (standard OpenSBI-style self-protection);
- entries 1..N: one TOR region per registered secure-pool region, whose
  permissions the SM *toggles on every world switch* -- open (RWX below M)
  while a CVM runs, closed while Normal mode runs;
- the final entry: a background TOR region covering all of DRAM, RWX, so
  normal memory stays accessible in both worlds.

The same pool regions are mirrored into the IOPMP as deny rules for all
DMA masters, which do not participate in world switching: devices never
get to touch the pool, in either mode.
"""

from __future__ import annotations

from repro.cycles import Category, CycleCosts, CycleLedger
from repro.errors import ConfigurationError
from repro.isa.iopmp import IopmpEntry, IopmpUnit
from repro.isa.pmp import PmpAddressMode, PmpEntry

#: PMP entry indexes.
_FIRMWARE_ENTRY = 0
_FIRST_POOL_ENTRY = 1
_BACKGROUND_ENTRY = 15

#: Maximum pool regions a 16-entry PMP can carve (entry 0 and 15 reserved).
MAX_POOL_REGIONS = _BACKGROUND_ENTRY - _FIRST_POOL_ENTRY


class PmpController:
    """Programs the harts' PMP units and the platform IOPMP for ZION."""

    def __init__(
        self,
        harts,
        iopmp: IopmpUnit,
        firmware_base: int,
        firmware_size: int,
        dram_base: int,
        dram_size: int,
        ledger: CycleLedger,
        costs: CycleCosts,
    ):
        self._harts = list(harts)
        self._iopmp = iopmp
        self._firmware = (firmware_base, firmware_size)
        self._dram = (dram_base, dram_size)
        self._ledger = ledger
        self._costs = costs
        self._pool_regions: list[tuple[int, int]] = []
        #: Pool state per hart id: True when open (CVM mode).
        self._pool_open: dict[int, bool] = {}
        #: open_ -> the ``(index, PmpEntry)`` programme that sets every
        #: pool entry to that state; built on first use, dropped when a
        #: region registers.
        self._programmes: dict[bool, tuple] = {}
        self._install_static_entries()

    # -- static configuration ---------------------------------------------

    def _install_static_entries(self) -> None:
        firmware_base, firmware_size = self._firmware
        dram_base, dram_size = self._dram
        for hart in self._harts:
            hart.pmp.set_entry(
                _FIRMWARE_ENTRY,
                PmpEntry(
                    mode=PmpAddressMode.TOR,
                    base=firmware_base,
                    size=firmware_size,
                    locked=True,
                ),
            )
            hart.pmp.set_entry(
                _BACKGROUND_ENTRY,
                PmpEntry(
                    mode=PmpAddressMode.TOR,
                    base=dram_base,
                    size=dram_size,
                    readable=True,
                    writable=True,
                    executable=True,
                ),
            )
            self._pool_open[hart.hart_id] = False
        # Devices may DMA anywhere in DRAM *except* pool regions; pool deny
        # rules are inserted ahead of this allow rule as regions register.
        self._iopmp.add_entry(
            IopmpEntry(base=dram_base, size=dram_size, readable=True, writable=True)
        )

    # -- pool region registration -----------------------------------------------

    def add_pool_region(self, base: int, size: int) -> None:
        """Cover a newly registered pool region on every hart + the IOPMP.

        Charged as reprogramming one PMP entry per hart plus one IOPMP
        deny rule; callers follow with the required fence.
        """
        if len(self._pool_regions) >= MAX_POOL_REGIONS:
            raise ConfigurationError(
                f"PMP can only carve {MAX_POOL_REGIONS} pool regions"
            )
        self._pool_regions.append((base, size))
        self._programmes.clear()
        index = _FIRST_POOL_ENTRY + len(self._pool_regions) - 1
        for hart in self._harts:
            open_now = self._pool_open[hart.hart_id]
            hart.pmp.set_entry(index, self._pool_entry(base, size, open_now))
            self._ledger.charge(Category.PMP, self._costs.pmp_entry_write)
        self._iopmp.insert_entry(0, IopmpEntry(base=base, size=size))
        self._ledger.charge(Category.PMP, self._costs.iopmp_entry_write)
        self._ledger.charge(Category.PMP, self._costs.pmp_fence)

    @staticmethod
    def _pool_entry(base: int, size: int, open_: bool) -> PmpEntry:
        return PmpEntry(
            mode=PmpAddressMode.TOR,
            base=base,
            size=size,
            readable=open_,
            writable=open_,
            executable=open_,
        )

    # -- world-switch toggling ----------------------------------------------------

    def open_pool(self, hart, charge: bool = True) -> None:
        """Grant CVM-mode access to every pool region on this hart.

        ``charge=False`` performs the same PMP reprogramming but leaves
        the cycle accounting to the caller: the world switch's memoized
        plan pre-fires the fused ``pool_region_count * pmp_entry_write +
        pmp_fence`` cost (same total, same category, same checkpoint
        window -- see world_switch.py).
        """
        self._set_pool(hart, open_=True, charge=charge)

    def close_pool(self, hart, charge: bool = True) -> None:
        """Revoke pool access before returning to Normal mode.

        See :meth:`open_pool` for the ``charge`` contract.
        """
        self._set_pool(hart, open_=False, charge=charge)

    def _set_pool(self, hart, open_: bool, charge: bool = True) -> None:
        programme = self._programmes.get(open_)
        if programme is None:
            programme = self._programmes[open_] = tuple(
                (_FIRST_POOL_ENTRY + i, self._pool_entry(base, size, open_))
                for i, (base, size) in enumerate(self._pool_regions)
            )
        hart.pmp.set_entries(programme)
        if charge:
            for _ in programme:
                self._ledger.charge(Category.PMP, self._costs.pmp_entry_write)
            self._ledger.charge(Category.PMP, self._costs.pmp_fence)
        self._pool_open[hart.hart_id] = open_

    def pool_is_open(self, hart) -> bool:
        """Whether this hart currently has CVM-mode pool access."""
        return self._pool_open[hart.hart_id]

    @property
    def pool_regions(self):
        return list(self._pool_regions)

    @property
    def pool_region_count(self) -> int:
        """Registered pool regions (the world-switch plan key)."""
        return len(self._pool_regions)

    @property
    def pmp_entries_used(self) -> int:
        """Occupied PMP entries (firmware + pool regions + background)."""
        return 2 + len(self._pool_regions)
