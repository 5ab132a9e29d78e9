"""The SM's PMP layout and world-switch pool toggling."""

import pytest

from repro.cycles import Category, CycleLedger, DEFAULT_COSTS
from repro.errors import ConfigurationError
from repro.isa.hart import Hart
from repro.isa.iopmp import IopmpUnit
from repro.isa.privilege import PrivilegeMode
from repro.isa.traps import AccessType
from repro.sm.pmp_plan import MAX_POOL_REGIONS, PmpController

DRAM = 0x8000_0000
FW_SIZE = 2 << 20
POOL = DRAM + (64 << 20)
POOL_SIZE = 16 << 20


@pytest.fixture
def env():
    ledger = CycleLedger()
    harts = [Hart(i, ledger) for i in range(2)]
    iopmp = IopmpUnit()
    controller = PmpController(
        harts, iopmp, DRAM, FW_SIZE, DRAM, 1 << 30, ledger, DEFAULT_COSTS
    )
    return harts, iopmp, controller, ledger


def test_firmware_protected_from_lower_modes(env):
    harts, _, _, _ = env
    for hart in harts:
        assert not hart.pmp.check(DRAM, 8, AccessType.LOAD, PrivilegeMode.HS)
        assert not hart.pmp.check(DRAM + FW_SIZE - 8, 8, AccessType.STORE, PrivilegeMode.VS)


def test_firmware_entry_locked_against_m_too(env):
    """Even the SM cannot accidentally write through entry 0's lock."""
    harts, _, _, _ = env
    assert not harts[0].pmp.check(DRAM, 8, AccessType.STORE, PrivilegeMode.M)


def test_normal_memory_open_in_both_worlds(env):
    harts, _, controller, _ = env
    controller.add_pool_region(POOL, POOL_SIZE)
    normal = DRAM + (200 << 20)
    assert harts[0].pmp.check(normal, 8, AccessType.LOAD, PrivilegeMode.HS)
    controller.open_pool(harts[0])
    assert harts[0].pmp.check(normal, 8, AccessType.LOAD, PrivilegeMode.VS)


def test_pool_closed_by_default(env):
    harts, _, controller, _ = env
    controller.add_pool_region(POOL, POOL_SIZE)
    assert not harts[0].pmp.check(POOL, 8, AccessType.LOAD, PrivilegeMode.HS)
    assert not harts[0].pmp.check(POOL, 8, AccessType.STORE, PrivilegeMode.HS)


def test_open_then_close_cycle(env):
    harts, _, controller, _ = env
    controller.add_pool_region(POOL, POOL_SIZE)
    hart = harts[0]
    controller.open_pool(hart)
    assert controller.pool_is_open(hart)
    assert hart.pmp.check(POOL, 8, AccessType.LOAD, PrivilegeMode.VS)
    assert hart.pmp.check(POOL, 8, AccessType.STORE, PrivilegeMode.VS)
    controller.close_pool(hart)
    assert not controller.pool_is_open(hart)
    assert not hart.pmp.check(POOL, 8, AccessType.LOAD, PrivilegeMode.VS)


def test_toggle_is_per_hart(env):
    harts, _, controller, _ = env
    controller.add_pool_region(POOL, POOL_SIZE)
    controller.open_pool(harts[0])
    assert harts[0].pmp.check(POOL, 8, AccessType.LOAD, PrivilegeMode.VS)
    assert not harts[1].pmp.check(POOL, 8, AccessType.LOAD, PrivilegeMode.VS)


def test_new_region_respects_current_hart_state(env):
    harts, _, controller, _ = env
    controller.add_pool_region(POOL, POOL_SIZE)
    controller.open_pool(harts[0])
    second = POOL + POOL_SIZE
    controller.add_pool_region(second, POOL_SIZE)
    assert harts[0].pmp.check(second, 8, AccessType.LOAD, PrivilegeMode.VS)
    assert not harts[1].pmp.check(second, 8, AccessType.LOAD, PrivilegeMode.VS)


def test_iopmp_denies_pool_dma_in_both_worlds(env):
    harts, iopmp, controller, _ = env
    controller.add_pool_region(POOL, POOL_SIZE)
    assert not iopmp.check(0, POOL, 64, AccessType.STORE)
    controller.open_pool(harts[0])  # CPU-side open must NOT open DMA
    assert not iopmp.check(0, POOL, 64, AccessType.STORE)
    assert iopmp.check(0, DRAM + (200 << 20), 64, AccessType.STORE)


def test_region_limit(env):
    _, _, controller, _ = env
    for i in range(MAX_POOL_REGIONS):
        controller.add_pool_region(POOL + i * POOL_SIZE, POOL_SIZE)
    with pytest.raises(ConfigurationError):
        controller.add_pool_region(POOL + MAX_POOL_REGIONS * POOL_SIZE, POOL_SIZE)


def test_toggle_charges_pmp_cycles(env):
    harts, _, controller, ledger = env
    controller.add_pool_region(POOL, POOL_SIZE)
    before = ledger.by_category().get(Category.PMP, 0)
    controller.open_pool(harts[0])
    delta = ledger.by_category()[Category.PMP] - before
    assert delta == DEFAULT_COSTS.pmp_entry_write + DEFAULT_COSTS.pmp_fence


def test_entries_used_accounting(env):
    _, _, controller, _ = env
    assert controller.pmp_entries_used == 2
    controller.add_pool_region(POOL, POOL_SIZE)
    assert controller.pmp_entries_used == 3


def test_toggle_after_a_new_region_covers_it(env):
    """The cached open/close programmes are rebuilt when a region registers."""
    harts, _, controller, _ = env
    controller.add_pool_region(POOL, POOL_SIZE)
    controller.open_pool(harts[0])
    controller.close_pool(harts[0])
    second = POOL + POOL_SIZE
    controller.add_pool_region(second, POOL_SIZE)
    controller.open_pool(harts[0])
    for base in (POOL, second):
        assert harts[0].pmp.check(base, 8, AccessType.STORE, PrivilegeMode.VS)
    controller.close_pool(harts[0])
    for base in (POOL, second):
        assert not harts[0].pmp.check(base, 8, AccessType.LOAD, PrivilegeMode.VS)
