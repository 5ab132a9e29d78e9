"""Cost-table sanity and derived helpers."""

import dataclasses

from repro import Machine, MachineConfig
from repro.bench.microbench import _MMIO_EXIT, _TIMER_EXIT, _measure_switches
from repro.cycles import CycleCosts, DEFAULT_COSTS


def test_all_costs_non_negative():
    for field in dataclasses.fields(CycleCosts):
        value = getattr(DEFAULT_COSTS, field.name)
        assert value >= 0, field.name


def test_gpr_file_save():
    assert DEFAULT_COSTS.gpr_file_save == 31 * DEFAULT_COSTS.gpr_save


def test_csr_swap():
    assert DEFAULT_COSTS.csr_swap == DEFAULT_COSTS.csr_read + DEFAULT_COSTS.csr_write


def test_copy_bytes_scales_linearly():
    assert DEFAULT_COSTS.copy_bytes(0) == 0
    assert DEFAULT_COSTS.copy_bytes(1000) == int(1000 * DEFAULT_COSTS.copy_per_byte)


def test_zero_cheaper_than_copy():
    assert DEFAULT_COSTS.zero_bytes(4096) < DEFAULT_COSTS.copy_bytes(4096)


def test_costs_frozen_but_replaceable():
    """Ablations use dataclasses.replace; the base table stays immutable."""
    import pytest

    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_COSTS.trap_to_m = 1
    variant = dataclasses.replace(DEFAULT_COSTS, trap_to_m=999)
    assert variant.trap_to_m == 999
    assert DEFAULT_COSTS.trap_to_m != 999


def test_relative_ordering_matches_hardware_intuition():
    c = DEFAULT_COSTS
    # A trap costs more than a CSR access; a TLB flush more than a trap.
    assert c.trap_to_m > c.csr_swap
    assert c.tlb_flush_gvma > c.trap_to_m
    # Delegated guest traps are cheaper than M-mode traps.
    assert c.trap_to_vs < c.trap_to_m
    # The KVM gup path dwarfs the SM's fault fixed cost difference.
    assert c.kvm_fault_fixed > c.sm_fault_fixed


def test_doubling_every_cost_doubles_e1_and_e2_switches():
    """Every field is a cost, not a count: doubling them all doubles each
    E1/E2 mean entry and exit exactly."""
    doubled = CycleCosts(**{f.name: 2 * getattr(DEFAULT_COSTS, f.name)
                            for f in dataclasses.fields(CycleCosts)})
    for config, exit_info in (({"use_shared_vcpu": True}, _MMIO_EXIT),
                              ({"use_shared_vcpu": False}, _MMIO_EXIT),
                              ({"long_path": False}, _TIMER_EXIT),
                              ({"long_path": True}, _TIMER_EXIT)):
        base, scaled = (_measure_switches(Machine(MachineConfig(costs=costs, **config)),
                                          exit_info, 5) for costs in (DEFAULT_COSTS, doubled))
        for key in ("entry_cycles", "exit_cycles"):
            assert scaled[key] == 2 * base[key], (config, key)
