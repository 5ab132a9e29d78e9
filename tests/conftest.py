"""Shared fixtures for the ZION reproduction test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import Machine, MachineConfig
from repro.cycles import DEFAULT_COSTS, CycleLedger

#: ``HYPOTHESIS_PROFILE=ci`` runs property tests that leave
#: ``max_examples`` to the profile (the single-access differential test,
#: the ledger span property) four times longer than the default 100.
settings.register_profile("ci", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_machine(reference: bool = False, **config) -> Machine:
    """A machine built from ``MachineConfig(**config)``.

    With ``reference``, every guest access of its sessions takes the
    reference path (``Machine._reference_access``) instead of the
    engine: the other side of every engine-vs-reference diff.
    """
    machine = Machine(MachineConfig(**config))
    if reference:
        machine._reference_only = True
    return machine


@pytest.fixture
def ledger():
    return CycleLedger()


@pytest.fixture
def costs():
    return DEFAULT_COSTS


@pytest.fixture
def machine():
    """A default machine (paper platform, shared vCPU, short path)."""
    return Machine(MachineConfig())


@pytest.fixture
def small_machine():
    """A machine with a small pool so stage-3 expansion is easy to reach."""
    return Machine(MachineConfig(initial_pool_bytes=2 << 20))


@pytest.fixture
def cvm_session(machine):
    return machine.launch_confidential_vm(image=b"test-guest-image" * 64)


@pytest.fixture
def normal_session(machine):
    return machine.launch_normal_vm("test-vm")
