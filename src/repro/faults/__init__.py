"""Seeded, deterministic fault injection for the ZION reproduction.

The paper's threat model (PAPER section III) assumes the hypervisor is
*actively malicious on every interface* -- not merely buggy.  This
package turns that assumption into a repeatable campaign: a
:class:`FaultPlan` is derived from an integer seed, a
:class:`FaultInjector` applies it as the machine's event sink (the slot
a :class:`repro.trace.Tracer` uses), perturbing the machine at the
events it records where the SM meets the hypervisor, and after every
injected event a post-condition checker re-asserts the design's
security invariants.

A fault is *contained* when it surfaces as a typed
:class:`~repro.errors.ReproError` (the SM refusing a corrupt reply, a
ring detecting a poisoned length prefix, an allocation failing cleanly)
or is absorbed entirely; it is a *crash* when any other exception
escapes, and a *violation* when the invariant sweep reports a breach.
The campaign (:func:`run_campaign`, ``python -m repro faults``) demands
zero crashes and zero violations for every seed.
"""

from repro.faults.campaign import SeedResult, run_campaign, run_seed
from repro.faults.injector import FaultInjector
from repro.faults.invariants import check_postconditions
from repro.faults.plan import FAULT_SITES, FaultEvent, FaultPlan

__all__ = [
    "FAULT_SITES",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "SeedResult",
    "check_postconditions",
    "run_campaign",
    "run_seed",
]
