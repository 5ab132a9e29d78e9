"""Fault plans: what to inject, where, and when -- fixed by a seed.

The determinism contract: **all** randomness is consumed here, at plan
build time, by a private ``random.Random(seed)`` instance.  The injector
applies the plan using only the pre-drawn parameters, so a given seed
produces the identical injection sequence on every run -- which is what
makes ``python -m repro faults --seed K`` a faithful replay of any
failure the campaign finds.

Each :class:`FaultEvent` names a *site* (the fault class), the 1-based
*occurrence* of its underlying seam at which it fires, and a tuple of
site-specific parameters.  Several sites share one seam (every channel
fault triggers on the Nth doorbell the SM passes to the hypervisor, both
expansion faults on the Nth pool-expand request); the injector keys its
occurrence counters by seam, so events on sibling sites compose
predictably.
"""

from __future__ import annotations

import dataclasses
import random

from repro.sm.vcpu import SHARED_VCPU_FIELDS

#: Every fault class the machine-level injector implements.
FAULT_SITES = (
    "vcpu_corrupt",     # overwrite a shared-vCPU field before Check-after-Load
    "doorbell_drop",    # swallow the hypervisor-side doorbell wakeup
    "doorbell_dup",     # deliver the doorbell wakeup twice
    "vsei_drop",        # clear the injected VSEI after the SM raised it
    "window_flip",      # flip one byte inside the channel window
    "window_length",    # poison a message length prefix in the ring
    "ring_tear",        # torn (half-word) update of a ring prod counter
    "expand_fail",      # pool-expansion request donates nothing
    "expand_short",     # pool-expansion donates a single block only
    "timer_spurious",   # extra timer exit/entry cycle the guest never asked for
)

#: Fault classes the fleet orchestrator's untrusted blob ferry applies on
#: the Nth migration (the ``migration`` seam).  The machine-level
#: :class:`~repro.faults.injector.FaultInjector` hooks no migration seam
#: -- a migration crosses two machines -- so these events only fire when
#: a migration-aware driver (``repro.fleet``) consumes them.
MIGRATION_SITES = (
    "mig_blob_flip",      # ferry flips one ciphertext byte in transit
    "mig_blob_truncate",  # ferry truncates the blob mid-flight
    "mig_stale_key",      # destination derives the key from a stale nonce
    "mig_replay",         # ferry re-delivers an already-imported blob
    "mig_impostor",       # ferry swaps in a validly-sealed decoy CVM's blob
)

#: Every drawable site, machine seams first (order is part of the seeded
#: sampling contract for seam-scoped plans).
ALL_SITES = FAULT_SITES + MIGRATION_SITES

#: Seam each site's trigger counter is keyed on (see module docstring).
SITE_SEAMS = {
    "vcpu_corrupt": "enter",
    "doorbell_drop": "notify",
    "doorbell_dup": "notify",
    "vsei_drop": "notify",
    "window_flip": "notify",
    "window_length": "notify",
    "ring_tear": "notify",
    "expand_fail": "expand",
    "expand_short": "expand",
    "timer_spurious": "timer",
    "mig_blob_flip": "migration",
    "mig_blob_truncate": "migration",
    "mig_stale_key": "migration",
    "mig_replay": "migration",
    "mig_impostor": "migration",
}

#: Friendly seam vocabulary -> canonical seam names.  Campaign callers
#: say ``seams=["migration", "channel"]``; the plan resolves the alias to
#: whatever internal seam counters implement it.
SEAM_ALIASES = {
    "enter": ("enter",),
    "notify": ("notify",),
    "expand": ("expand",),
    "timer": ("timer",),
    "migration": ("migration",),
    "channel": ("notify",),
    "lifecycle": ("enter", "expand", "timer"),
}


def resolve_seams(seams) -> tuple:
    """Normalize a seam-name iterable through :data:`SEAM_ALIASES`.

    Returns the canonical seam tuple (deduplicated, in first-mention
    order); raises ``ValueError`` for an unknown name so a typo'd
    ``--seams`` dies loudly instead of silently drawing no events.
    """
    canonical: list = []
    for name in seams:
        expansion = SEAM_ALIASES.get(name)
        if expansion is None:
            raise ValueError(
                f"unknown fault seam {name!r}; known: {sorted(SEAM_ALIASES)}"
            )
        for seam in expansion:
            if seam not in canonical:
                canonical.append(seam)
    return tuple(canonical)


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One planned injection: fire ``site`` at seam occurrence ``at``."""

    site: str
    at: int
    params: tuple = ()

    def describe(self) -> str:
        """Compact human-readable form for reports and logs."""
        inner = f"@{self.at}"
        if self.params:
            inner += " " + ",".join(repr(p) for p in self.params)
        return f"{self.site}[{inner}]"


def _draw_event(rng: random.Random, site: str) -> FaultEvent:
    """Draw one event's trigger point and parameters for ``site``."""
    if site == "vcpu_corrupt":
        field = rng.choice(tuple(SHARED_VCPU_FIELDS))
        value = rng.getrandbits(64)
        return FaultEvent(site, rng.randint(1, 40), (field, value))
    if site in ("doorbell_drop", "doorbell_dup", "vsei_drop"):
        return FaultEvent(site, rng.randint(1, 16))
    if site == "window_flip":
        # (ring half, position as a fraction of 4096, xor mask)
        return FaultEvent(
            site,
            rng.randint(1, 16),
            (rng.randint(0, 1), rng.randint(0, 4095), rng.randint(1, 255)),
        )
    if site == "window_length":
        return FaultEvent(site, rng.randint(1, 16), (rng.randint(0, 1),))
    if site == "ring_tear":
        return FaultEvent(
            site,
            rng.randint(1, 16),
            (rng.randint(0, 1), rng.randint(1, 1 << 20)),
        )
    if site in ("expand_fail", "expand_short"):
        return FaultEvent(site, rng.randint(1, 3))
    if site == "timer_spurious":
        return FaultEvent(site, rng.randint(2, 24))
    if site == "mig_blob_flip":
        # (position as a fraction of 4096, xor mask) -- resolved against
        # the actual blob length at apply time.
        return FaultEvent(site, rng.randint(1, 8),
                          (rng.randint(0, 4095), rng.randint(1, 255)))
    if site == "mig_blob_truncate":
        # Keep this fraction of the blob (always cuts at least the MAC).
        return FaultEvent(site, rng.randint(1, 8), (rng.randint(0, 4000),))
    if site in ("mig_stale_key", "mig_replay", "mig_impostor"):
        return FaultEvent(site, rng.randint(1, 8))
    raise ValueError(f"unknown fault site: {site}")


class FaultPlan:
    """An ordered set of :class:`FaultEvent` derived from one seed."""

    def __init__(self, seed: int, events: tuple):
        self.seed = seed
        self.events = tuple(events)

    @classmethod
    def from_seed(cls, seed: int, min_events: int = 3,
                  max_events: int = 6, seams=None) -> "FaultPlan":
        """Build the plan for ``seed`` (the only randomness sink).

        Draws between ``min_events`` and ``max_events`` faults over
        distinct sites, so every campaign seed stresses a different
        cross-section of the fault space while single-site coverage is
        guaranteed across a modest number of seeds.

        ``seams`` restricts the drawable sites to the named seam subset
        (alias-friendly: ``["migration", "channel"]``); ``None`` keeps
        the historical machine-seam pool, so existing seeds replay the
        exact plans they always produced.
        """
        rng = random.Random(seed)
        if seams is None:
            pool = FAULT_SITES
        else:
            wanted = set(resolve_seams(seams))
            pool = tuple(s for s in ALL_SITES if SITE_SEAMS[s] in wanted)
            if not pool:
                raise ValueError(f"no fault sites on seams {tuple(seams)!r}")
        count = rng.randint(min_events, max_events)
        sites = rng.sample(pool, min(count, len(pool)))
        events = tuple(_draw_event(rng, site) for site in sites)
        return cls(seed, events)

    @classmethod
    def single(cls, site: str, at: int = 1, params: tuple = (),
               seed: int = -1) -> "FaultPlan":
        """A one-event plan -- the unit tests' forced-injection helper."""
        return cls(seed, (FaultEvent(site, at, tuple(params)),))

    def for_seam(self, seam: str) -> list:
        """Events whose site triggers on ``seam``, in plan order."""
        return [e for e in self.events if SITE_SEAMS[e.site] == seam]

    def describe(self) -> str:
        """One-line summary of the whole plan."""
        body = " ".join(event.describe() for event in self.events)
        return f"seed={self.seed}: {body}"

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
