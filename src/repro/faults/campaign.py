"""The fault campaign: a hostile run per seed, judged on containment.

Each seed builds a fresh machine with a small secure pool (2 MiB, which
the scenario's 160 stress pages and one channel window do not exhaust:
no stage-3 expansion happens, so the ``expand`` seam never fires here),
launches three CVMs -- a channel ping-pong server/client pair plus a
page-stress guest -- derives the seed's :class:`FaultPlan`, attaches the
injector, and drives everything through
:meth:`Machine.run_concurrent(..., on_error="contain")`.

Verdict per seed:

- **contained**: a session ended in a typed :class:`ReproError` (the
  architecture refused the faulty input) or rode the fault out;
- **crash**: any other exception escaped -- a simulator bug the
  campaign exists to find;
- **violation**: a post-condition sweep (during the run or at the end)
  reported a broken security invariant.

The campaign passes only with zero crashes and zero violations.  The
workloads are *tolerant* variants of the ping-pong pair: under injected
corruption a payload mismatch is counted, not asserted, and bounded
patience counters let a guest give up gracefully when its peer died --
a hung partner must not be misreported as a containment failure.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ChannelCorrupt, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.invariants import check_postconditions
from repro.faults.plan import FaultPlan
from repro.ipc.endpoint import ChannelEndpoint
from repro.machine import Machine, MachineConfig
from repro.mem.physmem import PAGE_SIZE

#: Guest images (distinct so the two channel endpoints attest distinct
#: measurements is NOT required -- same image keeps the handshake simple).
_IMAGE = b"fault-campaign-guest" * 52

#: Channel window geometry (one quarter of the default, keeping rings
#: small enough that seeded corruption lands on live bytes often).
_WINDOW_SIZE = 16 * 1024
_WINDOW_OFFSET = 0x0200_0000

#: Rotations a guest tolerates without progress before giving up.
_PATIENCE = 300


def _window_gpa(ctx) -> int:
    return ctx.session.layout.dram_base + _WINDOW_OFFSET


def tolerant_server(measurement: bytes, rounds: int, channel_box: dict):
    """Echo server that survives corruption: fail-stop, never assert."""

    def workload(ctx):
        endpoint = ChannelEndpoint.create(
            ctx, _window_gpa(ctx), _WINDOW_SIZE, measurement
        )
        channel_box["channel_id"] = endpoint.channel_id
        yield
        echoed = idle = 0
        while echoed < rounds and idle < _PATIENCE:
            try:
                message = endpoint.recv()
            except ChannelCorrupt:
                return {"echoed": echoed, "corrupt_detected": True}
            if message is None:
                idle += 1
                ctx.deliver_pending_irqs()
                yield
                continue
            sent = False
            for _ in range(_PATIENCE):
                try:
                    sent = endpoint.send(message)
                except ChannelCorrupt:
                    return {"echoed": echoed, "corrupt_detected": True}
                if sent:
                    break
                yield
            if not sent:
                break  # peer stopped draining; give up gracefully
            idle = 0
            echoed += 1
            yield
        return {"echoed": echoed, "corrupt_detected": False}

    return workload


def tolerant_client(channel_box: dict, measurement: bytes, rounds: int,
                    message_size: int = 512):
    """Ping-pong client that counts corrupted echoes instead of asserting."""

    def workload(ctx):
        waited = 0
        while "channel_id" not in channel_box:
            waited += 1
            if waited >= _PATIENCE:
                return {"rounds": 0, "corrupted": 0, "corrupt_detected": False}
            yield
        endpoint = ChannelEndpoint.connect(
            ctx, channel_box["channel_id"], _window_gpa(ctx), measurement
        )
        payload = bytes(i & 0xFF for i in range(message_size))
        completed = corrupted = idle = 0
        detected = False
        try:
            for _ in range(rounds):
                while not endpoint.send(payload):
                    idle += 1
                    if idle >= _PATIENCE:
                        return {"rounds": completed, "corrupted": corrupted,
                                "corrupt_detected": detected}
                    yield
                echo = None
                while echo is None:
                    echo = endpoint.recv()
                    if echo is None:
                        idle += 1
                        if idle >= _PATIENCE:
                            return {"rounds": completed,
                                    "corrupted": corrupted,
                                    "corrupt_detected": detected}
                        ctx.deliver_pending_irqs()
                        yield
                idle = 0
                if echo != payload:
                    corrupted += 1  # bit flips in flight: counted, not fatal
                completed += 1
                yield
        except ChannelCorrupt:
            detected = True
        return {"rounds": completed, "corrupted": corrupted,
                "corrupt_detected": detected}

    return workload


def page_stress(pages: int = 160, chunk: int = 8):
    """Touch fresh private pages to keep the three-stage allocator hot."""

    def workload(ctx):
        base = ctx.session.layout.dram_base + 0x0100_0000
        touched = 0
        for index in range(pages):
            ctx.touch(base + index * PAGE_SIZE)
            touched += 1
            if touched % chunk == 0:
                yield
        return {"touched": touched}

    return workload


@dataclasses.dataclass
class SeedResult:
    """Everything the campaign learned from one seed."""

    seed: int
    plan: str
    injected: int
    contained: list
    crashes: list
    violations: list
    outcomes: dict

    @property
    def ok(self) -> bool:
        """True when every fault was contained and no invariant broke."""
        return not self.crashes and not self.violations

    def summary(self) -> str:
        """One status line for campaign output."""
        status = "ok" if self.ok else "FAIL"
        return (
            f"seed {self.seed:>4}  {status:<4} injected={self.injected:<2} "
            f"contained={len(self.contained)} crashes={len(self.crashes)} "
            f"violations={len(self.violations)}"
        )


def run_seed(seed: int, rounds: int = 8, seams=None) -> SeedResult:
    """Run the concurrent hostile scenario under one seed's plan.

    ``seams`` (e.g. ``["channel", "lifecycle"]``) restricts the plan to
    the named seam subset via :meth:`FaultPlan.from_seed`; ``None`` keeps
    the full historical machine-seam pool.  Migration-seam events have no
    machine-level hook and are ignored here -- the fleet orchestrator is
    the driver that consumes those (see :mod:`repro.fleet`).
    """
    machine = Machine(MachineConfig(initial_pool_bytes=2 << 20))
    machine.hypervisor.expand_chunk = 1 << 20

    server = machine.launch_confidential_vm(image=_IMAGE)
    client = machine.launch_confidential_vm(image=_IMAGE)
    stress = machine.launch_confidential_vm(image=_IMAGE)
    measurement = server.cvm.measurement

    box: dict = {}
    pairs = [
        (server, tolerant_server(measurement, rounds, box)),
        (client, tolerant_client(box, measurement, rounds)),
        (stress, page_stress()),
    ]

    plan = FaultPlan.from_seed(seed, seams=seams)
    contained: list = []
    crashes: list = []
    outcomes: dict = {}
    # The injector attaches only now: creation-time allocations above ran
    # clean, so every injected fault lands mid-run, as planned.
    with FaultInjector(machine, plan) as injector:
        try:
            results = machine.run_concurrent(pairs, on_error="contain")
        except Exception as error:  # noqa: BLE001 -- the verdict itself
            crashes.append(f"run aborted: {type(error).__name__}: {error}")
            results = {}
    for name, session in (("server", server), ("client", client),
                          ("stress", stress)):
        outcome = results.get(session)
        if isinstance(outcome, ReproError):
            contained.append(f"{name}: {type(outcome).__name__}: {outcome}")
            outcomes[name] = f"contained:{type(outcome).__name__}"
        else:
            outcomes[name] = outcome
    violations = list(injector.violations)
    # End-state sweep: whatever the faults did, the quiesced machine must
    # still satisfy every invariant.
    violations.extend(
        f"end-state: {problem}" for problem in check_postconditions(machine)
    )
    return SeedResult(
        seed=seed,
        plan=plan.describe(),
        injected=len(injector.applied),
        contained=contained,
        crashes=crashes,
        violations=violations,
        outcomes=outcomes,
    )


def run_campaign(seeds, rounds: int = 8, seams=None) -> list:
    """Run :func:`run_seed` for each seed; returns the result list."""
    return [run_seed(seed, rounds=rounds, seams=seams) for seed in seeds]
