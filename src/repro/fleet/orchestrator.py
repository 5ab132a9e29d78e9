"""The fleet orchestrator: CVM lifecycle + live migration under load.

This is the composition scenario ROADMAP item 4 asks for: N simulated
hosts (each its own :class:`~repro.machine.Machine` with an independent
SM), a mixed fleet of serving CVMs (redis-like, iozone-like, channel
ping-pong pairs from :data:`~repro.workloads.profiles.FLEET_MIX`), and a
rebalancing control loop that live-migrates CVMs between hosts through
:mod:`repro.sm.migration` while the fault injector fires at the
migration, channel and lifecycle seams.

Control loop (per seed)::

    launch fleet          groups placed round-robin over hosts
    epoch 0               serve only -- cold start (demand faulting)
    epoch 1               serve only -- the warm throughput baseline
    epochs 2..E-1         rebalance (`migration_rate` group moves from
                          the most- to the least-loaded host), then serve
    every epoch           containment sweep over every host

One **live migration** is: park (suspend) -> export (SM seals the blob,
source instance destroyed) -> transfer (the untrusted ferry -- where
migration-seam faults strike) -> import (destination SM authenticates,
decrypts, re-instantiates) -> **attest on arrival** (a signed report is
demanded and its measurement compared against the fleet's launch-time
record; mismatch destroys the arrival with a typed
:class:`~repro.errors.MigrationRejected`) -> resume serving.

**Downtime** is charged as the sum of two ledger spans: the source's
suspend+export span plus the destination's import+adopt+attest span.
The two machines keep independent clocks, so this models the serialized
CPU work a migration costs; transfer latency (a network property) is
out of scope, as is the paper's cost model for migration itself.

**Containment invariants**, swept every epoch on every host and once
more at the end: the full :func:`repro.faults.invariants.check_postconditions`
sweep, plus the fleet-level pool-leak rule -- every secure-pool frame is
owned by ``free``/``sm``, a live channel, or a live (non-destroyed) CVM,
so a failed migration can lose *one CVM* (fail-stop, typed error) but
never strand frames or wedge a host.
"""

from __future__ import annotations

import dataclasses
import random

from repro.errors import MigrationRejected, ReproError, SecurityViolation
from repro.faults.injector import FaultInjector
from repro.faults.invariants import check_postconditions
from repro.faults.plan import FaultPlan
from repro.fleet.host import FleetHost
from repro.fleet.workloads import (
    file_burst,
    kv_burst,
    pair_client_burst,
    pair_server_burst,
)
from repro.machine import MachineConfig
from repro.sm.channel import ChannelState
from repro.sm.cvm import CvmState
from repro.sm.migration import derive_migration_key
from repro.sm.secmem import OWNER_FREE, OWNER_SM
from repro.workloads.profiles import FLEET_MIX

#: The fleet provisioning secret both SMs derive migration keys from
#: (deterministic: seeded runs must replay bit-for-bit).
FLEET_SECRET = b"zion-fleet-provisioning-secret"

#: Default fault seams a fleet campaign focuses on.
DEFAULT_SEAMS = ("migration", "channel", "lifecycle")


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Knobs of one fleet run (all defaults match the CLI's)."""

    hosts: int = 4
    cvms: int = 12
    epochs: int = 6
    #: Rebalancing group-moves per epoch (the migration rate knob;
    #: epochs 0 and 1 never migrate -- cold start and warm baseline).
    migration_rate: int = 4
    seed: int = 0
    #: Fault seams the seed's plan draws from; ``None`` disables
    #: injection entirely (clean-room runs for perf baselines).
    seams: tuple | None = DEFAULT_SEAMS
    #: Secure pool each host boots with (small enough that imports and
    #: serving trigger stage-3 expansions).
    pool_bytes: int = 6 << 20


@dataclasses.dataclass
class FleetCvm:
    """Orchestrator-side record of one fleet CVM."""

    index: int
    kind: str
    weight: int
    ops_per_epoch: int
    group: int
    image: bytes
    host: FleetHost
    session: object
    #: Launch measurement the fleet expects at every arrival attestation.
    measurement: bytes
    alive: bool = True
    #: How this CVM died, when it did (typed error name).
    fate: str = ""
    #: Host-side expectation for the guest-memory op counter.
    expected_counter: int = 0
    migrations: int = 0


@dataclasses.dataclass
class FleetSeedResult:
    """Everything one seeded fleet run produced."""

    seed: int
    hosts: int
    cvms: int
    epochs: int
    plan: str
    #: Successful live migrations (per CVM arrival, resumed serving).
    migrations: int
    #: Failed migrations, each ``(cvm_index, error_type, detail)``.
    failed: list
    #: Arrivals rejected by the attestation gate (impostor blobs).
    attest_rejections: int
    #: Replayed blobs the destination SM refused.
    replay_refused: int
    #: Arrivals that were attestation-checked (must equal successful
    #: imports + rejected impostors: *every* arrival is checked).
    attest_checked: int
    arrivals: int
    #: Per-migration downtime in cycles (source span + destination span).
    downtimes: list
    #: Ops served per epoch (fleet-wide).
    ops_per_epoch: list
    #: Cycles burned per epoch (summed over hosts; includes migrations).
    cycles_per_epoch: list
    #: Containment-invariant violations (must be empty).
    violations: list
    #: Sessions that ended in a typed contained error during serving.
    contained: list
    #: Machine-seam faults the injectors actually applied.
    faults_applied: int
    #: Migration-seam faults the ferry applied.
    ferry_faults: list
    #: Aggregated scheduler park/resume accounting.
    sched: dict

    @property
    def downtime_mean(self) -> float:
        """Mean per-migration downtime in cycles (0.0 when none)."""
        return sum(self.downtimes) / len(self.downtimes) if self.downtimes else 0.0

    @property
    def downtime_max(self) -> int:
        """Worst per-migration downtime in cycles."""
        return max(self.downtimes) if self.downtimes else 0

    @property
    def throughput_dip_pct(self) -> float:
        """Serving-throughput dip of migration epochs vs the warm baseline.

        Epoch 0 is the cold start (demand faults populate every working
        set) and epoch 1 is the *warm* no-migration baseline; epochs 2+
        pay migration downtime out of the same cycle budget.  Positive
        means the rebalancing epochs served fewer ops per cycle than the
        warm baseline.
        """
        if len(self.ops_per_epoch) < 3:
            return 0.0
        if not self.cycles_per_epoch[1] or not self.ops_per_epoch[1]:
            return 0.0
        base = self.ops_per_epoch[1] / self.cycles_per_epoch[1]
        later_ops = sum(self.ops_per_epoch[2:])
        later_cycles = sum(self.cycles_per_epoch[2:])
        if not later_cycles:
            return 0.0
        return (1.0 - (later_ops / later_cycles) / base) * 100.0

    @property
    def ok(self) -> bool:
        """True when containment held and every arrival was checked."""
        return not self.violations and self.attest_checked == self.arrivals

    def summary(self) -> str:
        """One status line for campaign output."""
        status = "ok" if self.ok else "FAIL"
        return (
            f"seed {self.seed:>3}  {status:<4} migrations={self.migrations:<3}"
            f" failed={len(self.failed)} attest_rej={self.attest_rejections}"
            f" replay_ref={self.replay_refused}"
            f" downtime_mean={self.downtime_mean:,.0f}cy"
            f" dip={self.throughput_dip_pct:+.1f}%"
            f" violations={len(self.violations)}"
        )


class FleetOrchestrator:
    """Runs one seeded fleet scenario end to end (see module docstring)."""

    def __init__(self, config: FleetConfig | None = None):
        self.config = config or FleetConfig()
        cfg = self.config
        self.rng = random.Random(cfg.seed)
        self.hosts = [
            FleetHost(i, MachineConfig(initial_pool_bytes=cfg.pool_bytes))
            for i in range(cfg.hosts)
        ]
        for host in self.hosts:
            host.machine.hypervisor.expand_chunk = 2 << 20
        if cfg.seams is not None:
            self.plan = FaultPlan.from_seed(cfg.seed, seams=cfg.seams)
        else:
            self.plan = FaultPlan(cfg.seed, ())
        self._mig_events = self.plan.for_seam("migration")
        self._mig_count = 0
        self.records: list[FleetCvm] = []
        self.groups: list[list[int]] = []
        # Result accumulators.
        self.migrations = 0
        self.failed: list = []
        self.attest_rejections = 0
        self.replay_refused = 0
        self.attest_checked = 0
        self.arrivals = 0
        self.downtimes: list = []
        self.violations: list = []
        self.contained: list = []
        self.ferry_faults: list = []
        self.ops_per_epoch: list = []
        self.cycles_per_epoch: list = []
        self._sched = {"parks": 0, "wakes": 0, "front_wakes": 0,
                       "wake_all_calls": 0}

    # -- fleet construction ------------------------------------------------

    def launch(self) -> None:
        """Launch the mixed fleet, placing groups round-robin over hosts.

        A ping/pong pair is one *group* (channels are SM-local, so the
        pair must co-locate and migrate together); every other CVM is a
        singleton group.
        """
        cfg = self.config
        profiles = [FLEET_MIX[i % len(FLEET_MIX)] for i in range(cfg.cvms)]
        index = 0
        while index < len(profiles):
            profile = profiles[index]
            if profile.kind == "ping" and index + 1 < len(profiles) \
                    and profiles[index + 1].kind == "pong":
                members = [index, index + 1]
            else:
                members = [index]
            group_id = len(self.groups)
            host = self.hosts[group_id % len(self.hosts)]
            for member in members:
                p = profiles[member]
                kind = p.kind if len(members) == 2 else (
                    "kv" if p.kind in ("ping", "pong") else p.kind
                )
                image = f"zion-fleet-cvm-{member:03d}-{kind}".encode() * 8
                session = host.machine.launch_confidential_vm(image=image)
                self.records.append(FleetCvm(
                    index=member,
                    kind=kind,
                    weight=p.weight,
                    ops_per_epoch=p.ops_per_epoch,
                    group=group_id,
                    image=image,
                    host=host,
                    session=session,
                    measurement=session.cvm.measurement,
                ))
            self.groups.append(members)
            index += len(members)

    # -- serving -----------------------------------------------------------

    def _burst_pairs(self, host: FleetHost) -> list:
        """(session, generator) serving pairs for this host, this epoch."""
        residents = [r for r in self.records if r.alive and r.host is host]
        pairs = []
        boxes: dict[int, dict] = {}
        for record in residents:
            kind = record.kind
            partner = self._partner(record)
            if kind in ("ping", "pong") and (
                partner is None or not partner.alive or partner.host is not host
            ):
                kind = "kv"  # widowed pair member keeps serving solo
            if kind == "kv":
                workload = kv_burst(record.ops_per_epoch)
            elif kind == "file":
                workload = file_burst(record.ops_per_epoch)
            elif kind == "pong":
                box = boxes.setdefault(record.group, {})
                workload = pair_server_burst(
                    partner.measurement, record.ops_per_epoch, box
                )
            else:  # ping
                box = boxes.setdefault(record.group, {})
                workload = pair_client_burst(
                    box, partner.measurement, record.ops_per_epoch
                )
            pairs.append((record.session, workload))
        return pairs

    def _partner(self, record: FleetCvm):
        """The other member of a pair group, or None for singletons."""
        members = self.groups[record.group]
        if len(members) != 2:
            return None
        other = members[0] if members[1] == record.index else members[1]
        return self.records[other]

    def serve_epoch(self, epoch: int) -> None:
        """Run every host's serving round; verify counters; record tput."""
        ops = 0
        cycles = 0
        for host in self.hosts:
            pairs = self._burst_pairs(host)
            if not pairs:
                continue
            before = host.cycles
            results = host.machine.run_concurrent(
                pairs, on_error="contain", wake_priority=True
            )
            cycles += host.cycles - before
            sched = results.get("sched", {})
            for key in self._sched:
                self._sched[key] += sched.get(key, 0)
            by_session = {r.session: r for r in self.records if r.alive}
            for session, _workload in pairs:
                record = by_session[session]
                outcome = results.get(session)
                if isinstance(outcome, ReproError):
                    record.alive = False
                    record.fate = f"contained:{type(outcome).__name__}"
                    self.contained.append(
                        (record.index, type(outcome).__name__, str(outcome))
                    )
                    continue
                if outcome is None:
                    continue
                served = outcome.get("ops", 0)
                ops += served
                record.expected_counter += served
                counter = outcome.get("counter")
                if counter is not None and counter != record.expected_counter:
                    self.violations.append(
                        f"epoch {epoch}: CVM {record.index} guest counter "
                        f"{counter} != expected {record.expected_counter} "
                        "(memory integrity lost across migration)"
                    )
                    record.expected_counter = counter  # report once
        self.ops_per_epoch.append(ops)
        self.cycles_per_epoch.append(cycles)

    # -- rebalancing -------------------------------------------------------

    def _host_load(self, host: FleetHost) -> int:
        return sum(r.weight for r in self.records if r.alive and r.host is host)

    def _movable_groups(self, host: FleetHost) -> list:
        """Group ids fully resident on ``host`` with every member alive."""
        out = []
        for group_id, members in enumerate(self.groups):
            records = [self.records[m] for m in members]
            if all(r.alive and r.host is host for r in records):
                out.append(group_id)
        return out

    def rebalance(self) -> None:
        """One epoch's rebalancing: ``migration_rate`` group moves."""
        for _ in range(self.config.migration_rate):
            loads = [(self._host_load(h), h.host_id) for h in self.hosts]
            src = self.hosts[max(loads)[1]]
            dst = self.hosts[min(loads)[1]]
            movable = self._movable_groups(src)
            if not movable or src is dst:
                # Load is flat (or the hot host holds only broken
                # groups): churn anyway -- the knob is a *rate*, and a
                # live fleet rebalances speculatively too.
                candidates = [
                    (h, self._movable_groups(h)) for h in self.hosts
                ]
                candidates = [(h, g) for h, g in candidates if g]
                if not candidates:
                    return
                src, movable = candidates[
                    self.rng.randrange(len(candidates))
                ]
                others = [h for h in self.hosts if h is not src]
                dst = others[self.rng.randrange(len(others))]
            group_id = movable[self.rng.randrange(len(movable))]
            for member in self.groups[group_id]:
                record = self.records[member]
                if record.alive:
                    self.migrate(record, dst)

    # -- migration ---------------------------------------------------------

    def migrate(self, record: FleetCvm, dst: FleetHost) -> bool:
        """Live-migrate one CVM ``record`` to ``dst``; True on success.

        Applies any migration-seam fault planned for this occurrence
        (the untrusted ferry's tampering), measures downtime, and
        enforces fail-stop containment: a failed migration loses at most
        this one CVM, with a typed error recorded in :attr:`failed`.
        """
        self._mig_count += 1
        events = [e for e in self._mig_events if e.at == self._mig_count]
        sites = {e.site for e in events}
        src = record.host
        key = derive_migration_key(FLEET_SECRET, src.nonce, dst.nonce)

        if "mig_impostor" in sites:
            return self._impostor_arrival(record, src, dst, key)

        src_before = src.cycles
        blob = src.machine.export_confidential_vm(record.session, key)
        src_span = src.cycles - src_before
        # The source instance is gone; from here every failure is a
        # fail-stop loss of this one CVM, never a fleet-wide problem.
        import_key = key
        for event in events:
            if event.site == "mig_blob_flip":
                frac, mask = event.params
                pos = 8 + (frac * (len(blob) - 8)) // 4096
                blob = (blob[:pos]
                        + bytes([blob[pos] ^ mask]) + blob[pos + 1:])
                self.ferry_faults.append(event.describe())
            elif event.site == "mig_blob_truncate":
                (frac,) = event.params
                keep = max(8, (frac * len(blob)) // 4096)
                blob = blob[:keep]
                self.ferry_faults.append(event.describe())
            elif event.site == "mig_stale_key":
                import_key = derive_migration_key(
                    FLEET_SECRET, src.nonce, b"stale-nonce-0000"
                )
                self.ferry_faults.append(event.describe())

        dst_before = dst.cycles
        try:
            session = self._import_and_attest(dst, blob, import_key, record)
        except ReproError as error:
            record.alive = False
            record.fate = f"migration:{type(error).__name__}"
            self.failed.append(
                (record.index, type(error).__name__, str(error))
            )
            return False
        downtime = src_span + (dst.cycles - dst_before)
        record.host = dst
        record.session = session
        record.migrations += 1
        self.migrations += 1
        self.downtimes.append(downtime)

        if "mig_replay" in sites:
            # The ferry re-delivers the very blob that just imported;
            # the destination SM must refuse the clone.
            self.ferry_faults.append("mig_replay[@%d]" % self._mig_count)
            try:
                dst.machine.import_confidential_vm(blob, import_key)
            except SecurityViolation:
                self.replay_refused += 1
            else:
                self.violations.append(
                    f"migration {self._mig_count}: replayed blob imported "
                    f"twice -- CVM {record.index} cloned"
                )
        return True

    def _impostor_arrival(self, record: FleetCvm, src: FleetHost,
                          dst: FleetHost, key: bytes) -> bool:
        """Ferry swaps in a validly-sealed decoy instead of migrating.

        The decoy authenticates (it was sealed by a genuine SM under the
        right key) so only the arrival attestation gate can catch it:
        its measurement is not the one the fleet recorded for this CVM.
        The planned CVM is never exported and keeps serving at the
        source.
        """
        decoy_session = src.machine.launch_confidential_vm(
            image=b"zion-fleet-impostor" * 12
        )
        blob = src.machine.export_confidential_vm(decoy_session, key)
        self.ferry_faults.append("mig_impostor[@%d]" % self._mig_count)
        try:
            self._import_and_attest(dst, blob, key, record)
        except MigrationRejected as error:
            self.attest_rejections += 1
            self.failed.append(
                (record.index, type(error).__name__, str(error))
            )
        except ReproError as error:
            # Refused earlier than attestation (e.g. destination pool
            # pressure): still a contained, typed outcome.
            self.failed.append(
                (record.index, type(error).__name__, str(error))
            )
        else:
            self.violations.append(
                f"migration {self._mig_count}: impostor blob passed the "
                f"arrival attestation gate for CVM {record.index}"
            )
        return False  # the planned migration did not happen

    def _import_and_attest(self, dst: FleetHost, blob: bytes, key: bytes,
                           record: FleetCvm):
        """Import on ``dst`` and run the arrival attestation gate."""
        session = dst.machine.import_confidential_vm(blob, key)
        self.arrivals += 1
        cvm_id = session.cvm.cvm_id
        monitor = dst.machine.monitor
        report = monitor.ecall_attestation_report(cvm_id, b"fleet-arrival")
        self.attest_checked += 1
        if not monitor.attestation.verify_report(report):
            monitor.ecall_destroy(cvm_id)
            raise MigrationRejected(
                cvm_id, record.measurement, b"\0" * 32
            )
        if report.measurement != record.measurement:
            monitor.ecall_destroy(cvm_id)
            raise MigrationRejected(
                cvm_id, record.measurement, report.measurement
            )
        return session

    # -- containment -------------------------------------------------------

    def sweep(self, label: str) -> None:
        """Run the containment sweep on every host; record violations."""
        for host in self.hosts:
            for problem in check_postconditions(host.machine):
                self.violations.append(f"{label} {host.describe()}: {problem}")
            for problem in self._pool_leaks(host):
                self.violations.append(f"{label} {host.describe()}: {problem}")

    def _pool_leaks(self, host: FleetHost) -> list:
        """Fleet-level leak rule: every frame's owner must be alive.

        Valid owners are ``free``, ``sm``, a non-closed channel's token,
        a CVM that is not destroyed, or an allocator block-cache tag for
        such a CVM (``(cvm_id, vcpu_id)`` / ``(cvm_id, "global")``).
        Anything else is a frame some failed lifecycle step forgot to
        recycle.
        """
        monitor = host.machine.monitor
        allowed = {OWNER_FREE, OWNER_SM}
        for channel_id, channel in monitor.channels.channels.items():
            if channel.state is not ChannelState.CLOSED:
                allowed.add(monitor.channels.owner_token(channel_id))
        live_cvms = {
            cvm_id for cvm_id, cvm in monitor.cvms.items()
            if cvm.state is not CvmState.DESTROYED
        }
        allowed |= live_cvms
        # One C-level pass collects the distinct tags; only a defunct one
        # sends the sweep back over the pages, to name each leaked frame.
        owners = monitor.pool._page_owner
        defunct = {
            owner for owner in set(owners.values()) - allowed
            # A block-cache reservation of a live CVM is not a leak.
            if not (isinstance(owner, tuple) and owner and owner[0] in live_cvms)
        }
        if not defunct:
            return []
        return [
            f"L1: pool frame {page:#x} leaked to defunct owner {owner!r}"
            for page, owner in owners.items()
            if owner in defunct
        ]

    # -- the run -----------------------------------------------------------

    def run(self) -> FleetSeedResult:
        """Execute the whole scenario; returns the seed's result."""
        cfg = self.config
        self.launch()
        injectors = [
            FaultInjector(host.machine, self.plan) for host in self.hosts
        ] if cfg.seams is not None else []
        try:
            for epoch in range(cfg.epochs):
                # Epoch 0 is the cold start and epoch 1 the warm
                # baseline; the rebalancer runs from epoch 2 on.
                if epoch > 1:
                    self.rebalance()
                self.serve_epoch(epoch)
                self.sweep(f"epoch {epoch}:")
        finally:
            for injector in injectors:
                injector.detach()
        for injector in injectors:
            self.violations.extend(
                f"injector {i}: {v}" for i, v in enumerate(injector.violations)
            )
        self.sweep("end:")
        return FleetSeedResult(
            seed=cfg.seed,
            hosts=cfg.hosts,
            cvms=cfg.cvms,
            epochs=cfg.epochs,
            plan=self.plan.describe(),
            migrations=self.migrations,
            failed=self.failed,
            attest_rejections=self.attest_rejections,
            replay_refused=self.replay_refused,
            attest_checked=self.attest_checked,
            arrivals=self.arrivals,
            downtimes=self.downtimes,
            ops_per_epoch=self.ops_per_epoch,
            cycles_per_epoch=self.cycles_per_epoch,
            violations=self.violations,
            contained=self.contained,
            faults_applied=sum(len(i.applied) for i in injectors),
            ferry_faults=self.ferry_faults,
            sched=dict(self._sched),
        )


def run_fleet_seed(seed: int, hosts: int = 4, cvms: int = 12,
                   epochs: int = 6, migration_rate: int = 4,
                   seams: tuple | None = DEFAULT_SEAMS) -> FleetSeedResult:
    """Build and run one seeded fleet scenario (the CLI's unit of work)."""
    config = FleetConfig(
        hosts=hosts, cvms=cvms, epochs=epochs,
        migration_rate=migration_rate, seed=seed, seams=seams,
    )
    return FleetOrchestrator(config).run()


def run_fleet_campaign(seeds, hosts: int = 4, cvms: int = 12,
                       epochs: int = 6, migration_rate: int = 4,
                       seams: tuple | None = DEFAULT_SEAMS) -> list:
    """Run :func:`run_fleet_seed` for every seed; returns the results."""
    return [
        run_fleet_seed(seed, hosts=hosts, cvms=cvms, epochs=epochs,
                       migration_rate=migration_rate, seams=seams)
        for seed in seeds
    ]


def run_fleet_ablation(rates=(1, 2, 4), sizes=((2, 6), (4, 12)),
                       epochs: int = 4, seed: int = 0) -> list:
    """Migration-rate x fleet-size grid (clean runs, no injection).

    Each cell runs one seeded fleet without fault injection -- the
    ablation isolates what rebalancing itself costs -- and reports the
    migration count, downtime statistics, and serving throughput dip.
    """
    cells = []
    for hosts, cvms in sizes:
        for rate in rates:
            result = run_fleet_seed(
                seed, hosts=hosts, cvms=cvms, epochs=epochs,
                migration_rate=rate, seams=None,
            )
            cells.append({
                "hosts": hosts,
                "cvms": cvms,
                "migration_rate": rate,
                "migrations": result.migrations,
                "downtime_mean_cycles": result.downtime_mean,
                "downtime_max_cycles": result.downtime_max,
                "throughput_dip_pct": result.throughput_dip_pct,
                "ops": sum(result.ops_per_epoch),
                "violations": len(result.violations),
            })
    return cells
