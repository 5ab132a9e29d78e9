"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``experiments [--full] [--only E1,E4,...]`` — regenerate the paper's
  tables/figures (the ``repro.bench.experiments`` table);
- ``demo`` — the quickstart flow with a stats report;
- ``attack`` — run the hypervisor attack battery and report outcomes;
- ``stats`` — launch a CVM, run a mixed workload, print the full
  machine statistics snapshot;
- ``faults [--seeds N | --seed K] [--rounds R] [-v]`` — run the
  seeded fault-injection campaign (``--seed K`` deterministically
  replays one seed, the failing-seed repro workflow);
- ``perf [--quick] [--only a,b] [--out PATH] [--compare PREV.json]
  [--runs N] [--gate] [--bytecodes]`` — wall-clock performance harness: run the
  scenario suite (``repro.bench.perf.SCENARIOS``), emit
  ``BENCH_PERF.json`` and fail on simulated-cycle drift from the
  committed goldens or on a failed scenario check; ``--compare`` prints
  per-scenario wall/cycle deltas against a previous report, ``--gate``
  fails on >10% wall-time regression over the committed quick-mode
  baseline (median of ``--runs``); ``--bytecodes`` adds each quick-scale
  scenario's executed-bytecode count, per package, to the report and
  compares it with ``bytecode_pin.json`` (reported only; with
  ``--update-goldens`` it records this Python minor version's pin);
- ``lint [paths] [--json] [--baseline FILE] [--changed [REF]]
  [--strict]`` — zionlint, the static
  trust-boundary/taint/charging analyzer for the SM seam (INTERNALS
  §12); exits non-zero on findings that are neither pragma-suppressed
  nor baselined;
- ``fleet [--hosts N --cvms M --seeds S --epochs E --rate R]
  [--seams a,b] [--ablate]`` — the fleet orchestrator: multi-host CVM
  lifecycle + live migration under adversarial load, with per-migration
  downtime and containment sweeps (docs/FLEET.md); ``--ablate`` runs
  the migration-rate x fleet-size grid instead.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_experiments(args) -> int:
    from repro.bench.experiments import run_experiments

    only = set(args.only.upper().split(",")) if args.only else None
    return run_experiments(full=args.full, only=only)


def _cmd_demo(args) -> int:
    from repro import Machine, MachineConfig
    from repro.analysis import machine_stats, render_stats

    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=b"demo-guest" * 200)

    def workload(ctx):
        base = session.layout.dram_base + (16 << 20)
        ctx.write_bytes(base, b"demo secret")
        ctx.compute(3_000_000)
        return ctx.attestation_report(b"cli-demo")

    report = machine.run(session, workload)["workload_result"]
    print(f"CVM {session.cvm.cvm_id} measurement: {report.measurement.hex()[:32]}...")
    print(f"report verified: {machine.monitor.attestation.verify_report(report)}")
    print(render_stats(machine_stats(machine)))
    return 0


def _cmd_attack(args) -> int:
    from repro import Machine, MachineConfig, SecurityViolation, TrapRaised
    from repro.isa.privilege import PrivilegeMode

    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=b"victim" * 400)
    machine.hart.mode = PrivilegeMode.HS
    pool = machine.monitor.pool.regions[0][0]
    attacks = {
        "pmp read": lambda: machine.bus.cpu_read(machine.hart, pool, 8),
        "pmp write": lambda: machine.bus.cpu_write(machine.hart, pool, b"x"),
        "page-table write": lambda: machine.bus.cpu_write_u64(
            machine.hart, session.cvm.hgatp_root, 0
        ),
        "dma": lambda: machine.bus.dma_read(0, pool, 8),
        "subtree link": lambda: machine.monitor.ecall_link_shared_subtree(
            session.cvm.cvm_id, 300, pool
        ),
    }
    blocked = 0
    for name, attack in attacks.items():
        try:
            attack()
            print(f"{name}: SUCCEEDED (security bug!)")
        except (TrapRaised, SecurityViolation) as failure:
            print(f"{name}: blocked ({type(failure).__name__})")
            blocked += 1
    return 0 if blocked == len(attacks) else 1


def _cmd_stats(args) -> int:
    from repro import Machine, MachineConfig
    from repro.analysis import machine_stats, render_stats

    machine = Machine(MachineConfig())
    session = machine.launch_confidential_vm(image=b"stats" * 200)
    machine.attach_virtio_block(session)

    def workload(ctx):
        blk = ctx.blk_driver()
        ctx.compute(2_500_000)
        for i in range(8):
            blk.write(i * 8, bytes(4096))
        ctx.mmio_read(0x1000_1000 + 0x70)

    machine.run(session, workload)
    print(render_stats(machine_stats(machine)))
    return 0


def _parse_seams(spec):
    """``--seams`` comma list -> validated tuple (None when not given)."""
    if spec is None:
        return None
    from repro.faults.plan import resolve_seams

    seams = tuple(s.strip() for s in spec.split(",") if s.strip())
    resolve_seams(seams)  # raises ValueError on unknown names
    return seams


def _cmd_faults(args) -> int:
    from repro.faults import run_campaign

    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.seeds))
    try:
        seams = _parse_seams(args.seams)
    except ValueError as error:
        print(f"--seams: {error}")
        return 2
    failures = 0
    total_injected = 0
    for result in run_campaign(seeds, rounds=args.rounds, seams=seams):
        print(result.summary())
        total_injected += result.injected
        if args.verbose or not result.ok:
            print(f"  plan: {result.plan}")
            for line in result.contained:
                print(f"  contained: {line}")
            for line in result.crashes:
                print(f"  CRASH: {line}")
            for line in result.violations:
                print(f"  VIOLATION: {line}")
        if not result.ok:
            failures += 1
    print(
        f"campaign: {len(seeds)} seeds, {total_injected} faults injected, "
        f"{failures} failing"
    )
    if failures:
        print("replay a failing seed deterministically with: "
              "python -m repro faults --seed K -v")
    return 1 if failures else 0


def _cmd_perf(args) -> int:
    import json as json_module
    import pathlib

    from repro.bench import perf

    only = set(args.only.split(",")) if args.only else None
    unknown = (only or set()) - set(perf.SCENARIOS)
    if unknown:
        print(f"unknown scenarios: {', '.join(sorted(unknown))}")
        return 2
    # Snapshot the comparison report *before* running: --compare and
    # --out may name the same file (the default workflow diffs against
    # the committed BENCH_PERF.json, then overwrites it).
    previous = None
    if args.compare:
        try:
            previous = json_module.loads(pathlib.Path(args.compare).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read comparison report {args.compare}: {exc}")
            return 2
    runs = perf.median_runs(
        [perf.run_suite(quick=args.quick, only=only) for _ in range(args.runs)]
    )
    for run in runs:
        print(
            f"{run.name:<12} wall {run.wall_seconds:8.3f} s   "
            f"cycles {run.cycles:>12,}   "
            f"{run.cycles_per_wall_second / 1e6:8.1f} Mcyc/s"
        )
    bytecodes = None
    if args.bytecodes:
        bytecodes = perf.count_bytecodes(only)
        for name, counted in bytecodes.items():
            top = sorted(counted["by_package"].items(), key=lambda item: -item[1])[:4]
            print(f"{name:<12} bytecodes {counted['total']:>12,}   "
                  + "  ".join(f"{package} {count:,}" for package, count in top))
    report = perf.build_report(runs, quick=args.quick, bytecodes=bytecodes)
    perf.write_report(report, args.out)
    print(f"report written to {args.out}")
    if previous is not None:
        prev_mode = previous.get("mode", "?")
        if prev_mode != report["mode"]:
            print(f"compare: note -- previous report is {prev_mode}-mode, "
                  f"this run is {report['mode']}-mode")
        print(f"deltas vs {args.compare}:")
        for name, old_w, new_w, old_c, new_c in perf.compare_reports(previous, report):
            if old_w is None:
                print(f"  {name:<12} wall    --    -> {new_w:8.3f} s             "
                      f"cycles            -- -> {new_c:>14,}")
                continue
            wall_pct = (new_w - old_w) / old_w * 100 if old_w else 0.0
            print(
                f"  {name:<12} wall {old_w:8.3f} -> {new_w:8.3f} s "
                f"({wall_pct:+6.1f}%)   "
                f"cycles {old_c:>14,} -> {new_c:>14,} ({new_c - old_c:+,})"
            )
    problems = [f"SCENARIO CHECK: {p}" for p in perf.check_scenarios(runs)]
    updating = args.update_goldens or args.update_baseline
    if args.update_goldens:
        perf.update_goldens(runs, quick=args.quick)
        print(f"goldens updated in {perf.GOLDEN_PATH}")
        if bytecodes is not None:
            perf.update_bytecode_pin(bytecodes)
            print(f"Python {perf.python_minor()} bytecode pin updated in "
                  f"{perf.BYTECODE_PIN_PATH}")
    elif bytecodes is not None:
        # Reported only: the tier-1 pin test is the gate.
        rises, decreases = perf.check_bytecodes(bytecodes, perf.load_bytecode_pin())
        for line in rises + decreases:
            print(f"bytecode pin: {line}")
        if not rises:
            print(f"bytecode pin: every total within {perf.BYTECODE_BOUND:.0%} "
                  f"of the Python {perf.python_minor()} pin")
    if args.update_baseline:
        perf.write_report(report, perf.BASELINE_PATH)
        print(f"baseline updated in {perf.BASELINE_PATH}")
    if not updating:
        golden = perf.check_goldens(runs, quick=args.quick)
        problems += [f"GOLDEN MISMATCH: {p}" for p in golden]
        if not golden:
            print("golden check: all simulated cycle totals match")
    for problem in problems:
        print(problem)
    exit_code = 1 if problems else 0
    if args.gate and not updating:
        try:
            baseline = json_module.loads(perf.BASELINE_PATH.read_text())
        except (OSError, ValueError) as exc:
            print(f"perf gate: cannot read baseline {perf.BASELINE_PATH}: {exc}")
            return 1
        if baseline.get("mode") != report["mode"]:
            print(f"perf gate: baseline is {baseline.get('mode')}-mode but "
                  f"this run is {report['mode']}-mode")
            return 1
        gate_problems = perf.check_gate(runs, baseline)
        for problem in gate_problems:
            print(f"PERF GATE: {problem}")
        if not gate_problems:
            print(
                f"perf gate: all wall times within {perf.GATE_THRESHOLD:.0%} "
                f"of baseline (median of {args.runs})"
            )
        exit_code = 1 if gate_problems else exit_code
    return exit_code


def _cmd_fleet(args) -> int:
    from repro.fleet import DEFAULT_SEAMS, run_fleet_ablation, run_fleet_campaign

    if args.ablate:
        cells = run_fleet_ablation()
        print(f"{'hosts':>5} {'cvms':>5} {'rate':>5} {'migr':>5} "
              f"{'downtime mean':>14} {'max':>10} {'dip%':>7} {'ops':>7}")
        bad = 0
        for cell in cells:
            print(
                f"{cell['hosts']:>5} {cell['cvms']:>5} "
                f"{cell['migration_rate']:>5} {cell['migrations']:>5} "
                f"{cell['downtime_mean_cycles']:>14,.0f} "
                f"{cell['downtime_max_cycles']:>10,} "
                f"{cell['throughput_dip_pct']:>+7.1f} {cell['ops']:>7}"
            )
            bad += cell["violations"]
        return 1 if bad else 0

    if args.seams is None:
        seams = DEFAULT_SEAMS
    elif args.seams.strip().lower() == "none":
        seams = None  # clean-room run, no injection
    else:
        try:
            seams = _parse_seams(args.seams)
        except ValueError as error:
            print(f"--seams: {error}")
            return 2
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.seeds))
    failures = 0
    for result in run_fleet_campaign(
        seeds, hosts=args.hosts, cvms=args.cvms, epochs=args.epochs,
        migration_rate=args.rate, seams=seams,
    ):
        print(result.summary())
        ok = result.ok and result.migrations >= args.min_migrations
        if args.verbose or not ok:
            print(f"  plan: {result.plan}")
            print(f"  arrivals {result.arrivals} "
                  f"(all attestation-checked: "
                  f"{result.attest_checked == result.arrivals})   "
                  f"sched parks {result.sched.get('parks', 0)} "
                  f"wakes {result.sched.get('wakes', 0)}")
            for entry in result.failed:
                print(f"  failed migration: CVM {entry[0]} "
                      f"{entry[1]}: {entry[2]}")
            for entry in result.contained:
                print(f"  contained: CVM {entry[0]} {entry[1]}: {entry[2]}")
            for line in result.ferry_faults:
                print(f"  ferry fault: {line}")
            for line in result.violations:
                print(f"  VIOLATION: {line}")
            if result.migrations < args.min_migrations:
                print(f"  TOO FEW MIGRATIONS: {result.migrations} < "
                      f"{args.min_migrations}")
        if not ok:
            failures += 1
    print(f"fleet campaign: {len(seeds)} seeds, {failures} failing")
    return 1 if failures else 0


def _cmd_lint(args) -> int:
    from repro.lint.engine import run_cli

    return run_cli(args)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ZION reproduction: experiments, demos, diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    experiments = sub.add_parser("experiments", help="regenerate paper results")
    experiments.add_argument("--full", action="store_true", help="paper-scale loads")
    experiments.add_argument("--only", help="comma-separated subset, e.g. E1,E4")
    experiments.set_defaults(func=_cmd_experiments)
    demo = sub.add_parser("demo", help="quickstart demo with stats")
    demo.set_defaults(func=_cmd_demo)
    attack = sub.add_parser("attack", help="hypervisor attack battery")
    attack.set_defaults(func=_cmd_attack)
    stats = sub.add_parser("stats", help="run a mixed workload, dump stats")
    stats.set_defaults(func=_cmd_stats)
    faults = sub.add_parser("faults", help="seeded fault-injection campaign")
    faults.add_argument("--seeds", type=int, default=25,
                        help="run seeds 0..N-1 (default 25)")
    faults.add_argument("--seed", type=int, default=None,
                        help="replay exactly this seed (repro workflow)")
    faults.add_argument("--rounds", type=int, default=8,
                        help="ping-pong rounds per seed (default 8)")
    faults.add_argument("-v", "--verbose", action="store_true",
                        help="print each seed's plan and outcomes")
    faults.add_argument("--seams", default=None,
                        help="comma-separated seam subset to draw faults "
                             "from (e.g. enter,notify or the aliases "
                             "channel,lifecycle); default: every seam")
    faults.set_defaults(func=_cmd_faults)
    perf = sub.add_parser("perf", help="wall-clock performance harness")
    perf.add_argument("--quick", action="store_true",
                      help="CI-scale loads (same code paths, ~5x less work)")
    perf.add_argument("--out", default="BENCH_PERF.json",
                      help="report path (default BENCH_PERF.json)")
    perf.add_argument("--only", help="comma-separated scenario subset")
    perf.add_argument("--update-goldens", action="store_true",
                      help="re-record golden cycle totals (model changes only)")
    perf.add_argument("--compare", metavar="PREV.json",
                      help="print per-scenario wall/cycle deltas against a "
                           "previous BENCH_PERF.json (read before --out is "
                           "overwritten, so both may name the same file)")
    perf.add_argument("--runs", type=int, default=1, metavar="N",
                      help="repeat the suite N times and report the "
                           "per-scenario median wall time (default 1)")
    perf.add_argument("--gate", action="store_true",
                      help="fail when any scenario's wall time regresses "
                           ">10%% over the committed quick-mode baseline "
                           "(perf_baseline_quick.json)")
    perf.add_argument("--bytecodes", action="store_true",
                      help="also count the bytecodes each quick-scale scenario "
                           "executes, per top-level package, into the report")
    perf.add_argument("--update-baseline", action="store_true",
                      help="re-record the committed wall-clock baseline "
                           "for the perf gate from this run")
    perf.set_defaults(func=_cmd_perf)
    fleet = sub.add_parser("fleet",
                           help="multi-host CVM fleet: lifecycle + live "
                                "migration under adversarial load")
    fleet.add_argument("--hosts", type=int, default=4,
                       help="simulated host count (default 4)")
    fleet.add_argument("--cvms", type=int, default=12,
                       help="fleet CVM count (default 12)")
    fleet.add_argument("--seeds", type=int, default=3,
                       help="run seeds 0..N-1 (default 3)")
    fleet.add_argument("--seed", type=int, default=None,
                       help="replay exactly this seed (repro workflow)")
    fleet.add_argument("--epochs", type=int, default=6,
                       help="serving epochs per seed (default 6; epochs "
                            "0-1 are the cold start and warm baseline)")
    fleet.add_argument("--rate", type=int, default=4,
                       help="rebalancing group-moves per epoch (default 4)")
    fleet.add_argument("--seams", default=None,
                       help="fault seam subset (default "
                            "migration,channel,lifecycle; 'none' disables "
                            "injection)")
    fleet.add_argument("--min-migrations", type=int, default=10,
                       help="fail a seed that completes fewer successful "
                            "migrations (default 10)")
    fleet.add_argument("--ablate", action="store_true",
                       help="run the migration-rate x fleet-size ablation "
                            "grid instead of the campaign")
    fleet.add_argument("-v", "--verbose", action="store_true",
                       help="print each seed's plan and outcomes")
    fleet.set_defaults(func=_cmd_fleet)
    lint = sub.add_parser("lint", help="zionlint static boundary analyzer")
    from repro.lint.engine import add_arguments as _lint_add_arguments

    _lint_add_arguments(lint)
    lint.set_defaults(func=_cmd_lint)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
