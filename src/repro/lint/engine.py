"""zionlint engine: file discovery, rule routing, reporting, CLI.

The v2 engine parses every discovered file into one shared
:class:`repro.lint.callgraph.Project` (classes, methods, inferred
receiver types) before any rule runs, so the flow rules see across
call boundaries.  Domain routing mirrors the trust structure:

=========  =======================================  =====================
domain     directories                              rules
=========  =======================================  =====================
untrusted  ``hyp/``, ``guest/``, ``workloads/``,    ZL1 (+ ZL2 on ipc/,
           ``ipc/``                                 whose ring reads are
                                                    shared-memory loads)
sm         ``sm/``                                  ZL2, ZL3, ZL4, ZL5
hyp        ``hyp/``                                 ZL5 (plus ZL1 above)
mem/isa    ``mem/``, ``isa/``                       ZL3
cycles     ``cycles/``                              ZL5 determinism
simulated  sm/hyp/mem/isa/ipc/guest/cycles          ZL5 determinism
=========  =======================================  =====================

Everything else (``bench/``, the machine glue, and this package itself)
is out of scope.  ZL0 (pragma hygiene) runs everywhere
a pragma appears.

Exit status: 0 when every finding is pragma-suppressed or baselined,
1 when new findings exist, 2 on usage/parse errors.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import sys
from pathlib import Path

from repro.lint import boundary, charging, concurrency, dataflow, pairing
from repro.lint.callgraph import Project
from repro.lint.findings import Finding, PragmaMap, load_baseline, save_baseline

UNTRUSTED_DIRS = {"hyp", "guest", "workloads", "ipc"}
SM_DIRS = {"sm"}
MEM_DIRS = {"mem"}
ISA_DIRS = {"isa"}
#: The cycle ledger, which also holds the machine's event sink.
CYCLES_DIRS = {"cycles"}
_KNOWN_DIRS = UNTRUSTED_DIRS | SM_DIRS | MEM_DIRS | ISA_DIRS | CYCLES_DIRS

#: Domains whose code the ZL2 taint rule checks directly.
TAINTED_DOMAINS = {"sm", "ipc"}
#: Domains under the ZL3 charging rule (see also dataflow's call-site filter).
CHARGED_DOMAINS = {"sm", "mem", "isa"}
#: Domains under the ZL5 seam-discipline sub-rule.
STATE_DOMAINS = {"sm", "hyp"}
#: Simulated paths under the ZL5 determinism sub-rule.
SIM_DOMAINS = {"sm", "hyp", "mem", "isa", "ipc", "guest", "cycles"}

RULE_ORDER = ("ZL0", "ZL1", "ZL2", "ZL3", "ZL4", "ZL5")


def _package_root() -> Path:
    return Path(__file__).resolve().parent.parent


def default_baseline_path() -> Path:
    return Path(__file__).resolve().parent / "baseline.json"


def _display_path(path: Path) -> str:
    """Stable repo-relative path (``src/repro/...``) when possible."""
    resolved = path.resolve()
    repo_root = _package_root().parent.parent  # src/repro -> repo
    try:
        return resolved.relative_to(repo_root).as_posix()
    except ValueError:
        return path.as_posix()


def _domain_of(path: Path) -> str | None:
    """Classify by the *last* known directory name in the path."""
    for part in reversed(path.parts[:-1]):
        if part in _KNOWN_DIRS:
            return part
    return None


def discover_files(paths=None) -> list[Path]:
    """Python files to lint: the whole package, or the given paths."""
    if not paths:
        return sorted(_package_root().rglob("*.py"))
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        else:
            out.append(p)
    return out


@dataclasses.dataclass
class LintReport:
    """Outcome of one lint run, pre-split by suppression layer."""

    new: list[Finding]
    pragma_suppressed: list[Finding]
    baselined: list[Finding]
    pragma_count: int
    files: int

    @property
    def all_findings(self) -> list[Finding]:
        return self.new + self.pragma_suppressed + self.baselined

    def counts(self, findings=None) -> dict[str, int]:
        counts = {rule: 0 for rule in RULE_ORDER}
        for f in self.new if findings is None else findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return {rule: n for rule, n in counts.items() if n}

    def to_json(self) -> dict:
        return {
            "version": 1,
            "files": self.files,
            "pragmas": self.pragma_count,
            "counts": {
                "new": self.counts(self.new),
                "pragma_suppressed": self.counts(self.pragma_suppressed),
                "baselined": self.counts(self.baselined),
            },
            "findings": [f.to_json() for f in self.new],
            "pragma_suppressed": [f.to_json() for f in self.pragma_suppressed],
            "baselined": [f.to_json() for f in self.baselined],
        }


def changed_files(ref: str = "HEAD") -> set[str]:
    """Repo-relative ``.py`` paths that differ from ``ref`` (git diff).

    Covers staged and unstaged edits plus committed divergence from
    ``ref``; output paths match the display paths findings carry, so
    the set can be handed straight to :func:`run_lint`'s ``only``.
    """
    import subprocess

    repo_root = _package_root().parent.parent
    proc = subprocess.run(
        ["git", "diff", "--name-only", ref, "--"],
        cwd=repo_root,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"git diff --name-only {ref} failed: {proc.stderr.strip()}"
        )
    return {
        line.strip()
        for line in proc.stdout.splitlines()
        if line.strip().endswith(".py")
    }


def run_lint(paths=None, baseline_keys=frozenset(), only=None) -> LintReport:
    """Lint ``paths`` (default: the whole ``repro`` package).

    ``only`` restricts *reporting* to findings whose display path is in
    the given set, without shrinking the analysis scope: the whole
    package is still parsed into the project model, so interprocedural
    results (caller-side charging, cross-module taint) stay identical
    to a full run -- a diff-aware mode, not a partial one.
    """
    files = discover_files(paths)
    raw: list[Finding] = []
    pragma_maps: list[tuple[PragmaMap, Path]] = []
    sm_modules: list[tuple[ast.Module, str]] = []

    # Pass 1: parse everything into the shared project model, so the
    # flow rules can resolve receivers and calls across files.
    project = Project()
    parsed: list[tuple[Path, str, ast.Module, PragmaMap]] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        display = _display_path(path)
        tree = ast.parse(source, filename=str(path))
        pragmas = PragmaMap(source, display)
        parsed.append((path, display, tree, pragmas))
        project.add_module(display, tree)
    project.finalize()
    summaries = dataflow.SummaryTable(project)
    analysis = dataflow.ChargingAnalysis(project)

    # Pass 2: route each module through its domain's rules.
    for path, display, tree, pragmas in parsed:
        pragma_maps.append((pragmas, path))
        raw.extend(pragmas.meta_findings())

        domain = _domain_of(path)
        if domain in UNTRUSTED_DIRS:
            raw.extend(boundary.check(tree, display))
        if domain in TAINTED_DOMAINS:
            raw.extend(dataflow.check_taint(project, summaries, display))
        if domain in SM_DIRS:
            sm_modules.append((tree, display))
        if domain in CHARGED_DOMAINS and path.name not in charging.EXEMPT_MODULES:
            raw.extend(dataflow.check_charging(project, analysis, display))
        if domain in STATE_DOMAINS:
            raw.extend(concurrency.check_state(tree, display))
        if domain in SIM_DOMAINS:
            raw.extend(concurrency.check_determinism(tree, display))

    raw.extend(pairing.check_modules(sm_modules))
    raw.sort(key=lambda f: (f.path, f.line, f.rule, f.message))

    by_path = {pm.path: pm for pm, _ in pragma_maps}
    new: list[Finding] = []
    suppressed: list[Finding] = []
    baselined: list[Finding] = []
    for finding in raw:
        pragmas = by_path.get(finding.path)
        if pragmas is not None and pragmas.suppresses(finding):
            suppressed.append(finding)
        elif finding.key in baseline_keys:
            baselined.append(finding)
        else:
            new.append(finding)

    report_files = len(files)
    if only is not None:
        new = [f for f in new if f.path in only]
        suppressed = [f for f in suppressed if f.path in only]
        baselined = [f for f in baselined if f.path in only]
        report_files = sum(1 for _, display, _, _ in parsed if display in only)

    return LintReport(
        new=new,
        pragma_suppressed=suppressed,
        baselined=baselined,
        pragma_count=sum(len(pm) for pm, _ in pragma_maps),
        files=report_files,
    )


# -- CLI -------------------------------------------------------------------


def add_arguments(parser) -> None:
    """Register the ``lint`` subcommand's options on ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the whole repro package)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON of accepted findings "
        "(default: src/repro/lint/baseline.json)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept every current finding",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="only report findings in files that differ from REF "
        "(git diff; default HEAD) -- the whole package is still "
        "analyzed, so interprocedural results match a full run",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="ignore the baseline: every finding that is not "
        "pragma-suppressed fails the run",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the JSON report on stdout instead of human output",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE",
    )


def run_cli(args) -> int:
    """Entry point behind ``python -m repro lint``."""
    baseline_path = Path(args.baseline) if args.baseline else default_baseline_path()
    try:
        baseline_keys = load_baseline(baseline_path)
    except ValueError as exc:
        print(f"zionlint: {exc}", file=sys.stderr)
        return 2

    if getattr(args, "strict", False):
        baseline_keys = frozenset()

    only = None
    if getattr(args, "changed", None):
        try:
            only = changed_files(args.changed)
        except RuntimeError as exc:
            print(f"zionlint: {exc}", file=sys.stderr)
            return 2

    try:
        report = run_lint(args.paths or None, baseline_keys, only=only)
    except SyntaxError as exc:
        print(f"zionlint: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        if only is not None:
            print(
                "zionlint: --update-baseline cannot be combined with "
                "--changed (a filtered run would drop accepted findings)",
                file=sys.stderr,
            )
            return 2
        save_baseline(baseline_path, {f.key for f in report.new + report.baselined})
        print(
            f"zionlint: baseline {baseline_path} updated "
            f"({len(report.new) + len(report.baselined)} accepted findings)"
        )
        return 0

    payload = report.to_json()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for finding in report.new:
            print(finding.render())
        summary_counts = report.counts(report.new)
        detail = (
            ", ".join(f"{rule}:{n}" for rule, n in summary_counts.items())
            if summary_counts
            else "none"
        )
        print(
            f"zionlint: {len(report.new)} new finding(s) [{detail}] over "
            f"{report.files} file(s); {len(report.pragma_suppressed)} "
            f"pragma-suppressed, {len(report.baselined)} baselined"
        )
    return 1 if report.new else 0
