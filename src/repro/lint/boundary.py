"""ZL1 -- trust-boundary rule for untrusted domains.

Paper clause (PAPER.md §Design, THREAT_MODEL "hypervisor is untrusted"):
the hypervisor and guests interact with the SM **only** through the
numbered ECALL ABI and the two deliberately shared structures -- the
shared vCPU page and the hypervisor-owned shared subtree.  Everything
else inside the SM (the CVM registry, the secure pool, secure vCPU
state, stage-2 table objects, the measurement log) is M-mode private:
on hardware PMP makes it unreadable, so simulation code that reaches it
directly is modelling an access the silicon would fault.

Concretely, for modules under ``hyp/``, ``guest/``, ``workloads/`` and
``ipc/``:

- imports from ``repro.sm`` must stay inside :data:`ALLOWED_SM_IMPORTS`
  (the ABI module wholesale, plus a short list of shared-surface types);
- attribute accesses named in :data:`PRIVATE_ATTRS` are findings --
  ``monitor.ecall_*`` calls are the sanctioned verbs, ``.cvms`` /
  ``.pool`` / ``.vcpus`` and friends are the unsanctioned nouns.

The check is name-based (no type inference): a denylisted attribute on
*any* receiver is flagged.  Names were chosen so no untrusted module
legitimately owns them; type-aware narrowing is a ROADMAP follow-up.
One collision is special-cased: ``.split`` names the SM's split-table
manager *namespace*, but called directly (``text.split()``) it is
string splitting -- so names in :data:`METHOD_COLLISIONS` are only
flagged when the attribute is not itself the callee.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import iter_functions
from repro.lint.findings import Finding

RULE = "ZL1"

#: ``repro.sm`` modules untrusted code may import wholesale.  ``abi`` IS
#: the architectural boundary -- everything it exports is by definition
#: visible below M mode.
ALLOWED_SM_MODULES = {"repro.sm.abi"}

#: Per-module allowlist for ``from repro.sm.X import Y``.  ``None``
#: means the whole module surface is sanctioned.
ALLOWED_SM_IMPORTS: dict[str, set[str] | None] = {
    "repro.sm.abi": None,
    # GpaLayout is the *architectural* address-space contract both sides
    # agree on (the DESCRIBE_CVM descriptor carrying it lives in sm.abi).
    "repro.sm.cvm": {"GpaLayout"},
    # The shared vCPU page layout is hypervisor-writable by design.
    "repro.sm.vcpu": {"SHARED_VCPU_FIELDS", "SHARED_VCPU_SIZE"},
}

#: SM-private attribute names, each with the clause it would violate.
PRIVATE_ATTRS: dict[str, str] = {
    "cvms": "the CVM registry is M-mode state; hosts name CVMs by id through ECALLs",
    "pool": "the secure pool's geometry/ownership is invisible below M mode",
    "secure_vcpu": "secure vCPU state never leaves the SM (only the shared page does)",
    "secure_vcpus": "secure vCPU state never leaves the SM (only the shared page does)",
    "vcpus": "the secure vCPU array is SM-private; hosts see only shared_vcpus",
    "split": "stage-2 split-table management is the SM's alone",
    "check_after_load": "Check-after-Load is SM-internal validation machinery",
    "world_switch": "world-switch internals (PMP toggling) are M-mode only",
    "measurement_log": "the measurement log backs attestation; reads go via ECALL",
    "attestation_key": "the attestation key must never be readable below M mode",
    # The raw sm_* accessors bypass the PMP-checked bus; untrusted code
    # must use hyp_read/hyp_write, which fault on secure memory.
    "sm_read": "untrusted code must use the PMP-checked hyp_read, not the M-mode accessor",
    "sm_read_reply": "untrusted code must use the PMP-checked hyp_read, not the M-mode accessor",
    "sm_write": "untrusted code must use the PMP-checked hyp_write, not the M-mode accessor",
    "sm_publish_exit": "untrusted code must use the PMP-checked hyp_write, not the M-mode accessor",
    # ``bus.dram`` is the raw memory device behind the bus.  Going through
    # it skips the PMP check entirely -- an M-mode capability no code
    # below M mode may hold (the host's scrub/walk paths use cpu_zero_range
    # / cpu_read_u64, which fault on secure memory like any other store).
    "dram": "raw DRAM access bypasses the PMP check; untrusted code must use the bus cpu_* accessors",
}


def _import_findings(tree: ast.Module, path: str) -> list[Finding]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name == "repro.sm" or (
                    name.startswith("repro.sm.") and name not in ALLOWED_SM_MODULES
                ):
                    out.append(
                        Finding(
                            rule=RULE,
                            path=path,
                            line=node.lineno,
                            func="<module>",
                            message=f"import of SM-internal module '{name}'",
                            why="only the ECALL ABI surface crosses the SM boundary",
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "repro" and any(a.name == "sm" for a in node.names):
                out.append(
                    Finding(
                        rule=RULE,
                        path=path,
                        line=node.lineno,
                        func="<module>",
                        message="import of the whole 'repro.sm' package",
                        why="only the ECALL ABI surface crosses the SM boundary",
                    )
                )
                continue
            if module == "repro.sm":
                # ``from repro.sm import abi`` style.
                for alias in node.names:
                    if f"repro.sm.{alias.name}" not in ALLOWED_SM_MODULES:
                        out.append(
                            Finding(
                                rule=RULE,
                                path=path,
                                line=node.lineno,
                                func="<module>",
                                message=(
                                    f"import of SM-internal module 'repro.sm.{alias.name}'"
                                ),
                                why="only the ECALL ABI surface crosses the SM boundary",
                            )
                        )
                continue
            if not module.startswith("repro.sm."):
                continue
            allowed = ALLOWED_SM_IMPORTS.get(module)
            if allowed is None and module in ALLOWED_SM_IMPORTS:
                continue  # whole surface sanctioned
            for alias in node.names:
                if allowed is None or alias.name not in allowed:
                    out.append(
                        Finding(
                            rule=RULE,
                            path=path,
                            line=node.lineno,
                            func="<module>",
                            message=(
                                f"import of '{alias.name}' from SM-internal "
                                f"module '{module}'"
                            ),
                            why="only the ECALL ABI surface crosses the SM boundary",
                        )
                    )
    return out


#: Denylisted names that collide with builtin methods: flagged only as a
#: namespace access (``monitor.split.map_private``), never as a direct
#: call (``text.split()``).
METHOD_COLLISIONS = {"split"}


def _attr_findings(tree: ast.Module, path: str) -> list[Finding]:
    # Map every node to its enclosing function for def-line pragmas.
    spans: list[tuple[int, int, str, int]] = []
    for qual, fn in iter_functions(tree):
        end = getattr(fn, "end_lineno", fn.lineno)
        spans.append((fn.lineno, end, qual, fn.lineno))

    def enclosing(line: int) -> tuple[str, int]:
        best = ("<module>", 0)
        best_size = None
        for start, end, qual, def_line in spans:
            if start <= line <= end and (best_size is None or end - start < best_size):
                best, best_size = (qual, def_line), end - start
        return best

    called_attrs = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        why = PRIVATE_ATTRS.get(node.attr)
        if why is None:
            continue
        if node.attr in METHOD_COLLISIONS and id(node) in called_attrs:
            continue
        func, def_line = enclosing(node.lineno)
        out.append(
            Finding(
                rule=RULE,
                path=path,
                line=node.lineno,
                func=func,
                message=f"access to SM-private attribute '.{node.attr}'",
                why=why,
                def_line=def_line,
            )
        )
    return out


def check(tree: ast.Module, path: str) -> list[Finding]:
    """Run ZL1 over one untrusted-domain module."""
    return _import_findings(tree, path) + _attr_findings(tree, path)
