"""Census: every public function under ``src/repro`` has a caller outside tests.

A public function, method or property counts as used when its name
appears in ``src/repro``, ``benchmarks/``, ``examples/`` or ``zbench/``
outside its own ``def``: as a name, an attribute, an import or a
name-like string (``getattr`` dispatch, ``__all__``, zbench's probe
paths).  The census is by name, so methods that share a name cover each
other.  ``KEPT`` lists the test-only names that stay, with the reason.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CALLER_ROOTS = ("src/repro", "benchmarks", "examples", "zbench")
_IDENT = re.compile(r"[A-Za-z_]\w*")
_NAME_LIKE = re.compile(r"[A-Za-z_][\w.:]*")

KEPT = {
    "repro.bench.ipc.run_doorbell_ablation": "the eager-vs-adaptive doorbell ablation",
    "repro.faults.plan.FaultPlan.single": "the injector unit tests' one-event plans",
    "repro.guest.paging.GuestPageTableBuilder.disable": "guest feature: back to Bare",
    "repro.guest.swiotlb.Swiotlb.free_slots": "observation: SWIOTLB slot leaks",
    "repro.hyp.virtio.VirtioNetDevice.backlog": "observation: host frames awaiting RX buffers",
    "repro.isa.clint.Clint.ipi_pending": "observation: a hart's MSIP bit",
    "repro.isa.hart.Hart.read_gpr": "register file by ABI name, x0 reading as zero",
    "repro.isa.hart.Hart.write_gpr": "register file by ABI name, x0 writes dropped",
    "repro.isa.plic.Plic.disable": "PLIC feature: the inverse of enable",
    "repro.isa.plic.Plic.external_pending": "observation: a context's external-interrupt line",
    "repro.isa.traps.route_interrupt": "privileged-spec reference for the delegation profiles",
    "repro.machine.Machine.attach_virtio_rng": "guest feature: virtio-rng",
    "repro.machine.GuestContext.rng_driver": "guest feature: virtio-rng",
    "repro.machine.GuestContext.extend_rtmr": "guest feature: runtime measurement",
    "repro.machine.GuestContext.run_user_process": "guest feature: a VU-mode process",
    "repro.machine.GuestContext.syscall": "guest feature: a syscall through live delegation",
    "repro.machine.GuestContext.request_shared_memory": "guest feature: grow the shared window",
    "repro.machine.GuestContext.reclaim_pages": "guest feature: return pages to the pool",
    "repro.mem.pagetable.PageTable.root_size": "observation: Sv39/Sv39x4 geometry",
    "repro.mem.physmem.PhysicalMemory.resident_pages": "observation: sparse DRAM backing",
    "repro.mem.physmem.MemoryBus.cpu_fetch_check": "security check: fetches from the pool fault",
    "repro.sm.attestation.AttestationReport.as_dict": "JSON rendering of a report",
    "repro.sm.secmem.SecureMemoryPool.free_list_blocks": "observation: free-list order",
    "repro.trace.Tracer.exit_latencies": "observation: exit-to-entry gaps",
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from _IDENT.findall(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _NAME_LIKE.fullmatch(sub.value):
                yield from _IDENT.findall(sub.value)


def _public_defs(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef) and not child.name.startswith("_"):
                yield qualname, child
            yield from _public_defs(child, qualname)


@functools.cache
def _test_only_names():
    named, defs = Counter(), []
    for root in CALLER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            if "tests" in path.relative_to(REPO).parts:
                continue
            tree = ast.parse(path.read_text(), str(path))
            named.update(_names(tree))
            if root == "src/repro":
                module = ".".join(path.relative_to(REPO / "src").with_suffix("").parts)
                for qualname, node in _public_defs(tree, module.removesuffix(".__init__")):
                    defs.append((qualname, node.name, Counter(_names(node))[node.name]))
    return {qualname for qualname, name, own in defs if named[name] == own}


def test_every_public_def_has_a_caller_outside_tests():
    unexplained = sorted(_test_only_names() - KEPT.keys())
    assert unexplained == [], f"only tests call these; delete them or add to KEPT: {unexplained}"


def test_kept_names_are_still_test_only():
    stale = sorted(KEPT.keys() - _test_only_names())
    assert stale == [], f"KEPT lists names that are gone or now have a caller: {stale}"
