"""ZL3 -- charging discipline for SM and memory-subsystem code.

Paper clause (PAPER.md §Evaluation; INTERNALS §11 cycle-exactness): the
reproduction's performance claims rest on the :class:`CycleLedger`
seeing every modelled memory touch -- the wall-clock goldens are only
meaningful if DRAM traffic and page-table walks are charged where they
happen.  A function that reads or writes physical memory, or walks a
stage-2 table, without charging the ledger silently deflates the very
numbers the paper reproduces.

Rule: any raw physical memory operation (:data:`RAW_MEM_OPS` on a DRAM
receiver) or page-table walk (:data:`WALK_OPS` on an Sv39x4 receiver)
in ``sm/``, ``mem/``, or ``isa/`` code must have a charge -- a call
named ``charge`` or ``_charge*`` (the precompiled
:meth:`CycleLedger.charger` closures are bound to ``_charge_...``
names) -- on **every execution path reaching it**.

This module owns the rule's vocabulary (the op/receiver tables) and the
*structural* per-path analysis: a touch is covered when some block on
the spine from the function body down to the touch's own block contains
a statement that charges on every path through it (both arms of an
``if``, the ``finally`` of a ``try``, a plain charging statement).  A
charge on one branch of a divergent ``if`` no longer excuses the
uncharged sibling path, which is the v1->v2 deepening.

The interprocedural resolutions (charged accessors, caller-side
charging) and the findings themselves live in
:mod:`repro.lint.dataflow`, which combines this structural pass with
the project call graph.

Modules that are themselves the costed abstraction are exempt
(:data:`EXEMPT_MODULES`): ``physmem.py`` *is* the DRAM device,
``pagetable.py`` is pure geometry whose traffic the caller's accessor
charges, ``tlb.py`` is bookkeeping charged by the translator.

A function that delegates charging to a caller the analysis cannot see
states so with a ``# zionlint: disable=ZL3 <reason>`` pragma on the
touch line or its ``def`` line.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import call_name

RULE = "ZL3"

RAW_MEM_OPS = {"read", "write", "read_u64", "write_u64", "zero_range"}
RAW_MEM_RECEIVERS = {"dram", "_dram"}

WALK_OPS = {"walk", "map", "unmap", "iter_leaves", "leaves_overlapping"}
WALK_RECEIVERS = {"sv39x4", "_sv39x4"}

#: Module basenames exempt from ZL3 (see module docstring for reasons).
EXEMPT_MODULES = {"physmem.py", "pagetable.py", "tlb.py"}

_WHY = (
    "cycle-exactness: the ledger must see every modelled memory touch or "
    "the reproduced wall-clock numbers silently deflate"
)


def _is_charge(call: ast.Call) -> bool:
    name = call_name(call)
    return name is not None and (name == "charge" or name.startswith("_charge"))


# -- structural per-path coverage -------------------------------------------


def _expr_has_charge(node: ast.AST | None) -> bool:
    if node is None:
        return False
    return any(
        isinstance(sub, ast.Call) and _is_charge(sub) for sub in ast.walk(node)
    )


def block_always_charges(block) -> bool:
    """Whether every path through ``block`` executes a charge."""
    return any(_stmt_always_charges(stmt) for stmt in block)


def _stmt_always_charges(stmt: ast.stmt) -> bool:
    """Whether ``stmt``, once reached, charges on every path through it."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False
    if isinstance(stmt, ast.If):
        if _expr_has_charge(stmt.test):
            return True
        return bool(stmt.orelse) and block_always_charges(
            stmt.body
        ) and block_always_charges(stmt.orelse)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return _expr_has_charge(stmt.iter)  # body may run zero times
    if isinstance(stmt, ast.While):
        return _expr_has_charge(stmt.test)
    if isinstance(stmt, ast.Try):
        # The body can raise partway through; only ``finally`` is certain.
        return block_always_charges(stmt.finalbody)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return any(
            _expr_has_charge(item.context_expr) for item in stmt.items
        ) or block_always_charges(stmt.body)
    return _expr_has_charge(stmt)


def _child_blocks(stmt: ast.stmt):
    for fname in ("body", "orelse", "finalbody"):
        block = getattr(stmt, fname, None)
        if isinstance(block, list) and block:
            yield block
    for handler in getattr(stmt, "handlers", []) or []:
        yield handler.body


def touch_covered(fn: ast.AST, touch: ast.AST) -> bool:
    """Whether every path to ``touch`` inside ``fn`` runs through a charge.

    True when any block on the chain from ``fn.body`` down to the block
    holding ``touch`` always-charges.  Charges later in the same block
    count: ZL3 demands the path be charged, not that the charge come
    first (the migration export charges its whole page sweep in bulk
    after the loop).
    """
    return bool(_covered_in_block(fn.body, touch))


def _covered_in_block(block, touch) -> bool | None:
    """True/False when ``touch`` is in this subtree; None when absent."""
    for stmt in block:
        if not any(node is touch for node in ast.walk(stmt)):
            continue
        for child in _child_blocks(stmt):
            sub = _covered_in_block(child, touch)
            if sub is True:
                return True
            if sub is False:
                break
        return block_always_charges(block)
    return None
