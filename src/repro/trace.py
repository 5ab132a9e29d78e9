"""Event tracing: a cycle-timestamped log of architectural events.

A :class:`Tracer` is the machine's event sink.  Constructing one attaches
it to ``machine.ledger.events``; from then on the charge points record
into it -- world switches (``cvm_exit``/``cvm_enter``, at the end of the
switch), stage-2 faults (``fault``: path, allocation stage and cycles)
and ECALLs (``ecall``: the ``ecall_*`` method, before its charge) -- each
with the ledger timestamp at which it happened.  Useful for debugging
workload behaviour ("why did this exit happen at cycle 2,401,733?"), for
tests that assert event *ordering* rather than just counts, and for the
per-fault samples of the E3 and ablation benches.

Recording never charges and runs no other code path: an attached tracer
changes nothing the machine computes, and with none attached each charge
point pays one ``is not None`` test.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    cycle: int
    kind: str  # "cvm_exit", "cvm_enter", "fault" or "ecall"
    detail: dict

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"<{self.cycle:>12,} {self.kind} {inner}>"


class Tracer:
    """Records machine events until detached or the limit is reached.

    A machine has one sink: attaching a second tracer while one is
    attached raises :class:`ConfigurationError`.
    """

    def __init__(self, machine, limit: int = 100_000):
        ledger = machine.ledger
        if ledger.events is not None:
            raise ConfigurationError("this machine already has an event sink attached")
        self.machine = machine
        self.limit = limit
        self.events: list[TraceEvent] = []
        #: Events discarded after the limit was reached -- a non-zero
        #: value means the timeline is a prefix, not the whole run.
        self.dropped = 0
        ledger.events = self

    # -- recording ----------------------------------------------------------

    def record(self, kind: str, **detail) -> None:
        """Append one event at the current ledger timestamp."""
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(cycle=self.machine.ledger.total, kind=kind, detail=detail)
        )

    def detach(self) -> None:
        """Stop recording (events stay available)."""
        ledger = self.machine.ledger
        if ledger.events is self:
            ledger.events = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.detach()
        return False

    # -- queries --------------------------------------------------------------

    def of_kind(self, kind: str) -> list:
        """All recorded events of the given kind, in order."""
        return [event for event in self.events if event.kind == kind]

    def timeline(self) -> str:
        """Human-readable event dump (notes any events lost to the limit)."""
        lines = [repr(event) for event in self.events]
        if self.dropped:
            lines.append(
                f"... {self.dropped} events dropped (limit={self.limit})"
            )
        return "\n".join(lines)

    def exit_latencies(self) -> list:
        """Cycle gaps between each cvm_exit and the next cvm_enter of the
        same ``(cvm, vcpu)``, in the order of the entries."""
        gaps = []
        pending = {}
        for event in self.events:
            if event.kind == "cvm_exit":
                pending[event.detail["cvm"], event.detail["vcpu"]] = event.cycle
            elif event.kind == "cvm_enter":
                exited = pending.pop((event.detail["cvm"], event.detail["vcpu"]), None)
                if exited is not None:
                    gaps.append(event.cycle - exited)
        return gaps
