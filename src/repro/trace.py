"""Event tracing: a cycle-timestamped log of architectural events.

A :class:`Tracer` is an event sink.  Constructing one attaches it to the
machine's ledger (:meth:`CycleLedger.attach`: one sink at a time); from
then on the machine records into it, each event with the ledger
timestamp at which it happened:

- ``cvm_exit`` / ``cvm_enter``: a world switch, at its end;
- ``cvm_reply``: an entry that carries the hypervisor's reply to an
  exit, after the entry's trap and before Check-after-Load reads the
  shared vCPU;
- ``fault``: a stage-2 fault's fix (path ``sm`` or ``kvm``, allocation
  stage and cycles);
- ``ecall``: the ``ecall_*`` method, before its charge;
- ``doorbell`` / ``pool_expand``: the SM's only two upcalls into the
  hypervisor (a channel doorbell's wakeup, a request for stage-3 pool
  memory), before the hypervisor runs.

Useful for debugging workload behaviour ("why did this exit happen at
cycle 2,401,733?"), for tests that assert event *ordering* rather than
just counts, and for the per-fault samples of the E3 and ablation
benches.

The hypervisor is untrusted and may ignore any request, so a sink may
decline the two upcalls -- and only those -- by returning a truthy value
from ``record`` (the fault injector does).  A tracer returns ``None``:
recording never charges and runs no other code path, so an attached
tracer changes nothing the machine computes, and with none attached each
charge point pays one ``is not None`` test.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    cycle: int
    kind: str  # one of the kinds the module docstring lists
    detail: dict

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"<{self.cycle:>12,} {self.kind} {inner}>"


class Tracer:
    """Records machine events until detached or the limit is reached.

    A machine has one sink: attaching a tracer while any sink is
    attached raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, machine, limit: int = 100_000):
        machine.ledger.attach(self)
        self.machine = machine
        self.limit = limit
        self.events: list[TraceEvent] = []
        #: Events discarded after the limit was reached -- a non-zero
        #: value means the timeline is a prefix, not the whole run.
        self.dropped = 0

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
        self.machine.ledger.detach(self)

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
