"""PLIC: the platform-level interrupt controller.

Routes device (external) interrupts to hart contexts with the standard
claim/complete protocol: a device raises its source line; the highest-
priority pending+enabled source with a nonzero priority asserts the
context's external-interrupt pin; software claims (reads the source id,
atomically clearing its pending bit), services the device, and completes.

The hypervisor owns the PLIC and uses claims to decide which guest to
inject a virtual external interrupt into -- the hardware never routes
device interrupts directly into a VM, which is why ZION does not need to
protect the PLIC itself (interrupt *delivery* to a CVM still goes through
the SM's validated injection path).
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class Plic:
    """Functional PLIC: ``source_count`` lines, ``context_count`` targets."""

    def __init__(self, source_count: int = 32, context_count: int = 8):
        self.source_count = source_count
        self.context_count = context_count
        #: Source priorities; 0 means "never interrupts".
        self._priority = [0] * (source_count + 1)
        self._pending = [False] * (source_count + 1)
        #: In-flight claims (claimed but not completed).
        self._claimed = [False] * (source_count + 1)
        self._enabled = [set() for _ in range(context_count)]

    # -- configuration (hypervisor side) ------------------------------------

    def set_priority(self, source: int, priority: int) -> None:
        """Program a source's priority (0 disables it)."""
        self._check_source(source)
        if priority < 0:
            raise ConfigurationError("priority must be non-negative")
        self._priority[source] = priority

    def enable(self, context: int, source: int) -> None:
        """Enable a source for a context."""
        self._check_source(source)
        self._enabled[context].add(source)

    def disable(self, context: int, source: int) -> None:
        """Disable a source for a context."""
        self._check_source(source)
        self._enabled[context].discard(source)

    # -- device side ------------------------------------------------------------

    def raise_irq(self, source: int) -> None:
        """Device side: latch the source's pending bit."""
        self._check_source(source)
        if not self._claimed[source]:
            self._pending[source] = True

    # -- hart side -----------------------------------------------------------------

    def _best_candidate(self, context: int):
        best = None
        best_priority = 0
        for source in self._enabled[context]:
            if not self._pending[source] or self._claimed[source]:
                continue
            if self._priority[source] > best_priority:
                best = source
                best_priority = self._priority[source]
        return best

    def external_pending(self, context: int) -> bool:
        """The context's MEIP/SEIP line."""
        return self._best_candidate(context) is not None

    def claim(self, context: int) -> int:
        """Claim the highest-priority pending source (0 = none)."""
        source = self._best_candidate(context)
        if source is None:
            return 0
        self._pending[source] = False
        self._claimed[source] = True
        return source

    def complete(self, context: int, source: int) -> None:
        """Finish servicing a claimed source (re-arms it)."""
        self._check_source(source)
        if not self._claimed[source]:
            raise ConfigurationError(f"complete of unclaimed source {source}")
        self._claimed[source] = False

    # ------------------------------------------------------------------

    def _check_source(self, source: int) -> None:
        if not 1 <= source <= self.source_count:
            raise ConfigurationError(f"invalid PLIC source {source}")
