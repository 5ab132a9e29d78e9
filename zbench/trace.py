"""Outside-in layer tracer for zbench's traced runs.

:class:`LayerTracer` wraps, from outside the simulator, every public
function and every public method of the classes defined in the layer
packages (:data:`LAYERS`).  A wrapper opens a span only when the call
crosses into a different layer than the one on top of the span stack, so
a layer calling itself costs one comparison.  Each span records its
name, start, end and parent; spans stay in memory and are written as
JSON Lines when the run ends.

Self time is attributed incrementally: every span open or close charges
the host time since the previous event to the layer then on top of the
stack, under the current phase (``setup``, ``timed`` or ``idle``, set by
the benchmark with :meth:`LayerTracer.mark`).  A layer's self time is
therefore its spans' durations minus the time their child spans cover.

*Probes* time a few named entry points inclusively on every call,
whatever layer calls them; ``host_us_per.*`` and the trace-cache ratios
come from them.

What the tracer cannot see:

- code the simulator inlines instead of calling a public method (the
  guest-access engine's TLB probe, the fused fault fix's charges, the
  ledger's precompiled ``charger`` closures) is attributed to the layer
  that runs it, mostly ``machine``;
- private methods run in their caller's span;
- a generator returned by a same-layer call is not proxied, so its
  resumptions are attributed to whoever resumes it.

Install it before any machine is built: objects built earlier may hold
references to the unwrapped functions.  Tracing never changes what the
simulator computes; the traced run checks that its simulated metrics
equal an untraced pass of the same inputs.
"""

from __future__ import annotations

import enum
import functools
import importlib
import json
import pkgutil
import sys
import time
import types

#: The simulator's layers: ``repro.<layer>`` packages and modules.
LAYERS = (
    "workloads", "machine", "cycles", "isa", "mem", "sm", "hyp", "guest",
    "ipc", "fleet", "verify",
)

#: Layer of host time spent outside every simulator span (the benchmark).
ROOT_LAYER = "zbench"

#: Probed entry points (``module:qualname``) and the probe each feeds.
PROBES = {
    "repro.sm.world_switch:WorldSwitch.enter_cvm": "world_switch",
    "repro.sm.world_switch:WorldSwitch.exit_to_normal": "world_switch",
    "repro.sm.monitor:SecureMonitor.handle_guest_page_fault": "fault",
    "repro.sm.monitor:SecureMonitor.fault_fix_fast": "fault",
    "repro.hyp.hypervisor:Hypervisor.handle_normal_stage2_fault": "fault",
    "repro.hyp.hypervisor:Hypervisor.handle_cvm_exit": "mmio_exit",
    "repro.ipc.endpoint:ChannelEndpoint.ring_doorbell": "doorbell",
    "repro.fleet.orchestrator:FleetOrchestrator.migrate": "migration",
    "repro.mem.tracecache:TraceCache.get": "tracecache",
}

#: Spans kept for the JSON Lines file; later spans are counted as dropped.
MAX_SPANS = 100_000


def layer_of(module_name: str):
    """The layer a ``repro`` module belongs to, or ``None``."""
    parts = module_name.split(".")
    if parts[0] != "repro" or len(parts) < 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


class Probe:
    """Inclusive host time and outcome counts of one probed entry point.

    A call returning ``False`` is a declined fast path (the fused fault
    fix, a failed migration): its time counts, the event does not.  A
    call returning ``None`` is counted in ``empty`` (a trace-cache miss).
    """

    __slots__ = ("ns", "calls", "declined", "empty")

    def __init__(self):
        self.ns = 0
        self.calls = 0
        self.declined = 0
        self.empty = 0

    @property
    def events(self) -> int:
        return self.calls - self.declined


class LayerTracer:
    """Span stack, per-layer self time and probes for one traced pass."""

    def __init__(self):
        self.phase = "setup"
        #: phase -> layer -> self time (ns) / spans opened.
        self.self_ns: dict = {}
        self.calls: dict = {}
        self.probes = {name: Probe() for name in set(PROBES.values())}
        #: Recorded spans: (id, parent, layer, name, start_ns, end_ns),
        #: timed phase only.
        self.spans: list = []
        self.dropped = 0
        self._phase_self = self.self_ns.setdefault(self.phase, {})
        self._phase_calls = self.calls.setdefault(self.phase, {})
        self._stack: list = []
        self._top = ROOT_LAYER
        self._top_id = 0
        self._next_id = 0
        self._origin = time.perf_counter_ns()
        self._last = self._origin

    # -- phases --------------------------------------------------------------

    def mark(self, phase: str) -> None:
        """Switch phase; host time from now on is charged under ``phase``."""
        now = time.perf_counter_ns()
        top = self._top
        self._phase_self[top] = self._phase_self.get(top, 0) + now - self._last
        self._last = now
        self.phase = phase
        self._phase_self = self.self_ns.setdefault(phase, {})
        self._phase_calls = self.calls.setdefault(phase, {})

    # -- spans ---------------------------------------------------------------
    # _enter/_leave run on every layer crossing; the self-time charge is
    # inlined in both to keep the tracer's own cost down.

    def _enter(self, layer: str, name: str) -> None:
        now = time.perf_counter_ns()
        top = self._top
        phase_self = self._phase_self
        phase_self[top] = phase_self.get(top, 0) + now - self._last
        self._last = now
        self._stack.append((top, self._top_id, now, name))
        self._next_id += 1
        self._top = layer
        self._top_id = self._next_id
        calls = self._phase_calls
        calls[layer] = calls.get(layer, 0) + 1

    def _leave(self) -> None:
        now = time.perf_counter_ns()
        top = self._top
        phase_self = self._phase_self
        phase_self[top] = phase_self.get(top, 0) + now - self._last
        self._last = now
        parent_layer, parent_id, start, name = self._stack.pop()
        if self.phase == "timed":
            if len(self.spans) < MAX_SPANS:
                self.spans.append((self._top_id, parent_id, top, name, start, now))
            else:
                self.dropped += 1
        self._top = parent_layer
        self._top_id = parent_id

    def _proxy(self, generator, layer: str, name: str):
        """Re-yield ``generator`` with each resumption inside a span."""
        try:
            while True:
                self._enter(layer, name)
                try:
                    item = next(generator)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._leave()
                yield item
        finally:
            generator.close()

    # -- wrapping --------------------------------------------------------------

    def _span_wrapper(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._top == layer:
                return fn(*args, **kwargs)
            tracer._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave()
            if type(result) is types.GeneratorType:
                return tracer._proxy(result, layer, name)
            return result

        return wrapper

    def root(self, fn):
        """Wrap a benchmark-side callable the simulator calls back into
        (zbench's own guest program), so its time is not charged to the
        layer that calls it."""
        return self._span_wrapper(fn, ROOT_LAYER, fn.__qualname__)

    def _factory_wrapper(self, fn, layer: str, name: str):
        """A module-level function: also wrap the workload closures it returns."""
        inner = self._span_wrapper(fn, layer, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            if type(result) is types.FunctionType:
                result_layer = layer_of(result.__module__)
                if result_layer is not None:
                    return tracer._span_wrapper(
                        result, result_layer, f"{name}.<{result.__name__}>"
                    )
            return result

        return wrapper

    def _probe_wrapper(self, fn, probe: Probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase != "timed":
                return fn(*args, **kwargs)
            start = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            probe.ns += time.perf_counter_ns() - start
            probe.calls += 1
            if result is False:
                probe.declined += 1
            elif result is None:
                probe.empty += 1
            return result

        return wrapper

    def _wrap_method(self, fn, layer: str, module: str, qualname: str):
        wrapped = self._span_wrapper(fn, layer, qualname)
        probe = PROBES.get(f"{module}:{qualname}")
        if probe is not None:
            wrapped = self._probe_wrapper(wrapped, self.probes[probe])
        return wrapped

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                inner = self._wrap_method(
                    value.__func__, layer, cls.__module__, qualname
                )
                setattr(cls, attr, type(value)(inner))
            elif isinstance(value, types.FunctionType):
                setattr(cls, attr, self._wrap_method(
                    value, layer, cls.__module__, qualname
                ))

    def install(self) -> "LayerTracer":
        """Wrap every public entry point of every layer.

        Call it once per process: the wrappers stay in place for good.
        """
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if layer_of(info.name) is not None:
                importlib.import_module(info.name)
        replacements: dict = {}
        for name, module in list(sys.modules.items()):
            layer = layer_of(name)
            if layer is None or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != name:
                    continue
                if isinstance(value, type):
                    if not issubclass(value, (enum.Enum, BaseException)):
                        self._wrap_class(value, layer)
                elif isinstance(value, types.FunctionType):
                    replacements[value] = self._factory_wrapper(value, layer, attr)
        # ``from x import f`` copies a function reference into the
        # importer's namespace: rebind every copy, not only the original.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if type(value) is types.FunctionType and value in replacements:
                    setattr(module, attr, replacements[value])
        return self

    # -- results ---------------------------------------------------------------

    def self_seconds(self, phase: str = "timed") -> dict:
        """Layer -> self time in seconds for ``phase``."""
        return {k: v / 1e9 for k, v in self.self_ns.get(phase, {}).items()}

    def span_counts(self, phase: str = "timed") -> dict:
        """Layer -> spans opened during ``phase``."""
        return dict(self.calls.get(phase, {}))

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON Lines (times relative to start)."""
        origin = self._origin
        with open(path, "w") as out:
            for span_id, parent, layer, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "name": name, "start_ns": start - origin,
                    "end_ns": end - origin,
                }) + "\n")
