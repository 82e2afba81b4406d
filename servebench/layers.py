"""Outside-in layer timing for the serving benchmark.

:class:`LayerTracer` times the simulator's layers without editing the
program: it replaces public functions and methods with timing wrappers
for the length of one traced pass and puts the originals back
afterwards.  Methods of objects the benchmark builds (the service, its
systems, engines, cache, metrics registry and telemetry timeline) are
wrapped on the instance; the three objects the program builds for
itself (Pre-BFS results, device profilers and batch reports) are wrapped
on their class.

Each wrapper records a span on the shared ``perf_counter_ns`` clock and
charges the layer its *self* time: the span minus the spans of wrapped
calls nested inside it.  Self times of nested spans telescope, so within
one request they re-add exactly (in integer nanoseconds) to the
outermost span, and the request wall minus their sum is the non-negative
residual the benchmark reports as ``other_s``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter

from repro.fpga.profile import DeviceProfiler
from repro.preprocess.prebfs import PreBFSResult
from repro.service.batch import ServiceBatchReport

#: layer names, in the order reports list them.
SERVICE_RUN = "service.run_self_s"
EXECUTE = "host.execute_s"
PRE_BFS = "preprocess.pre_bfs_s"
TRANSLATE = "preprocess.translate_s"
ENGINE_RUN = "core.engine_run_s"
PROFILE_RECORD = "fpga.profile_record_s"
METRICS = "service.metrics_s"
ATTRIBUTION = "observability.attribution_s"
TIMELINE = "observability.timeline_s"
LAYERS = (SERVICE_RUN, EXECUTE, PRE_BFS, TRANSLATE, ENGINE_RUN,
          PROFILE_RECORD, METRICS, ATTRIBUTION, TIMELINE)

#: class attributes the tracer may replace while a traced pass runs.
_CLASS_TARGETS = (
    (PreBFSResult, "translate_paths", TRANSLATE),
    (DeviceProfiler, "record_batch", PROFILE_RECORD),
    (ServiceBatchReport, "attribution", ATTRIBUTION),
)
_PRISTINE = {(owner, name): owner.__dict__[name]
             for owner, name, _ in _CLASS_TARGETS}


def _instances(service, timeline=None) -> list:
    """The objects :meth:`LayerTracer.install` wraps methods on."""
    objs = [service, service.cache, service.metrics]
    for system in service.systems:
        objs += [system, system.engine]
    if timeline is not None:
        objs.append(timeline)
    return objs


def is_pristine(service, timeline=None) -> bool:
    """True when no tracer wrapper is installed on the patched classes
    or on ``service`` (checked before every untraced pass)."""
    for (owner, name), original in _PRISTINE.items():
        if owner.__dict__[name] is not original:
            return False
    return not any(
        hasattr(attr, "__servebench_layer__")
        for obj in _instances(service, timeline)
        for attr in vars(obj).values()
    )


class LayerTracer:
    """Self-time accounting over wrapped calls; thread-safe.

    Every thread keeps its own span stack, so concurrent calls never
    charge each other's children; the per-request and per-run totals
    are updated under one lock.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        #: (owner, attribute, value to restore or None to delete)
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------
    def _wrapper(self, original, layer: str, on_return=None):
        clock = self._clock

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = self._stack()
            stack.append(0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self._request[layer] += elapsed - children
                    self.calls[layer] += 1
            if on_return is not None:
                on_return(result)
            return result

        timed.__servebench_layer__ = layer
        return timed

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap_method(self, obj, name: str, layer: str,
                    on_return=None) -> None:
        """Time ``obj.name`` calls on this one instance as ``layer``.

        ``on_return`` sees each return value; it runs after the span
        closes, so it must be cheap (its time lands in the caller's
        layer)."""
        wrapper = self._wrapper(getattr(obj, name), layer, on_return)
        self._patches.append((obj, name, vars(obj).get(name)))
        setattr(obj, name, wrapper)

    def install(self, service, timeline=None, on_engine_run=None,
                on_pre_bfs=None) -> None:
        """Wrap every layer of ``service`` (and ``timeline``, if any)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, name, layer in _CLASS_TARGETS:
                self._patches.append((owner, name, owner.__dict__[name]))
                setattr(owner, name,
                        self._wrapper(owner.__dict__[name], layer))
            self.wrap_method(service, "run", SERVICE_RUN)
            self.wrap_method(service.cache, "pre_bfs", PRE_BFS,
                             on_pre_bfs)
            for name in ("increment", "observe", "observe_hist",
                         "set_gauge"):
                self.wrap_method(service.metrics, name, METRICS)
            for system in service.systems:
                self.wrap_method(system, "execute", EXECUTE)
                self.wrap_method(system.engine, "run", ENGINE_RUN,
                                 on_engine_run)
            if timeline is not None:
                for name in ("record", "observe", "set_gauge"):
                    self.wrap_method(timeline, name, TIMELINE)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, name, value = self._patches.pop()
            if value is None:
                delattr(owner, name)
            else:
                setattr(owner, name, value)

    # -- reading -------------------------------------------------------
    def take_request(self) -> Counter:
        """Self nanoseconds per layer since the last call; folds them
        into :attr:`total_ns`."""
        with self._lock:
            request, self._request = self._request, Counter()
            self.total_ns.update(request)
        return request
