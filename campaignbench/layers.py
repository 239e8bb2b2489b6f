"""Outside-in per-layer tracer for the campaign benchmark.

The tracer times layers of ``repro`` without touching its source: it
replaces public functions and methods with thin wrappers *where callers
look them up* (a module global such as ``repro.store.backend.decode_outcome``
rather than its defining module, a class attribute for methods), and
puts every original back when the run ends.

Spans are kept on an in-memory stack.  A closed span adds its duration
to its layer's totals and to its parent's child time, so a layer's
self time is the sum of its spans minus the part their child spans
cover.  Nested calls of one layer (``CompositeLoss.is_lost`` calling its
components, ``on_ack`` calling ``pump``) are not new spans: only the
outermost call counts, and the inner ones run straight through.

Each wrapper costs time that would otherwise land in the self time of
the wrapped layer and of its parent.  :func:`measure_span_costs` times
an empty span once per process; :meth:`Tracer.self_seconds` subtracts
that cost per span, per child span and per pass-through call.  Totals
stay in memory until :meth:`Tracer.dump` writes them out.

Worker processes of a process pool are traced by the same catalogue:
:func:`traced_pool_workers` gives the pool an initializer that installs
a tracer in each worker and dumps its totals into a spool directory
when the worker exits; :meth:`Tracer.merge_spool` folds them back.
"""

from __future__ import annotations

import atexit
import functools
import glob
import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = [
    "SpanCosts",
    "Tracer",
    "install_campaign_layers",
    "measure_span_costs",
    "traced_pool_workers",
]

# Per-layer totals, kept as one list per layer so the wrapper updates
# them by index: calls, work units, span seconds, child seconds,
# direct child spans, same-layer pass-through calls.
CALLS, UNITS, ELAPSED, CHILD, CHILDREN, PASSTHROUGH = range(6)


@dataclass(frozen=True)
class SpanCosts:
    """Tracer overhead in seconds, measured on an empty span.

    ``inner`` lies between a span's two clock reads and so inflates the
    span's own duration; ``outer`` is the rest of the wrapper's cost,
    which the *parent* span sees as its own time; ``passthrough`` is
    the cost of a nested same-layer call that runs straight through.
    """

    inner: float = 0.0
    outer: float = 0.0
    passthrough: float = 0.0


class Tracer:
    """Span stack, per-layer totals and the patches that feed them."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        costs: SpanCosts = SpanCosts(),
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.totals: Dict[str, List[float]] = {}
        self._stack: List[List[float]] = []
        self._active: set = set()
        #: (owner, name, original) of every live patch, oldest first
        self.patches: List[tuple] = []

    def wrap(
        self, layer: str, fn: Callable, units: Optional[Callable] = None
    ) -> Callable:
        """``fn`` timed as a span of ``layer``.

        ``units(args, result)`` counts the work one call did (packets in
        a burst, bytes of an entry); without it a call counts one unit.
        """
        totals = self.totals.setdefault(layer, [0, 0, 0.0, 0.0, 0, 0])
        clock = self.clock
        stack = self._stack
        active = self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in active:
                totals[PASSTHROUGH] += 1
                return fn(*args, **kwargs)
            active.add(layer)
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active.discard(layer)
                totals[CALLS] += 1
                totals[ELAPSED] += elapsed
                totals[CHILD] += frame[0]
                totals[CHILDREN] += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
            totals[UNITS] += 1 if units is None else units(args, result)
            return result

        return traced

    def patch(
        self, owner: object, name: str, layer: str, units: Optional[Callable] = None
    ) -> None:
        """Replace ``owner.name`` by a traced wrapper until :meth:`restore`."""
        original = _lookup(owner, name)
        self.replace(owner, name, self.wrap(layer, original, units))

    def replace(self, owner: object, name: str, value: object) -> None:
        """Set ``owner.name`` to ``value`` until :meth:`restore`."""
        self.patches.append((owner, name, _lookup(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- results --------------------------------------------------------

    def calls(self, layer: str) -> int:
        return int(self.totals.get(layer, (0,))[CALLS])

    def units(self, layer: str) -> int:
        totals = self.totals.get(layer)
        return int(totals[UNITS]) if totals else 0

    def self_seconds(self, layer: str) -> float:
        """Self time of ``layer`` with the tracer's own cost taken out."""
        totals = self.totals.get(layer)
        if not totals:
            return 0.0
        costs = self.costs
        return (
            totals[ELAPSED]
            - totals[CHILD]
            - totals[CALLS] * costs.inner
            - totals[CHILDREN] * costs.outer
            - totals[PASSTHROUGH] * costs.passthrough
        )

    def dump(self, path: str) -> None:
        """Write the raw totals as JSON (what :meth:`merge` reads)."""
        with open(path, "w") as handle:
            json.dump(self.totals, handle, sort_keys=True)

    def merge(self, totals: Dict[str, List[float]]) -> None:
        for layer, values in totals.items():
            mine = self.totals.setdefault(layer, [0, 0, 0.0, 0.0, 0, 0])
            for position, value in enumerate(values):
                mine[position] += value

    def merge_spool(self, spool_dir: str) -> int:
        """Fold in every worker dump under ``spool_dir``; the dump count."""
        paths = sorted(glob.glob(os.path.join(spool_dir, "worker-*.json")))
        for path in paths:
            with open(path) as handle:
                self.merge(json.load(handle))
        return len(paths)


def _lookup(owner: object, name: str) -> object:
    # A class's own __dict__ keeps descriptors (staticmethod) intact;
    # getattr would hand back the bound or unwrapped object instead.
    if isinstance(owner, type):
        return owner.__dict__[name]
    return getattr(owner, name)


def _noop(*args: object) -> None:
    return None


def measure_span_costs() -> SpanCosts:
    """Median overhead of an empty span over five timed loops."""
    clock = time.perf_counter
    calls = 20000
    inner, outer, passthrough = [], [], []
    for _ in range(5):
        tracer = Tracer(clock)
        traced = tracer.wrap("empty", _noop)
        start = clock()
        for _ in range(calls):
            _noop()
        plain = (clock() - start) / calls
        start = clock()
        for _ in range(calls):
            traced()
        wrapped = (clock() - start) / calls
        span_inner = max(tracer.totals["empty"][ELAPSED] / calls - plain, 0.0)
        inner.append(span_inner)
        outer.append(max(wrapped - plain - span_inner, 0.0))
        tracer._active.add("empty")
        start = clock()
        for _ in range(calls):
            traced()
        passthrough.append(max((clock() - start) / calls - plain, 0.0))
    return SpanCosts(
        inner=statistics.median(inner),
        outer=statistics.median(outer),
        passthrough=statistics.median(passthrough),
    )


# -- the layer catalogue ----------------------------------------------


def _one(args: tuple, result: object) -> int:
    return 1


def _batch(args: tuple, result: object) -> int:
    return len(args[1])


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found += _subclasses(sub)
    return found


def install_campaign_layers(tracer: Tracer) -> None:
    """Patch every traced layer of a campaign into ``tracer``."""
    import repro.exec.executor as executor_module
    import repro.store.backend as store_backend
    import repro.store.disk as store_disk
    import repro.traces.capture as capture_module
    from repro.cc import cc_infos
    from repro.exec import Executor, FlowSpec, SupervisedBackend
    from repro.simulator import (
        BottleneckLink,
        FlowLog,
        Link,
        LossModel,
        Receiver,
        Simulator,
    )
    from repro.store import ResultStore

    tracer.patch(
        Simulator, "run", "simulator.engine",
        lambda args, result: args[0].events_processed,
    )
    for model in _subclasses(LossModel):
        if "is_lost" in model.__dict__:
            tracer.patch(model, "is_lost", "simulator.loss", _one)
        if "is_lost_block" in model.__dict__:
            tracer.patch(model, "is_lost_block", "simulator.loss", _batch)
    for link in (Link, BottleneckLink):
        tracer.patch(link, "send", "simulator.link", _one)
        tracer.patch(link, "send_burst", "simulator.link", _batch)
    patched = set()
    for info in cc_infos():
        if not isinstance(info.factory, type):
            continue
        for klass in info.factory.__mro__:
            for name in ("on_ack", "pump"):
                if name in klass.__dict__ and (klass, name) not in patched:
                    patched.add((klass, name))
                    tracer.patch(klass, name, "simulator.sender")
    tracer.patch(Receiver, "on_data", "simulator.receiver")
    for name in sorted(FlowLog.__dict__):
        if name.startswith("record_"):
            tracer.patch(FlowLog, name, "simulator.flowlog")
    tracer.patch(executor_module, "run_flow", "simulator.flow")
    tracer.patch(capture_module, "capture_flow", "traces.capture")
    tracer.patch(FlowSpec, "resolve", "exec.resolve")
    tracer.patch(Executor, "run", "exec.executor")
    tracer.patch(SupervisedBackend, "map", "exec.supervise")
    tracer.patch(store_backend, "flow_key", "store.key")
    tracer.patch(store_backend, "encode_outcome", "store.encode")
    tracer.patch(store_backend, "decode_outcome", "store.decode")
    tracer.patch(
        store_disk, "encode_entry", "store.entry_encode",
        lambda args, result: len(result),
    )
    tracer.patch(
        store_disk, "decode_entry", "store.entry_decode",
        lambda args, result: len(args[0]),
    )
    tracer.patch(ResultStore, "put", "store.put")
    tracer.patch(ResultStore, "load", "store.load")


def _start_worker_trace(spool_dir: str, costs: SpanCosts) -> None:
    """Pool-worker initializer: trace this worker, dump totals at exit."""
    tracer = Tracer(costs=costs)
    install_campaign_layers(tracer)
    path = os.path.join(spool_dir, f"worker-{os.getpid()}.json")
    atexit.register(tracer.dump, path)


def traced_pool_workers(tracer: Tracer, spool_dir: str) -> None:
    """Make the supervisor's spawn pools start traced workers.

    The supervisor builds its pools from the ``ProcessPoolExecutor``
    name in :mod:`repro.exec.supervise`; the patch adds an initializer
    and is undone by ``tracer.restore()`` like every other patch.
    Workers dump when they exit, so join them before
    :meth:`Tracer.merge_spool`.
    """
    import repro.exec.supervise as supervise

    tracer.replace(
        supervise,
        "ProcessPoolExecutor",
        functools.partial(
            supervise.ProcessPoolExecutor,
            initializer=_start_worker_trace,
            initargs=(spool_dir, tracer.costs),
        ),
    )
