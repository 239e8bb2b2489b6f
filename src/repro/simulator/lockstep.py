"""Lockstep multi-flow execution: N independent flows, one event wheel.

A campaign of short flows pays a fixed per-flow toll — building a
:class:`~repro.simulator.engine.Simulator`, priming its heap, entering
and leaving ``run()`` — that dwarfs nothing for a 120 s flow but is
real overhead for Table-I-shaped batches of many short homogeneous
flows.  Lockstep mode amortises that toll: every flow of a group is
wired (via :class:`~repro.simulator.connection.FlowHarness`) onto one
*shared* simulator and the whole group advances through a single
time-major ``run()`` loop.

**Why the results are byte-identical to serial.**  Flows share no
state: each harness owns its RNG streams, loss models, packet pool,
links, and log.  On the shared wheel, a flow's events keep exactly the
relative order they would have solo — the engine's global sequence
counter is strictly increasing, so two same-time events of one flow
fire in the order that flow scheduled them, which is the solo order.
Events of *other* flows interleave between them, but since no callback
reads or writes another flow's state, the interleaving is invisible to
every :class:`~repro.simulator.metrics.FlowLog`.  The one requirement
is equal horizons: all flows of a group must share the same duration,
otherwise the shared ``run(until=...)`` would advance a shorter flow
past the point its solo run stops (firing timers a solo run leaves
queued).  Callers group by duration before calling in here.

Watchdog budgets and telemetry sinks are per-``run()``/per-simulator
concepts and cannot be attributed to one flow of a shared wheel, so
lockstep callers must only submit flows that use neither (the executor
backend enforces this).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.simulator.connection import FlowResult
from repro.simulator.engine import Simulator
from repro.util.errors import ConfigurationError

__all__ = ["run_lockstep"]


def run_lockstep(
    setups: Sequence[Callable[[Simulator], object]],
    duration: float,
    simulator: Optional[Simulator] = None,
) -> List[FlowResult]:
    """Run a group of same-duration flows on one shared event wheel.

    Each element of ``setups`` is called with the shared simulator and
    must wire one flow onto it, returning an object with a ``result()``
    method (a :class:`~repro.simulator.connection.FlowHarness`).  All
    flows are advanced together to ``duration`` and the results are
    harvested in setup order.

    Raises whatever a flow's callbacks raise; the caller owns fallback
    (the executor backend reruns a failed group flow-by-flow, so one
    bad flow cannot poison its groupmates' results).
    """
    if not setups:
        return []
    if duration <= 0.0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    sim = simulator if simulator is not None else Simulator()
    harnesses = [setup(sim) for setup in setups]
    sim.run(until=duration)
    results = [harness.result() for harness in harnesses]
    for result in results:
        result.log.seal()
    return results
