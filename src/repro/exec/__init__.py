"""repro.exec: the unified flow-execution pipeline.

Describe a run as a :class:`FlowSpec`, hand batches to an
:class:`Executor` placed serially or on a process pool (``auto=True``
lets a probe choose) — byte-identical any way — or run one spec with
:func:`simulate_spec`.  ``Executor.run`` is one fixed pipeline: store
hits and misses are partitioned in the parent, the misses run through
the :mod:`~repro.exec.supervise` layer (worker-crash recovery,
parent-enforced deadlines, graceful signal drain), and fresh results
are written back.  A :class:`ChaosPlan` on the
:class:`SupervisorPolicy` injects execution faults to test it.  See the
README's architecture section for how campaigns, experiments, and
MPTCP flows all route through here.
"""

from repro.exec.chaos import ChaosPlan
from repro.exec.executor import (
    ExecutionResult,
    Executor,
    FlowOutcome,
    ProcessPoolBackend,
    SerialBackend,
    simulate_spec,
)
from repro.exec.spec import FlowSpec, ResolvedFlow
from repro.exec.supervise import (
    SupervisedBackend,
    SupervisorPolicy,
    clear_interrupt,
    interrupt_signal,
)

__all__ = [
    "ChaosPlan",
    "ExecutionResult",
    "Executor",
    "FlowOutcome",
    "FlowSpec",
    "ProcessPoolBackend",
    "ResolvedFlow",
    "SerialBackend",
    "SupervisedBackend",
    "SupervisorPolicy",
    "clear_interrupt",
    "interrupt_signal",
    "simulate_spec",
]
