"""repro.compile — submit-time specialization of the task graph.

The interpreter walks the generic langvm→sysvm→hardware path for every
burst, message, and window transfer.  This package compiles instead:
at submit time it specializes the task graph against the flow IR's
resolved facts (spawn routes, const-propagated replication counts,
fixed-length burst chains) and installs a fast-path executor that
replays the result — burst chains fuse into single engine events on the
:class:`~repro.hardware.compiled.CompiledEventEngine`, and anything the
analysis returns as TOP falls back per-task to the interpreter, so
every program still runs.

Three pieces:

* :func:`compile_program` (:mod:`.analyze`) — build a
  :class:`CompiledPlan` from a program's registered tasks;
* :class:`CompiledPlan` (:mod:`.plan`) — the ``fem2-plan/1`` artifact:
  per-type fuse/fallback decisions with P1 blocker evidence, plus the
  routes and burst chains the executor replays;
* :class:`CompiledExecutor` (:mod:`.executor`) — shadows the runtime's
  burst path to fuse compiled types' bursts, via a trampoline that
  keeps exception propagation reference-identical.

The contract, enforced by :mod:`repro.perf` and the three-engine test
matrix: compiled runs produce identical results, clocks, metrics, and
byte-identical ``fem2-ckpt/1`` blobs versus both existing engines.
:class:`~repro.langvm.Fem2Program` invokes all of this automatically
when its machine resolves to ``engine="compiled"``; the service pool
caches plans per registry-type tuple.
"""

from .analyze import compile_program
from .executor import CompiledExecutor
from .plan import SCHEMA, CompiledPlan, TaskPlan

__all__ = [
    "SCHEMA",
    "CompiledExecutor",
    "CompiledPlan",
    "TaskPlan",
    "compile_program",
]
