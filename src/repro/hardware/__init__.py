"""Layer 4 of the FEM-2 design: the hardware architecture, simulated.

Clusters of processing elements around shared memories, connected by a
common communication network, driven by a deterministic discrete-event
engine clocked in cycles.  This package is the substrate every virtual
machine above it (sysvm, langvm, appvm) runs on.
"""

from .events import ENGINES, Event, EventEngine, resolve_engine
from .metrics import BusyTracker, Counter, Histogram, MetricsRegistry
from .pe import PEState, ProcessingElement
from .memory import SharedMemory
from .network import TOPOLOGIES, Network, build_topology
from .cluster import Cluster
from .machine import Machine, MachineConfig
from .faults import FaultInjector, FaultRecord
from .trace import TraceEvent, TraceRecorder

__all__ = [
    "ENGINES",
    "Event",
    "EventEngine",
    "resolve_engine",
    "BusyTracker",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "PEState",
    "ProcessingElement",
    "SharedMemory",
    "TOPOLOGIES",
    "Network",
    "build_topology",
    "Cluster",
    "Machine",
    "MachineConfig",
    "FaultInjector",
    "FaultRecord",
    "TraceEvent",
    "TraceRecorder",
]
