"""Trace-validated route extraction: observed ⊆ predicted.

The contract that makes the :class:`~repro.lint.flow.summary.FlowSummary`
trustworthy is *soundness*: every message edge the
machine actually produces at run time must have been statically
predicted.  This module checks it — run a program under the
:mod:`repro.obs` tracer, then compare:

* **spawn edges** — every ``sysvm.task`` span whose parent span is also
  a ``sysvm.task`` span is an observed (parent type → child type)
  initiation; it must appear in ``summary.routes`` (a ``dst: "*"``
  wildcard route covers dynamically-targeted sites).
* **message edges** — every ``sysvm.msg.<kind>`` point span parented to
  a ``sysvm.task`` span is an observed (source type, kind) emission; it
  must appear in ``summary.msg_routes``.

Machine-attributed traffic (``remote_return``, ``load_code``, anything
with no source task) has no task-level parent span and is excluded —
the machine, not the program, decides it.  Over-prediction is fine:
the static side may promise messages that never materialize (e.g. a
window op that turns out to be cluster-local sends nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from .summary import FlowSummary

_TASK_KIND = "sysvm.task"
_MSG_PREFIX = "sysvm.msg."


@dataclass
class SoundnessResult:
    """Outcome of one observed-vs-predicted comparison."""

    spawn_edges: int = 0
    msg_edges: int = 0
    unpredicted: List[str] = field(default_factory=list)

    @property
    def checked(self) -> int:
        return self.spawn_edges + self.msg_edges

    @property
    def ok(self) -> bool:
        return not self.unpredicted

    def to_record(self) -> dict:
        return {
            "spawn_edges": self.spawn_edges,
            "msg_edges": self.msg_edges,
            "checked": self.checked,
            "unpredicted": list(self.unpredicted),
            "ok": self.ok,
        }


def observed_edges(tracer) -> Tuple[Set[Tuple[str, str]], Set[Tuple[str, str]]]:
    """(spawn edges, message edges) actually present in a trace.

    Spawn edges are (parent task type, child task type); message edges
    are (source task type, message kind).  Only task-attributed traffic
    counts — spans with no ``sysvm.task`` parent are machine-internal.
    """
    spans = tracer.spans()
    by_sid = {s.sid: s for s in spans}
    spawns: Set[Tuple[str, str]] = set()
    msgs: Set[Tuple[str, str]] = set()
    for span in spans:
        parent = by_sid.get(span.parent_sid)
        if parent is None or parent.kind != _TASK_KIND:
            continue
        if span.kind == _TASK_KIND:
            spawns.add((parent.label, span.label))
        elif span.kind.startswith(_MSG_PREFIX):
            msgs.add((parent.label, span.kind[len(_MSG_PREFIX):]))
    return spawns, msgs


def check_soundness(summary: FlowSummary, tracer) -> SoundnessResult:
    """Assert every observed message edge was statically predicted."""
    observed_spawns, observed_msgs = observed_edges(tracer)
    predicted_spawns = summary.spawn_edges()
    predicted_msgs = summary.msg_edges()
    wildcards = summary.wildcard_sources()

    result = SoundnessResult(
        spawn_edges=len(observed_spawns), msg_edges=len(observed_msgs))
    for src, dst in sorted(observed_spawns):
        if (src, dst) not in predicted_spawns and src not in wildcards:
            result.unpredicted.append(f"spawn {src} -> {dst}")
    for src, kind in sorted(observed_msgs):
        if (src, kind) not in predicted_msgs:
            result.unpredicted.append(f"msg {src} -> {kind}")
    return result
