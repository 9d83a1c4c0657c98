"""Submit-time program facts, analyzed once per task body.

Every consumer of a built program's static facts — the
:class:`~repro.appvm.JobSpec` lint gate, the
:class:`~repro.appvm.ServicePool` cost check, :func:`lint_program`,
:func:`cost_report` and cost calibration — starts
from one :class:`~repro.lint.astutil.TaskInfo` per registered task body.
Recovering one costs ``inspect.getsource`` + ``ast.parse`` + a task walk,
and a job stream registers the same few bodies under fresh, job-unique
names for every job.  So the analysis is keyed by *content*, not by name,
and lives in one process-wide LRU bounded by :data:`CACHE_SIZE`, holding
two kinds of entry:

* **per body** — ``(code object, co_filename)`` → the body's
  :class:`TaskInfo` (``None`` when its source cannot be recovered).  The
  file is part of the key because code equality ignores it.  A
  registration relabels the cached summary with
  ``dataclasses.replace(info, name=registered_name)``: the registered
  name lands only in ``info.name`` and no analysis mutates a
  :class:`TaskInfo`, so relabelling is exact.
* **per registry state** — the tuple of ``(registered name, body code,
  file)`` over the registry → a :class:`ProgramFacts`, whose lint report,
  flow summary and cost report are each computed on first use.  Names
  stay in this key because findings name tasks.

The cache is plain module state, so forked campaign workers inherit it
warm.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
from collections import OrderedDict
from functools import cached_property
from typing import Callable, List, Optional, Tuple

from .astutil import TaskInfo, analyze_task
from .cost import CostReport, analyze_costs, build_cost_report
from .findings import LintReport
from .flow import FlowSummary, summarize
from .program import check_tasks

#: entries (task bodies plus registry states) the process-wide cache keeps
CACHE_SIZE = 256

_cache: "OrderedDict[tuple, object]" = OrderedDict()


def _cached(key: tuple, build: Callable[[], object]) -> object:
    """The LRU entry for *key*, built (and the oldest evicted) on a miss."""
    try:
        value = _cache[key]
    except KeyError:
        value = _cache[key] = build()
        while len(_cache) > CACHE_SIZE:
            _cache.popitem(last=False)
        return value
    _cache.move_to_end(key)
    return value


def _body_key(body) -> Optional[tuple]:
    """``(code, co_filename)`` of a task body's source-bearing function
    (decorator wrappers unwrapped, as :mod:`inspect` does), or None when
    the body has no code object to key on."""
    code = getattr(inspect.unwrap(body), "__code__", None)
    return None if code is None else (code, code.co_filename)


def _analyze_body(body) -> Optional[TaskInfo]:
    """Parse and summarize one task body (named after its ``def``)."""
    target = inspect.unwrap(body)
    try:
        src = textwrap.dedent(inspect.getsource(target))
        file = inspect.getsourcefile(target) or "<unknown>"
        _, start = inspect.getsourcelines(target)
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(src)
    except SyntaxError:
        return None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            # snippet line k is file line start + k - 1 (the snippet
            # begins at the decorator, which getsourcelines includes)
            return analyze_task(node, file, registered_name=node.name,
                                line_offset=start - 1, registered=True)
    return None


def _registry_bodies(program) -> List[Tuple[str, object, Optional[tuple]]]:
    registry = program.runtime.registry
    out = []
    for name in registry.types():
        body = registry.get(name).body
        out.append((name, body, _body_key(body)))
    return out


def _tasks(bodies) -> List[TaskInfo]:
    tasks: List[TaskInfo] = []
    for name, body, key in bodies:
        info = (_analyze_body(body) if key is None
                else _cached(key, lambda: _analyze_body(body)))
        if info is not None:
            tasks.append(dataclasses.replace(info, name=name))
    return tasks


def registry_tasks(program) -> List[TaskInfo]:
    """Extract a :class:`TaskInfo` per task type registered on a program.

    Walks the program's :class:`~repro.sysvm.code.CodeRegistry`; each
    body is parsed once per process (see the module docstring) and its
    summary relabelled with the registered name.  Bodies whose source
    cannot be recovered (built in a REPL, generated) are skipped — the
    run-time audit still covers them.
    """
    return _tasks(_registry_bodies(program))


def lint_tasks(tasks: List[TaskInfo]) -> LintReport:
    """Run every program checker over *tasks* into a fresh report."""
    files = {t.file for t in tasks}
    report = LintReport(files_checked=len(files), tasks_checked=len(tasks))
    report.extend(check_tasks(tasks))
    return report


class ProgramFacts:
    """The static facts of one registry state, each computed on first
    use.  Shared through the cache: treat every field as read-only."""

    def __init__(self, tasks: List[TaskInfo]) -> None:
        self.tasks = tasks

    @cached_property
    def lint_report(self) -> LintReport:
        return lint_tasks(self.tasks)

    @cached_property
    def flow_summary(self) -> FlowSummary:
        return summarize(self.tasks)

    @cached_property
    def cost_report(self) -> CostReport:
        return build_cost_report(analyze_costs(self.tasks))


def program_facts(program) -> ProgramFacts:
    """The (cached) :class:`ProgramFacts` of *program*'s registry state."""
    bodies = _registry_bodies(program)
    if any(key is None for _, _, key in bodies):
        # a body without a code object has no content to key on
        return ProgramFacts(_tasks(bodies))
    key = tuple((name, *key) for name, _, key in bodies)
    return _cached(key, lambda: ProgramFacts(_tasks(bodies)))
