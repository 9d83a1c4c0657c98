"""Host-time attribution for the traced run: spans and layer folding.

Two instruments, both driven from the benchmark's own files:

* :class:`Spans` records a span around each public call the benchmark
  makes into the stack (submit, scheduling round, solve, campaign run,
  campaign point).  Spans are kept in memory and written out once, when
  the run ends.  A span's self time is its duration minus the time its
  child spans cover.
* :class:`Profiles` runs ``cProfile`` over the traced iteration and
  :func:`fold_layers` folds exclusive time into the subpackages named in
  ``repro.lint.layering.ALLOWED``.  Time in stdlib, builtin and
  third-party code is charged to the repro layer that called it; what no
  repro layer called (the benchmark's own loop, interpreter start-up)
  goes to ``other``.  Submit calls (``ServicePool.submit``,
  ``MachineService.submit``) run under a second profiler, so the appvm
  share of admission can be read apart from the analyses it calls.
"""

from __future__ import annotations

import cProfile
import contextlib
import json
import pstats
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import repro
from repro.appvm import ServicePool
from repro.ckpt import from_bytes, to_bytes
from repro.compile import compile_program
from repro.fem import collect_parallel_cg, register_parallel_cg
from repro.hardware import Event
from repro.langvm import Fem2Program
from repro.lint import cost_report, flow_summary, lint_program
from repro.lint.layering import ALLOWED

OTHER = "other"
LAYERS = tuple(sorted(ALLOWED)) + (OTHER,)

_PACKAGE_DIR = str(Path(repro.__file__).resolve().parent)


class Spans:
    """In-memory span log of one workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def with_self_times(self) -> List[Dict[str, Any]]:
        """Every closed span with ``self_s`` = duration minus children."""
        child_s: Dict[int, float] = defaultdict(float)
        for r in self.records:
            if r["parent"] is not None and r["end"] is not None:
                child_s[r["parent"]] += r["end"] - r["start"]
        return [dict(r, self_s=(r["end"] - r["start"]) - child_s[r["id"]])
                for r in self.records if r["end"] is not None]

    def self_total(self, name: str) -> float:
        return sum(r["self_s"] for r in self.with_self_times()
                   if r["name"] == name)

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name and r["end"] is not None]

    def write(self, path: Path, stamp: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "schema": "perfbench-spans/1",
            "run_id": self.run_id,
            "stamp": stamp,
            "spans": self.with_self_times(),
        }, indent=1))


def span(spans: Optional[Spans], name: str):
    """A span when tracing, a no-op context otherwise."""
    return spans.span(name) if spans is not None else contextlib.nullcontext()


class Profiles:
    """The traced run's profiles: one over everything except submit
    calls, one over those calls alone."""

    def __init__(self) -> None:
        self.main = cProfile.Profile()
        self.submit = cProfile.Profile()

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        self.main.enable()
        try:
            yield
        finally:
            self.main.disable()

    @contextlib.contextmanager
    def submit_window(self) -> Iterator[None]:
        self.main.disable()
        self.submit.enable()
        try:
            yield
        finally:
            self.submit.disable()
            self.main.enable()

    def stats(self, which: str = "all") -> Dict:
        if which == "submit":
            return _raw(self.submit)
        merged = pstats.Stats(self.main)
        if _raw(self.submit):
            merged.add(self.submit)
        return merged.stats


def submit_window(profiles: Optional[Profiles]):
    return (profiles.submit_window() if profiles is not None
            else contextlib.nullcontext())


def _raw(profile: cProfile.Profile) -> Dict:
    profile.create_stats()
    return profile.stats


def layer_of(filename: str) -> Optional[str]:
    """The repro subpackage a source file belongs to, or None for code
    outside the package (stdlib, builtins, numpy, the benchmark)."""
    if not filename.startswith(_PACKAGE_DIR):
        return None
    rel = filename[len(_PACKAGE_DIR):].lstrip("/").split("/")
    head = rel[0][:-3] if rel[0].endswith(".py") else rel[0]
    return head if head in ALLOWED else OTHER


def fold_layers(stats: Dict) -> Dict[str, float]:
    """Exclusive host seconds per layer from ``pstats`` raw stats."""
    owner = {func: layer_of(func[0]) for func in stats}
    memo: Dict[tuple, Dict[str, float]] = {}

    def callers_share(func: tuple, visiting: frozenset) -> Dict[str, float]:
        """How a non-repro function's time divides among layers, by
        the cumulative time each caller spent in it."""
        if owner.get(func):
            return {owner[func]: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(v[3] for v in callers.values())
        if func in visiting or not callers or total <= 0:
            return {OTHER: 1.0}
        out: Dict[str, float] = defaultdict(float)
        for caller, v in callers.items():
            for layer, p in callers_share(caller, visiting | {func}).items():
                out[layer] += p * v[3] / total
        memo[func] = dict(out)
        return memo[func]

    folded = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if owner[func]:
            folded[owner[func]] += tt
            continue
        total = sum(v[2] for v in callers.values())
        if not callers or total <= 0:
            folded[OTHER] += tt
            continue
        for caller, v in callers.items():
            for layer, p in callers_share(caller, frozenset({func})).items():
                folded[layer] += tt * p * v[2] / total
    return folded


def function_time(stats: Dict, fn) -> Dict[str, float]:
    """Cumulative seconds and call count of one Python function."""
    code = fn.__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    if entry is None:
        return {"s": 0.0, "calls": 0}
    return {"s": entry[3], "calls": entry[1]}


def per_layer(iterations, spans: Spans, profiles: Profiles,
              overhead: float) -> Dict[str, Dict[str, Any]]:
    """The ``--trace 1`` metrics, per traced iteration."""
    n = max(1, len(iterations))
    stats = profiles.stats()
    folded = fold_layers(stats)
    total = sum(folded.values()) or 1.0
    counts: Dict[str, float] = defaultdict(float)
    for it in iterations:
        for key, value in it.counts.items():
            counts[key] += value

    def timed(fn):
        return function_time(stats, fn)

    cost = timed(cost_report)
    compiled = timed(compile_program)
    encode = timed(to_bytes)
    points = spans.durations("campaign.point")
    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (folded[layer] / n, "s")
        out[f"{layer}.share"] = (folded[layer] / total, "ratio")
    messages = counts["messages"]
    out.update({
        "hardware.host_us_per_msg": (
            1e6 * folded["hardware"] / messages if messages else 0.0, "us"),
        "hardware.events": (timed(Event.__init__)["calls"] / n, "count"),
        "hardware.sim_cycles": (counts["sim_cycles"] / n, "cycles"),
        "sysvm.messages": (messages / n, "count"),
        "sysvm.message_words": (counts["message_words"] / n, "words"),
        "sysvm.tasks_initiated": (counts["tasks_initiated"] / n, "count"),
        "lint.cost_report_s": (cost["s"] / n, "s"),
        "lint.cost_report_calls": (cost["calls"] / n, "count"),
        "lint.lint_program_s": (timed(lint_program)["s"] / n, "s"),
        "lint.flow_summary_s": (timed(flow_summary)["s"] / n, "s"),
        "lint.analysis_reuse_ratio": (
            1 - cost["calls"] / counts["submissions"]
            if counts["submissions"] else 0.0, "ratio"),
        "compile.compile_s": (compiled["s"] / n, "s"),
        "compile.plans_compiled": (compiled["calls"] / n, "count"),
        "compile.plan_reuse_ratio": (
            1 - compiled["calls"] / counts["placements"]
            if compiled["calls"] and counts["placements"] else 0.0, "ratio"),
        "ckpt.encode_s": (encode["s"] / n, "s"),
        "ckpt.decode_s": (timed(from_bytes)["s"] / n, "s"),
        "ckpt.snapshot_s": (timed(Fem2Program.snapshot)["s"] / n, "s"),
        "ckpt.restore_s": (timed(Fem2Program.restore)["s"] / n, "s"),
        "ckpt.blobs": (encode["calls"] / n, "count"),
        "ckpt.bytes": (counts["ckpt_bytes"] / n, "bytes"),
        "appvm.submit_self_s": (
            fold_layers(profiles.stats("submit"))["appvm"] / n, "s"),
        "appvm.round_s": ((timed(ServicePool.advance)["s"]
                           + timed(ServicePool.run)["s"]) / n, "s"),
        "appvm.jobs_completed": (counts["jobs_completed"] / n, "count"),
        "appvm.jobs_rejected": (counts["jobs_rejected"] / n, "count"),
        "appvm.preemptions": (counts["preemptions"] / n, "count"),
        "appvm.resumes": (counts["resumes"] / n, "count"),
        "fem.register_s": (timed(register_parallel_cg)["s"] / n, "s"),
        "fem.collect_s": (timed(collect_parallel_cg)["s"] / n, "s"),
        "langvm.program_new_s": (timed(Fem2Program.__init__)["s"] / n, "s"),
        "campaign.point_s_p50": (
            statistics.median(points) if points else 0.0, "s"),
        "campaign.orchestration_s": (
            spans.self_total("campaign.run") / n, "s"),
        "obs.trace_overhead": (overhead, "ratio"),
    })
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in out.items()}

