"""The benchmark's three workloads over the public API.

Each workload turns a seed into inputs (``build``), runs one iteration
over those inputs (``iterate``) and checks the iteration's outputs
against host references.  Every iteration of a run repeats the same
inputs, so the simulated observables of a seed are the same in every
iteration and in every run; ``iterate`` reports them in ``sim`` for the
digest the run prints.

* ``job_stream`` — a multi-tenant :class:`~repro.appvm.ServicePool`
  stream of many tiny uniquely named models: scheduling, per-job
  admission analysis, checkpoint preemption.
* ``large_solve`` — a few large parallel-CG solves through
  :class:`~repro.appvm.MachineService`: simulation cost dominates,
  admission is a rounding error.
* ``campaign_sweep`` — the E16 grid plus a warm-restart refinement
  campaign through :class:`~repro.campaign.Campaign`: process fan-out,
  per-point admission and compiled plans.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.appvm import (
    JobSpec,
    MachineService,
    ServicePool,
    StructureModel,
    Tenant,
)
from repro.campaign import (
    DEFAULTS,
    Campaign,
    ParamSpace,
    RunOptions,
    build_config,
    build_model,
    run_point,
)
from repro.fem import LoadSet, Material, assemble_stiffness, rect_grid, solve_linear
from repro.hardware import MachineConfig, resolve_engine

from attribution import Profiles, Spans, span, submit_window

#: clock of the submit latencies: CPU time of this process.  A submit is
#: a synchronous, CPU-bound call, and on a shared VM the hypervisor
#: takes the CPU away for tens of milliseconds at random; wall time
#: would add those pauses to single calls, and they would set the p99
submit_clock = time.process_time


#: the time :func:`reference_seconds` reads on a quiet 2-vCPU Xeon VM
#: with Python 3.11; host times are reported scaled to this speed
REFERENCE_SECONDS = 0.002


def reference_work() -> int:
    """Fixed interpreter work that no change to this repository moves:
    dict and tuple churn, attribute-free arithmetic, a sort."""
    table = {}
    for i in range(5_000):
        table[(i, i % 7)] = [i, i * i % 1_013]
    total = 0
    for (i, r), (_, sq) in table.items():
        total += (i * r + sq) % 13
    return total + sorted(table, key=lambda k: -k[1] - k[0])[0][0]


def reference_seconds(all_cpus: bool = False) -> float:
    """Fastest of a few back-to-back runs of :func:`reference_work`.

    With ``all_cpus``, this is measured on each CPU the process may use
    and their harmonic mean returned: the speed of work that runs on
    all of them at once.  The CPUs of a shared host can differ by a
    quarter at the same moment."""
    if not all_cpus or not hasattr(os, "sched_setaffinity"):
        return _fastest_reference()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_fastest_reference())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.harmonic_mean(times)


def _fastest_reference(repeats: int = 3) -> float:
    best = float("inf")
    gc.disable()   # a collection here would cost as the program's heap
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


@dataclass
class Iteration:
    """What one iteration measured.

    An iteration is timed in segments.  The reference loop is timed just
    before and just after each segment, and the segment's host times
    are scaled by ``REFERENCE_SECONDS`` over the mean of the two: to
    what they would be on a host running at the reference speed.
    ``wall`` is the only unscaled time; ``submit_s`` and
    ``turnaround_s`` are scaled.  Under a profiler (``reference=False``)
    the loop is not run and the scale is 1."""

    #: host seconds of the timed segments, unscaled
    wall: float = 0.0
    #: the same, each segment scaled
    scaled_wall: float = 0.0
    reference: bool = True
    #: host seconds of each run of the reference loop
    reference_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    messages: int = 0
    submit_s: List[float] = field(default_factory=list)
    turnaround_s: List[float] = field(default_factory=list)
    #: simulated observables (deterministic per seed)
    sim: Dict[str, Any] = field(default_factory=dict)
    #: per-layer counts the traced run reports
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: (start, end, scale) of each closed segment
    _segments: List[tuple] = field(default_factory=list)
    _start: float = 0.0
    _before: float = REFERENCE_SECONDS
    _all_cpus: bool = False
    _submits: List[float] = field(default_factory=list)

    def start_segment(self, all_cpus: bool = False) -> None:
        """Open a segment; ``all_cpus`` when its work runs in processes
        on every CPU (see :func:`reference_seconds`)."""
        self._all_cpus = all_cpus
        if self.reference:
            self._before = reference_seconds(all_cpus)
        self._start = time.perf_counter()

    def submitted(self, seconds: float) -> None:
        """Record a submit latency taken in the open segment."""
        self._submits.append(seconds)

    def end_segment(self, timed: bool = True) -> float:
        """Close the open segment and return its scaled length.  An
        untimed segment scales its submit latencies but does not count
        in ``wall``."""
        end = time.perf_counter()
        scale = 1.0
        if self.reference:
            self.reference_s += [self._before,
                                 reference_seconds(self._all_cpus)]
            scale = 2 * REFERENCE_SECONDS / sum(self.reference_s[-2:])
        self._segments.append((self._start, end, scale))
        self.submit_s.extend(s * scale for s in self._submits)
        self._submits.clear()
        if timed:
            self.wall += end - self._start
            self.scaled_wall += (end - self._start) * scale
        return (end - self._start) * scale

    def scaled_interval(self, start: float, end: float) -> float:
        """Scaled length of a ``time.perf_counter`` interval that
        closed segments cover; time between segments counts 0."""
        return sum(max(0.0, min(end, e) - max(start, s)) * k
                   for s, e, k in self._segments)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def plate(name: str, nx: int, ny: int, lx: float, ly: float,
          e: float = 70e9, load: float = -1e4) -> StructureModel:
    """A cantilever plate fixed at x=0 and tip-loaded at x=lx."""
    model = StructureModel(name, material=Material(e=e, nu=0.3,
                                                   thickness=0.01))
    model.set_mesh(rect_grid(nx, ny, lx, ly))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    loads = LoadSet("case")
    loads.add_nodal_many(model.mesh.nodes_on(x=lx), 1, load)
    model.load_sets["case"] = loads
    return model


def host_displacement(model: StructureModel) -> np.ndarray:
    """The host reference: assemble, reduce, ``solve_linear``, expand."""
    k = assemble_stiffness(model.mesh, model.material)
    f = model.load_set("case").vector(model.mesh)
    k_ff, f_f = model.constraints.reduce(k, f)
    return model.constraints.expand(solve_linear(k_ff, f_f).x)


def relative_error(u: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(u - ref) / np.linalg.norm(ref))


def digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- job_stream ---------------------------------------------------------------

class JobStream:
    """Tenants with shares 4/2/1 and a capped tenant submit waves of
    tiny uniquely named plates to a 4-machine pool; one job in twenty is
    urgent and preempts a running one through a checkpoint."""

    name = "job_stream"
    SHAPES = ((2, 1, 2.0, 1.0), (3, 1, 3.0, 1.0), (2, 2, 2.0, 2.0),
              (4, 1, 4.0, 1.0))
    TENANTS = (
        Tenant("gold", share=4),
        Tenant("silver", share=2),
        Tenant("bronze", share=1),
        Tenant("capped", share=1, max_concurrent=8),
    )
    MACHINES = 4
    QUANTUM = 2_000
    WAVES = 10
    QUANTA_PER_WAVE = 4
    URGENT_EVERY = 20
    TOL = 1e-6
    #: this tenant's jobs pass the public lint gate (``JobSpec.lint``)
    LINTED_TENANT = "bronze"

    #: draws the order of tenants, shapes and urgent jobs.  It is the
    #: same for every seed: which jobs are rejected, preempted or gated
    #: depends on that order, so a seed-drawn order would give each seed
    #: a different amount of work
    LAYOUT_SEED = 0

    def __init__(self, seed: int) -> None:
        layout = random.Random(self.LAYOUT_SEED)
        rng = random.Random(seed)
        self.per_wave = len(self.SHAPES) * len(self.TENANTS)
        #: [tenant, shape index, load, priority] per submission; every
        #: wave holds each shape and each tenant equally often.  The
        #: seed draws the loads, which scale displacements only
        self.plan: List[list] = []
        for _wave in range(self.WAVES):
            shapes = [i for i in range(len(self.SHAPES))
                      for _ in self.TENANTS]
            tenants = [t.name for t in self.TENANTS for _ in self.SHAPES]
            layout.shuffle(shapes)
            layout.shuffle(tenants)
            for tenant, shape in zip(tenants, shapes):
                self.plan.append([tenant, shape,
                                  -1e4 * rng.uniform(0.5, 1.5), 0])
        for block in range(0, len(self.plan), self.URGENT_EVERY):
            self.plan[block + layout.randrange(self.URGENT_EVERY)][3] = 5
        self._refs: Dict[int, np.ndarray] = {}

    def config(self) -> MachineConfig:
        return MachineConfig(n_clusters=2, pes_per_cluster=3,
                             memory_words_per_cluster=4_000_000,
                             engine="default")

    def new_pool(self) -> ServicePool:
        return ServicePool(n_machines=self.MACHINES, config=self.config(),
                           tenants=self.TENANTS, quantum=self.QUANTUM)

    def build(self) -> Dict[str, Any]:
        specs = []
        for i, (tenant, shape, load, priority) in enumerate(self.plan):
            model = plate(f"{tenant}.j{i}", *self.SHAPES[shape], load=load)
            specs.append(JobSpec(user=f"{tenant}_user", model=model,
                                 load_set="case", workers=1, tol=self.TOL,
                                 tenant=tenant, priority=priority,
                                 lint=("warn" if tenant == self.LINTED_TENANT
                                       else "off")))
        return {"specs": specs}

    def engine(self) -> str:
        return resolve_engine(self.config().engine)

    def iterate(self, inputs, spans: Optional[Spans] = None,
                profiles: Optional[Profiles] = None) -> Iteration:
        it = Iteration(reference=profiles is None)
        specs = inputs["specs"]
        pending: List[tuple] = []   # (index, handle, host submit time)
        turnaround: Dict[int, tuple] = {}  # index -> (submitted, seen done)
        handles: List = []
        finished_programs: List = [None] * self.MACHINES
        harvested: List[tuple] = []

        def harvest(pool: ServicePool) -> None:
            # one program per assignment: a machine whose job finished
            # still holds its program until the next placement
            now = time.perf_counter()
            for m in pool.machines:
                prog = m.program
                if m.jobs or not m.dirty or finished_programs[m.index] is prog:
                    continue
                finished_programs[m.index] = prog
                metrics = prog.metrics
                harvested.append((
                    int(prog.now), int(metrics.get("comm.messages")),
                    int(prog.machine.engine.events_processed),
                    int(metrics.get("comm.words")),
                    int(metrics.get("task.initiated")),
                ))
            for entry in [e for e in pending if e[1].done]:
                turnaround[entry[0]] = (entry[2], now)
                pending.remove(entry)

        def advance(pool: ServicePool, rounds: int) -> None:
            for _ in range(rounds):
                with span(spans, "appvm.round"):
                    pool.advance(self.QUANTUM)
                harvest(pool)

        # a segment is one wave (its submissions and scheduling rounds)
        # or the drain; the pool is built in the first
        it.start_segment()
        pool = self.new_pool()
        for wave in range(self.WAVES):
            for i in range(wave * self.per_wave, (wave + 1) * self.per_wave):
                it.attempted += 1
                with span(spans, "appvm.submit"), submit_window(profiles):
                    start, cpu = time.perf_counter(), submit_clock()
                    handle = pool.submit(specs[i])
                    it.submitted(submit_clock() - cpu)
                handles.append(handle)
                if not handle.state.terminal:
                    pending.append((i, handle, start))
            advance(pool, self.QUANTA_PER_WAVE)
            it.end_segment()
            it.start_segment()
        while pending:
            advance(pool, 1)
        it.end_segment()
        it.turnaround_s = [it.scaled_interval(*turnaround[i])
                           for i in sorted(turnaround)]

        stats = pool.stats
        it.completed = stats["completed"]
        it.messages = sum(h[1] for h in harvested)
        self._check(it, handles, specs, harvested)
        it.sim = {
            "jobs": stats["completed"], "rejected": stats["rejected"],
            "preemptions": stats["preemptions"],
            "cycles": sum(h[0] for h in harvested),
            "messages": it.messages,
            "events": sum(h[2] for h in harvested),
            "global_cycles": pool.now,
            "digest": digest({
                "programs": harvested,
                "jobs": [(h.state.value,
                          h.result().elapsed_cycles if h.done else None,
                          h.result().iterations if h.done else None)
                         for h in handles],
            }),
        }
        it.counts = {
            "events": it.sim["events"], "sim_cycles": it.sim["cycles"],
            "messages": it.messages,
            "message_words": sum(h[3] for h in harvested),
            "tasks_initiated": sum(h[4] for h in harvested),
            "submissions": len(handles), "placements": stats["dispatched"],
            "jobs_completed": it.completed,
            "jobs_rejected": stats["rejected"],
            "preemptions": stats["preemptions"], "resumes": stats["resumes"],
            "ckpt_bytes": stats["ckpt_bytes"],
        }
        return it

    def _check(self, it: Iteration, handles, specs, harvested) -> None:
        done = [h for h in handles if h.done]
        if not all(h.state.terminal for h in handles):
            it.fail("job_stream: a submission neither completed nor was "
                    "rejected")
        if len(harvested) != len(done):
            it.fail(f"job_stream: {len(harvested)} finished programs for "
                    f"{len(done)} completed jobs")
        for i, h in enumerate(handles):
            if not h.done:
                continue
            if i not in self._refs:
                self._refs[i] = host_displacement(specs[i].model)
            err = relative_error(h.result().u, self._refs[i])
            if not err <= self.TOL:
                it.fail(f"job_stream: job {i} displacement off by {err:.3g}")


# -- large_solve --------------------------------------------------------------

class LargeSolve:
    """Large 16-worker parallel-CG cantilever solves, one fresh
    MachineService each, on a 4x5 machine."""

    name = "large_solve"
    SHAPE = (48, 24, 4.0, 2.0)
    WORKERS = 16
    TOL = 1e-6
    SOLVES = 2

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # stiffness and load scale the system, not the CG iteration
        # count, so every seed does the same simulated work
        self.cases = [(rng.uniform(60e9, 80e9), -1e4 * rng.uniform(0.5, 1.5))
                      for _ in range(self.SOLVES)]
        self._refs: Dict[int, np.ndarray] = {}

    def config(self) -> MachineConfig:
        return MachineConfig(n_clusters=4, pes_per_cluster=5,
                             memory_words_per_cluster=16_000_000,
                             engine="default")

    def engine(self) -> str:
        return resolve_engine(self.config().engine)

    def build(self) -> Dict[str, Any]:
        return {"models": [plate(f"cantilever{i}", *self.SHAPE, e=e, load=load)
                           for i, (e, load) in enumerate(self.cases)]}

    def iterate(self, inputs, spans: Optional[Spans] = None,
                profiles: Optional[Profiles] = None) -> Iteration:
        it = Iteration(reference=profiles is None)
        sims = []
        for i, model in enumerate(inputs["models"]):
            it.attempted += 1
            it.start_segment()
            service = MachineService(self.config())
            with span(spans, "appvm.submit"), submit_window(profiles):
                cpu = submit_clock()
                handle = service.submit(JobSpec(
                    user="analyst", model=model, load_set="case",
                    workers=self.WORKERS, tol=self.TOL))
                it.submitted(submit_clock() - cpu)
            with span(spans, "appvm.run"):
                service.run()
            it.turnaround_s.append(it.end_segment())
            program = service.program
            metrics = program.metrics
            sims.append((int(program.now), int(metrics.get("comm.messages")),
                         int(program.machine.engine.events_processed),
                         int(metrics.get("comm.words")),
                         int(metrics.get("task.initiated")),
                         int(handle.result().iterations)))
            if i not in self._refs:
                self._refs[i] = host_displacement(model)
            err = relative_error(handle.result().u, self._refs[i])
            if not err <= self.TOL:
                it.fail(f"large_solve: solve {i} displacement off by "
                        f"{err:.3g}")
        it.completed = len(sims)
        it.messages = sum(s[1] for s in sims)
        it.sim = {"solves": len(sims), "rejected": 0,
                  "cycles": sum(s[0] for s in sims),
                  "messages": it.messages,
                  "events": sum(s[2] for s in sims),
                  "iterations": [s[5] for s in sims],
                  "digest": digest(sims)}
        it.counts = {
            "events": it.sim["events"], "sim_cycles": it.sim["cycles"],
            "messages": it.messages,
            "message_words": sum(s[3] for s in sims),
            "tasks_initiated": sum(s[4] for s in sims),
            "submissions": len(sims), "placements": len(sims),
            "jobs_completed": len(sims), "jobs_rejected": 0,
            "preemptions": 0, "resumes": 0, "ckpt_bytes": 0,
        }
        return it


# -- campaign_sweep -------------------------------------------------------------

class CampaignSweep:
    """The E16 grid (64 points) and a warm-restart refinement campaign,
    fanned across the campaign worker pool.  The per-point admission
    call each point makes inside a worker is also timed here, in this
    process, on the same inputs (the workers cannot be observed)."""

    name = "campaign_sweep"
    GRID = {"nx": [2, 3, 4, 5], "hop_latency": [5, 10, 20, 40],
            "n_clusters": [2, 4], "workers": [1, 2]}
    REFINE = {"nx": [2, 5], "hop_latency": [5, 40]}
    REFINE_WAVES = 3
    REFINE_PER_WAVE = 4
    RESTART_EVENTS = 60
    #: admission probes per segment (a probe run has 64)
    PROBES_PER_SEGMENT = 8

    def __init__(self, seed: int, workers: int, probes: bool) -> None:
        rng = random.Random(seed)
        # the load scales displacements only: cycles, messages and the
        # refinement schedule are the same for every seed
        self.defaults = {"load": -1e4 * rng.uniform(0.5, 1.5)}
        self.workers = workers
        #: time per-point admission after each campaign; the traced run
        #: leaves it out, so its profile and counts are the campaign's
        self.probes = probes
        self._refs: Dict[tuple, float] = {}
        self._digest: Optional[str] = None
        self._probe_plans: Dict = {}

    def campaigns(self, runner: Optional[Callable] = None):
        workers = 0 if runner is not None else self.workers
        grid = Campaign(ParamSpace(self.GRID), name="grid",
                        defaults=self.defaults, workers=workers,
                        runner=runner)
        refine = Campaign(ParamSpace(self.REFINE), name="refine",
                          defaults=self.defaults, workers=workers,
                          waves=self.REFINE_WAVES,
                          refine_per_wave=self.REFINE_PER_WAVE,
                          restart_events=self.RESTART_EVENTS, runner=runner)
        return grid, refine

    def engine(self) -> str:
        return resolve_engine(self.campaigns()[0].engine)

    def build(self) -> Dict[str, Any]:
        grid = self.campaigns()[0]
        return {"points": ParamSpace(self.GRID).expand(),
                "probe_options": RunOptions(
                    base_config=dict(grid.base_config), engine=grid.engine,
                    defaults=self.defaults)}

    def iterate(self, inputs, spans: Optional[Spans] = None,
                profiles: Optional[Profiles] = None) -> Iteration:
        it = Iteration(reference=profiles is None)
        ckpt_bytes = [0]
        runner = None
        if self.workers == 0:
            plans: Dict = {}

            def runner(point, options):
                with span(spans, "campaign.point"):
                    payload, blob = run_point(point, options,
                                              plan_cache=plans)
                if blob is not None:
                    ckpt_bytes[0] += len(blob)
                return payload

        reports = []
        for campaign in self.campaigns(runner):
            with span(spans, "campaign.run"):
                it.start_segment(all_cpus=self.workers > 0)
                report = campaign.run()
                elapsed = it.end_segment()
            if runner is None:
                ckpt_bytes[0] += sum(len(b) for b in
                                     campaign.restart_blobs.values())
            it.turnaround_s.extend([elapsed] * len(report.points))
            reports.append(report)
            # probing after each campaign spreads the admission samples
            # over the run instead of one block per iteration
            if self.probes:
                self._probe_admission(inputs, it)

        points = [p for r in reports for p in r.points]
        it.attempted += len(points)
        it.completed = len(points)
        it.messages = int(sum(p["metrics"]["messages"] for p in points))
        run_digest = digest([hashlib.sha256(r.canonical_bytes()).hexdigest()
                             for r in reports])
        self._check(it, reports, run_digest)
        aggregate = reports[1].aggregate()
        it.sim = {
            "points": len(points), "rejected": 0,
            "cycles": int(sum(p["metrics"]["cycles"] for p in points)),
            "messages": it.messages,
            "tasks": int(sum(p["metrics"]["tasks"] for p in points)),
            "warm_restarts": aggregate["warm_restarts"],
            "digest": run_digest,
        }
        it.counts = {
            "events": 0, "sim_cycles": it.sim["cycles"],
            "messages": it.messages, "message_words": 0,
            "tasks_initiated": it.sim["tasks"],
            "submissions": len(points), "placements": len(points),
            "jobs_completed": len(points), "jobs_rejected": 0,
            "preemptions": 0, "resumes": aggregate["warm_restarts"],
            "ckpt_bytes": ckpt_bytes[0],
        }
        return it

    def _probe_admission(self, inputs, it: Iteration):
        """Time ``MachineService.submit`` for every grid point exactly as
        a campaign worker builds it: a fresh service per point and a plan
        cache that lives as long as the worker.  Plans compile in the
        warm-up iteration, so this is the steady-state admission cost;
        compiles show in ``compile.*`` and in points/s."""
        options, points = inputs["probe_options"], inputs["points"]
        for n, point in enumerate(points):
            if n % self.PROBES_PER_SEGMENT == 0:
                it.start_segment()
            it.attempted += 1
            merged = {**DEFAULTS, **self.defaults, **point}
            spec = JobSpec(user="campaign",
                           model=build_model(point, options),
                           load_set="case", workers=int(merged["workers"]),
                           tol=float(merged["tol"]))
            service = MachineService(build_config(point, options),
                                     plan_cache=self._probe_plans)
            cpu = submit_clock()
            service.submit(spec)
            it.submitted(submit_clock() - cpu)
            if (n + 1) % self.PROBES_PER_SEGMENT == 0 or n + 1 == len(points):
                it.end_segment(timed=False)

    def _check(self, it: Iteration, reports, run_digest: str) -> None:
        if self._digest is None:
            self._digest = run_digest
        elif run_digest != self._digest:
            it.fail("campaign_sweep: canonical_bytes() digest changed "
                    "between iterations")
        for report in reports:
            options = RunOptions(defaults=self.defaults)
            for p in report.points:
                key = tuple(sorted(p["point"].items()))
                if key not in self._refs:
                    model = build_model(p["point"], options)
                    self._refs[key] = float(
                        np.abs(host_displacement(model)).max())
                ref = self._refs[key]
                got = p["result"]["max_displacement"]
                tol = float({**DEFAULTS, **p["point"]}["tol"])
                if not abs(got - ref) <= tol * abs(ref):
                    it.fail(f"campaign_sweep: point {dict(key)} max "
                            f"displacement {got!r} vs host {ref!r}")


WORKLOADS = {w.name: w for w in (JobStream, LargeSolve, CampaignSweep)}
