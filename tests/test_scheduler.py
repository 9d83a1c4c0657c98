"""Tests for repro.appvm.scheduler: the multi-tenant sharded job
service — admission quotas, fair-share dispatch, and checkpoint-based
preemption with bit-identical resume."""

import sys
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from repro.appvm import (
    JobSpec,
    JobState,
    MachineService,
    ServicePool,
    StructureModel,
    Tenant,
)
from repro.appvm.scheduler import fairness_index, jain_index
from repro.errors import AppVMError
from repro.fem import LoadSet, Material, rect_grid, static_solve
from repro.hardware import MachineConfig
from repro.lint import facts
from repro.obs import Tracer
from repro.perf import diff_values


def make_model(name, nx=3, ny=2, load=-1e4):
    model = StructureModel(name, material=Material(e=70e9, nu=0.3,
                                                   thickness=0.01))
    model.set_mesh(rect_grid(nx, ny, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    ls = LoadSet("case")
    ls.add_nodal_many(model.mesh.nodes_on(x=2.0), 1, load)
    model.load_sets["case"] = ls
    return model


def small_config():
    return MachineConfig(n_clusters=2, pes_per_cluster=3,
                         memory_words_per_cluster=8_000_000)


def spec_for(user, model, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("tol", 1e-6)
    return JobSpec(user=user, model=model, load_set="case", **kw)


@pytest.fixture
def fresh_facts(monkeypatch):
    """An empty process-wide facts cache for one test (restored after)."""
    cache = OrderedDict()
    monkeypatch.setattr(facts, "_cache", cache)
    return cache


def facts_entries(cache):
    """The per-registry-state entries of the facts cache."""
    return [v for v in cache.values() if isinstance(v, facts.ProgramFacts)]


class TestAdmissionQuotas:
    def test_concurrency_quota_rejects_then_readmits(self):
        pool = ServicePool(n_machines=1, config=small_config(),
                           tenants=[Tenant("acme", max_concurrent=2)])
        h1 = pool.submit(spec_for("a", make_model("m1"), tenant="acme"))
        h2 = pool.submit(spec_for("b", make_model("m2"), tenant="acme"))
        h3 = pool.submit(spec_for("c", make_model("m3"), tenant="acme"))
        assert h1.state is not JobState.REJECTED
        assert h2.state is not JobState.REJECTED
        assert h3.state is JobState.REJECTED
        assert "concurrency quota" in h3.reason
        with pytest.raises(AppVMError, match="rejected"):
            h3.result()
        pool.run()
        assert h1.done and h2.done
        # quota freed by completion: the tenant may submit again
        h4 = pool.submit(spec_for("d", make_model("m4"), tenant="acme"))
        assert h4.state is not JobState.REJECTED
        pool.run()
        assert h4.done

    def test_cycle_window_quota(self):
        pool = ServicePool(
            n_machines=1, config=small_config(),
            tenants=[Tenant("greedy", max_cycles_per_window=1000,
                            window_cycles=10**12)],
        )
        h1 = pool.submit(spec_for("a", make_model("m1"), tenant="greedy"))
        pool.run()
        assert h1.done
        assert pool.tenants.get("greedy").window_used > 1000
        h2 = pool.submit(spec_for("b", make_model("m2"), tenant="greedy"))
        assert h2.state is JobState.REJECTED
        assert "cycle quota" in h2.reason
        # an unthrottled tenant is unaffected
        h3 = pool.submit(spec_for("c", make_model("m3"), tenant="other"))
        assert h3.state is not JobState.REJECTED

    def test_rejection_leaves_no_queue_trace(self):
        pool = ServicePool(n_machines=1, config=small_config(),
                           tenants=[Tenant("t", max_concurrent=1)])
        pool.submit(spec_for("a", make_model("m1"), tenant="t"))
        before = pool.pending_count
        rejected = pool.submit(spec_for("b", make_model("m2"), tenant="t"))
        assert rejected.state.terminal
        assert pool.pending_count == before
        assert pool.stats["rejected"] == 1


class TestCostAdmission:
    def window_pool(self, cap):
        return ServicePool(
            n_machines=1, config=small_config(),
            tenants=[Tenant("capped", max_cycles_per_window=cap,
                            window_cycles=10**12)],
        )

    def test_declared_cost_that_cannot_fit_rejects(self):
        pool = self.window_pool(5000)
        h = pool.submit(spec_for("a", make_model("m1"), tenant="capped",
                                 cost_units=6000))
        assert h.state is JobState.REJECTED
        assert "cannot fit a job costing 6000" in h.reason
        h2 = pool.submit(spec_for("b", make_model("m2"), tenant="capped",
                                  cost_units=4000))
        assert h2.state is not JobState.REJECTED
        pool.run()
        assert h2.done

    def test_predicted_cost_gates_admission_when_undeclared(self):
        probe = ServicePool(n_machines=1, config=small_config())
        spec = spec_for("a", make_model("m1"))
        predicted = probe._predicted_cost_units(spec)
        assert predicted > 1  # the job provably consumes real cycles

        pool = self.window_pool(predicted - 1)
        h = pool.submit(spec_for("a", make_model("m1"), tenant="capped"))
        assert h.state is JobState.REJECTED
        assert "cannot fit" in h.reason

        roomy = self.window_pool(10**9)
        h2 = roomy.submit(spec_for("a", make_model("m1"), tenant="capped"))
        assert h2.state is not JobState.REJECTED
        roomy.run()
        assert h2.done
        # the run costs at least what the model guaranteed
        assert roomy.tenants.get("capped").consumed >= predicted

    def test_predicted_cost_is_cached_per_solve_shape(self, fresh_facts):
        pool = ServicePool(n_machines=1, config=small_config())
        spec = spec_for("a", make_model("m1"))
        first = pool._predicted_cost_units(spec)
        entries = dict(fresh_facts)
        assert len(facts_entries(fresh_facts)) == 1
        # a second job of the same shape under another name is a pure hit
        again = spec_for("b", make_model("m1.again"))
        assert pool._predicted_cost_units(spec) == first
        assert pool._predicted_cost_units(again) == first
        assert dict(fresh_facts) == entries

    def test_declared_below_predicted_bound_is_lint_checked(self):
        pool = ServicePool(n_machines=1, config=small_config())
        model = make_model("m1")
        predicted = pool._predicted_cost_units(spec_for("a", model))
        assert predicted > 1
        with pytest.raises(AppVMError, match="below the predicted"):
            pool.submit(spec_for("a", model, cost_units=predicted - 1,
                                 lint="error"))
        with pytest.warns(UserWarning, match="below the predicted"):
            h = pool.submit(spec_for("a", model, cost_units=predicted - 1,
                                     lint="warn"))
        assert h.state is not JobState.REJECTED
        # a plausible declaration passes the check silently
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            pool.submit(spec_for("b", make_model("m2"),
                                 cost_units=predicted + 10**6, lint="warn"))
        pool.run()

    def test_lint_gate_caches_cost_report(self, fresh_facts):
        from repro.lint import CostReport, LintReport, program_facts
        from repro.lint.flow import FlowSummary
        tracer = Tracer()
        svc = MachineService(config=small_config(), tracer=tracer)
        # the facts of the registry state the gate is about to lint
        entry = program_facts(svc.program)
        svc.submit(spec_for("a", make_model("m1"), lint="warn"))
        # the gate reused that entry; the cost check added its scratch one
        assert len(facts_entries(fresh_facts)) == 2
        assert entry in facts_entries(fresh_facts)
        # a traced gate computed all three facts onto the shared entry
        assert isinstance(entry.__dict__["lint_report"], LintReport)
        assert isinstance(entry.__dict__["flow_summary"], FlowSummary)
        assert isinstance(entry.__dict__["cost_report"], CostReport)
        assert len(tracer.spans("lint.flow")) == 1
        assert len(tracer.spans("lint.cost")) == 1
        svc.run()

    def test_bad_cost_units_rejected_at_spec(self):
        with pytest.raises(AppVMError, match="cost_units"):
            JobSpec(user="a", model=make_model("m"), load_set="case",
                    cost_units=0)


RACY_WRITER_SOURCE = """
def warn_writer(ctx, out_w):
    yield ctx.write(out_w, [1.0] * 4)


def warn_root(ctx, out_w):
    yield from forall(ctx, "warn_writer", 4, (out_w,))
"""


def register_racy(program, tmp_path):
    """Register a W1-racy writer/root pair (real source file) on *program*."""
    path = tmp_path / "warn_racy.py"
    path.write_text("from repro.langvm.parallel import forall\n"
                    + RACY_WRITER_SOURCE)
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    program.define("warn_writer", namespace["warn_writer"])
    program.define("warn_root", namespace["warn_root"])


class TestAdmissionWarnings:
    """Gate and cost-check warnings point at the line that called
    ``submit``, whichever entry point the caller used."""

    @pytest.mark.parametrize("entry", ["pool", "service"])
    @pytest.mark.parametrize("check", ["gate", "cost"])
    def test_warning_points_at_submit_call(self, entry, check, tmp_path):
        if entry == "pool":
            target = ServicePool(n_machines=1, config=small_config())
            program = target.machines[0].program
        else:
            target = MachineService(config=small_config())
            program = target.program
        kw = {"lint": "warn"}
        if check == "gate":
            register_racy(program, tmp_path)
            match = "static analysis findings"
        else:
            kw["cost_units"] = 1
            match = "below the predicted lower bound"
        spec = spec_for("a", make_model("m1"), **kw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            target.submit(spec)
        (warning,) = [w for w in caught if match in str(w.message)]
        assert warning.category is UserWarning
        assert warning.filename == __file__
        assert warning.lineno == line


class TestContentKeyedAdmission:
    SHAPES = [(3, 2), (4, 2), (5, 3)]

    def test_uniquely_named_jobs_share_one_entry_per_shape(self, fresh_facts,
                                                          monkeypatch):
        from repro.fem import register_parallel_cg
        from repro.langvm import Fem2Program
        from repro.lint import cost_report, machine_env

        config = small_config()
        pool = ServicePool(n_machines=2, config=config)
        specs = [spec_for(f"u{i}", make_model(f"plate.{i}", nx, ny,
                                              load=-1e3 * (i + 1)))
                 for i, (nx, ny) in enumerate(self.SHAPES * 3)]
        handles = [pool.submit(spec) for spec in specs]
        predicted = [pool._predicted_cost_units(spec) for spec in specs]
        pool.run()
        assert all(h.done for h in handles)
        # names never reach the key: every shape registers the same two
        # CG bodies, so the nine jobs leave one entry (at most one per shape)
        assert len(facts_entries(fresh_facts)) == 1 <= len(self.SHAPES)

        # each prediction equals an uncached analysis of that spec's
        # scratch program
        monkeypatch.setattr(facts, "_cache", OrderedDict())
        monkeypatch.setattr(facts, "CACHE_SIZE", 0)
        for spec, got in zip(specs, predicted):
            scratch = Fem2Program(config)
            register_parallel_cg(
                scratch, spec.model.require_mesh(), spec.model.material,
                spec.model.require_constraints(),
                spec.model.load_set(spec.load_set), n_workers=spec.workers,
                tol=spec.tol, worker_name="cost.cg_worker",
                root_name="cost.cg_root")
            lo, _hi = cost_report(scratch).cycles.evaluate(
                machine_env(config), default=0.0)
            assert got == max(1, int(lo))
        assert len(facts._cache) == 0

    def test_drained_pool_holds_no_per_job_analysis_state(self):
        model = make_model("plate")

        def drained(n_jobs):
            pool = ServicePool(n_machines=2, config=small_config())
            for i in range(n_jobs):
                pool.submit(spec_for(f"u{i}", model, lint="warn"))
            pool.run()
            assert pool.stats["completed"] == n_jobs
            # every dict the pool and its machines hold, by size: each
            # job registers uniquely named tasks, so a per-job cache
            # anywhere here would grow with the job count
            return [{name: len(value) for name, value in vars(owner).items()
                     if isinstance(value, dict)}
                    for owner in (pool, *pool.machines)]

        assert drained(2) == drained(6)


class TestLifecycle:
    def test_states_through_contention(self):
        pool = ServicePool(n_machines=1, config=small_config(), quantum=2000)
        first = pool.submit(spec_for("a", make_model("m1")))
        second = pool.submit(spec_for("b", make_model("m2")))
        assert first.state is JobState.RUNNING
        assert second.state is JobState.ADMITTED  # machine full: queued
        pool.run()
        assert first.state is JobState.DONE
        assert second.state is JobState.DONE
        assert second.queue_wait > 0
        assert second.dispatch_time > second.submit_time

    def test_results_match_host_oracle(self):
        pool = ServicePool(n_machines=2, config=small_config())
        models = {u: make_model(f"m_{u}", load=-1e4 * (i + 1))
                  for i, u in enumerate(("alice", "bob", "carol"))}
        handles = {u: pool.submit(spec_for(u, m)) for u, m in models.items()}
        pool.run()
        for user, model in models.items():
            ref = static_solve(model.mesh, model.material, model.constraints,
                               model.load_sets["case"])
            got = handles[user].result()
            assert np.allclose(got.u, ref.u, atol=1e-4 * abs(ref.u).max())

    def test_advance_moves_clock_through_idle(self):
        pool = ServicePool(n_machines=1, config=small_config(), quantum=500)
        pool.advance(10_000)
        assert pool.now == 10_000


class TestFairShare:
    def test_unequal_shares_get_proportional_cycles(self):
        """Under sustained contention, consumed cycles per share unit
        converge across tenants (measured mid-run, while both tenants
        still have work queued)."""
        pool = ServicePool(
            n_machines=2, config=small_config(), quantum=1000,
            tenants=[Tenant("gold", share=3), Tenant("bronze", share=1)],
        )
        for i in range(10):
            pool.submit(spec_for(f"g{i}", make_model(f"gm{i}"), tenant="gold"))
            pool.submit(spec_for(f"b{i}", make_model(f"bm{i}"), tenant="bronze"))
        gold = pool.tenants.get("gold")
        bronze = pool.tenants.get("bronze")
        # measure after several job generations but before contention ends
        while pool.queue and gold.jobs_done + bronze.jobs_done < 10:
            pool.advance(pool.quantum)
        assert pool.queue, "contention ended before the measurement window"
        # share-normalized consumption within tolerance of proportional;
        # exactness is impossible with whole jobs as the allocation unit
        assert fairness_index(pool.tenants) > 0.6
        assert gold.consumed > 2 * bronze.consumed
        assert gold.jobs_done >= 2 * bronze.jobs_done
        assert 0.9 < jain_index(pool.tenants) <= 1.0
        pool.run()
        assert all(h.done for h in pool.handles)
        report = pool.report()
        assert report["stats"]["completed"] == 20
        assert report["tenants"]["gold"]["share"] == 3

    def test_equal_shares_interleave(self):
        pool = ServicePool(n_machines=1, config=small_config(), quantum=1000,
                           tenants=[Tenant("t1"), Tenant("t2")])
        order = []
        for i in range(3):
            for t in ("t1", "t2"):
                h = pool.submit(spec_for(f"{t}_u{i}",
                                         make_model(f"{t}_m{i}"), tenant=t))
                order.append(h)
        pool.run()
        finish = sorted(pool.handles, key=lambda h: h.finish_time)
        tenants = [h.spec.tenant for h in finish]
        # never three consecutive completions from one tenant
        for i in range(len(tenants) - 2):
            assert len(set(tenants[i:i + 3])) > 1


class TestPreemption:
    def make_pool(self, tracer=None):
        return ServicePool(
            n_machines=1, config=small_config(), quantum=500, tracer=tracer,
            tenants=[Tenant("batch"), Tenant("urgent")],
        )

    def run_with_preemption(self, tracer=None):
        pool = self.make_pool(tracer=tracer)
        low = pool.submit(spec_for("low", make_model("shared", nx=4),
                                   tenant="batch", priority=0))
        pool.advance(1500)  # the low job makes real progress
        assert low.state is JobState.RUNNING
        high = pool.submit(spec_for("high", make_model("rush"),
                                    tenant="urgent", priority=5))
        assert low.state is JobState.PREEMPTED
        assert low.preemptions == 1
        assert high.state is JobState.RUNNING
        pool.run()
        assert low.done and high.done
        return pool, low, high

    def test_preempt_then_resume_bit_identical(self):
        pool, low, high = self.run_with_preemption()
        assert pool.stats["preemptions"] == 1
        assert pool.stats["resumes"] == 1

        # control: the same job, never preempted
        control_pool = ServicePool(n_machines=1, config=small_config(),
                                   quantum=500)
        control = control_pool.submit(
            spec_for("low", make_model("shared", nx=4), tenant="batch"))
        control_pool.run()

        a, b = low.result(), control.result()
        assert np.array_equal(a.u, b.u)
        assert set(a.stresses) == set(b.stresses)
        for etype in a.stresses:
            assert np.array_equal(a.stresses[etype], b.stresses[etype])
        assert a.iterations == b.iterations
        assert a.elapsed_cycles == b.elapsed_cycles
        assert diff_values(
            {"u": a.u.tolist(), "iters": a.iterations,
             "s": {k: v.tolist() for k, v in a.stresses.items()}},
            {"u": b.u.tolist(), "iters": b.iterations,
             "s": {k: v.tolist() for k, v in b.stresses.items()}},
        ) == []

    def test_lower_priority_never_preempts(self):
        pool = self.make_pool()
        first = pool.submit(spec_for("a", make_model("m1"),
                                     tenant="batch", priority=5))
        pool.advance(1000)
        second = pool.submit(spec_for("b", make_model("m2"),
                                      tenant="urgent", priority=5))
        # equal priority: no preemption, the newcomer queues
        assert first.state is JobState.RUNNING
        assert second.state is JobState.ADMITTED
        assert pool.stats["preemptions"] == 0
        pool.run()

    def test_no_preemption_without_checkpointing(self):
        pool = ServicePool(n_machines=1, config=small_config(), quantum=500,
                           checkpointing=False)
        pool.submit(spec_for("a", make_model("m1")))
        pool.advance(1000)
        urgent = pool.submit(spec_for("b", make_model("m2"), priority=9))
        assert urgent.state is JobState.ADMITTED
        assert pool.stats["preemptions"] == 0
        pool.run()
        assert urgent.done

    def test_sched_spans_tell_the_story(self):
        tracer = Tracer()
        pool, low, high = self.run_with_preemption(tracer=tracer)
        # the low job waited twice (initial + after preemption)
        queue_spans = tracer.spans("sched.queue")
        assert len(queue_spans) == 3
        assert all(not s.open for s in queue_spans)
        # fresh placements dispatch; the post-preemption one resumes
        assert len(tracer.spans("sched.dispatch")) == 2
        (preempt,) = tracer.spans("sched.preempt")
        assert preempt.attrs["bytes"] > 0
        (resume,) = tracer.spans("sched.resume")
        assert resume.t0 >= preempt.t0


class TestCheckpointScope:
    def test_handle_checkpoint_is_machine_scoped(self):
        """JobHandle.checkpoint() captures the job's machine; a resumed
        service completes exactly that machine's jobs (satellite of the
        per-job/machine checkpoint scoping)."""
        pool = ServicePool(n_machines=2, config=small_config(), quantum=1000)
        h1 = pool.submit(spec_for("alice", make_model("a", nx=4)))
        h2 = pool.submit(spec_for("bob", make_model("b")))
        assert h1.machine is not h2.machine
        blob = h1.checkpoint()

        pool.run()
        resumed = MachineService.resume(blob)
        assert resumed.pending_count == 1  # only alice's machine was captured
        (r1,) = resumed.run()
        assert r1.user == "alice"
        assert np.array_equal(r1.result().u, h1.result().u)

    def test_detached_job_cannot_checkpoint(self):
        pool = ServicePool(n_machines=1, config=small_config())
        handle = pool.submit(spec_for("a", make_model("m")))
        pool.run()
        with pytest.raises(AppVMError, match="not resident"):
            handle.checkpoint()


class TestPoolValidation:
    def test_bad_geometry_rejected(self):
        with pytest.raises(AppVMError):
            ServicePool(n_machines=0)
        with pytest.raises(AppVMError):
            ServicePool(quantum=0)
        with pytest.raises(AppVMError):
            ServicePool(machine_slots=0)
        with pytest.raises(AppVMError):
            Tenant("t", share=0)

    def test_submit_requires_jobspec(self):
        pool = ServicePool(n_machines=1, config=small_config())
        with pytest.raises(AppVMError, match="JobSpec"):
            pool.submit("alice")
