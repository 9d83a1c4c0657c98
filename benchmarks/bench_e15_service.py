"""E15 — the multi-tenant job service under load.

Ten-thousand-plus solve jobs from unequal tenants arrive in waves at a
pool of simulated FEM-2 machines and flow through the whole scheduler:
admission quotas reject over-limit submissions, stride fair-share picks
who runs next, and a forced preemption checkpoints a running job off
its machine for a higher-priority one, then resumes it bit-identically
— verified against an unpreempted control run with
:func:`repro.perf.diff_values`.

The sweep reports per-tenant cycles-per-share (the fairness contract),
queue-wait latency percentiles (p50/p99, in service cycles), and the
min/max + Jain fairness indices measured *mid-run under contention* —
after contention ends every backlog drains and the ratios converge to
total demand, which is the wrong thing to measure.
"""

import pytest

from conftest import run_once
from repro.appvm import JobSpec, ServicePool, StructureModel, Tenant
from repro.appvm.scheduler import fairness_index, jain_index
from repro.bench import Experiment
from repro.fem import LoadSet, Material, rect_grid
from repro.hardware import MachineConfig
from repro.perf import diff_values

#: full-scale geometry (the pytest smoke run shrinks total_jobs only).
#: sized so COMPLETED jobs clear 10k even after the capped tenant's
#: quota rejections (~20% of submissions bounce at admission)
TOTAL_JOBS = 14_400
MACHINES = 6
QUANTUM = 2_000

TENANTS = (
    Tenant("gold", share=4),
    Tenant("silver", share=2),
    Tenant("bronze", share=1),
    Tenant("capped", share=1, max_concurrent=8),
)


def tiny_model(name):
    """The smallest solvable plate — E15 stresses the scheduler, not CG."""
    model = StructureModel(name, material=Material(e=70e9, nu=0.3,
                                                   thickness=0.01))
    model.set_mesh(rect_grid(2, 1, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    ls = LoadSet("case")
    ls.add_nodal_many(model.mesh.nodes_on(x=2.0), 1, -1e4)
    model.load_sets["case"] = ls
    return model


def pool_config():
    return MachineConfig(n_clusters=2, pes_per_cluster=3,
                         memory_words_per_cluster=4_000_000)


def run_service_sweep(total_jobs=TOTAL_JOBS, machines=MACHINES):
    """Drive *total_jobs* through the pool in arrival waves; returns the
    pool plus the mid-run fairness snapshot."""
    pool = ServicePool(n_machines=machines, config=pool_config(),
                       tenants=TENANTS, quantum=QUANTUM)
    models = {t.name: tiny_model(f"{t.name}_plate") for t in TENANTS}
    spec_of = {
        t.name: JobSpec(user=f"{t.name}_user", model=models[t.name],
                        load_set="case", workers=1, tol=1e-4, tenant=t.name)
        for t in TENANTS
    }
    per_wave = 12 * len(TENANTS)
    waves = max(1, total_jobs // per_wave)
    mid_fairness = None
    submitted = 0
    for wave in range(waves):
        for t in TENANTS:
            for _ in range(per_wave // len(TENANTS)):
                pool.submit(spec_of[t.name])
                submitted += 1
        pool.advance(6 * QUANTUM)
        if wave == waves // 2:
            mid_fairness = {
                "min_max": fairness_index(pool.tenants),
                "jain": jain_index(pool.tenants),
                "backlog": len(pool.queue),
            }
    pool.run()
    return pool, mid_fairness, submitted


def run_forced_preemption():
    """One preemption round-trip, equivalence-checked against a control
    run that was never interrupted."""

    def solve(preempt):
        pool = ServicePool(n_machines=1, config=pool_config(),
                           quantum=500, tenants=[Tenant("batch"),
                                                 Tenant("urgent")])
        low = pool.submit(JobSpec(
            user="low", model=tiny_model("victim"), load_set="case",
            workers=1, tol=1e-6, tenant="batch", priority=0))
        if preempt:
            pool.advance(3 * 500)  # progress worth losing
            pool.submit(JobSpec(
                user="high", model=tiny_model("rush"), load_set="case",
                workers=1, tol=1e-6, tenant="urgent", priority=5))
        pool.run()
        return pool, low

    pool, preempted = solve(preempt=True)
    _, control = solve(preempt=False)
    a, b = preempted.result(), control.result()
    delta = diff_values(
        {"u": a.u.tolist(), "iterations": a.iterations,
         "elapsed": a.elapsed_cycles,
         "stresses": {k: v.tolist() for k, v in a.stresses.items()}},
        {"u": b.u.tolist(), "iterations": b.iterations,
         "elapsed": b.elapsed_cycles,
         "stresses": {k: v.tolist() for k, v in b.stresses.items()}},
    )
    return {
        "preemptions": pool.stats["preemptions"],
        "resumes": pool.stats["resumes"],
        "ckpt_bytes": pool.stats["ckpt_bytes"],
        "victim_preemptions": preempted.preemptions,
        "identical": not delta,
        "diff_paths": delta,
    }


def tenant_waits(pool, tenant):
    return sorted(h.queue_wait for h in pool.handles
                  if h.spec.tenant == tenant and h.done)


def pct(waits, q):
    if not waits:
        return 0.0
    return float(waits[min(len(waits) - 1, int(q * len(waits)))])


def run_e15(total_jobs=TOTAL_JOBS, machines=MACHINES):
    pool, mid, submitted = run_service_sweep(total_jobs, machines)
    preempt = run_forced_preemption()
    report = pool.report()

    exp = Experiment("E15", "multi-tenant job service: quotas, fair share, "
                            "preemption")
    exp.set_headers("tenant", "share", "jobs done", "rejected",
                    "kcycles/share", "p50 wait (k)", "p99 wait (k)")
    for t in TENANTS:
        led = pool.tenants.get(t.name)
        waits = tenant_waits(pool, t.name)
        exp.add_row(t.name, t.share, led.jobs_done, led.jobs_rejected,
                    round(led.consumed / t.share / 1e3, 1),
                    round(pct(waits, 0.50) / 1e3, 1),
                    round(pct(waits, 0.99) / 1e3, 1))
    lat = report["latency"]
    exp.add_row("ALL", "-", report["stats"]["completed"],
                report["stats"]["rejected"], "-",
                round(lat["p50"] / 1e3, 1), round(lat["p99"] / 1e3, 1))
    exp.note(f"{submitted} submissions over {machines} machines, "
             f"{report['global_cycles'] / 1e6:.1f}M service cycles, "
             f"utilization {report['utilization']:.0%}")
    exp.note(f"mid-run fairness under contention (backlog "
             f"{mid['backlog']}): min/max {mid['min_max']:.3f}, "
             f"Jain {mid['jain']:.3f}")
    exp.note(f"forced preemption: {preempt['preemptions']} checkpoint(s) "
             f"({preempt['ckpt_bytes']} bytes), resumed job bit-identical "
             f"to uninterrupted control: {preempt['identical']}")

    met = Experiment("E15M", "job service: machine-readable summary metrics")
    met.set_headers("metric", "value")
    met.add_row("jobs_completed", report["stats"]["completed"])
    met.add_row("jobs_rejected", report["stats"]["rejected"])
    met.add_row("queue_wait_p50_cycles", report["latency"]["p50"])
    met.add_row("queue_wait_p99_cycles", report["latency"]["p99"])
    met.add_row("fairness_min_max_midrun", round(mid["min_max"], 4))
    met.add_row("fairness_jain_midrun", round(mid["jain"], 4))
    met.add_row("preemptions", preempt["preemptions"])
    met.add_row("preempt_resume_bit_identical", preempt["identical"])
    return exp, met, {"report": report, "mid_fairness": mid,
                      "preemption": preempt, "submitted": submitted}


@pytest.mark.benchmark(group="e15")
def test_e15_service(benchmark, experiment_sink):
    # the pytest face runs a reduced load; run_all.py writes the full
    # 10k+ sweep into BENCH_e15.json
    exp, met, data = run_once(benchmark, lambda: run_e15(total_jobs=1_000,
                                                         machines=4))
    experiment_sink(exp)
    experiment_sink(met)
    report = data["report"]
    # every submission either completed or bounced at admission
    assert (report["stats"]["completed"] + report["stats"]["rejected"]
            == data["submitted"])
    assert report["stats"]["completed"] >= 700
    assert report["stats"]["rejected"] > 0  # the capped tenant hit quota
    # fair share held mid-run: shares 4/2/1 within tolerance
    assert data["mid_fairness"]["min_max"] > 0.5
    assert data["mid_fairness"]["jain"] > 0.9
    # the preempted job resumed bit-identically
    assert data["preemption"]["preemptions"] >= 1
    assert data["preemption"]["resumes"] >= 1
    assert data["preemption"]["identical"], data["preemption"]["diff_paths"]
    # queue-wait percentiles are real measurements
    assert report["latency"]["p99"] >= report["latency"]["p50"] > 0
