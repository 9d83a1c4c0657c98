"""E16 — design-space campaigns across a worker pool.

One campaign, many simulated machines: a 64-point machine/mesh sweep
fans out across ``multiprocessing`` worker pools of 1/2/4/8 host
processes, measuring points/sec at each width and re-checking the
determinism contract — every width must reproduce the serial report's
canonical bytes exactly.  A second, smaller campaign exercises
adaptive refinement with warm restarts (mid-run ``fem2-ckpt/1`` blobs)
and reports how much schedule the refinement waves added.

Host scaling is hardware-bound: points/sec improves with workers only
up to the machine's core count (recorded in the table), so the
speedup rows are read against ``host_cpus`` — on a 1-core container
every width measures pool overhead, not parallelism.  The simulated
observables are identical at every width by construction.

Env knobs: ``FEM2_E16_POINTS`` caps the sweep size (default 64),
``FEM2_E16_WORKERS`` the widths swept (default ``1,2,4,8``).
"""

import os
import time

import pytest

from conftest import run_once
from repro.bench import Experiment
from repro.campaign import Campaign, ParamSpace

#: the full sweep: 4 mesh sizes x 4 hop latencies x 2 cluster counts
#: x 2 solver widths = 64 points
SWEEP_AXES = {
    "nx": [2, 3, 4, 5],
    "hop_latency": [5, 10, 20, 40],
    "n_clusters": [2, 4],
    "workers": [1, 2],
}

DEFAULT_WIDTHS = (1, 2, 4, 8)


def sweep_space(max_points=None):
    space = ParamSpace(SWEEP_AXES)
    if max_points is not None and space.size() > max_points:
        space = ParamSpace.explicit(space.expand()[:max_points])
    return space


def env_points():
    return int(os.environ.get("FEM2_E16_POINTS", "64"))


def env_widths():
    raw = os.environ.get("FEM2_E16_WORKERS", "")
    if raw:
        return tuple(int(w) for w in raw.split(",") if w)
    return DEFAULT_WIDTHS


def run_width_sweep(max_points=None, widths=None):
    """The same campaign at every pool width; returns per-width timing
    plus the byte-identity verdicts against the serial baseline."""
    max_points = env_points() if max_points is None else max_points
    widths = env_widths() if widths is None else widths
    serial = Campaign(sweep_space(max_points), name="e16", trace=False)
    t0 = time.perf_counter()
    baseline = serial.run()
    serial_seconds = time.perf_counter() - t0
    n_points = len(baseline.points)
    rows = [{"workers": 0, "seconds": serial_seconds,
             "points_per_sec": n_points / serial_seconds,
             "identical": True}]
    for width in widths:
        campaign = Campaign(sweep_space(max_points), name="e16",
                            trace=False, workers=width)
        t0 = time.perf_counter()
        report = campaign.run()
        seconds = time.perf_counter() - t0
        rows.append({
            "workers": width,
            "seconds": seconds,
            "points_per_sec": n_points / seconds,
            "identical":
                report.canonical_bytes() == baseline.canonical_bytes(),
        })
    return baseline, rows


def run_refinement(max_points=16):
    """A refined campaign with warm restarts over the steep half of the
    sweep (hop_latency spans 8x, so the response surface has edges)."""
    space = ParamSpace({"nx": [2, 5], "hop_latency": [5, 40]})
    campaign = Campaign(space, name="e16-refine", trace=False,
                        waves=3, refine_per_wave=max(1, max_points // 4),
                        restart_events=60)
    report = campaign.run()
    return campaign, report


def run_e16(max_points=None, widths=None):
    baseline, rows = run_width_sweep(max_points, widths)
    refine_campaign, refined = run_refinement()

    n_points = len(baseline.points)
    serial_pps = rows[0]["points_per_sec"]
    exp = Experiment("E16", "campaign fan-out: points/sec by pool width")
    exp.set_headers("host workers", "seconds", "points/sec", "speedup",
                    "report identical")
    for row in rows:
        label = "serial" if row["workers"] == 0 else str(row["workers"])
        exp.add_row(label, round(row["seconds"], 2),
                    round(row["points_per_sec"], 1),
                    round(row["points_per_sec"] / serial_pps, 2),
                    row["identical"])
    agg = baseline.aggregate()
    exp.note(f"{n_points} points, engine={baseline.engine}, host_cpus="
             f"{os.cpu_count()}; speedup saturates at host_cpus")
    exp.note(f"simulated cycles per point: min {agg['cycles']['min']:.0f}, "
             f"max {agg['cycles']['max']:.0f}, mean {agg['cycles']['mean']:.0f}")

    ragg = refined.aggregate()
    met = Experiment("E16M", "campaign: machine-readable summary metrics")
    met.set_headers("metric", "value")
    met.add_row("points", n_points)
    met.add_row("host_cpus", os.cpu_count())
    met.add_row("serial_points_per_sec", round(serial_pps, 2))
    for row in rows[1:]:
        met.add_row(f"points_per_sec_w{row['workers']}",
                    round(row["points_per_sec"], 2))
        met.add_row(f"identical_w{row['workers']}", row["identical"])
    met.add_row("refined_points", ragg["refined_points"])
    met.add_row("warm_restarts", ragg["warm_restarts"])
    met.add_row("restart_blobs_kept", len(refine_campaign.restart_blobs))
    return exp, met, {"rows": rows, "baseline": baseline,
                      "refined": refined,
                      "refine_campaign": refine_campaign}


@pytest.mark.benchmark(group="e16")
def test_e16_campaign(benchmark, experiment_sink):
    # the pytest face runs a reduced sweep at widths 1/2; run_all.py
    # writes the full 64-point 1/2/4/8 sweep into BENCH_e16.json
    exp, met, data = run_once(benchmark,
                              lambda: run_e16(max_points=8, widths=(1, 2)))
    experiment_sink(exp)
    experiment_sink(met)
    # the determinism contract holds at every pool width
    for row in data["rows"]:
        assert row["identical"], f"width {row['workers']} diverged"
    # refinement scheduled new in-space points and warm-restarted them
    refined = data["refined"]
    waves = {p["wave"] for p in refined.points}
    assert waves != {0}, "no refinement wave ran"
    assert refined.aggregate()["warm_restarts"] > 0
    assert data["refine_campaign"].restart_blobs
    # points/sec scales only when the host has cores to scale onto
    if (os.cpu_count() or 1) >= 4:
        by_width = {r["workers"]: r["points_per_sec"]
                    for r in data["rows"]}
        assert by_width[2] > by_width[1]
