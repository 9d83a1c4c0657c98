"""Golden-trace regression tests: two fully-traced example programs
must reproduce their committed span/metrics fixtures **byte for byte**.

The fixtures pin the simulation's complete observable surface — result,
final clock, events processed, every flat metric, and the entire
:mod:`repro.obs` span record (sampling off) — so any change to event
ordering, cycle accounting, metric naming, or tracing shows up as a
one-line diff here before it can silently shift published benchmarks.

To regenerate after an intentional semantic change::

    FEM2_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

then review the fixture diff like any other code change.
"""

import json
import os
import pathlib

import numpy as np
import pytest

from repro.hardware.machine import MachineConfig
from repro.langvm.program import Fem2Program
from repro.obs import Tracer, to_record

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REGEN = bool(os.environ.get("FEM2_REGEN_GOLDEN"))


def traced_fanout():
    """Task fan-out/wait with mixed burst lengths across two clusters."""
    tracer = Tracer()  # sample_every=1: every span recorded
    prog = Fem2Program(
        MachineConfig(n_clusters=2, pes_per_cluster=3,
                      memory_words_per_cluster=500_000),
        tracer=tracer, journal=True,
    )

    @prog.task()
    def crunch(ctx, index):
        yield ctx.compute(flops=100 + 35 * index)
        return index * index

    @prog.task()
    def main(ctx):
        total = 0
        for _wave in range(2):
            tids = yield ctx.initiate("crunch", count=4)
            results = yield ctx.wait(tids)
            total += sum(results.values())
        return total

    result = prog.run("main")
    return prog, tracer, result


def traced_windows():
    """Window create/read/compute/write traffic on one cluster pair."""
    tracer = Tracer()
    prog = Fem2Program(
        MachineConfig(n_clusters=2, pes_per_cluster=3,
                      memory_words_per_cluster=500_000),
        tracer=tracer, journal=True,
    )

    @prog.task()
    def scale(ctx, win):
        data = yield ctx.read(win)
        yield ctx.compute(flops=int(data.size) * 3)
        yield ctx.write(win, data * 2.0 + 1.0)

    @prog.task()
    def main(ctx):
        h = yield ctx.create(np.linspace(0.0, 1.0, 32))
        win = ctx.window(h)
        tid = yield ctx.initiate("scale", win, count=1, index_arg=False)
        yield ctx.wait(tid)
        out = yield ctx.read(win)
        return float(out.sum())

    result = prog.run("main")
    return prog, tracer, result


GOLDEN_PROGRAMS = {
    "fanout": traced_fanout,
    "windows": traced_windows,
}


def golden_payload(build):
    """The canonical JSON-able record of one traced run."""
    prog, tracer, result = build()
    eng = prog.machine.engine
    return {
        "schema": "fem2-golden/1",
        "result": result,
        "clock": eng.now,
        "events_processed": eng.events_processed,
        "metrics": dict(prog.metrics.flat()),
        "trace": to_record(tracer),
    }


def golden_bytes(build):
    return json.dumps(golden_payload(build), indent=2, sort_keys=False) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_golden_trace(name):
    path = FIXTURES / f"golden_{name}.json"
    got = golden_bytes(GOLDEN_PROGRAMS[name])
    if REGEN:
        FIXTURES.mkdir(exist_ok=True)
        path.write_text(got)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing fixture {path}; run with FEM2_REGEN_GOLDEN=1 to create"
    )
    want = path.read_text()
    if got != want:
        got_doc, want_doc = json.loads(got), json.loads(want)
        diffs = [
            k for k in ("result", "clock", "events_processed", "metrics",
                        "trace")
            if got_doc.get(k) != want_doc.get(k)
        ]
        raise AssertionError(
            f"golden trace {name!r} drifted "
            f"(changed sections: {diffs}); if intentional, regenerate with "
            f"FEM2_REGEN_GOLDEN=1 and review the fixture diff"
        )


def test_fixtures_are_committed_and_canonical():
    """Fixtures exist and are exactly canonical JSON (no hand edits)."""
    for name in GOLDEN_PROGRAMS:
        path = FIXTURES / f"golden_{name}.json"
        assert path.exists(), f"missing {path}"
        text = path.read_text()
        doc = json.loads(text)
        assert doc["schema"] == "fem2-golden/1"
        assert text == json.dumps(doc, indent=2, sort_keys=False) + "\n"
