"""Tests for repro.lint.facts: task bodies are parsed once per process,
keyed by content, and the process-wide facts cache stays bounded."""

import importlib.util
import inspect
from collections import OrderedDict

import pytest

from repro.appvm import StructureModel
from repro.fem import LoadSet, Material, rect_grid, register_parallel_cg
from repro.langvm import Fem2Program
from repro.lint import (
    cost_report,
    facts,
    flow_summary,
    lint_program,
    program_facts,
    registry_tasks,
)

TWIN_MODULE = '''
from repro.langvm.parallel import forall


def twin_writer(ctx, out_w):
    yield ctx.write(out_w, [1.0] * 4)


def twin_root(ctx, out_w):
    yield from forall(ctx, "twin_writer", 4, (out_w,))
'''

#: line of the ``forall`` in TWIN_MODULE, as its file is written
FORALL_LINE = 10


@pytest.fixture(autouse=True)
def fresh_facts(monkeypatch):
    """An empty process-wide facts cache for each test (restored after)."""
    cache = OrderedDict()
    monkeypatch.setattr(facts, "_cache", cache)
    return cache


def load_module(directory, name="twin"):
    directory.mkdir(exist_ok=True)
    path = directory / f"{name}.py"
    path.write_text(TWIN_MODULE)
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod, str(path)


def plate():
    model = StructureModel("plate", material=Material(e=70e9, nu=0.3,
                                                      thickness=0.01))
    model.set_mesh(rect_grid(3, 2, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    loads = LoadSet("case")
    loads.add_nodal_many(model.mesh.nodes_on(x=2.0), 1, -1e4)
    model.load_sets["case"] = loads
    return model


def register_cg(program, model, tag):
    register_parallel_cg(
        program, model.require_mesh(), model.material,
        model.require_constraints(), model.load_set("case"), n_workers=1,
        tol=1e-6, worker_name=f"cg_worker.{tag}", root_name=f"cg_root.{tag}")


def w1_findings(report):
    return sorted((f.task, f.file, f.line) for f in report.findings
                  if f.code == "W1")


class TestParseOnce:
    def test_cg_pair_under_many_names_parses_each_body_once(self,
                                                             monkeypatch):
        calls = []
        real = inspect.getsource

        def counting(obj):
            calls.append(obj.__code__)
            return real(obj)

        monkeypatch.setattr(inspect, "getsource", counting)
        model = plate()
        programs = []
        for p in range(3):
            program = Fem2Program()
            for j in range(4):
                register_cg(program, model, f"p{p}.j{j}")
            programs.append(program)
        for program in programs:
            tasks = registry_tasks(program)
            assert sorted(t.name for t in tasks) == sorted(
                program.runtime.registry.types())
            lint_program(program)
            flow_summary(program)
            cost_report(program)
            program_facts(program).cost_report
        # one getsource per distinct body: the CG worker and the CG root
        assert len(calls) == 2
        assert len(set(calls)) == 2

    def test_relabelled_summaries_match_a_fresh_parse(self, monkeypatch):
        model = plate()
        program = Fem2Program()
        register_cg(program, model, "a")
        register_cg(program, model, "b")
        warm = registry_tasks(program)
        monkeypatch.setattr(facts, "CACHE_SIZE", 0)
        cold = registry_tasks(program)
        assert warm == cold
        assert [t.name for t in warm] == list(program.runtime.registry.types())

    def test_body_under_two_names_findings_name_each(self, tmp_path):
        mod, path = load_module(tmp_path)
        program = Fem2Program()
        program.define("twin_writer", mod.twin_writer)
        program.define("root_a", mod.twin_root)
        program.define("root_b", mod.twin_root)
        assert w1_findings(lint_program(program)) == [
            ("root_a", path, FORALL_LINE),
            ("root_b", path, FORALL_LINE),
        ]
        # the cached facts name the same registrations
        report = program_facts(program).lint_report
        assert w1_findings(report) == w1_findings(lint_program(program))

    def test_equal_code_from_two_files_keeps_its_location(self, tmp_path):
        mod_a, path_a = load_module(tmp_path / "a")
        mod_b, path_b = load_module(tmp_path / "b")
        # code equality ignores the file: only the key's file tells them apart
        assert mod_a.twin_root.__code__ == mod_b.twin_root.__code__
        program = Fem2Program()
        program.define("twin_writer", mod_a.twin_writer)
        program.define("root_a", mod_a.twin_root)
        program.define("root_b", mod_b.twin_root)
        tasks = {t.name: t for t in registry_tasks(program)}
        assert tasks["root_a"].file == path_a
        assert tasks["root_b"].file == path_b
        assert w1_findings(lint_program(program)) == [
            ("root_a", path_a, FORALL_LINE),
            ("root_b", path_b, FORALL_LINE),
        ]


class TestProgramFacts:
    def test_facts_are_lazy_and_shared_by_equal_registries(self):
        model = plate()
        first, second = Fem2Program(), Fem2Program()
        register_cg(first, model, "same")
        register_cg(second, model, "same")
        entry = program_facts(first)
        assert program_facts(second) is entry
        assert "cost_report" not in entry.__dict__
        assert entry.cost_report is entry.cost_report
        assert entry.cost_report.to_record() == \
            cost_report(first).to_record()
        assert "lint_report" not in entry.__dict__
        assert "flow_summary" not in entry.__dict__

    def test_registered_names_are_part_of_the_key(self):
        model = plate()
        first, second = Fem2Program(), Fem2Program()
        register_cg(first, model, "x")
        register_cg(second, model, "y")
        assert program_facts(first) is not program_facts(second)


class TestBounded:
    def test_cache_stays_at_its_bound(self, fresh_facts, monkeypatch):
        monkeypatch.setattr(facts, "CACHE_SIZE", 4)
        model = plate()
        for j in range(10):
            program = Fem2Program()
            register_cg(program, model, f"j{j}")
            program_facts(program).cost_report
            assert len(fresh_facts) <= 4
        assert len(fresh_facts) == 4

    def test_hot_bodies_survive_registry_churn(self, fresh_facts,
                                               monkeypatch):
        monkeypatch.setattr(facts, "CACHE_SIZE", 4)
        calls = []
        real = inspect.getsource
        monkeypatch.setattr(inspect, "getsource",
                            lambda obj: calls.append(obj) or real(obj))
        model = plate()
        for j in range(10):
            program = Fem2Program()
            register_cg(program, model, f"j{j}")
            program_facts(program)
        # each lookup refreshes the two bodies, so the LRU evicts stale
        # registry states instead of re-parsing the bodies
        assert len(calls) == 2
