"""Tier-1 gate: the shipped code must pass its own static analyzer.

``python -m repro.lint src/ examples/`` runs green on every PR — a task
idiom, span pattern, or layering change that trips W/D/O/A checks must
either be fixed or the checker taught the new legal idiom *in the same
PR*.  This is the pytest face of that gate.
"""

import pathlib

from repro.lint import LintCache, lint_paths

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: one cache for the whole module: the U1 sweep re-walks the same trees
#: the green gates already analyzed, so per-file work is paid once
CACHE = LintCache()


def test_src_and_examples_lint_green():
    report = lint_paths([ROOT / "src", ROOT / "examples"], cache=CACHE)
    assert report.clean, "\n" + report.render()
    assert report.files_checked >= 100
    assert report.tasks_checked >= 30  # the walker is finding real tasks


def test_benchmarks_lint_green():
    report = lint_paths([ROOT / "benchmarks"], arch=False, cache=CACHE)
    assert report.clean, "\n" + report.render()
    assert report.tasks_checked >= 10


def test_cache_reuses_unchanged_files():
    """A re-run over an already-analyzed tree is pure cache hits and
    reaches the same verdict."""
    first = lint_paths([ROOT / "src"], arch=False, cache=CACHE)
    again = lint_paths([ROOT / "src"], arch=False, cache=CACHE)
    assert again.cache_misses == 0
    assert again.cache_hits == again.files_checked
    assert [f.render() for f in first.sorted_findings()] \
        == [f.render() for f in again.sorted_findings()]


def test_no_deprecated_submit_form_in_tree():
    """U1 gate: nothing shipped may still use the pre-JobSpec submit
    form (the DeprecationWarning shim exists for downstream users only;
    deprecation *tests* live in tests/, which is not linted)."""
    report = lint_paths([ROOT / "src", ROOT / "examples",
                         ROOT / "benchmarks"], arch=False, cache=CACHE)
    stale = [f for f in report.findings if f.code == "U1"]
    assert not stale, "\n".join(f.render() for f in stale)
