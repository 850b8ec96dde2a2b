"""The documentation stays true: links resolve and examples run.

Mirrors the CI docs job locally so a broken doc fails the tier-1 suite,
not just CI: ``tools/check_docs.py`` validates every relative Markdown
link and holds documents to their line budgets, and
``docs/query-language.md`` runs through doctest (its examples are the
query-language reference's contract).
"""

import doctest
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_docs():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    return check_docs


def test_markdown_links_resolve():
    check_docs = _check_docs()
    problems = []
    for path in check_docs.markdown_files([]):
        problems.extend(check_docs.check_file(path))
    assert problems == []


def test_over_budget_document_fails(monkeypatch):
    """A document longer than its line budget is a problem; at its
    budget it is not."""
    check_docs = _check_docs()
    path = ROOT / "ARCHITECTURE.md"
    length = len(path.read_text(encoding="utf-8").splitlines())
    monkeypatch.setitem(check_docs._LINE_BUDGETS, "ARCHITECTURE.md",
                        length)
    assert check_docs.check_file(path) == []
    monkeypatch.setitem(check_docs._LINE_BUDGETS, "ARCHITECTURE.md",
                        length - 1)
    assert check_docs.check_file(path) == [
        f"ARCHITECTURE.md: {length} lines, over its line budget of "
        f"{length - 1}"]


def test_cited_source_paths_are_checked():
    """Prose, table and diagram citations of ``[src/]repro/...`` and
    of tool, test and example scripts are found (and so must exist);
    other path shapes are left alone."""
    check_docs = _check_docs()
    find = check_docs._SOURCE_PATH.findall
    assert find("│ parser │  repro/cohana/parser.py   cohort SQL") \
        == ["repro/cohana/parser.py"]
    assert find("| `src/repro/views/` | views (`src/repro/cli.py`) |") \
        == ["repro/views/", "repro/cli.py"]
    assert find("see cohana/workers.py and tests/repro/x.py") == []
    assert check_docs._SCRIPT_PATH.findall(
        "run `tools/serve_smoke.py`; tests/test_cli.py pins it, "
        "examples/quickstart.py shows it (not perfbench/tests/x.py, "
        "tests/test_*.py or tools/repolint/)") \
        == ["tools/serve_smoke.py", "tests/test_cli.py",
            "examples/quickstart.py"]


def test_query_language_examples_run():
    results = doctest.testfile(
        str(ROOT / "docs" / "query-language.md"),
        module_relative=False, verbose=False)
    assert results.attempted > 10
    assert results.failed == 0


def test_readme_exists_with_required_sections():
    text = (ROOT / "README.md").read_text()
    for heading in ("## Install", "## Quickstart",
                    "## Map of the repository", "## Benchmarks"):
        assert heading in text
