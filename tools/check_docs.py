#!/usr/bin/env python3
"""Documentation link + section checker (stdlib only; CI docs job).

Scans every tracked Markdown file for inline links and validates that
relative targets exist in the repository. External (http/https/mailto)
links and pure in-page anchors are skipped; ``path#anchor`` links are
checked for the path part only. Additionally, load-bearing sections —
headings that code comments, README anchors or CI legs point at — must
exist in their documents (see ``_REQUIRED_SECTIONS``), so renaming or
dropping one fails the docs job instead of silently orphaning links.
Source paths cited outside links — ``src/repro/x/y.py``,
``repro/x/y.py`` or a package directory ``src/repro/x/``, in prose,
tables and diagrams — must name something under ``src/``, and cited
``tools/….py``, ``tests/….py`` and ``examples/….py`` must exist too, so
a deletion cannot leave the docs pointing at files that are gone.

Usage::

    python tools/check_docs.py            # check the whole repo
    python tools/check_docs.py README.md  # check specific files
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Inline Markdown links: [text](target). Images share the syntax.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Inline code spans: a link quoted inside one is text, not a link.
_CODE_SPAN = re.compile(r"`[^`]*`")

_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

#: Cited source paths: ``[src/]repro/…`` ending in ``.py`` or ``/``.
_SOURCE_PATH = re.compile(r"(?<![\w/.-])(?:src/)?(repro/[\w/]*(?:\.py\b|/))")

#: Cited scripts: ``tools/``, ``tests/`` or ``examples/`` … ``.py``.
_SCRIPT_PATH = re.compile(
    r"(?<![\w/.-])((?:tools|tests|examples)/[\w/]*\.py\b)")

#: Logs and plans name files as they were, or will be: not checked for
#: cited paths.
_HISTORY = {"CHANGES.md", "ISSUE.md", "ROADMAP.md"}

#: Directories never scanned for Markdown sources.
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules"}

#: Headings (exact lines) that must exist in specific documents.
#: Anchored from code, README links or CI; keep in sync when renaming.
_REQUIRED_SECTIONS = {
    "ARCHITECTURE.md": (
        "## The physical operator tree: logical plan → executors",
        "## Sharded tables and append-only ingestion",
        "## Compaction, generations, and snapshot isolation",
        "## The query service: fingerprint → cache → pipeline",
        "## The HTTP service tier: admission control over the wire",
        "## Zone maps and compressed-domain scans",
        "## Materialized views: per-shard partials, incremental refresh",
        "## Static invariants",
    ),
    "README.md": (
        "## Growing tables: sharded storage and `ingest --append`",
        "## Compaction and retention",
        "## Caching and serving",
        "## Serving over HTTP",
        "## Materialized views: incremental per-shard refresh",
        "## Correctness tooling",
    ),
    "docs/http-api.md": (
        "## Endpoints",
        "## Admission control",
        "## Errors",
        "## Lifecycle",
    ),
    "docs/query-language.md": (
        "### Quoted strings",
        "## Sessionization (SESSIONIZE)",
        "## Birth selection",
        "## Materialized views",
    ),
}


def markdown_files(args: list[str]) -> list[Path]:
    """The files to check: CLI args, or every .md under the repo."""
    if args:
        return [ROOT / a for a in args]
    return sorted(p for p in ROOT.rglob("*.md")
                  if not (_SKIP_DIRS & set(p.relative_to(ROOT).parts)))


def check_file(path: Path) -> list[str]:
    """Problems found in one Markdown file (empty = clean)."""
    problems = []
    if not path.is_file():
        return [f"{path}: file does not exist"]
    text = path.read_text(encoding="utf-8")
    relative_name = path.resolve().relative_to(ROOT).as_posix()
    lines = set(text.splitlines())
    for heading in _REQUIRED_SECTIONS.get(relative_name, ()):
        if heading not in lines:
            problems.append(f"{relative_name}: required section "
                            f"missing -> {heading!r}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _LINK.finditer(_CODE_SPAN.sub("", line)):
            target = match.group(1)
            if target.startswith(_SKIP_PREFIXES):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(ROOT)}:{lineno}: broken link "
                    f"-> {target}")
        if relative_name in _HISTORY:
            continue
        for pattern, base in ((_SOURCE_PATH, ROOT / "src"),
                              (_SCRIPT_PATH, ROOT)):
            for cited in pattern.findall(line):
                if not (base / cited).exists():
                    problems.append(
                        f"{relative_name}:{lineno}: cited source path "
                        f"names no file -> {cited}")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    files = markdown_files(args)
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(files)} markdown file(s): "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
