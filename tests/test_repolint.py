"""Tests for tools/repolint — the AST-based invariant checker.

Three layers of coverage:

* every rule's seeded fixtures (violation fires, clean is silent,
  suppressed is honoured) — the same battery CI's self-check runs;
* the engine itself — suppression semantics, JSON report shape,
  exit codes, rule selection, parse-error handling;
* the documentation contract — every rule id appears in
  ARCHITECTURE.md's "Static invariants" section, and the live tree
  stays clean under ``--strict``.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repolint import Engine, all_rules  # noqa: E402
from tools.repolint.cli import FIXTURES, list_rules, main  # noqa: E402
from tools.repolint.core import (  # noqa: E402
    SUPPRESSION_RULE_ID,
    dotted_name,
    is_write_mode,
)

RULE_IDS = sorted(rule.id for rule in all_rules())


def _run(case_dir: Path):
    return Engine(all_rules()).run([case_dir], root=case_dir)


def _fired(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


def _suppressed(report, rule_id):
    return [f for f in report.suppressed if f.rule == rule_id]


# ---------------------------------------------------------------------------
# Fixture battery: one violating and one clean tree per rule
# ---------------------------------------------------------------------------


class TestFixtureBattery:
    def test_every_rule_ships_fixtures(self):
        for rule_id in RULE_IDS:
            assert (FIXTURES / rule_id / "violation").is_dir(), rule_id
            assert (FIXTURES / rule_id / "clean").is_dir(), rule_id

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_violation_fires(self, rule_id):
        report = _run(FIXTURES / rule_id / "violation")
        assert not report.parse_errors
        findings = _fired(report, rule_id)
        assert findings, f"{rule_id} silent on its seeded violation"
        first = findings[0]
        assert first.line >= 1 and first.message

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_clean_is_silent(self, rule_id):
        report = _run(FIXTURES / rule_id / "clean")
        assert not report.parse_errors
        assert _fired(report, rule_id) == []

    @pytest.mark.parametrize(
        "rule_id",
        [r for r in RULE_IDS
         if (FIXTURES / r / "suppressed").is_dir()])
    def test_suppression_honoured(self, rule_id):
        report = _run(FIXTURES / rule_id / "suppressed")
        assert _fired(report, rule_id) == []
        hits = _suppressed(report, rule_id)
        assert hits, f"{rule_id} suppressed fixture no longer violates"
        assert all(f.reason for f in hits)

    def test_self_check_passes(self, capsys):
        assert main(["--self-check"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert f"self-check {rule_id}: ok" in out


# ---------------------------------------------------------------------------
# Suppression semantics
# ---------------------------------------------------------------------------


class TestSuppressions:
    def _lint_source(self, tmp_path, source,
                     name="src/repro/service/fingerprint.py"):
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        return _run(tmp_path)

    def test_reasonless_suppression_suppresses_nothing(self, tmp_path):
        report = self._lint_source(
            tmp_path,
            "import time  # repolint: ignore[determinism]\n")
        assert _fired(report, "determinism"), \
            "finding should survive a reasonless suppression"
        meta = _fired(report, SUPPRESSION_RULE_ID)
        assert meta and "reason" in meta[0].message

    def test_reasoned_suppression_takes(self, tmp_path):
        report = self._lint_source(
            tmp_path,
            "import time  # repolint: ignore[determinism] -- profiling\n")
        assert not _fired(report, "determinism")
        assert not _fired(report, SUPPRESSION_RULE_ID)
        hits = _suppressed(report, "determinism")
        assert hits and hits[0].reason == "profiling"

    def test_comment_line_above_covers_next_line(self, tmp_path):
        report = self._lint_source(
            tmp_path,
            "# repolint: ignore[determinism] -- profiling\n"
            "import time\n")
        assert not _fired(report, "determinism")
        assert _suppressed(report, "determinism")

    def test_suppression_is_rule_specific(self, tmp_path):
        report = self._lint_source(
            tmp_path,
            "import time  # repolint: ignore[kernel-purity] -- nope\n")
        assert _fired(report, "determinism"), \
            "a suppression for another rule must not leak"


# ---------------------------------------------------------------------------
# Report shape and exit codes
# ---------------------------------------------------------------------------


class TestReportAndCli:
    def test_json_shape(self, tmp_path):
        rules = all_rules()
        report = Engine(rules).run(
            [FIXTURES / "determinism" / "violation"],
            root=FIXTURES / "determinism" / "violation")
        payload = report.to_json(rules)
        assert payload["version"] == 1
        assert set(payload) == {"version", "files_scanned", "rules",
                                "findings", "suppressed", "counts"}
        assert payload["files_scanned"] == report.files_scanned >= 1
        assert {r["id"] for r in payload["rules"]} == set(RULE_IDS)
        for entry in payload["rules"]:
            assert set(entry) == {"id", "severity", "contract", "paths"}
        for finding in payload["findings"]:
            assert {"rule", "path", "line", "col",
                    "message", "severity"} <= set(finding)
        assert payload["counts"]["error"] == len(report.errors)

    def test_json_file_output(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([str(FIXTURES / "determinism" / "violation"),
                     "--root", str(FIXTURES / "determinism" / "violation"),
                     "--json", str(out)])
        assert code == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert any(f["rule"] == "determinism"
                   for f in payload["findings"])

    def test_exit_codes(self, tmp_path):
        clean = FIXTURES / "determinism" / "clean"
        dirty = FIXTURES / "determinism" / "violation"
        assert main([str(clean), "--root", str(clean)]) == 0
        assert main([str(dirty), "--root", str(dirty)]) == 1
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        assert main([str(bad), "--root", str(tmp_path)]) == 2

    def test_select_unknown_rule_rejected(self):
        with pytest.raises(SystemExit):
            main(["--select", "no-such-rule", "--list-rules"])

    def test_select_narrows_battery(self, tmp_path):
        target = tmp_path / "src" / "repro" / "storage" / "rogue.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import os\n\n\ndef sneak(tmp, path):\n"
            "    os.replace(tmp, path)\n", encoding="utf-8")
        code = main([str(tmp_path), "--root", str(tmp_path),
                     "--select", "determinism"])
        assert code == 0, "atomic-publish must not run when deselected"

    def test_live_tree_is_clean_under_strict(self):
        code = main([str(REPO_ROOT / "src"),
                     "--root", str(REPO_ROOT), "--strict"])
        assert code == 0, \
            "src/ must stay repolint-clean; fix or suppress with a reason"


# ---------------------------------------------------------------------------
# Rules <-> documentation contract
# ---------------------------------------------------------------------------


class TestDocumentationContract:
    def test_list_rules_names_every_rule(self):
        table = list_rules(all_rules())
        for rule_id in RULE_IDS:
            assert rule_id in table
        for rule in all_rules():
            assert rule.contract, f"{rule.id} has no contract line"
            assert rule.contract in table

    def test_architecture_doc_documents_every_rule(self):
        text = (REPO_ROOT / "ARCHITECTURE.md").read_text(
            encoding="utf-8")
        assert "## Static invariants" in text
        section = text.split("## Static invariants", 1)[1]
        for rule_id in RULE_IDS:
            assert f"`{rule_id}`" in section, \
                f"{rule_id} missing from ARCHITECTURE.md rule table"

    def test_rule_ids_are_stable(self):
        # Renaming an id silently orphans suppression comments: this
        # pin makes any change a deliberate, reviewed act.
        assert RULE_IDS == [
            "atomic-publish",
            "crash-seam",
            "determinism",
            "executor-lifecycle",
            "flat-group-keys",
            "fsync-before-replace",
            "kernel-purity",
            "lock-discipline",
            "lock-order",
            "no-global-memo",
            "one-factorize",
            "one-fold",
            "one-lru",
            "one-snapshot",
            "one-store",
            "suppression-reason",
        ]


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


class TestHelpers:
    def test_dotted_name(self):
        import ast
        expr = ast.parse("os.path.join", mode="eval").body
        assert dotted_name(expr) == "os.path.join"
        call = ast.parse("x[0].replace", mode="eval").body
        assert dotted_name(call) is None

    def test_is_write_mode(self):
        import ast

        def call(src):
            return ast.parse(src, mode="eval").body

        assert is_write_mode(call("open(p, 'w')"))
        assert is_write_mode(call("open(p, mode='r+b')"))
        assert not is_write_mode(call("open(p)"))
        assert not is_write_mode(call("open(p, 'rb')"))
        assert is_write_mode(call("open(p, m)")), \
            "unknown mode must count as writing"
