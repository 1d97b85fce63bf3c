"""End-to-end CLI behavior over the bundled fixtures."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vulnchain import (AttackState, Fsm, PostconditionRef, PreconditionRef, fsm_to_json,
                       normalize_condition, normalize_uri)
from vulnchain.cli import cli_main

from tests.helpers import CLI_INPUTS, FIXTURES

CLICK = "User clicks the link to the third-party web page sent in email."
FILL = "User fills up the login form on the third-party web page."
COOKIE = "Session cookie already saved in client browser for the logged-in user."


@pytest.fixture()
def built(tmp_path):
    """Machine files for every fixture, keyed by name."""
    out = {}
    for name in ("minimal", "vulnweb", "teacher"):
        path = tmp_path / f"{name}.fsm.json"
        code = cli_main([
            "build",
            "--findings", str(FIXTURES / name / "findings.json"),
            "--crawl", str(FIXTURES / name / "crawl.txt"),
            "--out", str(path),
        ])
        assert code == 0
        out[name] = path
    return out


#: Decodes to "/a%41" in 16 passes, and to "/aA" in one more.
NESTED_16 = "/a%" + "25" * 16 + "41"

MALFORMED_FINDINGS = {
    "lone surrogate in vulnerability": (
        lambda doc: doc["findings"][1].update(vulnerability="A\ud800"),
        "findings[1]: field 'vulnerability' contains a lone surrogate"),
    "lone surrogate in label": (
        lambda doc: doc["findings"][1].update(label="\ud800"),
        "findings[1]: field 'label' contains a lone surrogate"),
    "repeated finding": (
        lambda doc: doc["findings"].append(doc["findings"][0]),
        "findings[4]: same vulnerability and URI as findings[0]"),
    "percent-escapes nested 16 levels deep": (
        lambda doc: doc["findings"][1].update(uri=NESTED_16),
        f"findings[1]: percent-escapes nested more than 16 levels deep: {NESTED_16!r}"),
    "first-seen blank condition with bool flag": (
        lambda doc: doc["findings"][2]["preconditions"][0].update(
            condition="  ", requires_user_action=False),
        "findings[2].preconditions[0]: condition label is empty or whitespace-only"),
    "first-seen lone surrogate condition with bool flag": (
        lambda doc: doc["findings"][2]["preconditions"][0].update(
            condition="x\ud800", requires_user_action=False),
        "findings[2].preconditions[0]: field 'condition' contains a lone surrogate"),
    "lone surrogate in uri": (
        lambda doc: doc["findings"][1].update(uri="/a\ud800"),
        "findings[1]: field 'uri' contains a lone surrogate"),
    "lone surrogate in source": (
        lambda doc: doc["findings"][1].update(source="s\ud800"),
        "findings[1]: field 'source' contains a lone surrogate"),
    "percent-decoded control character at the uri's end": (
        lambda doc: doc["findings"][1].update(uri="/a%0D"),
        "findings[1]: percent-decoded path contains control characters: '/a%0D'"),
    "percent-decoded control character at a relative uri's end": (
        lambda doc: doc["findings"][2].update(uri="a%0D"),
        "findings[2]: percent-decoded path contains control characters: 'a%0D'"),
    "percent-decoded unit separator at the uri's end": (
        lambda doc: doc["findings"][3].update(uri="/a%1F"),
        "findings[3]: percent-decoded path contains control characters: '/a%1F'"),
}


class TestBuild:
    def test_summary_line(self, tmp_path, capsys):
        code = cli_main([
            "build",
            "--findings", str(FIXTURES / "vulnweb" / "findings.json"),
            "--crawl", str(FIXTURES / "vulnweb" / "crawl.txt"),
            "--out", str(tmp_path / "vw.json"),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "states: 10" in captured.out
        assert "goals: 3" in captured.out

    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        code = cli_main([
            "build",
            "--findings", str(FIXTURES / "teacher" / "findings.json"),
            "--crawl", str(FIXTURES / "teacher" / "crawl.txt"),
            "--out", str(tmp_path / "t.json"),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning:" in captured.err

    def test_unproducible_precondition_warned_once(self, tmp_path, capsys):
        code = cli_main([
            "build",
            "--findings", str(FIXTURES / "minimal" / "findings.json"),
            "--crawl", str(FIXTURES / "minimal" / "crawl.txt"),
            "--out", str(tmp_path / "m.json"),
        ])
        err = capsys.readouterr().err
        assert code == 0
        assert err.count("x2") == 1
        assert "precondition 'x2' has no producing finding" in err

    def test_user_action_preconditions_not_warned(self, tmp_path, capsys):
        code = cli_main([
            "build",
            "--findings", str(FIXTURES / "vulnweb" / "findings.json"),
            "--crawl", str(FIXTURES / "vulnweb" / "crawl.txt"),
            "--out", str(tmp_path / "vw.json"),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("case", sorted(MALFORMED_FINDINGS))
    def test_malformed_findings_exit_1_naming_file_and_path(self, case, tmp_path, capsys):
        tamper, message = MALFORMED_FINDINGS[case]
        doc = json.loads((FIXTURES / "minimal" / "findings.json").read_text())
        tamper(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = cli_main(["build", "--findings", str(bad),
                         "--crawl", str(FIXTURES / "minimal" / "crawl.txt"),
                         "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_control_line_boundary_in_crawl_list_exits_1_naming_its_line(
            self, char, tmp_path, capsys):
        crawl = tmp_path / "crawl.txt"
        crawl.write_bytes(f"/a1\n/a{char}\n/a2\n/b{char}1\n".encode("utf-8"))
        code = cli_main(["build", "--findings", str(FIXTURES / "minimal" / "findings.json"),
                         "--crawl", str(crawl), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {crawl}: line 2: URI contains control characters: {'/a' + char!r}\n")

    @pytest.mark.parametrize("text,lineno,entry", [
        ("/a1\n\t/a\x0c \n", 2, "/a\x0c"),
        ("/a1\n# fine\n\x1f/b\n", 3, "\x1f/b"),
        ("\x7f/c\n", 1, "\x7f/c"),
    ])
    def test_control_character_at_either_end_of_a_crawl_line_exits_1(
            self, text, lineno, entry, tmp_path, capsys):
        crawl = tmp_path / "crawl.txt"
        crawl.write_bytes(text.encode("utf-8"))
        code = cli_main(["build", "--findings", str(FIXTURES / "minimal" / "findings.json"),
                         "--crawl", str(crawl), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {crawl}: line {lineno}: URI contains control characters: {entry!r}\n")

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_boundary_in_crawled_uri_matches_the_finding(
            self, char, tmp_path, capsys):
        doc = json.loads((FIXTURES / "minimal" / "findings.json").read_text())
        doc["findings"][0]["uri"] = f"/a{char}1"
        findings = tmp_path / "findings.json"
        findings.write_text(json.dumps(doc))
        crawl = tmp_path / "crawl.txt"
        crawl.write_bytes(
            (FIXTURES / "minimal" / "crawl.txt").read_bytes() + f"/a{char}1\n".encode("utf-8"))
        code = cli_main(["build", "--findings", str(findings), "--crawl", str(crawl),
                         "--out", str(tmp_path / "m.json")])
        assert code == 0
        assert "no crawled resource matches" not in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = cli_main([
            "build", "--findings", "/nonexistent.json",
            "--crawl", str(FIXTURES / "minimal" / "crawl.txt"),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAnalyze:
    def test_teacher_goals_line(self, built, tmp_path, capsys):
        code = cli_main([
            "analyze", "--fsm", str(built["teacher"]),
            "--out", str(tmp_path / "t.report.json"),
        ])
        assert code == 0
        assert "goals reached: 1/1" in capsys.readouterr().out

    def test_empty_findings(self, tmp_path, capsys):
        findings = tmp_path / "empty.json"
        findings.write_text('{"site": "empty", "environment_facts": [], "findings": []}')
        crawl = tmp_path / "crawl.txt"
        crawl.write_text("")
        fsm_path = tmp_path / "empty.fsm.json"
        assert cli_main(["build", "--findings", str(findings),
                         "--crawl", str(crawl), "--out", str(fsm_path)]) == 0
        code = cli_main(["analyze", "--fsm", str(fsm_path),
                         "--out", str(tmp_path / "empty.report.json")])
        assert code == 0
        assert "goals reached: 0/0" in capsys.readouterr().out

    def test_assumptions_change_the_outcome(self, built, tmp_path, capsys):
        code = cli_main([
            "analyze", "--fsm", str(built["vulnweb"]),
            "--assume", CLICK, "--assume", FILL, "--assume", COOKIE,
            "--out", str(tmp_path / "vw.report.json"),
        ])
        assert code == 0
        assert "goals reached: 3/3" in capsys.readouterr().out
        report = json.loads((tmp_path / "vw.report.json").read_text())
        assert len(report["assumptions"]) == 3

    def test_paper_dfs_semantics_accepted(self, built, tmp_path, capsys):
        code = cli_main([
            "analyze", "--fsm", str(built["vulnweb"]),
            "--semantics", "paper-dfs",
            "--out", str(tmp_path / "vw.report.json"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "vw.report.json").read_text())
        assert report["semantics"] == "paper-dfs"

    def test_assumption_leaves_an_ordinary_precondition_missing(self, tmp_path, capsys):
        """``S1`` needs the link clicked as a user action, the goal ``S2``
        needs the same text as an ordinary precondition: assuming it fires
        ``S1`` only, and the report names it as what blocks ``S2``."""
        findings = tmp_path / "findings.json"
        findings.write_text(json.dumps({"site": "s", "environment_facts": [], "findings": [
            {"label": "S1", "vulnerability": "Phishing", "uri": "/a", "preconditions": [
                {"condition": "user clicks link", "requires_user_action": True}]},
            {"label": "S2", "vulnerability": "Takeover", "uri": "/b", "is_goal": True,
             "preconditions": [{"condition": "user clicks link"}]}]}))
        crawl = tmp_path / "crawl.txt"
        crawl.write_text("/a\n/b\n")
        fsm_path, report_path = tmp_path / "s.fsm.json", tmp_path / "s.report.json"
        assert cli_main(["build", "--findings", str(findings),
                         "--crawl", str(crawl), "--out", str(fsm_path)]) == 0
        assert cli_main(["analyze", "--fsm", str(fsm_path), "--assume", "user clicks link",
                         "--out", str(report_path)]) == 0
        assert "goals reached: 0/1" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        (goal,) = report["unreachable_goals"]
        assert goal["label"] == "S2"
        assert goal["missing_conditions"] == ["user clicks link"]

    @pytest.mark.parametrize("command, flag", [
        ("analyze", "--assume"), ("whatif", "--toggle"), ("diff-isolated", "--assume")],
        ids=["analyze", "whatif", "diff-isolated"])
    def test_unknown_assumption_lists_near_matches(self, command, flag, built, tmp_path, capsys):
        code = cli_main([
            command, "--fsm", str(built["vulnweb"]),
            flag, "user clicks the link to the third party web page sent in email",
            *(["--out", str(tmp_path / "x.json")] if command == "analyze" else []),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "did you mean" in captured.err
        assert "user clicks the link" in captured.err


def _set_first_precondition(doc, value):
    doc["states"][3]["preconditions"][0] = value


MALFORMED_MACHINES = {
    "precondition without condition": (
        lambda doc: doc["states"][3]["preconditions"][0].pop("condition"),
        r"states\[3\]\.preconditions\[0\]: missing required field 'condition'"),
    "numeric condition": (
        lambda doc: doc["states"][3]["preconditions"][0].update(condition=5),
        r"states\[3\]\.preconditions\[0\]: field 'condition' must be str"),
    "numeric environment fact": (
        lambda doc: doc["environment_facts"].append(7),
        r"environment_facts\[0\]: value must be str"),
    "numeric uri": (
        lambda doc: doc["states"][3].update(uri=42),
        r"states\[3\]: field 'uri' must be str"),
    "numeric preconditions": (
        lambda doc: doc["states"][3].update(preconditions=3),
        r"states\[3\]: field 'preconditions' must be list"),
    "number inside preconditions": (
        lambda doc: _set_first_precondition(doc, 3),
        r"states\[3\]\.preconditions\[0\]: value must be dict"),
    "repeated precondition": (
        lambda doc: doc["states"][3]["preconditions"].append(
            dict(doc["states"][3]["preconditions"][0])),
        r"states\[3\]: B @ /b1: duplicate precondition condition 'x1'"),
    "repeated postcondition": (
        lambda doc: doc["states"][2]["postconditions"].append(
            dict(doc["states"][2]["postconditions"][1])),
        r"states\[2\]: A @ /a1: duplicate postcondition condition 'x2'"),
    "blank condition and non-bool flag": (
        lambda doc: doc["states"][3]["preconditions"][0].update(
            condition="  ", requires_user_action="yes"),
        r"states\[3\]\.preconditions\[0\]: condition label is empty or whitespace-only"),
    "first-seen blank condition with bool flag": (
        lambda doc: doc["states"][3]["preconditions"][0].update(
            condition="  ", requires_user_action=False),
        r"states\[3\]\.preconditions\[0\]: condition label is empty or whitespace-only"),
    "first-seen lone surrogate condition with bool flag": (
        lambda doc: doc["states"][3]["preconditions"][0].update(
            condition="x\ud800", requires_user_action=True),
        r"states\[3\]\.preconditions\[0\]: field 'condition' contains a lone surrogate"),
    "tampered id": (
        lambda doc: doc["states"][3].update(id="000000000000"),
        r"states\[3\]\.id: id '000000000000' differs from '77a0f1bf1be5'"),
    "same vulnerability and URI under a second id": (
        lambda doc: doc["states"].append(dict(doc["states"][3], id="ffffffffffff")),
        r"states\[5\]\.id: id 'ffffffffffff' differs from '77a0f1bf1be5'"),
    "blank vulnerability": (
        lambda doc: doc["states"][3].update(vulnerability="  "),
        r"states\[3\]: vulnerability name must be non-empty"),
    "verbatim repeated entry": (
        lambda doc: doc["states"].append(doc["states"][3]),
        r"states\[5\]: same vulnerability and URI as states\[3\]"),
    "lone surrogate in vulnerability": (
        lambda doc: doc["states"][3].update(vulnerability="B\ud800"),
        r"states\[3\]: field 'vulnerability' contains a lone surrogate"),
    "lone surrogate in label": (
        lambda doc: doc["states"][3].update(label="\ud800"),
        r"states\[3\]: field 'label' contains a lone surrogate"),
    "lone surrogate in uri": (
        lambda doc: doc["states"][3].update(uri="/b\ud800"),
        r"states\[3\]: field 'uri' contains a lone surrogate"),
    "lone surrogate in source": (
        lambda doc: doc["states"][3].update(source="s\ud800"),
        r"states\[3\]: field 'source' contains a lone surrogate"),
    "numeric is_start 1": (
        lambda doc: doc["states"][3].update(is_start=1),
        r"states\[3\]: field 'is_start' must be bool"),
    "numeric is_start 0": (
        lambda doc: doc["states"][3].update(is_start=0),
        r"states\[3\]: field 'is_start' must be bool"),
    "null is_start": (
        lambda doc: doc["states"][3].update(is_start=None),
        r"states\[3\]: field 'is_start' must be bool"),
    "numeric id": (
        lambda doc: doc["states"][3].update(id=5),
        r"states\[3\]: field 'id' must be str"),
    "null id": (
        lambda doc: doc["states"][3].update(id=None),
        r"states\[3\]: field 'id' must be str"),
    "missing is_start": (
        lambda doc: doc["states"][3].pop("is_start"),
        r"states\[3\]: missing required field 'is_start'"),
    "missing id": (
        lambda doc: doc["states"][3].pop("id"),
        r"states\[3\]: missing required field 'id'"),
    "lone surrogate in id": (
        lambda doc: doc["states"][3].update(id="x\ud800"),
        r"states\[3\]: field 'id' contains a lone surrogate"),
    "float format_version": (
        lambda doc: doc.update(format_version=2.0),
        r"\$: field 'format_version' must be int"),
}


class TestMalformedMachine:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MACHINES))
    def test_exits_1_naming_file_and_path(self, case, built, tmp_path, capsys):
        tamper, message = MALFORMED_MACHINES[case]
        doc = json.loads(built["minimal"].read_text())
        tamper(doc)
        bad = tmp_path / "bad.fsm.json"
        bad.write_text(json.dumps(doc))
        code = cli_main(["analyze", "--fsm", str(bad), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ")
        assert re.search(message, err), err

    def test_version_1_file_exits_1(self, built, tmp_path, capsys):
        doc = json.loads(built["minimal"].read_text())
        doc["format_version"] = 1
        old = tmp_path / "old.fsm.json"
        old.write_text(json.dumps(doc))
        code = cli_main(["analyze", "--fsm", str(old), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{old}: format_version: unsupported format_version 1;" in err


MALFORMED_REPORTS = {
    "labels as a list": (
        lambda doc: doc.update(labels=sorted(doc["labels"].items())),
        r"\$: field 'labels' must be dict"),
    "unknown semantics": (
        lambda doc: doc.update(semantics="bogus"),
        r"semantics: unknown semantics 'bogus'"),
    "numeric semantics": (
        lambda doc: doc.update(semantics=5),
        r"\$: field 'semantics' must be str"),
    "assumptions as a string": (
        lambda doc: doc.update(assumptions="abc"),
        r"\$: field 'assumptions' must be list"),
    "reachable_states as a string": (
        lambda doc: doc.update(reachable_states="start"),
        r"\$: field 'reachable_states' must be list"),
    "unknown top-level field": (
        lambda doc: doc.update(extra=1),
        r"\$: unknown fields: extra"),
    "witness step without grants": (
        lambda doc: doc["witnesses"][0]["steps"][0].pop("grants"),
        r"witnesses\[0\]\.steps\[0\]: missing required field 'grants'"),
    "assumption unknown to the machine": (
        lambda doc: doc.update(assumptions=[CLICK, "no such action"]),
        r"assumptions\[1\]: 'no such action' is not a user-action precondition"),
    "blank assumption": (
        lambda doc: doc.update(assumptions=["  "]),
        r"assumptions\[0\]: condition label is empty or whitespace-only"),
    "boolean format_version": (
        lambda doc: doc.update(format_version=True),
        r"\$: field 'format_version' must be int"),
}


class TestMalformedReport:
    @pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
    def test_exits_1_naming_file_and_path(self, case, built, tmp_path, capsys):
        tamper, message = MALFORMED_REPORTS[case]
        report_path = tmp_path / "vw.report.json"
        assert cli_main(["analyze", "--fsm", str(built["vulnweb"]),
                         "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        tamper(doc)
        bad = tmp_path / "bad.report.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli_main(["export-dot", "--fsm", str(built["vulnweb"]),
                         "--reach", str(bad), "--out", str(tmp_path / "x.dot")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ")
        assert re.search(message, err), err


#: JSON that json.dumps cannot write: nesting deeper than the interpreter's
#: recursion limit, and an integer longer than its int-conversion limit.
OVERSIZED_JSON = {
    "deep nesting": ('{"a": ' * 5000 + "1" + "}" * 5000, "nested too deeply"),
    "long integer": ("1" * 5000, "Exceeds the limit"),
}


class TestOversizedJson:
    @pytest.mark.parametrize("case", sorted(OVERSIZED_JSON))
    @pytest.mark.parametrize("kind", ["findings", "machine", "report"])
    def test_exits_1_naming_file(self, kind, case, built, tmp_path, capsys):
        value, message = OVERSIZED_JSON[case]
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 2, "site": ' + value + "}")
        argv = {
            "findings": ["build", "--findings", str(bad),
                         "--crawl", str(FIXTURES / "minimal" / "crawl.txt")],
            "machine": ["analyze", "--fsm", str(bad)],
            "report": ["export-dot", "--fsm", str(built["minimal"]), "--reach", str(bad)],
        }[kind]
        capsys.readouterr()
        code = cli_main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: not valid JSON: ")
        assert message in err


@pytest.mark.parametrize("kind", ["findings", "machine", "report"])
def test_json_input_that_is_not_an_object_exits_1_naming_file(kind, built, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    argv = {
        "findings": ["build", "--findings", str(bad),
                     "--crawl", str(FIXTURES / "minimal" / "crawl.txt")],
        "machine": ["analyze", "--fsm", str(bad)],
        "report": ["export-dot", "--fsm", str(built["minimal"]), "--reach", str(bad)],
    }[kind]
    capsys.readouterr()
    code = cli_main([*argv, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: top-level value must be an object\n"


@pytest.mark.parametrize("kind", sorted(CLI_INPUTS))
def test_byte_order_mark_is_ignored(kind, tmp_path, capsys):
    """Every command given a vulnweb input that starts with a UTF-8
    byte-order mark gives the same exit code, output file and messages as
    given the file without it."""
    golden, commands = CLI_INPUTS[kind]
    path, out = tmp_path / golden.name, tmp_path / "out"
    for argv in commands:
        runs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(prefix + golden.read_bytes())
            out.unlink(missing_ok=True)
            code = cli_main([a.format(input=path, out=out) for a in argv])
            captured = capsys.readouterr()
            runs.append((code, out.read_bytes() if out.exists() else None, captured.out, captured.err))
        assert runs[0][0] == 0, argv
        assert runs[1] == runs[0], argv


class TestWhatif:
    def test_click_alone(self, built, capsys):
        code = cli_main(["whatif", "--fsm", str(built["vulnweb"]), "--toggle", CLICK])
        out = capsys.readouterr().out
        assert code == 0
        assert "states: +S6" in out
        assert "S7" not in out.split("states:")[1].splitlines()[0]
        assert "goals: (no change)" in out

    def test_click_and_fill(self, built, capsys):
        code = cli_main([
            "whatif", "--fsm", str(built["vulnweb"]),
            "--toggle", CLICK, "--toggle", FILL,
        ])
        out = capsys.readouterr().out
        assert code == 0
        states_line = [ln for ln in out.splitlines() if ln.startswith("states:")][0]
        assert states_line == "states: +S6 +S7"
        assert "goals: +S7" in out

    def test_all_three(self, built, capsys):
        code = cli_main([
            "whatif", "--fsm", str(built["vulnweb"]),
            "--toggle", CLICK, "--toggle", FILL, "--toggle", COOKIE,
        ])
        out = capsys.readouterr().out
        assert code == 0
        states_line = [ln for ln in out.splitlines() if ln.startswith("states:")][0]
        assert states_line == "states: +S6 +S7 +S8"
        assert "goals: +S7" in out

    def test_double_toggle_cancels(self, built, capsys):
        code = cli_main([
            "whatif", "--fsm", str(built["vulnweb"]),
            "--toggle", CLICK, "--toggle", CLICK,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "assumptions: (none)" in out
        assert "states: (no change)" in out


class TestExportDot:
    def test_plain_export(self, built, tmp_path):
        dot_path = tmp_path / "vw.dot"
        assert cli_main(["export-dot", "--fsm", str(built["vulnweb"]),
                         "--out", str(dot_path)]) == 0
        text = dot_path.read_text()
        assert text.startswith("digraph")
        assert text.count("fillcolor=red") == 3

    def test_with_reach_report(self, built, tmp_path):
        report_path = tmp_path / "vw.report.json"
        assert cli_main(["analyze", "--fsm", str(built["vulnweb"]),
                         "--out", str(report_path)]) == 0
        dot_path = tmp_path / "vw.reach.dot"
        assert cli_main(["export-dot", "--fsm", str(built["vulnweb"]),
                         "--reach", str(report_path), "--out", str(dot_path)]) == 0
        assert "bold" in dot_path.read_text()

    def test_report_from_other_machine_rejected(self, built, tmp_path, capsys):
        report_path = tmp_path / "t.report.json"
        assert cli_main(["analyze", "--fsm", str(built["teacher"]),
                         "--out", str(report_path)]) == 0
        capsys.readouterr()
        code = cli_main(["export-dot", "--fsm", str(built["vulnweb"]),
                         "--reach", str(report_path), "--out", str(tmp_path / "x.dot")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {report_path}: reachable_states: report does not match this machine\n")


class TestDiffIsolated:
    def test_teacher_table(self, built, capsys):
        code = cli_main(["diff-isolated", "--fsm", str(built["teacher"])])
        out = capsys.readouterr().out
        assert code == 0
        assert "isolated goals: (none)" in out
        assert "chained goals: S7" in out
        assert "chaining-only goals: S7" in out

    def test_vulnweb_with_assumptions(self, built, capsys):
        code = cli_main([
            "diff-isolated", "--fsm", str(built["vulnweb"]),
            "--assume", CLICK, "--assume", FILL, "--assume", COOKIE,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "isolated goals: (none)" in out
        assert "chained goals: S10 S4 S7" in out


#: Subcommand arguments after ``--fsm`` -> the whole error line.
BAD_ASSUMPTION_ARGS = {
    "analyze blank": (
        ["analyze", "--assume", "", "--out", "r.json"],
        "--assume[0]: condition label is empty or whitespace-only"),
    "analyze unknown": (
        ["analyze", "--assume", CLICK, "--assume", "nope", "--out", "r.json"],
        "--assume[1]: 'nope' is not a user-action precondition of any state"),
    "whatif blank": (
        ["whatif", "--toggle", "  "],
        "--toggle[0]: condition label is empty or whitespace-only"),
    "whatif unknown": (
        ["whatif", "--toggle", CLICK, "--toggle", "nope"],
        "--toggle[1]: 'nope' is not a user-action precondition of any state"),
    "diff-isolated blank": (
        ["diff-isolated", "--assume", ""],
        "--assume[0]: condition label is empty or whitespace-only"),
    "diff-isolated unknown": (
        ["diff-isolated", "--assume", "nope"],
        "--assume[0]: 'nope' is not a user-action precondition of any state"),
}


class TestAssumptionArguments:
    @pytest.mark.parametrize("case", sorted(BAD_ASSUMPTION_ARGS))
    def test_error_names_the_argument(self, case, built, tmp_path, monkeypatch, capsys):
        args, message = BAD_ASSUMPTION_ARGS[case]
        monkeypatch.chdir(tmp_path)
        code = cli_main([args[0], "--fsm", str(built["vulnweb"]), *args[1:]])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert cli_main(["analyze", "--bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_missing_required_exits_1(self, capsys):
        assert cli_main(["build", "--findings", "x"]) == 1

    def test_help_exits_0(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "vulnchain" in capsys.readouterr().out


class TestStartUp:
    def test_importing_the_cli_leaves_difflib_unloaded(self):
        # difflib only builds the near-match hint of an error.
        src = str(FIXTURES.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, vulnchain.cli; print('difflib' in sys.modules)"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


#: Runs ``main()`` on ``argv[1:]`` in a fresh interpreter and prints its
#: exit status and the number of full (generation 2) collections it ran.
COUNT_FULL_COLLECTIONS = """
import gc, sys
from vulnchain.cli import main
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info["generation"]))
sys.argv = ["vulnchain", *sys.argv[1:]]
try:
    main()
except SystemExit as exc:
    print(exc.code, starts.count(2))
"""


class TestCyclicCollector:
    def test_main_runs_no_full_collection(self, tmp_path):
        """A 6,000-state chain is large enough that ``analyze`` with the
        collector on runs full collections; ``main()`` turns it off."""
        states = [AttackState(f"V{i}", normalize_uri(f"/p{i}"),
                              (PreconditionRef(normalize_condition(f"c{i}")),),
                              (PostconditionRef(normalize_condition(f"c{i + 1}")),),
                              is_goal=i % 1000 == 999)
                  for i in range(6_000)]
        machine = tmp_path / "chain.fsm.json"
        machine.write_text(fsm_to_json(Fsm("chain", states, [normalize_condition("c0")])))
        proc = subprocess.run(
            [sys.executable, "-c", COUNT_FULL_COLLECTIONS, "analyze", "--fsm", str(machine),
             "--out", str(tmp_path / "report.json")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 0"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_cli_main_leaves_the_collector_as_it_found_it(self, built, tmp_path, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = cli_main(["analyze", "--fsm", str(built["vulnweb"]),
                             "--out", str(tmp_path / "report.json")])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert code == 0


class TestAnalyzeFixturesScript:
    def test_writes_every_artifact(self, tmp_path):
        script = FIXTURES.parent / "scripts" / "analyze_fixtures.py"
        proc = subprocess.run([sys.executable, str(script), "--out-dir", str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{name}.{ext}" for name in ("minimal", "vulnweb", "teacher")
            for ext in ("fsm.json", "report.json", "dot"))
        assert "goals reached by chaining: S10 S4 S7" in proc.stdout
        assert "chaining-only goals: S7" in proc.stdout
        assert "witness for S7: S2 -> S5 -> S6 -> S7\n" in proc.stdout
        # The script grants every user action, as the CLI golden runs do
        # with --assume, so each file equals the CLI's byte for byte.
        golden = Path(__file__).resolve().parent / "golden"
        for name in ("minimal", "vulnweb", "teacher"):
            for ext, expected in (("fsm.json", "machine.json"),
                                  ("report.json", "report.assumed.json"),
                                  ("dot", "machine.reach.dot")):
                assert ((tmp_path / f"{name}.{ext}").read_bytes()
                        == (golden / name / expected).read_bytes()), f"{name}.{ext}"
