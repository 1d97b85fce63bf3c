"""Byte-for-byte goldens for the machine, report and DOT outputs of every fixture.

Each fixture is built (the machine file and the warnings ``build`` prints to
stderr are kept), analyzed with no assumptions and with every user-action
condition assumed, and exported to DOT with and without the all-assumed
report, all through ``cli_main``. The files under ``tests/golden/<fixture>/``
must match exactly.
"""

import json
from pathlib import Path

import pytest

from vulnchain import fsm_from_json, fsm_to_json
from vulnchain.cli import cli_main

from tests.helpers import FIXTURES, load_fsm

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURE_NAMES = ("minimal", "vulnweb", "teacher")


def render(name: str, work: Path, capsys) -> dict[str, bytes]:
    """Every golden output of one fixture, keyed by golden file name."""
    fsm_path = work / "machine.json"
    capsys.readouterr()
    assert cli_main([
        "build",
        "--findings", str(FIXTURES / name / "findings.json"),
        "--crawl", str(FIXTURES / name / "crawl.txt"),
        "--out", str(fsm_path),
    ]) == 0
    out = {
        "build.stderr": capsys.readouterr().err.encode("utf-8"),
        "machine.json": fsm_path.read_bytes(),
    }
    assumed = sorted(fsm_from_json(fsm_path.read_bytes()).user_action_condition_ids)
    assume_args = [arg for cid in assumed for arg in ("--assume", cid)]
    commands = {
        "report.json": ["analyze", "--fsm", str(fsm_path)],
        "report.assumed.json": ["analyze", "--fsm", str(fsm_path), *assume_args],
        "machine.dot": ["export-dot", "--fsm", str(fsm_path)],
        "machine.reach.dot": ["export-dot", "--fsm", str(fsm_path),
                              "--reach", str(work / "report.assumed.json")],
    }
    for filename, argv in commands.items():
        assert cli_main([*argv, "--out", str(work / filename)]) == 0
        out[filename] = (work / filename).read_bytes()
    return out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_outputs_match_goldens(name, tmp_path, capsys):
    rendered = render(name, tmp_path, capsys)
    capsys.readouterr()
    for filename, data in rendered.items():
        expected = (GOLDEN / name / filename).read_bytes()
        assert data == expected, f"{name}/{filename} differs from its golden"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_indented_machine_loads_and_resaves_to_the_golden(name):
    """Whitespace carries no meaning in the machine file: the golden
    re-dumped with indentation loads to the same machine and saves back to
    the golden's bytes."""
    golden = (GOLDEN / name / "machine.json").read_text(encoding="utf-8")
    indented = json.dumps(json.loads(golden), indent=2, sort_keys=True) + "\n"
    loaded = fsm_from_json(indented)
    assert loaded == fsm_from_json(golden)
    assert fsm_to_json(loaded) == golden


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_loaded_machine_reports_the_build_warnings(name):
    """The content warnings are derived from the states, so a saved and
    reloaded machine lists every line that ``build`` printed."""
    fsm = load_fsm(name)
    loaded = fsm_from_json(fsm_to_json(fsm))
    assert loaded.warnings == fsm.warnings
    printed = "".join(f"warning: {w}\n" for w in loaded.warnings)
    assert printed == (GOLDEN / name / "build.stderr").read_text(encoding="utf-8")
