"""The README's examples run against the current API and CLI."""

import re
import shlex
from pathlib import Path

from vulnchain.cli import cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_use_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", _section("Library use"), re.S | re.M)


def test_library_use_examples_run(monkeypatch, capsys):
    blocks = _library_use_blocks()
    assert blocks, "no python block in the README's Library use section"
    # The examples open fixture files by paths relative to the repo root.
    monkeypatch.chdir(README.parent)
    for i, block in enumerate(blocks):
        # ``my_states`` stands for the reader's own hand-built states.
        exec(compile(block, f"README.md, Library use block {i}", "exec"), {"my_states": ()})
    assert capsys.readouterr().out


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """Each ``vulnchain`` command of the Command line block exits 0, and a
    comment right after a command is a line that command prints."""
    (block,) = re.findall(r"^```sh\n(.*?)^```$", _section("Command line"), re.S | re.M)
    lines = block.replace("\\\n", " ").splitlines()
    # The commands read the fixtures by paths relative to the repo root and
    # write their files in the working directory.
    (tmp_path / "fixtures").symlink_to(README.parent / "fixtures")
    monkeypatch.chdir(tmp_path)
    commands = printed = 0
    out = None
    for line in lines:
        if line.startswith("vulnchain "):
            argv = shlex.split(line)[1:]
            assert cli_main(argv) == 0, line
            out = capsys.readouterr().out.splitlines()
            commands += 1
        elif line.startswith("# ") and out is not None:
            assert line[2:] in out, (line, out)
            printed += 1
        else:
            out = None
    assert (commands, printed) == (6, 1)
