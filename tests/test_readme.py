"""The README's library examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def test_library_use_examples_run(monkeypatch, capsys):
    blocks = _library_use_blocks()
    assert blocks, "no python block in the README's Library use section"
    # The examples open fixture files by paths relative to the repo root.
    monkeypatch.chdir(README.parent)
    for i, block in enumerate(blocks):
        # ``my_states`` stands for the reader's own hand-built states.
        exec(compile(block, f"README.md, Library use block {i}", "exec"), {"my_states": ()})
    assert capsys.readouterr().out
