"""README.md's library quickstart runs as written against the public API."""

import re
from pathlib import Path

import fracq

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_quickstart_runs_and_every_export_resolves(capsys):
    # a stale export of a deleted name fails here
    missing = [name for name in fracq.__all__ if not hasattr(fracq, name)]
    assert missing == []
    exec(compile(quickstart_block(), str(README), "exec"), {"__name__": "readme_quickstart"})
    assert "[PASS] lln" in capsys.readouterr().out
