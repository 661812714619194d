"""The Python examples of README.md run as written, so a renamed or deleted
public name cannot leave them stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert "True" in capsys.readouterr().out.splitlines()
