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


def test_corpus_count_matches_corpus():
    # an entry is a directory with a run.json, as tests/test_golden.py finds them
    stated = re.search(r"runs the golden corpus: (\d+) CLI runs", README.read_text())
    corpus = README.parent / "tests" / "golden" / "corpus"
    assert stated is not None
    assert int(stated.group(1)) == sum(1 for entry in corpus.iterdir() if (entry / "run.json").exists())
