"""The golden corpus: CLI runs whose exit code, stdout, stderr and written files are pinned.

Each directory under ``tests/golden/corpus/`` is one entry.  Its ``run.json`` holds

- ``argv``: the arguments after ``python -m specapprox.cli``; ``{golden}`` stands for
  ``tests/golden``, so an entry can read a checked-in file in place;
- ``inputs``: the files the run finds in its working directory, each a JSON value
  (a string is written as it is);
- ``envs`` (optional): the environments it runs under, each added to the inherited one;
  every run of the entry must give the same bytes;
- ``lapack`` (optional): set where the numbers pass through LAPACK (eigensolvers, and
  ``np.polyfit``'s least squares in ``dimension``).

The expected results sit beside it: ``exit``, ``stdout``, ``stderr``, and under ``files/``
every file the run writes.  A refused run has no ``files/``, which pins that it writes none.
``measure-cantor`` is the configuration of acceptance criterion 10, and its ``files/`` are
links to ``tests/golden/criterion10.*``.

Each run is a subprocess in a fresh directory, so the exit code is the process's own.
Set models, ``hausdorff`` and refusals use elementwise IEEE arithmetic only: their bytes
are pinned.  LAPACK picks its kernels per CPU, so its last digits are not portable: a
``lapack`` entry pins its structure exactly (lines, keys, every token that is not a
number, and how many numbers) and each number to ``|a - b| <= ABS_TOL + REL_TOL * |b|``.
That tolerance has been checked on one machine only.

``python tests/test_golden.py`` rewrites every expected file from the current code.  A change
that rewrites any of them lists each one, with its reason, in ``CHANGES.md``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus"
SRC = GOLDEN.parent.parent / "src"

ABS_TOL, REL_TOL = 1e-12, 1e-9
# a decimal number standing alone, not the digits of a name such as criterion10
NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")

ENTRIES = sorted(p.name for p in CORPUS.iterdir() if (p / "run.json").exists())


def _spec(name: str) -> dict:
    return json.loads((CORPUS / name / "run.json").read_text())


def run(name: str, env: dict) -> dict:
    """The results of entry ``name`` under ``env``: exit, stdout, stderr and files/<name>, as bytes."""
    spec = _spec(name)
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in spec["argv"]]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    inputs = spec.get("inputs", {})
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for file, content in inputs.items():
            (work / file).write_text(content if isinstance(content, str) else json.dumps(content))
        proc = subprocess.run(
            [sys.executable, "-m", "specapprox.cli", *argv],
            cwd=work,
            env={**os.environ, "PYTHONPATH": path, **env},
            capture_output=True,
            timeout=120,
        )
        written = {f"files/{p.name}": p.read_bytes() for p in sorted(work.iterdir()) if p.name not in inputs}
    return {"exit": f"{proc.returncode}\n".encode(), "stdout": proc.stdout, "stderr": proc.stderr, **written}


def expected(name: str) -> dict:
    entry = CORPUS / name
    out = {key: (entry / key).read_bytes() for key in ("exit", "stdout", "stderr")}
    files = entry / "files"
    return out | ({f"files/{p.name}": p.read_bytes() for p in sorted(files.iterdir())} if files.exists() else {})


def assert_close(actual: bytes, wanted: bytes, where: str) -> None:
    """Same text between the numbers, and each number within ABS_TOL + REL_TOL * |expected|."""
    a, b = actual.decode(), wanted.decode()
    assert NUMBER.split(a) == NUMBER.split(b), f"{where}: structure differs"
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert abs(float(x) - float(y)) <= ABS_TOL + REL_TOL * abs(float(y)), f"{where}: number {i} is {x}, not {y}"


@pytest.mark.parametrize("name", ENTRIES)
def test_entry(name):
    spec = _spec(name)
    first, *others = [run(name, env) for env in spec.get("envs", [{}])]
    for other in others:
        assert other == first, f"{name}: the bytes depend on the environment"
    want = expected(name)
    assert sorted(first) == sorted(want), f"{name}: written files differ"
    for key, wanted in want.items():
        if spec.get("lapack"):
            assert_close(first[key], wanted, f"{name}/{key}")
        else:
            assert first[key] == wanted, f"{name}/{key} differs"


def regenerate() -> None:
    """Rewrite every entry's expected files from a run under its first environment.
    A file that is a link is written through it, so criterion 10's files stay where they are."""
    for name in ENTRIES:
        entry, files = CORPUS / name, CORPUS / name / "files"
        results = run(name, _spec(name).get("envs", [{}])[0])
        for old in files.glob("*"):
            if f"files/{old.name}" not in results:
                old.unlink()
        for key, content in results.items():
            (entry / key).parent.mkdir(exist_ok=True)
            (entry / key).write_bytes(content)
        if files.exists() and not any(files.iterdir()):
            files.rmdir()
        print(f"{name}: exit {results['exit'].decode().strip()}, {len(results) - 3} file(s)")


if __name__ == "__main__":
    regenerate()
