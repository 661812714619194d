"""Run a workload's CLI sequence in this process and time it.

The package is imported from ``src/`` of the checkout that holds this
directory, never from an installed copy.  Each CLI call goes through
``specapprox.cli.main`` with stdout captured; process-level caches of the
package are cleared before every call, because from a shell every call
starts in a fresh process.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """``(specapprox, {layer: module})`` imported from the checkout's sources."""
    if not (SRC / "specapprox" / "__init__.py").is_file():
        raise SystemExit(f"error: no specapprox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("specapprox")
    if Path(package.__file__).resolve().parent != SRC / "specapprox":
        raise SystemExit(f"error: specapprox imported from {package.__file__}, not from {SRC}")
    return package, {layer: importlib.import_module(f"specapprox.{layer}") for layer in LAYERS}


def clear_caches(modules: dict) -> None:
    for mod in modules.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@dataclass
class SequenceResult:
    wall_s: float
    cpu_s: float
    rcs: list[int]
    stdouts: list[str]
    outputs: dict[str, bytes]
    traced: bool = False


def run_sequence(modules: dict, argvs: list[list[str]], outputs: list[str], workdir: Path) -> SequenceResult:
    """Run the CLI calls in ``workdir``; wall and CPU time cover the calls only."""
    for name in outputs:
        (workdir / name).unlink(missing_ok=True)
    gc.collect()
    wall = cpu = 0.0
    rcs, stdouts = [], []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in argvs:
            clear_caches(modules)
            buf = io.StringIO()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = modules["cli"].main(list(argv))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = -1
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            rcs.append(rc)
            stdouts.append(buf.getvalue())
    finally:
        os.chdir(previous)
    files = {}
    for name in outputs:
        path = workdir / name
        files[name] = path.read_bytes() if path.is_file() else b""
    return SequenceResult(wall, cpu, rcs, stdouts, files)
