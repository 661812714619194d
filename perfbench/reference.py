"""Run one CLI sequence in a fresh process and print its timing as JSON.

Usage: python3 perfbench/reference.py WORKDIR PLAN_JSON

PLAN_JSON holds ``{"argvs": [[...], ...], "outputs": [...]}``.  The caller
sets the thread environment (for example ``OPENBLAS_NUM_THREADS=1``)
before this process starts, which is the only way to change the BLAS
thread count.  Output files stay in WORKDIR for the caller to check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from runner import import_package, run_sequence


def main(argv: list[str]) -> int:
    workdir, plan_path = Path(argv[0]), Path(argv[1])
    plan = json.loads(plan_path.read_text())
    _, modules = import_package()
    res = run_sequence(modules, plan["argvs"], plan["outputs"], workdir)
    print(json.dumps({"wall_s": res.wall_s, "cpu_s": res.cpu_s, "rcs": res.rcs, "stdouts": res.stdouts}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
