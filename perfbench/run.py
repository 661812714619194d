"""specapprox benchmark: run one workload (or all) and report its metrics.

Usage:
    python3 perfbench/run.py --workload {cantor,fib-proxy,bands-2d,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this directory.  Each workload is a closed loop with one client:
its CLI sequence (see ``workloads.py``) runs again and again in this
process until the next repeat would overrun ``--seconds``.  Every call's
output is checked after the timed loop.

``--trace 0`` reports the end-to-end metrics: median wall and CPU time of
one sequence, peak resident memory, set-up time (fresh interpreter until
``specapprox.cli`` is imported, median of several) and the share of calls
that succeeded.  ``--trace 1`` alternates untraced and traced sequences,
reports per-layer figures from the traced sequence of median wall time,
and times the sequence once more in fresh processes with
``OPENBLAS_NUM_THREADS=1``, with and without ``SPECAPPROX_THREADS=nproc``.

The last line of stdout is the JSON result.  A fuller record with
provenance goes to ``.perfbench_out/`` in the checkout, next to the spans
of the traced run.
"""

from __future__ import annotations

import os

# The workloads run under the default thread environment: no worker pool
# and no BLAS override.  BLAS reads these when numpy is imported, so they
# are cleared before that; the inherited values go into the record.
THREAD_VARS = ("SPECAPPROX_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_ENV = {name: os.environ.pop(name, None) for name in THREAD_VARS}

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from runner import ROOT, SRC, SequenceResult, import_package, run_sequence  # noqa: E402
from spans import KERNEL, LAYERS, Tracer, summarize  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))

# -- provenance -----------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "specapprox").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_config() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {key: deps.get(key, {}) for key in ("blas", "lapack")}


def provenance(package, workload: workloads.Workload) -> dict:
    return {
        "specapprox_version": getattr(package, "__version__", None),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "config_sha256": workload.config_digests(),
        "numpy_version": np.__version__,
        "blas": blas_config(),
        "inherited_env": INHERITED_ENV,
        "run_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": NPROC,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": workload.seed,
        "params": workload.params,
    }


# -- measurements ---------------------------------------------------------


def setup_time() -> float:
    """Median wall time of a fresh interpreter importing ``specapprox.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import specapprox.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        if i:  # the first start also warms the byte-code and file caches
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_run(workload: workloads.Workload, workdir: Path, extra_env: dict) -> tuple[SequenceResult, dict]:
    """The sequence in a fresh process under ``extra_env``; outputs stay in ``workdir``."""
    workdir.mkdir(parents=True)
    for name, data in workload.inputs.items():
        (workdir / name).write_bytes(data)
    plan = workdir / "plan.json"
    plan.write_text(json.dumps({"argvs": [c.argv for c in workload.calls], "outputs": _outputs(workload)}))
    env = dict(os.environ, **extra_env)
    n = len(workload.calls)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("reference.py")), str(workdir), str(plan)],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    except subprocess.TimeoutExpired:
        return SequenceResult(0.0, 0.0, [-1] * n, [""] * n, {}), extra_env
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return SequenceResult(0.0, 0.0, [proc.returncode or -1] * n, [""] * n, {}), extra_env
    out = json.loads(lines[-1])
    files = {name: (workdir / name).read_bytes() if (workdir / name).is_file() else b"" for name in _outputs(workload)}
    return SequenceResult(out["wall_s"], out["cpu_s"], out["rcs"], out["stdouts"], files), extra_env


def _outputs(workload: workloads.Workload) -> list[str]:
    return [name for call in workload.calls for name in call.outputs]


def check_sequences(workload: workloads.Workload, sequences: list[SequenceResult], identical: int) -> list[str]:
    """One message per failed call.

    Every call must exit 0 and pass its check.  The first ``identical``
    sequences ran in this process and must also reproduce the first one's
    stdout and files byte for byte.
    """
    failures = []
    first = sequences[0]
    for s, seq in enumerate(sequences):
        for k, call in enumerate(workload.calls):
            where = f"{workload.name} sequence {s} call {' '.join(call.argv)}"
            if seq.rcs[k] != 0:
                failures.append(f"{where}: exit code {seq.rcs[k]}")
                continue
            files = {name: seq.outputs.get(name, b"") for name in call.outputs}
            try:
                msg = call.check(seq.stdouts[k], files)
            except Exception as e:  # a malformed output is a failed check
                msg = f"check raised {type(e).__name__}: {e}"
            if msg is None and s < identical:
                same = seq.stdouts[k] == first.stdouts[k] and all(
                    files[name] == first.outputs.get(name) for name in call.outputs
                )
                msg = None if same else "output differs from the first sequence"
            if msg is not None:
                failures.append(f"{where}: {msg}")
    return failures


def layer_metrics(summary: dict, traced_wall: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced sequence's summary."""
    inc, calls, counters = summary["inclusive"], summary["name_calls"], summary["counters"]

    def incl(*names):
        return sum(inc.get(n, 0.0) for n in names)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = summary["self"].get(layer, 0.0)
        m[f"{layer}.calls"] = summary["calls"].get(layer, 0)
    for name in ("normalize", "fatten", "lebesgue", "set_from_obj", "hausdorff_distance"):
        m[f"intervals.{name}.s"] = incl(f"intervals.{name}")
    m["intervals.normalize.items_in"] = counters.get("intervals.normalize.items_in", 0)
    m["intervals.hausdorff_distance.calls"] = calls.get("intervals.hausdorff_distance", 0)
    m["intervals.hausdorff_distance.components_in"] = counters.get("intervals.hausdorff_distance.components_in", 0)
    for name in ("measure", "fattened_measure_sequence", "corollary_criterion"):
        m[f"convergence.{name}.s"] = incl(f"convergence.{name}")
    m["convergence.write.s"] = incl(
        "convergence.ConvergenceReport.write_csv", "convergence.ConvergenceReport.write_json"
    )
    m["convergence.write.bytes"] = counters.get("convergence.write.bytes", 0)
    for name in (
        "band_spectrum",
        "fiber_eigenvalues",
        "build_fiber",
        "proxy_deltas",
        "cover_from_eigenvalues",
        "cover_from_bands",
    ):
        m[f"floquet.{name}.s"] = incl(f"floquet.{name}")
    m[KERNEL + ".s"] = summary["self"].get(KERNEL, 0.0)
    for name in ("calls", "matrices", "max_n", "flops_computed", "bytes_computed"):
        m[f"{KERNEL}.{name}"] = counters.get(f"{KERNEL}.{name}", 0)
    kernel_wall = counters.get(KERNEL + ".wall", 0.0)
    m[KERNEL + ".cpu_per_wall"] = counters.get(KERNEL + ".cpu", 0.0) / kernel_wall if kernel_wall > 0 else 0.0
    m["models.cantor_approximation.s"] = incl("models.cantor_approximation")
    m["models.fibonacci_potential.s"] = incl("models.fibonacci_potential")
    m["dimension.from_csv.s"] = incl("dimension.CoverStats.from_csv")
    m["dimension.fit.s"] = incl("dimension.dim_bound_last", "dimension.dim_bound_direct")
    m["trace.wall_s"] = traced_wall
    m["trace.self_sum_s"] = sum(summary["self"].values())
    return m


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit for ``end_to_end`` and ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


# -- one workload ---------------------------------------------------------


def timed_loop(seconds: float, body) -> None:
    """Call ``body`` (which returns its own duration) until another call would overrun."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        longest = max(longest, body())
        if time.perf_counter() - start + longest > seconds:
            return


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, package, modules: dict, units: dict[str, str]
) -> tuple[dict, dict]:
    workload = workloads.make(name, seed)
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for fname, data in workload.inputs.items():
            (workdir / fname).write_bytes(data)
        argvs = [c.argv for c in workload.calls]
        outputs = _outputs(workload)
        local: list[SequenceResult] = []  # every repeat run in this process, in order
        traces: list = []  # (names, spans, counters, wall_s) per traced repeat
        refs: list = []  # (result, env) of the fresh-process references
        metrics: dict = {}

        def sequence(traced: bool) -> SequenceResult:
            if not traced:
                return run_sequence(modules, argvs, outputs, workdir)
            tracer = Tracer()
            tracer.install(package, modules)
            try:
                res = run_sequence(modules, argvs, outputs, workdir)
            finally:
                tracer.uninstall()
            res.traced = True
            traces.append((tracer.names, *tracer.take(), res.wall_s))
            return res

        if not trace:
            metrics["setup_s"] = setup_time()

            def body():
                local.append(sequence(False))
                if len(local) == 1:
                    # a CLI call runs in a fresh process, so its peak is the first sequence's;
                    # later repeats only add allocator fragmentation
                    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                return local[-1].wall_s

            timed_loop(seconds, body)
        else:

            def body():
                t0 = time.perf_counter()
                order = (False, True) if len(local) % 4 == 0 else (True, False)
                for traced in order:
                    local.append(sequence(traced))
                pair = time.perf_counter() - t0
                if not refs:
                    single = {"OPENBLAS_NUM_THREADS": "1"}
                    refs.append(reference_run(workload, workdir / "ref-blas1", single))
                    pool = dict(single, SPECAPPROX_THREADS=str(NPROC))
                    refs.append(reference_run(workload, workdir / "ref-blas1-pool", pool))
                return pair

            timed_loop(seconds, body)

        failures = check_sequences(workload, local + [r[0] for r in refs], identical=len(local))
        attempted = len(workload.calls) * (len(local) + len(refs))
        failed = len(failures)
        if not trace:
            metrics["wall_s"] = statistics.median(s.wall_s for s in local)
            metrics["cpu_s"] = statistics.median(s.cpu_s for s in local)
            metrics["ok_frac"] = (attempted - failed) / attempted
        else:
            traced_runs = sorted(traces, key=lambda t: t[-1])
            names, spans, counters, traced_wall = traced_runs[(len(traced_runs) - 1) // 2]
            metrics.update(layer_metrics(summarize(names, spans, counters), traced_wall))
            untraced = statistics.median(s.wall_s for s in local if not s.traced)
            metrics["trace.untraced_wall_s"] = untraced
            metrics["trace.overhead_s"] = statistics.median(t[-1] for t in traces) - untraced
            for (res, _env), label in zip(refs, ("ref.blas1", "ref.blas1_pool")):
                metrics[f"{label}.wall_s"] = res.wall_s
                metrics[f"{label}.cpu_s"] = res.cpu_s
            write_spans(name, seed, traces)

        if metrics.keys() != units.keys():
            raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} disagree with BENCHMARK.json")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "provenance": provenance(package, workload),
            "sequences": [
                {"wall_s": s.wall_s, "cpu_s": s.cpu_s, "traced": s.traced, "rcs": s.rcs} for s in local
            ],
            "references": [{"env": env, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "rcs": r.rcs} for r, env in refs],
            "failures": failures,
            "result": result,
        }
        for msg in failures:
            print(f"FAILED {msg}", file=sys.stderr)
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_spans(name: str, seed: int, traces: list) -> None:
    """All traced sequences of the run: spans as [name, start_s, end_s, parent]."""
    out = []
    for names, spans, counters, wall in traces:
        t0 = spans[0][1] if spans else 0.0
        out.append(
            {
                "wall_s": wall,
                "counters": counters,
                "spans": [[names[n], s - t0, e - t0, p] for n, s, e, p in spans],
            }
        )
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{name}-seed{seed}.json", "w") as fh:
        json.dump(out, fh)


def print_table(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for key, m in result["metrics"].items():
        print(f"  {key:<45} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package, modules = import_package()
    units = declared_units()["per_layer" if args.trace else "end_to_end"]

    if args.workload != "all":
        result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), package, modules, units)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        print_table(args.workload, result)
        print(json.dumps(result))
        return 0
    # each workload in its own process, so that peak memory is its own
    results = {}
    for name in workloads.NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
