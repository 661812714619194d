"""Tests of the benchmark itself: tracing is transparent, checks have teeth.

Run with ``python3 -m pytest perfbench -q`` from the checkout root.  Each
workload runs once untraced and once traced at full size (about a minute).
"""

from __future__ import annotations

import csv
import inspect
import io
import json

import numpy as np
import pytest

import workloads
from runner import import_package, run_sequence
from spans import LAYERS, Tracer, summarize

PACKAGE, MODULES = import_package()


def _owners():
    owners = [PACKAGE, *(MODULES[layer] for layer in LAYERS)]
    for layer in LAYERS:
        mod = MODULES[layer]
        owners += [c for c in vars(mod).values() if inspect.isclass(c) and c.__module__ == mod.__name__]
    return owners


def _snapshot():
    snap = {id(o): dict(vars(o)) for o in _owners()}
    snap["eigvalsh"] = np.linalg.eigvalsh
    return snap


def test_uninstall_leaves_no_patched_name():
    before = _snapshot()
    tracer = Tracer()
    tracer.install(PACKAGE, MODULES)
    try:
        assert MODULES["floquet"].hausdorff_distance is not before[id(MODULES["floquet"])]["hausdorff_distance"]
        assert np.linalg.eigvalsh is not before["eigvalsh"]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after["eigvalsh"] is before["eigvalsh"]
    for owner in _owners():
        old, new = before[id(owner)], after[id(owner)]
        assert old.keys() == new.keys()
        changed = [k for k in old if old[k] is not new[k]]
        assert not changed, f"{owner.__name__}: {changed}"


def test_every_public_function_is_traced_under_every_name():
    originals = {}
    for layer in LAYERS:
        mod = MODULES[layer]
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                originals[id(obj)] = f"{layer}.{name}"
    assert "floquet.proxy_deltas" in originals.values()
    tracer = Tracer()
    tracer.install(PACKAGE, MODULES)
    try:
        untraced = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner in (PACKAGE, *(MODULES[layer] for layer in LAYERS))
            for name, obj in vars(owner).items()
            if id(obj) in originals
        ]
    finally:
        tracer.uninstall()
    assert untraced == []


@pytest.fixture(scope="module", params=workloads.NAMES)
def pair(request, tmp_path_factory):
    """(workload, untraced result, traced result, trace summary) at seed 3."""
    w = workloads.make(request.param, 3)
    argvs = [c.argv for c in w.calls]
    outputs = [name for c in w.calls for name in c.outputs]
    results = []
    summary = None
    for traced in (False, True):
        workdir = tmp_path_factory.mktemp(f"{w.name}-{int(traced)}")
        for fname, data in w.inputs.items():
            (workdir / fname).write_bytes(data)
        tracer = Tracer()
        if traced:
            tracer.install(PACKAGE, MODULES)
        try:
            results.append(run_sequence(MODULES, argvs, outputs, workdir))
        finally:
            tracer.uninstall()
        if traced:
            summary = summarize(tracer.names, *tracer.take())
    return w, results[0], results[1], summary


def test_outputs_pass_checks_and_are_byte_identical_with_tracing(pair):
    w, plain, traced, _ = pair
    assert plain.rcs == traced.rcs == [0] * len(w.calls)
    assert plain.stdouts == traced.stdouts
    assert plain.outputs.keys() == traced.outputs.keys()
    for name in plain.outputs:
        assert plain.outputs[name] == traced.outputs[name], name
    for k, call in enumerate(w.calls):
        files = {name: plain.outputs[name] for name in call.outputs}
        assert call.check(plain.stdouts[k], files) is None


def test_layer_self_times_sum_to_traced_wall(pair):
    w, _, traced, summary = pair
    assert summary["calls"]["cli"] >= len(w.calls)
    assert sum(summary["self"].values()) == pytest.approx(summary["root_s"], rel=1e-9)
    assert summary["root_s"] <= traced.wall_s
    assert traced.wall_s - summary["root_s"] < 0.01 * traced.wall_s


def _scale_csv(data: bytes, row: int, column: str, factor: float) -> bytes:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    rows[row][column] = repr(float(rows[row][column]) * factor)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue().encode()


def _shift_bands(files: dict, by: float) -> dict:
    report = json.loads(files["bands_report.json"])
    report["bands"] = [[lo + by, hi + by] for lo, hi in report["bands"]]
    rows = "".join(f"{i},{lo!r},{hi!r},{hi - lo!r}\r\n" for i, (lo, hi) in enumerate(report["bands"]))
    return {"bands_report.json": json.dumps(report).encode(), "bands.csv": b"i,lo,hi,width\r\n" + rows.encode()}


def _wrong_outputs(w: workloads.Workload, stdouts: list[str], outputs: dict):
    """(call index, stdout, files) triples that a correct check must reject."""
    if w.name == "cantor":
        yield 0, stdouts[0], dict(outputs, **{"cantor.csv": _scale_csv(outputs["cantor.csv"], 9, "mu_raw", 1.001)})
        yield 1, "bound: 0.7\nresidual: 0\n", {}
        yield 3, f"{3.0 ** -min(workloads.CANTOR_HAUSDORFF) / 2:.12g}\n", {}
    elif w.name == "fib-proxy":
        row = w.params["spot_levels"][0] - 1
        yield 0, stdouts[0], dict(outputs, **{"fib.csv": _scale_csv(outputs["fib.csv"], row, "mu_raw", 1.001)})
        yield 0, stdouts[0], dict(outputs, **{"fib.csv": _scale_csv(outputs["fib.csv"], row, "delta", 1.001)})
    else:
        yield 0, stdouts[0], _shift_bands(outputs, 1.0)
        yield 0, stdouts[0].replace("violations: 0", "violations: 3"), outputs


def test_checks_pass_a_rebuilt_output_and_reject_wrong_ones(pair):
    w, plain, _, _ = pair
    if w.name == "bands-2d":
        assert w.calls[0].check(plain.stdouts[0], _shift_bands(plain.outputs, 0.0)) is None
    for k, stdout, files in _wrong_outputs(w, plain.stdouts, plain.outputs):
        call = w.calls[k]
        assert call.check(stdout, {name: files[name] for name in call.outputs}) is not None
