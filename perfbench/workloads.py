"""The benchmark's workloads: seeded inputs, CLI call sequences, output checks.

Each workload is a fixed sequence of ``specapprox`` CLI calls run inside
one work directory.  Inputs are generated here from the seed; the program
only sees the generated files.  Every call has a check against a reference
computed independently of the package (closed forms, or the benchmark's
own fiber matrices and ``numpy.linalg.eigvalsh``).

Why these three:

* ``cantor``: interval arithmetic at 2^18 components and a quadratic
  Hausdorff distance; no eigensolves at all.
* ``fib-proxy``: a few large dense 1-d eigensolves (q up to 1597) plus
  proxy Hausdorff distances over band unions produced by floquet.
* ``bands-2d``: 2304 small batched complex eigensolves on a phase grid,
  where BLAS threading matters; intervals and convergence nearly idle.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NAMES = ("cantor", "fib-proxy", "bands-2d")

CANTOR_LEVELS = 18
CANTOR_HAUSDORFF = (12, 11)
FIB_LEVELS = 16
FIB_COUPLING = (1.0, 3.0)
FIB_SPOT_CHECKS = 2
BANDS_PERIODS = (12, 12)
BANDS_GRID = 48
BANDS_CELL = (-2.0, 2.0)
BANDS_PROBES = 8

# Tolerances of the independent references.  Measures summed over 2^18
# intervals built by repeated thirds drift by a few 1e-9 relative; the
# eigenvalue-based figures agree to about 1e-12.
MEASURE_RTOL = 1e-6
CSV_RTOL = 1e-12
EIG_ATOL = 1e-9
DIM_ATOL = 1e-3


@dataclass
class Call:
    """One CLI invocation: its argv, the files it writes, and its check.

    ``check(stdout, files)`` returns None when the output is right and a
    message otherwise; ``files`` maps each output name to its bytes.
    """

    argv: list[str]
    outputs: tuple[str, ...]
    check: Callable[[str, dict], str | None]


@dataclass
class Workload:
    name: str
    seed: int
    inputs: dict[str, bytes]
    calls: list[Call]
    params: dict = field(default_factory=dict)

    def config_digests(self) -> dict[str, str]:
        return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(self.inputs.items())}


def make(name: str, seed: int) -> Workload:
    if name == "cantor":
        return _cantor(seed)
    if name == "fib-proxy":
        return _fib_proxy(seed)
    if name == "bands-2d":
        return _bands_2d(seed)
    raise ValueError(f"unknown workload {name!r}")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=1) + "\n").encode()


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _stdout_value(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    return None


# -- cantor ---------------------------------------------------------------


def cantor_intervals(level: int) -> list[list[float]]:
    """Level-``level`` middle-thirds intervals from exact integer endpoints."""
    lefts = [0]
    for _ in range(level):
        lefts = [3 * a for a in lefts] + [3 * a + 2 for a in lefts]
    scale = 3**level
    return [[a / scale, (a + 1) / scale] for a in sorted(lefts)]


def cantor_fattened_measure(n: int) -> float:
    """Lebesgue measure of the level-n cover fattened by 3^-n.

    The outer ends grow by 3^-n each; the 2^(n-1) gaps of length 3^-n close,
    and a level-k gap (k < n) keeps 3^-k - 2*3^-n of its length.
    """
    d = 3.0**-n
    return 1.0 + 2.0 * d - sum(2 ** (k - 1) * (3.0**-k - 2.0 * d) for k in range(1, n))


def _check_cantor_measure(stdout: str, files: dict) -> str | None:
    rows = _csv_rows(files["cantor.csv"])
    if len(rows) != CANTOR_LEVELS:
        return f"expected {CANTOR_LEVELS} rows, got {len(rows)}"
    for i, row in enumerate(rows, start=1):
        if int(row["n"]) != i or int(row["q"]) != 2**i:
            return f"row {i}: n={row['n']} q={row['q']}, want n={i} q={2**i}"
        for col, want, rtol in (
            ("delta", 3.0**-i, CSV_RTOL),
            ("r", 3.0**-i, CSV_RTOL),
            ("q_times_delta", (2.0 / 3.0) ** i, CSV_RTOL),
            ("mu_raw", (2.0 / 3.0) ** i, MEASURE_RTOL),
            ("mu_fattened", cantor_fattened_measure(i), MEASURE_RTOL),
        ):
            if not _close(float(row[col]), want, rtol):
                return f"row {i}: {col}={row[col]}, want {want!r}"
    report = json.loads(files["cantor.json"])
    if report["summary"]["corollary"]["flag"] is not True:
        return "corollary flag is not true"
    if _stdout_value(stdout, "criterion_flag") != "true":
        return "stdout lacks criterion_flag: true"
    return None


def _check_dimension(stdout: str, files: dict) -> str | None:
    bound = _stdout_value(stdout, "bound")
    want = math.log(2.0) / math.log(3.0)
    if bound is None or not _close(float(bound), want, 0.0, DIM_ATOL):
        return f"bound {bound}, want {want:.6f}"
    return None


def _check_cantor_hausdorff(stdout: str, files: dict) -> str | None:
    a, b = CANTOR_HAUSDORFF
    want = 3.0 ** -max(a, b) / 2.0
    got = stdout.strip()
    try:
        ok = _close(float(got), want, 1e-9)
    except ValueError:
        ok = False
    return None if ok else f"distance {got!r}, want {want!r}"


def _cantor(seed: int) -> Workload:
    rng = random.Random(seed)
    inputs = {
        "measure.json": _json_bytes(
            {
                "model": {"name": "cantor"},
                "n_min": 1,
                "n_max": CANTOR_LEVELS,
                "output_csv": "cantor.csv",
                "output_json": "cantor.json",
            }
        )
    }
    for fname, level in zip(("set_a.json", "set_b.json"), CANTOR_HAUSDORFF):
        pairs = cantor_intervals(level)
        rng.shuffle(pairs)
        inputs[fname] = (json.dumps(pairs) + "\n").encode()
    calls = [
        Call(["measure", "--config", "measure.json"], ("cantor.csv", "cantor.json"), _check_cantor_measure),
        Call(["dimension", "--stats", "cantor.csv", "--method", "last"], (), _check_dimension),
        Call(["dimension", "--stats", "cantor.csv", "--method", "direct"], (), _check_dimension),
        Call(["hausdorff", "set_a.json", "set_b.json"], (), _check_cantor_hausdorff),
    ]
    return Workload("cantor", seed, inputs, calls)


# -- fib-proxy ------------------------------------------------------------


def fibonacci_cell(level: int, coupling: float) -> np.ndarray:
    word = "a"
    for _ in range(level - 1):
        word = "".join("ab" if c == "a" else "a" for c in word)
    return np.array([coupling if c == "a" else 0.0 for c in word])


def fiber(cell: np.ndarray, periods: tuple[int, ...], phase) -> np.ndarray:
    """Fiber matrix of the periodic operator, built site by site.

    Hop from each site to its forward neighbour on every axis; a hop that
    crosses the cell boundary on axis j carries exp(2*pi*i*phase_j), and
    the backward hop is its conjugate.
    """
    z = np.exp(2j * np.pi * np.asarray(phase, dtype=float))
    h = np.diag(np.asarray(cell, dtype=complex))
    for site in np.ndindex(*periods):
        i = int(np.ravel_multi_index(site, periods))
        for axis, p in enumerate(periods):
            ahead = list(site)
            ahead[axis] = (site[axis] + 1) % p
            j = int(np.ravel_multi_index(tuple(ahead), periods))
            w = z[axis] if site[axis] + 1 == p else 1.0
            h[i, j] += w
            h[j, i] += np.conj(w)
    return h


def _merge(intervals, tol: float = 1e-12) -> np.ndarray:
    """Sorted union of closed intervals as an (m, 2) array; gaps <= tol close."""
    iv = np.asarray(sorted(map(tuple, intervals)), dtype=float)
    out = [list(iv[0])]
    for lo, hi in iv[1:]:
        if lo <= out[-1][1] + tol:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return np.asarray(out)


def _length(union: np.ndarray) -> float:
    return float(np.sum(union[:, 1] - union[:, 0]))


def _dist(points: np.ndarray, union: np.ndarray) -> np.ndarray:
    """Distance from each point to a merged union of intervals."""
    i = np.searchsorted(union[:, 0], points, side="right") - 1
    inside = (i >= 0) & (points <= union[np.clip(i, 0, None), 1])
    left = np.where(i >= 0, points - union[np.clip(i, 0, None), 1], np.inf)
    right = np.where(i + 1 < len(union), union[np.clip(i + 1, None, len(union) - 1), 0] - points, np.inf)
    return np.where(inside, 0.0, np.minimum(left, right))


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    mids = (b[:-1, 1] + b[1:, 0]) / 2.0
    mids = mids[_dist(mids, a) == 0.0]
    cands = np.concatenate([a.ravel(), mids])
    return float(np.max(_dist(cands, b)))


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    return max(_directed(a, b), _directed(b, a))


class FibReference:
    """Band unions and phase-0 eigenvalues from the benchmark's own solves."""

    def __init__(self, coupling: float, levels):
        self.bands, self.eigs0 = {}, {}
        for n in levels:
            cell = fibonacci_cell(n, coupling)
            # the periodic and antiperiodic fibers are real symmetric
            e0 = np.linalg.eigvalsh(fiber(cell, (len(cell),), [0.0]).real)
            e1 = np.linalg.eigvalsh(fiber(cell, (len(cell),), [0.5]).real)
            self.eigs0[n] = e0
            self.bands[n] = _merge(np.stack([np.minimum(e0, e1), np.maximum(e0, e1)], axis=1))


def fibonacci_numbers(count: int) -> list[int]:
    """Cell sizes of Fibonacci levels 1..count: 1, 2, 3, 5, 8, ..."""
    out = [1, 2]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def _fib_proxy(seed: int) -> Workload:
    rng = random.Random(seed)
    coupling = rng.uniform(*FIB_COUPLING)
    spot = sorted(rng.sample(range(1, FIB_LEVELS), FIB_SPOT_CHECKS)) + [FIB_LEVELS]
    inputs = {
        "measure.json": _json_bytes(
            {
                "model": {"name": "fibonacci", "coupling": coupling},
                "n_min": 1,
                "n_max": FIB_LEVELS,
                "delta_mode": "proxy",
                "output_csv": "fib.csv",
                "output_json": "fib.json",
            }
        )
    }
    ref: list[FibReference] = []

    def check(stdout: str, files: dict) -> str | None:
        rows = _csv_rows(files["fib.csv"])
        qs = [int(r["q"]) for r in rows]
        if qs != fibonacci_numbers(FIB_LEVELS):
            return f"q column {qs} is not the Fibonacci numbers"
        if float(rows[-1]["delta"]) != 0.0:
            return f"last delta {rows[-1]['delta']}, want 0"
        for r in rows:
            if not float(r["mu_fattened"]) >= float(r["mu_raw"]):
                return f"row {r['n']}: mu_fattened {r['mu_fattened']} < mu_raw {r['mu_raw']}"
        if _stdout_value(stdout, "estimate") is None:
            return "stdout lacks the estimate"
        if not ref:
            ref.append(FibReference(coupling, spot))
        last = ref[0].bands[FIB_LEVELS]
        for n in spot:
            row = rows[n - 1]
            bands = ref[0].bands[n]
            delta = hausdorff(bands, last)
            cover = ref[0].eigs0[n][:, None] + (delta + 4.0 * math.pi / qs[n - 1]) * np.array([-1.0, 1.0])
            for col, want in (
                ("mu_raw", _length(bands)),
                ("delta", delta),
                ("mu_fattened", _length(_merge(cover))),
            ):
                if not _close(float(row[col]), want, EIG_ATOL, EIG_ATOL):
                    return f"level {n}: {col}={row[col]}, reference {want!r}"
        return None

    calls = [Call(["measure", "--config", "measure.json"], ("fib.csv", "fib.json"), check)]
    return Workload("fib-proxy", seed, inputs, calls, {"coupling": coupling, "spot_levels": spot})


# -- bands-2d -------------------------------------------------------------


def _bands_2d(seed: int) -> Workload:
    rng = random.Random(seed)
    q = int(np.prod(BANDS_PERIODS))
    cell = [rng.uniform(*BANDS_CELL) for _ in range(q)]
    probes = [[rng.random() for _ in BANDS_PERIODS] for _ in range(BANDS_PROBES)]
    inputs = {
        "bands.json": _json_bytes(
            {
                "model": {"name": "potential", "dim": 2, "periods": list(BANDS_PERIODS), "cell": cell},
                "grid_points": BANDS_GRID,
                "output_csv": "bands.csv",
                "output_json": "bands_report.json",
            }
        )
    }
    ref: list[np.ndarray] = []

    def check(stdout: str, files: dict) -> str | None:
        report = json.loads(files["bands_report.json"])
        bands = np.asarray(report["bands"], dtype=float)
        if bands.shape != (q, 2) or np.any(bands[:, 0] > bands[:, 1]):
            return f"bad band array of shape {bands.shape}"
        if report["violations"] != [] or _stdout_value(stdout, "violations") != "0":
            return f"width violations: {report['violations']}"
        rows = _csv_rows(files["bands.csv"])
        csv_bands = np.array([[float(r["lo"]), float(r["hi"])] for r in rows])
        if csv_bands.shape != bands.shape or not np.allclose(csv_bands, bands, rtol=CSV_RTOL, atol=1e-14):
            return "CSV bands differ from the JSON report"
        if not ref:
            ref.append(np.array([np.linalg.eigvalsh(fiber(cell, BANDS_PERIODS, p)) for p in probes]))
        eb = float(report["error_bound"])
        below = ref[0] < bands[:, 0] - eb
        above = ref[0] > bands[:, 1] + eb
        if np.any(below | above):
            k, i = np.argwhere(below | above)[0]
            return f"eigenvalue {i} at phase {probes[k]} = {ref[0][k, i]!r} outside band {bands[i]} +- {eb}"
        return None

    calls = [Call(["bands", "--config", "bands.json"], ("bands.csv", "bands_report.json"), check)]
    return Workload("bands-2d", seed, inputs, calls, {"probes": probes})
