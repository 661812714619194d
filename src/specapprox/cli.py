"""Command-line front end: hausdorff, measure, bands, dimension.

Exit codes: 0 success, 2 bad usage or malformed input, 3 numerical failure.
Configurations are JSON with strict key checking; outputs are CSV (15
significant digits, byte-stable across reruns) plus JSON reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import convergence, dimension, floquet, models
from .intervals import EmptySetError, hausdorff_distance, set_from_obj

THREADS_ENV = "SPECAPPROX_THREADS"


class ConfigError(ValueError):
    pass


def _workers() -> int | None:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return None
    try:
        w = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if w < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1, got {w}")
    return w


def _load_json(path):
    def finite(text):  # NaN, Infinity, and literals such as 1e999 that overflow
        if math.isfinite(x := float(text)):
            return x
        raise ConfigError(f"non-finite number {text} in {path}")

    try:
        with open(path) as fh:
            return json.load(fh, parse_float=finite, parse_constant=finite)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}")


def _check_keys(obj: dict, allowed, required, where: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _parse_measure(spec) -> convergence.Measure1D:
    if spec is None:
        return convergence.Lebesgue()
    _check_keys(spec, {"type", "breakpoints", "values", "outside", "atoms", "weights"}, {"type"}, "measure")
    kind = spec["type"]
    try:
        if kind == "lebesgue":
            _check_keys(spec, {"type"}, {"type"}, "measure")
            return convergence.Lebesgue()
        if kind == "density":
            _check_keys(spec, {"type", "breakpoints", "values", "outside"}, {"type", "breakpoints", "values"}, "measure")
            return convergence.PiecewiseDensity(
                breakpoints=tuple(float(b) for b in spec["breakpoints"]),
                values=tuple(float(v) for v in spec["values"]),
                outside=float(spec.get("outside", 0.0)),
            )
        if kind == "atomic":
            _check_keys(spec, {"type", "atoms", "weights"}, {"type", "atoms", "weights"}, "measure")
            return convergence.AtomicMeasure(
                atoms=tuple(float(a) for a in spec["atoms"]),
                weights=tuple(float(w) for w in spec["weights"]),
            )
    except ValueError as e:
        raise ConfigError(f"invalid measure: {e}")
    raise ConfigError(f"unknown measure type: {kind!r}")


MEASURE_KEYS = {
    "model", "n_min", "n_max", "measure", "phase", "strategy", "grid_points",
    "delta_mode", "deltas", "holder_constant", "holder_frequency",
    "output_csv", "output_json", "tail", "tail_tol", "criterion_tol",
}


def _n_range(cfg) -> range:
    n_min, n_max = int(cfg["n_min"]), int(cfg["n_max"])
    if n_min < 1 or n_max < n_min:
        raise ConfigError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    return range(n_min, n_max + 1)


def _floquet_potentials(model, cfg):
    name = model["name"]
    steps = _n_range(cfg)
    if name == "free":
        _check_keys(model, {"name", "dim", "period_base"}, {"name", "dim", "period_base"}, "model")
        dim, base = int(model["dim"]), int(model["period_base"])
        if base < 2:
            raise ConfigError("period_base must be >= 2")
        return [models.free_potential(dim, (base**n,) * dim) for n in steps]
    if name == "almost_mathieu":
        _check_keys(
            model, {"name", "coupling", "frequency_cf", "offset"}, {"name", "coupling", "frequency_cf"}, "model"
        )
        try:
            convs = models.convergents(model["frequency_cf"], steps.stop - 1)
        except ValueError as e:
            raise ConfigError(f"invalid frequency_cf: {e}")
        offset = float(model.get("offset", 0.0))
        return [models.almost_mathieu(float(model["coupling"]), convs[n - 1], offset) for n in steps]
    if name == "fibonacci":
        _check_keys(model, {"name", "coupling"}, {"name", "coupling"}, "model")
        return [models.fibonacci_potential(n, float(model["coupling"])) for n in steps]
    raise ConfigError(f"unknown model: {name!r}")


def _pipeline_deltas(cfg, potentials):
    mode = cfg.get("delta_mode", "proxy")
    if mode == "proxy":
        return "proxy", "proxy"
    if mode == "explicit":
        deltas = cfg.get("deltas")
        if not isinstance(deltas, list) or len(deltas) != len(potentials):
            raise ConfigError("explicit delta_mode needs a deltas list, one per step")
        return [float(d) for d in deltas], "explicit"
    if mode == "holder":
        if "holder_constant" not in cfg or "holder_frequency" not in cfg:
            raise ConfigError("holder delta_mode needs holder_constant and holder_frequency")
        c = float(cfg["holder_constant"])
        target = float(cfg["holder_frequency"])
        deltas = []
        for v in potentials:
            q = v.periods[0]
            # recover p/q from the potential is not possible in general; the
            # caller supplies the target frequency and we use the best
            # rational with the potential's period
            p = round(target * q)
            deltas.append(c * abs(target - p / q) ** 0.5)
        return deltas, "holder"
    raise ConfigError(f"unknown delta_mode: {mode!r}")


def _criterion_from_rows(rows, tail: int, tol: float):
    products = [row.q_times_delta for row in rows]
    window = products[-tail:]
    flag = all(p < tol for p in window)
    estimate = None
    if flag:
        last_raw = rows[-1].mu_raw
        if isinstance(last_raw, float) and math.isfinite(last_raw):
            estimate = last_raw
    return {"flag": flag, "products_tail": window, "estimate": estimate}


def cmd_measure(args) -> int:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, MEASURE_KEYS, {"model", "n_min", "n_max", "output_csv", "output_json"}, "config")
    model = cfg["model"]
    if not isinstance(model, dict) or "name" not in model:
        raise ConfigError("model must be an object with a name")
    mu = _parse_measure(cfg.get("measure"))
    tail = int(cfg.get("tail", convergence.DEFAULT_TAIL))
    if tail < 1:
        raise ConfigError(f"tail must be >= 1, got {tail}")
    tail_tol = float(cfg.get("tail_tol", 1e-3))
    crit_tol = float(cfg.get("criterion_tol", convergence.DEFAULT_DIAGNOSTIC_TOL))

    name = model["name"]
    if name in ("cantor", "grid"):
        if name == "cantor":
            _check_keys(model, {"name"}, {"name"}, "model")
            records = [models.cantor_approximation(n) for n in _n_range(cfg)]
        else:
            _check_keys(model, {"name", "solid_to"}, {"name"}, "model")
            solid = model.get("solid_to")
            records = [models.grid_approximation(n, solid) for n in _n_range(cfg)]
        report = convergence.fattened_measure_sequence(records, mu, tail=tail, tail_tol=tail_tol)
        crit = convergence.corollary_criterion(records, tail=tail, tolerance=crit_tol)
        report.summary["corollary"] = {
            "flag": crit.flag,
            "products_tail": list(crit.products[-tail:]),
            "estimate": crit.measure_estimate,
        }
    else:
        potentials = _floquet_potentials(model, cfg)
        deltas, mode = _pipeline_deltas(cfg, potentials)
        strategy = cfg.get("strategy")
        if strategy is None:
            strategy = "exact_1d" if potentials[0].dim == 1 else "grid"
        report = floquet.estimate_measure_via_fibers(
            potentials,
            cfg.get("phase", 0.0),
            mu,
            deltas=deltas,
            strategy=strategy,
            grid_points=int(cfg.get("grid_points", 64)),
            tail=tail,
            tail_tol=tail_tol,
            workers=_workers(),
        )
        report.summary["delta_mode"] = mode
        report.summary["corollary"] = _criterion_from_rows(report.rows, tail, crit_tol)

    report.write_csv(cfg["output_csv"])
    report.write_json(cfg["output_json"])
    est = report.summary["estimate"]
    flag = report.summary["corollary"]["flag"]
    print(f"estimate: {est:.6g}")
    print(f"criterion_flag: {str(flag).lower()}")
    return 0


BANDS_KEYS = {"model", "strategy", "grid_points", "output_csv", "output_json"}


def _single_potential(model) -> floquet.PeriodicPotential:
    name = model.get("name")
    try:
        if name == "free":
            _check_keys(model, {"name", "dim", "periods"}, {"name", "dim", "periods"}, "model")
            return models.free_potential(int(model["dim"]), model["periods"])
        if name == "almost_mathieu":
            _check_keys(
                model, {"name", "coupling", "frequency", "offset"}, {"name", "coupling", "frequency"}, "model"
            )
            p, q = model["frequency"]
            return models.almost_mathieu(
                float(model["coupling"]), Fraction(int(p), int(q)), float(model.get("offset", 0.0))
            )
        if name == "fibonacci":
            _check_keys(model, {"name", "level", "coupling"}, {"name", "level", "coupling"}, "model")
            return models.fibonacci_potential(int(model["level"]), float(model["coupling"]))
        if name == "potential":
            _check_keys(model, {"name", "dim", "periods", "cell"}, {"name", "dim", "periods", "cell"}, "model")
            return floquet.PeriodicPotential(
                dim=int(model["dim"]),
                periods=tuple(int(p) for p in model["periods"]),
                cell=tuple(float(v) for v in model["cell"]),
            )
    except (ValueError, TypeError) as e:
        raise ConfigError(f"invalid model: {e}")
    raise ConfigError(f"unknown model: {name!r}")


def cmd_bands(args) -> int:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, BANDS_KEYS, {"model", "output_csv"}, "config")
    potential = _single_potential(cfg["model"])
    strategy = cfg.get("strategy", "exact_1d" if potential.dim == 1 else "grid")
    try:
        spec = floquet.band_spectrum(
            potential, strategy=strategy, grid_points=int(cfg.get("grid_points", 64)), workers=_workers()
        )
    except floquet.NotHermitianError:
        raise
    except ValueError as e:
        raise ConfigError(str(e))

    limit = floquet.bandwidth_bound(potential.periods)
    widths = spec.widths()
    violations = [i for i, w in enumerate(widths) if w > limit + 2 * spec.error_bound]
    with open(cfg["output_csv"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "lo", "hi", "width"])
        for i, (lo, hi) in enumerate(spec.bands):
            w.writerow([i, f"{lo:.15g}", f"{hi:.15g}", f"{hi - lo:.15g}"])
    if "output_json" in cfg:
        obj = {
            "bands": [[lo, hi] for lo, hi in spec.bands],
            "error_bound": spec.error_bound,
            "bandwidth_bound": limit,
            "violations": violations,
        }
        with open(cfg["output_json"], "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    print(f"bands: {len(spec.bands)}")
    print(f"error_bound: {spec.error_bound:.6g}")
    print(f"max_width: {max(widths):.6g}")
    print(f"width_bound: {limit:.6g}")
    print(f"violations: {len(violations)}")
    return 0


def cmd_hausdorff(args) -> int:
    try:
        a = set_from_obj(_load_json(args.set_a))
        b = set_from_obj(_load_json(args.set_b))
    except (EmptySetError, ValueError, TypeError) as e:
        raise ConfigError(f"malformed set file: {e}")
    print(f"{hausdorff_distance(a, b):.12g}")
    return 0


def cmd_dimension(args) -> int:
    try:
        stats = dimension.CoverStats.from_csv(args.stats)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {args.stats}")
    except ValueError as e:
        raise ConfigError(f"bad stats CSV: {e}")
    try:
        if args.method == "last":
            fit = dimension.dim_bound_last(stats, tail_fraction=args.tail_fraction)
        else:
            fit = dimension.dim_bound_direct(stats, tail_fraction=args.tail_fraction)
    except (dimension.InsufficientDataError, dimension.NotApplicableError) as e:
        raise ConfigError(str(e))
    print(f"bound: {fit.estimate:.6g}")
    print(f"residual: {fit.residual:.6g}")
    if args.json:
        obj = {
            "method": args.method,
            "bound": fit.estimate,
            "slope": fit.slope,
            "residual": fit.residual,
            "window": list(fit.window),
        }
        with open(args.json, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specapprox",
        description="Measure and dimension estimates for compact sets approximated in Hausdorff distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hausdorff", help="Hausdorff distance between two compact sets (JSON files)")
    p.add_argument("set_a")
    p.add_argument("set_b")
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("measure", help="run a measure-convergence experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("bands", help="band spectrum of a periodic potential from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("dimension", help="dimension bound from a stats CSV")
    p.add_argument("--stats", required=True)
    p.add_argument("--method", choices=("last", "direct"), required=True)
    p.add_argument("--tail-fraction", type=float, default=0.5)
    p.add_argument("--json")
    p.set_defaults(func=cmd_dimension)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (floquet.NotHermitianError, np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
