"""Command-line front end: hausdorff, measure, bands, dimension.

Exit codes: 0 success, 2 bad usage or malformed input, 3 numerical failure.
Configurations are JSON with strict key checking.  Every measure report comes
from the one measure run loop in ``convergence``, for set and operator models
alike, every corollary from ``convergence.corollary``, and every output file
from its one writer pair, ``write_csv`` (15 significant digits) and ``write_json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import convergence, dimension, floquet, models
from .intervals import _is_real, hausdorff_distance, set_from_obj


class ConfigError(ValueError):
    pass


def _load_json(path):
    def finite(text):  # NaN, Infinity, and literals such as 1e999 that overflow
        if math.isfinite(x := float(text)):
            return x
        raise ConfigError(f"non-finite number {text} in {path}")

    try:
        with open(path) as fh:
            return json.load(fh, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}")


def _check_keys(obj: dict, allowed, required, where: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _load_config(path, allowed, required) -> dict:
    """A command's config object with its keys checked and its output paths strings (open() takes an int as an fd)."""
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, allowed, required, "config")
    for key in ("output_csv", "output_json"):
        if not isinstance(cfg.get(key, ""), str):
            raise ConfigError(f"{key} must be a path string, got {cfg[key]!r}")
    return cfg


def _parse_measure(spec) -> convergence.Measure1D:
    if spec is None:
        return convergence.Lebesgue()
    _check_keys(spec, {"type", "breakpoints", "values", "outside", "atoms", "weights"}, {"type"}, "measure")
    kind = spec["type"]
    if kind == "lebesgue":
        _check_keys(spec, {"type"}, {"type"}, "measure")
        return convergence.Lebesgue()
    if kind == "density":
        _check_keys(spec, {"type", "breakpoints", "values", "outside"}, {"type", "breakpoints", "values"}, "measure")
        return convergence.PiecewiseDensity(
            breakpoints=tuple(_real(b, "breakpoints") for b in spec["breakpoints"]),
            values=tuple(_real(v, "values") for v in spec["values"]),
            outside=_real(spec.get("outside", 0.0), "outside"),
        )
    if kind == "atomic":
        _check_keys(spec, {"type", "atoms", "weights"}, {"type", "atoms", "weights"}, "measure")
        return convergence.AtomicMeasure(
            atoms=tuple(_real(a, "atoms") for a in spec["atoms"]),
            weights=tuple(_real(w, "weights") for w in spec["weights"]),
        )
    raise ConfigError(f"unknown measure type: {kind!r}")


def _int(value, key: str):
    """``value``, or each item of a list ``value``, as an int; booleans, strings and
    numbers with a fractional part are refused, where int() would take or truncate them."""
    if isinstance(value, list):
        return [_int(v, key) for v in value]
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """``value`` as a float; refuses booleans, strings and ints beyond the float range, which float() takes."""
    if _is_real(value):
        return float(value)
    raise ConfigError(f"{key} must be a real number, got {value!r}")


def _keys(*required, optional=()):
    """(allowed, required) key sets of a model spec."""
    return {*required, *optional}, set(required)


@dataclass(frozen=True)
class _Model:
    """A model's constructor and, per command that takes it, its spec keys.

    ``build`` makes one approximant from a spec: an approximation record for
    a set model (``sets``), a periodic potential for an operator model.  A
    bands config passes its model spec as it is; step n of a measure config
    passes ``step(spec, n)``, by default the spec with its level set to n.
    ``build`` refuses, before it allocates, a spec whose run up to it would
    not fit in memory (a literal potential's cell is already in its config).
    A measure run builds its last step, its largest, first, so that build is
    the run's size check.
    """

    build: Callable[[dict], object]
    keys: dict
    step: Callable[[dict, int], dict] = lambda spec, n: {**spec, "level": n}
    sets: bool = False


def _grid_args(spec):
    return spec["level"], _real(spec["solid_to"], "solid_to") if "solid_to" in spec else None


def _free_args(spec, periods="periods"):
    return _int(spec["dim"], "dim"), _int(spec[periods], periods)


def _almost_mathieu(spec):
    frequency = _int(spec["frequency"], "frequency")
    offset = _real(spec.get("offset", 0.0), "offset")
    return models.almost_mathieu(_real(spec["coupling"], "coupling"), frequency, offset)


def _almost_mathieu_step(spec, n):
    f = models.convergents(_int(spec["frequency_cf"], "frequency_cf"), n)[-1]
    return {**spec, "frequency": [f.numerator, f.denominator]}


def _literal_potential(spec):
    return floquet.PeriodicPotential(
        dim=_int(spec["dim"], "dim"),
        periods=tuple(_int(spec["periods"], "periods")),
        cell=tuple(_real(v, "cell") for v in spec["cell"]),
    )


MODELS = {
    "cantor": _Model(
        build=lambda s: models.cantor_approximation(s["level"]),
        keys={"measure": _keys("name")},
        sets=True,
    ),
    "grid": _Model(
        build=lambda s: models.grid_approximation(*_grid_args(s)),
        keys={"measure": _keys("name", optional=("solid_to",))},
        sets=True,
    ),
    "free": _Model(
        build=lambda s: models.free_potential(*_free_args(s)),
        keys={"measure": _keys("name", "dim", "period_base"), "bands": _keys("name", "dim", "periods")},
        step=lambda s, n: {"dim": s["dim"], "periods": models.free_periods(*_free_args(s, "period_base"), n)},
    ),
    "almost_mathieu": _Model(
        build=_almost_mathieu,
        keys={
            "measure": _keys("name", "coupling", "frequency_cf", optional=("offset",)),
            "bands": _keys("name", "coupling", "frequency", optional=("offset",)),
        },
        step=_almost_mathieu_step,
    ),
    "fibonacci": _Model(
        build=lambda s: models.fibonacci_potential(_int(s["level"], "level"), _real(s["coupling"], "coupling")),
        keys={"measure": _keys("name", "coupling"), "bands": _keys("name", "level", "coupling")},
    ),
    "potential": _Model(
        build=_literal_potential,
        keys={"bands": _keys("name", "dim", "periods", "cell")},
    ),
}


def _model(spec, command: str) -> _Model:
    """Registry entry of a model spec, after checking the spec's keys for ``command``."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("model must be an object with a name")
    entry = MODELS.get(spec["name"])
    if entry is None or command not in entry.keys:
        raise ConfigError(f"unknown model: {spec['name']!r}")
    _check_keys(spec, *entry.keys[command], "model")
    return entry


# keys of the fiber pipeline, which a set model's measure run has no use for
OPERATOR_KEYS = {"phase", "grid_points", "delta_mode", "deltas", "holder_constant", "holder_frequency"}
MEASURE_KEYS = OPERATOR_KEYS | {
    "model", "n_min", "n_max", "measure", "output_csv", "output_json", "tail", "tail_tol", "criterion_tol",
}


def _n_range(cfg) -> range:
    n_min, n_max = _int(cfg["n_min"], "n_min"), _int(cfg["n_max"], "n_max")
    if n_min < 1 or n_max < n_min:
        raise ConfigError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    return range(n_min, n_max + 1)


def _grid_points(cfg, dim: int) -> int:
    """A bands or measure config's grid points per axis; 1-d cells solve their two exact fibers and take none."""
    if dim == 1 and "grid_points" in cfg:
        raise ConfigError("one-dimensional cells take no grid_points: their two fibers give the band edges exactly")
    return _int(cfg.get("grid_points", floquet.DEFAULT_GRID_POINTS), "grid_points")


def _pipeline_deltas(mode, cfg, model, steps):
    if mode == "proxy":
        return "proxy"
    if mode == "explicit":
        deltas = cfg.get("deltas")
        if not isinstance(deltas, list) or len(deltas) != len(steps):
            raise ConfigError("explicit delta_mode needs a deltas list, one per step")
        return [_real(d, "deltas") for d in deltas]
    if mode == "holder":
        if cfg["model"]["name"] != "almost_mathieu":
            raise ConfigError("holder delta_mode applies to the almost_mathieu model only")
        if "holder_constant" not in cfg or "holder_frequency" not in cfg:
            raise ConfigError("holder delta_mode needs holder_constant and holder_frequency")
        c, target = _real(cfg["holder_constant"], "holder_constant"), _real(cfg["holder_frequency"], "holder_frequency")
        # q, the period of each step, is its convergent's denominator; round(target * q) the nearest numerator
        qs = [model.step(cfg["model"], n)["frequency"][1] for n in steps]
        if overflow := [q for q in qs if not math.isfinite(target * q)]:  # round() would raise OverflowError
            raise ConfigError(f"holder_frequency {target!r} times the period {overflow[0]} overflows")
        return [c * abs(target - round(target * q) / q) ** 0.5 for q in qs]
    raise ConfigError(f"unknown delta_mode: {mode!r}")


def cmd_measure(args) -> int:
    cfg = _load_config(args.config, MEASURE_KEYS, {"model", "n_min", "n_max", "output_csv", "output_json"})
    mu = _parse_measure(cfg.get("measure"))
    tail = _int(cfg.get("tail", convergence.DEFAULT_TAIL), "tail")
    if tail < 1:
        raise ConfigError(f"tail must be >= 1, got {tail}")
    tail_tol = _real(cfg.get("tail_tol", convergence.DEFAULT_TAIL_TOL), "tail_tol")
    crit_tol = _real(cfg.get("criterion_tol", convergence.DEFAULT_DIAGNOSTIC_TOL), "criterion_tol")
    for key, value in (("tail_tol", tail_tol), ("criterion_tol", crit_tol)):
        if value <= 0:  # spread < tail_tol and q * delta < criterion_tol never hold then
            raise ConfigError(f"{key} must be positive, got {value!r}")

    model, steps = _model(cfg["model"], "measure"), _n_range(cfg)
    approximants = convergence._Steps(lambda n: model.build(model.step(cfg["model"], n)), steps)
    if model.sets:
        if unused := sorted(OPERATOR_KEYS & cfg.keys()):
            raise ConfigError(f"set model {cfg['model']['name']!r} does not take {unused}")
        report = convergence.fattened_measure_sequence(approximants, mu, tail=tail, tail_tol=tail_tol)
    else:  # every argument is checked before the first step is built
        mode, phase = cfg.get("delta_mode", "proxy"), cfg.get("phase", 0.0)
        report = floquet.estimate_measure_via_fibers(
            approximants,
            [_real(p, "phase") for p in phase] if isinstance(phase, list) else _real(phase, "phase"),
            mu,
            deltas=_pipeline_deltas(mode, cfg, model, steps),
            # only a free cell is 2-d; its build refuses a dim other than 1 or 2, still before any solve
            grid_points=_grid_points(cfg, _int(cfg["model"].get("dim", 1), "dim")),
            tail=tail, tail_tol=tail_tol,
        )
        report.summary["delta_mode"] = mode

    corollary = report.summary["corollary"] = convergence.corollary(report.rows, tail, crit_tol)
    report.write_csv(cfg["output_csv"])
    report.write_json(cfg["output_json"])
    print(f"estimate: {report.summary['estimate']:.6g}")
    print(f"criterion_flag: {str(corollary['flag']).lower()}")
    return 0


BANDS_KEYS = {"model", "grid_points", "output_csv", "output_json"}


def cmd_bands(args) -> int:
    cfg = _load_config(args.config, BANDS_KEYS, {"model", "output_csv"})
    model = _model(cfg["model"], "bands")
    potential = model.build(cfg["model"])
    spec = floquet.band_spectrum(potential, grid_points=_grid_points(cfg, potential.dim))

    limit = floquet.bandwidth_bound(potential.periods)
    widths = spec.widths()
    violations = np.flatnonzero(widths > limit + 2 * spec.error_bound).tolist()
    pairs = (row.tolist() for row in spec.bands)  # the floats of one row at a time, written as made
    rows = ((i, lo, hi, hi - lo) for i, (lo, hi) in enumerate(pairs))
    convergence.write_csv(cfg["output_csv"], ("i", "lo", "hi", "width"), rows)
    if "output_json" in cfg:
        obj = {
            "bands": spec.bands.tolist(),
            "error_bound": spec.error_bound,
            "bandwidth_bound": limit,
            "violations": violations,
        }
        convergence.write_json(cfg["output_json"], obj)
    print(f"bands: {len(spec.bands)}")
    print(f"error_bound: {spec.error_bound:.6g}")
    print(f"max_width: {widths.max():.6g}")
    print(f"width_bound: {limit:.6g}")
    print(f"violations: {len(violations)}")
    return 0


def cmd_hausdorff(args) -> int:
    a = set_from_obj(_load_json(args.set_a))
    b = set_from_obj(_load_json(args.set_b))
    print(f"{hausdorff_distance(a, b):.12g}")
    return 0


def cmd_dimension(args) -> int:
    stats = dimension.CoverStats.from_csv(args.stats)
    if args.method == "last":
        fit = dimension.dim_bound_last(stats, tail_fraction=args.tail_fraction)
    else:
        fit = dimension.dim_bound_direct(stats, tail_fraction=args.tail_fraction)
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
        convergence.write_json(args.json, obj)
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
    try:  # numpy's overflow and invalid-value warnings are not reported: explicit finiteness checks set the exit code
        with np.errstate(all="ignore"):
            return args.func(args)
    # numerical failures first: LinAlgError is a ValueError too
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as e:  # ConfigError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
