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
from .intervals import _int, _is_real, hausdorff_distance, set_from_obj


def _load_json(path):
    def finite(text):  # NaN, Infinity, and literals such as 1e999 that overflow
        if math.isfinite(x := float(text)):
            return x
        raise ValueError(f"non-finite number {text} in {path}")

    try:
        with open(path) as fh:
            return json.load(fh, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON in {path}: {e}")


def _check_keys(obj: dict, allowed, required, where: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ValueError(f"missing keys in {where}: {sorted(missing)}")


def _load_config(path, allowed, required) -> dict:
    """A command's config object with its keys checked and its output paths strings (open() takes an int as an fd)."""
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    _check_keys(cfg, allowed, required, "config")
    for key in ("output_csv", "output_json"):
        if not isinstance(cfg.get(key, ""), str):
            raise ValueError(f"{key} must be a path string, got {cfg[key]!r}")
    return cfg


def _real(value, key: str) -> float:
    """``value`` as a float; refuses booleans, strings and ints beyond the float range, which float() takes."""
    if _is_real(value):
        return float(value)
    raise ValueError(f"{key} must be a real number, got {value!r}")


def _reals(spec, *keys) -> list[tuple[float, ...]]:
    return [tuple(_real(x, key) for x in spec[key]) for key in keys]


def _keys(*required, optional=()):
    """(allowed, required) key sets of a model or measure spec."""
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
        raise ValueError("model must be an object with a name")
    entry = MODELS.get(spec["name"])
    if entry is None or command not in entry.keys:
        raise ValueError(f"unknown model: {spec['name']!r}")
    _check_keys(spec, *entry.keys[command], "model")
    return entry


# measure type -> (constructor from a spec, the spec's keys)
MEASURES = {
    "lebesgue": (lambda s: convergence.Lebesgue(), _keys("type")),
    "density": (
        lambda s: convergence.PiecewiseDensity(
            *_reals(s, "breakpoints", "values"), _real(s.get("outside", 0.0), "outside")
        ),
        _keys("type", "breakpoints", "values", optional=("outside",)),
    ),
    "atomic": (lambda s: convergence.AtomicMeasure(*_reals(s, "atoms", "weights")), _keys("type", "atoms", "weights")),
}


def _parse_measure(spec) -> convergence.Measure1D:
    if spec is None:
        return convergence.Lebesgue()
    _check_keys(spec, set().union(*(keys[0] for _, keys in MEASURES.values())), {"type"}, "measure")
    if not isinstance(kind := spec["type"], str) or kind not in MEASURES:
        raise ValueError(f"unknown measure type: {kind!r}")
    build, keys = MEASURES[kind]
    _check_keys(spec, *keys, "measure")
    return build(spec)


# keys of the fiber pipeline, which a set model's measure run has no use for
OPERATOR_KEYS = {"phase", "grid_points", "delta_mode", "deltas", "holder_constant", "holder_frequency"}
MEASURE_KEYS = OPERATOR_KEYS | {
    "model", "n_min", "n_max", "measure", "output_csv", "output_json", "tail", "tail_tol", "criterion_tol",
}


def _n_range(cfg) -> range:
    n_min, n_max = _int(cfg["n_min"], "n_min"), _int(cfg["n_max"], "n_max")
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    return range(n_min, n_max + 1)


def _grid_points(cfg, dim: int):
    """A bands or measure config's grid points per axis; 1-d cells solve their two exact fibers and take none."""
    if dim == 1 and "grid_points" in cfg:
        raise ValueError("one-dimensional cells take no grid_points: their two fibers give the band edges exactly")
    return cfg.get("grid_points", floquet.DEFAULT_GRID_POINTS)


def _pipeline_deltas(mode, cfg, model, steps):
    if mode == "proxy":
        return "proxy"
    if mode == "explicit":
        deltas = cfg.get("deltas")
        if not isinstance(deltas, list) or len(deltas) != len(steps):
            raise ValueError("explicit delta_mode needs a deltas list, one per step")
        return [_real(d, "deltas") for d in deltas]
    if mode == "holder":
        if cfg["model"]["name"] != "almost_mathieu":
            raise ValueError("holder delta_mode applies to the almost_mathieu model only")
        if "holder_constant" not in cfg or "holder_frequency" not in cfg:
            raise ValueError("holder delta_mode needs holder_constant and holder_frequency")
        c, target = _real(cfg["holder_constant"], "holder_constant"), _real(cfg["holder_frequency"], "holder_frequency")
        # q, the period of each step, is its convergent's denominator; round(target * q) the nearest numerator
        qs = [model.step(cfg["model"], n)["frequency"][1] for n in steps]
        if overflow := [q for q in qs if not math.isfinite(target * q)]:  # round() would raise OverflowError
            raise ValueError(f"holder_frequency {target!r} times the period {overflow[0]} overflows")
        return [c * abs(target - round(target * q) / q) ** 0.5 for q in qs]
    raise ValueError(f"unknown delta_mode: {mode!r}")


def cmd_measure(args) -> int:
    cfg = _load_config(args.config, MEASURE_KEYS, {"model", "n_min", "n_max", "output_csv", "output_json"})
    mu = _parse_measure(cfg.get("measure"))
    tail = _int(cfg.get("tail", convergence.DEFAULT_TAIL), "tail")
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail}")
    tail_tol = _real(cfg.get("tail_tol", convergence.DEFAULT_TAIL_TOL), "tail_tol")
    crit_tol = _real(cfg.get("criterion_tol", convergence.DEFAULT_DIAGNOSTIC_TOL), "criterion_tol")
    for key, value in (("tail_tol", tail_tol), ("criterion_tol", crit_tol)):
        if value <= 0:  # spread < tail_tol and q * delta < criterion_tol never hold then
            raise ValueError(f"{key} must be positive, got {value!r}")

    model, steps = _model(cfg["model"], "measure"), _n_range(cfg)
    approximants = convergence._Steps(lambda n: model.build(model.step(cfg["model"], n)), steps)
    if model.sets:
        if unused := sorted(OPERATOR_KEYS & cfg.keys()):
            raise ValueError(f"set model {cfg['model']['name']!r} does not take {unused}")
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


# --method -> its fit's name in dimension, looked up at each call: perfbench's tracer patches the module's functions
FITS = {"last": "dim_bound_last", "direct": "dim_bound_direct"}


def cmd_dimension(args) -> int:
    stats = dimension.CoverStats.from_csv(args.stats)
    fit = getattr(dimension, FITS[args.method])(stats, tail_fraction=args.tail_fraction)
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
    p.add_argument("--method", choices=tuple(FITS), required=True)
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
    except (ValueError, TypeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
