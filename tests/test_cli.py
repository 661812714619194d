import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from specapprox import cli, floquet, models
from specapprox.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def measure_config(tmp_path, **overrides):
    cfg = {
        "model": {"name": "cantor"},
        "n_min": 1,
        "n_max": 10,
        "output_csv": str(tmp_path / "out.csv"),
        "output_json": str(tmp_path / "out.json"),
    }
    cfg.update(overrides)
    return write_json(tmp_path / "config.json", cfg)


FREE_1D = {"name": "free", "dim": 1, "period_base": 2}
GOLDEN_CF = [0] + [1] * 12


def forbid_allocation(monkeypatch):
    """Make numpy's allocators of cells and sets raise, to show that a builder refuses before it allocates."""
    def allocated(*args, **kwargs):
        raise AssertionError("a cell or set was allocated")

    for name in ("empty", "zeros", "fromiter"):
        monkeypatch.setattr(np, name, allocated)


AM_CF = {"name": "almost_mathieu", "coupling": 0.5, "frequency_cf": [0, 1, 1, 1]}

FREE_2D_EXPLICIT = {
    "model": {"name": "free", "dim": 2, "period_base": 2}, "n_max": 2, "delta_mode": "explicit", "deltas": [0.0, 0.0]
}

# Each of these used to end in an uncaught traceback (exit 1), except the
# two strategies of an explicit-delta 2-d run, which were never checked (exit 0).
MALFORMED_MEASURE = {
    "fibonacci-coupling": {"model": {"name": "fibonacci", "coupling": "x"}},
    "free-dim-3": {"model": {"name": "free", "dim": 3, "period_base": 2}},
    "grid-solid-to": {"model": {"name": "grid", "solid_to": 2}},
    "tail": {"tail": "x"},
    "tail-tol": {"tail_tol": [1]},
    "criterion-tol": {"criterion_tol": "x"},
    "grid-points": {"model": FREE_1D, "grid_points": "x"},
    "phase": {"model": FREE_1D, "phase": "x"},
    "strategy": {"model": FREE_1D, "strategy": "fft"},
    "deltas-string": {"model": FREE_1D, "delta_mode": "explicit", "deltas": ["a", 0.0, 0.0]},
    "deltas-negative": {"model": FREE_1D, "delta_mode": "explicit", "deltas": [-1.0, 0.0, 0.0]},
    "free-dim-3-huge-cell": {"model": {"name": "free", "dim": 3, "period_base": 10**12}},
    "free-2d-huge-cell": {"model": {"name": "free", "dim": 2, "period_base": 10**12}, "n_max": 1},
    "strategy-2d-explicit": {**FREE_2D_EXPLICIT, "strategy": "fft"},
    "exact-1d-2d-explicit": {**FREE_2D_EXPLICIT, "strategy": "exact_1d"},
    "free-1d-huge-cell": {"model": {"name": "free", "dim": 1, "period_base": 10**12}},
    "fibonacci-huge-level": {"model": {"name": "fibonacci", "coupling": 1.0}, "n_min": 60, "n_max": 60},
    "cantor-huge-level": {"n_min": 40, "n_max": 40},
    "grid-huge-level": {"model": {"name": "grid"}, "n_min": 10**12, "n_max": 10**12},
    # alpha * n overflowed converting n to a float (exit 1)
    "grid-solid-to-level-beyond-floats": {
        "model": {"name": "grid", "solid_to": 0.5}, "n_min": 10**400, "n_max": 10**400
    },
    # int() truncated these; each run wrote a report of the truncated config
    "n-max-fraction": {"n_max": 3.9},
    "n-min-bool": {"n_min": True},
    "tail-fraction": {"tail": 2.5},
    "grid-points-fraction": {"model": FREE_1D, "strategy": "grid", "grid_points": 8.7},
    "grid-points-fraction-2d": {**FREE_2D_EXPLICIT, "grid_points": 8.7},
    "dim-bool": {"model": {"name": "free", "dim": True, "period_base": 2}},
    "period-base-fraction": {"model": {"name": "free", "dim": 1, "period_base": 2.5}},
    "frequency-cf-fraction": {
        "model": {"name": "almost_mathieu", "coupling": 0.5, "frequency_cf": [0, 1.5, 1]}, "n_max": 2
    },
    "n-max-string": {"n_max": "3"},
    # float() took these as numbers (each run exited 0), or overflowed on the huge integer (exit 1)
    "criterion-tol-string-inf": {"criterion_tol": "inf"},
    "tail-tol-string-nan": {"tail_tol": "nan"},
    "tail-tol-bool": {"tail_tol": True},
    "criterion-tol-bool": {"criterion_tol": False},
    "fibonacci-coupling-string": {"model": {"name": "fibonacci", "coupling": "2.5"}},
    "fibonacci-coupling-bool": {"model": {"name": "fibonacci", "coupling": True}},
    "fibonacci-coupling-huge-int": {"model": {"name": "fibonacci", "coupling": 10**400}},
    "offset-string": {"model": {**AM_CF, "offset": "0.1"}},
    "phase-string": {"model": FREE_1D, "phase": "0.3"},
    "deltas-bool-and-string": {"model": FREE_1D, "delta_mode": "explicit", "deltas": [True, "0.1", 0]},
    "holder-constant-string": {
        "model": AM_CF, "delta_mode": "holder", "holder_constant": "1", "holder_frequency": 0.618
    },
    "solid-to-bool": {"model": {"name": "grid", "solid_to": True}},
    "outside-bool": {"measure": {"type": "density", "breakpoints": [0, 1], "values": [1], "outside": True}},
    "weights-string": {"measure": {"type": "atomic", "atoms": [0.5], "weights": "1"}},
    # round(target * q) overflowed (exit 1); the tolerances ran and set both flags false (exit 0)
    "holder-frequency-overflow": {
        "model": AM_CF, "delta_mode": "holder", "holder_constant": 1, "holder_frequency": 1e308
    },
    "tail-tol-negative": {"model": {"name": "grid"}, "tail_tol": -1},
    "tail-tol-zero": {"tail_tol": 0},
    "criterion-tol-negative": {"model": {"name": "grid"}, "criterion_tol": -1},
    "criterion-tol-zero": {"criterion_tol": 0.0},
    # models.free_periods built [base^n] * dim before check_free refused the dim: OverflowError (exit 1)
    "free-dim-1e308": {"model": {"name": "free", "dim": 1e308, "period_base": 7}},
    "free-dim-2-pow-63": {"model": {"name": "free", "dim": 2**63, "period_base": 7}},
    "period-base-one": {"model": {"name": "free", "dim": 1, "period_base": 1}},
    # a negative delta was refused as a cover radius, once every step had been solved
    "holder-constant-negative": {
        "model": AM_CF, "delta_mode": "holder", "holder_constant": -1.0, "holder_frequency": 0.618
    },
    "model-not-an-object": {"model": "cantor"},
    "model-without-name": {"model": {"coupling": 1.0}},
    "explicit-without-deltas": {"model": FREE_1D, "delta_mode": "explicit"},
    "explicit-deltas-one-short": {"model": FREE_1D, "delta_mode": "explicit", "deltas": [0.0, 0.0]},
    "holder-without-frequency": {"model": AM_CF, "delta_mode": "holder", "holder_constant": 1.0},
    "unknown-delta-mode": {"model": FREE_1D, "delta_mode": "guess"},
    "lebesgue-extra-key": {"measure": {"type": "lebesgue", "atoms": [0.5]}},
}

# The bands counterparts, with the error each must give: int() truncated or parsed each
# integer case and float() took each real one, and the run printed the bands of what it
# made of them; the huge coupling overflowed instead (exit 1).
INT, REAL = "must be an integer", "must be a real number"
MALFORMED_BANDS = {
    "frequency-fraction": (INT, {"model": {"name": "almost_mathieu", "coupling": 1.0, "frequency": [1.5, 2.9]}}),
    "periods-fraction": (INT, {"model": {"name": "potential", "dim": 1, "periods": [2.7], "cell": [0.0, 1.0]}}),
    "free-periods-fraction": (INT, {"model": {"name": "free", "dim": 1, "periods": [4.5]}}),
    "level-fraction": (INT, {"model": {"name": "fibonacci", "level": 3.7, "coupling": 1.0}}),
    "grid-points-fraction": (INT, {"model": {"name": "free", "dim": 2, "periods": [2, 2]}, "grid_points": 8.7}),
    "dim-bool": (INT, {"model": {"name": "free", "dim": True, "periods": [2]}}),
    "potential-dim-bool": (INT, {"model": {"name": "potential", "dim": True, "periods": [2], "cell": [0.0, 1.0]}}),
    "periods-string": (INT, {"model": {"name": "free", "dim": 1, "periods": ["4"]}}),
    "coupling-bool": (REAL, {"model": {"name": "fibonacci", "level": 3, "coupling": True}}),
    "coupling-string": (REAL, {"model": {"name": "almost_mathieu", "coupling": "2.5", "frequency": [1, 3]}}),
    "offset-string": (REAL, {"model": {"name": "almost_mathieu", "coupling": 1, "frequency": [1, 3], "offset": "0.1"}}),
    "cell-string": (REAL, {"model": {"name": "potential", "dim": 1, "periods": [2], "cell": ["0", 1.0]}}),
    "coupling-huge-int": (REAL, {"model": {"name": "fibonacci", "level": 3, "coupling": 10**400}}),
    # np.prod wrapped the cell volume in int64: to 0, refused only as a reshape failure, and below 0
    "cell-count-wraps-to-zero": (
        "cell must hold 18446744073709551616 values, got 0",
        {"model": {"name": "potential", "dim": 2, "periods": [2**32, 2**32], "cell": []}},
    ),
    "cell-count-wraps-negative": (
        "cell must hold 13835058055282163712 values, got 1",
        {"model": {"name": "potential", "dim": 2, "periods": [3, 2**62], "cell": [0.0]}},
    ),
}

# One-dimensional models of each command: their two exact fibers take no grid_points.
ONE_DIM_BANDS = {
    "free": {"name": "free", "dim": 1, "periods": [4]},
    "fibonacci": {"name": "fibonacci", "level": 10, "coupling": 1.0},
    "almost_mathieu": {"name": "almost_mathieu", "coupling": 0.5, "frequency": [1, 3]},
    "potential": {"name": "potential", "dim": 1, "periods": [2], "cell": [0.0, 1.0]},
}
ONE_DIM_MEASURE = {"free": FREE_1D, "fibonacci": {"name": "fibonacci", "coupling": 1.0}, "almost_mathieu": AM_CF}

# Keys of the fiber pipeline, with a valid value each; set models reject them.
OPERATOR_ONLY = {
    "delta_mode": "explicit",
    "deltas": [0.1, 0.1, 0.1],
    "phase": 0.3,
    "strategy": "grid",
    "grid_points": 8,
    "holder_constant": 1.0,
    "holder_frequency": 0.5,
}


class TestHausdorff:
    def test_distance_printed(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", [[0.0, 1.0]])
        b = write_json(tmp_path / "b.json", [[0.0, 1.0], [2.0, 2.5]])
        assert main(["hausdorff", a, b]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.5)

    def test_point_list_accepted(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", [0.0, 1.0])
        b = write_json(tmp_path / "b.json", [[0.0, 1.0]])
        assert main(["hausdorff", a, b]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5)

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", [0.0])
        assert main(["hausdorff", a, str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_set_rejected(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"lo": 0, "hi": 1})
        b = write_json(tmp_path / "b.json", [0.0])
        assert main(["hausdorff", a, b]) == 2

    # float() overflowed on each of these integers (exit 1)
    @pytest.mark.parametrize("obj", [[10**400, 1], [[0, 10**400]]], ids=["point", "pair"])
    def test_integer_beyond_the_float_range_rejected(self, tmp_path, capsys, obj):
        a = write_json(tmp_path / "a.json", obj)
        b = write_json(tmp_path / "b.json", [0.0])
        assert main(["hausdorff", a, b]) == 2
        assert "must be a list of real numbers" in capsys.readouterr().err

    def test_empty_set_rejected(self, tmp_path):
        a = write_json(tmp_path / "a.json", [])
        b = write_json(tmp_path / "b.json", [0.0])
        assert main(["hausdorff", a, b]) == 2


class TestMeasureCommand:
    def test_cantor_run(self, tmp_path, capsys):
        cfg = measure_config(tmp_path)
        assert main(["measure", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "estimate:" in out
        assert "criterion_flag: true" in out

        with open(tmp_path / "out.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "delta", "q", "r", "mu_raw", "mu_fattened", "q_times_delta"]
        assert len(rows) == 11
        # fattening by 3^-n merges sibling pairs: 2.5 * (2/3)^n
        assert float(rows[1][5]) == pytest.approx(2.5 * 2.0 / 3.0, abs=1e-12)

        summary = json.loads((tmp_path / "out.json").read_text())["summary"]
        assert summary["corollary"]["flag"] is True
        assert summary["corollary"]["estimate"] == pytest.approx((2.0 / 3.0) ** 10)

    @pytest.mark.parametrize(
        "overrides, code",
        [
            ({"model": {"name": "fibonacci", "coupling": 1e308}, "n_max": 3}, 2),
            ({"n_max": 3, "measure": {"type": "atomic", "atoms": [0.0, 1.0], "weights": [1e308, 1e308]}}, 3),
            (
                {"model": {"name": "fibonacci", "coupling": 1.0}, "n_max": 3, "delta_mode": "explicit",
                 "deltas": [1e308] * 3},
                3,
            ),
        ],
        ids=["fibonacci-coupling", "atomic-weights", "explicit-deltas"],
    )
    def test_overflow_reported_by_its_exit_code_alone(self, tmp_path, capsys, overrides, code):
        # numpy warns as each sum overflows; under warnings as errors the warning escaped main
        assert main(["measure", "--config", measure_config(tmp_path, **overrides)]) == code
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "out.csv").exists()

    def test_no_band_union_writes_nan_raw_measure(self, tmp_path, capsys):
        # explicit deltas in 2-d compute no band union, so there is no raw measure
        assert main(["measure", "--config", measure_config(tmp_path, **FREE_2D_EXPLICIT)]) == 0
        with open(tmp_path / "out.csv", newline="") as fh:
            assert [row["mu_raw"] for row in csv.DictReader(fh)] == ["nan", "nan"]
        text = (tmp_path / "out.json").read_text()
        assert text.count('"mu_raw": NaN,') == 2
        assert all(math.isnan(row["mu_raw"]) for row in json.loads(text)["rows"])

    def test_grid_model_stalls_criterion(self, tmp_path, capsys):
        cfg = measure_config(tmp_path, model={"name": "grid"}, n_max=30)
        assert main(["measure", "--config", cfg]) == 0
        assert "criterion_flag: false" in capsys.readouterr().out

    def test_free_model_explicit_zero_deltas(self, tmp_path, capsys):
        cfg = measure_config(
            tmp_path,
            model={"name": "free", "dim": 1, "period_base": 2},
            n_min=1,
            n_max=6,
            delta_mode="explicit",
            deltas=[0.0] * 6,
        )
        assert main(["measure", "--config", cfg]) == 0
        with open(tmp_path / "out.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            p = int(row["q"])
            assert float(row["mu_raw"]) == pytest.approx(4.0, abs=1e-9)
            assert float(row["mu_fattened"]) == pytest.approx(4.0 + 8 * math.pi / p, abs=1e-9)

    def test_almost_mathieu_proxy(self, tmp_path, capsys):
        cfg = measure_config(
            tmp_path,
            model={"name": "almost_mathieu", "coupling": 0.5, "frequency_cf": [0] + [1] * 12},
            n_min=1,
            n_max=6,
        )
        assert main(["measure", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "estimate:" in out
        summary = json.loads((tmp_path / "out.json").read_text())["summary"]
        assert summary["delta_mode"] == "proxy"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = measure_config(tmp_path, bogus=1)
        assert main(["measure", "--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_required_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "config.json", {"model": {"name": "cantor"}})
        assert main(["measure", "--config", cfg]) == 2
        assert "missing keys" in capsys.readouterr().err

    def test_bad_n_range_rejected(self, tmp_path):
        cfg = measure_config(tmp_path, n_min=5, n_max=2)
        assert main(["measure", "--config", cfg]) == 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, literal):
        cfg = measure_config(tmp_path, phase="PHASE")
        path = tmp_path / "config.json"
        path.write_text(path.read_text().replace('"PHASE"', literal))
        assert main(["measure", "--config", cfg]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tail", [0, -2])
    def test_tail_below_one_rejected(self, tmp_path, capsys, tail):
        cfg = measure_config(tmp_path, n_max=5, tail=tail)
        assert main(["measure", "--config", cfg]) == 2
        assert "tail" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "text, message",
        [('{"n_min": 1,', "invalid JSON in "), ("[1, 2]", "config must be a JSON object")],
        ids=["invalid-json", "not-an-object"],
    )
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["measure", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_lebesgue_measure_is_the_default(self, tmp_path):
        written = []
        for spec in ({}, {"measure": {"type": "lebesgue"}}):
            assert main(["measure", "--config", measure_config(tmp_path, n_max=4, **spec)]) == 0
            written.append([(tmp_path / name).read_bytes() for name in ("out.csv", "out.json")])
        assert written[0] == written[1]

    def test_unknown_measure_type_rejected(self, tmp_path):
        cfg = measure_config(tmp_path, measure={"type": "counting"})
        assert main(["measure", "--config", cfg]) == 2

    def test_density_measure_accepted(self, tmp_path, capsys):
        cfg = measure_config(
            tmp_path,
            measure={"type": "density", "breakpoints": [0.0, 1.0], "values": [2.0]},
        )
        assert main(["measure", "--config", cfg]) == 0
        with open(tmp_path / "out.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # density 2 on [0, 1] doubles the level-1 fattened value inside
        assert float(rows[0]["mu_fattened"]) > float(rows[0]["mu_raw"])
        # the corollary estimate is the last raw measure in the configured measure;
        # the CSV holds it to 15 significant digits, the JSON rows in full
        report = json.loads((tmp_path / "out.json").read_text())
        corollary = report["summary"]["corollary"]
        assert corollary["flag"] is True
        assert corollary["estimate"] == report["rows"][-1]["mu_raw"]
        assert f"{corollary['estimate']:.15g}" == rows[-1]["mu_raw"]
        assert corollary["estimate"] == pytest.approx(2.0 * (2.0 / 3.0) ** 10)

    @pytest.mark.parametrize("overrides", MALFORMED_MEASURE.values(), ids=MALFORMED_MEASURE.keys())
    def test_malformed_value_is_usage_error(self, tmp_path, capsys, monkeypatch, overrides):
        # every refusal comes before the first solve: "deltas-negative" once solved every step first
        solves = []
        solve = floquet._solve_block
        monkeypatch.setattr(floquet, "_solve_block", lambda *args: solves.append(args) or solve(*args))
        cfg = measure_config(tmp_path, **{"n_max": 3, **overrides})
        assert main(["measure", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert solves == []
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "case, key",
        [
            ("holder-frequency-overflow", "holder_frequency"),
            ("tail-tol-zero", "tail_tol must be positive"),
            ("criterion-tol-negative", "criterion_tol must be positive"),
            ("model-not-an-object", "model must be an object with a name"),
            ("model-without-name", "model must be an object with a name"),
            ("explicit-without-deltas", "explicit delta_mode needs a deltas list, one per step"),
            ("explicit-deltas-one-short", "explicit delta_mode needs a deltas list, one per step"),
            ("holder-without-frequency", "holder delta_mode needs holder_constant and holder_frequency"),
            ("unknown-delta-mode", "unknown delta_mode: 'guess'"),
            ("lebesgue-extra-key", "unknown keys in measure: ['atoms']"),
        ],
    )
    def test_refusal_names_the_key(self, tmp_path, capsys, case, key):
        cfg = measure_config(tmp_path, **{"n_max": 3, **MALFORMED_MEASURE[case]})
        assert main(["measure", "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    def test_overflowing_measure_is_numerical_failure(self, tmp_path, capsys):
        # each density value is finite, but 5/3 of 1.5e308 on the fattened level-1 set is not
        density = {"type": "density", "breakpoints": [-1.0, 2.0], "values": [1.5e308]}
        cfg = measure_config(tmp_path, n_max=3, measure=density)
        assert main(["measure", "--config", cfg]) == 3
        assert "step 1: mu_fattened is inf, not finite" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("key", OPERATOR_ONLY)
    @pytest.mark.parametrize("model", ["cantor", "grid"])
    def test_set_model_rejects_operator_key(self, tmp_path, capsys, model, key):
        cfg = measure_config(tmp_path, model={"name": model}, n_max=3, **{key: OPERATOR_ONLY[key]})
        assert main(["measure", "--config", cfg]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("delta_mode", ["proxy", "explicit"])
    @pytest.mark.parametrize("model", ONE_DIM_MEASURE.values(), ids=ONE_DIM_MEASURE.keys())
    def test_one_dimensional_run_refuses_grid_points(self, tmp_path, capsys, model, delta_mode):
        cfg = measure_config(tmp_path, model=model, n_max=3, grid_points=16, delta_mode=delta_mode, deltas=[0.1] * 3)
        assert main(["measure", "--config", cfg]) == 2
        assert "take no grid_points" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_linalg_failure_is_exit_three(self, tmp_path, capsys, monkeypatch):
        # LinAlgError is a ValueError: main must test numerical failures first
        def boom(*a, **k):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(floquet, "estimate_measure_via_fibers", boom)
        cfg = measure_config(tmp_path, model=FREE_1D, n_max=3)
        assert main(["measure", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model", [FREE_1D, {"name": "fibonacci", "coupling": 1.0}, {"name": "cantor"}], ids=lambda m: m["name"]
    )
    def test_holder_needs_almost_mathieu(self, tmp_path, capsys, model):
        cfg = measure_config(
            tmp_path, model=model, n_max=3, delta_mode="holder", holder_constant=1.0, holder_frequency=0.5
        )
        assert main(["measure", "--config", cfg]) == 2
        assert "holder" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_almost_mathieu_holder(self, tmp_path, capsys):
        target = (5**0.5 - 1) / 2
        cfg = measure_config(
            tmp_path,
            model={"name": "almost_mathieu", "coupling": 0.5, "frequency_cf": GOLDEN_CF},
            n_max=6,
            delta_mode="holder",
            holder_constant=2.0,
            holder_frequency=target,
        )
        assert main(["measure", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["summary"]["delta_mode"] == "holder"
        for row, conv in zip(report["rows"], models.convergents(GOLDEN_CF, 6)):
            assert row["q"] == conv.denominator
            assert row["delta"] == pytest.approx(2.0 * abs(target - conv) ** 0.5, rel=1e-12)


class TestBandsCommand:
    def test_zero_denominator_frequency_refused(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bands.json",
            {
                "model": {"name": "almost_mathieu", "coupling": 1, "frequency": [1, 0]},
                "output_csv": str(tmp_path / "bands.csv"),
            },
        )
        assert main(["bands", "--config", cfg]) == 2
        assert "error: frequency denominator must be nonzero" in capsys.readouterr().err
        assert not (tmp_path / "bands.csv").exists()

    def test_level_38_refused_before_its_cell(self, tmp_path, capsys, monkeypatch):
        # its banded fiber, 1.5e9 bytes, fit a 7.83 GiB host, but its sweep and bands as Python floats do not
        monkeypatch.setattr(floquet, "MAX_FIBER_BYTES", int(7.83 * 2**30))
        forbid_allocation(monkeypatch)  # the builder runs and refuses before it allocates the cell
        cfg = write_json(
            tmp_path / "bands.json",
            {"model": {"name": "fibonacci", "level": 38, "coupling": 1.0}, "output_csv": str(tmp_path / "bands.csv")},
        )
        assert main(["bands", "--config", cfg]) == 2
        assert "the 63245986 sites of Fibonacci level 38 need 1.518e+10 bytes" in capsys.readouterr().err
        assert not (tmp_path / "bands.csv").exists()

    def test_band_floats_held_only_for_json(self, tmp_path, capsys):
        # the CSV is written from the band array one row at a time; only a JSON holds every band as Python floats
        peaks = []
        for files in ({}, {"output_json": str(tmp_path / "bands.json")}):
            model = {"name": "fibonacci", "level": 16, "coupling": 1.0}
            cfg = write_json(tmp_path / "config.json", {"model": model, "output_csv": str(tmp_path / "b.csv"), **files})
            assert main(["bands", "--config", cfg]) == 0  # imports and caches come first
            tracemalloc.start()
            try:
                assert main(["bands", "--config", cfg]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]

    def test_oversize_fibonacci_level_refused(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bands.json",
            {"model": {"name": "fibonacci", "level": 60, "coupling": 1.0}, "output_csv": str(tmp_path / "bands.csv")},
        )
        assert main(["bands", "--config", cfg]) == 2
        assert "the 2504730781961 sites of Fibonacci level 60 need 6.011e+14 bytes" in capsys.readouterr().err
        assert not (tmp_path / "bands.csv").exists()

    def test_oversize_phase_grid_refused_before_its_indices(self, tmp_path, capsys, monkeypatch):
        def no_arange(*args, **kwargs):
            raise AssertionError("the phase grid was built")

        monkeypatch.setattr(np, "arange", no_arange)  # the grid's first array
        cfg = write_json(
            tmp_path / "bands.json",
            {
                "model": {"name": "potential", "dim": 2, "periods": [1, 1], "cell": [0]},
                "grid_points": 100000,
                "output_csv": str(tmp_path / "bands.csv"),
            },
        )
        assert main(["bands", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "the mask, int64 indices and phases of the 100000^2 phase grid need 1.700e+11 bytes" in err
        assert not (tmp_path / "bands.csv").exists()

    @pytest.mark.parametrize("model", ONE_DIM_BANDS.values(), ids=ONE_DIM_BANDS.keys())
    def test_one_dimensional_cell_refuses_grid_points(self, tmp_path, capsys, model):
        # the exact fibers ignored it, so a grid_points that changed nothing was accepted
        cfg = write_json(
            tmp_path / "bands.json", {"model": model, "grid_points": 16, "output_csv": str(tmp_path / "bands.csv")}
        )
        assert main(["bands", "--config", cfg]) == 2
        assert "take no grid_points" in capsys.readouterr().err
        assert not (tmp_path / "bands.csv").exists()

    def test_free_period_four(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bands.json",
            {
                "model": {"name": "free", "dim": 1, "periods": [4]},
                "output_csv": str(tmp_path / "bands.csv"),
                "output_json": str(tmp_path / "bands_report.json"),
            },
        )
        assert main(["bands", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "bands: 4" in out
        assert "violations: 0" in out
        with open(tmp_path / "bands.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "lo", "hi", "width"]
        assert float(rows[1][1]) == pytest.approx(-2.0, abs=1e-12)
        assert float(rows[4][2]) == pytest.approx(2.0, abs=1e-12)
        report = json.loads((tmp_path / "bands_report.json").read_text())
        assert report["bandwidth_bound"] == pytest.approx(math.pi)
        assert report["violations"] == []

    def test_csv_fields_carry_15_significant_digits(self, tmp_path, capsys):
        model = {"name": "almost_mathieu", "coupling": 1.0, "frequency": [1, 3]}
        cfg = write_json(tmp_path / "bands.json", {"model": model, "output_csv": str(tmp_path / "bands.csv")})
        assert main(["bands", "--config", cfg]) == 0
        spec = floquet.band_spectrum(models.almost_mathieu(1.0, (1, 3)))
        lines = [f"{i},{lo:.15g},{hi:.15g},{hi - lo:.15g}" for i, (lo, hi) in enumerate(spec.bands)]
        assert (tmp_path / "bands.csv").read_bytes() == "\r\n".join(["i,lo,hi,width", *lines, ""]).encode()
        assert lines[0].split(",")[1] == "-2.44948974278318"  # -sqrt(6), exact in 15 digits far above solver error

    @pytest.mark.parametrize("message,overrides", MALFORMED_BANDS.values(), ids=MALFORMED_BANDS.keys())
    def test_malformed_value_is_usage_error(self, tmp_path, capsys, message, overrides):
        cfg = write_json(tmp_path / "bands.json", {"output_csv": str(tmp_path / "bands.csv"), **overrides})
        assert main(["bands", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bands.csv").exists()

    def test_almost_mathieu_bands(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bands.json",
            {
                "model": {"name": "almost_mathieu", "coupling": 0.5, "frequency": [1, 2]},
                "output_csv": str(tmp_path / "bands.csv"),
            },
        )
        assert main(["bands", "--config", cfg]) == 0
        assert "bands: 2" in capsys.readouterr().out

    def test_frequency_numerator_beyond_floats_runs_as_its_residue(self, tmp_path, capsys):
        # n * p / q overflowed in true division (exit 1), then was refused (exit 2); p mod q is 2
        runs = []
        for p in (2, 10**400 + 1):
            model = {"name": "almost_mathieu", "coupling": 1.0, "frequency": [p, 3]}
            cfg = write_json(tmp_path / "bands.json", {"model": model, "output_csv": str(tmp_path / "bands.csv")})
            assert main(["bands", "--config", cfg]) == 0
            runs.append((capsys.readouterr(), (tmp_path / "bands.csv").read_bytes()))
        assert runs[1] == runs[0]

    def test_two_dimensional_grid(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bands.json",
            {
                "model": {"name": "free", "dim": 2, "periods": [2, 2]},
                "grid_points": 8,
                "output_csv": str(tmp_path / "bands.csv"),
            },
        )
        assert main(["bands", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "bands: 4" in out
        assert "violations: 0" in out

    def test_literal_potential(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bands.json",
            {
                "model": {"name": "potential", "dim": 1, "periods": [3], "cell": [1.0, 0.0, -1.0]},
                "output_csv": str(tmp_path / "bands.csv"),
            },
        )
        assert main(["bands", "--config", cfg]) == 0
        assert "bands: 3" in capsys.readouterr().out

    def test_unknown_model_rejected(self, tmp_path):
        cfg = write_json(
            tmp_path / "bands.json",
            {"model": {"name": "harper"}, "output_csv": str(tmp_path / "x.csv")},
        )
        assert main(["bands", "--config", cfg]) == 2

    def test_set_model_rejected(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bands.json",
            {"model": {"name": "cantor"}, "output_csv": str(tmp_path / "x.csv")},
        )
        assert main(["bands", "--config", cfg]) == 2
        assert "unknown model: 'cantor'" in capsys.readouterr().err

    def test_numerical_failure_is_exit_three(self, tmp_path, capsys, monkeypatch):
        def boom(*a, **k):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(floquet, "band_spectrum", boom)
        cfg = write_json(
            tmp_path / "bands.json",
            {
                "model": {"name": "free", "dim": 1, "periods": [4]},
                "output_csv": str(tmp_path / "bands.csv"),
            },
        )
        assert main(["bands", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestModelRegistry:
    """Step n of a measure config builds the potential of the matching bands spec."""

    @pytest.mark.parametrize(
        "measure_model, bands_model",
        [
            (
                {"name": "free", "dim": 1, "period_base": 3},
                lambda n: {"name": "free", "dim": 1, "periods": [3**n]},
            ),
            (
                {"name": "free", "dim": 2, "period_base": 2},
                lambda n: {"name": "free", "dim": 2, "periods": [2**n] * 2},
            ),
            (
                {"name": "almost_mathieu", "coupling": 0.7, "frequency_cf": [0, 2, 1, 1, 3, 1], "offset": 0.2},
                lambda n: {
                    "name": "almost_mathieu",
                    "coupling": 0.7,
                    "frequency": list(models.convergents([0, 2, 1, 1, 3, 1], n)[-1].as_integer_ratio()),
                    "offset": 0.2,
                },
            ),
            (
                {"name": "fibonacci", "coupling": 1.5},
                lambda n: {"name": "fibonacci", "level": n, "coupling": 1.5},
            ),
        ],
        ids=["free-1d", "free-2d", "almost_mathieu", "fibonacci"],
    )
    def test_measure_step_matches_bands_spec(self, measure_model, bands_model):
        model = cli._model(measure_model, "measure")
        for n in range(1, 6):
            spec = bands_model(n)
            assert model.build(model.step(measure_model, n)) == cli._model(spec, "bands").build(spec)

    def test_operator_only_model_rejected_by_measure(self, tmp_path, capsys):
        model = {"name": "potential", "dim": 1, "periods": [2], "cell": [0.0, 1.0]}
        cfg = measure_config(tmp_path, model=model, n_max=2)
        assert main(["measure", "--config", cfg]) == 2
        assert "unknown model: 'potential'" in capsys.readouterr().err


class TestMeasureRunSize:
    """A measure run builds its last step, its largest, first, so that build is the run's size check and
    refuses an oversize run before it allocates; then it builds steps 1 to N - 1 in order, each only after
    the report has let go of the one before."""

    @pytest.mark.parametrize(
        "model, n_max, what",
        [
            ({"name": "cantor"}, 40, "the 2^40 intervals of middle-thirds level 40"),
            ({"name": "fibonacci", "coupling": 1.0}, 60, "the 2504730781961 sites of Fibonacci level 60"),
            # 3^(10^9) alone takes hours to compute; the run is sized without it
            ({"name": "free", "dim": 1, "period_base": 3}, 10**9, "sites of a 1-d free cell"),
            # the fifth convergent's denominator is 5 * 10^15 + 3
            ({**AM_CF, "frequency_cf": [0, 1, 1, 1, 1, 10**15]}, 5, "the 5000000000000003 sites of an almost-Mathieu"),
        ],
        ids=["cantor", "fibonacci", "free", "almost_mathieu"],
    )
    def test_oversize_run_refused_before_step_one(self, tmp_path, capsys, monkeypatch, model, n_max, what):
        assert main(["measure", "--config", measure_config(tmp_path, model=model, n_max=4)]) == 0  # a valid model
        (tmp_path / "out.csv").unlink()
        capsys.readouterr()
        forbid_allocation(monkeypatch)  # the last step's builder runs and refuses before it allocates
        assert main(["measure", "--config", measure_config(tmp_path, model=model, n_max=n_max)]) == 2
        err = capsys.readouterr().err
        assert what in err and " bytes, memory holds " in err
        assert not (tmp_path / "out.csv").exists()

    def test_set_run_holds_one_step(self, tmp_path, capsys, monkeypatch):
        alive, levels = [], []
        build = models.cantor_approximation

        def recording(level):
            assert [ref() for ref in alive] == [None] * len(alive), f"a step is alive when level {level} is built"
            rec = build(level)
            levels.append(level)
            alive.extend((weakref.ref(rec), weakref.ref(rec.set.lows)))  # the record and its set's endpoints
            return rec

        monkeypatch.setattr(models, "cantor_approximation", recording)
        assert main(["measure", "--config", measure_config(tmp_path, n_max=6)]) == 0
        assert levels == [6, 1, 2, 3, 4, 5]
        assert len(alive) == 12

    def test_operator_run_holds_one_step(self, tmp_path, capsys, monkeypatch):
        # a proxy run builds its last step first and keeps only that step's row and band union
        alive, levels = [], []
        build = models.fibonacci_potential

        def recording(level, coupling):
            assert [ref() for ref in alive] == [None] * len(alive), f"a cell is alive when level {level} is built"
            v = build(level, coupling)
            levels.append(level)
            alive.append(weakref.ref(v.cell))
            return v

        monkeypatch.setattr(models, "fibonacci_potential", recording)
        cfg = measure_config(tmp_path, model={"name": "fibonacci", "coupling": 1.0}, n_max=6)
        assert main(["measure", "--config", cfg]) == 0
        assert levels == [6, 1, 2, 3, 4, 5]

    DENSITY = {"type": "density", "breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 3.0]}

    FIBONACCI_17 = {"model": {"name": "fibonacci", "coupling": 1.0}, "n_min": 1, "n_max": 17}
    COMPLEX_COVER = {**FIBONACCI_17, "phase": 0.3}

    @pytest.mark.parametrize(
        "command, overrides, workers",
        [
            ("measure", {"model": {"name": "cantor"}, "n_min": 1, "n_max": 16}, None),
            # a density measure clips the components that meet each of its pieces, a block at a time
            ("measure", {"model": {"name": "cantor"}, "n_min": 15, "n_max": 16, "measure": DENSITY}, None),
            ("measure", {"model": {"name": "grid"}, "n_min": 99998, "n_max": 100000}, None),
            (
                "measure",
                {
                    "model": {"name": "grid"}, "n_min": 99999, "n_max": 100000,
                    "measure": {"type": "atomic", "atoms": [0.0, 0.5], "weights": [1.0, 2.0]},
                },
                None,
            ),
            ("measure", {"model": {"name": "grid", "solid_to": 0.3}, "n_min": 99998, "n_max": 100000}, None),
            ("measure", FIBONACCI_17, None),
            # a cover phase off {0, 1/2} adds a complex fiber to each step's sweep, solved beside both real ones from
            # three workers up: the charge holds whatever number of workers the host's BLAS gives
            ("measure", COMPLEX_COVER, 2),
            ("measure", COMPLEX_COVER, 3),
            ("measure", COMPLEX_COVER, 4),
            # the CSV writer's fixed 128 KiB adds 19 bytes per site at level 19
            ("bands", {"model": {"name": "fibonacci", "level": 19, "coupling": 1.0}}, None),
        ],
        ids=[
            "cantor", "cantor-density", "grid", "grid-atomic", "grid-solid-to", "fibonacci-proxy",
            *[f"fibonacci-proxy-complex-cover-{n}-workers" for n in (2, 3, 4)], "fibonacci-bands",
        ],
    )
    def test_run_peak_at_most_the_charge_of_its_last_step(
        self, tmp_path, capsys, monkeypatch, command, overrides, workers
    ):
        if workers:  # the number of workers a sweep takes from numpy's BLAS
            monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: workers, lambda n: None))
        charges = []
        check = models.check_bytes
        monkeypatch.setattr(models, "check_bytes", lambda need, what: charges.append(need) or check(need, what))
        if command == "bands":
            files = {"output_csv": str(tmp_path / "bands.csv"), "output_json": str(tmp_path / "bands.json")}
            cfg = write_json(tmp_path / "bands-config.json", {**overrides, **files})
        else:
            cfg = measure_config(tmp_path, **overrides)
        assert main([command, "--config", cfg]) == 0  # imports and caches come first
        charges.clear()
        tracemalloc.start()
        try:
            assert main([command, "--config", cfg]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charges[0] == max(charges)  # the first charge, the last step's, is the largest

    def test_operator_run_peak_per_site_of_its_last_step(self, tmp_path, capsys):
        # a proxy run sweeps its last step first and keeps only that step's row and band union, so it
        # peaks in that sweep, near 130 bytes per site of the last step (200 are charged)
        cfg = measure_config(tmp_path, model={"name": "fibonacci", "coupling": 1.0}, n_min=1, n_max=18)
        assert main(["measure", "--config", cfg]) == 0  # imports and caches come first
        tracemalloc.start()
        try:
            assert main(["measure", "--config", cfg]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150 * models.check_fibonacci(18)

    def test_complex_cover_run_peak_per_site_of_its_last_step(self, tmp_path, capsys, monkeypatch):
        # at phase 0.3 each step's sweep solves its complex cover fiber on one of two workers beside the real pair
        # on the other; that worker holds its first row as both band edges until the second arrives, so the run
        # peaks near 177 bytes per site of the last step, where making the edges beside the first solves took 186
        monkeypatch.setattr(floquet, "_blas_threads", lambda: (lambda: 2, lambda n: None))
        cfg = measure_config(tmp_path, model={"name": "fibonacci", "coupling": 1.0}, n_min=1, n_max=18, phase=0.3)
        assert main(["measure", "--config", cfg]) == 0  # imports and caches come first
        tracemalloc.start()
        try:
            assert main(["measure", "--config", cfg]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 181 * models.check_fibonacci(18)

    def test_set_run_peak_per_interval_of_its_last_step(self, tmp_path, capsys):
        # a Cantor run peaks at its last level, holding the set, 16 bytes per interval, its cover, 8, a 1-byte
        # mask and one block of temporaries: near 25 bytes per interval
        cfg = measure_config(tmp_path, model={"name": "cantor"}, n_min=1, n_max=18)
        assert main(["measure", "--config", cfg]) == 0  # imports and caches come first
        tracemalloc.start()
        try:
            assert main(["measure", "--config", cfg]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 2**18


class TestDimensionCommand:
    @pytest.fixture()
    def cantor_csv(self, tmp_path, capsys):
        cfg = measure_config(tmp_path, n_max=12)
        assert main(["measure", "--config", cfg]) == 0
        capsys.readouterr()
        return str(tmp_path / "out.csv")

    def test_last_method_bound(self, cantor_csv, capsys):
        assert main(["dimension", "--stats", cantor_csv, "--method", "last"]) == 0
        out = capsys.readouterr().out
        bound = float(out.split("bound:")[1].split()[0])
        assert 0.625 < bound < 0.64

    def test_direct_method_with_json(self, cantor_csv, tmp_path, capsys):
        report = str(tmp_path / "dim.json")
        rc = main(["dimension", "--stats", cantor_csv, "--method", "direct", "--json", report])
        assert rc == 0
        obj = json.loads((tmp_path / "dim.json").read_text())
        assert obj["method"] == "direct"
        assert 0.625 < obj["bound"] < 0.64
        assert obj["window"][1] == 12

    def test_too_few_rows_rejected(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("n,q,delta,r,mu_fattened\n1,2,0.5,0.5,3.0\n2,4,0.25,0.25,2.0\n")
        assert main(["dimension", "--stats", str(path), "--method", "last"]) == 2

    def test_missing_stats_file(self, tmp_path):
        assert main(["dimension", "--stats", str(tmp_path / "no.csv"), "--method", "last"]) == 2

    @pytest.mark.parametrize("method", ["last", "direct"])
    @pytest.mark.parametrize("column", ["delta", "r", "mu_fattened"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_stat_rejected(self, tmp_path, capsys, method, column, value):
        rows = [
            {"n": n, "q": 2**n, "delta": 2.0**-n, "r": 3.0**-n, "mu_fattened": (2 / 3) ** n} for n in range(1, 5)
        ]
        path = tmp_path / "stats.csv"

        def run():
            with open(path, "w", newline="") as fh:
                w = csv.DictWriter(fh, fieldnames=list(rows[0]))
                w.writeheader()
                w.writerows(rows)
            return main(["dimension", "--stats", str(path), "--method", method, "--tail-fraction", "1"])

        assert run() == 0
        capsys.readouterr()
        rows[0][column] = value
        assert run() == 2
        assert f"error: stats column {column} holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["last", "direct"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_nonpositive_count_rejected(self, tmp_path, capsys, method, count):
        # last once exited 3 after LAPACK's DLASCL complaints; direct exited 0 with a residual of nan
        rows = [f"{n},{count if n == 1 else 2**n},{2.0**-n},{3.0**-n},{(2 / 3) ** n}" for n in range(1, 5)]
        path = tmp_path / "stats.csv"
        path.write_text("n,q,delta,r,mu_fattened\n" + "\n".join(rows) + "\n")
        assert main(["dimension", "--stats", str(path), "--method", method, "--tail-fraction", "1"]) == 2
        assert capsys.readouterr().err == "error: component counts must be positive\n"


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["measure", "bands"])
    @pytest.mark.parametrize("key", ["output_csv", "output_json"])
    def test_non_string_path_refused_before_writing(self, tmp_path, capsys, command, key):
        # open() takes an integer as a file descriptor: the run wrote into it and closed it
        # (with descriptor 1 the run then failed on its next print, after writing)
        r, w = os.pipe()
        try:
            if command == "measure":
                cfg = measure_config(tmp_path, n_max=3, **{key: w})
            else:
                spec = {"model": {"name": "free", "dim": 1, "periods": [2]}, "output_csv": str(tmp_path / "bands.csv")}
                cfg = write_json(tmp_path / "bands.json", {**spec, key: w})
            assert main([command, "--config", cfg]) == 2
            assert f"{key} must be a path string" in capsys.readouterr().err
            os.fstat(w)  # still open
            os.set_blocking(r, False)
            with pytest.raises(BlockingIOError):  # and empty
                os.read(r, 1)
        finally:
            for fd in (r, w):
                try:
                    os.close(fd)
                except OSError:
                    pass


class TestOnePhaseSetPerRun:
    """The phase set depends only on the dimension and the grid points, so a run with band sweeps
    builds it once.  An explicit-delta 2-d run sweeps no bands and builds none."""

    RUNS = {
        "bands-1d": ("bands", {"model": {"name": "fibonacci", "level": 8, "coupling": 1.0}}, 1),
        "bands-2d": ("bands", {"model": {"name": "free", "dim": 2, "periods": [3, 3]}, "grid_points": 8}, 1),
        "measure-1d-proxy": ("measure", {"model": FREE_1D, "n_max": 3}, 1),
        "measure-1d-explicit": (
            "measure", {"model": FREE_1D, "n_max": 3, "delta_mode": "explicit", "deltas": [0.1] * 3}, 1
        ),
        "measure-2d-proxy": ("measure", {"model": FREE_2D_EXPLICIT["model"], "n_max": 2, "grid_points": 8}, 1),
        "measure-2d-explicit": ("measure", {**FREE_2D_EXPLICIT, "grid_points": 8}, 0),
    }

    @pytest.mark.parametrize("command, overrides, builds", RUNS.values(), ids=RUNS.keys())
    def test_phase_set_built_once(self, tmp_path, capsys, monkeypatch, command, overrides, builds):
        calls = []
        phase_set = floquet._phase_set
        monkeypatch.setattr(floquet, "_phase_set", lambda *args: calls.append(args) or phase_set(*args))
        if command == "bands":
            cfg = write_json(tmp_path / "bands.json", {"output_csv": str(tmp_path / "bands.csv"), **overrides})
        else:
            cfg = measure_config(tmp_path, **overrides)
        assert main([command, "--config", cfg]) == 0
        assert len(calls) == builds

    # the run built the whole grid only to refuse a bad grid_points: 500002 phases at 1000 points
    @pytest.mark.parametrize(
        "grid_points, message",
        [(1, "a phase grid needs at least 2 points per axis"), (10**7, "phase grid need 1.700e+15 bytes")],
        ids=["one-point", "oversize"],
    )
    def test_explicit_2d_run_checks_grid_points_without_a_grid(
        self, tmp_path, capsys, monkeypatch, grid_points, message
    ):
        monkeypatch.setattr(floquet, "_grid", lambda *args: pytest.fail("the phase grid was built"))
        cfg = measure_config(tmp_path, **FREE_2D_EXPLICIT, grid_points=grid_points)
        assert main(["measure", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestThreadsEnv:
    def test_worker_count_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        cfg = write_json(
            tmp_path / "bands.json",
            {
                "model": {"name": "free", "dim": 2, "periods": [3, 3]},
                "grid_points": 16,  # 130 phases, more than one block
                "output_csv": str(tmp_path / "bands.csv"),
            },
        )
        assert main(["bands", "--config", cfg]) == 0
        serial = (tmp_path / "bands.csv").read_bytes(), capsys.readouterr().out
        for value in ("2", "many"):  # the variable is not read
            monkeypatch.setenv("SPECAPPROX_THREADS", value)
            assert main(["bands", "--config", cfg]) == 0
            assert ((tmp_path / "bands.csv").read_bytes(), capsys.readouterr().out) == serial


class TestConsoleScript:
    """Fresh interpreters, so that what a run imports shows in sys.modules: importing scipy.linalg costs
    0.3 s and about 28 MB, and a run imports it only where numpy's own LAPACK has no ILP64 banded solver."""

    def run_fresh(self, tmp_path, fallback=False):
        """The '@' lines one interpreter prints, and the bytes its 1-d runs write.  It runs a cantor
        measure and a 2-d bands, then a 1-d measure whose cover fiber is complex and a 1-d bands; after
        each pair it prints whether 'scipy' is in sys.modules, then whether the banded solver falls back
        to scipy's, and last BLAS's thread count, the workers a sweep starts.  With ``fallback`` the lookup
        of numpy's LAPACK routines finds none, as the ``fallback`` fixture of test_floquet.py hides them;
        BLAS's thread symbols are still found."""
        out = tmp_path / ("fallback" if fallback else "lapack")
        out.mkdir()
        cantor = measure_config(out, n_max=4)
        fib = {"name": "fibonacci", "coupling": 1.0}
        outputs = {"output_csv": str(out / "measure.csv"), "output_json": str(out / "measure.json")}
        measure = write_json(out / "fib.json", {"model": fib, "n_min": 1, "n_max": 10, "phase": 0.3, **outputs})
        bands_2d = {"model": {"name": "free", "dim": 2, "periods": [2, 2]}, "output_csv": str(out / "bands-2d.csv")}
        bands_2d = write_json(out / "bands-2d.json", bands_2d)
        bands_1d = {"model": {**fib, "level": 12}, "output_csv": str(out / "bands.csv")}
        bands_1d = write_json(out / "bands-1d.json", bands_1d)
        script = (
            "import sys\n"
            "from specapprox import floquet\n"
            "from specapprox.cli import main\n"
            f"if {fallback}:\n"
            "    symbols = floquet._numpy_symbols\n"
            "    def found(templates, names):\n"
            "        return None if set(floquet._LAPACK_ARGS) & set(names) else symbols(templates, names)\n"
            "    floquet._numpy_symbols = found\n"
            f"main(['measure', '--config', {cantor!r}]); main(['bands', '--config', {bands_2d!r}])\n"
            "print('@', 'scipy' in sys.modules)\n"
            f"main(['measure', '--config', {measure!r}]); main(['bands', '--config', {bands_1d!r}])\n"
            "print('@', 'scipy' in sys.modules)\n"
            "print('@', floquet._lapack('dsbev', 'zhbev') is None)\n"
            "print('@', floquet._blas_threads()[0]())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        written = {name: (out / name).read_bytes() for name in ("measure.csv", "measure.json", "bands.csv")}
        return [line[2:] for line in proc.stdout.splitlines() if line.startswith("@ ")], written

    def test_cli_import_loads_neither_the_pool_nor_scipy(self):
        # both load when a run first needs them: the worker pool's module, and scipy's banded solver
        script = "import sys, specapprox.cli; print(sorted({'concurrent.futures', 'scipy'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_scipy_loaded_only_without_numpy_lapack(self, tmp_path):
        (set_and_2d, one_d, fallback, _), _ = self.run_fresh(tmp_path)
        assert set_and_2d == "False"  # set models and 2-d cells never import it
        assert one_d == fallback

    def test_scipy_fallback_writes_the_same_bytes(self, tmp_path):
        # hiding every symbol of numpy's library hid BLAS's thread count too, so each fallback sweep ran on one worker
        (*_, workers), written = self.run_fresh(tmp_path)
        printed, fallback_written = self.run_fresh(tmp_path, fallback=True)
        assert printed == ["False", "True", "True", workers]
        assert fallback_written == written
