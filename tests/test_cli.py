import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
    # int() truncated these; each run wrote a report of the truncated config
    "n-max-fraction": {"n_max": 3.9},
    "n-min-bool": {"n_min": True},
    "tail-fraction": {"tail": 2.5},
    "grid-points-fraction": {"model": FREE_1D, "strategy": "grid", "grid_points": 8.7},
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
}

GOLDEN = Path(__file__).parent / "golden"

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

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = measure_config(tmp_path)
        assert main(["measure", "--config", cfg]) == 0
        first = (tmp_path / "out.csv").read_bytes()
        assert main(["measure", "--config", cfg]) == 0
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_criterion_10_outputs_match_golden_bytes(self, tmp_path, capsys):
        # elementwise IEEE arithmetic and a cumulative sum: no BLAS or LAPACK result reaches these bytes
        assert main(["measure", "--config", measure_config(tmp_path)]) == 0
        assert (tmp_path / "out.csv").read_bytes() == (GOLDEN / "criterion10.csv").read_bytes()
        assert (tmp_path / "out.json").read_bytes() == (GOLDEN / "criterion10.json").read_bytes()

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
    def test_malformed_value_is_usage_error(self, tmp_path, capsys, overrides):
        cfg = measure_config(tmp_path, **{"n_max": 3, **overrides})
        assert main(["measure", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "out.json").exists()

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

    def test_oversize_fibonacci_level_refused(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bands.json",
            {"model": {"name": "fibonacci", "level": 60, "coupling": 1.0}, "output_csv": str(tmp_path / "bands.csv")},
        )
        assert main(["bands", "--config", cfg]) == 2
        assert "1 banded 3 x 2504730781961 fiber(s) need 6.011e+13 bytes" in capsys.readouterr().err
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
            raise floquet.NotHermitianError("asymmetry 1e-3 exceeds tolerance")

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
        steps = range(1, 6)
        potentials = cli._approximants(measure_model, steps)
        for n, potential in zip(steps, potentials):
            spec = bands_model(n)
            assert potential == cli._model(spec, "bands").build(spec)

    def test_operator_only_model_rejected_by_measure(self, tmp_path, capsys):
        model = {"name": "potential", "dim": 1, "periods": [2], "cell": [0.0, 1.0]}
        cfg = measure_config(tmp_path, model=model, n_max=2)
        assert main(["measure", "--config", cfg]) == 2
        assert "unknown model: 'potential'" in capsys.readouterr().err


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
    def test_scipy_loaded_only_by_one_dimensional_solves(self, tmp_path):
        # importing scipy.linalg costs 0.2-0.3 s and about 28 MB; set models and 2-d cells never pay it
        measure = measure_config(tmp_path, n_max=4)
        bands = write_json(
            tmp_path / "bands.json",
            {"model": {"name": "free", "dim": 2, "periods": [2, 2]}, "output_csv": str(tmp_path / "bands.csv")},
        )
        script = (
            "import sys\n"
            "from specapprox.cli import main\n"
            "print('scipy' in sys.modules)\n"
            f"main(['measure', '--config', {measure!r}]); main(['bands', '--config', {bands!r}])\n"
            "print('scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[0] == "False"
        assert proc.stdout.split()[-1] == "False"

    def test_installed_entry_point(self, tmp_path):
        a = write_json(tmp_path / "a.json", [[0.0, 1.0]])
        b = write_json(tmp_path / "b.json", [[0.5, 1.5]])
        proc = subprocess.run(
            [sys.executable, "-m", "specapprox.cli", "hausdorff", a, b],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert float(proc.stdout.strip()) == pytest.approx(0.5)
