import csv
import json
import math
import subprocess
import sys

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
}

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


class TestThreadsEnv:
    def test_worker_count_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        cfg = write_json(
            tmp_path / "bands.json",
            {
                "model": {"name": "free", "dim": 2, "periods": [2, 2]},
                "grid_points": 8,
                "output_csv": str(tmp_path / "bands.csv"),
            },
        )
        assert main(["bands", "--config", cfg]) == 0
        capsys.readouterr()
        serial = (tmp_path / "bands.csv").read_bytes()
        monkeypatch.setenv("SPECAPPROX_THREADS", "2")
        assert main(["bands", "--config", cfg]) == 0
        assert (tmp_path / "bands.csv").read_bytes() == serial

    def test_invalid_value_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPECAPPROX_THREADS", "many")
        cfg = write_json(
            tmp_path / "bands.json",
            {
                "model": {"name": "free", "dim": 1, "periods": [4]},
                "output_csv": str(tmp_path / "bands.csv"),
            },
        )
        assert main(["bands", "--config", cfg]) == 2
        assert "SPECAPPROX_THREADS" in capsys.readouterr().err


class TestConsoleScript:
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
