"""Command-line surface: files, determinism, exit codes."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmle.cli import RunConfig, main
from fracmle.fbm import TimeGrid, simulate_fbm


def small_config(**over):
    cfg = {
        "model": "fou",
        "theta_true": [0.5],
        "theta0": [1.0],
        "box": [[0.01, 10.0]],
        "hurst": 0.6,
        "horizon": 10.0,
        "euler_steps": 50,
        "observations": 10,
        "mc_paths": 80,
        "gamma": 0.55,
        "schedule": {"a0": 0.05, "b": 10.0, "rho": 1.0},
        "iterations": 3,
        "replications": 2,
        "seed": 99,
        "initial_state": [0.0],
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, name="cfg.json", **over):
    path = tmp_path / name
    path.write_text(json.dumps(small_config(**over)))
    return str(path)


class TestSimulate:
    def test_row_count_and_initial_state(self, tmp_path):
        cfg = write_config(tmp_path, observations=50, euler_steps=100)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--outdir", str(out)]) == 0
        lines = (out / "observations.csv").read_text().splitlines()
        assert len(lines) == 52  # header + t=0 + 50 observations
        assert lines[0] == "t,Y1"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert os.path.exists(out / "simulate.meta.json")

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--outdir", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--outdir", str(out2)]) == 0
        assert (out1 / "observations.csv").read_bytes() == (
            out2 / "observations.csv"
        ).read_bytes()

    def test_invalid_hurst_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, hurst=0.4, gamma=0.3)
        assert main(["simulate", "--config", cfg, "--outdir", str(tmp_path)]) == 2

    def test_indivisible_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path, euler_steps=50, observations=7)
        assert main(["simulate", "--config", cfg, "--outdir", str(tmp_path)]) == 2


class TestEstimate:
    def test_end_to_end_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "est"
        assert main(["estimate", "--config", cfg, "--outdir", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "theta_hat.lambda" in report
        assert "replication_sd.lambda" in report
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("replication,iteration,theta_lambda")
        assert len(trace) == 1 + 2 * 4  # two replications, K+1 rows each
        assert (out / "histogram_lambda.csv").exists()
        assert (out / "estimates.csv").exists()
        meta = json.loads((out / "estimate.meta.json").read_text())
        assert meta["seed"] == 99 and "config_sha256" in meta

    def test_estimate_reruns_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main(["estimate", "--config", cfg, "--outdir", str(out1)]) == 0
        assert main(["estimate", "--config", cfg, "--outdir", str(out2)]) == 0
        for name in ("report.txt", "trace.csv", "estimates.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_estimate_from_csv_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--outdir", str(sim)]) == 0
        cfg2 = write_config(
            tmp_path, name="cfg2.json",
            observations_csv=str(sim / "observations.csv"), replications=1,
        )
        out = tmp_path / "fit"
        assert main(["estimate", "--config", cfg2, "--outdir", str(out)]) == 0
        assert (out / "report.txt").exists()

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "obs.csv"
        bad.write_text("t,Y1\n0.0,0.0\n1.0,not-a-number\n")
        cfg = write_config(tmp_path, observations_csv=str(bad), horizon=10.0)
        assert main(["estimate", "--config", cfg, "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert ":3:" in err

    def test_unreliable_score_exit_code(self, tmp_path):
        bad = tmp_path / "obs.csv"
        rows = ["t,Y1"] + [f"{t},40.0" for t in np.arange(1.0, 11.0)]
        bad.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, observations_csv=str(bad))
        assert main(["estimate", "--config", cfg, "--outdir", str(tmp_path)]) == 4

    def test_unknown_preset_rejected(self, tmp_path):
        assert main(["estimate", "--preset", "nope", "--outdir", str(tmp_path)]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config(typo_key=1)))
        assert main(["estimate", "--config", str(path), "--outdir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "over",
        [
            {"mc_paths": "lots"},
            {"hurst": "0.6"},
            {"observations": 0},
            {"replications": 0},
            {"schedule": {"a0": 0.05, "c": 1.0}},
            {"seed": -1},
            {"box": [[0.01]], "theta0": "moment"},
            {"box": [["a", "b"]]},
            {"theta0": ["a"]},
            {"initial_state": [0.0, 1.0]},
            {"initial_state": "zero"},
            *({"mc_paths": "auto", "budget_scale": v} for v in (0, 0.0, -1, -math.inf, math.nan)),
            {"mc_paths": "auto", "budget_scale": 0, "horizon": 1},
            {"model": ["fou"]},
            {"model": {"name": "fou"}},
            {"observations_csv": 1},
            {"observations_csv": True},
            {"observations_csv": 0},
            {"model_spec_path": 1},
            {"model_spec_path": True},
            {"include_fbm_columns": "yes"},
            {"box": [[0.0, math.nan]]},
            {"box": [[1.0, 0.1]]},
            {"horizon": math.nan},
            {"horizon": 10**400},
            {"initial_state": [math.nan]},
            {"theta0": [math.nan]},
        ],
        ids=["mc_paths", "hurst", "observations", "replications", "schedule_key", "seed",
             "box_row", "box_type", "theta0_type", "initial_state_length", "initial_state_type",
             "scale_0", "scale_0.0", "scale_-1", "scale_-inf", "scale_nan", "scale_0_horizon_1",
             "model_list", "model_dict", "csv_1", "csv_true", "csv_0", "spec_1", "spec_true",
             "fbm_columns", "box_nan", "box_reversed", "horizon_nan", "horizon_huge", "initial_state_nan",
             "theta0_nan"],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, over):
        cfg = write_config(tmp_path, **over)
        assert main(["estimate", "--config", cfg, "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


FUZZ_FIELDS = sorted(f for f in RunConfig.__dataclass_fields__ if f != "raw")
FUZZ_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 2.5, "x", None, True, [], [[]], {},
               [1.0], [[0.1, 1.0]]]


# "auto" is left out of the values: with a valid budget_scale it runs 10^6 paths
@settings(max_examples=300)
@given(field=st.sampled_from(FUZZ_FIELDS), value=st.sampled_from(FUZZ_VALUES))
def test_fuzzed_config_exits_with_a_code(field, value):
    with tempfile.TemporaryDirectory() as tmp:
        doc = small_config(iterations=1, replications=1)
        doc[field] = value
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        code = main(["estimate", "--config", cfg, "--outdir", out])
        for fd in (0, 1):
            os.fstat(fd)  # raises if the run closed stdin or stdout
        assert code in (0, 2, 3, 4)
        if code == 0:
            with open(os.path.join(out, "estimates.csv")) as fh:
                row = fh.read().splitlines()[1].split(",")
            assert all(math.isfinite(float(v)) for v in row[1:])


class TestHurst:
    def _series_csv(self, tmp_path, values, name="series.csv"):
        path = tmp_path / name
        rows = ["t,x"] + [f"{i},{v}" for i, v in enumerate(values)]
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_missing_column_names_available(self, tmp_path, capsys):
        path = self._series_csv(tmp_path, np.zeros(64))
        assert main(["hurst", path, "--column", "y", "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "'y'" in err and "x" in err

    def test_three_group_split_emits_three_estimates(self, tmp_path):
        rng = np.random.default_rng(5)
        path = self._series_csv(tmp_path, rng.standard_normal(150))
        out = tmp_path / "h"
        assert main(
            ["hurst", path, "--column", "x", "--groups", "3", "--outdir", str(out)]
        ) == 0
        rows = (out / "hurst.csv").read_text().splitlines()
        assert len(rows) == 4  # header + three groups

    @pytest.mark.parametrize("min_window", [0, -3, 1])
    def test_malformed_min_window_exits_2(self, tmp_path, capsys, min_window):
        rng = np.random.default_rng(6)
        path = self._series_csv(tmp_path, rng.standard_normal(200))
        code = main(["hurst", path, "--column", "x", "--min-window", str(min_window),
                     "--outdir", str(tmp_path)])
        assert code == 2
        assert "minimum window" in capsys.readouterr().err

    def test_fbm_increments_estimate(self, tmp_path):
        fbm = simulate_fbm(TimeGrid(1.0, 4096), 1, 0.6, seed=8)
        path = self._series_csv(tmp_path, fbm.values[0])
        out = tmp_path / "h2"
        assert main(
            ["hurst", path, "--column", "x", "--increments", "--outdir", str(out)]
        ) == 0
        report = (out / "hurst_report.txt").read_text()
        est = float(report.split("=")[1])
        assert 0.5 <= est <= 0.7


class TestRateStudy:
    def test_single_grid_size_rejected(self, tmp_path):
        cfg = write_config(tmp_path, horizon=1.0)
        code = main(
            ["rate-study", "--config", cfg, "--outdir", str(tmp_path),
             "--m-list", "64", "--m-ref", "256", "--paths", "2"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--m-list", "0", "16", "--m-ref", "64"],
            ["--m-list", "-16", "16", "--m-ref", "64"],
            ["--m-list", "16", "128", "--m-ref", "64"],
            ["--m-list", "16", "32", "--m-ref", "0"],
            ["--m-list", "16", "32", "--m-ref", "-64"],
            ["--m-list", "16", "32", "--m-ref", "64", "--paths", "0"],
            ["--m-list", "16", "32", "--m-ref", "64", "--paths", "-1"],
        ],
        ids=["m_0", "m_negative", "m_above_ref", "ref_0", "ref_negative", "paths_0",
             "paths_negative"],
    )
    def test_out_of_range_arguments_exit_2(self, tmp_path, capsys, args):
        cfg = write_config(tmp_path, horizon=1.0)
        out = tmp_path / "r"
        assert main(["rate-study", "--config", cfg, "--outdir", str(out)] + args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "rate.csv").exists()

    def test_small_study_slope_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, horizon=1.0, hurst=0.75, gamma=0.7)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["--m-list", "16", "32", "64", "128", "--m-ref", "1024", "--paths", "10"]
        assert main(["rate-study", "--config", cfg, "--outdir", str(out1)] + args) == 0
        assert main(["rate-study", "--config", cfg, "--outdir", str(out2)] + args) == 0
        assert (out1 / "rate.csv").read_bytes() == (out2 / "rate.csv").read_bytes()
        slope = float((out1 / "rate_report.txt").read_text().splitlines()[0].split("=")[1])
        assert slope <= -0.25
