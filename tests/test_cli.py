"""End-to-end tests of the command-line interface."""

import json
import math
import os

import numpy as np
import pytest

from stochalign.analysis import rho_star_const, var_limit
from stochalign import cli
from stochalign.cli import MAX_GRID_POINTS, THREADS_ENV, main
from stochalign.model import ModelConfig


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


@pytest.fixture(autouse=True)
def in_tmpdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(THREADS_ENV, raising=False)
    return tmp_path


class TestSimulate:
    def test_writes_per_round_csv(self, tmp_path, capsys):
        code = main(["simulate", "--n", "3", "--rounds", "20", "--reps", "500",
                     "--seed", "1", "--threads", "1", "--out", "sim.csv"])
        assert code == 0
        header, rows = read_csv(tmp_path / "sim.csv")
        assert header == "round,var_stretch,mean_abs_stretch,stderr"
        assert len(rows) == 21
        assert [r[0] for r in rows] == [str(t) for t in range(21)]
        out = capsys.readouterr().out
        assert "predicted limiting variance" in out

    def test_sidecar_holds_resolved_settings(self, tmp_path):
        main(["simulate", "--n", "4", "--rounds", "5", "--reps", "100",
              "--seed", "2", "--threads", "1", "--out", "sim.csv"])
        sidecar = json.loads((tmp_path / "sim.csv.config.json").read_text())
        assert sidecar["n"] == 4
        assert sidecar["replications"] == 100
        assert sidecar["policy"] == "wstar"
        assert sidecar["command"] == "simulate"
        assert sidecar["threads"] == 1

    def test_weighted_policy_prediction(self, tmp_path, capsys):
        main(["simulate", "--policy", "weighted", "--rho", "0.5", "--n", "2",
              "--rounds", "5", "--reps", "100", "--seed", "3", "--threads", "1",
              "--out", "sim.csv"])
        out = capsys.readouterr().out
        # n=2 unit noise at rho 0.5 has limiting variance 2.5
        assert "2.5" in out

    def test_deterministic_output_bytes(self, tmp_path):
        args = ["simulate", "--n", "3", "--rounds", "10", "--reps", "400",
                "--seed", "9", "--threads", "1"]
        main(args + ["--out", "a.csv"])
        main(args + ["--out", "b.csv"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_rejects_out_of_range_rho(self, capsys):
        code = main(["simulate", "--policy", "weighted", "--rho", "1.5",
                     "--reps", "10", "--threads", "1"])
        assert code == 2
        assert "[0, 1]" in capsys.readouterr().err

    def test_rejects_bad_model_size(self, capsys):
        code = main(["simulate", "--n", "1", "--reps", "10", "--threads", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestConfigFile:
    def test_file_settings_apply(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"n": 5, "replications": 64, "horizon": 4, "out": "fromfile.csv"}))
        code = main(["simulate", "--config", "cfg.json", "--seed", "4",
                     "--threads", "1"])
        assert code == 0
        sidecar = json.loads((tmp_path / "fromfile.csv.config.json").read_text())
        assert sidecar["n"] == 5 and sidecar["replications"] == 64

    def test_flags_override_file(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"n": 5, "horizon": 4}))
        main(["simulate", "--config", "cfg.json", "--n", "2", "--reps", "50",
              "--seed", "4", "--threads", "1", "--out", "sim.csv"])
        sidecar = json.loads((tmp_path / "sim.csv.config.json").read_text())
        assert sidecar["n"] == 2
        assert sidecar["horizon"] == 4

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"agents": 5}))
        code = main(["simulate", "--config", "cfg.json", "--threads", "1"])
        assert code == 2
        assert "agents" in capsys.readouterr().err

    def test_missing_file_rejected(self, capsys):
        code = main(["simulate", "--config", "nope.json", "--threads", "1"])
        assert code == 2

    def test_fractional_integer_setting_rejected(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"horizon": 2.5}))
        code = main(["simulate", "--config", "cfg.json", "--reps", "10",
                     "--threads", "1", "--out", "s.csv"])
        assert code == 2
        assert "'horizon'" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("sigma_m", True), ("rho", "0.25"), ("out", 7), ("n", True), ("seed", "1"),
        ("grid_step", None), ("policy", ["wstar"]),
        pytest.param("sigma0", 10 ** 400, id="sigma0-beyond-float-range"),
    ])
    def test_value_of_another_type_rejected(self, tmp_path, capsys, key, value):
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        code = main(["simulate", "--config", "cfg.json", "--reps", "10", "--rounds", "3",
                     "--threads", "1"])
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_integer_for_float_setting_recorded_as_float(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"sigma0": 1, "rho": 0}))
        code = main(["simulate", "--config", "cfg.json", "--reps", "10", "--rounds", "3",
                     "--threads", "1", "--out", "s.csv"])
        assert code == 0
        sidecar = (tmp_path / "s.csv.config.json").read_text()
        assert '"sigma0": 1.0' in sidecar and '"rho": 0.0' in sidecar

    def test_malformed_json_rejected(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text("{not json")
        code = main(["simulate", "--config", "cfg.json", "--threads", "1"])
        assert code == 2


class TestCompare:
    def test_wstar_vs_matc_equivalence(self, tmp_path, capsys):
        code = main(["compare", "--a", "wstar", "--b", "matc", "--n", "3",
                     "--rounds", "30", "--reps", "20", "--seed", "5",
                     "--threads", "1", "--out", "cmp.csv"])
        assert code == 0
        header, rows = read_csv(tmp_path / "cmp.csv")
        assert header == "round,com_a,com_b,max_stretch_diff,move_shift"
        assert len(rows) == 31
        assert all(float(r[3]) <= 1e-9 for r in rows)
        assert rows[-1][4] == "nan"
        assert math.isfinite(float(rows[0][4]))
        assert "pass" in capsys.readouterr().out

    def test_same_policy_compare_is_exact(self, tmp_path):
        code = main(["compare", "--a", "weighted", "--b", "weighted",
                     "--rho-a", "0.5", "--rho-b", "0.5", "--n", "3",
                     "--rounds", "10", "--reps", "10", "--seed", "6",
                     "--threads", "1", "--out", "cmp.csv"])
        assert code == 0
        _, rows = read_csv(tmp_path / "cmp.csv")
        for r in rows:
            assert r[1] == r[2]
            assert float(r[3]) == 0.0

    def test_different_weights_share_noise_but_differ(self, tmp_path):
        main(["compare", "--a", "weighted", "--b", "weighted",
              "--rho-a", "0.3", "--rho-b", "0.8", "--n", "3", "--rounds", "10",
              "--reps", "10", "--seed", "6", "--threads", "1", "--out", "cmp.csv"])
        _, rows = read_csv(tmp_path / "cmp.csv")
        assert float(rows[0][3]) == 0.0  # identical worlds before any move
        assert float(rows[5][3]) > 1e-3


class TestSweep:
    def test_grid_and_divergence_flag(self, tmp_path, capsys):
        code = main(["sweep", "--grid-start", "0.0", "--grid-stop", "0.3",
                     "--grid-step", "0.1", "--n", "3", "--rounds", "40",
                     "--reps", "200", "--seed", "7", "--threads", "1",
                     "--out", "sweep.csv"])
        assert code == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == "rho,var_empirical,var_closed_form"
        assert [float(r[0]) for r in rows] == [0.0, 0.1, 0.2, 0.3]
        assert rows[0][1] == "divergent"
        assert rows[0][2] == "inf"
        cfg = ModelConfig(n=3)
        assert float(rows[2][2]) == pytest.approx(var_limit(0.2, cfg), rel=1e-15)
        out = capsys.readouterr().out
        assert "argmin" in out and "rho*" in out

    def test_fractional_step_grid_is_clean(self, tmp_path):
        main(["sweep", "--grid-start", "0.02", "--grid-stop", "0.1",
              "--grid-step", "0.02", "--n", "2", "--rounds", "20",
              "--reps", "100", "--seed", "8", "--threads", "1",
              "--out", "sweep.csv"])
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 5  # no lost endpoint, no extra point
        assert [float(r[0]) for r in rows] == [0.02, 0.04, 0.06, 0.08, 0.1]

    def test_rejects_bad_step(self, capsys):
        code = main(["sweep", "--grid-step", "0", "--threads", "1"])
        assert code == 2

    @pytest.mark.parametrize("grid, message", [
        (["--grid-step", "1e-300"], "grid_step must be >= 1e-12"),
        (["--grid-step", "1e-13"], "grid_step must be >= 1e-12"),
        (["--grid-step", "1e-7"], f"more than {MAX_GRID_POINTS} points"),
        (["--grid-stop", "1e300"], f"more than {MAX_GRID_POINTS} points"),
        (["--grid-start", "-0.1"], "outside [0, 1]"),
        (["--grid-start", "0.5", "--grid-stop", "1.5", "--grid-step", "0.5"], "outside [0, 1]"),
        (["--grid-stop", "inf"], "must be finite"),
        (["--grid-start", "0.5", "--grid-stop", "0.4"], "empty rho grid"),
    ])
    def test_rejects_bad_grid_before_any_work(self, tmp_path, capsys, monkeypatch, grid,
                                              message):
        # the grid is counted, not built: a step of 1e-300 used to hang
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(cli, "sweep_rho", no_sweep)
        code = main(["sweep", "--reps", "10", "--threads", "1", "--out", "s.csv"] + grid)
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_largest_grid_is_accepted(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "sweep_rho", lambda cfg, grid, *a, **k: seen.append(grid) or [])
        code = main(["sweep", "--grid-start", "0.0001", "--grid-stop", "1.0",
                     "--grid-step", "0.0001", "--reps", "10", "--threads", "1"])
        assert code == 0
        assert len(seen[0]) == MAX_GRID_POINTS
        assert seen[0][0] == 0.0001 and seen[0][-1] == 1.0


class TestKalmanCheck:
    def test_closed_form_agrees(self, tmp_path, capsys):
        code = main(["kalman-check", "--n", "4", "--t-max", "60", "--seed", "1",
                     "--threads", "1", "--out", "kc.csv"])
        assert code == 0
        header, rows = read_csv(tmp_path / "kc.csv")
        assert header == "t,alpha,rho_star,cov_dev,gain_dev"
        assert len(rows) == 61
        assert all(float(r[3]) <= 1e-9 and float(r[4]) <= 1e-9 for r in rows)
        out = capsys.readouterr().out
        assert "pass" in out and "alpha_infty residual" in out

    def test_degenerate_start(self, tmp_path):
        code = main(["kalman-check", "--n", "2", "--sigma0", "0", "--t-max", "20",
                     "--threads", "1", "--out", "kc.csv"])
        assert code == 0
        _, rows = read_csv(tmp_path / "kc.csv")
        assert float(rows[0][1]) == 0.0  # alpha_0
        assert float(rows[0][2]) == 0.0  # rho*(0)

    def test_singular_dense_filter_fails_the_check(self, tmp_path, capsys):
        # valid settings, but P + R is singular to LAPACK at round 0
        code = main(["kalman-check", "--n", "2", "--sigma0", "1e8", "--sigma-m", "1e-3",
                     "--t-max", "5", "--threads", "1", "--out", "kc.csv"])
        assert code == 1
        out = capsys.readouterr().out
        assert "dense reference filter failed at round 0" in out and "FAIL" in out
        assert list(tmp_path.iterdir()) == []


class TestBestResponse:
    def test_scheduled_opponents_are_fixed_point(self, tmp_path, capsys):
        code = main(["best-response", "--opponents", "wstar", "--n", "5",
                     "--t-max", "50", "--threads", "1", "--out", "br.csv"])
        assert code == 0
        header, rows = read_csv(tmp_path / "br.csv")
        assert header == "t,opp_rho,best_response,residual"
        assert len(rows) == 51
        assert all(float(r[3]) <= 1e-12 for r in rows)
        assert "pass" in capsys.readouterr().out

    def test_constant_opponents_informational(self, tmp_path):
        code = main(["best-response", "--opponents", "constant", "--rho", "0.9",
                     "--n", "3", "--t-max", "20", "--threads", "1",
                     "--out", "br.csv"])
        assert code == 0
        _, rows = read_csv(tmp_path / "br.csv")
        assert float(rows[0][3]) > 1e-3

    def test_assert_nash_fails_off_fixed_point(self, capsys):
        code = main(["best-response", "--opponents", "constant", "--rho", "0.9",
                     "--assert-nash", "--n", "3", "--t-max", "20",
                     "--threads", "1", "--out", "br.csv"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_constant_near_limit_converges(self, tmp_path):
        cfg = ModelConfig(n=4)
        code = main(["best-response", "--opponents", "constant",
                     "--rho", f"{rho_star_const(cfg):.17g}", "--n", "4",
                     "--t-max", "200", "--threads", "1", "--out", "br.csv"])
        assert code == 0
        _, rows = read_csv(tmp_path / "br.csv")
        assert float(rows[-1][3]) < 1e-9

    def test_rejects_invalid_constant(self, capsys):
        code = main(["best-response", "--opponents", "constant", "--rho", "1.5",
                     "--threads", "1"])
        assert code == 2


class TestThreadsResolution:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "2")
        main(["simulate", "--n", "2", "--rounds", "5", "--reps", "50",
              "--seed", "1", "--out", "sim.csv"])
        sidecar = json.loads((tmp_path / "sim.csv.config.json").read_text())
        assert sidecar["threads"] == 2

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "2")
        main(["simulate", "--n", "2", "--rounds", "5", "--reps", "50",
              "--seed", "1", "--threads", "3", "--out", "sim.csv"])
        sidecar = json.loads((tmp_path / "sim.csv.config.json").read_text())
        assert sidecar["threads"] == 3

    def test_rejects_nonpositive(self, capsys):
        code = main(["simulate", "--threads", "0", "--reps", "10"])
        assert code == 2

    def test_thread_count_invariant_csv(self, tmp_path):
        args = ["simulate", "--n", "3", "--rounds", "10", "--reps", "600",
                "--seed", "9"]
        main(args + ["--threads", "1", "--out", "a.csv"])
        main(args + ["--threads", "4", "--out", "b.csv"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestFailClosed:
    def test_non_finite_noise_writes_nothing(self, tmp_path, capsys):
        code = main(["simulate", "--sigma-m", "nan", "--reps", "10", "--threads", "1",
                     "--out", "s.csv"])
        assert code == 2
        assert "sigma_m must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_t_max_writes_nothing(self, tmp_path, capsys):
        code = main(["kalman-check", "--t-max", "-1", "--threads", "1", "--out", "k.csv"])
        assert code == 2
        assert "t_max must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_directory_is_a_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--reps", "10", "--threads", "1",
                     "--out", str(tmp_path / "missing" / "s.csv")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unwritable_output_is_an_io_error(self, tmp_path, capsys):
        # the output path is a directory, so opening it for writing fails
        code = main(["kalman-check", "--t-max", "3", "--threads", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_sidecar_leaves_no_csv(self, tmp_path, capsys):
        (tmp_path / "out.csv.config.json").mkdir()
        code = main(["simulate", "--reps", "10", "--rounds", "3", "--threads", "1",
                     "--out", "out.csv"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv.config.json"]

    def test_unwritable_csv_leaves_no_sidecar(self, tmp_path, capsys):
        (tmp_path / "out.csv").mkdir()
        code = main(["simulate", "--reps", "10", "--rounds", "3", "--threads", "1",
                     "--out", "out.csv"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert list((tmp_path / "out.csv").iterdir()) == []

    @pytest.mark.parametrize("target", ["out.csv", "out.csv.config.json"])
    def test_foreign_temp_file_survives(self, tmp_path, capsys, target):
        # a file already at a temp path is not this run's to remove
        foreign = tmp_path / f"{target}.{os.getpid()}.tmp"
        foreign.write_text("not ours\n")
        code = main(["simulate", "--reps", "10", "--rounds", "3", "--threads", "1",
                     "--out", "out.csv"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert foreign.read_text() == "not ours\n"
        assert [p.name for p in tmp_path.iterdir()] == [foreign.name]


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2
