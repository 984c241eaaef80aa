"""End-to-end tests of the command-line interface."""

import errno
import importlib
import json
import math
import os
import re
import shlex
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stochalign.analysis import rho_star_const, var_limit
import stochalign
from stochalign import checks, cli, sim
from stochalign.checks import KALMAN_TOL, NASH_TOL, SHIFT_TOL, STRETCH_EQ_TOL
from stochalign.cli import MAX_GRID_POINTS, main
from stochalign.kalman import AlphaSchedule, closed_form_filter_state, dense_filter_path
from stochalign.model import ModelConfig
from stochalign.policies import Gain, PolicySpec
from stochalign.structmat import StructuredMatrix


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


@pytest.fixture(autouse=True)
def in_tmpdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
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

    @pytest.mark.filterwarnings("error")
    def test_runs_at_the_extreme_noise_ratio(self, tmp_path, capsys):
        # rho_star_const cancelled to -9.7e183 here and the command exited 2
        code = main(["simulate", "--n", "5", "--sigma-m", "1e-50", "--sigma-d", "1e50",
                     "--reps", "3", "--rounds", "3", "--threads", "1", "--out", "s.csv"])
        assert code == 0
        assert "(limiting responsiveness 0.79999999999999993)" in capsys.readouterr().out
        _, rows = read_csv(tmp_path / "s.csv")
        assert len(rows) == 4

    def test_prints_the_worst_zero_sum_drift(self, tmp_path, capsys):
        # the worst |sum of stretches| over rounds and replications, which is
        # zero in exact arithmetic, as the library computes it for the same run
        code = main(["simulate", "--n", "5", "--sigma0", "1e12", "--rounds", "20",
                     "--reps", "300", "--seed", "1", "--threads", "1", "--out", "sim.csv"])
        assert code == 0
        cfg = ModelConfig(n=5, sigma0=1e12, horizon=20, seed=1)
        plan = sim.RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=300)
        drift = sim.run(plan).max_abs_stretch_sum.max()
        assert drift > 0.0
        line = capsys.readouterr().out.splitlines()[-1]
        printed = re.fullmatch(r"worst \|sum of stretches\| (\S+) \(zero in exact arithmetic\)",
                               line)
        assert printed and float(printed[1]) == drift

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
        assert all(float(r[3]) <= STRETCH_EQ_TOL for r in rows)
        assert rows[-1][4] == "nan"
        assert math.isfinite(float(rows[0][4]))
        assert "stretch diff <= 1e-09, shift spread" in capsys.readouterr().out

    def test_tolerances_scale_with_the_noise(self, tmp_path, capsys):
        # spread and rule deviation are about 1e-16 of the positions' scale
        code = main(["compare", "--n", "5", "--sigma0", "0", "--sigma-m", "1e50",
                     "--sigma-d", "1e50", "--reps", "3", "--rounds", "3",
                     "--threads", "1", "--out", "cmp.csv"])
        assert code == 0
        verdict = capsys.readouterr().out.splitlines()[-1]
        assert verdict.startswith("shift equivalence: stretch diff <= 1e+41,")
        assert verdict.endswith(": pass")

    def test_no_rounds_pass(self, capsys):
        code = main(["compare", "--rounds", "0", "--reps", "5", "--threads", "1",
                     "--out", "cmp.csv"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "shift equivalence: stretch diff <= 1e-09, shift spread 0, rule deviation 0: pass")

    @staticmethod
    def verdict(capsys):
        """The verdict line's (stretch bound, shift spread, rule deviation, outcome)."""
        line = capsys.readouterr().out.splitlines()[-1]
        match = re.fullmatch(r"shift equivalence: stretch diff <= (\S+), shift spread (\S+), "
                             r"rule deviation (\S+): (pass|FAIL)", line)
        assert match, line
        return (*map(float, match.groups()[:3]), match[4])

    @pytest.mark.parametrize("diag", [0.0, 1e-9], ids=["spread", "rule"])
    def test_gains_off_the_shift_fail(self, capsys, monkeypatch, diag):
        # the compiled matc gain's off-diagonal is off by 1e-9, and with its
        # diagonal too the gains differ by a common shift of the wrong size;
        # the engine runs that gain too, and the exact check fails
        make_policy = cli.make_policy

        def off(spec, cfg):
            gain = make_policy(spec, cfg)
            if spec.kind != "matc":
                return gain
            return Gain(gain.scale,
                        StructuredMatrix(cfg.n, gain.op.diag + diag, gain.op.off + 1e-9))

        monkeypatch.setattr(cli, "make_policy", off)
        assert main(["compare", "--n", "4", "--rounds", "10", "--reps", "50",
                     "--threads", "1", "--out", "cmp.csv"]) == 1
        _, spread, rule, outcome = self.verdict(capsys)
        assert (spread > SHIFT_TOL) == (diag == 0.0)
        assert rule > SHIFT_TOL and outcome == "FAIL"

    def test_checks_the_gains_the_paired_run_ran(self, monkeypatch):
        ran, checked = [], []
        run_paired, shift_identity = cli.run_paired, cli.shift_identity

        def spy_run(plan, policy_b):
            ran.extend((plan.policy, policy_b))
            return run_paired(plan, policy_b)

        def spy_check(cfg, stretch_diff, gain_a, gain_b, rhos):
            checked.extend((gain_a, gain_b))
            return shift_identity(cfg, stretch_diff, gain_a, gain_b, rhos)

        monkeypatch.setattr(cli, "run_paired", spy_run)
        monkeypatch.setattr(cli, "shift_identity", spy_check)
        assert main(["compare", "--n", "4", "--rounds", "5", "--reps", "10",
                     "--threads", "1", "--out", "cmp.csv"]) == 0
        assert len(ran) == len(checked) == 2
        assert all(isinstance(gain, Gain) for gain in ran)
        assert all(r is c for r, c in zip(ran, checked))

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

    def test_first_policy_is_the_policy_and_rho_settings(self, tmp_path):
        # --a/--rho-a and a config file set the same settings, so both runs
        # write the same bytes, the sidecar records the policy that ran, and
        # it runs as the same second policy does, exactly
        (tmp_path / "c.json").write_text(json.dumps({"policy": "weighted", "rho": 0.3}))
        common = ["--b", "weighted", "--rho-b", "0.3", "--n", "3", "--rounds", "10",
                  "--reps", "10", "--seed", "6", "--threads", "1", "--out", "cmp.csv"]
        outputs = []
        for source in (["--config", "c.json"], ["--a", "weighted", "--rho-a", "0.3"]):
            assert main(["compare", *source, *common]) == 0
            outputs.append([(tmp_path / name).read_bytes()
                            for name in ("cmp.csv", "cmp.csv.config.json")])
        assert outputs[0] == outputs[1]
        sidecar = json.loads(outputs[0][1])
        assert (sidecar["policy"], sidecar["rho"]) == ("weighted", 0.3)
        _, rows = read_csv(tmp_path / "cmp.csv")
        assert all(r[1] == r[2] and float(r[3]) == 0.0 for r in rows)

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

    @pytest.mark.filterwarnings("error")
    def test_prints_rho_star_at_the_extreme_noise_ratio(self, tmp_path, capsys):
        # the closed root of rho* cancelled here and printed a negative value
        code = main(["sweep", "--n", "5", "--sigma-m", "1e-50", "--sigma-d", "1e50",
                     "--reps", "3", "--rounds", "3", "--threads", "1", "--out", "sweep.csv"])
        assert code == 0
        assert capsys.readouterr().out.endswith("closed-form optimum rho* = 0.79999999999999993\n")

    def test_says_so_when_no_grid_point_converges(self, tmp_path, capsys):
        code = main(["sweep", "--n", "2", "--reps", "3", "--rounds", "3",
                     "--grid-start", "0", "--grid-stop", "0", "--threads", "1",
                     "--out", "sweep.csv"])
        assert code == 0
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert rows == [["0", "divergent", "inf"]]
        assert capsys.readouterr().out == (
            "no grid point has a finite long-run variance -> sweep.csv\n")

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
        assert all(float(r[3]) <= KALMAN_TOL and float(r[4]) <= KALMAN_TOL for r in rows)
        out = capsys.readouterr().out
        assert "(pass at 1e-09)" in out and "alpha_infty residual" in out

    def test_covariance_tolerance_scales_with_the_noise(self, tmp_path, capsys):
        # covariances of order 1e100 deviate by about 1e84; gains stay below 1e-16
        code = main(["kalman-check", "--n", "2", "--sigma0", "0", "--sigma-m", "1e50",
                     "--sigma-d", "1e50", "--t-max", "3", "--threads", "1",
                     "--out", "kc.csv"])
        assert code == 0
        _, rows = read_csv(tmp_path / "kc.csv")
        assert max(float(r[3]) for r in rows) > 1e80
        assert max(float(r[4]) for r in rows) <= KALMAN_TOL
        assert "(pass at 1e+91 for covariances, 1e-09 for gains)" in capsys.readouterr().out

    @pytest.mark.parametrize("sigma0", ["1", "0"])
    def test_deviations_are_those_of_the_dense_closed_form(self, tmp_path, sigma0):
        # computed in place, without forming the closed form's matrices; at
        # sigma0 = 0 zero entries of K_0 carry the other sign in the two paths
        code = main(["kalman-check", "--n", "5", "--sigma0", sigma0, "--t-max", "30",
                     "--threads", "1", "--out", "kc.csv"])
        assert code == 0
        _, rows = read_csv(tmp_path / "kc.csv")
        cfg = ModelConfig(n=5, sigma0=float(sigma0))
        schedule = AlphaSchedule(cfg, 30)
        expected = []
        for t, dense in enumerate(dense_filter_path(cfg, 30)):
            closed = closed_form_filter_state(schedule, t)
            expected.append([cli._fmt(np.abs(d - c.to_dense()).max())
                             for d, c in zip(dense, closed, strict=True)])
        assert [row[3:] for row in rows] == expected

    def test_degenerate_start(self, tmp_path):
        code = main(["kalman-check", "--n", "2", "--sigma0", "0", "--t-max", "20",
                     "--threads", "1", "--out", "kc.csv"])
        assert code == 0
        _, rows = read_csv(tmp_path / "kc.csv")
        assert float(rows[0][1]) == 0.0  # alpha_0
        assert float(rows[0][2]) == 0.0  # rho*(0)

    def test_peak_memory_is_the_dense_paths_four_arrays(self, tmp_path, capsys):
        # the dense path's 4 arrays (see test_kalman) and nothing of n columns
        # from the deviation, which reads extremes through views; no round's P-
        # or K outlives it.  It reads about 4.2 arrays, so the bound leaves no
        # room for a buffer of a tenth of an array.  The traced peak leaves
        # out numpy's solve copies and OpenBLAS's buffers
        n = 300
        tracemalloc.start()
        try:
            code = main(["kalman-check", "--n", str(n), "--t-max", "3",
                         "--threads", "1", "--out", "kc.csv"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(read_csv(tmp_path / "kc.csv")[1]) == 4
        assert peak < 4.3 * 8 * n ** 2

    @pytest.mark.parametrize("layout", ["C", "F", "transposed"])
    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 129, 256])
    def test_deviation_from_extremes_is_the_dense_one_bit_for_bit(self, n, layout):
        # P- comes C-ordered and K F-ordered from the dense path
        rng = np.random.default_rng(n)
        cases = []
        for scale in (1e-3, 1.0, 1e40):
            x = StructuredMatrix(n, scale * rng.standard_normal(), scale * rng.standard_normal())
            cases.append((scale * rng.standard_normal((n, n)), x))
            near = x.to_dense() + scale * 1e-15 * rng.standard_normal((n, n))
            cases.append((near, x))
        x = StructuredMatrix(n, 2.0, -0.5)
        for special in (math.nan, math.inf, -math.inf, -0.0):
            for i, j in ((0, 0), (n - 1, 0), (0, n - 1), (n - 1, n - 1), (n // 2, n // 3)):
                dense = x.to_dense()
                dense[i, j] = special
                cases.append((dense, x))
        for special in (math.inf, -math.inf, -0.0):
            cases.append((np.full((n, n), special), StructuredMatrix(n, special, 0.0)))
            cases.append((np.full((n, n), special), StructuredMatrix(n, 0.0, special)))
        cases.append((np.zeros((n, n)), StructuredMatrix(n, -0.0, -0.0)))
        cases.append((np.full((n, n), 1.0), StructuredMatrix(n, math.nan, 1.0)))
        for dense, x in cases:
            if layout == "F":
                dense = np.asfortranarray(dense)
            elif layout == "transposed":
                dense = dense.T
            with np.errstate(invalid="ignore"):  # inf - inf
                got = checks._max_deviation(dense, x)
                want = np.abs(dense - x.to_dense()).max()
            assert got.tobytes() == want.tobytes()

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
        assert all(float(r[3]) <= NASH_TOL for r in rows)
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
        assert "rho must be in [0, 1], got 1.5" in capsys.readouterr().err


class TestThreadsResolution:
    def test_default_is_all_cores_whatever_the_environment_holds(self, tmp_path, monkeypatch):
        # every environment variable reads "abc", so a settings path that
        # consulted any of them would fail or record another thread count
        class EveryVariableIsAbc(dict):
            def __getitem__(self, key):
                return "abc"

            def get(self, key, default=None):
                return "abc"

            def __contains__(self, key):
                return True

        argv = ["simulate", "--n", "2", "--rounds", "5", "--reps", "50", "--seed", "1"]
        assert main(argv + ["--out", "plain.csv"]) == 0
        monkeypatch.setattr(os, "environ", EveryVariableIsAbc())
        assert os.getenv("ANY_NAME") == "abc"
        assert main(argv + ["--out", "abc.csv"]) == 0
        threads = [json.loads((tmp_path / f"{name}.csv.config.json").read_text())["threads"]
                   for name in ("plain", "abc")]
        assert threads == [os.cpu_count() or 1] * 2
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "abc.csv").read_bytes()

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

    def test_unwritable_csv_leaves_no_sidecar(self, tmp_path, capsys, monkeypatch):
        # the CSV path becomes a directory after the settings were checked,
        # so the sidecar is moved into place and then removed again
        engine = cli.run

        def run_then_block_the_csv(plan):
            (tmp_path / "out.csv").mkdir()
            return engine(plan)

        monkeypatch.setattr(cli, "run", run_then_block_the_csv)
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

    @pytest.mark.parametrize("argv", [
        ["sweep", "--out", "res"],
        ["simulate", "--out", ""],
        ["simulate", "--out", "res" + os.sep],
    ])
    def test_output_path_must_name_a_file(self, tmp_path, capsys, monkeypatch, argv):
        # res is a directory; the sidecar paths these would have written
        # already hold files this run did not write
        (tmp_path / "res").mkdir()
        foreign = {"res.config.json": "not ours\n", ".config.json": "nor this\n"}
        for name, text in foreign.items():
            (tmp_path / name).write_text(text)

        def no_engine(*args, **kwargs):
            raise AssertionError("the engine started")

        monkeypatch.setattr(cli, "run", no_engine)
        monkeypatch.setattr(cli, "sweep_rho", no_engine)
        code = main(argv + ["--reps", "10", "--rounds", "3", "--threads", "1"])
        assert code == 2
        assert "does not name a file" in capsys.readouterr().err
        for name, text in foreign.items():
            assert (tmp_path / name).read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*foreign, "res"])
        assert list((tmp_path / "res").iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--reps", "10", "--sigma-m", "1e200"],
        ["kalman-check", "--sigma0", "1e200"],
        ["best-response", "--sigma-d=-1e200"],
        ["sweep", "--sigma-d", "1e154", "--reps", "3", "--rounds", "3"],
        ["kalman-check", "--sigma0", "1e154", "--t-max", "3"],
        # the closed forms divide by a variance that underflows to 0
        ["simulate", "--sigma-m", "1e-200", "--reps", "3", "--rounds", "3"],
        # sums of finite variances overflow
        ["sweep", "--sigma-m", "8.9e153", "--sigma-d", "8.9e153", "--reps", "3",
         "--rounds", "3"],
        ["kalman-check", "--sigma0", "1e100", "--sigma-m", "1e100", "--t-max", "3"],
        # the engine's fourth-power sums overflow
        ["simulate", "--sigma-d", "1e80", "--reps", "3", "--rounds", "3"],
    ])
    def test_noise_scale_outside_the_range_writes_nothing(self, tmp_path, capsys, argv):
        code = main(argv + ["--threads", "1", "--out", "s.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "must be finite and" in err and "in [1e-50, 1e+50], got" in err
        assert list(tmp_path.iterdir()) == []

    def test_closed_forms_fail_before_the_engine_starts(self, tmp_path, capsys,
                                                         monkeypatch):
        # wstar's printed limit needs rho_star_const, which fails here
        def no_engine(*args, **kwargs):
            raise AssertionError("the engine started")

        def no_closed_form(cfg):
            raise ValueError("no closed form")

        monkeypatch.setattr(cli, "run", no_engine)
        monkeypatch.setattr(cli, "rho_star_const", no_closed_form)
        code = main(["simulate", "--reps", "3", "--rounds", "3", "--threads", "1",
                     "--out", "s.csv"])
        assert code == 2
        assert "error: no closed form" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # stands in for a dense filter too large to allocate; nothing is allocated
        def no_memory(cfg, t_max):
            raise MemoryError("cannot allocate the dense filter")

        monkeypatch.setattr(cli, "dense_filter_path", no_memory)
        code = main(["kalman-check", "--t-max", "3", "--threads", "1", "--out", "k.csv"])
        assert code == 2
        assert "error: cannot allocate the dense filter" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep", "kalman-check",
                                         "best-response"])
    def test_agent_count_beyond_the_float_range_writes_nothing(self, tmp_path, capsys,
                                                               command, source):
        n = 10 ** 400
        if source == "flag":
            argv = ["--n", str(n)]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"n": n}))
            argv = ["--config", "cfg.json"]
        code = main([command, *argv, "--threads", "1", "--out", "s.csv"])
        assert code == 2
        assert f"error: n must be <= 1.79769e+308, got {n}\n" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["kalman-check", "--t-max"],
        ["best-response", "--t-max"],
        ["best-response", "--opponents", "constant", "--t-max"],
        ["simulate", "--reps", "3", "--rounds"],
        ["compare", "--rounds"],
        ["sweep", "--reps", "3", "--rounds"],
    ], ids=["kalman-check", "best-response-wstar", "best-response-constant", "simulate",
            "compare", "sweep"])
    def test_schedule_too_long_for_memory_fails_at_once(self, tmp_path, capsys, argv):
        # 10**15 rounds is 8 PB of schedule, which numpy refuses to allocate
        code = main(argv + [str(10 ** 15), "--threads", "1", "--out", "s.csv"])
        assert code == 2
        assert "error: Unable to allocate" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep"])
    def test_replications_too_many_for_memory_fail_at_once(self, tmp_path, capsys, command):
        # 10**18 replications are 5 * 10**13 blocks of 20,000, whose result
        # slots alone need more than the address space holds
        code = main([command, "--reps", str(10 ** 18), "--threads", "1", "--out", "s.csv"])
        assert code == 2
        assert "error: Unable to allocate" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "compare", "sweep"])
    def test_sigma0_beyond_the_engine_limit_writes_nothing(self, tmp_path, capsys,
                                                           monkeypatch, command):
        # the engine would lose the stretches' bits: simulate used to print a
        # final-round variance of 0.00144 beside a predicted limit of 1.804
        def no_blocks(*args):
            raise AssertionError("a block started")

        monkeypatch.setattr(sim.streams, "substream", no_blocks)
        code = main([command, "--n", "5", "--sigma0", "1e20", "--rounds", "100",
                     "--reps", "20000", "--seed", "1", "--threads", "1", "--out", "s.csv"])
        assert code == 2
        assert ("error: sigma0 = 1e+20 exceeds 1e+12 * sqrt(alpha_infty) = "
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_closed_forms_take_a_sigma0_the_engine_rejects(self, tmp_path):
        assert main(["best-response", "--n", "5", "--sigma0", "1e20", "--threads", "1",
                     "--out", "br.csv"]) == 0
        assert (tmp_path / "br.csv").exists()

    def test_helper_thread_that_cannot_start_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # stands in for a process out of threads; no thread is started
        class CannotStart(threading.Thread):
            def start(self):
                raise RuntimeError("can't start new thread")

        monkeypatch.setattr(sim.threading, "Thread", CannotStart)
        code = main(["simulate", "--n", "3", "--rounds", "3", "--reps", "40001",
                     "--threads", "2", "--out", "s.csv"])
        assert code == 2
        assert (f"error: [Errno {errno.EAGAIN}] cannot start a helper thread: "
                "can't start new thread\n") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestClosedFormFlags:
    @pytest.mark.parametrize("command", ["kalman-check", "best-response"])
    def test_run_size_comes_only_from_defaults_or_a_config_file(self, tmp_path, command):
        for flag in ("--rounds", "--reps"):
            with pytest.raises(SystemExit) as exc:
                main([command, flag, "5", "--threads", "1", "--out", "c.csv"])
            assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []
        # the sidecar still records both settings, which these commands do not read
        (tmp_path / "cfg.json").write_text(json.dumps({"replications": 7, "horizon": 9}))
        assert main([command, "--config", "cfg.json", "--t-max", "3", "--threads", "1",
                     "--out", "c.csv"]) == 0
        sidecar = json.loads((tmp_path / "c.csv.config.json").read_text())
        assert (sidecar["replications"], sidecar["horizon"]) == (7, 9)


class TestUnreadSettings:
    """A setting the command does not read is checked as the command that
    reads it checks it, since the sidecar records it."""

    @pytest.mark.parametrize("argv, config, message", [
        (["best-response", "--opponents", "wstar", "--rho", "nan", "--t-max", "3"], None,
         "rho must be in [0, 1], got nan"),
        (["simulate", "--policy", "wstar", "--rho", "inf", "--n", "2", "--rounds", "2",
          "--reps", "2"], None, "rho must be in [0, 1], got inf"),
        (["kalman-check"], '{"replications": -5, "grid_step": -1.0, "grid_stop": 1e400, '
                           '"rho": 7.0}', "rho must be in [0, 1], got 7.0"),
        (["kalman-check"], '{"replications": -5}', "replications must be >= 1, got -5"),
        (["kalman-check"], '{"grid_step": -1.0}', "grid_step must be >= 1e-12, got -1.0"),
        (["kalman-check"], '{"grid_stop": 1e400}',
         "grid start, stop and step must be finite, got 0.02, inf, 0.02"),
        (["best-response"], '{"policy": "bogus"}', "unknown policy kind 'bogus'"),
        (["sweep", "--reps", "3", "--rounds", "3"], '{"rho": 1.5}',
         "rho must be in [0, 1], got 1.5"),
        (["compare", "--b", "wstar", "--rho-b", "nan", "--rounds", "2", "--reps", "2"], None,
         "rho must be in [0, 1], got nan"),
        (["compare", "--b", "matc", "--rho-b", "1.5", "--rounds", "2", "--reps", "2"], None,
         "rho must be in [0, 1], got 1.5"),
    ], ids=["best-response-nan-rho", "simulate-inf-rho", "kalman-check-four",
            "kalman-check-replications", "kalman-check-grid-step",
            "kalman-check-grid-stop", "best-response-policy", "sweep-rho",
            "compare-wstar-nan-rho-b", "compare-matc-rho-b"])
    def test_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, argv, config,
                                      message):
        def no_work(*args, **kwargs):
            raise AssertionError("the command started its work")

        for name in ("run", "run_paired", "sweep_rho", "dense_filter_path", "best_response"):
            monkeypatch.setattr(cli, name, no_work)
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv = argv + ["--config", "cfg.json"]
        code = main(argv + ["--threads", "1", "--out", "s.csv"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            (["cfg.json"] if config is not None else [])

    @pytest.mark.parametrize("argv", [
        ["simulate", "--rounds", "3", "--reps", "5"],
        ["compare", "--rounds", "3"],
        ["sweep", "--rounds", "3", "--reps", "5", "--grid-step", "0.5"],
        ["kalman-check", "--t-max", "3"],
        ["best-response", "--opponents", "constant", "--t-max", "3"],
    ], ids=lambda argv: argv[0])
    def test_every_sidecar_is_strict_json(self, tmp_path, argv):
        # as RFC 8259 reads it: NaN and Infinity are not JSON
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        assert main(argv + ["--threads", "1", "--out", "s.csv"]) == 0
        text = (tmp_path / "s.csv.config.json").read_text()
        assert json.loads(text, parse_constant=no_constant)["command"] == argv[0]

    def test_the_writer_refuses_a_value_that_is_not_json(self, tmp_path):
        settings = dict(cli.DEFAULTS, rho=math.nan, out="s.csv")
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_outputs(settings, "t", [(0,)])
        assert list(tmp_path.iterdir()) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def subcommand_parsers():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if a.dest == "command")
    return sub.choices


def test_readme_command_line_section_matches_the_parser():
    text = README.read_text()
    # every example command parses once its continuation lines are joined
    commands = [shlex.split(line)[1:] for line in text.replace("\\\n", " ").splitlines()
                if line.startswith("stochalign ")]
    assert {argv[0] for argv in commands} == set(subcommand_parsers())
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
    # the flag table lists exactly each subcommand's flags
    rows = dict(re.findall(r"^\| (`[a-z-]+`|every subcommand) \| (`--.*) \|$",
                           text, flags=re.MULTILINE))
    common = set(re.findall(r"`(--[a-z0-9-]+)`", rows.pop("every subcommand")))
    listed = {name.strip("`"): common | set(re.findall(r"`(--[a-z0-9-]+)`", cell))
              for name, cell in rows.items()}
    actual = {name: {flag for action in p._actions for flag in action.option_strings
                     if flag not in ("-h", "--help")}
              for name, p in subcommand_parsers().items()}
    assert listed == actual


def test_readme_library_names_exist(monkeypatch):
    text = README.read_text()
    (block,) = re.findall(r"^## Library\n+```python\n(.*?)^```$", text,
                          flags=re.MULTILINE | re.DOTALL)
    names = set(re.findall(r"\bsa\.(\w+)", block))
    assert {"ModelConfig", "run", "best_response"} <= names
    assert sorted(name for name in names if not hasattr(stochalign, name)) == []
    # the block also runs as written, at 2,000 replications at most, so an
    # attribute it reads that the package lacks fails here too
    plan_type = stochalign.RunPlan

    def capped(**fields):
        return plan_type(**{**fields, "replications": min(fields["replications"], 2_000)})

    monkeypatch.setattr(stochalign, "RunPlan", capped)
    exec(compile(block, "README.md", "exec"), {})


def test_pyproject_matches_the_package():
    # pip installs the version the package reports, and the console script
    # runs the command line's entry point
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((README.parent / "pyproject.toml").read_text())["project"]
    assert project["version"] == stochalign.__version__
    module, _, name = project["scripts"]["stochalign"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def test_test_tool_pins_agree():
    # CI's pip line, the dev extra and README's install line pin the same
    # pytest and hypothesis; the derandomized examples depend on hypothesis's version
    root = README.parent
    sources = {"ci": root / ".github" / "workflows" / "tier1.yml",
               "pyproject": root / "pyproject.toml", "readme": README}
    for tool in ("pytest", "hypothesis"):
        pins = {name: re.findall(rf'"{tool}==([^"]+)"', path.read_text())
                for name, path in sources.items()}
        assert all(len(found) == 1 for found in pins.values()), pins
        assert len({found[0] for found in pins.values()}) == 1, pins


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == 2
