"""Tests for the deviating agent's best response."""

from fractions import Fraction

import numpy as np
import pytest

from stochalign.game import BestResponseSchedule, best_response, deviant_policy, nash_residual
from stochalign.kalman import AlphaSchedule
from stochalign.model import ModelConfig


def exact_best_response_two_agents(rho_opp, rounds):
    """Independent oracle in exact rational arithmetic (n=2, unit sigmas)."""
    p = Fraction(2, 1)  # c sigma0^2 with c = 2
    coeffs, p_pres = [], []
    for _ in range(rounds):
        p_pres.append(p)
        k = p / (p + 1)
        coeffs.append((1 - rho_opp) * k)
        p = p * 1 / (p + 1) * (1 - rho_opp) ** 2 + rho_opp**2 + 1 + 1
    return coeffs, p_pres


class TestBestResponse:
    def test_hand_iteration_against_exact_arithmetic(self):
        # n=2, all sigmas 1, opponents fixed at 1/2:
        # p- = 2, 29/12, 199/82, 682/281; coeff = 1/3, 29/82, 199/562, 341/963
        cfg = ModelConfig(n=2)
        br = best_response([0.5] * 4, cfg, 3)
        exact_c, exact_p = exact_best_response_two_agents(Fraction(1, 2), 4)
        assert exact_p == [
            Fraction(2),
            Fraction(29, 12),
            Fraction(199, 82),
            Fraction(682, 281),
        ]
        assert exact_c == [
            Fraction(1, 3),
            Fraction(29, 82),
            Fraction(199, 562),
            Fraction(341, 963),
        ]
        np.testing.assert_allclose(br.p_pre, [float(p) for p in exact_p], rtol=1e-15)
        np.testing.assert_allclose(
            br.responsiveness, [float(cv) for cv in exact_c], rtol=1e-15
        )

    def test_result_length(self):
        br = best_response(np.full(11, 0.3), ModelConfig(n=4), 10)
        assert len(br) == 11
        assert isinstance(br, BestResponseSchedule)

    def test_rejects_short_schedule(self):
        with pytest.raises(ValueError):
            best_response([0.5, 0.5], ModelConfig(n=2), 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_schedule(self, bad):
        schedule = np.full(4, 0.5)
        schedule[3] = bad
        with pytest.raises(ValueError, match="opponent schedule must be finite"):
            best_response(schedule, ModelConfig(n=3), 3)
        with pytest.raises(ValueError, match="opponent schedule must be finite"):
            nash_residual(schedule, ModelConfig(n=3), 3)
        # entries past t_max are never read
        assert best_response(schedule, ModelConfig(n=3), 2).responsiveness.shape == (3,)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            best_response([0.5], ModelConfig(n=2), -1)

    @pytest.mark.parametrize("t_max", [True, 2.5])
    def test_rejects_non_integer_t_max(self, t_max):
        # True used to run as t_max=1, and 2.5 failed inside numpy
        with pytest.raises(ValueError, match="t_max must be an integer"):
            best_response(np.full(4, 0.5), ModelConfig(n=2), t_max)
        with pytest.raises(ValueError, match="t_max must be an integer"):
            nash_residual(np.full(4, 0.5), ModelConfig(n=2), t_max)

    def test_schedule_is_fixed_point(self):
        for n, sm, sd in ((2, 1.0, 1.0), (5, 2.0, 1.0), (10, 1.0, 2.0)):
            cfg = ModelConfig(n=n, sigma_m=sm, sigma_d=sd)
            sched = AlphaSchedule(cfg, 50)
            br = best_response(sched.rhos(50), cfg, 50)
            np.testing.assert_allclose(
                br.responsiveness, sched.rhos(50), atol=1e-12
            )
            # and the deviator's uncertainty is exactly the shared alpha_t
            np.testing.assert_allclose(br.p_pre, sched.alphas(50), atol=1e-10)

    def test_passive_opponents_not_a_fixed_point(self):
        cfg = ModelConfig(n=3)
        res = nash_residual(np.zeros(51), cfg, 50)
        assert res > 0.3

    def test_constant_limit_schedule_near_fixed_point(self):
        # the constant rho* schedule is only wrong in the transient: the
        # residual is visible at t=0 and decays to zero
        from stochalign.analysis import rho_star_const

        cfg = ModelConfig(n=4)
        const = np.full(201, rho_star_const(cfg))
        br = best_response(const, cfg, 200)
        gaps = np.abs(br.responsiveness - const)
        assert gaps[0] > 1e-3
        assert gaps[-1] < 1e-9

    def test_nash_residual_of_scheduled_play(self):
        cfg = ModelConfig(n=5, sigma_m=1.5, sigma_d=0.5)
        sched = AlphaSchedule(cfg, 50)
        assert nash_residual(sched.rhos(50), cfg, 50) <= 1e-12


class TestDeviantPolicy:
    def test_matches_components(self):
        # bit for bit: rho*(t) * y off the deviant column, coeffs[t] * y_i on it
        cfg = ModelConfig(n=3)
        sched = AlphaSchedule(cfg, 5)
        coeffs = np.array([0.9, 0.8, 0.7])
        fn = deviant_policy(coeffs, sched, agent=1)
        y = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0], [0.3, 0.7, -1.1]])
        for t in range(3):
            expect = sched.rho(t) * y
            expect[:, 1] = coeffs[t] * y[:, 1]
            np.testing.assert_array_equal(fn(y, t), expect)

    def test_does_not_mutate_measurements(self):
        cfg = ModelConfig(n=2)
        sched = AlphaSchedule(cfg, 2)
        y = np.array([1.0, 2.0])
        before = y.copy()
        deviant_policy([0.5], sched)(y, 0)
        np.testing.assert_array_equal(y, before)


    @pytest.mark.parametrize("agent, message", [
        (-1, r"agent must be in \[0, 3\), got -1"),
        (3, r"agent must be in \[0, 3\), got 3"),
        (True, "agent must be an integer"),
        (1.5, "agent must be an integer"),
    ])
    def test_rejects_agent_outside_the_agents(self, agent, message):
        # True would make every agent deviate and -1 would pick the last one
        sched = AlphaSchedule(ModelConfig(n=3), 2)
        with pytest.raises(ValueError, match=message):
            deviant_policy([0.5, 0.5, 0.5], sched, agent=agent)


class TestEmpiricalDominance:
    def test_best_response_beats_fixed_deviations(self):
        # the deviator's mean |stretch| under the best-response schedule is
        # no worse (within 3 standard errors) than under any fixed
        # deviation coefficient, against scheduled opponents
        from stochalign.sim import RunPlan, run_lanes

        horizon = 60
        cfg = ModelConfig(n=5, horizon=horizon, seed=2718)
        reps = 100_000
        sched = AlphaSchedule(cfg, horizon)
        br = best_response(sched.rhos(horizon), cfg, horizon)

        fixed = (0.0, 0.25, 0.5, 0.75, 1.0)
        # one pass: the best response and every fixed deviation are lanes
        # on the same noise
        plan = RunPlan(cfg=cfg, policy=deviant_policy(br.responsiveness, sched),
                       replications=reps, threads=4)
        base, *others = run_lanes(
            plan, [deviant_policy(np.full(horizon + 1, c), sched) for c in fixed])
        # the deviator is agent 0: its own column of each lane's statistics
        base_abs = base.agent_mean_abs_stretch[:, 0]
        for coeff, result in zip(fixed, others):
            other_abs = result.agent_mean_abs_stretch[:, 0]
            other_se = result.agent_std_error[:, 0]
            assert np.all(base_abs <= other_abs + 3.0 * other_se), (
                f"fixed coefficient {coeff} beat the best response"
            )
