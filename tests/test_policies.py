"""Tests for the move policies."""

import math

import numpy as np
import pytest

from stochalign.kalman import AlphaSchedule
from stochalign.model import ModelConfig
from stochalign.policies import (
    POLICY_KINDS,
    PolicySpec,
    make_policy,
    matc_moves,
    shifted_moves,
    weighted_moves,
    wstar_moves,
)
from stochalign.structmat import apply, mn


class TestWeighted:
    def test_passive(self):
        y = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(weighted_moves(y, 0.0), np.zeros(3))

    def test_full_weight(self):
        y = np.array([1.0, -2.0])
        np.testing.assert_array_equal(weighted_moves(y, 1.0), y)

    def test_hand_value(self):
        out = weighted_moves(np.array([2.0, -2.0]), 0.5)
        np.testing.assert_array_equal(out, np.array([1.0, -1.0]))

    def test_rejects_out_of_range(self):
        for rho in (-0.1, 1.5):
            with pytest.raises(ValueError):
                weighted_moves(np.zeros(2), rho)

    def test_linear_in_measurements(self):
        rng = np.random.default_rng(1)
        y1, y2 = rng.normal(size=(2, 4))
        lhs = weighted_moves(2.0 * y1 + y2, 0.3)
        rhs = 2.0 * weighted_moves(y1, 0.3) + weighted_moves(y2, 0.3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)


class TestWstar:
    def test_first_round_two_agents(self):
        # rho*(0) = 0.4 at n=2 with unit noise
        sched = AlphaSchedule(ModelConfig(n=2), 0)
        out = wstar_moves(np.array([1.0, -1.0]), 0, sched)
        np.testing.assert_allclose(out, np.array([0.4, -0.4]), atol=1e-15)

    def test_degenerate_start_is_passive(self):
        sched = AlphaSchedule(ModelConfig(n=3, sigma0=0.0), 0)
        out = wstar_moves(np.array([5.0, -1.0, 2.0]), 0, sched)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_rounds_beyond_schedule_extend(self):
        sched = AlphaSchedule(ModelConfig(n=2), 1)
        out = wstar_moves(np.ones(2), 500, sched)
        assert out[0] == pytest.approx(sched.rho(500))


class TestMatc:
    def test_equal_measurements_no_move(self):
        sched = AlphaSchedule(ModelConfig(n=3), 0)
        out = matc_moves(np.full(3, 2.5), 0, sched)
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)

    def test_two_agents_hand_value(self):
        # n=2, Y=(1,-1): moves are (rho*(t), -rho*(t))
        sched = AlphaSchedule(ModelConfig(n=2), 0)
        out = matc_moves(np.array([1.0, -1.0]), 0, sched)
        np.testing.assert_allclose(out, np.array([0.4, -0.4]), atol=1e-15)

    def test_per_agent_formula(self):
        # (n-1)/n rho*(t) (Y_i - mean of others), written out per agent
        rng = np.random.default_rng(2)
        for n in (2, 3, 6):
            cfg = ModelConfig(n=n, sigma_m=1.4, sigma_d=0.8)
            sched = AlphaSchedule(cfg, 5)
            y = rng.normal(size=n)
            for t in (0, 3):
                coeff = (n - 1) / n * sched.rho(t)
                oracle = np.array(
                    [
                        coeff * (y[i] - (y.sum() - y[i]) / (n - 1))
                        for i in range(n)
                    ]
                )
                np.testing.assert_allclose(
                    matc_moves(y, t, sched), oracle, atol=1e-13
                )

    def test_differs_from_wstar_by_common_shift(self):
        # matc = wstar - rho*(t) mean(Y) on every agent
        rng = np.random.default_rng(3)
        cfg = ModelConfig(n=4)
        sched = AlphaSchedule(cfg, 10)
        y = rng.normal(size=(7, 4))
        for t in (0, 2, 9):
            diff = wstar_moves(y, t, sched) - matc_moves(y, t, sched)
            lam = sched.rho(t) * y.mean(axis=-1)
            np.testing.assert_allclose(diff, lam[:, None] * np.ones(4), atol=1e-13)

    def test_moves_sum_to_zero(self):
        rng = np.random.default_rng(4)
        sched = AlphaSchedule(ModelConfig(n=5), 0)
        out = matc_moves(rng.normal(size=(100, 5)), 0, sched)
        np.testing.assert_allclose(out.sum(axis=-1), np.zeros(100), atol=1e-12)

    def test_rejects_wrong_width(self):
        sched = AlphaSchedule(ModelConfig(n=3), 0)
        with pytest.raises(ValueError):
            matc_moves(np.zeros(4), 0, sched)


class TestShifted:
    def test_zero_shift(self):
        base = np.array([1.0, 2.0])
        np.testing.assert_array_equal(shifted_moves(base, 0.0), base)

    def test_scalar_shift(self):
        out = shifted_moves(np.array([1.0, 2.0]), 0.5)
        np.testing.assert_array_equal(out, np.array([1.5, 2.5]))

    def test_batched_shift(self):
        base = np.zeros((3, 2))
        out = shifted_moves(base, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out, np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))

    def test_shift_preserves_stretch(self):
        from stochalign.model import stretch_values

        rng = np.random.default_rng(5)
        pos = rng.normal(size=6)
        moves = rng.normal(size=6)
        s1 = stretch_values(pos + moves)
        s2 = stretch_values(pos + shifted_moves(moves, 17.3))
        np.testing.assert_allclose(s1, s2, atol=1e-12)


class TestPolicySpec:
    def test_kinds_catalog(self):
        assert POLICY_KINDS == ("weighted", "scheduled", "wstar", "matc", "shifted")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="optimal")

    def test_weighted_needs_valid_rho(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="weighted")
        with pytest.raises(ValueError):
            PolicySpec(kind="weighted", rho=1.5)

    def test_scheduled_needs_rhos(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="scheduled")

    @pytest.mark.parametrize("rhos", [[2.0, -1.0], [0.5, float("nan")], [float("inf")]])
    def test_scheduled_rejects_values_outside_unit_interval(self, rhos):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PolicySpec(kind="scheduled", rhos=rhos)

    def test_shifted_needs_base_and_rule(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="shifted", base=PolicySpec(kind="weighted", rho=0.5))


class TestMakePolicy:
    def test_weighted(self):
        cfg = ModelConfig(n=3)
        fn = make_policy(PolicySpec(kind="weighted", rho=0.25), cfg)
        y = np.array([4.0, 0.0, -4.0])
        np.testing.assert_array_equal(fn(y, 7), 0.25 * y)

    def test_scheduled_uses_round_index(self):
        cfg = ModelConfig(n=2)
        fn = make_policy(PolicySpec(kind="scheduled", rhos=[0.0, 0.5, 1.0]), cfg)
        y = np.array([2.0, -2.0])
        np.testing.assert_array_equal(fn(y, 0), np.zeros(2))
        np.testing.assert_array_equal(fn(y, 1), 0.5 * y)
        np.testing.assert_array_equal(fn(y, 2), y)

    def test_wstar_matches_function(self):
        cfg = ModelConfig(n=2)
        sched = AlphaSchedule(cfg, 10)
        fn = make_policy(PolicySpec(kind="wstar"), cfg, sched)
        y = np.array([1.0, 3.0])
        np.testing.assert_array_equal(fn(y, 4), wstar_moves(y, 4, sched))

    def test_matc_matches_function(self):
        cfg = ModelConfig(n=3)
        sched = AlphaSchedule(cfg, 10)
        fn = make_policy(PolicySpec(kind="matc"), cfg, sched)
        y = np.array([1.0, 3.0, -1.0])
        np.testing.assert_array_equal(fn(y, 2), matc_moves(y, 2, sched))

    def test_shifted_composition(self):
        cfg = ModelConfig(n=2)
        spec = PolicySpec(
            kind="shifted",
            base=PolicySpec(kind="weighted", rho=0.5),
            shift_rule=lambda y, t: float(t),
        )
        fn = make_policy(spec, cfg)
        y = np.array([2.0, -2.0])
        np.testing.assert_array_equal(fn(y, 3), 0.5 * y + 3.0)

    def test_default_schedule_built_from_config(self):
        cfg = ModelConfig(n=2, horizon=5)
        fn = make_policy(PolicySpec(kind="wstar"), cfg)
        out = fn(np.array([1.0, -1.0]), 0)
        np.testing.assert_allclose(out, np.array([0.4, -0.4]), atol=1e-15)
