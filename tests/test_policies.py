"""Tests for the move policies and the gains they compile to."""

import numpy as np
import pytest

from stochalign.kalman import AlphaSchedule
from stochalign.model import ModelConfig, stretch_values
from stochalign.policies import POLICY_KINDS, Gain, PolicySpec, make_policy
from stochalign.structmat import apply, mn


def compiled(kind, n, rounds=10, **fields):
    cfg = ModelConfig(n=n, horizon=rounds)
    return make_policy(PolicySpec(kind=kind, **fields), cfg)


class TestWeighted:
    def test_passive(self):
        y = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(compiled("weighted", 3, rho=0.0)(y, 0), np.zeros(3))

    def test_full_weight(self):
        y = np.array([1.0, -2.0])
        np.testing.assert_array_equal(compiled("weighted", 2, rho=1.0)(y, 3), y)

    def test_hand_value(self):
        out = compiled("weighted", 2, rho=0.5)(np.array([2.0, -2.0]), 0)
        np.testing.assert_array_equal(out, np.array([1.0, -1.0]))

    def test_rejects_out_of_range(self):
        for rho in (-0.1, 1.5):
            with pytest.raises(ValueError):
                PolicySpec(kind="weighted", rho=rho)

    def test_linear_in_measurements(self):
        rng = np.random.default_rng(1)
        y1, y2 = rng.normal(size=(2, 4))
        gain = compiled("weighted", 4, rho=0.3)
        lhs = gain(2.0 * y1 + y2, 1)
        rhs = 2.0 * gain(y1, 1) + gain(y2, 1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)


class TestWstar:
    def test_first_round_two_agents(self):
        # rho*(0) = 0.4 at n=2 with unit noise
        out = compiled("wstar", 2)(np.array([1.0, -1.0]), 0)
        np.testing.assert_allclose(out, np.array([0.4, -0.4]), atol=1e-15)

    def test_degenerate_start_is_passive(self):
        cfg = ModelConfig(n=3, sigma0=0.0, horizon=1)
        out = make_policy(PolicySpec(kind="wstar"), cfg)(np.array([5.0, -1.0, 2.0]), 0)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_gain_covers_exactly_the_compiled_rounds(self):
        gain = make_policy(PolicySpec(kind="wstar"), ModelConfig(n=2, horizon=7))
        assert gain.scale.shape == (7,)
        with pytest.raises(IndexError):
            gain(np.ones(2), 7)


class TestMatc:
    def test_equal_measurements_no_move(self):
        out = compiled("matc", 3)(np.full(3, 2.5), 0)
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)

    def test_two_agents_hand_value(self):
        # n=2, Y=(1,-1): moves are (rho*(t), -rho*(t))
        out = compiled("matc", 2)(np.array([1.0, -1.0]), 0)
        np.testing.assert_allclose(out, np.array([0.4, -0.4]), atol=1e-15)

    def test_per_agent_formula(self):
        # (n-1)/n rho*(t) (Y_i - mean of others), written out per agent
        rng = np.random.default_rng(2)
        for n in (2, 3, 6):
            cfg = ModelConfig(n=n, sigma_m=1.4, sigma_d=0.8, horizon=5)
            sched = AlphaSchedule(cfg, 5)
            gain = make_policy(PolicySpec(kind="matc"), cfg)
            y = rng.normal(size=n)
            for t in (0, 3):
                coeff = (n - 1) / n * sched.rho(t)
                oracle = np.array(
                    [
                        coeff * (y[i] - (y.sum() - y[i]) / (n - 1))
                        for i in range(n)
                    ]
                )
                np.testing.assert_allclose(gain(y, t), oracle, atol=1e-13)

    def test_differs_from_wstar_by_common_shift(self):
        # matc = wstar - rho*(t) mean(Y) on every agent
        rng = np.random.default_rng(3)
        cfg = ModelConfig(n=4, horizon=10)
        sched = AlphaSchedule(cfg, 10)
        wstar = make_policy(PolicySpec(kind="wstar"), cfg)
        matc = make_policy(PolicySpec(kind="matc"), cfg)
        y = rng.normal(size=(7, 4))
        for t in (0, 2, 9):
            diff = wstar(y, t) - matc(y, t)
            lam = sched.rho(t) * y.mean(axis=-1)
            np.testing.assert_allclose(diff, lam[:, None] * np.ones(4), atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("sigma0", [0.0, 1.0])
    @pytest.mark.parametrize("sigma_m, sigma_d", [(1.0, 1.0), (1e50, 1.0), (1.0, 1e50),
                                                  (1e-50, 1.0), (1.0, 1e-50)])
    def test_gain_differs_from_wstar_by_the_shift_in_every_entry(self, n, sigma0, sigma_m,
                                                                 sigma_d):
        # wstar's gain minus matc's is rho*(t)/n times the all-ones matrix,
        # so their moves differ by rho*(t) mean(Y) on every agent, over the
        # accepted noise range
        cfg = ModelConfig(n=n, sigma0=sigma0, sigma_m=sigma_m, sigma_d=sigma_d, horizon=30)
        rhos = AlphaSchedule(cfg, 30).rhos()
        wstar = make_policy(PolicySpec(kind="wstar"), cfg)
        matc = make_policy(PolicySpec(kind="matc"), cfg)
        assert wstar.op is None and wstar.scale.shape == matc.scale.shape == (30,)
        for t in range(30):
            diff = wstar.scale[t] * np.eye(n) - (matc.scale[t] * matc.op).to_dense()
            np.testing.assert_allclose(diff, np.full((n, n), rhos[t] / n), rtol=0, atol=1e-12)

    def test_moves_sum_to_zero(self):
        rng = np.random.default_rng(4)
        out = compiled("matc", 5)(rng.normal(size=(100, 5)), 0)
        np.testing.assert_allclose(out.sum(axis=-1), np.zeros(100), atol=1e-12)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            compiled("matc", 3)(np.zeros(4), 0)


class TestShifted:
    # a common shift of every agent's move, the difference between wstar
    # and matc, leaves every stretch unchanged
    def test_shift_preserves_stretch(self):
        rng = np.random.default_rng(5)
        pos = rng.normal(size=6)
        moves = rng.normal(size=6)
        s1 = stretch_values(pos + moves)
        s2 = stretch_values(pos + (moves + 17.3))
        np.testing.assert_allclose(s1, s2, atol=1e-12)


class TestPolicySpec:
    def test_kinds_catalog(self):
        assert POLICY_KINDS == ("weighted", "wstar", "matc")

    def test_unknown_kind(self):
        for kind in ("optimal", "shifted"):
            with pytest.raises(ValueError):
                PolicySpec(kind=kind)

    def test_scheduled_needs_rhos(self):
        # a per-round schedule is built as Gain(rhos); "scheduled" is no
        # longer a spec kind, so naming it is rejected as unknown
        with pytest.raises(ValueError, match="unknown policy kind 'scheduled'"):
            PolicySpec(kind="scheduled")

    def test_weighted_needs_valid_rho(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="weighted")
        with pytest.raises(ValueError):
            PolicySpec(kind="weighted", rho=1.5)

    @pytest.mark.parametrize("kind", ["wstar", "matc"])
    def test_rho_only_for_weighted(self, kind):
        with pytest.raises(ValueError, match=f"{kind} policy takes no rho"):
            PolicySpec(kind=kind, rho=0.3)


class TestGain:
    def test_scale_is_a_read_only_copy(self):
        rhos = np.array([0.1, 0.2])
        gain = Gain(rhos)
        rhos[0] = 0.9
        assert gain.scale[0] == 0.1
        with pytest.raises(ValueError):
            gain.scale[0] = 0.5

    @pytest.mark.parametrize("scale", [0.5, np.zeros((2, 3, 4))])
    def test_rejects_scale_that_is_not_per_round(self, scale):
        with pytest.raises(ValueError, match="gain scale"):
            Gain(scale)

    @pytest.mark.parametrize("scale", [[0.5, float("nan")], [float("inf")], [[0.5, -np.inf]]],
                             ids=["nan", "inf", "per-agent"])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="gain scale must be finite"):
            Gain(scale)

    def test_schedule_uses_round_index(self):
        fn = Gain([0.0, 0.5, 1.0])
        y = np.array([2.0, -2.0])
        np.testing.assert_array_equal(fn(y, 0), np.zeros(2))
        np.testing.assert_array_equal(fn(y, 1), 0.5 * y)
        np.testing.assert_array_equal(fn(y, 2), y)


class TestMakePolicy:
    def test_weighted(self):
        cfg = ModelConfig(n=3)
        fn = make_policy(PolicySpec(kind="weighted", rho=0.25), cfg)
        y = np.array([4.0, 0.0, -4.0])
        np.testing.assert_array_equal(fn(y, 7), 0.25 * y)

    def test_wstar_matches_function(self):
        # bit for bit the textbook move rho*(t) * y
        for n in (2, 3, 5, 8):
            cfg = ModelConfig(n=n, sigma0=1.3, sigma_m=0.7, sigma_d=1.9, horizon=12)
            sched = AlphaSchedule(cfg, 12)
            fn = make_policy(PolicySpec(kind="wstar"), cfg)
            y = np.random.default_rng(n).normal(size=(9, n))
            for t in range(12):
                np.testing.assert_array_equal(fn(y, t), sched.rho(t) * y)

    def test_matc_matches_function(self):
        # bit for bit the textbook move -((n-1)/n rho*(t)) * M_n y
        for n in (2, 3, 5, 8):
            cfg = ModelConfig(n=n, sigma0=0.4, sigma_m=1.6, sigma_d=0.9, horizon=12)
            sched = AlphaSchedule(cfg, 12)
            fn = make_policy(PolicySpec(kind="matc"), cfg)
            y = np.random.default_rng(n).normal(size=(9, n))
            for t in range(12):
                expect = -((n - 1) / n * sched.rho(t)) * apply(mn(n), y)
                np.testing.assert_array_equal(fn(y, t), expect)

    def test_default_schedule_built_from_config(self):
        cfg = ModelConfig(n=2, horizon=5)
        fn = make_policy(PolicySpec(kind="wstar"), cfg)
        assert fn.scale.shape == (5,)
        out = fn(np.array([1.0, -1.0]), 0)
        np.testing.assert_allclose(out, np.array([0.4, -0.4]), atol=1e-15)
