"""Tests for the closed-form steady-state analysis."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from stochalign.analysis import (
    alpha_infty,
    cost_from_variance,
    rho_star_const,
    var_limit,
    var_star_large_n,
)
from stochalign.model import ModelConfig


def variance_recursion_limit(cfg, rho, iters=10_000):
    """Independent oracle: iterate the one-round variance recursion."""
    n, c = cfg.n, cfg.n / (cfg.n - 1)
    v = c * cfg.sigma0**2
    inject = c * (rho**2 * cfg.sigma_m**2 + cfg.sigma_d**2)
    shrink = (1.0 - c * rho) ** 2
    for _ in range(iters):
        v = shrink * v + inject
    return v


class TestVarLimit:
    def test_passive_policy_diverges(self):
        cfg = ModelConfig(n=5)
        assert var_limit(0.0, cfg) == math.inf

    def test_two_agents_full_weight_diverges(self):
        # at n=2, rho=1 the stretch flips sign each round and noise piles up
        assert var_limit(1.0, ModelConfig(n=2)) == math.inf

    def test_hand_value(self):
        # n=2, sigma_m=sigma_d=1, rho=0.5: (0.25+1)/(0.5*(2-2*0.5)) = 2.5
        assert var_limit(0.5, ModelConfig(n=2)) == pytest.approx(2.5, abs=1e-15)

    def test_rejects_out_of_range(self):
        cfg = ModelConfig(n=3)
        for rho in (-0.1, 1.5):
            with pytest.raises(ValueError):
                var_limit(rho, cfg)

    def test_matches_recursion_fixed_point(self):
        for n, rho in ((2, 0.5), (2, 0.9), (3, 0.3), (10, 0.8), (4, 1.0)):
            cfg = ModelConfig(n=n, sigma0=2.0, sigma_m=1.5, sigma_d=0.5)
            limit = var_limit(rho, cfg)
            iterated = variance_recursion_limit(cfg, rho)
            assert abs(iterated / limit - 1.0) < 1e-8

    def test_divergent_case_grows_without_bound(self):
        cfg = ModelConfig(n=4, sigma0=1.0)
        v = cfg.n / (cfg.n - 1) * cfg.sigma0**2
        c = cfg.n / (cfg.n - 1)
        for _ in range(2_000):
            v = (1.0 - c * 0.0) ** 2 * v + c * (0.0 + cfg.sigma_d**2)
        assert v > 1e3


class TestRhoStarConst:
    def test_unit_noise_two_agents(self):
        # n=2, sigma_m=sigma_d=1: rho* = sqrt(2) - 1
        got = rho_star_const(ModelConfig(n=2))
        with localcontext() as ctx:
            ctx.prec = 40
            assert got == float(Decimal(2).sqrt() - 1)  # correctly rounded

    def test_unit_noise_five_agents_keeps_its_bits(self):
        # the value behind the pinned dominance.csv
        assert rho_star_const(ModelConfig(n=5)) == 0.5542476415070754

    def test_drift_far_above_measurement_noise(self):
        # the closed root cancelled to 0.0 here; the limit is 1/c = (n-1)/n
        got = rho_star_const(ModelConfig(n=3, sigma_m=1.0, sigma_d=1e8))
        assert got == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_large_n_golden_ratio(self):
        got = rho_star_const(ModelConfig(n=1_000_000))
        assert got == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-3)

    def test_noise_ratio_moves_the_optimum(self):
        # noisy measurements, calm drift: barely react.  precise
        # measurements, wild drift: approach (n-1)/n, the weight that
        # cancels the stretch outright (never 1, which overshoots)
        lo = rho_star_const(ModelConfig(n=5, sigma_m=10.0, sigma_d=0.1))
        hi = rho_star_const(ModelConfig(n=5, sigma_m=0.01, sigma_d=10.0))
        assert lo < 0.01
        assert hi == pytest.approx(0.8, abs=1e-3)
        assert hi < 0.8

    def test_is_argmin_on_fine_grid(self):
        for n, sm, sd in ((2, 1.0, 1.0), (3, 2.0, 0.5), (10, 0.7, 1.3)):
            cfg = ModelConfig(n=n, sigma_m=sm, sigma_d=sd)
            star = rho_star_const(cfg)
            grid = np.arange(1e-4, 1.0 + 1e-9, 1e-4)
            values = [var_limit(r, cfg) for r in grid]
            best = grid[int(np.argmin(values))]
            assert abs(best - star) <= 1e-4 + 1e-12
            assert var_limit(star, cfg) <= min(values) + 1e-12

    def test_stationary_point(self):
        cfg = ModelConfig(n=4, sigma_m=1.2, sigma_d=0.8)
        star = rho_star_const(cfg)
        h = 1e-6
        slope = (var_limit(star + h, cfg) - var_limit(star - h, cfg)) / (2 * h)
        assert abs(slope) < 1e-4


class TestVarStarLargeN:
    def test_unit_noise_value(self):
        # (1/2)(sqrt(5)+1) at sigma_m=sigma_d=1
        got = var_star_large_n(1.0, 1.0)
        assert got == pytest.approx((math.sqrt(5.0) + 1.0) / 2.0, abs=1e-15)

    def test_noise_free_measurement(self):
        assert var_star_large_n(0.0, 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_matches_var_limit_at_huge_n(self):
        cfg = ModelConfig(n=1_000_000, sigma_m=1.0, sigma_d=1.0)
        at_star = var_limit(rho_star_const(cfg), cfg)
        assert abs(at_star / var_star_large_n(1.0, 1.0) - 1.0) < 1e-5


class TestAlphaInfty:
    def test_unit_noise_two_agents(self):
        # n=2, unit noise: (1/2)(sqrt(4+4)+2) = 1+sqrt(2)
        got = alpha_infty(ModelConfig(n=2))
        assert got == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-14)

    def test_fixed_point_of_uncertainty_recursion(self):
        for n, sm, sd in ((2, 1.0, 1.0), (5, 2.0, 1.0), (10, 1.0, 2.0)):
            cfg = ModelConfig(n=n, sigma_m=sm, sigma_d=sd)
            c = n / (n - 1)
            a = alpha_infty(cfg)
            nxt = sm**2 * a / (c * a + sm**2) + c * sd**2
            assert abs(nxt - a) < 1e-12

    def test_consistent_with_rho_star(self):
        for n in (2, 3, 10):
            cfg = ModelConfig(n=n, sigma_m=1.3, sigma_d=0.6)
            c = n / (n - 1)
            a = alpha_infty(cfg)
            assert rho_star_const(cfg) == pytest.approx(
                a / (c * a + cfg.sigma_m**2), abs=1e-14
            )


class TestCostConversions:
    def test_zero(self):
        assert cost_from_variance(0.0) == 0.0

    def test_hand_value(self):
        assert cost_from_variance(math.pi / 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cost_from_variance(-1.0)

    def test_infinite_variance(self):
        assert cost_from_variance(math.inf) == math.inf

    def test_roundtrip(self):
        # E|x| = sqrt(2 v / pi) inverts to v = pi E|x|^2 / 2
        for v in (0.25, 1.0, 7.5):
            assert math.pi * cost_from_variance(v) ** 2 / 2.0 == pytest.approx(v, rel=1e-14)

    def test_against_sampled_folded_mean(self):
        rng = np.random.default_rng(88)
        var = 2.3
        sampled = np.abs(rng.normal(scale=math.sqrt(var), size=1_000_000)).mean()
        assert abs(sampled / cost_from_variance(var) - 1.0) < 0.01
