"""Tests for the world model: positions, stretch, measurement, drift."""

import math

import numpy as np
import pytest

from stochalign.model import (
    ModelConfig,
    cost_estimate,
    init_world,
    measure,
    step,
    stretch,
    stretch_values,
)
from stochalign.streams import substream

TINY = 1e-12


def rng_for(seed):
    return np.random.default_rng(seed)


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig(n=3)
        assert cfg.sigma0 == 1.0 and cfg.sigma_m == 1.0 and cfg.sigma_d == 1.0
        assert cfg.horizon == 100 and cfg.seed == 0

    def test_rejects_single_agent(self):
        with pytest.raises(ValueError):
            ModelConfig(n=1)

    def test_rejects_bad_sigmas(self):
        with pytest.raises(ValueError):
            ModelConfig(n=3, sigma0=-0.1)
        with pytest.raises(ValueError):
            ModelConfig(n=3, sigma_m=0.0)
        with pytest.raises(ValueError):
            ModelConfig(n=3, sigma_d=0.0)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            ModelConfig(n=3, horizon=-1)

    def test_rejects_fractional_horizon(self):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            ModelConfig(n=3, horizon=2.5)

    def test_rejects_non_integer_agent_count(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            ModelConfig(n=3.0)

    @pytest.mark.parametrize("name", ["sigma0", "sigma_m", "sigma_d"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_sigmas(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelConfig(n=3, **{name: value})

    def test_degenerate_initial_spread_allowed(self):
        cfg = ModelConfig(n=4, sigma0=0.0)
        world = init_world(cfg, rng_for(0))
        np.testing.assert_array_equal(world.positions, np.zeros(4))


class TestInitWorld:
    def test_shape_and_round(self):
        cfg = ModelConfig(n=5)
        world = init_world(cfg, rng_for(3))
        assert world.round == 0
        assert world.positions.shape == (5,)

    def test_deterministic_per_seed(self):
        cfg = ModelConfig(n=5)
        a = init_world(cfg, rng_for(9)).positions
        b = init_world(cfg, rng_for(9)).positions
        np.testing.assert_array_equal(a, b)

    def test_initial_spread_scale(self):
        # sample variance of 1e5 draws should sit within 2% of sigma0^2
        cfg = ModelConfig(n=3, sigma0=1.5)
        rng = rng_for(17)
        draws = np.concatenate(
            [init_world(cfg, rng).positions for _ in range(40_000)]
        )
        assert draws.size == 120_000
        assert abs(draws.var() / cfg.sigma0**2 - 1.0) < 0.02


class TestStretch:
    def test_aligned_world_has_zero_stretch(self):
        np.testing.assert_array_equal(
            stretch_values(np.array([2.0, 2.0, 2.0])), np.zeros(3)
        )

    def test_two_agents(self):
        np.testing.assert_array_equal(
            stretch_values(np.array([0.0, 1.0])), np.array([1.0, -1.0])
        )

    def test_three_agents_hand_values(self):
        out = stretch_values(np.array([1.0, 2.0, 6.0]))
        np.testing.assert_allclose(out, np.array([3.0, 1.5, -4.5]))

    def test_sums_to_zero_randomized(self):
        rng = rng_for(23)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            pos = rng.normal(scale=5.0, size=n)
            assert abs(stretch_values(pos).sum()) < 1e-10

    def test_batched_positions(self):
        rng = rng_for(31)
        pos = rng.normal(size=(7, 4, 5))
        out = stretch_values(pos)
        assert out.shape == pos.shape
        oracle = np.stack(
            [np.stack([stretch_values(row) for row in block]) for block in pos]
        )
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_stretch_of_world(self):
        cfg = ModelConfig(n=3)
        world = init_world(cfg, rng_for(1))
        np.testing.assert_array_equal(stretch(world), stretch_values(world.positions))


class TestMeasure:
    def test_noise_free_limit(self):
        cfg = ModelConfig(n=3, sigma_m=TINY)
        world = init_world(cfg, rng_for(5))
        y = measure(world, cfg, rng_for(6))
        np.testing.assert_allclose(y, stretch(world), atol=1e-9)

    def test_unbiased(self):
        cfg = ModelConfig(n=3, sigma_m=1.0)
        world = init_world(cfg, rng_for(2))
        rng = rng_for(77)
        samples = np.stack([measure(world, cfg, rng) for _ in range(50_000)])
        np.testing.assert_allclose(samples.mean(axis=0), stretch(world), atol=0.02)

    def test_noise_scale(self):
        cfg = ModelConfig(n=2, sigma_m=0.7)
        world = init_world(ModelConfig(n=2, sigma0=0.0), rng_for(0))
        rng = rng_for(13)
        samples = np.stack([measure(world, cfg, rng) for _ in range(50_000)])
        assert abs(samples.var() / cfg.sigma_m**2 - 1.0) < 0.02


class TestStep:
    def test_zero_moves_drift_free(self):
        cfg = ModelConfig(n=4, sigma_d=TINY)
        world = init_world(cfg, rng_for(8))
        nxt = step(world, np.zeros(4), cfg, rng_for(9))
        assert nxt.round == 1
        np.testing.assert_allclose(nxt.positions, world.positions, atol=1e-9)

    def test_moves_are_added(self):
        cfg = ModelConfig(n=3, sigma_d=TINY)
        world = init_world(cfg, rng_for(4))
        nxt = step(world, -world.positions, cfg, rng_for(5))
        np.testing.assert_allclose(nxt.positions, np.zeros(3), atol=1e-9)

    def test_drift_scale(self):
        cfg = ModelConfig(n=2, sigma0=0.0, sigma_d=2.0)
        world = init_world(cfg, rng_for(0))
        rng = rng_for(19)
        increments = np.concatenate(
            [step(world, np.zeros(2), cfg, rng).positions for _ in range(50_000)]
        )
        assert abs(increments.var() / cfg.sigma_d**2 - 1.0) < 0.02

    def test_rejects_shape_mismatch(self):
        cfg = ModelConfig(n=3)
        world = init_world(cfg, rng_for(0))
        with pytest.raises(ValueError):
            step(world, np.zeros(4), cfg, rng_for(1))

    def test_does_not_mutate_input(self):
        cfg = ModelConfig(n=3)
        world = init_world(cfg, rng_for(0))
        before = world.positions.copy()
        step(world, np.ones(3), cfg, rng_for(1))
        np.testing.assert_array_equal(world.positions, before)


class TestStretchRecursion:
    def test_matches_direct_recursion(self):
        # Simulating positions then taking stretches must agree with the
        # stretch-level recursion s' = s + M_n (moves + drift) under shared
        # noise, to float accuracy over 100 rounds.
        from stochalign.structmat import apply, mn

        cfg = ModelConfig(n=4, sigma0=1.0, sigma_m=1.0, sigma_d=1.0)
        m = mn(4)
        world = init_world(cfg, rng_for(111))
        s_direct = stretch(world)
        rng_m = rng_for(222)
        rng_d = rng_for(333)
        for t in range(100):
            y = measure(world, cfg, rng_m)
            moves = 0.5 * y
            drift = rng_d.normal(scale=cfg.sigma_d, size=4)
            nxt_positions = world.positions + moves + drift
            world = type(world)(round=world.round + 1, positions=nxt_positions)
            s_direct = s_direct + apply(m, moves + drift)
            np.testing.assert_allclose(stretch(world), s_direct, atol=1e-9)


class TestCostEstimate:
    def test_zero(self):
        assert cost_estimate(np.zeros(5)) == 0.0

    def test_hand_value(self):
        assert cost_estimate(np.array([-1.0, 1.0])) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cost_estimate(np.array([]))

    def test_half_normal_mean(self):
        # E|X| for X ~ N(0,1) is sqrt(2/pi)
        rng = rng_for(404)
        est = cost_estimate(rng.normal(size=1_000_000))
        assert abs(est / math.sqrt(2.0 / math.pi) - 1.0) < 0.01


class TestStreams:
    def test_substream_reproducible(self):
        a = substream(5, 2, 1).normal(size=4)
        b = substream(5, 2, 1).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_substreams_distinct(self):
        base = substream(5, 2, 1).normal(size=4)
        assert not np.array_equal(base, substream(5, 2, 2).normal(size=4))
        assert not np.array_equal(base, substream(5, 3, 1).normal(size=4))
        assert not np.array_equal(base, substream(6, 2, 1).normal(size=4))

    def test_negative_seed_normalized(self):
        a = substream(-1, 0, 0).normal(size=2)
        b = substream(2**64 - 1, 0, 0).normal(size=2)
        np.testing.assert_array_equal(a, b)
