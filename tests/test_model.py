"""Tests for the world model: configuration, positions, stretch,
measurement and drift.  Initial draws, measurements and drift exist only
inside the Monte Carlo engine, so those are checked on its stretch and
center-of-mass traces: one round of W(rho) maps a stretch s to
(1 - c rho) s + M_n (rho e + d), c = n/(n-1), with measurement noise e
and drift d.
"""

import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from stochalign.model import (SCALE_MAX, SCALE_MIN, ModelConfig, require_int,
                              require_schedule, stretch_values)
from stochalign.policies import PolicySpec
from stochalign.sim import RunPlan, run, run_lanes
from stochalign.streams import INIT, substream

TINY = 1e-12


def rng_for(seed):
    return np.random.default_rng(seed)


def engine_run(cfg, rho, reps, rounds=1, **plan):
    """The engine's traced run of W(rho) for the given number of rounds."""
    return run_lanes(RunPlan(cfg=replace(cfg, horizon=rounds),
                             policy=PolicySpec(kind="weighted", rho=rho),
                             replications=reps, **plan), (), traces=True)[0]


def engine_traces(cfg, rho, reps, rounds=1):
    """(stretch, center of mass) traces of engine_run."""
    result = engine_run(cfg, rho, reps, rounds)
    return result.stretch_traces, result.com_traces


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

    def test_agent_count_is_at_most_the_largest_float(self):
        # the closed forms take n as a float, so the largest float bounds it
        largest = int(sys.float_info.max)
        assert ModelConfig(n=largest).n == largest
        with pytest.raises(ValueError, match=r"^n must be <= 1.79769e\+308, got 1797"):
            ModelConfig(n=largest + 1)

    def test_rejects_non_integer_agent_count(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            ModelConfig(n=3.0)

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ModelConfig(n=3, seed=seed)

    @pytest.mark.parametrize("name", ["sigma0", "sigma_m", "sigma_d"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_sigmas(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelConfig(n=3, **{name: value})

    @pytest.mark.parametrize("name", ["sigma0", "sigma_m", "sigma_d"])
    @pytest.mark.parametrize("value", [1e200, 1.35e154, 8.9e153, 1e50 * (1 + 1e-15),
                                       1e-50 * (1 - 1e-15), 1e-200, 5e-324])
    def test_rejects_sigmas_outside_the_scale_range(self, name, value):
        zero = "0 or " if name == "sigma0" else ""
        message = f"{name} must be finite and {zero}in [1e-50, 1e+50], got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelConfig(n=3, **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ModelConfig(n=3, **{name: -value})

    @pytest.mark.parametrize("name", ["sigma0", "sigma_m", "sigma_d"])
    @pytest.mark.parametrize("n", [2, 3, 10, 10**6])
    def test_accepts_sigmas_at_both_ends_of_the_scale_range(self, name, n):
        # there a product of two variances times c^2, c = n/(n-1), is
        # finite and nonzero
        c = n / (n - 1)
        for value in (SCALE_MIN, SCALE_MAX):
            cfg = ModelConfig(n=n, **{name: value})
            assert 0 < (c * value ** 2) ** 2 < math.inf
            assert getattr(cfg, name) == value
        assert (SCALE_MIN, SCALE_MAX) == (1e-50, 1e50)

    def test_degenerate_initial_spread_allowed(self):
        cfg = ModelConfig(n=4, sigma0=0.0)
        st, com = engine_traces(cfg, 0.5, 10, rounds=0)
        np.testing.assert_array_equal(st[0], np.zeros((10, 4)))
        np.testing.assert_array_equal(com[0], np.zeros(10))


class TestChecks:
    @pytest.mark.parametrize("value, lo, hi, message", [
        (1.0, None, None, "k must be an integer, got 1.0"),
        (True, 0, None, "k must be an integer, got True"),
        (1, 2, None, "k must be >= 2, got 1"),
        (-1, 0, 3, "k must be in [0, 3), got -1"),
        (3, 0, 3, "k must be in [0, 3), got 3"),
    ])
    def test_require_int_rejects(self, value, lo, hi, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            require_int("k", value, lo=lo, hi=hi)

    @pytest.mark.parametrize("value, lo, hi", [
        (-5, None, None), (2, 2, None), (np.int64(2), 2, None), (0, 0, 3), (2, 0, 3)])
    def test_require_int_accepts(self, value, lo, hi):
        require_int("k", value, lo=lo, hi=hi)

    @pytest.mark.parametrize("values, message", [
        (np.full(2, 0.5), "s needs one scale per round (3), got shape (2,)"),
        (np.full((3, 1), 0.5), "s needs one scale per round (3), got shape (3, 1)"),
        ([0.5, math.nan, 0.5], "s must be finite over its 3 rounds"),
        ([0.5, 0.5, -math.inf], "s must be finite over its 3 rounds"),
    ])
    def test_require_schedule_rejects(self, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            require_schedule("s", values, 3)

    def test_require_schedule_returns_a_float_array(self):
        # an entry past the rounds is never read
        got = require_schedule("s", [1, 2, 3, math.nan], 3)
        assert got.dtype == np.float64 and got.shape == (4,)
        np.testing.assert_array_equal(got[:3], [1.0, 2.0, 3.0])


class TestInitWorld:
    def test_shape_and_round(self):
        result = engine_run(ModelConfig(n=5, seed=3), 0.5, 4, rounds=0)
        assert result.var_stretch.shape == (1,)
        assert result.stretch_traces.shape == (1, 4, 5)

    def test_deterministic_per_seed(self):
        a, _ = engine_traces(ModelConfig(n=5, seed=9), 0.5, 6, rounds=0)
        b, _ = engine_traces(ModelConfig(n=5, seed=9), 0.5, 6, rounds=0)
        c, _ = engine_traces(ModelConfig(n=5, seed=10), 0.5, 6, rounds=0)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_initial_spread_scale(self):
        # positions are i.i.d. N(0, sigma0^2): the center of mass has
        # variance sigma0^2/n and each stretch c sigma0^2
        cfg = ModelConfig(n=3, sigma0=1.5, seed=17)
        st, com = engine_traces(cfg, 0.5, 40_000, rounds=0)
        c = cfg.n / (cfg.n - 1)
        assert abs(com[0].var() * cfg.n / cfg.sigma0**2 - 1.0) < 0.03
        assert abs(st[0].var() / (c * cfg.sigma0**2) - 1.0) < 0.03


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
        # the engine's initial world is the block's INIT draw, bit for bit
        cfg = ModelConfig(n=3, seed=4)
        st, _ = engine_traces(cfg, 0.5, 6, rounds=0)
        positions = substream(cfg.seed, 0, INIT).normal(0.0, cfg.sigma0, (6, 3))
        np.testing.assert_array_equal(st[0], stretch_values(positions))


class TestMeasure:
    def test_noise_free_limit(self):
        # with no noise, W(1) moves each agent by its exact stretch
        cfg = ModelConfig(n=3, sigma_m=TINY, sigma_d=TINY, seed=5)
        st, _ = engine_traces(cfg, 1.0, 50)
        np.testing.assert_allclose(st[1], -0.5 * st[0], atol=1e-9)

    def test_unbiased(self):
        # W(1/2): s' - (1 - c/2) s = M_n e / 2 averages to zero
        cfg = ModelConfig(n=3, sigma_m=1.0, sigma_d=TINY, seed=2)
        st, _ = engine_traces(cfg, 0.5, 50_000)
        residual = st[1] - 0.25 * st[0]
        np.testing.assert_allclose(residual.mean(axis=0), np.zeros(3), atol=0.02)

    def test_noise_scale(self):
        # from an aligned start W(1) leaves s' = M_n e, variance c sigma_m^2
        cfg = ModelConfig(n=2, sigma0=0.0, sigma_m=0.7, sigma_d=TINY, seed=13)
        st, _ = engine_traces(cfg, 1.0, 50_000)
        assert abs(st[1].var() / (2.0 * cfg.sigma_m**2) - 1.0) < 0.03


class TestStep:
    def test_zero_moves_drift_free(self):
        cfg = ModelConfig(n=4, sigma_d=TINY, seed=8)
        st, com = engine_traces(cfg, 0.0, 50)
        np.testing.assert_allclose(st[1], st[0], atol=1e-9)
        np.testing.assert_allclose(com[1], com[0], atol=1e-9)

    def test_moves_are_added(self):
        # noise-free W(1/2) moves by s/2, which shrinks s to (1 - c/2) s
        cfg = ModelConfig(n=3, sigma_m=TINY, sigma_d=TINY, seed=4)
        st, _ = engine_traces(cfg, 0.5, 50)
        np.testing.assert_allclose(st[1], 0.25 * st[0], atol=1e-9)

    def test_drift_scale(self):
        # from an aligned start with no moves: s' = M_n d and the center
        # moves by the mean drift
        cfg = ModelConfig(n=2, sigma0=0.0, sigma_d=2.0, seed=19)
        st, com = engine_traces(cfg, 0.0, 50_000)
        assert abs(st[1].var() / (2.0 * cfg.sigma_d**2) - 1.0) < 0.03
        assert abs(com[1].var() * cfg.n / cfg.sigma_d**2 - 1.0) < 0.03

    def test_rejects_shape_mismatch(self):
        from stochalign.game import deviant_policy
        from stochalign.kalman import AlphaSchedule

        # a per-agent gain for 4 agents is rejected before a 3-agent run
        wide = deviant_policy(np.full(2, 0.5), AlphaSchedule(ModelConfig(n=4), 1))
        with pytest.raises(ValueError, match="does not fit 3 agents"):
            run(RunPlan(cfg=ModelConfig(n=3, horizon=1), policy=wide, replications=5))

    def test_does_not_mutate_input(self):
        positions = rng_for(0).normal(size=(4, 3))
        before = positions.copy()
        stretch_values(positions)
        stretch_values(positions, out=np.empty_like(positions))
        np.testing.assert_array_equal(positions, before)

    def test_rejects_out_overlapping_positions(self):
        # written in place, [[0, 1, 5]] would come out as zeros
        positions = np.array([[0.0, 1.0, 5.0]])
        for out in (positions, positions[:, ::-1], positions.reshape(3)[None]):
            with pytest.raises(ValueError, match="overlap"):
                stretch_values(positions, out=out)
        np.testing.assert_array_equal(positions, [[0.0, 1.0, 5.0]])
        np.testing.assert_array_equal(stretch_values(positions), [[3.0, 1.5, -4.5]])


class TestStretchRecursion:
    def test_matches_direct_recursion(self):
        # Simulating positions then taking stretches must agree with the
        # stretch-level recursion s' = s + M_n (moves + drift) under shared
        # noise, to float accuracy over 100 rounds.
        from stochalign.structmat import apply, mn

        cfg = ModelConfig(n=4, sigma0=1.0, sigma_m=1.0, sigma_d=1.0)
        m = mn(4)
        positions = rng_for(111).normal(0.0, cfg.sigma0, 4)
        s_direct = stretch_values(positions)
        rng_m = rng_for(222)
        rng_d = rng_for(333)
        for t in range(100):
            y = stretch_values(positions) + rng_m.normal(0.0, cfg.sigma_m, 4)
            moves = 0.5 * y
            drift = rng_d.normal(scale=cfg.sigma_d, size=4)
            positions = positions + moves + drift
            s_direct = s_direct + apply(m, moves + drift)
            np.testing.assert_allclose(stretch_values(positions), s_direct, atol=1e-9)


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
