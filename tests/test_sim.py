"""Tests for the Monte Carlo engine."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from stochalign import sim, streams
from stochalign.analysis import var_limit
from stochalign.game import deviant_policy
from stochalign.kalman import AlphaSchedule
from stochalign.model import ModelConfig
from stochalign.policies import Gain, PolicySpec
from stochalign.sim import (
    RoundStats,
    RunPlan,
    run,
    run_lanes,
    run_paired,
    steady_state_variance,
    sweep_rho,
)
from stochalign.structmat import mn


def small_plan(**overrides):
    defaults = dict(
        cfg=ModelConfig(n=3, horizon=10, seed=7),
        policy=PolicySpec(kind="weighted", rho=0.5),
        replications=2_000,
    )
    defaults.update(overrides)
    return RunPlan(**defaults)


def shape_moments(x):
    """Skewness and excess kurtosis of the samples in x, pooled."""
    d = x.ravel() - x.mean()
    m2 = np.mean(d * d)
    return np.mean(d**3) / m2**1.5, np.mean(d**4) / m2**2 - 3.0


def assert_same_result(a, b):
    """Two RunResults carry the same bits, traces included."""
    assert a.rounds == b.rounds
    np.testing.assert_array_equal(a.max_abs_stretch_sum, b.max_abs_stretch_sum)
    for name in ("stretch_traces", "com_traces"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            np.testing.assert_array_equal(x, y)


class TestRunPlanValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            small_plan(replications=0)
        with pytest.raises(ValueError):
            small_plan(threads=0)
        with pytest.raises(ValueError):
            small_plan(block_size=0)

    def test_rejects_bad_stat_agent(self):
        with pytest.raises(ValueError):
            small_plan(stat_agent=3)
        with pytest.raises(ValueError):
            small_plan(stat_agent=-1)
        for value in (1.5, True):
            with pytest.raises(ValueError, match="stat_agent must be an integer"):
                small_plan(stat_agent=value)

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError):
            small_plan(replications=10.0)

    def test_short_schedule_rejected_before_any_block(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block started")

        monkeypatch.setattr(streams, "substream", no_blocks)
        plan = small_plan(cfg=ModelConfig(n=3, horizon=5, seed=7), threads=2,
                          policy=Gain([0.5, 0.5]))
        with pytest.raises(ValueError, match="2 rhos but the run has 5 rounds"):
            run(plan)

    def test_short_deviant_gain_rejected_before_any_block(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block started")

        cfg = ModelConfig(n=3, horizon=5, seed=7)
        short_coeffs = deviant_policy([0.5, 0.5], AlphaSchedule(cfg, 5))
        short_schedule = deviant_policy(np.full(6, 0.5), AlphaSchedule(cfg, 3))
        monkeypatch.setattr(streams, "substream", no_blocks)
        for policy, rounds in ((short_coeffs, 2), (short_schedule, 4)):
            with pytest.raises(ValueError, match=f"{rounds} rhos but the run has 5 rounds"):
                run(small_plan(cfg=cfg, threads=2, policy=policy))

    def test_rejects_plain_callables(self):
        with pytest.raises(ValueError, match="PolicySpec or a Gain"):
            run(small_plan(policy=lambda y, t: 0.5 * y))


class TestDeterminism:
    def test_identical_reruns(self):
        a = run(small_plan())
        b = run(small_plan())
        assert a.rounds == b.rounds
        np.testing.assert_array_equal(a.max_abs_stretch_sum, b.max_abs_stretch_sum)

    def test_thread_count_does_not_change_results(self):
        # more threads than cores, switching often, all writing slices of
        # the run's one trace array
        plan = small_plan(replications=2_500, block_size=500, record_traces=True)
        base = run(plan)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run(replace(plan, threads=4))
        finally:
            sys.setswitchinterval(interval)
        assert_same_result(base, threaded)

    def test_seed_changes_results(self):
        a = run(small_plan())
        b = run(small_plan(cfg=ModelConfig(n=3, horizon=10, seed=8)))
        assert a.rounds != b.rounds

    def test_common_noise_across_policies(self):
        # same plan, different policy: the initial worlds coincide exactly
        a = run(small_plan(replications=50, record_traces=True))
        b = run(small_plan(replications=50, record_traces=True,
                           policy=PolicySpec(kind="weighted", rho=0.9)))
        np.testing.assert_array_equal(a.stretch_traces[0], b.stretch_traces[0])
        assert not np.array_equal(a.stretch_traces[5], b.stretch_traces[5])


class TestStatistics:
    def test_round_zero_variance(self):
        # var of the initial stretch is c sigma0^2
        cfg = ModelConfig(n=4, sigma0=2.0, horizon=0, seed=11)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.5),
                             replications=50_000))
        expect = cfg.n / (cfg.n - 1) * cfg.sigma0**2
        r0 = result.rounds[0]
        assert abs(r0.var_stretch - expect) <= 4.0 * r0.var_std_error
        assert abs(r0.var_stretch / expect - 1.0) < 0.03

    def test_variance_tracks_one_round_recursion(self):
        # empirical per-round variance vs the exact recursion
        # v' = (1 - c rho)^2 v + c (rho^2 sigma_m^2 + sigma_d^2).
        # 6 SE leaves ~zero false-alarm mass across 51 dependent rounds;
        # a real recursion error would overshoot by far more
        cfg = ModelConfig(n=4, sigma0=1.0, sigma_m=1.0, sigma_d=1.0,
                          horizon=50, seed=42)
        rho = 0.5
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=rho),
                             replications=50_000))
        c = cfg.n / (cfg.n - 1)
        v = c * cfg.sigma0**2
        for t, stats in enumerate(result.rounds):
            assert abs(stats.var_stretch - v) <= 6.0 * stats.var_std_error, f"round {t}"
            v = (1 - c * rho) ** 2 * v + c * (rho**2 * cfg.sigma_m**2 + cfg.sigma_d**2)

    def test_stretches_sum_to_zero(self):
        result = run(small_plan(replications=5_000))
        assert result.max_abs_stretch_sum.max() <= 1e-10

    def test_single_agent_statistics(self):
        # stat_agent statistics use one coordinate; at round 0 its variance
        # is c sigma0^2 like any other coordinate
        cfg = ModelConfig(n=5, horizon=0, seed=3)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.5),
                             replications=50_000, stat_agent=2))
        expect = cfg.n / (cfg.n - 1)
        r0 = result.rounds[0]
        assert abs(r0.var_stretch / expect - 1.0) < 0.05

    def test_gaussian_shape_of_initial_stretch(self):
        cfg = ModelConfig(n=4, horizon=0, seed=5)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.5),
                             replications=50_000, record_traces=True))
        skew, kurt = shape_moments(result.stretch_traces[0])
        assert abs(skew) < 0.05
        assert abs(kurt) < 0.1

    def test_center_of_mass_recorded(self):
        # every run records the centre of mass, both paired lanes too, as
        # the mean of its trace; three blocks on one and on two threads
        for threads in (1, 2):
            plan = small_plan(policy=PolicySpec(kind="wstar"), replications=500,
                              block_size=200, threads=threads, record_traces=True)
            paired = run_paired(plan, PolicySpec(kind="matc"))
            for result in (run(plan), paired.a, paired.b):
                for t, r in enumerate(result.rounds):
                    assert type(r.center_of_mass) is float
                    assert r.center_of_mass == pytest.approx(result.com_traces[t].mean(),
                                                             rel=0, abs=1e-12)


class TestScheduledPolicies:
    def test_scheduled_variance_equals_alpha(self):
        # under the per-round schedule the stretch variance IS alpha_t,
        # transient included; 1e5 replications make the transient rounds
        # sharp enough to catch an off-by-one in the round index
        cfg = ModelConfig(n=3, horizon=60, seed=9)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"),
                             replications=100_000))
        sched = AlphaSchedule(cfg, 60)
        for t, stats in enumerate(result.rounds):
            dev = abs(stats.var_stretch - sched.alpha(t))
            assert dev <= 6.0 * stats.var_std_error, f"round {t}"

    def test_near_noiseless_center_seeking_settles_immediately(self):
        tiny = 1e-9
        cfg = ModelConfig(n=4, sigma0=1.0, sigma_m=tiny, sigma_d=tiny,
                          horizon=5, seed=13)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="matc"),
                             replications=2_000))
        assert result.rounds[0].mean_abs_stretch > 0.5
        for stats in result.rounds[1:]:
            assert stats.mean_abs_stretch < 1e-6


class TestPairedRuns:
    def test_requires_second_policy(self):
        with pytest.raises(ValueError, match="PolicySpec or a Gain"):
            run_paired(small_plan(), None)

    def test_rejects_shift_rule_without_a_scale_per_round(self):
        for rule in (np.full(9, 0.5), np.full((10, 3), 0.5)):
            with pytest.raises(ValueError, match="one scale per round"):
                run_paired(small_plan(), PolicySpec(kind="matc"), shift_rule=rule)

    def test_rejects_non_finite_shift_rule_before_any_block(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block started")

        # the plan has 10 rounds; an entry past them is never read
        rule = np.append(np.full(10, 0.5), np.nan)
        paired = run_paired(small_plan(replications=20), PolicySpec(kind="matc"),
                            shift_rule=rule)
        assert np.all(np.isfinite(paired.shift_rule_dev))
        monkeypatch.setattr(streams, "substream", no_blocks)
        for bad in (np.nan, np.inf):
            rule[9] = bad
            with pytest.raises(ValueError, match="shift_rule must be finite"):
                run_paired(small_plan(), PolicySpec(kind="matc"), shift_rule=rule)

    def test_same_policy_pairs_exactly(self):
        paired = run_paired(small_plan(replications=500), PolicySpec(kind="weighted", rho=0.5))
        np.testing.assert_array_equal(paired.max_stretch_diff, np.zeros(11))
        assert paired.a.rounds == paired.b.rounds

    def test_wstar_and_center_seeking_share_stretch_paths(self):
        cfg = ModelConfig(n=3, horizon=40, seed=21)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=200)
        sched = AlphaSchedule(cfg, 40)
        paired = run_paired(plan, PolicySpec(kind="matc"),
                            shift_rule=sched.rhos(40))
        assert paired.max_stretch_diff.max() <= 1e-9
        # their move difference is a pure common shift that follows the rule
        assert paired.shift_spread.max() <= 1e-12
        assert paired.shift_rule_dev[:-1].max() <= 1e-12

    def test_paired_traces(self):
        cfg = ModelConfig(n=3, horizon=4, seed=2)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=50,
                       record_traces=True)
        paired = run_paired(plan, PolicySpec(kind="matc"))
        assert paired.a.stretch_traces.shape == (5, 50, 3)
        assert paired.b.com_traces.shape == (5, 50)
        np.testing.assert_allclose(paired.a.stretch_traces,
                                   paired.b.stretch_traces, atol=1e-9)
        # center-seeking keeps the measured center fixed up to drift, the
        # plain schedule lets it wander: traces must differ
        assert not np.allclose(paired.a.com_traces, paired.b.com_traces)


class TestTraces:
    def test_shapes(self):
        result = run(small_plan(replications=40, record_traces=True))
        assert result.stretch_traces.shape == (11, 40, 3)
        assert result.com_traces.shape == (11, 40)

    def test_traces_sum_to_zero(self):
        result = run(small_plan(replications=40, record_traces=True))
        np.testing.assert_allclose(
            result.stretch_traces.sum(axis=-1), 0.0, atol=1e-10)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            run(small_plan(replications=10_000_000, record_traces=True))


class TestSteadyState:
    def test_tail_average(self):
        def fake(t, v):
            return RoundStats(round=t, var_stretch=v, mean_abs_stretch=0.0,
                              std_error=0.0, var_std_error=0.0, center_of_mass=0.0)

        rounds = [fake(t, 1.0) for t in range(18)] + [fake(18, 2.0), fake(19, 4.0)]
        # 20 rounds -> tail is the last 2
        assert steady_state_variance(rounds) == pytest.approx(3.0)

    def test_short_result_uses_last_round(self):
        def fake(t, v):
            return RoundStats(round=t, var_stretch=v, mean_abs_stretch=0.0,
                              std_error=0.0, var_std_error=0.0, center_of_mass=0.0)

        assert steady_state_variance([fake(0, 1.0), fake(1, 5.0)]) == 5.0

    @pytest.mark.filterwarnings("error")
    def test_rejects_no_rounds(self):
        # numpy's mean of an empty slice gave nan with a RuntimeWarning
        with pytest.raises(ValueError, match="at least one round"):
            steady_state_variance([])


class TestLanes:
    def test_sweep_points_equal_single_runs_bit_for_bit(self):
        # 700 replications and 2000-replication blocks: chunks of 2 lanes
        cfg = ModelConfig(n=3, horizon=30, seed=12)
        grid = [0.1, 0.4, 0.7, 1.0, 0.25]
        points = sweep_rho(cfg, grid, 700, block_size=2_000)
        for rho, point in zip(grid, points):
            alone = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=rho),
                                replications=700, block_size=2_000))
            assert point.var_empirical == steady_state_variance(alone.rounds)

    def test_paired_lanes_equal_single_runs_bit_for_bit(self):
        plan = small_plan(policy=PolicySpec(kind="wstar"), replications=900, block_size=400)
        paired = run_paired(plan, PolicySpec(kind="matc"))
        assert paired.a.rounds == run(plan).rounds
        assert paired.b.rounds == run(replace(plan, policy=PolicySpec(kind="matc"))).rounds

    @pytest.mark.parametrize("threads", [1, 2])
    def test_spec_lanes_equal_single_runs_bit_for_bit(self, threads):
        # 900 replications in blocks of 400: three blocks per lane
        plan = small_plan(policy=PolicySpec(kind="wstar"), replications=900, block_size=400,
                          threads=threads, record_traces=True)
        others = [PolicySpec(kind="matc"), PolicySpec(kind="weighted", rho=0.3),
                  Gain(np.linspace(0.1, 0.9, 10))]
        lanes = run_lanes(plan, others)
        assert len(lanes) == 4
        for policy, lane in zip([plan.policy] + others, lanes):
            assert_same_result(lane, run(replace(plan, policy=policy)))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_deviant_lanes_equal_single_runs_bit_for_bit(self, threads):
        cfg = ModelConfig(n=4, horizon=12, seed=5)
        sched = AlphaSchedule(cfg, 12)
        gains = [deviant_policy(np.full(13, c), sched) for c in (0.0, 0.5, 1.0)]
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=700,
                       block_size=300, threads=threads, stat_agent=0)
        lanes = run_lanes(plan, gains)
        for policy, lane in zip([plan.policy] + gains, lanes):
            assert_same_result(lane, run(replace(plan, policy=policy)))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_stacked_gains_equal_per_lane_calls_bit_for_bit(self, monkeypatch, n, threads):
        # three blocks, every record on
        cfg = ModelConfig(n=n, horizon=12, seed=3)
        sched = AlphaSchedule(cfg, 12)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.4), replications=500,
                       block_size=200, threads=threads, record_traces=True)
        specs = [PolicySpec(kind="wstar"), PolicySpec(kind="weighted", rho=1.0)]
        # one scale per round, and with a per-agent lane one row of n
        lane_sets = [specs, specs + [deviant_policy(np.linspace(0.0, 1.2, 13), sched,
                                                    agent=n - 1)]]
        weighted = replace(plan, policy=PolicySpec(kind="weighted", rho=0.2))
        # (plan, policy_b, shift_rule): a called matc lane beside a stacked
        # wstar lane, and two stacked lanes
        pairs = [(replace(plan, policy=PolicySpec(kind="wstar")), PolicySpec(kind="matc"),
                  sched.rhos(12)),
                 (weighted, PolicySpec(kind="weighted", rho=0.7), None)]

        def no_call(self, y, t):
            raise AssertionError("a gain was called per lane")

        with monkeypatch.context() as m:
            m.setattr(Gain, "__call__", no_call)
            stacked = [run_lanes(plan, others) for others in lane_sets]
            stacked_pair = run_paired(*pairs[1])
        paired = [run_paired(*pairs[0]), stacked_pair]
        # every compiled lane wrapped in a plain callable, as the benchmark
        # tracer wraps make_policy's gains, is called on its own
        compile_lanes = sim._compile
        monkeypatch.setattr(sim, "_compile", lambda plan, policies: [
            lambda y, t, g=g: g(y, t) for g in compile_lanes(plan, policies)])
        for others, results in zip(lane_sets, stacked):
            for a, b in zip(results, run_lanes(plan, others), strict=True):
                assert_same_result(a, b)
        for pair, result in zip(pairs, paired):
            called = run_paired(*pair)
            assert_same_result(result.a, called.a)
            assert_same_result(result.b, called.b)
            assert (result.shift_rule_dev is None) == (pair[2] is None)
            for name in ("max_stretch_diff", "shift_mean", "shift_spread", "shift_rule_dev"):
                np.testing.assert_array_equal(getattr(result, name), getattr(called, name))

    def test_lane_policies_compiled_before_any_block(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block started")

        monkeypatch.setattr(streams, "substream", no_blocks)
        short = Gain([0.5] * 4)
        with pytest.raises(ValueError, match="4 rhos but the run has 10 rounds"):
            run_lanes(small_plan(threads=2), [PolicySpec(kind="wstar"), short])
        # the plan has 3 agents and 10 rounds
        with pytest.raises(ValueError, match="operator of dimension 4 does not fit 3 agents"):
            run_lanes(small_plan(threads=2), [Gain(np.ones(10), mn(4))])
        with pytest.raises(ValueError, match="gain op must be None or a StructuredMatrix"):
            run(small_plan(policy=Gain(np.ones(10), np.eye(3))))


class TestSweep:
    def test_closed_form_column(self):
        cfg = ModelConfig(n=3, horizon=60, seed=4)
        points = sweep_rho(cfg, [0.0, 0.3, 0.6], 500)
        assert [p.rho for p in points] == [0.0, 0.3, 0.6]
        assert points[0].var_closed_form == float("inf")
        for p in points[1:]:
            assert p.var_closed_form == var_limit(p.rho, cfg)

    def test_empirical_tracks_closed_form(self):
        cfg = ModelConfig(n=3, horizon=150, seed=16)
        points = sweep_rho(cfg, [0.3, 0.5, 0.8], 4_000)
        for p in points:
            assert abs(p.var_empirical / p.var_closed_form - 1.0) < 0.1

    def test_balanced_chunks_give_the_same_points_on_any_thread_count(self, monkeypatch):
        chunks = []
        accumulate = sim._accumulate

        def counting(plan, fns, *args, **kwargs):
            chunks.append(len(fns))
            return accumulate(plan, fns, *args, **kwargs)

        monkeypatch.setattr(sim, "_accumulate", counting)
        grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        # (cfg, replications, lanes per chunk) in blocks of 250: 100
        # replications, or one replication of 100 rounds, allow two lanes;
        # 300 replications span two blocks and allow one
        cases = [(ModelConfig(n=2, horizon=9, seed=1), 100, 2),
                 (ModelConfig(n=2, horizon=99, seed=1), 1, 2),
                 (ModelConfig(n=3, horizon=9, seed=1), 300, 1)]
        interval = sys.getswitchinterval()
        for cfg, reps, bound in cases:
            chunks.clear()
            base = sweep_rho(cfg, grid, reps, block_size=250)
            sizes = sorted(chunks)
            assert len(sizes) == -(-len(grid) // bound) >= 3
            assert sizes[-1] <= bound and sizes[-1] - sizes[0] <= 1
            chunks.clear()
            # the two-block case's block threads switch often
            sys.setswitchinterval(1e-6)
            try:
                threaded = sweep_rho(cfg, grid, reps, threads=2, block_size=250)
            finally:
                sys.setswitchinterval(interval)
            assert sorted(chunks) == sizes
            assert threaded == base

    def test_passive_point_keeps_growing(self):
        # rho = 0 has no steady state: the tail estimate grows with horizon
        cfg_short = ModelConfig(n=3, horizon=50, seed=6)
        cfg_long = ModelConfig(n=3, horizon=200, seed=6)
        short = sweep_rho(cfg_short, [0.0], 1_000)[0].var_empirical
        long_ = sweep_rho(cfg_long, [0.0], 1_000)[0].var_empirical
        assert long_ > 2.0 * short
