"""Tests for the Monte Carlo engine."""

import sys
import tracemalloc
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


def assert_same_paired(a, b):
    """Two PairedRunResults carry the same bits, traces included."""
    for name in ("center_of_mass", "max_stretch_diff", "shift_mean", "shift_spread",
                 "shift_rule_dev", "com_traces", "stretch_traces"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            np.testing.assert_array_equal(x, y)


def assert_same_result(a, b):
    """Two RunResults carry the same bits, traces included."""
    assert a.rounds == b.rounds
    for name in ("max_abs_stretch_sum", "agent_var_stretch", "agent_mean_abs_stretch",
                 "agent_std_error"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
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
        # each agent's statistics use its one coordinate; at round 0 every
        # agent's variance is c sigma0^2
        cfg = ModelConfig(n=5, horizon=0, seed=3)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.5),
                             replications=50_000))
        expect = cfg.n / (cfg.n - 1)
        assert result.agent_var_stretch.shape == (1, 5)
        for var in result.agent_var_stretch[0]:
            assert abs(var / expect - 1.0) < 0.05

    def test_agents_are_exchangeable_under_wstar(self):
        # every agent plays the same schedule, so the n per-agent mean
        # |stretch| values estimate one number: each lies within 4 of its
        # standard errors of the agent average, in every round
        cfg = ModelConfig(n=5, horizon=30, seed=19)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"),
                             replications=40_000, block_size=15_000))
        mabs = result.agent_mean_abs_stretch
        assert mabs.shape == result.agent_std_error.shape == (31, 5)
        average = np.array([r.mean_abs_stretch for r in result.rounds])
        np.testing.assert_allclose(mabs.mean(axis=1), average, rtol=1e-12)
        assert np.all(np.abs(mabs - average[:, np.newaxis]) <= 4.0 * result.agent_std_error)

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
            result = run(plan)
            for t, r in enumerate(result.rounds):
                assert type(r.center_of_mass) is float
                assert r.center_of_mass == pytest.approx(result.com_traces[t].mean(),
                                                         rel=0, abs=1e-12)
            paired = run_paired(plan, PolicySpec(kind="matc"))
            assert paired.center_of_mass.shape == (2, 11)
            np.testing.assert_allclose(paired.center_of_mass,
                                       paired.com_traces.mean(axis=-1), rtol=0, atol=1e-12)


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

    def test_paired_accumulator_keeps_only_what_pairing_adds(self, monkeypatch):
        made = []

        class Recording(sim._Accumulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(sim, "_Accumulator", Recording)
        plan = small_plan(policy=PolicySpec(kind="wstar"), replications=500, block_size=200)
        rule = AlphaSchedule(plan.cfg, 10).rhos(10)
        run_paired(plan, PolicySpec(kind="matc"), shift_rule=rule)
        # one accumulator per block; none holds a per-lane sum but the
        # centre of mass, so none computes one
        assert len(made) == 3
        for acc in made:
            for name in ("sum_sq", "sum_sq2", "sum_abs", "sum_abs2", "agent_sq", "agent_abs",
                         "max_zero_sum"):
                assert getattr(acc, name) is None, name
            assert acc.com_sum.shape == (2, 11)
            for name in ("max_diff", "shift_sum", "shift_spread", "rule_dev"):
                assert getattr(acc, name).shape == (11,), name
        # a run's accumulators keep every per-lane sum and no diagnostic
        made.clear()
        run_lanes(plan, [PolicySpec(kind="matc")])
        assert len(made) == 3
        for acc in made:
            for name in ("sum_sq", "sum_sq2", "sum_abs", "sum_abs2", "max_zero_sum", "com_sum"):
                assert getattr(acc, name).shape == (2, 11), name
            for name in ("agent_sq", "agent_abs"):
                assert getattr(acc, name).shape == (2, 11, 3), name
            for name in ("max_diff", "shift_sum", "shift_spread", "rule_dev"):
                assert getattr(acc, name) is None, name

    def test_thread_count_does_not_change_paired_results(self):
        # more threads than cores, switching often, all writing slices of
        # the run's trace arrays
        plan = small_plan(policy=PolicySpec(kind="wstar"), replications=2_500,
                          block_size=500, record_traces=True)
        rule = AlphaSchedule(plan.cfg, 10).rhos(10)
        base = run_paired(plan, PolicySpec(kind="matc"), shift_rule=rule)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_paired(replace(plan, threads=4), PolicySpec(kind="matc"),
                                  shift_rule=rule)
        finally:
            sys.setswitchinterval(interval)
        assert_same_paired(base, threaded)

    def test_same_policy_pairs_exactly(self):
        paired = run_paired(small_plan(replications=500), PolicySpec(kind="weighted", rho=0.5))
        np.testing.assert_array_equal(paired.max_stretch_diff, np.zeros(11))
        np.testing.assert_array_equal(paired.center_of_mass[0], paired.center_of_mass[1])

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
        assert paired.stretch_traces.shape == (2, 5, 50, 3)
        assert paired.com_traces.shape == (2, 5, 50)
        np.testing.assert_allclose(paired.stretch_traces[0],
                                   paired.stretch_traces[1], atol=1e-9)
        # center-seeking keeps the measured center fixed up to drift, the
        # plain schedule lets it wander: traces must differ
        assert not np.allclose(paired.com_traces[0], paired.com_traces[1])


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

    def test_size_limit_counts_both_traces(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block started")

        # 11 rounds of 50 replications of 3 agents: per lane 1650 stretch
        # cells and 550 centre-of-mass cells
        plan = small_plan(replications=50, record_traces=True)
        substream = streams.substream
        calls = [(2_200, lambda: run(plan)),
                 (4_400, lambda: run_lanes(plan, [PolicySpec(kind="matc")])),
                 (4_400, lambda: run_paired(plan, PolicySpec(kind="matc")))]
        for cells, call in calls:
            monkeypatch.setattr(streams, "substream", no_blocks)
            monkeypatch.setattr(sim, "TRACE_LIMIT", cells - 1)
            with pytest.raises(ValueError, match=f"allocate {cells} cells"):
                call()
            # exactly at the limit the run completes
            monkeypatch.setattr(streams, "substream", substream)
            monkeypatch.setattr(sim, "TRACE_LIMIT", cells)
            call()


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
        # 700 replications and 2000-replication blocks: groups of 2 lanes
        cfg = ModelConfig(n=3, horizon=30, seed=12)
        grid = [0.1, 0.4, 0.7, 1.0, 0.25]
        points = sweep_rho(cfg, grid, 700, block_size=2_000)
        for rho, point in zip(grid, points):
            alone = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=rho),
                                replications=700, block_size=2_000))
            assert point.var_empirical == steady_state_variance(alone.rounds)

    def test_paired_lanes_equal_single_runs_bit_for_bit(self):
        # three blocks, on one and on two threads: a paired run's centre of
        # mass and traces are those of run_lanes' lanes on the same noise
        for threads in (1, 2):
            plan = small_plan(policy=PolicySpec(kind="wstar"), replications=900,
                              block_size=400, threads=threads, record_traces=True)
            paired = run_paired(plan, PolicySpec(kind="matc"))
            lanes = run_lanes(plan, [PolicySpec(kind="matc")])
            for lane, result in enumerate(lanes):
                np.testing.assert_array_equal(
                    paired.center_of_mass[lane], [r.center_of_mass for r in result.rounds])
                np.testing.assert_array_equal(paired.com_traces[lane], result.com_traces)
                np.testing.assert_array_equal(paired.stretch_traces[lane],
                                              result.stretch_traces)

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
                       block_size=300, threads=threads)
        lanes = run_lanes(plan, gains)
        for policy, lane in zip([plan.policy] + gains, lanes):
            assert_same_result(lane, run(replace(plan, policy=policy)))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 13])
    def test_stacked_gains_equal_per_lane_calls_bit_for_bit(self, monkeypatch, n, threads):
        # three blocks, every record on; an operator lane is applied in
        # place, a called lane replaced by its moves
        cfg = ModelConfig(n=n, horizon=12, seed=3)
        sched = AlphaSchedule(cfg, 12)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.4), replications=500,
                       block_size=200, threads=threads, record_traces=True)
        specs = [PolicySpec(kind="wstar"), PolicySpec(kind="weighted", rho=1.0),
                 PolicySpec(kind="matc")]
        # one scale per round, and with a per-agent lane one row of n
        lane_sets = [specs, specs + [deviant_policy(np.linspace(0.0, 1.2, 13), sched,
                                                    agent=n - 1)]]
        weighted = replace(plan, policy=PolicySpec(kind="weighted", rho=0.2))
        # (plan, policy_b, shift_rule): an operator matc lane beside a
        # wstar lane, and two weighted lanes
        pairs = [(replace(plan, policy=PolicySpec(kind="wstar")), PolicySpec(kind="matc"),
                  sched.rhos(12)),
                 (weighted, PolicySpec(kind="weighted", rho=0.7), None)]

        def no_call(self, y, t):
            raise AssertionError("a gain was called per lane")

        with monkeypatch.context() as m:
            m.setattr(Gain, "__call__", no_call)
            stacked = [run_lanes(plan, others) for others in lane_sets]
            paired = [run_paired(*pair) for pair in pairs]
        # every compiled lane wrapped in a plain callable, as the benchmark
        # tracer wraps make_policy's gains, is called on its own
        compile_lanes = sim._compile
        monkeypatch.setattr(sim, "_compile", lambda plan, policies: [
            lambda y, t, g=g: g(y, t) for g in compile_lanes(plan, policies)])
        for others, results in zip(lane_sets, stacked):
            for a, b in zip(results, run_lanes(plan, others), strict=True):
                assert_same_result(a, b)
        for pair, result in zip(pairs, paired):
            assert (result.shift_rule_dev is None) == (pair[2] is None)
            assert_same_paired(result, run_paired(*pair))

    def test_thread_count_does_not_change_results(self):
        # more threads than cores, switching often: every lane's per-round
        # and per-agent sums are merged in block order, and its traces are
        # slices of the run's trace arrays
        plan = small_plan(replications=2_500, block_size=500, record_traces=True)
        others = [PolicySpec(kind="matc"),
                  deviant_policy(np.full(11, 0.5), AlphaSchedule(plan.cfg, 10), agent=1)]
        base = run_lanes(plan, others)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_lanes(replace(plan, threads=4), others)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(base, threaded, strict=True):
            assert_same_result(a, b)

    def test_lane_policies_may_come_from_a_generator(self):
        plan = small_plan(replications=300, block_size=100)
        others = [PolicySpec(kind="matc"), PolicySpec(kind="weighted", rho=0.3)]
        from_list = run_lanes(plan, others)
        from_generator = run_lanes(plan, (policy for policy in others))
        assert len(from_generator) == 3
        for a, b in zip(from_list, from_generator, strict=True):
            assert_same_result(a, b)

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


class TestBlockMemory:
    """One block's peak is its floor: the positions and the scratch of
    every lane, two (lanes, count) rows of sums and one (count, n) noise
    draw.  Every other per-round temporary is freed before a draw is made
    or fits in the space of one."""

    COUNT = 20_000

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def floor_bytes(self, lanes, n):
        c = self.COUNT
        return 8 * (2 * lanes * n * c + 2 * lanes * c + n * c)

    @pytest.mark.parametrize("lanes", [1, 2, 6])
    def test_lanes_peak_at_their_floor(self, lanes):
        cfg = ModelConfig(n=5, horizon=3, seed=1)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=self.COUNT)
        others = [PolicySpec(kind="weighted", rho=0.2 * i) for i in range(1, lanes)]
        peak = self.peak_bytes(lambda: run_lanes(plan, others))
        assert peak <= self.floor_bytes(lanes, cfg.n) + 64 * 1024

    def test_paired_operator_lane_peaks_at_its_floor(self):
        cfg = ModelConfig(n=3, horizon=3, seed=1)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=self.COUNT)
        rule = AlphaSchedule(cfg, 3).rhos(3)
        peak = self.peak_bytes(
            lambda: run_paired(plan, PolicySpec(kind="matc"), shift_rule=rule))
        assert peak <= self.floor_bytes(2, cfg.n) + 64 * 1024


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

    @staticmethod
    def spy_chunks(monkeypatch):
        """(lanes, group) of every chunk a sweep runs, in order."""
        chunks = []
        accumulate = sim._accumulate

        def counting(plan, fns, group, *args, **kwargs):
            chunks.append((len(fns), group))
            return accumulate(plan, fns, group, *args, **kwargs)

        monkeypatch.setattr(sim, "_accumulate", counting)
        return chunks

    def test_balanced_chunks_give_the_same_points_on_any_thread_count(self, monkeypatch):
        chunks = self.spy_chunks(monkeypatch)
        grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        # (cfg, replications, cells per lane) in blocks of 250: 100
        # replications of 2 agents, or one replication of 100 rounds; 300
        # replications span two blocks, whose larger one holds 3 x 250 cells
        cases = [(ModelConfig(n=2, horizon=9, seed=1), 100, 200),
                 (ModelConfig(n=2, horizon=99, seed=1), 1, 100),
                 (ModelConfig(n=3, horizon=9, seed=1), 300, 750)]
        interval, default = sys.getswitchinterval(), sim.CELL_BUDGET
        for cfg, reps, cells in cases:
            monkeypatch.setattr(sim, "CELL_BUDGET", default)
            chunks.clear()
            whole = sweep_rho(cfg, grid, reps, block_size=250)
            assert [lanes for lanes, _ in chunks] == [len(grid)]
            # a budget of two lanes' cells: 7 lanes run as 1 + 2 + 2 + 2
            monkeypatch.setattr(sim, "CELL_BUDGET", 2 * cells + 1)
            chunks.clear()
            base = sweep_rho(cfg, grid, reps, block_size=250)
            sizes = [lanes for lanes, _ in chunks]
            assert sorted(sizes) == [1, 2, 2, 2]
            chunks.clear()
            # the two-block case's block threads switch often
            sys.setswitchinterval(1e-6)
            try:
                threaded = sweep_rho(cfg, grid, reps, threads=2, block_size=250)
            finally:
                sys.setswitchinterval(interval)
            assert [lanes for lanes, _ in chunks] == sizes
            assert threaded == base == whole

    def test_lane_groups_give_the_same_points(self, monkeypatch):
        chunks = self.spy_chunks(monkeypatch)
        cfg = ModelConfig(n=2, horizon=9, seed=1)
        grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        # 100 replications are one block of 100, 250 or 1000, so the noise
        # is the same: groups of 1, 2 and all 7 lanes
        points = []
        for block_size, group in ((100, 1), (250, 2), (1_000, 10)):
            chunks.clear()
            points.append(sweep_rho(cfg, grid, 100, block_size=block_size))
            assert chunks == [(len(grid), group)]
        assert points[0] == points[1] == points[2]

    def test_each_round_draws_its_noise_once_for_the_whole_grid(self, monkeypatch):
        draws = []
        substream = streams.substream

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def normal(self, *args, **kwargs):
                draws.append(args)
                return self.gen.normal(*args, **kwargs)

        monkeypatch.setattr(streams, "substream", lambda *key: Counting(substream(*key)))
        cfg = ModelConfig(n=2, horizon=9, seed=1)
        # (replications, block size): groups of 1, 2 and all lanes in one
        # block, and groups of one lane in two blocks; every grid is one chunk
        for reps, block_size in ((100, 100), (100, 250), (100, 1_000), (300, 250)):
            blocks = -(-reps // block_size)
            for size in (1, 7, 20):
                draws.clear()
                sweep_rho(cfg, [0.05 * (i + 1) for i in range(size)], reps,
                          block_size=block_size)
                assert len(draws) == blocks * (1 + 2 * cfg.horizon)

    def test_chunk_memory_stays_within_the_cell_budget(self, monkeypatch):
        chunks = self.spy_chunks(monkeypatch)
        cfg = ModelConfig(n=50, horizon=3, seed=1)
        reps = 100
        # blocks of 100 give groups of one lane; the budget holds the
        # positions of 16 lanes, so 40 lanes run as three chunks
        budget = 16 * cfg.n * reps
        monkeypatch.setattr(sim, "CELL_BUDGET", budget)
        grid = [0.02 * (i + 1) for i in range(40)]
        # one group's stretches and its two rows of sums
        scratch = (cfg.n + 2) * reps
        tracemalloc.start()
        try:
            sweep_rho(cfg, grid, reps, block_size=reps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chunks == [(13, 1), (13, 1), (14, 1)]
        assert peak < 1.25 * 8 * (budget + scratch)

    def test_counts_checked_before_the_grid(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block started")

        monkeypatch.setattr(streams, "substream", no_blocks)
        cfg = ModelConfig(n=3, horizon=5, seed=1)
        for grid in ([], [0.5]):
            with pytest.raises(ValueError, match="replications must be >= 1, got 0"):
                sweep_rho(cfg, grid, 0, threads=0, block_size=-4)
            with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
                sweep_rho(cfg, grid, 10, threads=0)
            with pytest.raises(ValueError, match="block_size must be >= 1, got -4"):
                sweep_rho(cfg, grid, 10, block_size=-4)
        # an empty grid with valid counts has no points
        assert sweep_rho(cfg, [], 10, threads=2, block_size=4) == []

    def test_passive_point_keeps_growing(self):
        # rho = 0 has no steady state: the tail estimate grows with horizon
        cfg_short = ModelConfig(n=3, horizon=50, seed=6)
        cfg_long = ModelConfig(n=3, horizon=200, seed=6)
        short = sweep_rho(cfg_short, [0.0], 1_000)[0].var_empirical
        long_ = sweep_rho(cfg_long, [0.0], 1_000)[0].var_empirical
        assert long_ > 2.0 * short
