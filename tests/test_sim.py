"""Tests for the Monte Carlo engine."""

import errno
import re
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from stochalign import sim, streams
from stochalign.analysis import alpha_infty, var_limit
from stochalign.game import deviant_policy
from stochalign.kalman import AlphaSchedule
from stochalign.model import ModelConfig
from stochalign.policies import Gain, PolicySpec
from stochalign.sim import (
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


def assert_same_bits(a, b):
    """Two RunResults, or two PairedRunResults, carry the same bits in every
    column, traces included: -0.0 is not 0.0, and a NaN only matches the
    same NaN."""
    assert type(a) is type(b)
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert (x is None) == (y is None), field.name
        if x is not None:
            assert (x.dtype, x.shape) == (y.dtype, y.shape), field.name
            assert x.tobytes() == y.tobytes(), field.name


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
        assert_same_bits(run(small_plan()), run(small_plan()))

    def test_seed_changes_results(self):
        a = run(small_plan())
        b = run(small_plan(cfg=ModelConfig(n=3, horizon=10, seed=8)))
        for name in ("var_stretch", "var_std_error", "mean_abs_stretch", "std_error",
                     "center_of_mass"):
            assert not np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_common_noise_across_policies(self):
        # same plan, different policy: the initial worlds coincide exactly
        a = run_lanes(small_plan(replications=50), (), traces=True)[0]
        b = run_lanes(small_plan(replications=50, policy=PolicySpec(kind="weighted", rho=0.9)),
                      (), traces=True)[0]
        np.testing.assert_array_equal(a.stretch_traces[0], b.stretch_traces[0])
        assert not np.array_equal(a.stretch_traces[5], b.stretch_traces[5])


class TestStatistics:
    def test_round_zero_variance(self):
        # var of the initial stretch is c sigma0^2
        cfg = ModelConfig(n=4, sigma0=2.0, horizon=0, seed=11)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.5),
                             replications=50_000))
        expect = cfg.n / (cfg.n - 1) * cfg.sigma0**2
        var, var_se = result.var_stretch[0], result.var_std_error[0]
        assert abs(var - expect) <= 4.0 * var_se
        assert abs(var / expect - 1.0) < 0.03

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
        for t, (var, var_se) in enumerate(zip(result.var_stretch, result.var_std_error)):
            assert abs(var - v) <= 6.0 * var_se, f"round {t}"
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
        average = result.mean_abs_stretch
        np.testing.assert_allclose(mabs.mean(axis=1), average, rtol=1e-12)
        assert np.all(np.abs(mabs - average[:, np.newaxis]) <= 4.0 * result.agent_std_error)

    def test_gaussian_shape_of_initial_stretch(self):
        cfg = ModelConfig(n=4, horizon=0, seed=5)
        result = run_lanes(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.5),
                                   replications=50_000), (), traces=True)[0]
        skew, kurt = shape_moments(result.stretch_traces[0])
        assert abs(skew) < 0.05
        assert abs(kurt) < 0.1

    def test_center_of_mass_recorded(self):
        # every run records the centre of mass, both paired lanes too, as
        # the mean of its trace; a paired run records no traces, so its
        # lanes' are run_lanes'.  Three blocks on one and on two threads
        for threads in (1, 2):
            plan = small_plan(policy=PolicySpec(kind="wstar"), replications=500,
                              block_size=200, threads=threads)
            result = run_lanes(plan, (), traces=True)[0]
            assert result.center_of_mass.dtype == np.float64
            assert result.center_of_mass.shape == (11,)
            np.testing.assert_allclose(result.center_of_mass, result.com_traces.mean(axis=-1),
                                       rtol=0, atol=1e-12)
            paired = run_paired(plan, PolicySpec(kind="matc"))
            lanes = run_lanes(plan, [PolicySpec(kind="matc")], traces=True)
            assert paired.center_of_mass.shape == (2, 11)
            np.testing.assert_allclose(paired.center_of_mass,
                                       [lane.com_traces.mean(axis=-1) for lane in lanes],
                                       rtol=0, atol=1e-12)


    def test_rounds_view_reads_the_columns(self):
        result = run(small_plan(replications=300))
        assert len(result.rounds) == 11
        for t, stats in enumerate(result.rounds):
            assert stats.round == t
            for name in ("var_stretch", "var_std_error", "mean_abs_stretch", "std_error",
                         "center_of_mass"):
                value = getattr(stats, name)
                assert type(value) is float
                assert np.float64(value).tobytes() == getattr(result, name)[t].tobytes(), name


class TestScheduledPolicies:
    def test_scheduled_variance_equals_alpha(self):
        # under the per-round schedule the stretch variance IS alpha_t,
        # transient included; 1e5 replications make the transient rounds
        # sharp enough to catch an off-by-one in the round index
        cfg = ModelConfig(n=3, horizon=60, seed=9)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"),
                             replications=100_000))
        sched = AlphaSchedule(cfg, 60)
        for t, (var, var_se) in enumerate(zip(result.var_stretch, result.var_std_error)):
            assert abs(var - sched.alpha(t)) <= 6.0 * var_se, f"round {t}"

    @pytest.mark.parametrize("sigma0", [1.0, 1e8, 1e12])
    @pytest.mark.parametrize("kind", ["wstar", "matc"])
    def test_scheduled_variance_equals_alpha_at_large_sigma0(self, kind, sigma0):
        # the stretch variance must be alpha_t in every round at any sigma0
        # a plan accepts.  Up to 1e12 the largest |z| reads about 2.9
        cfg = ModelConfig(n=5, sigma0=sigma0, horizon=100, seed=1)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind=kind), replications=5_000))
        alphas = AlphaSchedule(cfg, 100).alphas()
        assert np.all(np.abs(result.var_stretch - alphas) <= 6.0 * result.var_std_error)

    @pytest.mark.parametrize("sigma0", [1e16, 1e20])
    @pytest.mark.parametrize("kind", ["wstar", "matc"])
    def test_sigma0_beyond_the_engine_limit_rejected_before_any_block(self, monkeypatch,
                                                                      kind, sigma0):
        # the engine subtracts absolute positions, so its stretches lose about
        # log2(sigma0 / sqrt(alpha_infty)) bits: at 1e16 and 1e20 the largest
        # |z| of the test above reads 33 or more
        def no_blocks(*args):
            raise AssertionError("a block started")

        monkeypatch.setattr(streams, "substream", no_blocks)
        cfg = ModelConfig(n=5, sigma0=sigma0, horizon=100, seed=1)
        limit = sim.SIGMA0_RATIO_LIMIT * np.sqrt(alpha_infty(cfg))
        message = f"sigma0 = {sigma0:g} exceeds 1e+12 * sqrt(alpha_infty) = {limit:g}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run(RunPlan(cfg=cfg, policy=PolicySpec(kind=kind), replications=5_000))

    def test_sigma0_limit_is_inclusive(self):
        cfg = ModelConfig(n=5, seed=1)
        limit = float(sim.SIGMA0_RATIO_LIMIT * np.sqrt(alpha_infty(cfg)))
        RunPlan(cfg=replace(cfg, sigma0=limit), policy=PolicySpec(kind="wstar"), replications=1)
        with pytest.raises(ValueError, match="exceeds"):
            RunPlan(cfg=replace(cfg, sigma0=np.nextafter(limit, np.inf)),
                    policy=PolicySpec(kind="wstar"), replications=1)

    def test_near_noiseless_center_seeking_settles_immediately(self):
        tiny = 1e-9
        cfg = ModelConfig(n=4, sigma0=1.0, sigma_m=tiny, sigma_d=tiny,
                          horizon=5, seed=13)
        result = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="matc"),
                             replications=2_000))
        assert result.mean_abs_stretch[0] > 0.5
        assert np.all(result.mean_abs_stretch[1:] < 1e-6)


class TestPairedRuns:
    def test_requires_second_policy(self):
        with pytest.raises(ValueError, match="PolicySpec or a Gain"):
            run_paired(small_plan(), None)

    def test_thread_count_does_not_change_paired_results(self):
        # more threads than cores, switching often
        plan = small_plan(policy=PolicySpec(kind="wstar"), replications=2_500,
                          block_size=500)
        base = run_paired(plan, PolicySpec(kind="matc"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_paired(replace(plan, threads=4), PolicySpec(kind="matc"))
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(base, threaded)

    def test_same_policy_pairs_exactly(self):
        paired = run_paired(small_plan(replications=500), PolicySpec(kind="weighted", rho=0.5))
        np.testing.assert_array_equal(paired.max_stretch_diff, np.zeros(11))
        np.testing.assert_array_equal(paired.center_of_mass[0], paired.center_of_mass[1])

    def test_wstar_and_center_seeking_share_stretch_paths(self, paired_shift):
        cfg = ModelConfig(n=3, horizon=40, seed=21)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=200)
        sched = AlphaSchedule(cfg, 40)
        paired, spread, rule_dev = paired_shift(plan, PolicySpec(kind="matc"), sched.rhos())
        assert paired.max_stretch_diff.max() <= 1e-9
        # the moves the engine applies differ by a pure common shift that
        # follows the rule: rho*(t) times the mean measurement
        assert spread <= 1e-12
        assert rule_dev <= 1e-12

    def test_paired_traces(self):
        # a paired run records no traces: the two lanes' traces come from
        # run_lanes on the same noise
        cfg = ModelConfig(n=3, horizon=4, seed=2)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=50)
        assert [f.name for f in fields(sim.PairedRunResult)] == \
            ["center_of_mass", "max_stretch_diff", "shift_mean"]
        a, b = run_lanes(plan, [PolicySpec(kind="matc")], traces=True)
        assert a.stretch_traces.shape == b.stretch_traces.shape == (5, 50, 3)
        assert a.com_traces.shape == b.com_traces.shape == (5, 50)
        np.testing.assert_allclose(a.stretch_traces, b.stretch_traces, atol=1e-9)
        # center-seeking keeps the measured center fixed up to drift, the
        # plain schedule lets it wander: traces must differ
        assert not np.allclose(a.com_traces, b.com_traces)


class TestAccumulator:
    def test_each_kind_keeps_exactly_its_table_rows(self, monkeypatch):
        made = []

        class Recording(sim._Accumulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(sim, "_Accumulator", Recording)
        plan = small_plan(policy=PolicySpec(kind="wstar"), replications=500, block_size=200)
        matc = PolicySpec(kind="matc")
        # two lanes of 11 rounds and 3 agents, in each of three blocks; a
        # sweep keeps only the rounds steady_state_variance reads, the last
        # max(1, 11 // 10) = 1
        lane, agent, per_run, tail = (2, 11), (2, 11, 3), (11,), (2, 1)
        shapes = {"lane": lane, "agent": agent, "run": per_run}
        # (run, kind, every row its accumulators keep, in the shape it has):
        # a run keeps every per-lane and per-agent sum and no diagnostic;
        # a paired run no per-lane sum but the centre of mass, and a sweep
        # the tail of sum_sq alone, so neither computes a sum it does not keep
        cases = [
            (lambda: run_lanes(plan, [matc]), "lanes",
             {"sum_sq": lane, "sum_sq2": lane, "sum_abs": lane, "sum_abs2": lane,
              "agent_sq": agent, "agent_abs": agent, "com_sum": lane, "max_zero_sum": lane}),
            (lambda: run_paired(plan, matc), "paired",
             {"com_sum": lane, "max_diff": per_run, "shift_sum": per_run}),
            (lambda: sweep_rho(plan.cfg, [0.3, 0.6], 500, block_size=200), "variance",
             {"sum_sq": tail}),
        ]
        for call, kind, kept in cases:
            made.clear()
            call()
            assert len(made) == 3
            for acc in made:
                assert acc.kind == kind
                assert sorted(acc.names) == sorted(kept)
                assert set(kept) == set(sim.KINDS[kind])
                for name in sim.STATS:
                    assert hasattr(acc, name) == (name in kept), name
                table = {"lane": tail} if kind == "variance" else shapes
                for name, shape in kept.items():
                    assert getattr(acc, name).shape == shape == table[sim.STATS[name][0]], name

    def test_merge_folds_each_row_by_its_own_rule(self):
        # a worst case takes the larger of two blocks' values, every other
        # row their sum
        maxed = {"max_zero_sum", "max_diff"}
        plan = small_plan()
        rng = np.random.default_rng(0)
        for kind in ("lanes", "paired", "variance"):
            a, b = (sim._Accumulator(plan, 2, kind) for _ in range(2))
            for acc in (a, b):
                for name in acc.names:
                    getattr(acc, name)[...] = rng.normal(size=getattr(acc, name).shape)
            expect = {name: (np.maximum if name in maxed else np.add)(getattr(a, name),
                                                                      getattr(b, name))
                      for name in a.names}
            a.merge(b)
            for name, value in expect.items():
                assert getattr(a, name).tobytes() == value.tobytes(), name


class TestTraces:
    def test_shapes(self):
        result = run_lanes(small_plan(replications=40), (), traces=True)[0]
        assert result.stretch_traces.shape == (11, 40, 3)
        assert result.com_traces.shape == (11, 40)

    def test_traces_sum_to_zero(self):
        result = run_lanes(small_plan(replications=40), (), traces=True)[0]
        np.testing.assert_allclose(
            result.stretch_traces.sum(axis=-1), 0.0, atol=1e-10)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            run_lanes(small_plan(replications=10_000_000), (), traces=True)

    def test_size_limit_counts_both_traces(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block started")

        # 11 rounds of 50 replications of 3 agents: per lane 1650 stretch
        # cells and 550 centre-of-mass cells
        plan = small_plan(replications=50)
        substream = streams.substream
        calls = [(2_200, lambda: run_lanes(plan, (), traces=True)),
                 (4_400, lambda: run_lanes(plan, [PolicySpec(kind="matc")], traces=True))]
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
        var = np.array([1.0] * 18 + [2.0, 4.0])
        # 20 rounds -> tail is the last 2
        assert steady_state_variance(var) == pytest.approx(3.0)

    def test_short_result_uses_last_round(self):
        assert steady_state_variance(np.array([1.0, 5.0])) == 5.0

    @pytest.mark.filterwarnings("error")
    def test_rejects_no_rounds(self):
        # numpy's mean of an empty slice gave nan with a RuntimeWarning
        for empty in (np.array([]), []):
            with pytest.raises(ValueError, match="at least one round"):
                steady_state_variance(empty)


class TestLanes:
    def test_sweep_points_equal_single_runs_bit_for_bit(self):
        # 700 replications and 2000-replication blocks: groups of 2 lanes
        cfg = ModelConfig(n=3, horizon=30, seed=12)
        grid = [0.1, 0.4, 0.7, 1.0, 0.25]
        points = sweep_rho(cfg, grid, 700, block_size=2_000)
        for rho, point in zip(grid, points):
            alone = run(RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=rho),
                                replications=700, block_size=2_000))
            assert point.var_empirical == steady_state_variance(alone.var_stretch)

    def test_paired_lanes_equal_single_runs_bit_for_bit(self):
        # three blocks, on one and on two threads: a paired run's centre of
        # mass is that of run_lanes' lanes on the same noise, and its
        # largest stretch difference that of their traces
        for threads in (1, 2):
            plan = small_plan(policy=PolicySpec(kind="wstar"), replications=900,
                              block_size=400, threads=threads)
            paired = run_paired(plan, PolicySpec(kind="matc"))
            a, b = run_lanes(plan, [PolicySpec(kind="matc")], traces=True)
            for lane, result in enumerate((a, b)):
                assert paired.center_of_mass[lane].tobytes() == \
                    result.center_of_mass.tobytes()
            diff = np.abs(a.stretch_traces - b.stretch_traces).max(axis=(1, 2))
            assert paired.max_stretch_diff.tobytes() == diff.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_spec_lanes_equal_single_runs_bit_for_bit(self, threads):
        # 900 replications in blocks of 400: three blocks per lane
        plan = small_plan(policy=PolicySpec(kind="wstar"), replications=900, block_size=400,
                          threads=threads)
        others = [PolicySpec(kind="matc"), PolicySpec(kind="weighted", rho=0.3),
                  Gain(np.linspace(0.1, 0.9, 10))]
        lanes = run_lanes(plan, others, traces=True)
        assert len(lanes) == 4
        for policy, lane in zip([plan.policy] + others, lanes):
            assert_same_bits(lane, run_lanes(replace(plan, policy=policy), (), traces=True)[0])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_deviant_lanes_equal_single_runs_bit_for_bit(self, threads):
        cfg = ModelConfig(n=4, horizon=12, seed=5)
        sched = AlphaSchedule(cfg, 12)
        gains = [deviant_policy(np.full(13, c), sched) for c in (0.0, 0.5, 1.0)]
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=700,
                       block_size=300, threads=threads)
        lanes = run_lanes(plan, gains)
        for policy, lane in zip([plan.policy] + gains, lanes):
            assert_same_bits(lane, run(replace(plan, policy=policy)))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 13])
    def test_stacked_gains_equal_per_lane_calls_bit_for_bit(self, monkeypatch, n, threads):
        # three blocks, every record on; an operator lane is applied in
        # place, a called lane replaced by its moves
        cfg = ModelConfig(n=n, horizon=12, seed=3)
        sched = AlphaSchedule(cfg, 12)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="weighted", rho=0.4), replications=500,
                       block_size=200, threads=threads)
        specs = [PolicySpec(kind="wstar"), PolicySpec(kind="weighted", rho=1.0),
                 PolicySpec(kind="matc")]
        # one scale per round, and with a per-agent lane one row of n
        lane_sets = [specs, specs + [deviant_policy(np.linspace(0.0, 1.2, 13), sched,
                                                    agent=n - 1)]]
        # (plan, policy_b): an operator matc lane beside a wstar lane, and
        # two weighted lanes
        pairs = [(replace(plan, policy=PolicySpec(kind="wstar")), PolicySpec(kind="matc")),
                 (replace(plan, policy=PolicySpec(kind="weighted", rho=0.2)),
                  PolicySpec(kind="weighted", rho=0.7))]

        def no_call(self, y, t):
            raise AssertionError("a gain was called per lane")

        with monkeypatch.context() as m:
            m.setattr(Gain, "__call__", no_call)
            stacked = [run_lanes(plan, others, traces=True) for others in lane_sets]
            paired = [run_paired(*pair) for pair in pairs]
        # every compiled lane wrapped in a plain callable, as the benchmark
        # tracer wraps make_policy's gains, is called on its own
        compile_lanes = sim._compile
        monkeypatch.setattr(sim, "_compile", lambda plan, policies: [
            lambda y, t, g=g: g(y, t) for g in compile_lanes(plan, policies)])
        for others, results in zip(lane_sets, stacked):
            for a, b in zip(results, run_lanes(plan, others, traces=True), strict=True):
                assert_same_bits(a, b)
        for pair, result in zip(pairs, paired):
            assert_same_bits(result, run_paired(*pair))

    def test_lane_groups_give_the_same_results(self, monkeypatch):
        groups = []
        run_block = sim._run_block

        def spy(*args):
            groups.append(args[-2])
            return run_block(*args)

        monkeypatch.setattr(sim, "_run_block", spy)
        plan = small_plan(policy=PolicySpec(kind="wstar"), replications=100)
        others = [PolicySpec(kind="matc"), PolicySpec(kind="weighted", rho=0.3),
                  Gain(np.linspace(0.1, 0.9, 10)),
                  deviant_policy(np.full(11, 0.5), AlphaSchedule(plan.cfg, 10), agent=1)]
        # 100 replications are one block of 100, 250 or 1000, so the noise
        # is the same: groups of 1, 2 and all 5 lanes
        results = []
        for block_size, group in ((100, 1), (250, 2), (1_000, 10)):
            groups.clear()
            results.append(run_lanes(replace(plan, block_size=block_size), others,
                                     traces=True))
            assert groups == [group]
        for other in results[1:]:
            for a, b in zip(results[0], other, strict=True):
                assert_same_bits(a, b)

    def test_thread_count_does_not_change_results(self):
        # more threads than cores, switching often: every lane's per-round
        # and per-agent sums are merged in block order, and its traces are
        # slices of the run's trace arrays
        plan = small_plan(replications=2_500, block_size=500)
        others = [PolicySpec(kind="matc"),
                  deviant_policy(np.full(11, 0.5), AlphaSchedule(plan.cfg, 10), agent=1)]
        base = run_lanes(plan, others, traces=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_lanes(replace(plan, threads=4), others, traces=True)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(base, threaded, strict=True):
            assert_same_bits(a, b)

    def test_lane_policies_may_come_from_a_generator(self):
        plan = small_plan(replications=300, block_size=100)
        others = [PolicySpec(kind="matc"), PolicySpec(kind="weighted", rho=0.3)]
        from_list = run_lanes(plan, others)
        from_generator = run_lanes(plan, (policy for policy in others))
        assert len(from_generator) == 3
        for a, b in zip(from_list, from_generator, strict=True):
            assert_same_bits(a, b)

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


class TestBlockScheduler:
    """The calling thread and threads - 1 helper threads share a run's blocks."""

    WAIT_S = 10.0  # bounds a wait on another thread, so a broken scheduler fails, not hangs

    @staticmethod
    def five_block_plan(threads):
        return small_plan(replications=500, block_size=100, threads=threads)

    @staticmethod
    def spy_blocks(monkeypatch, before):
        """Wrap _run_block so that before(index) runs as each block starts;
        returns the list of (thread ident, block index) it fills."""
        started = []
        run_block = sim._run_block

        def spy(*args):
            index = args[-1]
            started.append((threading.get_ident(), index))
            before(index)
            return run_block(*args)

        monkeypatch.setattr(sim, "_run_block", spy)
        return started

    def test_five_blocks_give_the_same_bits_on_one_two_and_three_threads(self):
        others = [PolicySpec(kind="matc"), PolicySpec(kind="weighted", rho=0.3)]
        lanes = [run_lanes(self.five_block_plan(threads), others, traces=True)
                 for threads in (1, 2, 3)]
        paired = [run_paired(replace(self.five_block_plan(threads), policy=PolicySpec(kind="wstar")),
                             PolicySpec(kind="matc")) for threads in (1, 2, 3)]
        for results in lanes[1:]:
            for a, b in zip(lanes[0], results, strict=True):
                assert_same_bits(a, b)
        for result in paired[1:]:
            assert_same_bits(paired[0], result)

    @staticmethod
    def spy_threads(monkeypatch, start=None, join=None):
        """Patch sim.threading.Thread with a subclass that records each
        helper it starts; start(count), when given, runs before each start
        with the number of helpers started so far, and join() before each
        join."""
        helpers = []

        class SpyThread(threading.Thread):
            def start(self):
                if start is not None:
                    start(len(helpers))
                super().start()
                helpers.append(self)

            def join(self, timeout=None):
                if join is not None:
                    join()
                super().join(timeout)

        monkeypatch.setattr(sim.threading, "Thread", SpyThread)
        return helpers

    @pytest.mark.parametrize("threads", [2, 3])
    def test_caller_runs_blocks_beside_threads_minus_one_helpers(self, monkeypatch, threads):
        helpers = self.spy_threads(monkeypatch)
        caller = threading.get_ident()
        caller_started = threading.Event()

        def before(index):
            # a helper's block waits until the caller has one, so the
            # helpers cannot take every block before the caller starts
            if threading.get_ident() == caller:
                caller_started.set()
            else:
                caller_started.wait(self.WAIT_S)

        started = self.spy_blocks(monkeypatch, before)
        run(self.five_block_plan(threads))
        assert len(helpers) == threads - 1
        assert not any(helper.is_alive() for helper in helpers)
        assert sorted(index for _, index in started) == list(range(5))
        idents = {ident for ident, _ in started}
        assert caller in idents
        assert idents <= {caller} | {helper.ident for helper in helpers}
        assert len(idents) <= threads

    def test_one_thread_or_one_block_starts_no_thread(self, monkeypatch):
        helpers = self.spy_threads(monkeypatch)
        run(self.five_block_plan(1))
        run(small_plan(replications=100, block_size=100, threads=4))
        assert helpers == []

    def test_helper_that_cannot_start_propagates_after_the_others_join(self, monkeypatch):
        class CannotStart(RuntimeError):
            pass

        def start(count):
            if count == 1:
                raise CannotStart

        threads_before = threading.active_count()
        helpers = self.spy_threads(monkeypatch, start)
        # a resource error, which the CLI maps to exit 2 as it does memory
        with pytest.raises(OSError) as failed:
            run(self.five_block_plan(3))
        assert failed.value.errno == errno.EAGAIN
        assert isinstance(failed.value.__cause__, CannotStart)
        assert len(helpers) == 1 and not helpers[0].is_alive()
        assert threading.active_count() == threads_before

    def test_helper_that_cannot_start_stops_the_run(self, monkeypatch):
        class CannotStart(RuntimeError):
            pass

        def start(count):
            if count == 1:
                raise CannotStart

        # the first helper's block waits until the caller joins it, which the
        # caller does only once the failed start is recorded; after that no
        # thread may start a block
        joining = threading.Event()
        threads_before = threading.active_count()
        helpers = self.spy_threads(monkeypatch, start, joining.set)
        started = self.spy_blocks(monkeypatch, lambda index: joining.wait(self.WAIT_S))
        with pytest.raises(OSError) as failed:
            run(self.five_block_plan(3))
        assert failed.value.errno == errno.EAGAIN
        assert len(started) <= 1
        assert len(helpers) == 1 and not helpers[0].is_alive()
        assert {ident for ident, _ in started} <= {helpers[0].ident}
        assert threading.active_count() == threads_before

    def test_failing_block_stops_the_run_and_joins_every_thread(self, monkeypatch):
        class BlockFailed(Exception):
            pass

        second_started, first_failing = threading.Event(), threading.Event()

        def before(index):
            # block 0 fails while block 1 runs on the other thread; block 1
            # finishes after the failure, and then no thread may start another
            if index == 0:
                second_started.wait(self.WAIT_S)
                first_failing.set()
                raise BlockFailed
            if index == 1:
                second_started.set()
                first_failing.wait(self.WAIT_S)
                threading.Event().wait(0.2)

        threads_before = threading.active_count()
        started = self.spy_blocks(monkeypatch, before)
        with pytest.raises(BlockFailed):
            run(self.five_block_plan(2))
        assert sorted(index for _, index in started) == [0, 1]
        assert len({ident for ident, _ in started}) == 2
        assert threading.active_count() == threads_before

    def test_first_failed_block_in_block_order_propagates(self, monkeypatch):
        def before(index):
            if index in (1, 3):
                raise ValueError(f"block {index}")

        self.spy_blocks(monkeypatch, before)
        for threads in (1, 3):
            with pytest.raises(ValueError, match="block 1"):
                run(self.five_block_plan(threads))


class TestBlockMemory:
    """One block's peak is its floor: the positions of every lane, one
    group's scratch and its two (group, count) rows of sums, and one
    (count, n) noise draw.  With more than one group a second array of
    a draw's size counts too: a later group's |s| temporary, made while
    the round's draw is held.  Every other per-round temporary is freed
    before a draw is made or fits in the space of these."""

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

    def floor_bytes(self, lanes, n, group):
        c = self.COUNT
        draws = 1 if group >= lanes else 2
        return 8 * (lanes * n * c + group * (n + 2) * c + draws * n * c)

    @pytest.mark.parametrize("lanes", [1, 2, 6])
    def test_lanes_peak_at_their_floor(self, lanes):
        # one block of COUNT replications: groups of one lane
        cfg = ModelConfig(n=5, horizon=3, seed=1)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=self.COUNT,
                       block_size=self.COUNT)
        others = [PolicySpec(kind="weighted", rho=0.2 * i) for i in range(1, lanes)]
        peak = self.peak_bytes(lambda: run_lanes(plan, others))
        assert peak <= self.floor_bytes(lanes, cfg.n, 1) + 64 * 1024

    def test_paired_operator_lane_peaks_at_its_floor(self):
        # a paired run's two lanes are one group
        cfg = ModelConfig(n=3, horizon=3, seed=1)
        plan = RunPlan(cfg=cfg, policy=PolicySpec(kind="wstar"), replications=self.COUNT,
                       block_size=self.COUNT)
        peak = self.peak_bytes(lambda: run_paired(plan, PolicySpec(kind="matc")))
        assert peak <= self.floor_bytes(2, cfg.n, 2) + 64 * 1024


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
        """(lanes, group) of every chunk a sweep runs, in order: the lane
        group is the one every block of the chunk runs with."""
        chunks, groups = [], set()
        accumulate, run_block = sim._accumulate, sim._run_block

        def counting(plan, fns, *args, **kwargs):
            groups.clear()
            acc = accumulate(plan, fns, *args, **kwargs)
            (group,) = groups
            chunks.append((len(fns), group))
            return acc

        def block(*args):
            groups.add(args[-2])
            return run_block(*args)

        monkeypatch.setattr(sim, "_accumulate", counting)
        monkeypatch.setattr(sim, "_run_block", block)
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

    def test_points_equal_single_runs_at_every_tail_boundary(self):
        # the tail, max(1, (horizon + 1) // 10) rounds, steps up at horizons
        # 19 and 29; 300 replications are two blocks of 200, on one and on
        # two threads
        grid = [0.2, 0.5, 0.9]
        tails = {0: 1, 1: 1, 8: 1, 9: 1, 18: 1, 19: 2, 28: 2, 29: 3}
        for horizon, tail in tails.items():
            assert sim._tail_length(horizon + 1) == tail
            cfg = ModelConfig(n=3, horizon=horizon, seed=5)
            alone = [steady_state_variance(run(RunPlan(
                cfg=cfg, policy=PolicySpec(kind="weighted", rho=rho), replications=300,
                block_size=200)).var_stretch) for rho in grid]
            for threads in (1, 2):
                points = sweep_rho(cfg, grid, 300, threads=threads, block_size=200)
                assert [p.var_empirical for p in points] == alone, (horizon, threads)

    def test_each_block_computes_the_statistic_only_in_its_tail(self, monkeypatch):
        made = []

        class Spy(sim._Accumulator):
            """Notes each (round, first lane) whose statistic ran: the work
            row, NaN beforehand, holds the squares once it has."""

            def __init__(self, *args):
                super().__init__(*args)
                self.worked = []
                made.append(self)

            def record(self, t, lanes, st, total, work):
                work[...] = np.nan
                super().record(t, lanes, st, total, work)
                if not np.isnan(work).all():
                    self.worked.append((t, lanes.start))

        monkeypatch.setattr(sim, "_Accumulator", Spy)
        # 29 rounds keep the last 3; 300 replications in blocks of 200 are
        # two blocks, each with groups of one lane
        cfg = ModelConfig(n=3, horizon=29, seed=5)
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        sweep_rho(cfg, grid, 300, threads=2, block_size=200)
        assert len(made) == 2
        for acc in made:
            assert acc.first == 27
            assert acc.sum_sq.shape == (len(grid), 3)
            assert sorted(acc.worked) == [(t, lane) for t in range(27, 30)
                                          for lane in range(len(grid))]

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
