"""Tests for the dense filter, the closed forms, and the scalar filter.

The dense textbook recursions are the oracle for every closed form here.
"""

import math
import tracemalloc

import numpy as np
import pytest

from stochalign.analysis import alpha_infty, rho_star_const
from stochalign.kalman import (
    AlphaSchedule,
    KalmanState,
    LinearSystem,
    alignment_initial_state,
    alignment_system,
    closed_form_filter_state,
    dense_filter_path,
    gain,
    measurement_update,
    scalar_filter_step,
    time_update,
)
from stochalign.model import ModelConfig
from stochalign.structmat import mn


class TestAlignmentSystem:
    def test_matrices(self):
        cfg = ModelConfig(n=3, sigma_m=2.0, sigma_d=0.5)
        sys_ = alignment_system(cfg)
        m = mn(3).to_dense()
        np.testing.assert_array_equal(sys_.a, np.eye(3))
        np.testing.assert_array_equal(sys_.b, m)
        np.testing.assert_array_equal(sys_.h, np.eye(3))
        np.testing.assert_allclose(sys_.q, 0.25 * (m @ m))
        np.testing.assert_allclose(sys_.r, 4.0 * np.eye(3))

    def test_initial_state(self):
        cfg = ModelConfig(n=4, sigma0=2.0)
        st = alignment_initial_state(cfg)
        assert st.round == 0
        np.testing.assert_array_equal(st.estimate_pre, np.zeros(4))
        m = mn(4).to_dense()
        np.testing.assert_allclose(st.cov_pre, 4.0 * (m @ m))
        # equivalently -c sigma0^2 M, and alpha_0 = c sigma0^2 on the diagonal
        np.testing.assert_allclose(st.cov_pre, -(4.0 / 3.0) * 4.0 * m, atol=1e-12)


class TestDenseFilterSteps:
    def setup_method(self):
        self.sys = LinearSystem(
            a=np.eye(2),
            b=np.zeros((2, 2)),
            h=np.eye(2),
            q=np.zeros((2, 2)),
            r=np.eye(2),
        )

    def test_zero_prior_uncertainty_means_zero_gain(self):
        st = KalmanState(0, np.zeros(2), np.zeros((2, 2)))
        np.testing.assert_array_equal(gain(st, self.sys), np.zeros((2, 2)))

    def test_huge_measurement_noise_means_tiny_gain(self):
        sys_ = LinearSystem(
            a=np.eye(2), b=np.zeros((2, 2)), h=np.eye(2),
            q=np.zeros((2, 2)), r=1e12 * np.eye(2),
        )
        st = KalmanState(0, np.zeros(2), np.eye(2))
        assert np.abs(gain(st, sys_)).max() < 1e-10

    def test_scalar_gain_hand_value(self):
        # p=3, r=1: k = 3/4
        sys_ = LinearSystem(
            a=np.eye(1), b=np.zeros((1, 1)), h=np.eye(1),
            q=np.zeros((1, 1)), r=np.eye(1),
        )
        st = KalmanState(0, np.zeros(1), 3.0 * np.eye(1))
        np.testing.assert_allclose(gain(st, sys_), [[0.75]])

    def test_confirming_measurement_leaves_estimate(self):
        st = KalmanState(0, np.array([1.0, -2.0]), np.eye(2))
        upd = measurement_update(st, self.sys, np.array([1.0, -2.0]))
        np.testing.assert_allclose(upd.estimate_post, st.estimate_pre, atol=1e-14)

    def test_update_shrinks_covariance(self):
        st = KalmanState(0, np.zeros(2), 2.0 * np.eye(2))
        upd = measurement_update(st, self.sys, np.array([1.0, 1.0]))
        # p_post = p (1 - p/(p+r)) = 2 * (1 - 2/3) = 2/3
        np.testing.assert_allclose(upd.cov_post, (2.0 / 3.0) * np.eye(2), atol=1e-14)

    def test_time_update_requires_posterior(self):
        st = KalmanState(0, np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            time_update(st, self.sys, np.zeros(2))

    def test_time_update_adds_process_noise(self):
        sys_ = LinearSystem(
            a=np.eye(2), b=np.eye(2), h=np.eye(2),
            q=0.5 * np.eye(2), r=np.eye(2),
        )
        st = measurement_update(KalmanState(0, np.zeros(2), np.eye(2)), sys_,
                                np.zeros(2))
        nxt = time_update(st, sys_, np.array([1.0, 2.0]))
        assert nxt.round == 1
        np.testing.assert_allclose(nxt.estimate_pre, st.estimate_post + [1.0, 2.0])
        np.testing.assert_allclose(nxt.cov_pre, st.cov_post + 0.5 * np.eye(2))


class TestDenseFilterPath:
    @pytest.mark.parametrize("n", [2, 3, 10, 64, 256])
    def test_stream_matches_unfused_loop_bit_for_bit(self, n):
        # the reference loop runs the generic textbook updates, products
        # with A = H = I included; n = 64 and 256 reach the blocked and
        # threaded BLAS kernels, so they run fewer rounds
        t_max = 30 if n <= 10 else 5
        cfg = ModelConfig(n=n, sigma0=1.3, sigma_m=0.7, sigma_d=1.1)
        system = alignment_system(cfg)
        state = alignment_initial_state(cfg)
        zeros = np.zeros(n)
        expected = []
        for _ in range(t_max + 1):
            expected.append((state.cov_pre.copy(), gain(state, system)))
            state = time_update(measurement_update(state, system, zeros), system, zeros)
        streamed = list(dense_filter_path(cfg, t_max))
        assert len(streamed) == len(expected)
        for (cov, k), (cov_ref, k_ref) in zip(streamed, expected):
            np.testing.assert_array_equal(cov, cov_ref)
            np.testing.assert_array_equal(k, k_ref)

    def test_measurement_update_records_its_gain(self):
        # generic system: 3 states, 2 measurements, so H is not square
        rng = np.random.default_rng(7)
        root = rng.normal(size=(3, 3))
        system = LinearSystem(
            a=rng.normal(size=(3, 3)), b=np.eye(3), h=rng.normal(size=(2, 3)),
            q=np.eye(3), r=np.array([[2.0, 0.3], [0.3, 1.5]]),
        )
        state = KalmanState(0, rng.normal(size=3), root @ root.T + np.eye(3))
        post = measurement_update(state, system, rng.normal(size=2))
        assert post.gain.shape == (3, 2)
        np.testing.assert_array_equal(post.gain, gain(state, system))
        assert state.gain is None

    def test_first_round_comes_before_any_time_update(self, monkeypatch):
        # a path that ran ahead of its consumer would solve for more gains
        solves = []
        solve = np.linalg.solve

        def counting_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        cfg = ModelConfig(n=3)
        path = dense_filter_path(cfg, 10**9)
        assert not solves
        cov, k = next(path)
        assert len(solves) == 1
        cov_cf, k_cf = closed_form_filter_state(cfg, 0)
        np.testing.assert_allclose(cov, cov_cf.to_dense(), atol=1e-12)
        np.testing.assert_allclose(k, k_cf.to_dense(), atol=1e-12)

    def test_rejects_negative_t_max_when_called(self):
        with pytest.raises(ValueError, match="t_max must be >= 0"):
            dense_filter_path(ModelConfig(n=2), -1)

    def test_rejects_non_integer_t_max_when_called(self):
        for t_max in (2.5, True):
            with pytest.raises(ValueError, match="t_max must be an integer"):
                dense_filter_path(ModelConfig(n=2), t_max)

    def test_memory_does_not_grow_with_rounds(self):
        # 201 rounds of (P-, K) at n=64 would hold 201 * 2 * 32 KiB = 12.6 MiB
        cfg = ModelConfig(n=64)
        tracemalloc.start()
        try:
            rounds = 0
            for _ in dense_filter_path(cfg, 200):
                rounds += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rounds == 201
        assert peak < 2 * 2**20


class TestAlphaSchedule:
    def test_hand_values_two_agents(self):
        # n=2, all sigmas 1: alpha_0 = 2, alpha_1 = 2/(2*2+1) + 2 = 2.4
        sched = AlphaSchedule(ModelConfig(n=2), 5)
        assert sched.alpha(0) == pytest.approx(2.0, abs=1e-15)
        assert sched.alpha(1) == pytest.approx(2.4, abs=1e-15)
        assert sched.alpha(2) == pytest.approx(2.413793103448276, abs=1e-14)

    def test_degenerate_start(self):
        sched = AlphaSchedule(ModelConfig(n=3, sigma0=0.0), 3)
        assert sched.alpha(0) == 0.0
        assert sched.rho(0) == 0.0
        assert sched.alpha(1) == pytest.approx(1.5, abs=1e-15)  # c sigma_d^2

    def test_first_round_responsiveness(self):
        # n=2, unit noise: rho*(0) = 2/(2*2+1) = 0.4
        sched = AlphaSchedule(ModelConfig(n=2), 0)
        assert sched.rho(0) == pytest.approx(0.4, abs=1e-15)

    def test_short_schedule_is_prefix_of_long(self):
        cfg = ModelConfig(n=5, sigma_m=2.0, sigma_d=0.7)
        short = AlphaSchedule(cfg, 2)
        long_ = AlphaSchedule(cfg, 300)
        np.testing.assert_array_equal(short.alphas(2), long_.alphas(300)[:3])
        np.testing.assert_array_equal(short.rhos(2), long_.rhos(300)[:3])
        assert short.rho(2) == long_.rho(2)

    def test_rho_stays_in_unit_interval(self):
        for n, sm, sd in ((2, 1.0, 1.0), (3, 0.1, 5.0), (10, 5.0, 0.1)):
            sched = AlphaSchedule(ModelConfig(n=n, sigma_m=sm, sigma_d=sd), 200)
            rhos = sched.rhos(200)
            assert np.all(rhos >= 0.0) and np.all(rhos < 1.0)

    def test_converges_to_limit(self):
        for n, sm, sd in ((2, 1.0, 1.0), (5, 2.0, 1.0), (10, 1.0, 2.0)):
            cfg = ModelConfig(n=n, sigma_m=sm, sigma_d=sd)
            sched = AlphaSchedule(cfg, 200)
            assert abs(sched.alpha(200) - alpha_infty(cfg)) <= 1e-9
            assert abs(sched.rho(200) - rho_star_const(cfg)) <= 1e-9

    def test_geometric_error_decay(self):
        # |alpha_{t+1} - a| <= (k + eps) |alpha_t - a| with k = a/(a + l),
        # a = sigma_m^2 (n-1)/n, l the limit
        cfg = ModelConfig(n=3, sigma_m=1.0, sigma_d=1.0)
        limit = alpha_infty(cfg)
        a = cfg.sigma_m**2 * (cfg.n - 1) / cfg.n
        k = a / (a + limit)
        sched = AlphaSchedule(cfg, 100)
        errs = np.abs(sched.alphas(100) - limit)
        for t in range(100):
            if errs[t] <= 1e-12:
                break
            assert errs[t + 1] <= (k + 1e-6) * errs[t]

    def test_rejects_negative_round(self):
        sched = AlphaSchedule(ModelConfig(n=2), 1)
        with pytest.raises(ValueError):
            sched.alpha(-1)

    def test_rejects_rounds_beyond_t_max(self):
        sched = AlphaSchedule(ModelConfig(n=2), 4)
        for read in (sched.alpha, sched.rho, sched.alphas, sched.rhos):
            with pytest.raises(ValueError, match="outside the schedule"):
                read(5)

    def test_constructor_rejects_bad_t_max(self):
        cfg = ModelConfig(n=4)
        for t_max in (-1, 2.5, True):
            with pytest.raises(ValueError, match="t_max"):
                AlphaSchedule(cfg, t_max)


class TestClosedFormAgainstDense:
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_covariance_and_gain_match(self, n):
        cfg = ModelConfig(n=n, sigma0=1.0, sigma_m=1.0, sigma_d=1.0)
        sched = AlphaSchedule(cfg, 100)
        worst = 0.0
        for t, (cov_dense, gain_dense) in enumerate(dense_filter_path(cfg, 100)):
            cov_cf, gain_cf = closed_form_filter_state(cfg, t, sched)
            worst = max(worst, np.abs(cov_dense - cov_cf.to_dense()).max())
            worst = max(worst, np.abs(gain_dense - gain_cf.to_dense()).max())
        assert worst <= 1e-9

    def test_gain_structure_values(self):
        # K_0 = -rho*(0) M: diagonal rho*(0), off-diagonal -rho*(0)/(n-1)
        cfg = ModelConfig(n=2)
        _, k0 = closed_form_filter_state(cfg, 0)
        assert k0.diag == pytest.approx(0.4, abs=1e-15)
        assert k0.off == pytest.approx(-0.4, abs=1e-15)

    def test_posterior_covariance_formula(self):
        # P_t = -((n-1)/n) sigma_m^2 alpha_t / (alpha_t + ((n-1)/n) sigma_m^2) M
        cfg = ModelConfig(n=4, sigma_m=1.5, sigma_d=0.8)
        sys_ = alignment_system(cfg)
        state = alignment_initial_state(cfg)
        sched = AlphaSchedule(cfg, 20)
        m = mn(cfg.n).to_dense()
        zeros = np.zeros(cfg.n)
        for t in range(20):
            state = measurement_update(state, sys_, zeros)
            a = sched.alpha(t)
            w = (cfg.n - 1) / cfg.n * cfg.sigma_m**2
            expect = -(w * a / (a + w)) * m
            np.testing.assert_allclose(state.cov_post, expect, atol=1e-10)
            state = time_update(state, sys_, zeros)

    def test_prediction_covariance_increment(self):
        # P-_{t+1} = P_t + sigma_d^2 M^2
        cfg = ModelConfig(n=3)
        sys_ = alignment_system(cfg)
        state = alignment_initial_state(cfg)
        zeros = np.zeros(cfg.n)
        m = mn(3).to_dense()
        for _ in range(10):
            state = measurement_update(state, sys_, zeros)
            nxt = time_update(state, sys_, zeros)
            np.testing.assert_allclose(
                nxt.cov_pre, state.cov_post + cfg.sigma_d**2 * (m @ m), atol=1e-12
            )
            state = nxt

    def test_scheduled_moves_keep_prediction_at_zero(self):
        # feeding u = rho*(t) z back into the dynamics cancels the posterior
        # estimate exactly, so the predicted stretch estimate stays 0
        cfg = ModelConfig(n=5, sigma_m=1.2, sigma_d=0.9)
        sys_ = alignment_system(cfg)
        sched = AlphaSchedule(cfg, 50)
        state = alignment_initial_state(cfg)
        rng = np.random.default_rng(321)
        for t in range(50):
            z = rng.normal(size=cfg.n)
            state = measurement_update(state, sys_, z)
            state = time_update(state, sys_, sched.rho(t) * z)
            assert np.abs(state.estimate_pre).max() < 1e-12


class TestScalarFilter:
    def test_zero_uncertainty_zero_gain(self):
        k, _ = scalar_filter_step(0.0, 0.5, ModelConfig(n=2))
        assert k == 0.0

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            scalar_filter_step(-0.1, 0.5, ModelConfig(n=2))

    def test_hand_value(self):
        # n=2, unit noise, p=2, rho_opp=1/2:
        # k = 2/3, p' = (1/4)(2/3) + (1/4 + 1) + 1 = 29/12
        k, p = scalar_filter_step(2.0, 0.5, ModelConfig(n=2))
        assert k == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert p == pytest.approx(29.0 / 12.0, abs=1e-15)

    def test_scheduled_opponents_reproduce_alpha(self):
        # against rho*(t) opponents the deviator's variance IS alpha_t
        for n, sm, sd in ((2, 1.0, 1.0), (5, 2.0, 1.0), (10, 1.0, 2.0)):
            cfg = ModelConfig(n=n, sigma_m=sm, sigma_d=sd)
            sched = AlphaSchedule(cfg, 50)
            p = cfg.n * cfg.sigma0**2 / (cfg.n - 1)
            for t in range(50):
                assert abs(p - sched.alpha(t)) <= 1e-10
                _, p = scalar_filter_step(p, sched.rho(t), cfg)

    def test_passive_opponents_reduce_to_plain_tracking(self):
        # rho_opp = 0: the stretch is a random walk with per-round noise
        # (1/(n-1) + 1) sigma_d^2; compare with an independent recursion
        cfg = ModelConfig(n=4, sigma_m=1.3, sigma_d=0.6)
        q = (1.0 / (cfg.n - 1) + 1.0) * cfg.sigma_d**2
        r = cfg.sigma_m**2
        p_oracle = 2.0
        p = 2.0
        for _ in range(30):
            k, p = scalar_filter_step(p, 0.0, cfg)
            assert k == pytest.approx(p_oracle / (p_oracle + r), abs=1e-14)
            p_oracle = p_oracle * r / (p_oracle + r) + q
            assert p == pytest.approx(p_oracle, abs=1e-13)
