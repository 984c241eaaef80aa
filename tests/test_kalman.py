"""Tests for the dense filter and the closed forms.

`textbook_rounds` below, the general Kalman recursion run on the
alignment system, is the oracle for the dense path and the closed forms;
`least_linear_stretch`, a least-squares search over every causal linear
policy, is the oracle for the communication claim.
"""

import math
import tracemalloc

import numpy as np
import pytest

from stochalign.analysis import alpha_infty, rho_star_const
from stochalign.kalman import (
    AlphaSchedule,
    closed_form_filter_state,
    dense_filter_path,
)
from stochalign.model import ModelConfig
from stochalign.structmat import mn


def textbook_rounds(cfg, t_max, measure=None, move=None):
    """The textbook Kalman filter on the alignment system, round by round.

    The state is the stretch vector: x' = A x + B u + w, z = H x + v with
    A = H = I, B = M, Q = sigma_d^2 M^2, R = sigma_m^2 I, and x-_0 = 0 with
    P-_0 = sigma0^2 M^2.  The products with A and H are kept, as a general
    filter runs them.  Round t measures z = measure(t) and moves
    u = move(t, z) (zeros by default), and yields (P-_t, K_t, P_t, x-_{t+1}).
    """
    m = mn(cfg.n).to_dense()
    a = h = eye = np.eye(cfg.n)
    q, r = cfg.sigma_d ** 2 * (m @ m), cfg.sigma_m ** 2 * eye
    p, x = cfg.sigma0 ** 2 * (m @ m), np.zeros(cfg.n)
    for t in range(t_max + 1):
        z = np.zeros(cfg.n) if measure is None else measure(t)
        ph = p @ h.T
        k = np.linalg.solve((h @ ph + r).T, ph.T).T
        p_post = (eye - k @ h) @ p
        u = np.zeros(cfg.n) if move is None else move(t, z)
        x = a @ (x + k @ (z - h @ x)) + m @ u
        yield p, k, p_post, x
        p = a @ p_post @ a.T + q


def least_linear_stretch(cfg, rounds, lag=0):
    """The least E s_t^2 per bird over causal linear policies with full
    communication, for t = 1..rounds: (mean over birds, bird 0 alone).

    Every variable is linear in the stacked standard normals z: the initial
    positions sigma0 z, each round's measurement noise sigma_m z and drift
    sigma_d z.  The purified output y~_t = y_t - M sum_{tau<t} u_tau (M the
    stretch operator) is the measurement of the stretch the birds would
    have had without moving, so it does not depend on the policy.  Every
    causal linear policy, each bird seeing every bird's whole history, is
    u_t = sum_{k<=t} L_{t,k} y~_k with free n x n matrices L, and then

        s_t = s~_t + M sum_{k<t} G_k y~_k,    G_k = sum_{k<=tau<t} L_{tau,k},

    where s~_t is the unmoved stretch and the G_k are free again.  As
    E|F z|^2 = |F|_F^2, the least E|s_t|^2 is a linear least-squares problem
    in the entries of G, one per round; so is the least E s_{t,0}^2, with
    every bird's moves still free.  With lag = 1 each u_t sees measurements
    up to round t - 1 only.  The noise is Gaussian, so linear policies are
    optimal among all policies (LQG), and this is the optimum over every
    policy the birds could coordinate on.
    """
    n = cfg.n
    m = mn(n).to_dense()
    dim = n * (1 + 2 * rounds)

    def normals(scale, k):
        """scale times the k-th group of n standard normals, as a map of z."""
        out = np.zeros((n, dim))
        out[:, k * n:(k + 1) * n] = scale * np.eye(n)
        return out

    unmoved = m @ normals(cfg.sigma0, 0)
    purified, mean, bird0 = [], [], []
    for t in range(1, rounds + 1):
        purified.append(unmoved + normals(cfg.sigma_m, t))
        unmoved = unmoved + m @ normals(cfg.sigma_d, rounds + t)
        seen = np.vstack(purified[:t - lag] or [np.zeros((0, dim))])
        # vec(M G A) = (A^T kron M) vec(G), column-major
        for rows, target, least in ((m, unmoved.reshape(-1, order="F"), mean),
                                    (m[:1], unmoved[0], bird0)):
            design = np.kron(seen.T, rows)
            residual = target + design @ np.linalg.lstsq(design, -target, rcond=None)[0]
            least.append(residual @ residual / len(rows))
    return np.array(mean), np.array(bird0)


class TestAlignmentSystem:
    """The inputs the dense path builds: P-_0, Q and R."""

    def test_matrices(self):
        # with sigma0 = 0, round 1 predicts Q itself, and K_1 = Q (Q + R)^-1
        cfg = ModelConfig(n=3, sigma0=0.0, sigma_m=2.0, sigma_d=0.5)
        (p0, k0), (p1, k1) = dense_filter_path(cfg, 1)
        m = mn(3).to_dense()
        q = 0.25 * (m @ m)
        np.testing.assert_array_equal(p0, np.zeros((3, 3)))
        np.testing.assert_array_equal(k0, np.zeros((3, 3)))
        np.testing.assert_array_equal(p1, q)
        np.testing.assert_array_equal(k1, np.linalg.solve((q + 4.0 * np.eye(3)).T, q.T).T)

    def test_initial_state(self):
        cfg = ModelConfig(n=4, sigma0=2.0)
        p0, _ = next(dense_filter_path(cfg, 0))
        m = mn(4).to_dense()
        np.testing.assert_array_equal(p0, 4.0 * (m @ m))
        # equivalently -c sigma0^2 M, and alpha_0 = c sigma0^2 on the diagonal
        np.testing.assert_allclose(p0, -(4.0 / 3.0) * 4.0 * m, atol=1e-12)


class TestDenseFilterSteps:
    """Single rounds of the dense path against hand values."""

    def test_zero_prior_uncertainty_means_zero_gain(self):
        _, k0 = next(dense_filter_path(ModelConfig(n=2, sigma0=0.0), 0))
        np.testing.assert_array_equal(k0, np.zeros((2, 2)))

    def test_huge_measurement_noise_means_tiny_gain(self):
        _, k0 = next(dense_filter_path(ModelConfig(n=2, sigma_m=1e6), 0))
        assert np.abs(k0).max() < 1e-10

    def test_scalar_gain_hand_value(self):
        # n=2, unit noise: P-_0 = M^2 has eigenvalue 4 off the consensus
        # direction, so K_0 there is 4/(4+1) and K_0 = 0.4 [[1, -1], [-1, 1]]
        _, k0 = next(dense_filter_path(ModelConfig(n=2), 0))
        np.testing.assert_allclose(k0, [[0.4, -0.4], [-0.4, 0.4]], atol=1e-15)

    def test_update_shrinks_covariance(self):
        # the measurement update keeps r/(p+r) = 1/5 of P-_0, then Q is added
        cfg = ModelConfig(n=2)
        (p0, _), (p1, _) = dense_filter_path(cfg, 1)
        m = mn(2).to_dense()
        np.testing.assert_allclose(p1 - m @ m, 0.2 * p0, atol=1e-14)

    def test_time_update_adds_process_noise(self):
        # with uninformative measurements each round adds Q = sigma_d^2 M^2
        cfg = ModelConfig(n=3, sigma_m=1e50, sigma_d=0.5)
        m = mn(3).to_dense()
        for t, (p, _) in enumerate(dense_filter_path(cfg, 5)):
            np.testing.assert_allclose(p, (1.0 + 0.25 * t) * (m @ m), atol=1e-14)


class TestDenseFilterPath:
    @pytest.mark.parametrize("n", [2, 3, 10, 64, 256])
    def test_stream_matches_unfused_loop_bit_for_bit(self, n):
        # the oracle keeps the products with A = H = I; n = 64 and 256
        # reach the blocked and threaded BLAS kernels, so they run fewer rounds
        t_max = 30 if n <= 10 else 5
        for sigma0, sigma_m, sigma_d in ((1.3, 0.7, 1.1), (0.0, 2.0, 0.5)):
            cfg = ModelConfig(n=n, sigma0=sigma0, sigma_m=sigma_m, sigma_d=sigma_d)
            expected = [(p, k) for p, k, _, _ in textbook_rounds(cfg, t_max)]
            streamed = list(dense_filter_path(cfg, t_max))
            assert len(streamed) == len(expected)
            for (cov, k), (cov_ref, k_ref) in zip(streamed, expected):
                np.testing.assert_array_equal(cov, cov_ref)
                np.testing.assert_array_equal(k, k_ref)

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
        cov_cf, k_cf = closed_form_filter_state(AlphaSchedule(cfg, 0), 0)
        np.testing.assert_allclose(cov, cov_cf.to_dense(), atol=1e-12)
        np.testing.assert_allclose(k, k_cf.to_dense(), atol=1e-12)

    def test_rejects_negative_t_max_when_called(self):
        with pytest.raises(ValueError, match="t_max must be >= 0"):
            dense_filter_path(ModelConfig(n=2), -1)

    def test_rejects_non_integer_t_max_when_called(self):
        for t_max in (2.5, True):
            with pytest.raises(ValueError, match="t_max must be an integer"):
                dense_filter_path(ModelConfig(n=2), t_max)

    # tracemalloc sees numpy's arrays but neither the two copies of the
    # system numpy's solve makes with plain malloc nor OpenBLAS's own
    # buffers, so these peaks hold on any BLAS thread count

    def test_memory_does_not_grow_with_rounds(self):
        # a consumer that holds each pair while the next round is computed
        # adds its 2 arrays to the path's 4 (P-, Q, the work buffer and the
        # new K); 201 rounds kept would be 402 arrays
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
        assert peak < 6.5 * 8 * cfg.n ** 2

    def test_path_holds_four_arrays_beside_a_consumer_that_drops_each_round(self):
        # P-, Q, the work buffer (P + R, then I - K) and the new K during a
        # solve; M is dropped, M^2 becomes Q, I and R are never formed and
        # the last round's K is not kept
        cfg = ModelConfig(n=300)
        path = dense_filter_path(cfg, 3)
        tracemalloc.start()
        try:
            rounds = 0
            while next(path, None) is not None:
                rounds += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rounds == 4
        assert peak < 4.5 * 8 * cfg.n ** 2


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
        np.testing.assert_array_equal(short.alphas(), long_.alphas()[:3])
        np.testing.assert_array_equal(short.rhos(), long_.rhos()[:3])
        assert short.rho(2) == long_.rho(2)

    def test_rho_stays_in_unit_interval(self):
        for n, sm, sd in ((2, 1.0, 1.0), (3, 0.1, 5.0), (10, 5.0, 0.1)):
            sched = AlphaSchedule(ModelConfig(n=n, sigma_m=sm, sigma_d=sd), 200)
            rhos = sched.rhos()
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
        errs = np.abs(sched.alphas() - limit)
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
        for read in (sched.alpha, sched.rho):
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
            cov_cf, gain_cf = closed_form_filter_state(sched, t)
            worst = max(worst, np.abs(cov_dense - cov_cf.to_dense()).max())
            worst = max(worst, np.abs(gain_dense - gain_cf.to_dense()).max())
        assert worst <= 1e-9

    def test_gain_structure_values(self):
        # K_0 = -rho*(0) M: diagonal rho*(0), off-diagonal -rho*(0)/(n-1)
        cfg = ModelConfig(n=2)
        _, k0 = closed_form_filter_state(AlphaSchedule(cfg, 0), 0)
        assert k0.diag == pytest.approx(0.4, abs=1e-15)
        assert k0.off == pytest.approx(-0.4, abs=1e-15)

    def test_posterior_covariance_formula(self):
        # P_t = -((n-1)/n) sigma_m^2 alpha_t / (alpha_t + ((n-1)/n) sigma_m^2) M
        cfg = ModelConfig(n=4, sigma_m=1.5, sigma_d=0.8)
        sched = AlphaSchedule(cfg, 20)
        m = mn(cfg.n).to_dense()
        w = (cfg.n - 1) / cfg.n * cfg.sigma_m**2
        for t, (_, _, p_post, _) in enumerate(textbook_rounds(cfg, 19)):
            a = sched.alpha(t)
            np.testing.assert_allclose(p_post, -(w * a / (a + w)) * m, atol=1e-10)

    def test_prediction_covariance_increment(self):
        # P-_{t+1} = P_t + sigma_d^2 M^2
        cfg = ModelConfig(n=3)
        m = mn(3).to_dense()
        rounds = list(textbook_rounds(cfg, 10))
        for (_, _, p_post, _), (p_next, _, _, _) in zip(rounds, rounds[1:]):
            np.testing.assert_allclose(
                p_next, p_post + cfg.sigma_d**2 * (m @ m), atol=1e-12
            )

    def test_scheduled_moves_keep_prediction_at_zero(self):
        # feeding u = rho*(t) z back into the dynamics cancels the posterior
        # estimate exactly, so the predicted stretch estimate stays 0
        cfg = ModelConfig(n=5, sigma_m=1.2, sigma_d=0.9)
        sched = AlphaSchedule(cfg, 50)
        rng = np.random.default_rng(321)
        rounds = textbook_rounds(cfg, 49, measure=lambda t: rng.normal(size=cfg.n),
                                 move=lambda t, z: sched.rho(t) * z)
        for _, _, _, x_next in rounds:
            assert np.abs(x_next).max() < 1e-12


class TestClosedFormState:
    @pytest.mark.parametrize("n", [2, 5])
    def test_takes_n_and_values_from_its_schedule(self, n):
        sched = AlphaSchedule(ModelConfig(n=n, sigma0=0.7, sigma_m=1.3, sigma_d=0.4), 20)
        # P-_t = -alpha_t M and K_t = -rho*(t) M with the schedule's own n
        for t in range(21):
            cov, gain = closed_form_filter_state(sched, t)
            assert cov.to_dense().tobytes() == (-sched.alpha(t) * mn(n)).to_dense().tobytes()
            assert gain.to_dense().tobytes() == (-sched.rho(t) * mn(n)).to_dense().tobytes()


class TestCommunication:
    """The paper's communication claim: W* stays optimal when every bird
    sees every bird's measurements, checked against every causal linear
    policy by `least_linear_stretch`."""

    CASES = [  # (n, rounds, sigma0, sigma_m, sigma_d)
        (3, 6, 1.0, 1.0, 1.0),
        (4, 8, 2.0, 1.0, 0.5),
        (5, 10, 1.0, 3.0, 1.0),
        (2, 10, 0.5, 1.0, 2.0),
    ]
    # relative; the least-squares conditioning grows with the noise ratio
    RTOL = 1e-12

    @staticmethod
    def wstar_variance(cfg, rounds):
        """W*'s exact per-bird E s_t^2, t = 1..rounds, from
        v' = (1 - c rho*)^2 v + c (rho*^2 sigma_m^2 + sigma_d^2)."""
        c = cfg.n / (cfg.n - 1)
        v = [c * cfg.sigma0 ** 2]
        for rho in AlphaSchedule(cfg, rounds).rhos()[:rounds]:
            v.append((1 - c * rho) ** 2 * v[-1]
                     + c * (rho ** 2 * cfg.sigma_m ** 2 + cfg.sigma_d ** 2))
        return np.array(v[1:])

    def test_no_communicating_linear_policy_beats_wstar(self):
        worst, gap = 0.0, math.inf
        for n, rounds, sigma0, sigma_m, sigma_d in self.CASES:
            cfg = ModelConfig(n=n, sigma0=sigma0, sigma_m=sigma_m, sigma_d=sigma_d)
            wstar = self.wstar_variance(cfg, rounds)
            for least in least_linear_stretch(cfg, rounds):
                worst = max(worst, np.abs(least / wstar - 1).max())
            # negative control: without the current round's measurements
            # the same search must come out strictly above W*
            for late in least_linear_stretch(cfg, rounds, lag=1):
                gap = min(gap, (late / wstar - 1).min())
        ok = worst <= self.RTOL and gap > 1e-3
        print(f"\nACCEPTANCE communication: {'PASS' if ok else 'FAIL'} — least E s_t^2 "
              f"over causal linear policies with full communication vs W*: max relative "
              f"deviation {worst:.2g} (tolerance {self.RTOL:g}); one round late, "
              f"at least {gap:.1%} above")
        assert ok
