"""Kalman filtering for the alignment dynamics.

The pooled filter on the stretch vector comes two ways: `dense_filter_path`
streams the dense covariance recursion, one solve and one matrix product
per round in about four n x n arrays, and the closed forms (`AlphaSchedule`,
`closed_form_filter_state`) exploit the constant-diagonal structure of
the alignment system at O(1) per round.  `kalman-check` compares the two
round by round.
"""

import numpy as np

from .model import ModelConfig, require_int
from .structmat import StructuredMatrix, mn


def dense_filter_path(cfg: ModelConfig, t_max: int):
    """Prediction covariance and gain per round from the dense filter.

    Runs the textbook covariance recursion on the alignment system, whose
    dynamics and measurement matrices are both I, from P-_0 = sigma0^2 M^2
    with Q = sigma_d^2 M^2 and R = sigma_m^2 I (M the stretch operator);
    measurements and inputs do not affect covariances, so none are needed:

        K_t = P-_t (P-_t + R)^-1,    P-_{t+1} = (I - K_t) P-_t + Q.

    These are the bits of the general recursion in `tests/test_kalman.py`,
    products with I included, except that at sigma0 = 0 zero entries of
    K_0 may carry the other sign: R and I are never formed and touch only
    the diagonal, so off it P + R and I - K hold P's and -K's own entries
    where the recursion added or subtracted 0.  Yields (P-_t, K_t) for
    t = 0..t_max as fresh dense arrays, one round at a time.  Besides P-_t
    it holds Q and one n x n work buffer, which takes P + R and then I - K,
    and it drops K_t once I - K is formed; a consumer that drops each pair
    before taking the next sees a peak of four n x n arrays, the new K
    during a solve, independent of t_max.  t_max is checked when this is
    called, not when the first round is drawn.
    """
    require_int("t_max", t_max, lo=0)
    return _dense_filter_rounds(cfg, t_max)


def _dense_filter_rounds(cfg: ModelConfig, t_max: int):
    m = mn(cfg.n).to_dense()
    q = m @ m  # M^2, scaled into Q in place once P-_0 is formed
    del m
    p = cfg.sigma0 ** 2 * q
    q *= cfg.sigma_d ** 2
    work = np.empty_like(p)  # P + R, then I - K
    diagonal = work.reshape(-1)[::cfg.n + 1]
    sm2 = cfg.sigma_m ** 2
    for _ in range(t_max + 1):
        # K = P (P + R)^-1, solved on the transposed system
        np.copyto(work, p)
        diagonal += sm2
        k = np.linalg.solve(work.T, p.T).T
        yield p, k
        np.negative(k, out=work)
        diagonal += 1.0
        del k  # the consumer's copy is all that may keep K alive now
        p = work @ p
        p += q


class AlphaSchedule:
    """Per-coordinate prediction uncertainty alpha_t and responsiveness rho*(t).

    alpha_0 = n sigma0^2 / (n-1), and each round

        alpha_{t+1} = sigma_m^2 alpha_t / (c alpha_t + sigma_m^2) + c sigma_d^2,
        rho*(t)     = alpha_t / (c alpha_t + sigma_m^2),         c = n/(n-1).

    Both are computed once, for rounds 0..t_max.  alpha(t) and rho(t)
    read one round and reject a round outside that range; alphas() and
    rhos() return copies of all t_max + 1 rounds.
    """

    def __init__(self, cfg: ModelConfig, t_max: int):
        require_int("t_max", t_max, lo=0)
        self.cfg = cfg
        self.t_max = t_max
        c = cfg.n / (cfg.n - 1)
        sm2 = cfg.sigma_m ** 2
        csd2 = c * cfg.sigma_d ** 2
        # allocated up front, so a t_max too large for memory fails at once
        self._alphas = a = np.empty(t_max + 1)
        a[0] = prev = cfg.n * cfg.sigma0 ** 2 / (cfg.n - 1)
        for t in range(1, t_max + 1):
            a[t] = prev = sm2 * prev / (c * prev + sm2) + csd2
        self._rhos = self._alphas / (c * self._alphas + sm2)

    def _check(self, t: int) -> int:
        if not 0 <= t <= self.t_max:
            raise ValueError(f"round {t} is outside the schedule's rounds 0..{self.t_max}")
        return t

    def alpha(self, t: int) -> float:
        return float(self._alphas[self._check(t)])

    def rho(self, t: int) -> float:
        return float(self._rhos[self._check(t)])

    def alphas(self) -> np.ndarray:
        return self._alphas.copy()

    def rhos(self) -> np.ndarray:
        return self._rhos.copy()


def closed_form_filter_state(schedule: AlphaSchedule, t: int):
    """Structured (prediction covariance, gain) at round t of the schedule's config.

    P-_t = -alpha_t M and K_t = -rho*(t) M, where M is the stretch
    operator of the schedule's n; both stay in the constant-diagonal
    family forever.
    """
    m = mn(schedule.cfg.n)
    cov_pre: StructuredMatrix = -schedule.alpha(t) * m
    gain_t: StructuredMatrix = -schedule.rho(t) * m
    return cov_pre, gain_t
