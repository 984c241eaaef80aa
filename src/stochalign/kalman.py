"""Kalman filtering for the alignment dynamics.

The pooled filter on the stretch vector comes two ways: `dense_filter_path`
streams the dense covariance recursion, one solve and one matrix product
per round in O(n^2) memory, and the closed forms (`AlphaSchedule`,
`closed_form_filter_state`) exploit the constant-diagonal structure of
the alignment system at O(1) per round.  `kalman-check` compares the two
round by round.  `scalar_filter_step` is the deviating agent's filter,
which the game layer uses.
"""

from typing import Optional

import numpy as np

from .model import ModelConfig, require_int
from .structmat import StructuredMatrix, mn


def _check_t_max(t_max) -> None:
    require_int("t_max", t_max)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")


def dense_filter_path(cfg: ModelConfig, t_max: int):
    """Prediction covariance and gain per round from the dense filter.

    Runs the textbook covariance recursion on the alignment system, whose
    dynamics and measurement matrices are both I, from P-_0 = sigma0^2 M^2
    with Q = sigma_d^2 M^2 and R = sigma_m^2 I (M the stretch operator);
    measurements and inputs do not affect covariances, so none are needed:

        K_t = P-_t (P-_t + R)^-1,    P-_{t+1} = (I - K_t) P-_t + Q.

    These are the bits of the general recursion in `tests/test_kalman.py`,
    products with I included, except that at sigma0 = 0 zero entries of
    K_0 may carry the other sign.  Yields (P-_t, K_t) for t = 0..t_max as
    fresh dense arrays, one round at a time, and holds only the current
    round's matrices, so its memory is O(n^2) independent of t_max.  t_max
    is checked when this is called, not when the first round is drawn.
    """
    _check_t_max(t_max)
    return _dense_filter_rounds(cfg, t_max)


def _dense_filter_rounds(cfg: ModelConfig, t_max: int):
    m = mn(cfg.n).to_dense()
    m2 = m @ m
    p = cfg.sigma0 ** 2 * m2
    q = cfg.sigma_d ** 2 * m2
    eye = np.eye(cfg.n)
    r = cfg.sigma_m ** 2 * eye
    for _ in range(t_max + 1):
        # K = P (P + R)^-1, solved on the transposed system
        k = np.linalg.solve((p + r).T, p.T).T
        yield p, k
        p = (eye - k) @ p + q


class AlphaSchedule:
    """Per-coordinate prediction uncertainty alpha_t and responsiveness rho*(t).

    alpha_0 = n sigma0^2 / (n-1), and each round

        alpha_{t+1} = sigma_m^2 alpha_t / (c alpha_t + sigma_m^2) + c sigma_d^2,
        rho*(t)     = alpha_t / (c alpha_t + sigma_m^2),         c = n/(n-1).

    Both are computed once, for rounds 0..t_max (default: the config
    horizon); a round outside that range is rejected.
    """

    def __init__(self, cfg: ModelConfig, t_max: Optional[int] = None):
        t_max = cfg.horizon if t_max is None else t_max
        _check_t_max(t_max)
        self.cfg = cfg
        self.t_max = t_max
        c = cfg.n / (cfg.n - 1)
        sm2 = cfg.sigma_m ** 2
        csd2 = c * cfg.sigma_d ** 2
        a = [cfg.n * cfg.sigma0 ** 2 / (cfg.n - 1)]
        for _ in range(t_max):
            prev = a[-1]
            a.append(sm2 * prev / (c * prev + sm2) + csd2)
        self._alphas = np.array(a)
        self._rhos = self._alphas / (c * self._alphas + sm2)

    def _check(self, t: int) -> int:
        if not 0 <= t <= self.t_max:
            raise ValueError(f"round {t} is outside the schedule's rounds 0..{self.t_max}")
        return t

    def alpha(self, t: int) -> float:
        return float(self._alphas[self._check(t)])

    def rho(self, t: int) -> float:
        return float(self._rhos[self._check(t)])

    def alphas(self, t_max: int) -> np.ndarray:
        return self._alphas[:self._check(t_max) + 1].copy()

    def rhos(self, t_max: int) -> np.ndarray:
        return self._rhos[:self._check(t_max) + 1].copy()


def closed_form_filter_state(cfg: ModelConfig, t: int,
                             schedule: Optional[AlphaSchedule] = None):
    """Structured (prediction covariance, gain) at round t.

    P-_t = -alpha_t M and K_t = -rho*(t) M, where M is the stretch
    operator; both stay in the constant-diagonal family forever.
    """
    if schedule is None:
        schedule = AlphaSchedule(cfg, t)
    m = mn(cfg.n)
    cov_pre: StructuredMatrix = -schedule.alpha(t) * m
    gain_t: StructuredMatrix = -schedule.rho(t) * m
    return cov_pre, gain_t


def scalar_filter_step(p_pre: float, rho_opp: float, cfg: ModelConfig):
    """One round of the deviating agent's scalar filter.

    The agent tracks its own stretch while every opponent plays
    responsiveness rho_opp this round.  Returns (gain, next prediction
    variance); the agent's own move is known to it and does not enter the
    variance recursion.
    """
    if p_pre < 0:
        raise ValueError(f"prediction variance must be >= 0, got {p_pre}")
    n = cfg.n
    sm2 = cfg.sigma_m ** 2
    sd2 = cfg.sigma_d ** 2
    k = p_pre / (p_pre + sm2)
    shrink = 1.0 - rho_opp / (n - 1)
    p_next = (shrink ** 2 * p_pre * sm2 / (p_pre + sm2)
              + (rho_opp ** 2 * sm2 + sd2) / (n - 1) + sd2)
    return k, p_next
